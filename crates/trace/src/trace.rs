//! In-memory access traces and trace-level statistics.
//!
//! ## Packed struct-of-arrays layout
//!
//! A [`Trace`] is replayed millions of times by the engine but mutated
//! never, so it stores its accesses as parallel arrays instead of a
//! `Vec<Access>`: a per-access `addrs` word, a packed `meta` word
//! holding kind/dep/gap, and a 4-byte index into a small PC dictionary
//! (real traces touch a handful of distinct PCs, so the dictionary is
//! negligible). An [`Access`] is 24 bytes with padding; the packed
//! layout is 16 bytes per access and keeps the replay loop walking
//! dense, independently prefetchable streams. [`Access`] remains
//! the builder/generator-facing view: [`TraceBuilder`] packs each one
//! into the columns as it is pushed (there is no staging copy) and
//! [`Trace::get`]/[`Trace::iter`] reconstitute it on demand, so code
//! that produces or inspects traces never sees the packing.
//!
//! Summary statistics are not stored: [`Trace::stats`] recounts them
//! from the columns when asked. Only tests and `tpcli inspect` ask, and
//! a cached copy would cost every generated trace a per-access line set.

use crate::record::{Access, AccessKind, Addr, Dep, Pc};
use crate::workloads::Suite;
use std::collections::HashMap;
use std::fmt;

/// Largest representable non-memory instruction gap (30 bits). Gaps
/// beyond this saturate at construction time; every generator in this
/// repo stays far below it (typical gaps are single digits).
pub const MAX_GAP: u32 = (1 << 30) - 1;

/// `meta` bit flagging a store (vs load).
const STORE_BIT: u32 = 1 << 31;
/// `meta` bit flagging a dependent (pointer-chase) load.
const DEP_BIT: u32 = 1 << 30;

#[inline]
fn pack_meta(kind: AccessKind, dep: Dep, gap: u32) -> u32 {
    let mut m = gap.min(MAX_GAP);
    if kind == AccessKind::Store {
        m |= STORE_BIT;
    }
    if dep == Dep::PrevLoad {
        m |= DEP_BIT;
    }
    m
}

#[inline]
fn unpack_meta(m: u32) -> (AccessKind, Dep, u32) {
    (
        if m & STORE_BIT != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
        if m & DEP_BIT != 0 { Dep::PrevLoad } else { Dep::None },
        m & MAX_GAP,
    )
}

/// A complete, replayable memory access trace for one simulated core.
///
/// Traces are produced by the generators in [`crate::gen`] and consumed by
/// the `tpsim` engine. A trace records only memory accesses; non-memory
/// instructions are represented by each access's `gap` field.
///
/// Internally the accesses live in a packed struct-of-arrays layout
/// (see the module docs); traces are immutable once built, which is
/// what lets the process-wide [`crate::pool`] hand the same
/// `Arc<Trace>` to every replayer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    name: String,
    suite: Suite,
    /// Distinct PCs in first-appearance order.
    pc_table: Vec<u64>,
    /// Per-access index into `pc_table`.
    pc_ix: Vec<u32>,
    addrs: Vec<u64>,
    meta: Vec<u32>,
}

impl Trace {
    /// Creates a trace from a list of accesses by pushing each through
    /// a [`TraceBuilder`], the one packing path. Gaps above [`MAX_GAP`]
    /// saturate. Generators use the builder directly, which never holds
    /// an unpacked copy.
    pub fn new(name: impl Into<String>, suite: Suite, accesses: Vec<Access>) -> Self {
        let mut b = TraceBuilder::new(name, suite);
        for a in accesses {
            b.push(a);
        }
        b.finish()
    }

    /// Workload name, e.g. `"gap.pr"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which benchmark suite this workload stands in for.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Reconstitutes the access at `idx` from the packed arrays.
    ///
    /// This is the replay hot path: three dense array loads, no
    /// allocation.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> Access {
        let (kind, dep, gap) = unpack_meta(self.meta[idx]);
        Access {
            pc: Pc(self.pc_table[self.pc_ix[idx] as usize]),
            addr: Addr(self.addrs[idx]),
            kind,
            dep,
            gap,
        }
    }

    /// The recorded accesses, in program order, **materialized** into a
    /// fresh `Vec`. This is an O(n) reconstruction from the packed
    /// arrays — convenient for tests and offline tools; replay loops
    /// should use [`Trace::get`] or [`Trace::iter`] instead.
    pub fn accesses(&self) -> Vec<Access> {
        self.iter().collect()
    }

    /// Number of memory accesses in the trace.
    pub fn len(&self) -> usize {
        self.pc_ix.len()
    }

    /// Whether the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.pc_ix.is_empty()
    }

    /// Total instruction count represented (accesses plus gaps).
    pub fn instructions(&self) -> u64 {
        self.meta.iter().map(|&m| 1 + (m & MAX_GAP) as u64).sum()
    }

    /// Iterate over accesses (reconstituted by value; `Access` is
    /// `Copy`).
    pub fn iter(&self) -> Accesses<'_> {
        Accesses { trace: self, idx: 0 }
    }

    /// Summary statistics for the trace, recounted from the columns on
    /// every call: a pass over `meta` and a sort of the line numbers.
    pub fn stats(&self) -> TraceStats {
        let count = |bit: u32| self.meta.iter().filter(|&&m| m & bit != 0).count() as u64;
        let stores = count(STORE_BIT);
        TraceStats {
            accesses: self.len() as u64,
            instructions: self.instructions(),
            loads: self.len() as u64 - stores,
            stores,
            dependent_loads: count(DEP_BIT),
            unique_lines: self.footprint_lines(),
        }
    }

    /// Unique cache lines touched by the trace (sorts a copy of them).
    pub fn footprint_lines(&self) -> u64 {
        let mut lines: Vec<u64> = self.addrs.iter().map(|&a| Addr(a).line().0).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    /// A zero-copy window of `len` accesses starting at `start`,
    /// borrowing the packed arrays directly.
    ///
    /// This is the batched-replay entry point: the engine pulls
    /// fixed-size blocks and walks them with [`BlockView::get`] (three
    /// dense loads, no bounds re-derivation per access). Blocks never wrap: callers clamp `len` to
    /// `trace.len() - start` and take a fresh block after the wrap.
    ///
    /// # Panics
    /// Panics if `start + len > self.len()`.
    #[inline]
    pub fn block(&self, start: usize, len: usize) -> BlockView<'_> {
        let end = start
            .checked_add(len)
            .expect("block range overflows usize");
        assert!(end <= self.len(), "block [{start}, {end}) out of bounds");
        BlockView {
            pc_table: &self.pc_table,
            pc_ix: &self.pc_ix[start..end],
            addrs: &self.addrs[start..end],
            meta: &self.meta[start..end],
        }
    }

    /// Heap bytes resident for this trace's packed arrays and name —
    /// the quantity the trace pool's byte accounting and eviction
    /// policy operate on.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + self.pc_table.capacity() * std::mem::size_of::<u64>()
            + self.pc_ix.capacity() * std::mem::size_of::<u32>()
            + self.addrs.capacity() * std::mem::size_of::<u64>()
            + self.meta.capacity() * std::mem::size_of::<u32>()
    }
}

/// A borrowed block of consecutive accesses in a [`Trace`]'s packed
/// struct-of-arrays layout (see [`Trace::block`]).
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    pc_table: &'a [u64],
    pc_ix: &'a [u32],
    addrs: &'a [u64],
    meta: &'a [u32],
}

impl BlockView<'_> {
    /// Number of accesses in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.pc_ix.len()
    }

    /// Whether the block holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pc_ix.is_empty()
    }

    /// Reconstitutes the `i`-th access of the block.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        let (kind, dep, gap) = unpack_meta(self.meta[i]);
        Access {
            pc: Pc(self.pc_table[self.pc_ix[i] as usize]),
            addr: Addr(self.addrs[i]),
            kind,
            dep,
            gap,
        }
    }
}

/// Iterator over a trace's accesses, reconstituting each [`Access`]
/// from the packed arrays (see [`Trace::iter`]).
#[derive(Clone, Debug)]
pub struct Accesses<'a> {
    trace: &'a Trace,
    idx: usize,
}

impl Iterator for Accesses<'_> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        if self.idx >= self.trace.len() {
            return None;
        }
        let a = self.trace.get(self.idx);
        self.idx += 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.trace.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Accesses<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = Access;
    type IntoIter = Accesses<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Summary statistics over a [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total memory accesses.
    pub accesses: u64,
    /// Total instructions represented (accesses + gaps).
    pub instructions: u64,
    /// Load count.
    pub loads: u64,
    /// Store count.
    pub stores: u64,
    /// Loads whose address depends on the previous load.
    pub dependent_loads: u64,
    /// Distinct cache lines touched.
    pub unique_lines: u64,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} loads / {} stores, {} dependent), {} instrs, {} unique lines",
            self.accesses,
            self.loads,
            self.stores,
            self.dependent_loads,
            self.instructions,
            self.unique_lines
        )
    }
}

/// Incremental builder used by the workload generators. Each pushed
/// access is packed straight into the trace's columns: no staging copy.
///
/// ```
/// use tptrace::{TraceBuilder, Suite};
/// let mut b = TraceBuilder::new("demo", Suite::Spec06);
/// b.load(0x400, 0x1000);
/// b.dep_load(0x404, 0x2000);
/// b.store(0x408, 0x3000);
/// let t = b.finish();
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    /// The trace so far, its columns growing by push.
    trace: Trace,
    /// `trace.pc_table` inverted: PC → dictionary index.
    pc_index: HashMap<u64, u32>,
    default_gap: u32,
}

impl TraceBuilder {
    /// Starts a new trace.
    pub fn new(name: impl Into<String>, suite: Suite) -> Self {
        TraceBuilder {
            trace: Trace {
                name: name.into(),
                suite,
                pc_table: Vec::new(),
                pc_ix: Vec::new(),
                addrs: Vec::new(),
                meta: Vec::new(),
            },
            pc_index: HashMap::new(),
            default_gap: 2,
        }
    }

    /// Sets the default non-memory instruction gap used by the convenience
    /// record methods. Larger gaps model more compute per access.
    pub fn default_gap(&mut self, gap: u32) -> &mut Self {
        self.default_gap = gap;
        self
    }

    /// Appends an arbitrary access record, interning its PC.
    pub fn push(&mut self, access: Access) -> &mut Self {
        let t = &mut self.trace;
        let ix = *self.pc_index.entry(access.pc.0).or_insert_with(|| {
            t.pc_table.push(access.pc.0);
            (t.pc_table.len() - 1) as u32
        });
        t.pc_ix.push(ix);
        t.addrs.push(access.addr.0);
        t.meta.push(pack_meta(access.kind, access.dep, access.gap));
        self
    }

    /// Appends an independent load.
    pub fn load(&mut self, pc: u64, addr: u64) -> &mut Self {
        let gap = self.default_gap;
        self.push(Access {
            gap,
            ..Access::load(pc, addr)
        })
    }

    /// Appends a dependent (pointer-chase) load.
    pub fn dep_load(&mut self, pc: u64, addr: u64) -> &mut Self {
        let gap = self.default_gap;
        self.push(Access {
            gap,
            ..Access::dep_load(pc, addr)
        })
    }

    /// Appends a store.
    pub fn store(&mut self, pc: u64, addr: u64) -> &mut Self {
        let gap = self.default_gap;
        self.push(Access {
            gap,
            ..Access::store(pc, addr)
        })
    }

    /// Number of accesses recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no accesses have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finalises the trace, trimming each column to its length:
    /// [`Trace::resident_bytes`] (and so the pool's accounting) reads
    /// capacity.
    pub fn finish(mut self) -> Trace {
        let t = &mut self.trace;
        t.pc_table.shrink_to_fit();
        t.pc_ix.shrink_to_fit();
        t.addrs.shrink_to_fit();
        t.meta.shrink_to_fit();
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_in_order() {
        let mut b = TraceBuilder::new("t", Suite::Gap);
        b.load(1, 64).dep_load(2, 128).store(3, 192);
        let t = b.finish();
        assert_eq!(t.name(), "t");
        assert_eq!(t.suite(), Suite::Gap);
        assert_eq!(t.len(), 3);
        assert_eq!(t.accesses()[1].dep, Dep::PrevLoad);
        assert_eq!(t.accesses()[2].kind, AccessKind::Store);
    }

    #[test]
    fn stats_count_categories() {
        let mut b = TraceBuilder::new("t", Suite::Spec17);
        b.load(1, 0).load(1, 64).dep_load(1, 128).store(1, 64);
        let s = b.finish().stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.loads, 3);
        assert_eq!(s.stores, 1);
        assert_eq!(s.dependent_loads, 1);
        assert_eq!(s.unique_lines, 3);
        assert_eq!(s.instructions, 4 * 3);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn default_gap_applies_to_later_records() {
        let mut b = TraceBuilder::new("t", Suite::Spec06);
        b.load(1, 0);
        b.default_gap(10);
        b.load(1, 64);
        let t = b.finish();
        assert_eq!(t.accesses()[0].gap, 2);
        assert_eq!(t.accesses()[1].gap, 10);
    }

    #[test]
    fn footprint_counts_unique_lines() {
        let mut b = TraceBuilder::new("t", Suite::Spec06);
        for i in 0..100 {
            b.load(1, (i % 10) * 64);
        }
        assert_eq!(b.finish().footprint_lines(), 10);
    }

    #[test]
    fn packing_round_trips_every_field() {
        // Every (kind, dep, gap) combination survives pack/unpack, and
        // get/iter/accesses agree with the originals.
        let mut originals = Vec::new();
        for (i, &kind) in [AccessKind::Load, AccessKind::Store].iter().enumerate() {
            for (j, &dep) in [Dep::None, Dep::PrevLoad].iter().enumerate() {
                for (k, &gap) in [0u32, 1, 2, 255, MAX_GAP].iter().enumerate() {
                    originals.push(Access {
                        pc: Pc(0x400_000 + (i * 100 + j * 10 + k) as u64),
                        addr: Addr(u64::MAX - (i + j + k) as u64 * 64),
                        kind,
                        dep,
                        gap,
                    });
                }
            }
        }
        let t = Trace::new("pack", Suite::Gap, originals.clone());
        assert_eq!(t.accesses(), originals);
        for (i, want) in originals.iter().enumerate() {
            assert_eq!(t.get(i), *want, "access {i}");
        }
        assert_eq!(t.iter().count(), originals.len());
    }

    #[test]
    fn oversized_gaps_saturate_at_max_gap() {
        let t = Trace::new(
            "sat",
            Suite::Gap,
            vec![Access {
                gap: u32::MAX,
                ..Access::load(1, 64)
            }],
        );
        assert_eq!(t.get(0).gap, MAX_GAP);
        // The instruction count uses the saturated gap.
        assert_eq!(t.instructions(), 1 + MAX_GAP as u64);
    }

    #[test]
    fn soa_layout_is_smaller_than_aos() {
        // A realistic shape: many accesses, few distinct PCs.
        let accesses: Vec<Access> =
            (0..1000).map(|i| Access::load(1 + i % 8, i * 64)).collect();
        let aos_bytes = accesses.len() * std::mem::size_of::<Access>();
        let t = Trace::new("size", Suite::Gap, accesses);
        // The per-access arrays cost exactly 16 B each (4 B pc index +
        // 8 B addr + 4 B meta); the PC dictionary is amortized noise.
        let per_access = (t.pc_ix.capacity() * 4
            + t.addrs.capacity() * 8
            + t.meta.capacity() * 4)
            / t.len();
        assert_eq!(per_access, 16, "packed layout is 16 B/access");
        assert_eq!(t.pc_table.len(), 8, "dictionary holds distinct PCs once");
        assert!(
            t.resident_bytes() < aos_bytes * 7 / 10,
            "SoA {} should be well under AoS {}",
            t.resident_bytes(),
            aos_bytes
        );
    }

    #[test]
    fn block_view_agrees_with_get_everywhere() {
        let mut b = TraceBuilder::new("blk", Suite::Gap);
        for i in 0..300u64 {
            match i % 3 {
                0 => b.load(i % 7, i * 64),
                1 => b.dep_load(i % 7, i * 64 + 8),
                _ => b.store(i % 7, i * 64 + 16),
            };
        }
        let t = b.finish();
        // Every (start, len) shape the engine can produce, including
        // empty blocks and full-trace blocks.
        for &(start, len) in &[(0usize, 300usize), (0, 1), (299, 1), (150, 0), (37, 256), (44, 7)] {
            let blk = t.block(start, len);
            assert_eq!(blk.len(), len);
            assert_eq!(blk.is_empty(), len == 0);
            for i in 0..len {
                assert_eq!(blk.get(i), t.get(start + i), "block({start},{len})[{i}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_view_rejects_out_of_range() {
        let mut b = TraceBuilder::new("blk", Suite::Gap);
        b.load(1, 64);
        let t = b.finish();
        let _ = t.block(1, 1);
    }

    #[test]
    fn stats_agree_with_a_recount_of_the_view() {
        let mut b = TraceBuilder::new("t", Suite::Spec06);
        for i in 0..500u64 {
            if i % 7 == 0 {
                b.store(i % 13, i * 8);
            } else if i % 3 == 0 {
                b.dep_load(i % 13, i * 8);
            } else {
                b.load(i % 13, i * 8);
            }
        }
        let t = b.finish();
        let s = t.stats();
        // Recount from the reconstituted view.
        let loads = t.iter().filter(|a| a.kind == AccessKind::Load).count() as u64;
        let stores = t.iter().filter(|a| a.kind == AccessKind::Store).count() as u64;
        let deps = t.iter().filter(|a| a.dep == Dep::PrevLoad).count() as u64;
        let instrs: u64 = t.iter().map(|a| a.instructions()).sum();
        assert_eq!((s.loads, s.stores, s.dependent_loads), (loads, stores, deps));
        assert_eq!(s.instructions, instrs);
        assert_eq!(s.accesses, t.len() as u64);
    }

    /// The packing loop `Trace::new` ran before the builder packed in
    /// place: a staged `Vec<Access>`, columns reserved to its length,
    /// and a `TraceStats` cached in the same pass with a hashed line
    /// set. Kept as the reference the builder is pinned against.
    fn reference_new(name: &str, suite: Suite, accesses: &[Access]) -> (Trace, TraceStats) {
        let n = accesses.len();
        let mut pc_table = Vec::new();
        let mut pc_index: HashMap<u64, u32> = HashMap::new();
        let mut pc_ix = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let mut lines = std::collections::HashSet::new();
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut dependent = 0u64;
        let mut instructions = 0u64;
        for a in accesses {
            let ix = *pc_index.entry(a.pc.0).or_insert_with(|| {
                pc_table.push(a.pc.0);
                (pc_table.len() - 1) as u32
            });
            pc_ix.push(ix);
            addrs.push(a.addr.0);
            let m = pack_meta(a.kind, a.dep, a.gap);
            meta.push(m);
            lines.insert(a.addr.line());
            match a.kind {
                AccessKind::Load => loads += 1,
                AccessKind::Store => stores += 1,
            }
            if a.dep == Dep::PrevLoad {
                dependent += 1;
            }
            instructions += 1 + (m & MAX_GAP) as u64;
        }
        let trace = Trace {
            name: name.into(),
            suite,
            pc_table,
            pc_ix,
            addrs,
            meta,
        };
        let stats = TraceStats {
            accesses: n as u64,
            instructions,
            loads,
            stores,
            dependent_loads: dependent,
            unique_lines: lines.len() as u64,
        };
        (trace, stats)
    }

    /// Both kinds, dependent loads, a few hot PCs among fresh ones,
    /// lines that repeat among lines that do not, and gaps past
    /// `MAX_GAP`.
    fn random_accesses(g: &mut tpcheck::Gen) -> Vec<Access> {
        let hot_pcs = g.u64_in(1..12);
        g.vec(0..400, |g| Access {
            pc: Pc(if g.u64_in(0..8) == 0 {
                g.next_u64()
            } else {
                0x400_000 + 4 * g.u64_in(0..hot_pcs)
            }),
            addr: Addr(if g.bool() {
                g.u64_in(0..64 * 64)
            } else {
                g.next_u64()
            }),
            kind: if g.bool() { AccessKind::Store } else { AccessKind::Load },
            dep: if g.u64_in(0..3) == 0 { Dep::PrevLoad } else { Dep::None },
            gap: if g.u64_in(0..8) == 0 {
                g.u64_in(MAX_GAP as u64 + 1..1 << 32) as u32
            } else {
                g.u64_in(0..16) as u32
            },
        })
    }

    #[test]
    fn builder_packs_exactly_like_the_reference_loop() {
        tpcheck::check("builder == reference packing", 256, |g| {
            let accesses = random_accesses(g);
            let (want, want_stats) = reference_new("eq", Suite::Spec17, &accesses);
            let mut b = TraceBuilder::new("eq", Suite::Spec17);
            for &a in &accesses {
                b.push(a);
            }
            let got = b.finish();
            tpcheck::ensure!((got.name(), got.suite()) == (want.name(), want.suite()));
            tpcheck::ensure!(got.pc_table == want.pc_table, "pc_table differs");
            tpcheck::ensure!(got.pc_ix == want.pc_ix, "pc_ix differs");
            tpcheck::ensure!(got.addrs == want.addrs, "addrs differs");
            tpcheck::ensure!(got.meta == want.meta, "meta differs");
            let caps = [
                got.pc_table.capacity(),
                got.pc_ix.capacity(),
                got.addrs.capacity(),
                got.meta.capacity(),
            ];
            let lens = [got.pc_table.len(), got.len(), got.len(), got.len()];
            tpcheck::ensure!(caps == lens, "columns not trimmed: {caps:?} for {lens:?}");
            tpcheck::ensure!(
                got.stats() == want_stats,
                "{:?} != {want_stats:?}",
                got.stats()
            );
            tpcheck::ensure!(Trace::new("eq", Suite::Spec17, accesses) == got);
            Ok(())
        });
    }
}
