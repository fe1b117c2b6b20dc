//! In-memory access traces and trace-level statistics.
//!
//! ## Packed layout: two columns and a shape dictionary
//!
//! A [`Trace`] is replayed millions of times by the engine but mutated
//! never, so instead of a `Vec<Access>` (24 B per access) it stores two
//! parallel columns: each access's low 32 address bits (`u32`) and an
//! index into a per-trace dictionary of *shapes*. A shape is everything
//! about an access except that low word (PC, high 32 address bits,
//! kind, dependence, gap), one 16-byte entry per distinct tuple in
//! first-appearance order. Generators emit a handful of PCs, addresses
//! in a few 4 GiB regions and one gap per trace, so a trace holds a few
//! shapes: the table stays in L1, the index fits in one byte and the
//! layout costs 5 B per access. The index column is `u8` while the
//! dictionary holds at most 256 shapes; the builder widens it to `u32`
//! once, when a 257th distinct shape arrives, so a trace of many shapes
//! (a hostile file, say) still packs losslessly, at 8 B per access.
//! [`Access`] remains the builder/generator-facing view:
//! [`TraceBuilder`] interns each one's shape and packs its columns as
//! it is pushed (there is no staging copy) and
//! [`Trace::get`]/[`Trace::iter`] rebuild it from one table entry and
//! the two columns, so code that produces or inspects traces never
//! sees the packing.
//!
//! Summary statistics are not stored: [`Trace::stats`] recounts them
//! through the shape table when asked. Only tests and `tpcli inspect`
//! ask, and a cached copy would cost every generated trace a per-access
//! line set.

use crate::record::{Access, AccessKind, Addr, Dep, Pc};
use crate::workloads::Suite;
use std::collections::HashMap;
use std::fmt;

/// Largest representable non-memory instruction gap (30 bits). Gaps
/// beyond this saturate at construction time; every generator in this
/// repo stays far below it (typical gaps are single digits).
pub const MAX_GAP: u32 = (1 << 30) - 1;

/// `Shape::meta` bit flagging a store (vs load).
const STORE_BIT: u32 = 1 << 31;
/// `Shape::meta` bit flagging a dependent (pointer-chase) load.
const DEP_BIT: u32 = 1 << 30;

/// Slots in [`TraceBuilder`]'s cache of recently pushed shapes.
const RECENT: usize = 16;

/// Everything about an access except its low address word: the entry
/// of a trace's shape dictionary that each access indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Shape {
    pc: u64,
    /// Address bits 32..64.
    hi: u32,
    /// Gap (saturated at [`MAX_GAP`]) | [`STORE_BIT`] | [`DEP_BIT`].
    meta: u32,
}

impl Shape {
    fn of(a: &Access) -> Shape {
        let store = if a.kind == AccessKind::Store {
            STORE_BIT
        } else {
            0
        };
        let dep = if a.dep == Dep::PrevLoad { DEP_BIT } else { 0 };
        let meta = a.gap.min(MAX_GAP) | store | dep;
        Shape {
            pc: a.pc.0,
            hi: (a.addr.0 >> 32) as u32,
            meta,
        }
    }

    /// This shape's slot in [`TraceBuilder`]'s recent-shape cache.
    #[inline]
    fn slot(self) -> usize {
        let key = self.pc ^ u64::from(self.hi).rotate_left(32) ^ u64::from(self.meta);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % RECENT
    }

    /// The access of this shape whose low address word is `lo`.
    #[inline]
    fn access(self, lo: u32) -> Access {
        let kind = if self.meta & STORE_BIT != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let dep = if self.meta & DEP_BIT != 0 {
            Dep::PrevLoad
        } else {
            Dep::None
        };
        let addr = Addr((u64::from(self.hi) << 32) | u64::from(lo));
        Access {
            pc: Pc(self.pc),
            addr,
            kind,
            dep,
            gap: self.meta & MAX_GAP,
        }
    }
}

/// The per-access shape index column: one byte per access while the
/// dictionary holds at most 256 shapes, four once a 257th arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ShapeIx {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

impl ShapeIx {
    /// Appends `ix`, widening the column to `u32` (once) when `ix`
    /// does not fit in a byte.
    fn push(&mut self, ix: u32) {
        match self {
            ShapeIx::Narrow(col) => match u8::try_from(ix) {
                Ok(ix) => push_grown(col, ix),
                Err(_) => {
                    let mut wide = Vec::with_capacity(col.len() + growth(col.len()));
                    wide.extend(col.iter().map(|&i| u32::from(i)));
                    wide.push(ix);
                    *self = ShapeIx::Wide(wide);
                }
            },
            ShapeIx::Wide(col) => push_grown(col, ix),
        }
    }

    fn as_slice(&self) -> IxSlice<'_> {
        match self {
            ShapeIx::Narrow(col) => IxSlice::Narrow(col),
            ShapeIx::Wide(col) => IxSlice::Wide(col),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            ShapeIx::Narrow(col) => col.shrink_to_fit(),
            ShapeIx::Wide(col) => col.shrink_to_fit(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ShapeIx::Narrow(col) => col.capacity(),
            ShapeIx::Wide(col) => col.capacity() * std::mem::size_of::<u32>(),
        }
    }
}

/// A borrowed run of a [`ShapeIx`] column.
#[derive(Clone, Copy, Debug)]
enum IxSlice<'a> {
    Narrow(&'a [u8]),
    Wide(&'a [u32]),
}

impl<'a> IxSlice<'a> {
    #[inline]
    fn get(self, i: usize) -> usize {
        match self {
            IxSlice::Narrow(col) => usize::from(col[i]),
            IxSlice::Wide(col) => col[i] as usize,
        }
    }

    fn range(self, start: usize, end: usize) -> IxSlice<'a> {
        match self {
            IxSlice::Narrow(col) => IxSlice::Narrow(&col[start..end]),
            IxSlice::Wide(col) => IxSlice::Wide(&col[start..end]),
        }
    }

    /// How many accesses use each of `shapes` shapes.
    fn counts(self, shapes: usize) -> Vec<u64> {
        let mut counts = vec![0u64; shapes];
        match self {
            IxSlice::Narrow(col) => col.iter().for_each(|&i| counts[usize::from(i)] += 1),
            IxSlice::Wide(col) => col.iter().for_each(|&i| counts[i as usize] += 1),
        }
        counts
    }
}

/// Elements a full builder column grows by: an eighth of its length,
/// at least 4096. `Vec`'s doubling would leave up to half a column of
/// slack live while a generator runs; the column is trimmed by
/// [`TraceBuilder::finish`] either way.
fn growth(len: usize) -> usize {
    (len / 8).max(4096)
}

/// Pushes `v` onto `col`, growing a full column by [`growth`].
#[inline]
fn push_grown<T>(col: &mut Vec<T>, v: T) {
    if col.len() == col.capacity() {
        col.reserve_exact(growth(col.len()));
    }
    col.push(v);
}

/// A complete, replayable memory access trace for one simulated core.
///
/// Traces are produced by the generators in [`crate::gen`] and consumed by
/// the `tpsim` engine. A trace records only memory accesses; non-memory
/// instructions are represented by each access's `gap` field.
///
/// Internally the accesses live in a packed layout of two columns and a
/// shape dictionary (see the module docs); traces are immutable once
/// built, which is what lets the process-wide [`crate::pool`] hand the
/// same `Arc<Trace>` to every replayer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    name: String,
    suite: Suite,
    /// Distinct shapes in first-appearance order.
    shapes: Vec<Shape>,
    /// Per-access index into `shapes`, one byte wide while it can be.
    shape_ix: ShapeIx,
    /// Per-access address bits 0..32.
    lo: Vec<u32>,
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

    /// Reconstitutes the access at `idx` from the packed columns.
    ///
    /// Two dense column loads and one shape-table load, no allocation.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> Access {
        self.shapes[self.shape_ix.as_slice().get(idx)].access(self.lo[idx])
    }

    /// The recorded accesses, in program order, **materialized** into a
    /// fresh `Vec`. This is an O(n) reconstruction from the packed
    /// columns — convenient for tests and offline tools; replay loops
    /// should use [`Trace::get`] or [`Trace::iter`] instead.
    pub fn accesses(&self) -> Vec<Access> {
        self.iter().collect()
    }

    /// Number of memory accesses in the trace.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Each shape paired with how many accesses use it.
    fn shape_counts(&self) -> impl Iterator<Item = (Shape, u64)> + '_ {
        let counts = self.shape_ix.as_slice().counts(self.shapes.len());
        self.shapes.iter().copied().zip(counts)
    }

    /// Total instruction count represented (accesses plus gaps).
    pub fn instructions(&self) -> u64 {
        self.shape_counts()
            .map(|(s, n)| n * (1 + u64::from(s.meta & MAX_GAP)))
            .sum()
    }

    /// Iterate over accesses (reconstituted by value; `Access` is
    /// `Copy`).
    pub fn iter(&self) -> Accesses<'_> {
        Accesses {
            trace: self,
            idx: 0,
        }
    }

    /// Summary statistics for the trace, recounted on every call: a
    /// pass over the shape index column and a sort of the line numbers.
    pub fn stats(&self) -> TraceStats {
        let count = |bit: u32| {
            self.shape_counts()
                .filter(|(s, _)| s.meta & bit != 0)
                .map(|(_, n)| n)
                .sum()
        };
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
        let mut lines: Vec<u64> = self.iter().map(|a| a.addr.line().0).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    /// A zero-copy window of `len` accesses starting at `start`,
    /// borrowing the packed columns directly.
    ///
    /// This is the batched-replay entry point: the engine pulls
    /// fixed-size blocks and walks them with [`BlockView::get`] (two
    /// dense column loads and one shape-table load). Blocks never wrap:
    /// callers clamp `len` to `trace.len() - start` and take a fresh
    /// block after the wrap.
    ///
    /// # Panics
    /// Panics if `start + len > self.len()`.
    #[inline]
    pub fn block(&self, start: usize, len: usize) -> BlockView<'_> {
        let end = start.checked_add(len).expect("block range overflows usize");
        assert!(end <= self.len(), "block [{start}, {end}) out of bounds");
        BlockView {
            shapes: &self.shapes,
            shape_ix: self.shape_ix.as_slice().range(start, end),
            lo: &self.lo[start..end],
        }
    }

    /// Heap bytes resident for this trace's columns, shape table and
    /// name — the quantity the trace pool's byte accounting and
    /// eviction policy operate on.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + self.shapes.capacity() * std::mem::size_of::<Shape>()
            + self.shape_ix.heap_bytes()
            + self.lo.capacity() * std::mem::size_of::<u32>()
    }
}

/// A borrowed block of consecutive accesses in a [`Trace`]'s packed
/// layout (see [`Trace::block`]).
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    shapes: &'a [Shape],
    shape_ix: IxSlice<'a>,
    lo: &'a [u32],
}

impl BlockView<'_> {
    /// Number of accesses in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether the block holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Reconstitutes the `i`-th access of the block.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        self.shapes[self.shape_ix.get(i)].access(self.lo[i])
    }
}

/// Iterator over a trace's accesses, reconstituting each [`Access`]
/// from the packed columns (see [`Trace::iter`]).
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
/// access is packed straight into the trace's columns, its shape
/// interned as it goes: no staging copy. A full column grows by an
/// eighth of its length rather than doubling, so a generator's peak
/// pays little slack.
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
    /// `trace.shapes` inverted: shape → dictionary index.
    shape_index: HashMap<Shape, u32>,
    /// The dictionary index last pushed in each slot of [`Shape::slot`]:
    /// a generator cycling through a few shapes skips the map.
    recent: [u32; RECENT],
    default_gap: u32,
}

impl TraceBuilder {
    /// Starts a new trace.
    pub fn new(name: impl Into<String>, suite: Suite) -> Self {
        TraceBuilder {
            trace: Trace {
                name: name.into(),
                suite,
                shapes: Vec::new(),
                shape_ix: ShapeIx::Narrow(Vec::new()),
                lo: Vec::new(),
            },
            shape_index: HashMap::new(),
            recent: [0; RECENT],
            default_gap: 2,
        }
    }

    /// Sets the default non-memory instruction gap used by the convenience
    /// record methods. Larger gaps model more compute per access.
    pub fn default_gap(&mut self, gap: u32) -> &mut Self {
        self.default_gap = gap;
        self
    }

    /// Appends an arbitrary access record, interning its shape. The
    /// 257th distinct shape widens the shape index column to `u32`.
    pub fn push(&mut self, access: Access) -> &mut Self {
        let shape = Shape::of(&access);
        let t = &mut self.trace;
        let slot = &mut self.recent[shape.slot()];
        if t.shapes.get(*slot as usize) != Some(&shape) {
            *slot = *self.shape_index.entry(shape).or_insert_with(|| {
                t.shapes.push(shape);
                (t.shapes.len() - 1) as u32
            });
        }
        t.shape_ix.push(*slot);
        push_grown(&mut t.lo, access.addr.0 as u32);
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

    /// Finalises the trace, trimming the columns and the shape table to
    /// their lengths: [`Trace::resident_bytes`] (and so the pool's
    /// accounting) reads capacity.
    pub fn finish(mut self) -> Trace {
        let t = &mut self.trace;
        t.shapes.shrink_to_fit();
        t.shape_ix.shrink_to_fit();
        t.lo.shrink_to_fit();
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
        // A realistic mix: many accesses over 8 PCs, two 4 GiB regions,
        // loads and stores, two gaps.
        let accesses: Vec<Access> = (0..1000u64)
            .map(|i| Access {
                gap: 1 + (i % 2) as u32,
                ..if i % 3 == 0 {
                    Access::store(1 + i % 8, ((i % 5 / 4) << 32) | (i * 64))
                } else {
                    Access::load(1 + i % 8, ((i % 5 / 4) << 32) | (i * 64))
                }
            })
            .collect();
        let aos_bytes = accesses.len() * std::mem::size_of::<Access>();
        let tuples: std::collections::HashSet<_> = accesses
            .iter()
            .map(|a| (a.pc, a.addr.0 >> 32, a.kind, a.dep, a.gap))
            .collect();
        let t = Trace::new("size", Suite::Gap, accesses);
        // The per-access columns cost exactly 5 B each (1 B shape index
        // + 4 B low address word); the shape table is amortized noise.
        assert!(
            matches!(t.shape_ix, ShapeIx::Narrow(_)),
            "a few shapes index in one byte"
        );
        let per_access = (t.shape_ix.heap_bytes() + t.lo.capacity() * 4) / t.len();
        assert_eq!(per_access, 5, "packed layout is 5 B/access");
        assert_eq!(t.shapes.len(), tuples.len(), "one shape per distinct tuple");
        assert_eq!(std::mem::size_of::<Shape>(), 16);
        assert!(
            t.resident_bytes() < aos_bytes * 4 / 10,
            "packed {} should be well under AoS {}",
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
        for &(start, len) in &[
            (0usize, 300usize),
            (0, 1),
            (299, 1),
            (150, 0),
            (37, 256),
            (44, 7),
        ] {
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
        assert_eq!(
            (s.loads, s.stores, s.dependent_loads),
            (loads, stores, deps)
        );
        assert_eq!(s.instructions, instrs);
        assert_eq!(s.accesses, t.len() as u64);
    }

    /// The packing loop `Trace::new` ran before the builder packed in
    /// place — a staged `Vec<Access>`, columns reserved to its length,
    /// and a `TraceStats` cached in the same pass with a hashed line
    /// set — here packing the shape table and its two columns, with
    /// every shape looked up in the map and the index column narrowed
    /// to bytes at the end when the table has at most 256 entries. Kept
    /// as the reference the builder is pinned against.
    fn reference_new(name: &str, suite: Suite, accesses: &[Access]) -> (Trace, TraceStats) {
        let n = accesses.len();
        let mut shapes = Vec::new();
        let mut shape_index: HashMap<Shape, u32> = HashMap::new();
        let mut shape_ix = Vec::with_capacity(n);
        let mut lo = Vec::with_capacity(n);
        let mut lines = std::collections::HashSet::new();
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut dependent = 0u64;
        let mut instructions = 0u64;
        for a in accesses {
            let shape = Shape::of(a);
            let ix = *shape_index.entry(shape).or_insert_with(|| {
                shapes.push(shape);
                (shapes.len() - 1) as u32
            });
            shape_ix.push(ix);
            lo.push(a.addr.0 as u32);
            lines.insert(a.addr.line());
            match a.kind {
                AccessKind::Load => loads += 1,
                AccessKind::Store => stores += 1,
            }
            if a.dep == Dep::PrevLoad {
                dependent += 1;
            }
            instructions += 1 + u64::from(a.gap.min(MAX_GAP));
        }
        let shape_ix = if shapes.len() <= 256 {
            ShapeIx::Narrow(shape_ix.iter().map(|&ix| ix as u8).collect())
        } else {
            ShapeIx::Wide(shape_ix)
        };
        let trace = Trace {
            name: name.into(),
            suite,
            shapes,
            shape_ix,
            lo,
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
    /// lines that repeat among lines that do not (in one 4 GiB region
    /// or anywhere), runs of one shape, and gaps past `MAX_GAP`.
    fn random_accesses(g: &mut tpcheck::Gen) -> Vec<Access> {
        let hot_pcs = g.u64_in(1..12);
        let mut accesses = g.vec(0..400, |g| Access {
            pc: Pc(if g.u64_in(0..8) == 0 {
                g.next_u64()
            } else {
                0x400_000 + 4 * g.u64_in(0..hot_pcs)
            }),
            addr: Addr(match g.u64_in(0..3) {
                0 => g.u64_in(0..64 * 64),
                1 => (7 << 32) | g.u64_in(0..1 << 32),
                _ => g.next_u64(),
            }),
            kind: if g.bool() {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            dep: if g.u64_in(0..3) == 0 {
                Dep::PrevLoad
            } else {
                Dep::None
            },
            gap: if g.u64_in(0..8) == 0 {
                g.u64_in(MAX_GAP as u64 + 1..1 << 32) as u32
            } else {
                g.u64_in(0..16) as u32
            },
        });
        for i in 1..accesses.len() {
            if g.u64_in(0..3) == 0 {
                let prev = accesses[i - 1];
                let addr = Addr((prev.addr.0 & !0xffff_ffff) | g.u64_in(0..1 << 32));
                accesses[i] = Access { addr, ..prev };
            }
        }
        accesses
    }

    /// Packs `accesses` through the builder and checks it against
    /// [`reference_new`]: the same table and columns, trimmed, at the
    /// width the table needs; every access back but for gap
    /// saturation; the same stats; and `Trace::new` giving the same.
    fn check_against_reference(accesses: Vec<Access>) -> Result<Trace, String> {
        let (want, want_stats) = reference_new("eq", Suite::Spec17, &accesses);
        let mut b = TraceBuilder::new("eq", Suite::Spec17);
        for &a in &accesses {
            b.push(a);
        }
        let got = b.finish();
        tpcheck::ensure!((got.name(), got.suite()) == (want.name(), want.suite()));
        tpcheck::ensure!(got.shapes == want.shapes, "shapes differ");
        tpcheck::ensure!(got.shape_ix == want.shape_ix, "shape_ix differs");
        tpcheck::ensure!(got.lo == want.lo, "lo differs");
        let width = if got.shapes.len() <= 256 { 1 } else { 4 };
        let caps = [
            got.shapes.capacity(),
            got.shape_ix.heap_bytes(),
            got.lo.capacity(),
        ];
        let lens = [got.shapes.len(), width * got.len(), got.len()];
        tpcheck::ensure!(caps == lens, "columns not trimmed: {caps:?} for {lens:?}");
        // Lossless but for the documented gap saturation.
        let saturated: Vec<Access> = accesses
            .iter()
            .map(|&a| Access {
                gap: a.gap.min(MAX_GAP),
                ..a
            })
            .collect();
        tpcheck::ensure!(
            got.accesses() == saturated,
            "accesses() differs from the input"
        );
        tpcheck::ensure!(
            got.stats() == want_stats,
            "{:?} != {want_stats:?}",
            got.stats()
        );
        tpcheck::ensure!(Trace::new("eq", Suite::Spec17, accesses) == got);
        Ok(got)
    }

    #[test]
    fn builder_packs_exactly_like_the_reference_loop() {
        tpcheck::check("builder == reference packing", 256, |g| {
            check_against_reference(random_accesses(g)).map(drop)
        });
    }

    /// `distinct` shapes (one PC each) in first-appearance order, each
    /// new one followed by a revisit of an earlier one, then a pass back
    /// over all of them: accesses on both sides of the 257th shape.
    fn accesses_with_shapes(distinct: u64) -> Vec<Access> {
        let shape = |i: u64| {
            let pc = 0x400_000 + i;
            let a = if i.is_multiple_of(3) {
                Access::store(pc, 0)
            } else {
                Access::dep_load(pc, 0)
            };
            Access {
                gap: (i % 5) as u32,
                ..a
            }
        };
        let at = |i: u64, n: u64| Access {
            addr: Addr((3 << 32) | (n << 6)),
            ..shape(i)
        };
        let mut accesses = Vec::new();
        for i in 0..distinct {
            accesses.push(at(i, accesses.len() as u64));
            accesses.push(at(i / 2, accesses.len() as u64));
        }
        for i in (0..distinct).rev() {
            accesses.push(at(i, accesses.len() as u64));
        }
        accesses
    }

    #[test]
    fn the_257th_shape_widens_the_index_column_once() {
        for distinct in [1, 255, 256, 257, 1000] {
            let accesses = accesses_with_shapes(distinct);
            let t = check_against_reference(accesses.clone())
                .unwrap_or_else(|e| panic!("{distinct}: {e}"));
            assert_eq!(t.shapes.len() as u64, distinct);
            assert_eq!(
                matches!(t.shape_ix, ShapeIx::Wide(_)),
                distinct > 256,
                "{distinct} shapes"
            );
            // The 257th shape is first pushed at access 2 × 256.
            for &(start, len) in &[
                (0, t.len()),
                (500, 24),
                (511, 2),
                (512, 1),
                (t.len() - 1, 1),
            ] {
                if start + len > t.len() {
                    continue;
                }
                let blk = t.block(start, len);
                for i in 0..len {
                    let want = accesses[start + i];
                    assert_eq!(blk.get(i), want, "{distinct}: block({start},{len})[{i}]");
                }
            }
            let bytes = crate::io::to_bytes(&t);
            let back = crate::io::from_bytes(&bytes).expect("round trip");
            assert_eq!(back, t, "{distinct}: decoded trace differs");
            assert_eq!(
                crate::io::to_bytes(&back),
                bytes,
                "{distinct}: bytes changed"
            );
        }
    }
}
