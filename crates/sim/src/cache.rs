//! Set-associative cache level with LRU replacement, a way-resident
//! prefetch record (who installed the block, when its fill lands),
//! MSHR-limited outstanding misses, port contention, and (for the LLC)
//! per-set way reservation for prefetcher metadata.

use crate::config::CacheParams;
use crate::stats::CacheStats;
use crate::tagrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use tptrace::record::Line;

/// Who installed a prefetched block (for feedback routing and per-source
/// accuracy accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchOrigin {
    /// The L1 prefetcher (stride / Berti).
    L1,
    /// The regular L2 prefetcher (IPCP / Bingo / SPP-PPF).
    L2Regular,
    /// The temporal prefetcher under study.
    Temporal,
}

impl PrefetchOrigin {
    pub(crate) fn idx(self) -> usize {
        match self {
            PrefetchOrigin::L1 => 0,
            PrefetchOrigin::L2Regular => 1,
            PrefetchOrigin::Temporal => 2,
        }
    }
}

/// Result of a lookup-and-update demand access at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present. Both fields are handed over once: the lookup
    /// clears them in the way.
    Hit {
        /// Who prefetched the block, when this is its first demand touch.
        first_touch: Option<PrefetchOrigin>,
        /// When the block's fill lands; 0 when no fill is pending.
        ready_at: u64,
    },
    /// Line absent.
    Miss,
}

/// A block displaced by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced block.
    pub line: Line,
    /// Whether it must be written back.
    pub dirty: bool,
    /// Who prefetched it, if no demand ever touched it.
    pub unused: Option<PrefetchOrigin>,
}

/// Bounded window of outstanding misses (MSHR model).
///
/// `admit(t)` returns the time at which a new miss may be sent
/// downstream: immediately if a register is free, otherwise when the
/// earliest outstanding miss completes.
#[derive(Clone, Debug)]
pub struct MshrWindow {
    cap: usize,
    completions: BinaryHeap<Reverse<u64>>,
}

impl MshrWindow {
    /// Creates a window of `cap` registers.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "mshr capacity must be nonzero");
        MshrWindow {
            cap,
            completions: BinaryHeap::new(),
        }
    }

    /// Admits a miss arriving at `t`; returns its (possibly delayed)
    /// start time. Call [`MshrWindow::register`] with the completion time
    /// afterwards.
    pub fn admit(&mut self, t: u64) -> u64 {
        while let Some(&Reverse(c)) = self.completions.peek() {
            if c <= t {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < self.cap {
            t
        } else {
            let Reverse(earliest) = self.completions.pop().expect("nonempty");
            t.max(earliest)
        }
    }

    /// Registers an admitted miss's completion time.
    pub fn register(&mut self, completion: u64) {
        self.completions.push(Reverse(completion));
    }

    /// Outstanding misses not yet known-complete.
    pub fn outstanding(&self) -> usize {
        self.completions.len()
    }
}

/// Per-way metadata, kept contiguous so one set scan walks a couple of
/// cache lines instead of five parallel arrays (tag/valid/dirty/
/// prefetched/lru each used to live in its own heap allocation, which
/// made every lookup five data-dependent cache misses). The way is also
/// the only home of a prefetched block's record, so the record cannot
/// outlive or miss its block. Whether a way holds a block at all is its
/// byte of the level's tag row, not a field here; an empty way is
/// `WaySlot::default()`. 32 bytes: two slots per host cache line.
#[derive(Clone, Copy, Debug, Default)]
struct WaySlot {
    tag: u64,
    lru: u64,
    /// When the block's fill lands, until a demand hit consumes it. 0 is
    /// an exact "nothing pending": every fill time is at least a level
    /// latency, and the only test is `ready_at > completion`.
    ready_at: u64,
    dirty: bool,
    /// Who prefetched the block, until its first demand touch.
    pending: Option<PrefetchOrigin>,
}

/// The way of a set — its tag row and its slots — that holds `line`.
#[inline]
fn way_of(row: &[u8], ways: &[WaySlot], line: Line) -> Option<usize> {
    tagrow::find(row, tagrow::fingerprint(line.0), |w| ways[w].tag == line.0)
}

/// One cache level.
#[derive(Clone, Debug)]
pub struct CacheLevel {
    params: CacheParams,
    sets: usize,
    ways: Vec<WaySlot>,
    /// The tag rows ([`tagrow`]), one per set at a stride of the way
    /// count rounded up to whole words: byte `w` of a set's row is 0 when
    /// way `w` is empty — the level's one occupancy record — and the
    /// fingerprint of the way's tag otherwise. Reserved ways and the
    /// padding behind the last way are always empty.
    fp: Vec<u8>,
    fp_stride: usize,
    clock: u64,
    /// Per-set ways reserved for prefetcher metadata (LLC only; zero
    /// elsewhere). Data may only occupy ways `< ways - reserved`.
    reserved: Vec<u8>,
    /// When set (LLC), prefetch-filled blocks that were never demanded
    /// are victimised before demand blocks — the distant-re-reference
    /// insertion hardware LLCs use to bound prefetch pollution.
    prefetch_low_priority: bool,
    ports: Vec<u64>,
    /// Outstanding miss window.
    pub mshr: MshrWindow,
    stats: CacheStats,
}

impl CacheLevel {
    /// Builds a level from parameters.
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let slots = sets * params.ways;
        let fp_stride = params.ways.next_multiple_of(8);
        CacheLevel {
            sets,
            ways: vec![WaySlot::default(); slots],
            fp: vec![0; sets * fp_stride],
            fp_stride,
            clock: 0,
            reserved: vec![0; sets],
            prefetch_low_priority: false,
            ports: vec![0; params.ports],
            mshr: MshrWindow::new(params.mshrs),
            stats: CacheStats::default(),
            params,
        }
    }

    /// Enables distant-re-reference insertion for prefetch fills (LLC).
    pub fn set_prefetch_low_priority(&mut self, on: bool) {
        self.prefetch_low_priority = on;
    }

    /// The level's parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics, keeping cache contents (used at warmup end).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Completion time of a demand hit served at `complete` on a block
    /// whose fill lands at `ready_at`: a late prefetch (the demand
    /// arrived before the fill) is counted and waits for the fill.
    pub(crate) fn await_fill(&mut self, complete: u64, ready_at: u64) -> u64 {
        if ready_at > complete {
            self.stats.late_prefetches += 1;
            ready_at
        } else {
            complete
        }
    }

    /// Set index for a line.
    pub fn set_of(&self, line: Line) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    fn usable_ways(&self, set: usize) -> usize {
        self.params.ways - self.reserved[set] as usize
    }

    /// Where `line`'s set keeps the ways data may occupy: their slots of
    /// `ways`, and their bytes of `fp` up to the end of the last word —
    /// a search over whole words has no tail to pick apart, and the
    /// bytes behind the usable ways, being empty, match no fingerprint.
    fn usable_span(&self, line: Line) -> (Range<usize>, Range<usize>) {
        let set = self.set_of(line);
        let usable = self.usable_ways(set);
        let (row, base) = (set * self.fp_stride, set * self.params.ways);
        (row..row + usable.next_multiple_of(8), base..base + usable)
    }

    /// Charges a port slot for a request arriving at `t`; returns the
    /// service start time.
    pub fn port_start(&mut self, t: u64) -> u64 {
        let (idx, &free) = self
            .ports
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("at least one port");
        let start = t.max(free);
        self.ports[idx] = start + 1;
        start
    }

    /// Pure lookup (no state change); true if present.
    pub fn probe(&self, line: Line) -> bool {
        let (row, span) = self.usable_span(line);
        way_of(&self.fp[row], &self.ways[span], line).is_some()
    }

    /// Demand lookup: updates recency, hands over the way's prefetch
    /// record and counts stats.
    pub fn demand_lookup(&mut self, line: Line, is_write: bool) -> LookupResult {
        self.stats.accesses += 1;
        let (row, span) = self.usable_span(line);
        let ways = &mut self.ways[span];
        let Some(w) = way_of(&self.fp[row], ways, line) else {
            self.stats.misses += 1;
            return LookupResult::Miss;
        };
        let way = &mut ways[w];
        self.clock += 1;
        way.lru = self.clock;
        if is_write {
            way.dirty = true;
        }
        let first_touch = way.pending.take();
        if first_touch.is_some() {
            self.stats.useful_prefetches += 1;
        }
        self.stats.hits += 1;
        LookupResult::Hit {
            first_touch,
            ready_at: std::mem::take(&mut way.ready_at),
        }
    }

    /// Installs `line` for a demand miss, a writeback or an LLC fill;
    /// returns the eviction, if any. `prefetch` marks the block as
    /// prefetched by nobody in particular (recorded as `L2Regular`) with
    /// no fill time, which is all the LLC's victim choice reads.
    pub fn fill(&mut self, line: Line, dirty: bool, prefetch: bool) -> Option<Evicted> {
        let pending = prefetch.then_some(PrefetchOrigin::L2Regular);
        self.install(line, dirty, pending, 0)
    }

    /// Installs `line` with its prefetch record: `pending` is who
    /// prefetched it (if its usefulness is tracked at this level) and
    /// `ready_at` when the fill lands. A line already present only has
    /// `dirty` or-ed in; its record is left alone.
    pub(crate) fn install(
        &mut self,
        line: Line,
        dirty: bool,
        pending: Option<PrefetchOrigin>,
        ready_at: u64,
    ) -> Option<Evicted> {
        let (row, span) = self.usable_span(line);
        if span.is_empty() {
            // Fully reserved set: the fill bypasses this level.
            return None;
        }
        let (row, ways) = (&mut self.fp[row], &mut self.ways[span]);
        if let Some(w) = way_of(row, ways, line) {
            ways[w].dirty |= dirty;
            return None;
        }
        if pending.is_some() {
            self.stats.prefetch_fills += 1;
        }
        // Victim: an empty way first, else the least recently used —
        // with distant re-reference, among the prefetched blocks no
        // demand has touched before any demand block. One key orders
        // both; the first minimum wins.
        let empty = tagrow::first_empty(row).filter(|&w| w < ways.len());
        let w = empty.unwrap_or_else(|| {
            let demote = self.prefetch_low_priority;
            let (mut victim, mut least) = (0, u64::MAX);
            for (w, way) in ways.iter().enumerate() {
                let key = u64::from(demote & way.pending.is_none()) << 63 | way.lru;
                if key < least {
                    (victim, least) = (w, key);
                }
            }
            victim
        });
        let way = ways[w];
        let evicted = if row[w] != 0 {
            if way.pending.is_some() {
                self.stats.useless_prefetch_evictions += 1;
            }
            if way.dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                line: Line(way.tag),
                dirty: way.dirty,
                unused: way.pending,
            })
        } else {
            None
        };
        self.clock += 1;
        row[w] = tagrow::fingerprint(line.0);
        ways[w] = WaySlot {
            tag: line.0,
            lru: self.clock,
            ready_at,
            dirty,
            pending,
        };
        evicted
    }

    /// Reserves `ways` ways for metadata in `set`, invalidating displaced
    /// data blocks. Appends evicted `(line, dirty)` pairs to `evicted` so
    /// the caller can charge writeback traffic (the repartition path
    /// reuses one buffer across every set).
    pub fn reserve_ways_into(&mut self, set: usize, ways: u8, evicted: &mut Vec<(Line, bool)>) {
        assert!((ways as usize) <= self.params.ways);
        let old_usable = self.usable_ways(set);
        self.reserved[set] = ways;
        let new_usable = self.usable_ways(set);
        for w in new_usable..old_usable {
            let way = std::mem::take(&mut self.ways[set * self.params.ways + w]);
            if std::mem::take(&mut self.fp[set * self.fp_stride + w]) != 0 {
                if way.dirty {
                    self.stats.writebacks += 1;
                }
                if way.pending.is_some() {
                    self.stats.useless_prefetch_evictions += 1;
                }
                evicted.push((Line(way.tag), way.dirty));
            }
        }
    }

    /// Current reservation for `set`.
    pub fn reserved_ways(&self, set: usize) -> u8 {
        self.reserved[set]
    }

    /// Total data capacity currently usable, in lines.
    pub fn usable_lines(&self) -> usize {
        (0..self.sets).map(|s| self.usable_ways(s)).sum()
    }

    /// Number of valid data blocks (test/introspection hook).
    pub fn occupancy(&self) -> usize {
        self.fp.iter().filter(|&&b| b != 0).count()
    }

    /// Number of resident blocks installed by a prefetch and not yet
    /// demand-touched, by [`PrefetchOrigin`] (`[L1, L2-regular,
    /// temporal]`). Captured at stats reset as slack for the audit's
    /// prefetch-resolution laws.
    pub fn resident_prefetched(&self) -> [u64; 3] {
        let mut by_origin = [0; 3];
        // An empty way is `WaySlot::default()`: nothing pending.
        for origin in self.ways.iter().filter_map(|w| w.pending) {
            by_origin[origin.idx()] += 1;
        }
        by_origin
    }

    /// Access latency of this level.
    pub fn latency(&self) -> u64 {
        self.params.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheLevel {
        CacheLevel::new(CacheParams {
            capacity: 4 * 64 * 2, // 2 sets x 4 ways
            ways: 4,
            latency: 5,
            mshrs: 2,
            ports: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.demand_lookup(Line(10), false), LookupResult::Miss);
        c.fill(Line(10), false, false);
        assert!(matches!(
            c.demand_lookup(Line(10), false),
            LookupResult::Hit { .. }
        ));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // All map to set 0: lines with even numbers (2 sets).
        for i in 0..4u64 {
            c.fill(Line(i * 2), false, false);
        }
        c.demand_lookup(Line(0), false); // refresh line 0
        let evicted = c.fill(Line(8 * 2), false, false).expect("eviction");
        assert_eq!(evicted.line, Line(2), "line 2 is the LRU victim");
    }

    /// The way is the only home of a prefetched block's record: who
    /// installed it and when its fill lands.
    #[test]
    fn prefetch_record_lives_and_dies_with_its_way() {
        use PrefetchOrigin::{L2Regular, Temporal};
        assert_eq!(std::mem::size_of::<WaySlot>(), 32, "two per host line");
        let mut c = small();
        // Handed over on the first hit, gone on the second.
        assert_eq!(c.install(Line(4), false, Some(Temporal), 900), None);
        let first = LookupResult::Hit {
            first_touch: Some(Temporal),
            ready_at: 900,
        };
        let second = LookupResult::Hit {
            first_touch: None,
            ready_at: 0,
        };
        assert_eq!(c.demand_lookup(Line(4), false), first);
        assert_eq!(c.demand_lookup(Line(4), false), second);
        assert_eq!(c.stats().useful_prefetches, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
        // An unmarked install (the L2 copy of an L1-origin prefetch)
        // still carries its fill time, for any demand hit to consume.
        c.install(Line(6), false, None, 700);
        assert_eq!(
            c.demand_lookup(Line(6), false),
            LookupResult::Hit {
                first_touch: None,
                ready_at: 700
            }
        );
        assert_eq!(c.demand_lookup(Line(6), false), second);
        assert_eq!(c.stats().prefetch_fills, 1, "an unmarked fill counted");
        // A dirty fill of a present, still-pending line (an L1 victim
        // landing on an untouched L2 prefetch) leaves the record alone.
        c.install(Line(8), false, Some(L2Regular), 500);
        assert_eq!(c.fill(Line(8), true, false), None);
        assert_eq!(c.resident_prefetched(), [0, 1, 0]);
        // Evicted before any touch: the eviction names who to blame.
        c.fill(Line(10), false, false);
        c.demand_lookup(Line(4), false);
        c.demand_lookup(Line(6), false);
        c.demand_lookup(Line(10), false);
        let evicted = c.fill(Line(12), false, false).expect("set 0 is full");
        let want = Evicted {
            line: Line(8),
            dirty: true,
            unused: Some(L2Regular),
        };
        assert_eq!(evicted, want);
        assert_eq!(c.stats().useless_prefetch_evictions, 1);
        // A reservation that displaces a pending block clears the record.
        c.install(Line(1), false, Some(Temporal), 300);
        let mut displaced = Vec::new();
        c.reserve_ways_into(1, 4, &mut displaced);
        assert_eq!(displaced, [(Line(1), false)]);
        assert_eq!(c.stats().useless_prefetch_evictions, 2);
        c.reserve_ways_into(1, 0, &mut displaced);
        assert_eq!(c.resident_prefetched(), [0; 3]);
        assert_eq!(c.demand_lookup(Line(1), false), LookupResult::Miss);
    }

    #[test]
    fn useless_prefetch_eviction_counted() {
        let mut c = small();
        c.fill(Line(0), false, true);
        for i in 1..=4u64 {
            c.fill(Line(i * 2), false, false);
        }
        assert_eq!(c.stats().useless_prefetch_evictions, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small();
        c.fill(Line(0), true, false);
        for i in 1..=4u64 {
            c.fill(Line(i * 2), false, false);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn reservation_shrinks_usable_ways_and_evicts() {
        let mut c = small();
        for i in 0..4u64 {
            c.fill(Line(i * 2), false, false);
        }
        let mut evicted = Vec::new();
        c.reserve_ways_into(0, 2, &mut evicted);
        assert_eq!(evicted.len(), 2);
        assert_eq!(c.usable_lines(), 4 + 2);
        // Fills now limited to 2 ways in set 0.
        c.fill(Line(100), false, false);
        c.fill(Line(102), false, false);
        assert!(c.occupancy() <= 4);
        // Releasing the reservation restores capacity.
        c.reserve_ways_into(0, 0, &mut evicted);
        assert_eq!(c.usable_lines(), 8);
    }

    #[test]
    fn fully_reserved_set_bypasses_fills() {
        let mut c = small();
        c.reserve_ways_into(0, 4, &mut Vec::new());
        assert!(c.fill(Line(0), false, false).is_none());
        assert!(!c.probe(Line(0)));
    }

    #[test]
    fn mshr_window_delays_when_full() {
        let mut m = MshrWindow::new(2);
        assert_eq!(m.admit(0), 0);
        m.register(100);
        assert_eq!(m.admit(1), 1);
        m.register(50);
        // Third miss at t=2 must wait for the earliest completion (50).
        assert_eq!(m.admit(2), 50);
        m.register(120);
        // After t=100 the other completes too.
        assert_eq!(m.admit(130), 130);
    }

    #[test]
    fn ports_serialise_same_cycle_requests() {
        let mut c = small();
        let a = c.port_start(10);
        let b = c.port_start(10);
        assert_eq!(a, 10);
        assert_eq!(b, 11);
    }

    /// The way-by-way scans [`CacheLevel`] had before its tag rows,
    /// kept as the reference model: a `valid` flag per way, one branchy
    /// loop per lookup, `min_by_key` for the victim.
    #[derive(Clone, Copy, Default)]
    struct ReferenceWay {
        tag: u64,
        lru: u64,
        ready_at: u64,
        valid: bool,
        dirty: bool,
        pending: Option<PrefetchOrigin>,
    }

    struct ReferenceLevel {
        ways_per_set: usize,
        sets: usize,
        ways: Vec<ReferenceWay>,
        clock: u64,
        reserved: Vec<u8>,
        prefetch_low_priority: bool,
        stats: CacheStats,
    }

    impl ReferenceLevel {
        fn new(params: CacheParams, prefetch_low_priority: bool) -> Self {
            ReferenceLevel {
                ways_per_set: params.ways,
                sets: params.sets(),
                ways: vec![ReferenceWay::default(); params.sets() * params.ways],
                clock: 0,
                reserved: vec![0; params.sets()],
                prefetch_low_priority,
                stats: CacheStats::default(),
            }
        }

        /// The slot range of `line`'s set that data may occupy.
        fn usable(&self, line: Line) -> std::ops::Range<usize> {
            let set = (line.0 as usize) & (self.sets - 1);
            let base = set * self.ways_per_set;
            base..base + self.ways_per_set - self.reserved[set] as usize
        }

        fn reference_probe(&self, line: Line) -> bool {
            self.ways[self.usable(line)]
                .iter()
                .any(|w| w.valid && w.tag == line.0)
        }

        fn reference_demand_lookup(&mut self, line: Line, is_write: bool) -> LookupResult {
            self.stats.accesses += 1;
            for s in self.usable(line) {
                let way = &mut self.ways[s];
                if way.valid && way.tag == line.0 {
                    self.clock += 1;
                    way.lru = self.clock;
                    if is_write {
                        way.dirty = true;
                    }
                    let first_touch = way.pending.take();
                    if first_touch.is_some() {
                        self.stats.useful_prefetches += 1;
                    }
                    self.stats.hits += 1;
                    return LookupResult::Hit {
                        first_touch,
                        ready_at: std::mem::take(&mut way.ready_at),
                    };
                }
            }
            self.stats.misses += 1;
            LookupResult::Miss
        }

        fn reference_install(
            &mut self,
            line: Line,
            dirty: bool,
            pending: Option<PrefetchOrigin>,
            ready_at: u64,
        ) -> Option<Evicted> {
            let usable = self.usable(line);
            if usable.is_empty() {
                return None;
            }
            let mut invalid = None;
            for s in usable.clone() {
                let way = &self.ways[s];
                if way.valid && way.tag == line.0 {
                    if dirty {
                        self.ways[s].dirty = true;
                    }
                    return None;
                }
                if !way.valid && invalid.is_none() {
                    invalid = Some(s);
                }
            }
            if pending.is_some() {
                self.stats.prefetch_fills += 1;
            }
            let s = invalid.unwrap_or_else(|| {
                if self.prefetch_low_priority {
                    usable
                        .min_by_key(|&s| (self.ways[s].pending.is_none(), self.ways[s].lru))
                        .expect("usable ways > 0")
                } else {
                    usable
                        .min_by_key(|&s| self.ways[s].lru)
                        .expect("usable ways > 0")
                }
            });
            let way = self.ways[s];
            let evicted = way.valid.then(|| {
                if way.pending.is_some() {
                    self.stats.useless_prefetch_evictions += 1;
                }
                if way.dirty {
                    self.stats.writebacks += 1;
                }
                Evicted {
                    line: Line(way.tag),
                    dirty: way.dirty,
                    unused: way.pending,
                }
            });
            self.clock += 1;
            self.ways[s] = ReferenceWay {
                tag: line.0,
                lru: self.clock,
                ready_at,
                valid: true,
                dirty,
                pending,
            };
            evicted
        }

        fn reference_reserve(&mut self, set: usize, ways: u8, evicted: &mut Vec<(Line, bool)>) {
            let old_usable = self.ways_per_set - self.reserved[set] as usize;
            self.reserved[set] = ways;
            for w in self.ways_per_set - ways as usize..old_usable {
                let s = set * self.ways_per_set + w;
                let way = self.ways[s];
                if way.valid {
                    if way.dirty {
                        self.stats.writebacks += 1;
                    }
                    if way.pending.is_some() {
                        self.stats.useless_prefetch_evictions += 1;
                    }
                    evicted.push((Line(way.tag), way.dirty));
                    self.ways[s] = ReferenceWay::default();
                }
            }
        }

        fn occupancy(&self) -> usize {
            self.ways.iter().filter(|w| w.valid).count()
        }

        fn resident_prefetched(&self) -> [u64; 3] {
            let mut by_origin = [0; 3];
            for origin in self.ways.iter().filter(|w| w.valid).filter_map(|w| w.pending) {
                by_origin[origin.idx()] += 1;
            }
            by_origin
        }
    }

    /// Lines of one set whose fingerprints are equal: the collisions
    /// the property below needs more of than chance supplies.
    fn colliding_lines(sets: u64, n: usize) -> Vec<Line> {
        let fp = crate::tagrow::fingerprint(0);
        (0..)
            .map(|i| Line(i * sets))
            .filter(|l| crate::tagrow::fingerprint(l.0) == fp)
            .take(n)
            .collect()
    }

    #[test]
    fn scans_match_the_way_by_way_reference() {
        use PrefetchOrigin::{L2Regular, Temporal, L1};
        tpcheck::check("CacheLevel == way-by-way reference", 192, |g| {
            let ways = g.usize_in(1..17);
            let sets = 1usize << g.usize_in(0..7);
            let params = CacheParams {
                capacity: sets * ways * 64,
                ways,
                latency: 5,
                mshrs: 2,
                ports: 1,
            };
            let low_priority = g.bool();
            let mut level = CacheLevel::new(params);
            level.set_prefetch_low_priority(low_priority);
            let mut reference = ReferenceLevel::new(params, low_priority);
            // A pool a little larger than the cache, so sets fill and
            // evict, plus same-set lines with one fingerprint.
            let mut pool: Vec<Line> = (0..g.usize_in(1..2 * sets * ways + 2))
                .map(|_| Line(g.u64_in(0..(4 * sets * ways) as u64)))
                .collect();
            pool.extend(colliding_lines(sets as u64, ways.min(4) + 1));
            for step in 0..400 {
                let line = pool[g.usize_in(0..pool.len())];
                let what = match g.usize_in(0..16) {
                    0..=4 => {
                        let write = g.bool();
                        let (got, want) = (
                            level.demand_lookup(line, write),
                            reference.reference_demand_lookup(line, write),
                        );
                        tpcheck::ensure!(got == want, "step {step}: lookup {line:?}: {got:?} vs {want:?}");
                        "demand_lookup"
                    }
                    5..=6 => {
                        let (got, want) = (level.probe(line), reference.reference_probe(line));
                        tpcheck::ensure!(got == want, "step {step}: probe {line:?}: {got} vs {want}");
                        "probe"
                    }
                    7..=9 => {
                        let (dirty, prefetch) = (g.bool(), g.bool());
                        let pending = prefetch.then_some(L2Regular);
                        let (got, want) = (
                            level.fill(line, dirty, prefetch),
                            reference.reference_install(line, dirty, pending, 0),
                        );
                        tpcheck::ensure!(got == want, "step {step}: fill {line:?}: {got:?} vs {want:?}");
                        "fill"
                    }
                    10..=14 => {
                        let dirty = g.bool();
                        let pending = [None, Some(L1), Some(L2Regular), Some(Temporal)][g.usize_in(0..4)];
                        let ready_at = g.u64_in(0..1000);
                        let (got, want) = (
                            level.install(line, dirty, pending, ready_at),
                            reference.reference_install(line, dirty, pending, ready_at),
                        );
                        tpcheck::ensure!(got == want, "step {step}: install {line:?}: {got:?} vs {want:?}");
                        "install"
                    }
                    _ => {
                        let set = g.usize_in(0..sets);
                        let reserve = g.usize_in(0..ways + 1) as u8;
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        level.reserve_ways_into(set, reserve, &mut got);
                        reference.reference_reserve(set, reserve, &mut want);
                        tpcheck::ensure!(got == want, "step {step}: reserve {reserve} of set {set}: {got:?} vs {want:?}");
                        "reserve_ways_into"
                    }
                };
                // The tag-row invariant: a way's byte is 0 when the way
                // is empty — reserved ways and padding always are —
                // and its tag's fingerprint otherwise.
                for (s, (way, refway)) in level.ways.iter().zip(&reference.ways).enumerate() {
                    let (set, w) = (s / ways, s % ways);
                    let byte = level.fp[set * level.fp_stride + w];
                    let want = if refway.valid { tagrow::fingerprint(way.tag) } else { 0 };
                    tpcheck::ensure!(byte == want, "step {step} ({what}): set {set} way {w}: byte {byte}, want {want}");
                    tpcheck::ensure!(byte == 0 || w < ways - level.reserved[set] as usize, "a reserved way holds a block");
                }
                tpcheck::ensure!(
                    level.fp.chunks(level.fp_stride).all(|row| row[ways..].iter().all(|&b| b == 0)),
                    "step {step} ({what}): padding written"
                );
                tpcheck::ensure!(
                    level.stats() == reference.stats,
                    "step {step} ({what}): stats {:?} vs {:?}",
                    level.stats(),
                    reference.stats
                );
                tpcheck::ensure!(
                    level.occupancy() == reference.occupancy()
                        && level.resident_prefetched() == reference.resident_prefetched(),
                    "step {step} ({what}): occupancy {} vs {}, prefetched {:?} vs {:?}",
                    level.occupancy(),
                    reference.occupancy(),
                    level.resident_prefetched(),
                    reference.resident_prefetched()
                );
            }
            Ok(())
        });
    }

    /// Two lines of one set with equal fingerprints: the fingerprint
    /// narrows the search, the full tag decides.
    #[test]
    fn equal_fingerprints_in_one_set_stay_distinct_lines() {
        let mut c = small();
        let [a, b, other] = colliding_lines(2, 3)[..] else {
            panic!("three lines wanted")
        };
        c.fill(a, false, false);
        assert!(c.probe(a) && !c.probe(b), "a's fingerprint is not b's tag");
        c.fill(b, true, false);
        assert!(c.probe(a) && c.probe(b) && !c.probe(other));
        assert_eq!(c.occupancy(), 2);
        // Refilling `b` finds `b`, not the first way with its fingerprint.
        assert_eq!(c.fill(b, false, false), None);
        assert_eq!(c.occupancy(), 2);
        assert!(matches!(c.demand_lookup(a, false), LookupResult::Hit { .. }));
        // `b` is now least recent: two more lines fill the set, the
        // third evicts `b` (dirty), and `a` stays.
        c.fill(Line(1002), false, false);
        c.fill(Line(1004), false, false);
        let evicted = c.fill(Line(1006), false, false).expect("set 0 is full");
        assert_eq!((evicted.line, evicted.dirty), (b, true));
        assert!(c.probe(a) && !c.probe(b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = CacheLevel::new(CacheParams {
            capacity: 3 * 64 * 2,
            ways: 2,
            latency: 1,
            mshrs: 1,
            ports: 1,
        });
    }
}
