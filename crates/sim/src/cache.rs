//! Set-associative cache level with LRU replacement, a per-block
//! prefetch record (who installed the block, when its fill lands),
//! MSHR-limited outstanding misses, port contention, and (for the LLC)
//! per-set way reservation for prefetcher metadata. Each set keeps its
//! tag row, recency order, prefetch records, dirty bits and reservation
//! in one 32-byte header; a way holds only its tag and fill time.

use crate::config::CacheParams;
use crate::stats::CacheStats;
use crate::tagrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// A way's full tag and when its block's fill lands; everything else
/// about the way is a few bits of its set's [`SetHeader`]. An empty way
/// is `WaySlot::default()`. 16 bytes: four per host line.
#[derive(Clone, Copy, Debug, Default)]
struct WaySlot {
    tag: u64,
    /// When the block's fill lands, until a demand hit consumes it. 0 is
    /// an exact "nothing pending": every fill time is at least a level
    /// latency, and the only test is `ready_at > completion`.
    ready_at: u64,
}

/// `0x1` in every nibble.
const NIBBLES: u64 = 0x1111_1111_1111_1111;
/// The top bit of every nibble.
const NIBBLE_TOPS: u64 = 0x8888_8888_8888_8888;
/// Way `i` in nibble `i`.
const WAYS_IN_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// Everything a set knows about its ways but their tags and fill
/// times, in half a host line: all a miss reads to decide where its
/// block goes. Bits of an empty way are 0 in `fp`, `pending` and
/// `dirty`, so a block's prefetch record cannot outlive it.
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(32))]
struct SetHeader {
    /// The tag row ([`tagrow`]): byte `w` is 0 when way `w` is empty —
    /// the level's one occupancy record — and the fingerprint of its tag
    /// otherwise. Reserved ways and bytes past the last way are always
    /// 0, so a search covers the whole row.
    fp: [u8; 16],
    /// The ways from most to least recent, four bits each from the low
    /// end; nibbles past the last way are `0xF` and never move. Among
    /// occupied ways this is the order of the per-way LRU stamps it
    /// replaced: a hit or an install moves its way to the front, as it
    /// gave it the newest stamp.
    order: u64,
    /// Two bits per way: 0, or `origin.idx() + 1` for the block's
    /// prefetcher until its first demand touch.
    pending: u32,
    dirty: u16,
    /// Ways reserved for prefetcher metadata (LLC only; zero elsewhere).
    /// Data may only occupy ways `< ways - reserved`.
    reserved: u8,
}

impl SetHeader {
    fn new(ways: usize) -> Self {
        let padding = u64::MAX.checked_shl(4 * ways as u32).unwrap_or(0);
        let order = WAYS_IN_ORDER | padding;
        SetHeader {
            order,
            ..SetHeader::default()
        }
    }

    fn pending(&self, w: usize) -> Option<PrefetchOrigin> {
        use PrefetchOrigin::{L2Regular, Temporal, L1};
        [None, Some(L1), Some(L2Regular), Some(Temporal)][(self.pending >> (2 * w) & 3) as usize]
    }

    fn dirty(&self, w: usize) -> bool {
        self.dirty >> w & 1 != 0
    }

    /// Way `w`'s row byte, dirty bit and prefetch record.
    fn write(&mut self, w: usize, fp: u8, dirty: bool, pending: Option<PrefetchOrigin>) {
        let record = pending.map_or(0, |o| o.idx() as u32 + 1);
        self.fp[w] = fp;
        self.dirty = (self.dirty & !(1 << w)) | (u16::from(dirty) << w);
        self.pending = (self.pending & !(3 << (2 * w))) | (record << (2 * w));
    }

    /// Moves way `w` to the front of `order`.
    fn touch(&mut self, w: usize) {
        // The nibble holding `w` is the zero nibble of `x`; `w` occurs
        // once, and a borrow flags only nibbles above a zero, so the
        // lowest flag is the one.
        let x = self.order ^ (w as u64 * NIBBLES);
        let flags = x.wrapping_sub(NIBBLES) & !x & NIBBLE_TOPS;
        let at = flags & flags.wrapping_neg();
        let (before, through) = ((at >> 3) - 1, (at << 1).wrapping_sub(1));
        self.order = (self.order & !through) | ((self.order & before) << 4) | w as u64;
    }

    /// The way an install into an absent line displaces: the first empty
    /// usable way; else, from the least recent end of `order` and past
    /// reserved ways, the first way a prefetch filled and no demand
    /// touched when `demote` (distant re-reference) and one exists, else
    /// the first. That is the first minimum of the old per-way key
    /// `(demote && pending.is_none()) << 63 | lru`, stamps being unique.
    fn victim(&self, ways: usize, usable: usize, demote: bool) -> usize {
        if let Some(w) = tagrow::first_empty(&self.fp).filter(|&w| w < usable) {
            return w;
        }
        // Only occupied, hence usable, ways have pending bits.
        let demote = demote && self.pending != 0;
        (0..ways)
            .rev()
            .map(|i| (self.order >> (4 * i) & 0xF) as usize)
            .find(|&w| w < usable && (!demote || self.pending >> (2 * w) & 3 != 0))
            .expect("a full set has a usable way")
    }
}

/// The way of a set that holds `line`.
#[inline]
fn way_of(h: &SetHeader, ways: &[WaySlot], line: Line) -> Option<usize> {
    tagrow::find(&h.fp, tagrow::fingerprint(line.0), |w| {
        ways[w].tag == line.0
    })
}

/// One cache level.
#[derive(Clone, Debug)]
pub struct CacheLevel {
    params: CacheParams,
    sets: usize,
    /// One header per set, two per host line.
    headers: Vec<SetHeader>,
    /// `params.ways` slots per set.
    ways: Vec<WaySlot>,
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
        assert!(params.ways <= 16, "a set header holds at most 16 ways");
        CacheLevel {
            sets,
            headers: vec![SetHeader::new(params.ways); sets],
            ways: vec![WaySlot::default(); sets * params.ways],
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

    /// The header and the slots of `line`'s set.
    fn set_mut(&mut self, line: Line) -> (&mut SetHeader, &mut [WaySlot]) {
        let (set, n) = (self.set_of(line), self.params.ways);
        (&mut self.headers[set], &mut self.ways[set * n..][..n])
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
        let (set, n) = (self.set_of(line), self.params.ways);
        way_of(&self.headers[set], &self.ways[set * n..][..n], line).is_some()
    }

    /// Demand lookup: updates recency, hands over the way's prefetch
    /// record and counts stats.
    pub fn demand_lookup(&mut self, line: Line, is_write: bool) -> LookupResult {
        self.stats.accesses += 1;
        let (h, ways) = self.set_mut(line);
        let Some(w) = way_of(h, ways, line) else {
            self.stats.misses += 1;
            return LookupResult::Miss;
        };
        h.touch(w);
        let first_touch = h.pending(w);
        h.pending &= !(3 << (2 * w));
        h.dirty |= u16::from(is_write) << w;
        let ready_at = std::mem::take(&mut ways[w].ready_at);
        if first_touch.is_some() {
            self.stats.useful_prefetches += 1;
        }
        self.stats.hits += 1;
        LookupResult::Hit {
            first_touch,
            ready_at,
        }
    }

    /// Brings `line` in for a writeback, or any caller that has not
    /// searched for it; returns the eviction, if any. A line already
    /// present only has `dirty` or-ed in. `prefetch` marks the block as
    /// prefetched by nobody in particular (recorded as `L2Regular`) with
    /// no fill time, which is all the LLC's victim choice reads.
    pub fn fill(&mut self, line: Line, dirty: bool, prefetch: bool) -> Option<Evicted> {
        let (h, ways) = self.set_mut(line);
        if let Some(w) = way_of(h, ways, line) {
            h.dirty |= u16::from(dirty) << w;
            return None;
        }
        let pending = prefetch.then_some(PrefetchOrigin::L2Regular);
        self.install(line, dirty, pending, 0)
    }

    /// Installs `line`, which the caller has just found absent, with its
    /// prefetch record: `pending` is who prefetched it (if its
    /// usefulness is tracked at this level) and `ready_at` when the fill
    /// lands. Returns the eviction, if any.
    pub(crate) fn install(
        &mut self,
        line: Line,
        dirty: bool,
        pending: Option<PrefetchOrigin>,
        ready_at: u64,
    ) -> Option<Evicted> {
        debug_assert!(!self.probe(line), "install of present {line:?}");
        let (n, demote) = (self.params.ways, self.prefetch_low_priority);
        let (h, ways) = self.set_mut(line);
        let usable = n - h.reserved as usize;
        if usable == 0 {
            // Fully reserved set: the fill bypasses this level.
            return None;
        }
        let w = h.victim(n, usable, demote);
        let evicted = (h.fp[w] != 0).then(|| Evicted {
            line: Line(ways[w].tag),
            dirty: h.dirty(w),
            unused: h.pending(w),
        });
        h.write(w, tagrow::fingerprint(line.0), dirty, pending);
        h.touch(w);
        ways[w] = WaySlot {
            tag: line.0,
            ready_at,
        };
        if pending.is_some() {
            self.stats.prefetch_fills += 1;
        }
        if let Some(e) = evicted {
            self.stats.useless_prefetch_evictions += u64::from(e.unused.is_some());
            self.stats.writebacks += u64::from(e.dirty);
        }
        evicted
    }

    /// Reserves `ways` ways for metadata in `set`, invalidating displaced
    /// data blocks. Appends evicted `(line, dirty)` pairs to `evicted` so
    /// the caller can charge writeback traffic (the repartition path
    /// reuses one buffer across every set).
    pub fn reserve_ways_into(&mut self, set: usize, ways: u8, evicted: &mut Vec<(Line, bool)>) {
        let n = self.params.ways;
        assert!((ways as usize) <= n);
        let mut h = self.headers[set];
        for w in n - ways as usize..n - h.reserved as usize {
            let way = std::mem::take(&mut self.ways[set * n + w]);
            if h.fp[w] != 0 {
                self.stats.writebacks += u64::from(h.dirty(w));
                self.stats.useless_prefetch_evictions += u64::from(h.pending(w).is_some());
                evicted.push((Line(way.tag), h.dirty(w)));
            }
            h.write(w, 0, false, None);
        }
        h.reserved = ways;
        self.headers[set] = h;
    }

    /// Current reservation for `set`.
    pub fn reserved_ways(&self, set: usize) -> u8 {
        self.headers[set].reserved
    }

    /// Total data capacity currently usable, in lines.
    pub fn usable_lines(&self) -> usize {
        let reserved: usize = self.headers.iter().map(|h| h.reserved as usize).sum();
        self.sets * self.params.ways - reserved
    }

    /// Number of valid data blocks (test/introspection hook).
    pub fn occupancy(&self) -> usize {
        self.headers
            .iter()
            .flat_map(|h| h.fp)
            .filter(|&b| b != 0)
            .count()
    }

    /// Number of resident blocks installed by a prefetch and not yet
    /// demand-touched, by [`PrefetchOrigin`] (`[L1, L2-regular,
    /// temporal]`). Captured at stats reset as slack for the audit's
    /// prefetch-resolution laws.
    pub fn resident_prefetched(&self) -> [u64; 3] {
        let mut by_origin = [0; 3];
        for h in &self.headers {
            for origin in (0..self.params.ways).filter_map(|w| h.pending(w)) {
                by_origin[origin.idx()] += 1;
            }
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
        assert_eq!(std::mem::size_of::<WaySlot>(), 16, "four per host line");
        assert_eq!(std::mem::size_of::<SetHeader>(), 32, "two per host line");
        assert_eq!(
            std::mem::align_of::<SetHeader>(),
            32,
            "never straddling two"
        );
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
            for origin in self
                .ways
                .iter()
                .filter(|w| w.valid)
                .filter_map(|w| w.pending)
            {
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

    /// `order`'s nibbles: `ways` in order, then `0xF`.
    fn packed(ways: &[usize]) -> u64 {
        (0..16).fold(0, |o, i| {
            o | (ways.get(i).map_or(0xF, |&w| w as u64) << (4 * i))
        })
    }

    /// The set-header invariant against the reference's ways of `set`.
    /// A way's row byte is 0 when it is empty — reserved ways and bytes
    /// past the last way always are — and its tag's fingerprint
    /// otherwise; its slot, `pending` and `dirty` bits are 0 when empty
    /// and the reference's fields otherwise. `order` is a permutation of
    /// the ways padded with `0xF`, and its occupied usable ways are the
    /// reference's sorted by stamp, most recent first.
    fn header_matches(
        level: &CacheLevel,
        reference: &ReferenceLevel,
        set: usize,
    ) -> tpcheck::PropResult {
        let n = level.params.ways;
        let (h, slots) = (&level.headers[set], &level.ways[set * n..][..n]);
        let refways = &reference.ways[set * n..][..n];
        let usable = n - h.reserved as usize;
        for w in 0..16 {
            let r = refways
                .get(w)
                .copied()
                .filter(|r| r.valid)
                .unwrap_or_default();
            let want = if r.valid {
                tagrow::fingerprint(r.tag)
            } else {
                0
            };
            tpcheck::ensure!(h.fp[w] == want, "way {w}: byte {}, want {want}", h.fp[w]);
            tpcheck::ensure!(!r.valid || w < usable, "reserved way {w} holds a block");
            let (got, want) = ((h.pending(w), h.dirty(w)), (r.pending, r.dirty));
            tpcheck::ensure!(
                got == want,
                "way {w}: (pending, dirty) {got:?}, want {want:?}"
            );
            if let Some(slot) = slots.get(w) {
                let (got, want) = ((slot.tag, slot.ready_at), (r.tag, r.ready_at));
                tpcheck::ensure!(
                    got == want,
                    "way {w}: (tag, ready_at) {got:?}, want {want:?}"
                );
            }
        }
        let order: Vec<usize> = (0..n)
            .map(|i| (h.order >> (4 * i) & 0xF) as usize)
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        tpcheck::ensure!(
            sorted.iter().copied().eq(0..n) && h.order == packed(&order),
            "order {:#018x} is not a permutation of {n} ways padded with 0xF",
            h.order
        );
        let occupied: Vec<usize> = order
            .into_iter()
            .filter(|&w| w < usable && refways[w].valid)
            .collect();
        let mut by_stamp: Vec<usize> = (0..usable).filter(|&w| refways[w].valid).collect();
        by_stamp.sort_by_key(|&w| Reverse(refways[w].lru));
        tpcheck::ensure!(
            occupied == by_stamp,
            "occupied ways by order {occupied:?}, by stamp {by_stamp:?}"
        );
        Ok(())
    }

    /// `touch` against a `Vec` move-to-front: every way count, and every
    /// way at every position of random permutations.
    #[test]
    fn touch_moves_one_way_to_the_front() {
        tpcheck::check("SetHeader::touch == Vec move-to-front", 16, |g| {
            for n in 1..=16 {
                let identity: Vec<usize> = (0..n).collect();
                tpcheck::ensure!(SetHeader::new(n).order == packed(&identity), "new({n})");
                for at in 0..n {
                    for w in 0..n {
                        let mut ways = identity.clone();
                        for i in (1..n).rev() {
                            ways.swap(i, g.usize_in(0..i + 1));
                        }
                        let from = ways.iter().position(|&x| x == w).expect("a permutation");
                        ways.swap(from, at);
                        let mut h = SetHeader::new(n);
                        h.order = packed(&ways);
                        h.touch(w);
                        ways.remove(at);
                        ways.insert(0, w);
                        tpcheck::ensure!(
                            h.order == packed(&ways),
                            "{n} ways, {w} at {at}: {:#018x}",
                            h.order
                        );
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn scans_match_the_way_by_way_reference() {
        use PrefetchOrigin::{L2Regular, Temporal, L1};
        tpcheck::check("CacheLevel == way-by-way reference", 192, |g| {
            // One case in four is 16 ways with distant re-reference on,
            // no reservation, few sets and mostly demand installs: every
            // set stays full, and victim choice often finds no prefetched
            // way and weighs all sixteen.
            let full = g.usize_in(0..4) == 0;
            let ways = if full { 16 } else { g.usize_in(1..17) };
            let sets = 1usize << g.usize_in(0..if full { 2 } else { 7 });
            let params = CacheParams {
                capacity: sets * ways * 64,
                ways,
                latency: 5,
                mshrs: 2,
                ports: 1,
            };
            let low_priority = full || g.bool();
            let mut level = CacheLevel::new(params);
            level.set_prefetch_low_priority(low_priority);
            let mut reference = ReferenceLevel::new(params, low_priority);
            // A pool a little larger than the cache, so sets fill and
            // evict, plus same-set lines with one fingerprint.
            let mut pool: Vec<Line> = if full {
                (0..3 * sets * ways).map(|i| Line(i as u64)).collect()
            } else {
                (0..g.usize_in(1..2 * sets * ways + 2))
                    .map(|_| Line(g.u64_in(0..(4 * sets * ways) as u64)))
                    .collect()
            };
            pool.extend(colliding_lines(sets as u64, ways.min(4) + 1));
            for step in 0..400 {
                let line = pool[g.usize_in(0..pool.len())];
                let op = match g.usize_in(0..16) {
                    // `install` is for absent lines; `fill` takes any.
                    10..=14 if reference.reference_probe(line) => 7,
                    15 if full => 0,
                    op => op,
                };
                let what = match op {
                    0..=4 => {
                        let write = g.bool();
                        let (got, want) = (
                            level.demand_lookup(line, write),
                            reference.reference_demand_lookup(line, write),
                        );
                        tpcheck::ensure!(
                            got == want,
                            "step {step}: lookup {line:?}: {got:?} vs {want:?}"
                        );
                        "demand_lookup"
                    }
                    5..=6 => {
                        let (got, want) = (level.probe(line), reference.reference_probe(line));
                        tpcheck::ensure!(
                            got == want,
                            "step {step}: probe {line:?}: {got} vs {want}"
                        );
                        "probe"
                    }
                    7..=9 => {
                        let (dirty, prefetch) = (g.bool(), g.bool());
                        let pending = prefetch.then_some(L2Regular);
                        let (got, want) = (
                            level.fill(line, dirty, prefetch),
                            reference.reference_install(line, dirty, pending, 0),
                        );
                        tpcheck::ensure!(
                            got == want,
                            "step {step}: fill {line:?}: {got:?} vs {want:?}"
                        );
                        "fill"
                    }
                    10..=14 => {
                        let dirty = g.bool();
                        let origins = [None, Some(L1), Some(L2Regular), Some(Temporal)];
                        let pending = match full && g.bool() {
                            true => None,
                            false => origins[g.usize_in(0..4)],
                        };
                        let ready_at = g.u64_in(0..1000);
                        let (got, want) = (
                            level.install(line, dirty, pending, ready_at),
                            reference.reference_install(line, dirty, pending, ready_at),
                        );
                        tpcheck::ensure!(
                            got == want,
                            "step {step}: install {line:?}: {got:?} vs {want:?}"
                        );
                        "install"
                    }
                    _ => {
                        let set = g.usize_in(0..sets);
                        let reserve = g.usize_in(0..ways + 1) as u8;
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        level.reserve_ways_into(set, reserve, &mut got);
                        reference.reference_reserve(set, reserve, &mut want);
                        tpcheck::ensure!(
                            got == want,
                            "step {step}: reserve {reserve} of set {set}: {got:?} vs {want:?}"
                        );
                        "reserve_ways_into"
                    }
                };
                for set in 0..sets {
                    header_matches(&level, &reference, set)
                        .map_err(|e| format!("step {step} ({what}): set {set}: {e}"))?;
                }
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
        assert!(matches!(
            c.demand_lookup(a, false),
            LookupResult::Hit { .. }
        ));
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
