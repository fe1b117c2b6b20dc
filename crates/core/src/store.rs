//! The Streamline metadata store: tagged set-partitioning, filtered
//! indexing, TP-Mockingjay replacement, and partial-tag placement
//! (paper Sections IV-B3, IV-C, IV-D, IV-E).

use crate::config::{PartitionSize, StreamlineConfig, META_WAYS};
use crate::stream::{StreamEntry, TargetList};
use std::ops::Range;
use tpreplace::EtrSampler;
use tpsim::{tagrow, PartitionSpec};
use tptrace::record::Line;

/// Result of a store insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreInsert {
    /// Entry written; `redundant_pairs` counts its correlations that
    /// were already present in the indexed set (Figure 12b metric).
    Stored {
        /// Correlations duplicated within the set.
        redundant_pairs: usize,
    },
    /// The trigger maps to a set not allocated at the current partition
    /// size: filtered indexing discards the entry (Section IV-C).
    Filtered,
}

/// Result of a resize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResizeReport {
    /// Entries dropped because their set left the partition (filtered
    /// indexing) .
    pub dropped_entries: usize,
    /// Blocks that had to be shuffled (only nonzero when filtering is
    /// disabled and the index function changes — the RTS scheme).
    pub moved_blocks: usize,
}

/// The trigger of a vacant slot. It and the 0 in the slot's byte of
/// `fps` are the record that a slot is vacant: the other columns of a
/// vacant slot hold stale values nobody reads. `Line` values are cache
/// block numbers (addresses shifted right by 6), so `u64::MAX` can
/// never collide with a real trigger.
const VACANT: Line = Line(u64::MAX);

/// Partial trigger tag width in bits (Section V-D5).
const PARTIAL_TAG_BITS: u32 = 6;

/// Set accesses between two agings of a set's ETRs.
const ETR_AGE_EVERY: u32 = 8;

/// ETR counter width in bits: 3 suffice for temporal metadata (paper
/// Section IV-E5).
const ETR_BITS: u32 = 3;

/// The stream-based metadata store: one fixed-geometry table, like the
/// slice of the LLC it models. Its `llc_sets` rows of `slots_per_set`
/// slots are column arrays sized once in [`StreamStore::new`]; slot `w`
/// of set `s` is index `s * slots_per_set + w` of each. A resize changes
/// which rows are allocated and how many of a row's slots are
/// reachable, never the table's shape.
pub struct StreamStore {
    cfg: StreamlineConfig,
    size: PartitionSize,
    /// Slots per table row: a set's capacity at the widest geometry.
    slots_per_set: usize,
    /// Each slot's trigger (`VACANT` when empty).
    triggers: Vec<Line>,
    /// The tag rows ([`tagrow`]): 0 for a vacant slot, else the
    /// fingerprint of its trigger. Searches for a trigger go through
    /// this one-byte-stride column and read `triggers` only where a
    /// fingerprint matches.
    fps: Vec<u8>,
    /// Each slot's partial tag, for the alias scan.
    tags: Vec<u8>,
    /// Clock value of each slot's last write or lookup hit: the LRU
    /// order of the `-TP-MJ` ablation, and empty under TP-Mockingjay.
    lru: Vec<u64>,
    /// Each slot's correlated targets, `stream_len` lines apart, the
    /// first `lens[slot]` of them valid; with its trigger, the entry.
    targets: Vec<Line>,
    lens: Vec<u8>,
    /// TP-Mockingjay's state (Section IV-E5), all three empty when
    /// `tpmj` is off. Each slot's estimated time remaining (ETR) until
    /// its reuse: the victim has the largest |ETR|.
    etr: Vec<i32>,
    /// Whether each slot was filled since its set's ETR state last
    /// reset. Only filled slots age; a lookup hit sets a slot's ETR
    /// either way.
    filled: Vec<bool>,
    /// Per set: accesses since its ETR state last reset. Every
    /// `ETR_AGE_EVERY`th ages the set's filled slots by one.
    ticks: Vec<u32>,
    /// Per set: inserts since the last lookup hit (decayed by hits).
    /// Above the set capacity the set is *thrashing*: its working set
    /// cycles through without reuse, so — like Belady's MIN, which
    /// TP-Mockingjay mimics — new entries are confined to a few
    /// probation slots and the resident majority is retained. Past 4x
    /// capacity with still no hits the retained subset is judged stale
    /// and normal replacement resumes for one round to resample the
    /// stream.
    inserts_since_hit: Vec<u32>,
    sampler: EtrSampler,
    clock: u64,
    alias_conflicts: u64,
    /// Lookup hits credited to each size whose allocation contains the
    /// hit set (real measurements — they embed capacity pressure).
    /// Indexed by `PartitionSize as usize`, the order of [`ALL_SIZES`].
    /// The 64 permanently allocated sample sets guarantee index 0 keeps
    /// measuring even at "0 MB".
    credit: [u64; 4],
    lookups: u64,
}

/// Selects the replacement victim among a set's `cap` reachable slots
/// in one pass over them, with no candidate lists.
///
/// Semantics (pinned by the tpcheck property against the list-building
/// reference model in this module's tests):
///
/// * Only `allowed` slots are eligible (placement + alias-group rules).
/// * When `thrashing`, eligibility is first restricted to the probation
///   tail — the last `max(cap/8, 1)` slots (TP-MIN behaviour: churn the
///   probation slots, retain the resident majority); if no allowed slot
///   lies there, the whole set is scanned instead.
/// * With the set's ETR row (TP-Mockingjay), the victim has the
///   farthest predicted reuse, overdue (negative) preferred on ties, and
///   ties resolve to the *last* such slot (`Iterator::max_by_key`).
/// * Without one, the victim is least-recently used by the set's `lru`
///   stamps, ties resolving to the *first* such slot
///   (`Iterator::min_by_key`).
///
/// # Panics
/// Panics if no slot in `0..cap` is allowed.
fn select_victim(
    cap: usize,
    thrashing: bool,
    etr: Option<&[i32]>,
    lru: &[u64],
    allowed: &dyn Fn(usize) -> bool,
) -> usize {
    let floor = if thrashing { cap - (cap / 8).max(1) } else { 0 };
    let scan = |floor: usize| {
        let eligible = (floor..cap).filter(|&i| allowed(i));
        match etr {
            Some(e) => eligible.max_by_key(|&i| (e[i].unsigned_abs(), e[i] < 0)),
            None => eligible.min_by_key(|&i| lru[i]),
        }
    };
    scan(floor)
        .or_else(|| scan(0))
        .expect("candidates nonempty")
}

/// Whether the stream `trigger, targets…` holds the correlation
/// `a → b`.
fn holds_pair(trigger: Line, targets: &[Line], (a, b): (Line, Line)) -> bool {
    let mut prev = trigger;
    targets.iter().any(|&t| {
        let hit = prev == a && t == b;
        prev = t;
        hit
    })
}

/// All sizes, smallest to largest.
pub const ALL_SIZES: [PartitionSize; 4] = [
    PartitionSize::SamplesOnly,
    PartitionSize::Quarter,
    PartitionSize::Half,
    PartitionSize::Full,
];

impl StreamStore {
    /// Creates a store at the configured initial size. Every slot of
    /// every set is laid out here, whatever the initial size: this is
    /// the only place the store allocates under filtered indexing.
    pub fn new(cfg: StreamlineConfig) -> Self {
        let slots_per_set = META_WAYS * Self::entries_per_block(&cfg);
        let slots = cfg.llc_sets * slots_per_set;
        // Only the columns the replacement policy reads.
        let (tpmj_slots, tpmj_sets, lru_slots) = if cfg.tpmj {
            (slots, cfg.llc_sets, 0)
        } else {
            (0, 0, slots)
        };
        StreamStore {
            size: cfg.fixed_size.unwrap_or(PartitionSize::Full),
            slots_per_set,
            triggers: vec![VACANT; slots],
            fps: vec![0; slots],
            tags: vec![0; slots],
            lru: vec![0; lru_slots],
            targets: vec![Line(0); slots * cfg.stream_len.max(1)],
            lens: vec![0; slots],
            etr: vec![0; tpmj_slots],
            filled: vec![false; tpmj_slots],
            ticks: vec![0; tpmj_sets],
            inserts_since_hit: vec![0; cfg.llc_sets],
            sampler: EtrSampler::new(),
            clock: 0,
            alias_conflicts: 0,
            credit: [0; 4],
            lookups: 0,
            cfg,
        }
    }

    /// Geometry of a partition size under the current knobs:
    /// `(set stride log2, reserved ways)`. Hybrid partitioning trades
    /// set stride for way count below Half (Section V-D6).
    pub fn geometry(&self, size: PartitionSize) -> (u8, usize) {
        if self.cfg.hybrid && size == PartitionSize::Quarter {
            (1, META_WAYS / 2)
        } else {
            (size.stride_log2(self.cfg.llc_sets), META_WAYS)
        }
    }

    /// Stream entries per 64-byte way-block (4 at the default length).
    fn entries_per_block(cfg: &StreamlineConfig) -> usize {
        (StreamlineConfig::correlations_per_block(cfg.stream_len) / cfg.stream_len.max(1)).max(1)
    }

    /// Reachable slots per allocated set at `size`: the first
    /// `entries_cap` of the row. The rest of the row is vacant.
    fn entries_cap(&self, size: PartitionSize) -> usize {
        let (_, ways) = self.geometry(size);
        ways * Self::entries_per_block(&self.cfg)
    }

    /// The column indices of `set`'s first `cap` slots.
    fn row(&self, set: usize, cap: usize) -> Range<usize> {
        let base = set * self.slots_per_set;
        base..base + cap
    }

    /// Whether `set` is allocated at `size`.
    fn allocated_at(&self, set: usize, size: PartitionSize) -> bool {
        let (stride, _) = self.geometry(size);
        set & ((1usize << stride) - 1) == 0
    }

    fn hash(trigger: Line) -> u64 {
        // SplitMix64 finaliser: strided address patterns must spread
        // uniformly over sets or filtered indexing becomes all-or-nothing
        // for a given stride.
        let mut x = trigger.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// The fixed index function (matching the maximum partition size).
    /// With skewed indexing, half of the triggers are biased toward the
    /// sets that remain allocated at small sizes.
    pub fn set_of(&self, trigger: Line) -> usize {
        let h = Self::hash(trigger);
        let mut set = (h as usize) & (self.cfg.llc_sets - 1);
        if self.cfg.skewed && (h >> 48) & 1 == 0 {
            // Snap half the triggers to every-4th sets (allocated even
            // at Quarter size).
            set &= !3;
        }
        if !self.cfg.filtering {
            // Unfiltered (RTS): the index function tracks the *current*
            // size, compressing onto allocated sets — which is exactly
            // why it must rearrange on resize.
            let (stride, _) = self.geometry(self.size);
            set &= !((1usize << stride) - 1);
        }
        set
    }

    fn partial_tag(trigger: Line) -> u8 {
        (Self::hash(trigger) >> 20) as u8 & ((1 << PARTIAL_TAG_BITS) - 1)
    }

    /// Current partition size.
    pub fn size(&self) -> PartitionSize {
        self.size
    }

    /// The partition spec the LLC should apply for this store.
    pub fn partition_spec(&self) -> PartitionSpec {
        let (stride, ways) = self.geometry(self.size);
        PartitionSpec::Sets {
            every_log2: stride,
            ways: ways as u8,
        }
    }

    /// Would `trigger` be filtered out at the current size?
    pub fn would_filter(&self, trigger: Line) -> bool {
        self.cfg.filtering && !self.allocated_at(self.set_of(trigger), self.size)
    }

    /// Whether `set_idx` is one of the 64 permanently allocated
    /// TP-Mockingjay sample sets that train the reuse predictor (paper
    /// Section IV-E4): exactly the sets "0 MB" keeps, whose stride is
    /// derived from the set count so the sample population stays 64
    /// regardless of LLC geometry.
    pub fn is_sample_set(&self, set_idx: usize) -> bool {
        self.allocated_at(set_idx, PartitionSize::SamplesOnly)
    }

    /// Lines of `targets` per slot.
    fn stride(&self) -> usize {
        self.cfg.stream_len.max(1)
    }

    /// The targets stored in `slot`.
    fn targets_of(&self, slot: usize) -> &[Line] {
        let at = slot * self.stride();
        &self.targets[at..at + self.lens[slot] as usize]
    }

    /// Which slot of `row` holds `trigger`, counted from the row's start.
    fn find(&self, row: Range<usize>, trigger: Line) -> Option<usize> {
        let triggers = &self.triggers[row.clone()];
        tagrow::find(&self.fps[row], tagrow::fingerprint(trigger.0), |w| {
            triggers[w] == trigger
        })
    }

    /// Writes an entry into `slot`, stamped with the current clock.
    ///
    /// # Panics
    /// Panics if `targets` is longer than the configured `stream_len`.
    fn write(&mut self, slot: usize, trigger: Line, tag: u8, targets: &[Line]) {
        let stride = self.stride();
        assert!(targets.len() <= stride, "entry longer than stream_len");
        self.triggers[slot] = trigger;
        self.fps[slot] = tagrow::fingerprint(trigger.0);
        self.tags[slot] = tag;
        if let Some(stamp) = self.lru.get_mut(slot) {
            *stamp = self.clock;
        }
        self.targets[slot * stride..][..targets.len()].copy_from_slice(targets);
        self.lens[slot] = targets.len() as u8;
    }

    /// Empties `slots`, returning how many were occupied.
    fn vacate(&mut self, slots: Range<usize>) -> usize {
        let triggers = &mut self.triggers[slots.clone()];
        let occupied = triggers.iter().filter(|&&t| t != VACANT).count();
        triggers.fill(VACANT);
        self.fps[slots].fill(0);
        occupied
    }

    /// The ETR the sampler predicts for an entry inserted or hit by
    /// `pc_hash`.
    fn predicted_etr(&self, pc_hash: u8) -> i32 {
        self.sampler
            .etr_for(self.sampler.predict(pc_hash), ETR_BITS)
    }

    /// Counts a TP-Mockingjay access to `set`, aging its filled slots
    /// on every `ETR_AGE_EVERY`th.
    fn tick_etr(&mut self, set: usize) {
        self.ticks[set] += 1;
        if self.ticks[set].is_multiple_of(ETR_AGE_EVERY) {
            let row = self.row(set, self.slots_per_set);
            for (e, &filled) in self.etr[row.clone()].iter_mut().zip(&self.filled[row]) {
                *e -= i32::from(filled);
            }
        }
    }

    /// Restarts `set`'s ETR state: every slot reads 0 and none ages.
    fn reset_etr(&mut self, set: usize) {
        let row = self.row(set, self.slots_per_set);
        self.etr[row.clone()].fill(0);
        self.filled[row].fill(false);
        self.ticks[set] = 0;
    }

    /// Inserts a completed stream entry.
    pub fn insert(&mut self, entry: StreamEntry, pc_hash: u8) -> StoreInsert {
        let set_idx = self.set_of(entry.trigger);
        if self.would_filter(entry.trigger) {
            return StoreInsert::Filtered;
        }
        self.clock += 1;
        let cap = self.entries_cap(self.size);
        let tag = Self::partial_tag(entry.trigger);
        let tpmj = self.cfg.tpmj;
        let tsp = self.cfg.tsp;
        let stream_len = self.stride();
        // TP-Mockingjay: sampled sets train the reuse predictor on the
        // first correlation of each completed entry (Section IV-E5).
        if tpmj && self.is_sample_set(set_idx) {
            if let Some(&first) = entry.targets.first() {
                let key = Self::hash(entry.trigger) ^ (first.0 << 1);
                self.sampler.observe(key, pc_hash);
            }
        }
        if tpmj {
            self.tick_etr(set_idx);
        }

        let row = self.row(set_idx, cap);
        let triggers = &self.triggers[row.clone()];

        // Count redundant correlations already present in this set.
        // The candidate's pairs are materialised once on the stack and
        // probed against each resident entry where it lies in the
        // table, so the quadratic probe allocates nothing (the old
        // `pairs()` Vec was the single hottest allocation site on the
        // insert path).
        let mut epairs = [(Line(0), Line(0)); crate::stream::MAX_STREAM_LEN];
        let mut en = 0usize;
        for p in entry.pair_iter() {
            epairs[en] = p;
            en += 1;
        }
        let mut redundant_pairs = 0;
        let stored =
            self.targets[row.start * stream_len..row.end * stream_len].chunks_exact(stream_len);
        for ((&t, &len), targets) in triggers.iter().zip(&self.lens[row.clone()]).zip(stored) {
            if t == VACANT || t == entry.trigger {
                continue; // vacant, or same trigger: an overwrite, handled below
            }
            redundant_pairs += epairs[..en]
                .iter()
                .filter(|&&p| holds_pair(t, &targets[..len as usize], p))
                .count();
        }

        // Placement: overwrite same trigger; else honour partial-tag
        // aliasing (aliased entries must share a way — we model the
        // replacement constraint by reusing the aliased slot); else an
        // empty slot; else the policy victim.
        let mut victim = self.find(row.clone(), entry.trigger);
        // The way group (slot index / entries per way) that placement
        // is confined to, if any. Way-partitioned (non-TSP): one way
        // group chosen by the trigger hash → effective associativity
        // of a single way.
        let mut group =
            (!tsp).then(|| (Self::hash(entry.trigger) >> 12) as usize % (cap / stream_len).max(1));
        // Partial-tag aliasing (Section V-D5): an aliased trigger must
        // share the aliased entry's LLC way, constraining placement to
        // that way group (4 entries per way).
        if victim.is_none() && tsp {
            if let Some(i) = triggers
                .iter()
                .zip(&self.tags[row.clone()])
                .position(|(&t, &tg)| t != VACANT && tg == tag && t != entry.trigger)
            {
                self.alias_conflicts += 1;
                group = Some(i / stream_len);
            }
        }
        let allowed = |i: usize| group.is_none_or(|g| i / stream_len == g);
        if victim.is_none() {
            victim = (0..cap).find(|&i| triggers[i] == VACANT && allowed(i));
        }
        let since_hit = &mut self.inserts_since_hit[set_idx];
        *since_hit = since_hit.saturating_add(1);
        if *since_hit as usize > 4 * cap {
            *since_hit = 0; // stale retained subset: resample
        }
        let thrashing = tpmj && *since_hit as usize > cap;
        let victim = victim.unwrap_or_else(|| {
            let lru = self.lru.get(row.clone()).unwrap_or_default();
            select_victim(cap, thrashing, self.etr.get(row.clone()), lru, &allowed)
        });

        let slot = row.start + victim;
        let redundant =
            self.triggers[slot] == entry.trigger && self.targets_of(slot) == &entry.targets[..];
        self.write(slot, entry.trigger, tag, &entry.targets);
        if tpmj {
            self.etr[slot] = self.predicted_etr(pc_hash);
            self.filled[slot] = true;
        }
        StoreInsert::Stored {
            redundant_pairs: redundant_pairs + usize::from(redundant),
        }
    }

    /// Looks up the stream entry whose trigger is `trigger`, refreshing
    /// replacement state and crediting the per-size hit counters.
    ///
    /// Returns a borrow of the stored targets (the trigger is the
    /// caller's own argument) — the demand path decides per hit whether
    /// a copy is worth making, so the store never clones on its own.
    pub fn lookup(&mut self, trigger: Line, pc_hash: u8) -> Option<&[Line]> {
        self.lookups += 1;
        let set_idx = self.set_of(trigger);
        if self.cfg.filtering && !self.allocated_at(set_idx, self.size) {
            return None;
        }
        self.clock += 1;
        let row = self.row(set_idx, self.entries_cap(self.size));
        let slot = row.start + self.find(row.clone(), trigger)?;
        if let Some(stamp) = self.lru.get_mut(slot) {
            *stamp = self.clock;
        }
        let since_hit = &mut self.inserts_since_hit[set_idx];
        *since_hit = since_hit.saturating_sub(4);
        if self.cfg.tpmj {
            self.tick_etr(set_idx);
            self.etr[slot] = self.predicted_etr(pc_hash);
        }
        // One stream-entry hit supplies a whole entry's worth of
        // correlations (a pairwise store would need one hit per pair),
        // so utility accounting credits per correlation supplied.
        let worth = self.lens[slot].max(1) as u64;
        for s in ALL_SIZES {
            if self.allocated_at(set_idx, s) {
                self.credit[s as usize] += worth;
            }
        }
        Some(self.targets_of(slot))
    }

    /// Reads the first target stored for `trigger` without touching any
    /// replacement state (training-time measurement).
    pub fn peek_first_target(&self, trigger: Line) -> Option<Line> {
        let row = self.row(self.set_of(trigger), self.slots_per_set);
        let way = self.find(row.clone(), trigger)?;
        self.targets_of(row.start + way).first().copied()
    }

    /// Resizes the partition.
    pub fn set_size(&mut self, size: PartitionSize) -> ResizeReport {
        if size == self.size {
            return ResizeReport::default();
        }
        let mut report = ResizeReport::default();
        if self.cfg.filtering {
            // Filtered indexing: no index change; entries whose set left
            // the partition are simply dropped.
            let old_cap = self.entries_cap(self.size);
            self.size = size;
            let cap = self.entries_cap(size);
            for set in 0..self.cfg.llc_sets {
                // With fewer ways at the new size (hybrid Quarter) the
                // slots beyond the cap are unreachable by lookup, so
                // they are evicted too rather than left as phantom
                // residents inflating valid_entries()/valid_blocks().
                let keep = if self.allocated_at(set, size) { cap } else { 0 };
                let row = self.row(set, self.slots_per_set);
                report.dropped_entries += self.vacate(row.start + keep..row.end);
                // ETR state of a set that left the partition, or whose
                // reachable ways changed, restarts: its ages describe
                // slots that no longer exist.
                if keep != old_cap && self.cfg.tpmj {
                    self.reset_etr(set);
                }
            }
        } else {
            // Unfiltered (RTS): the index function changes with the size,
            // so every surviving entry moves — rearrangement traffic.
            // The list of movers is the store's one allocation after
            // `new`; RTS is the scheme filtered indexing replaces.
            let movers: Vec<(Line, u8, TargetList)> = (0..self.triggers.len())
                .filter(|&i| self.triggers[i] != VACANT)
                .map(|i| {
                    (
                        self.triggers[i],
                        self.tags[i],
                        TargetList::from(self.targets_of(i)),
                    )
                })
                .collect();
            self.triggers.fill(VACANT);
            self.fps.fill(0);
            self.etr.fill(0);
            self.filled.fill(false);
            self.ticks.fill(0);
            self.size = size;
            report.moved_blocks = movers.len().div_ceil(Self::entries_per_block(&self.cfg));
            let cap = self.entries_cap(size);
            for (trigger, tag, targets) in movers {
                let row = self.row(self.set_of(trigger), cap);
                self.clock += 1;
                match tagrow::first_empty(&self.fps[row.clone()]) {
                    Some(free) => self.write(row.start + free, trigger, tag, &targets),
                    None => report.dropped_entries += 1,
                }
            }
        }
        report
    }

    /// Valid entries stored.
    pub fn valid_entries(&self) -> usize {
        self.triggers.iter().filter(|&&t| t != VACANT).count()
    }

    /// Valid entries in 64-byte blocks.
    pub fn valid_blocks(&self) -> usize {
        self.valid_entries()
            .div_ceil(Self::entries_per_block(&self.cfg))
    }

    /// Estimated lookup hits a partition of `size` would capture since
    /// the last reset.
    ///
    /// For sizes **at or below** the current partition, the estimate is a
    /// real measurement: hits in the sets that size's allocation
    /// contains, which naturally embeds capacity pressure. For sizes
    /// **above** the current partition (whose extra sets hold nothing),
    /// the current size's measured hits are scaled up linearly — the
    /// optimistic probe that lets a shrunken store regrow, anchored by
    /// the 64 permanently allocated sample sets (paper Section IV-E4).
    pub fn hits_at(&self, size: PartitionSize) -> u64 {
        let (stride, _) = self.geometry(size);
        let (cur_stride, _) = self.geometry(self.size);
        if stride >= cur_stride {
            // Smaller-or-equal partition: real subset measurement.
            self.credit[size as usize]
        } else {
            // Larger partition: scale the current measurement up.
            self.credit[self.size as usize] << (cur_stride - stride)
        }
    }

    /// Lookups since the last reset.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Partial-tag alias conflicts observed (Section V-D5).
    pub fn alias_conflicts(&self) -> u64 {
        self.alias_conflicts
    }

    /// Clears the epoch counters.
    pub fn reset_epoch(&mut self) {
        self.credit = [0; 4];
        self.lookups = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trigger: u64, base: u64) -> StreamEntry {
        StreamEntry::new(
            Line(trigger),
            (1..=4).map(|i| Line(base + i)).collect::<TargetList>(),
        )
    }

    fn store(cfg: StreamlineConfig) -> StreamStore {
        StreamStore::new(cfg)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut s = store(StreamlineConfig::default());
        let e = entry(100, 200);
        assert!(matches!(s.insert(e.clone(), 1), StoreInsert::Stored { .. }));
        assert_eq!(s.lookup(Line(100), 1), Some(&e.targets[..]));
        assert_eq!(s.lookup(Line(101), 1), None);
    }

    #[test]
    fn full_size_never_filters() {
        let s = store(StreamlineConfig::default());
        for t in 0..1000u64 {
            assert!(!s.would_filter(Line(t * 77)));
        }
    }

    #[test]
    fn half_size_filters_about_half() {
        let cfg = StreamlineConfig {
            fixed_size: Some(PartitionSize::Half),
            ..Default::default()
        };
        let s = store(cfg);
        let filtered = (0..4000u64)
            .filter(|&t| s.would_filter(Line(t * 131)))
            .count();
        assert!(
            (1400..2600).contains(&filtered),
            "expected ~half filtered: {filtered}"
        );
    }

    #[test]
    fn skewed_indexing_reduces_small_size_filtering() {
        let mut cfg = StreamlineConfig {
            fixed_size: Some(PartitionSize::Quarter),
            ..Default::default()
        };
        let plain = store(cfg);
        cfg.skewed = true;
        let skewed = store(cfg);
        let count = |s: &StreamStore| {
            (0..4000u64)
                .filter(|&t| s.would_filter(Line(t * 131)))
                .count()
        };
        assert!(
            count(&skewed) < count(&plain) * 3 / 4,
            "skew should cut filtering: {} vs {}",
            count(&skewed),
            count(&plain)
        );
    }

    #[test]
    fn hybrid_quarter_filters_half_not_three_quarters() {
        let cfg = StreamlineConfig {
            fixed_size: Some(PartitionSize::Quarter),
            hybrid: true,
            ..Default::default()
        };
        let s = store(cfg);
        let filtered = (0..4000u64)
            .filter(|&t| s.would_filter(Line(t * 131)))
            .count();
        assert!(
            (1400..2600).contains(&filtered),
            "hybrid quarter should filter ~50%: {filtered}"
        );
        let (stride, ways) = s.geometry(PartitionSize::Quarter);
        assert_eq!((stride, ways), (1, 4));
    }

    #[test]
    fn filtered_resize_drops_without_moving() {
        let mut s = store(StreamlineConfig::default());
        for t in 0..2000u64 {
            s.insert(entry(t * 97, t), 1);
        }
        let before = s.valid_entries();
        let r = s.set_size(PartitionSize::Half);
        assert_eq!(r.moved_blocks, 0, "filtered indexing never shuffles");
        assert!(r.dropped_entries > 0);
        assert!(s.valid_entries() < before);
    }

    #[test]
    fn unfiltered_resize_moves_blocks() {
        let cfg = StreamlineConfig {
            filtering: false,
            realignment: false,
            ..Default::default()
        };
        let mut s = store(cfg);
        for t in 0..2000u64 {
            s.insert(entry(t * 97, t), 1);
        }
        let r = s.set_size(PartitionSize::Half);
        assert!(r.moved_blocks > 0, "RTS must rearrange on resize");
    }

    #[test]
    fn per_size_hit_estimates_measure_down_and_extrapolate_up() {
        let mut s = store(StreamlineConfig::default());
        for t in 0..4096u64 {
            s.insert(entry(t * 257, t), 1);
        }
        for t in 0..4096u64 {
            s.lookup(Line(t * 257), 1);
        }
        // At Full, smaller sizes are real subset measurements.
        let full = s.hits_at(PartitionSize::Full);
        let half = s.hits_at(PartitionSize::Half);
        let samples = s.hits_at(PartitionSize::SamplesOnly);
        assert!(full > 0 && half > 0 && samples > 0);
        assert!(half < full, "subset measurement: {half} !< {full}");
        assert!(samples < half);
        // Half-allocated sets hold about half the uniform hits.
        let ratio = half as f64 / full as f64;
        assert!((0.3..0.7).contains(&ratio), "ratio {ratio}");
        s.reset_epoch();
        assert_eq!(s.hits_at(PartitionSize::Full), 0);
        // From a small current size, bigger sizes extrapolate upward.
        let cfg = StreamlineConfig {
            fixed_size: Some(PartitionSize::Half),
            ..Default::default()
        };
        let mut sm = store(cfg);
        for t in 0..4096u64 {
            sm.insert(entry(t * 257, t), 1);
        }
        for t in 0..4096u64 {
            sm.lookup(Line(t * 257), 1);
        }
        let h = sm.hits_at(PartitionSize::Half);
        assert_eq!(sm.hits_at(PartitionSize::Full), h * 2);
    }

    #[test]
    fn capacity_eviction_keeps_set_bounded() {
        let cfg = StreamlineConfig {
            llc_sets: 2, // tiny store: 2 sets x 32 entries
            ..Default::default()
        };
        let mut s = store(cfg);
        for t in 0..500u64 {
            s.insert(entry(t, t * 10), 3);
        }
        assert!(s.valid_entries() <= 2 * 32);
    }

    #[test]
    fn non_tsp_mode_has_lower_effective_associativity() {
        // With way-partitioned placement, conflicting triggers thrash a
        // single way group; TSP absorbs them in the full 32-entry set.
        let base = StreamlineConfig {
            llc_sets: 1,
            tpmj: false,
            ..Default::default()
        };
        let mut tsp_cfg = base;
        tsp_cfg.tsp = true;
        let mut way_cfg = base;
        way_cfg.tsp = false;
        let mut tsp = store(tsp_cfg);
        let mut way = store(way_cfg);
        // 24 triggers fit in 32 entries; loop them twice.
        let hits = |s: &mut StreamStore| {
            let mut h = 0;
            for round in 0..3 {
                for t in 0..24u64 {
                    if round > 0 && s.lookup(Line(t * 1009), 1).is_some() {
                        h += 1;
                    }
                    s.insert(entry(t * 1009, t), 1);
                }
            }
            h
        };
        let h_tsp = hits(&mut tsp);
        let h_way = hits(&mut way);
        assert!(
            h_tsp > h_way,
            "TSP should reduce conflict misses: {h_tsp} vs {h_way}"
        );
    }

    #[test]
    fn alias_conflicts_are_rare_with_6_bit_tags() {
        let mut s = store(StreamlineConfig::default());
        for t in 0..20_000u64 {
            s.insert(entry(t * 613, t), (t % 200) as u8);
        }
        let rate = s.alias_conflicts() as f64 / 20_000.0;
        assert!(rate < 0.15, "alias rate {rate} too high");
    }

    #[test]
    fn exactly_64_sample_sets_at_every_geometry() {
        for llc_sets in (6..=13).map(|log2| 1usize << log2) {
            let mut s = store(StreamlineConfig {
                llc_sets,
                ..Default::default()
            });
            let samples: Vec<usize> = (0..llc_sets).filter(|&i| s.is_sample_set(i)).collect();
            assert_eq!(
                samples.len(),
                64,
                "paper Section IV-E4: 64 sample sets of {llc_sets}"
            );
            assert!(
                samples
                    .iter()
                    .enumerate()
                    .all(|(k, &i)| i == k * (llc_sets / 64)),
                "sample sets of {llc_sets} are not evenly spread: {samples:?}"
            );
            // "0 MB" must keep exactly the sample sets: there the
            // predictor keeps training and the smallest size's hit
            // counter keeps measuring, which is the partitioner's only
            // way back up from the smallest partition.
            s.set_size(PartitionSize::SamplesOnly);
            for t in (0..4096u64).map(|t| t * 257) {
                let stored = matches!(s.insert(entry(t, t), 1), StoreInsert::Stored { .. });
                assert_eq!(
                    stored,
                    s.is_sample_set(s.set_of(Line(t))),
                    "{llc_sets} sets, trigger {t}"
                );
                assert_eq!(s.lookup(Line(t), 1).is_some(), stored);
            }
            assert!(
                s.hits_at(PartitionSize::SamplesOnly) > 0,
                "{llc_sets} sets: nothing measured"
            );
        }
    }

    #[test]
    fn hybrid_shrink_trims_unreachable_slots() {
        let cfg = StreamlineConfig {
            hybrid: true,
            tpmj: true,
            ..Default::default()
        };
        let mut s = store(cfg);
        for t in 0..20_000u64 {
            s.insert(entry(t * 97, t), 1);
        }
        let before = s.valid_entries();
        // Hybrid Quarter halves the ways: surviving sets keep only the
        // slots a lookup can still reach.
        let r = s.set_size(PartitionSize::Quarter);
        let after = s.valid_entries();
        assert_eq!(
            before - after,
            r.dropped_entries,
            "every evicted entry must be counted as dropped"
        );
        let cap = s.entries_cap(PartitionSize::Quarter);
        assert!(
            (0..s.cfg.llc_sets).all(|set| {
                let row = s.row(set, s.slots_per_set);
                s.triggers[row.start + cap..row.end]
                    .iter()
                    .all(|&t| t == VACANT)
            }),
            "no phantom slots beyond the new capacity"
        );
    }

    #[test]
    fn regrow_after_hybrid_shrink_keeps_etr_consistent() {
        let cfg = StreamlineConfig {
            hybrid: true,
            tpmj: true,
            llc_sets: 64, // small store so sets fill at every size
            ..Default::default()
        };
        let mut s = store(cfg);
        for t in 0..5_000u64 {
            s.insert(entry(t * 97, t), 1);
        }
        s.set_size(PartitionSize::Quarter);
        // Rebuild ETR state at the shrunken capacity...
        for t in 0..5_000u64 {
            s.insert(entry(t * 101, t), 1);
        }
        s.set_size(PartitionSize::Full);
        // ...then inserts at the regrown capacity must not index the
        // stale (smaller) ETR arrays.
        for t in 0..20_000u64 {
            s.insert(entry(t * 103, t), 1);
        }
        assert!(s.valid_entries() > 0);
    }

    /// The old list-building victim scan, kept as the reference model
    /// for the in-place [`select_victim`] rewrite: collect all allowed
    /// indices, restrict to the probation tail when thrashing (falling
    /// back to all if the tail holds no allowed slot), then pick with
    /// `max_by_key`/`min_by_key` exactly as the original code did.
    fn reference_victim(
        cap: usize,
        thrashing: bool,
        etr: Option<&[i32]>,
        lru: &[u64],
        allowed: &dyn Fn(usize) -> bool,
    ) -> usize {
        let all: Vec<usize> = (0..cap).filter(|&i| allowed(i)).collect();
        let candidates: Vec<usize> = if thrashing {
            let probation = (cap / 8).max(1);
            let p: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| i >= cap - probation)
                .collect();
            if p.is_empty() {
                all
            } else {
                p
            }
        } else {
            all
        };
        match etr {
            Some(e) => candidates
                .iter()
                .copied()
                .max_by_key(|&i| (e[i].unsigned_abs(), e[i] < 0))
                .expect("candidates nonempty"),
            None => candidates
                .iter()
                .copied()
                .min_by_key(|&i| lru[i])
                .expect("candidates nonempty"),
        }
    }

    #[test]
    fn victim_scan_matches_list_building_reference() {
        tpcheck::check("in-place victim scan == reference", 512, |g| {
            let cap = g.usize_in(1..40);
            let thrashing = g.bool();
            let tpmj = g.bool();
            // A random ETR row: small value range forces |ETR| ties so
            // the last-maximal tie-break is actually exercised; negative
            // values cover the overdue-preferred rule.
            let etr: Vec<i32> = (0..cap).map(|_| g.u64_in(0..9) as i32 - 4).collect();
            let etr = tpmj.then_some(&etr[..]);
            // Random LRU stamps (duplicates likely, so the first-minimal
            // tie-break is exercised too).
            let lru: Vec<u64> = (0..cap).map(|_| g.u64_in(0..6)).collect();
            // Random allowed mask, guaranteed nonempty (the real caller
            // always has at least one allowed slot: the insert path's
            // way group / alias group is never empty).
            let mut mask: Vec<bool> = (0..cap).map(|_| g.bool()).collect();
            let forced = g.usize_in(0..cap);
            mask[forced] = true;
            let allowed = |i: usize| mask[i];

            let got = select_victim(cap, thrashing, etr, &lru, &allowed);
            let want = reference_victim(cap, thrashing, etr, &lru, &allowed);
            tpcheck::ensure!(
                got == want,
                "cap={cap} thrashing={thrashing} tpmj={tpmj}: got {got}, want {want}"
            );
            Ok(())
        });
    }

    #[test]
    fn the_farthest_reuse_is_the_victim_and_overdue_wins_ties() {
        let any = |_: usize| true;
        // |-3| == |3|: the overdue slot goes first.
        assert_eq!(select_victim(4, false, Some(&[1, 3, -3, 2]), &[], &any), 2);
        assert_eq!(select_victim(4, false, Some(&[1, 3, 0, 2]), &[], &any), 1);
    }

    #[test]
    fn etrs_age_every_8_set_accesses_and_only_where_filled() {
        let mut s = store(StreamlineConfig {
            llc_sets: 1,
            ..Default::default()
        });
        // Two inserts and a lookup hit are three accesses to the set; a
        // miss is none.
        s.insert(entry(1, 100), 1);
        s.insert(entry(2, 200), 1);
        assert!(s.lookup(Line(1), 1).is_some());
        assert!(s.lookup(Line(3), 1).is_none());
        assert_eq!(s.ticks[0], 3);
        assert_eq!(s.filled[..3], [true, true, false]);
        s.etr[..3].copy_from_slice(&[2, -1, 5]);
        for _ in 3..7 {
            s.tick_etr(0);
        }
        assert_eq!(s.etr[..3], [2, -1, 5], "no aging before the 8th access");
        s.tick_etr(0);
        assert_eq!(s.etr[..3], [1, -2, 5], "the 8th ages filled slots only");
    }

    #[test]
    fn a_slot_reset_by_a_resize_stops_aging_but_a_hit_still_sets_its_etr() {
        let mut s = store(StreamlineConfig {
            llc_sets: 2,
            hybrid: true,
            ..Default::default()
        });
        // Both sets sample: a stream of unique triggers from one PC
        // trains it toward a nonzero (scan) prediction.
        for t in 0..5_000u64 {
            s.insert(entry(t * 97, t), 7);
        }
        let predicted = s.predicted_etr(7);
        assert_ne!(predicted, 0);
        // Hybrid Quarter halves the ways: set 0 keeps its first 16
        // entries, and its ETR state restarts.
        s.set_size(PartitionSize::Quarter);
        let row = s.row(0, s.slots_per_set);
        assert!(s.etr[row.clone()].iter().all(|&e| e == 0));
        assert!(!s.filled[row.clone()].iter().any(|&f| f));
        assert_eq!(s.ticks[0], 0);
        let kept = s.triggers[row.start];
        assert!(s.lookup(kept, 7).is_some());
        assert_eq!(s.etr[row.start], predicted, "a hit sets the ETR");
        assert!(!s.filled[row.start], "a hit is not a fill");
        for _ in 0..2 * ETR_AGE_EVERY {
            s.tick_etr(0);
        }
        assert_eq!(s.etr[row.start], predicted, "an unfilled slot never ages");
    }

    #[test]
    fn lookup_does_not_perturb_stored_entries() {
        tpcheck::check("lookup leaves entries byte-identical", 64, |g| {
            let cfg = StreamlineConfig {
                llc_sets: 1 << g.usize_in(0..4),
                tpmj: g.bool(),
                tsp: g.bool(),
                ..Default::default()
            };
            let mut s = StreamStore::new(cfg);
            let triggers: Vec<u64> = (0..g.usize_in(1..80))
                .map(|_| g.u64_in(1..500) * 131)
                .collect();
            for &t in &triggers {
                s.insert(entry(t, t / 7), (t % 251) as u8);
            }
            let total = s.valid_entries();
            for &t in &triggers {
                let first = s.lookup(Line(t), (t % 251) as u8).map(<[Line]>::to_vec);
                let second = s.lookup(Line(t), (t % 251) as u8).map(<[Line]>::to_vec);
                tpcheck::ensure!(
                    first == second,
                    "trigger {t}: repeated lookups diverged ({first:?} vs {second:?})"
                );
                if let Some(e) = &first {
                    tpcheck::ensure!(
                        *e == entry(t, t / 7).targets,
                        "trigger {t}: lookup returned a perturbed entry {e:?}"
                    );
                }
            }
            tpcheck::ensure!(
                s.valid_entries() == total,
                "lookups changed the resident population"
            );
            Ok(())
        });
    }

    /// The tag-row invariant, after inserts, overwrites, evictions and
    /// resizes under both indexing schemes: a slot's byte of `fps` is 0
    /// exactly when the slot is vacant, and its trigger's fingerprint
    /// otherwise.
    #[test]
    fn the_tag_rows_mirror_the_trigger_column() {
        tpcheck::check("fps == fingerprint(triggers)", 48, |g| {
            let cfg = StreamlineConfig {
                llc_sets: 64 << g.usize_in(0..3),
                filtering: g.bool(),
                realignment: false,
                hybrid: g.bool(),
                tpmj: g.bool(),
                tsp: g.bool(),
                ..Default::default()
            };
            let mut s = StreamStore::new(cfg);
            for _ in 0..6 {
                for _ in 0..g.usize_in(1..600) {
                    let t = g.u64_in(0..3000) * 131;
                    s.insert(entry(t, t / 7), (t % 251) as u8);
                }
                s.set_size(ALL_SIZES[g.usize_in(0..4)]);
                for (i, (&t, &fp)) in s.triggers.iter().zip(&s.fps).enumerate() {
                    let want = if t == VACANT {
                        0
                    } else {
                        tagrow::fingerprint(t.0)
                    };
                    tpcheck::ensure!(
                        fp == want,
                        "slot {i}: trigger {t:?}, byte {fp}, want {want}"
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn redundant_pair_detection() {
        let cfg = StreamlineConfig {
            llc_sets: 1,
            ..Default::default()
        };
        let mut s = store(cfg);
        s.insert(entry(1, 100), 1); // pairs (1,101),(101,102)...
                                    // Another entry sharing pairs (101,102).
        let dup = StreamEntry::new(Line(50), vec![Line(101), Line(102), Line(9), Line(10)]);
        match s.insert(dup, 1) {
            StoreInsert::Stored { redundant_pairs } => {
                assert!(redundant_pairs >= 1, "shared pair should be flagged")
            }
            StoreInsert::Filtered => panic!("unexpected filter"),
        }
    }
}
