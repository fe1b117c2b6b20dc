//! The pairwise (trigger → target) metadata store shared by Triage and
//! Triangel.
//!
//! Entries live in per-LLC-set buckets ordered most-recent-first, so the
//! bucket position doubles as an LRU stack distance: the way-depth
//! histogram it yields drives the dynamic partitioners ("how many
//! trigger hits would w ways capture?").

/// Outcome of inserting a correlation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Fresh trigger.
    New,
    /// Trigger present; its target was replaced.
    UpdatedTarget,
    /// Exact (trigger, target) pair already present — redundant work.
    Redundant,
}

/// A pairwise metadata store, generic over the stored target payload
/// (full lines for Triangel, compressed handles for Triage).
#[derive(Clone, Debug)]
pub struct PairwiseStore<T> {
    sets: usize,
    entries_per_way: usize,
    max_ways: u8,
    ways: u8,
    buckets: Vec<Vec<(u64, T)>>,
    /// Lookup hits by way depth (bucket position / entries-per-way).
    hist: Vec<u64>,
}

impl<T: Copy + PartialEq> PairwiseStore<T> {
    /// Creates a store spread over `sets` LLC sets, holding
    /// `entries_per_way` correlations per way-block, with at most
    /// `max_ways` ways, starting at `initial_ways`.
    ///
    /// # Panics
    /// Panics on zero geometry or `initial_ways > max_ways`.
    pub fn new(sets: usize, entries_per_way: usize, max_ways: u8, initial_ways: u8) -> Self {
        assert!(sets > 0 && entries_per_way > 0 && max_ways > 0);
        assert!(initial_ways <= max_ways);
        PairwiseStore {
            sets,
            entries_per_way,
            max_ways,
            ways: initial_ways,
            buckets: vec![Vec::new(); sets],
            hist: vec![0; max_ways as usize + 1],
        }
    }

    fn set_of(&self, trigger: u64) -> usize {
        ((trigger ^ (trigger >> 16)) as usize) % self.sets
    }

    fn cap(&self) -> usize {
        self.ways as usize * self.entries_per_way
    }

    /// Current way allocation.
    pub fn ways(&self) -> u8 {
        self.ways
    }

    /// Maximum way allocation.
    pub fn max_ways(&self) -> u8 {
        self.max_ways
    }

    /// Total entry capacity at the current size.
    pub fn capacity_entries(&self) -> usize {
        self.sets * self.cap()
    }

    /// Valid entries currently stored.
    pub fn valid_entries(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Valid entries expressed in 64-byte blocks (for shuffle costing).
    pub fn valid_blocks(&self) -> usize {
        self.valid_entries().div_ceil(self.entries_per_way)
    }

    /// Looks up a trigger, refreshing its recency and recording the
    /// way-depth histogram. Returns the stored target.
    pub fn lookup(&mut self, trigger: u64) -> Option<T> {
        if self.ways == 0 {
            return None;
        }
        let s = self.set_of(trigger);
        let bucket = &mut self.buckets[s];
        match bucket.iter().position(|&(t, _)| t == trigger) {
            Some(pos) => {
                let depth = pos / self.entries_per_way;
                self.hist[depth.min(self.max_ways as usize - 1)] += 1;
                let e = bucket.remove(pos);
                bucket.insert(0, e);
                Some(bucket[0].1)
            }
            None => {
                self.hist[self.max_ways as usize] += 1;
                None
            }
        }
    }

    /// Reads a trigger's target without touching recency or histograms
    /// (measurement-only, used on the training path).
    pub fn peek(&self, trigger: u64) -> Option<T> {
        let s = self.set_of(trigger);
        self.buckets[s]
            .iter()
            .find(|&&(t, _)| t == trigger)
            .map(|&(_, v)| v)
    }

    /// Inserts or updates a correlation at MRU position.
    pub fn insert(&mut self, trigger: u64, target: T) -> InsertOutcome {
        if self.ways == 0 {
            return InsertOutcome::New; // discarded immediately below
        }
        let cap = self.cap();
        let s = self.set_of(trigger);
        let bucket = &mut self.buckets[s];
        let outcome = match bucket.iter().position(|&(t, _)| t == trigger) {
            Some(pos) => {
                let (_, old) = bucket.remove(pos);
                if old == target {
                    InsertOutcome::Redundant
                } else {
                    InsertOutcome::UpdatedTarget
                }
            }
            None => InsertOutcome::New,
        };
        bucket.insert(0, (trigger, target));
        bucket.truncate(cap);
        outcome
    }

    /// Resizes the way allocation; shrinking truncates LRU entries.
    /// Returns the number of entries discarded.
    pub fn resize(&mut self, ways: u8) -> usize {
        assert!(ways <= self.max_ways);
        self.ways = ways;
        let cap = self.cap();
        let mut dropped = 0;
        for b in &mut self.buckets {
            if b.len() > cap {
                dropped += b.len() - cap;
                b.truncate(cap);
            }
        }
        dropped
    }

    /// Lookup hits a configuration with `ways` ways would have captured
    /// since the last [`PairwiseStore::reset_hist`].
    pub fn hits_with_ways(&self, ways: u8) -> u64 {
        self.hist[..(ways as usize).min(self.max_ways as usize)]
            .iter()
            .sum()
    }

    /// Clears the way-depth histogram for the next epoch.
    pub fn reset_hist(&mut self) {
        self.hist.iter_mut().for_each(|h| *h = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PairwiseStore<u64> {
        PairwiseStore::new(4, 2, 4, 4) // 4 sets, 2 entries/way, 4 ways
    }

    #[test]
    fn insert_then_lookup() {
        let mut s = store();
        assert_eq!(s.insert(10, 99), InsertOutcome::New);
        assert_eq!(s.lookup(10), Some(99));
        assert_eq!(s.lookup(11), None);
    }

    #[test]
    fn insert_outcomes_classify_redundancy() {
        let mut s = store();
        assert_eq!(s.insert(10, 99), InsertOutcome::New);
        assert_eq!(s.insert(10, 99), InsertOutcome::Redundant);
        assert_eq!(s.insert(10, 100), InsertOutcome::UpdatedTarget);
    }

    #[test]
    fn capacity_evicts_lru_within_set() {
        let mut s: PairwiseStore<u64> = PairwiseStore::new(1, 2, 2, 1); // cap 2
        s.insert(1, 10);
        s.insert(2, 20);
        s.insert(3, 30); // evicts trigger 1
        assert_eq!(s.lookup(1), None);
        assert_eq!(s.lookup(2), Some(20));
        assert_eq!(s.valid_entries(), 2);
    }

    #[test]
    fn depth_histogram_tracks_way_positions() {
        let mut s: PairwiseStore<u64> = PairwiseStore::new(1, 1, 4, 4);
        for t in 0..4u64 {
            s.insert(t, t);
        }
        s.reset_hist();
        s.lookup(3); // deepest entry is trigger 0 now; 3 was MRU-3...
        s.lookup(0);
        assert_eq!(s.hits_with_ways(4), 2);
        assert!(s.hits_with_ways(1) <= 1);
    }

    #[test]
    fn resize_shrink_drops_lru_tail() {
        let mut s: PairwiseStore<u64> = PairwiseStore::new(1, 2, 4, 4);
        for t in 0..8u64 {
            s.insert(t, t);
        }
        assert_eq!(s.valid_entries(), 8);
        let dropped = s.resize(1);
        assert_eq!(dropped, 6);
        assert_eq!(s.valid_entries(), 2);
        // Survivors are the most recent.
        assert_eq!(s.peek(7), Some(7));
        assert_eq!(s.peek(0), None);
    }

    #[test]
    fn zero_ways_store_is_inert() {
        let mut s: PairwiseStore<u64> = PairwiseStore::new(4, 2, 4, 0);
        s.insert(1, 1);
        assert_eq!(s.lookup(1), None);
        assert_eq!(s.valid_entries(), 0);
    }

    #[test]
    fn blocks_round_up() {
        let mut s: PairwiseStore<u64> = PairwiseStore::new(1, 4, 2, 2);
        for t in 0..5u64 {
            s.insert(t, t);
        }
        assert_eq!(s.valid_blocks(), 2);
    }
}
