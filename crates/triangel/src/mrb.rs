//! The Metadata Reuse Buffer: a small fully-associative cache of
//! recently touched metadata correlations that filters redundant LLC
//! metadata traffic (Triangel's step 2/3).

use tpsim::tagrow;
use tptrace::record::Line;

/// A fully-associative, LRU, (trigger → target) reuse buffer: two
/// arrays sized once, kept most recent first.
#[derive(Clone, Debug)]
pub struct Mrb {
    /// The tag row ([`tagrow`]): 0 past the last entry, else the
    /// fingerprint of the entry's trigger.
    row: Vec<u8>,
    entries: Vec<(u64, Line)>,
}

impl Mrb {
    /// Creates an MRB with `capacity` entries (Triangel: 32).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mrb capacity must be nonzero");
        Mrb {
            row: vec![0; capacity],
            entries: vec![(0, Line(0)); capacity],
        }
    }

    /// Where `trigger`'s entry is, counted from the most recent.
    #[inline]
    fn position(&self, trigger: u64) -> Option<usize> {
        tagrow::find(&self.row, tagrow::fingerprint(trigger), |i| {
            self.entries[i].0 == trigger
        })
    }

    /// Brings entry `pos` to the front; the entries before it age by
    /// one place, the entries behind it stay. Most hits are on the most
    /// recent entry and move nothing.
    #[inline]
    fn promote(&mut self, pos: usize) {
        if pos > 0 {
            let (fp, entry) = (self.row[pos], self.entries[pos]);
            self.row.copy_within(..pos, 1);
            self.entries.copy_within(..pos, 1);
            (self.row[0], self.entries[0]) = (fp, entry);
        }
    }

    /// Looks up a trigger, refreshing recency on hit.
    pub fn lookup(&mut self, trigger: u64) -> Option<Line> {
        let pos = self.position(trigger)?;
        self.promote(pos);
        Some(self.entries[0].1)
    }

    /// True if the exact (trigger, target) pair is present — a store for
    /// it would be redundant.
    pub fn contains_pair(&self, trigger: u64, target: Line) -> bool {
        self.position(trigger)
            .is_some_and(|i| self.entries[i].1 == target)
    }

    /// Records a correlation at MRU.
    pub fn update(&mut self, trigger: u64, target: Line) {
        // A new trigger takes over the last place: the least recent
        // entry of a full buffer, an empty one otherwise.
        let pos = self.position(trigger).unwrap_or(self.row.len() - 1);
        self.promote(pos);
        (self.row[0], self.entries[0]) = (tagrow::fingerprint(trigger), (trigger, target));
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        tagrow::first_empty(&self.row).unwrap_or(self.row.len())
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.row[0] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_after_update() {
        let mut m = Mrb::new(4);
        m.update(1, Line(10));
        assert_eq!(m.lookup(1), Some(Line(10)));
        assert_eq!(m.lookup(2), None);
    }

    #[test]
    fn pair_check_distinguishes_targets() {
        let mut m = Mrb::new(4);
        m.update(1, Line(10));
        assert!(m.contains_pair(1, Line(10)));
        assert!(!m.contains_pair(1, Line(11)));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut m = Mrb::new(2);
        m.update(1, Line(10));
        m.update(2, Line(20));
        m.lookup(1); // refresh 1
        m.update(3, Line(30)); // evicts 2
        assert_eq!(m.lookup(2), None);
        assert_eq!(m.lookup(1), Some(Line(10)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn update_replaces_target_in_place() {
        let mut m = Mrb::new(2);
        m.update(1, Line(10));
        m.update(1, Line(11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(1), Some(Line(11)));
    }

    /// Two triggers with one fingerprint: the row narrows the search,
    /// the full trigger decides, and each keeps its own target and age.
    #[test]
    fn equal_fingerprints_stay_distinct_triggers() {
        let fp = tagrow::fingerprint(1);
        let twin = (2..)
            .find(|&t| tagrow::fingerprint(t) == fp)
            .expect("one in 128");
        let mut m = Mrb::new(2);
        m.update(1, Line(10));
        assert_eq!(
            m.lookup(twin),
            None,
            "1's fingerprint is not twin's trigger"
        );
        m.update(twin, Line(20));
        assert!(m.contains_pair(1, Line(10)) && m.contains_pair(twin, Line(20)));
        assert!(!m.contains_pair(1, Line(20)));
        assert_eq!(m.lookup(1), Some(Line(10)));
        m.update(3, Line(30)); // evicts twin, the less recent of the two
        assert_eq!(m.lookup(twin), None);
        assert_eq!(m.lookup(1), Some(Line(10)));
    }

    /// The `Vec` of pairs [`Mrb`] was before its tag row, kept as the
    /// reference model: `position` to search, `remove` + `insert(0, …)`
    /// to refresh.
    struct ReferenceMrb {
        entries: Vec<(u64, Line)>,
        capacity: usize,
    }

    impl ReferenceMrb {
        fn lookup(&mut self, trigger: u64) -> Option<Line> {
            let pos = self.entries.iter().position(|&(t, _)| t == trigger)?;
            let e = self.entries.remove(pos);
            self.entries.insert(0, e);
            Some(e.1)
        }

        fn contains_pair(&self, trigger: u64, target: Line) -> bool {
            self.entries
                .iter()
                .any(|&(t, v)| t == trigger && v == target)
        }

        fn update(&mut self, trigger: u64, target: Line) {
            if let Some(pos) = self.entries.iter().position(|&(t, _)| t == trigger) {
                self.entries.remove(pos);
            }
            self.entries.insert(0, (trigger, target));
            self.entries.truncate(self.capacity);
        }
    }

    #[test]
    fn matches_the_vec_of_pairs_reference() {
        for capacity in [1, 7, 32] {
            tpcheck::check("Mrb == Vec-of-pairs reference", 64, |g| {
                let mut mrb = Mrb::new(capacity);
                let mut reference = ReferenceMrb {
                    entries: Vec::new(),
                    capacity,
                };
                // Up to twice as many triggers as entries (at 32 entries,
                // 65 triggers over 128 fingerprints: some share one);
                // few targets, so exact pairs recur.
                let triggers = g.u64_in(1..2 * capacity as u64 + 2);
                for step in 0..600 {
                    let trigger = g.u64_in(0..triggers) << 7;
                    let target = Line(g.u64_in(0..3));
                    match g.usize_in(0..3) {
                        0 => {
                            let (got, want) = (mrb.lookup(trigger), reference.lookup(trigger));
                            tpcheck::ensure!(
                                got == want,
                                "step {step}: lookup {trigger}: {got:?} vs {want:?}"
                            );
                        }
                        1 => {
                            let got = mrb.contains_pair(trigger, target);
                            let want = reference.contains_pair(trigger, target);
                            tpcheck::ensure!(
                                got == want,
                                "step {step}: pair {trigger}→{target:?}: {got} vs {want}"
                            );
                        }
                        _ => {
                            mrb.update(trigger, target);
                            reference.update(trigger, target);
                        }
                    }
                    tpcheck::ensure!(
                        mrb.len() == reference.entries.len()
                            && mrb.is_empty() == reference.entries.is_empty(),
                        "step {step}: {} entries vs {}",
                        mrb.len(),
                        reference.entries.len()
                    );
                }
                // What is resident at the end.
                for t in 0..triggers {
                    let (got, want) = (mrb.lookup(t << 7), reference.lookup(t << 7));
                    tpcheck::ensure!(got == want, "final lookup {t}: {got:?} vs {want:?}");
                }
                Ok(())
            });
        }
    }
}
