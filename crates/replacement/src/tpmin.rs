//! Offline TP-MIN: the paper's reformulation of Belady's MIN for
//! temporal-prefetching metadata (Section IV-D1).
//!
//! Where trigger-keyed MIN evicts the entry whose *trigger* is used
//! farthest in the future, TP-MIN evicts the entry whose whole
//! *(trigger, target)* **correlation** is used farthest in the future,
//! maximising the correlation hit rate — the hits that actually produce
//! useful prefetches (paper Figure 6b).

use crate::belady::{Correlation, MinReport};
use std::collections::{BTreeSet, HashMap};

/// Simulates TP-MIN with `capacity` correlation entries.
///
/// Entries are keyed by the full `(trigger, target)` pair; several pairs
/// sharing a trigger may be resident simultaneously. The report's
/// `trigger_hits` counts accesses for which *any* resident pair shares
/// the trigger (for comparison with trigger-keyed MIN).
pub fn tpmin_sim(stream: &[Correlation], capacity: usize) -> MinReport {
    assert!(capacity > 0, "capacity must be nonzero");
    let n = stream.len();
    let mut next_use = vec![n; n];
    let mut last_pos: HashMap<Correlation, usize> = HashMap::new();
    for (i, &c) in stream.iter().enumerate().rev() {
        next_use[i] = *last_pos.get(&c).unwrap_or(&n);
        last_pos.insert(c, i);
    }

    let mut cached: HashMap<Correlation, usize> = HashMap::new(); // pair -> next use
    let mut order: BTreeSet<(usize, Correlation)> = BTreeSet::new();
    let mut trigger_count: HashMap<u64, u32> = HashMap::new();
    let mut report = MinReport::default();

    for (i, &pair) in stream.iter().enumerate() {
        report.accesses += 1;
        let (trigger, _) = pair;
        if trigger_count.get(&trigger).copied().unwrap_or(0) > 0 {
            report.trigger_hits += 1;
        }
        if let Some(&nu) = cached.get(&pair) {
            report.correlation_hits += 1;
            order.remove(&(nu, pair));
            cached.insert(pair, next_use[i]);
            order.insert((next_use[i], pair));
        } else {
            if cached.len() == capacity {
                let &(nu, victim) = order.iter().next_back().expect("nonempty");
                if next_use[i] >= nu {
                    continue; // bypass dead-on-arrival correlations
                }
                order.remove(&(nu, victim));
                cached.remove(&victim);
                let c = trigger_count.get_mut(&victim.0).expect("tracked");
                *c -= 1;
            }
            cached.insert(pair, next_use[i]);
            order.insert((next_use[i], pair));
            *trigger_count.entry(trigger).or_insert(0) += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belady::min_sim;

    /// The paper's Figure 6 scenario: trigger B's target is unstable
    /// while the correlation (A, B) repeats. MIN (trigger-keyed) wastes
    /// its single entry on B; TP-MIN keeps (A, B) and covers 3 accesses.
    #[test]
    fn figure6_tpmin_beats_min_on_correlation_hits() {
        // Trigger B (=20) fires more often than A (=10), so trigger-keyed
        // MIN dedicates its single entry to B — whose target is unstable
        // (x1, x2, ...), covering nothing. TP-MIN instead keeps the
        // stable correlation (A, B) and converts its repeats into hits.
        let s = vec![
            (10, 20),
            (20, 31),
            (20, 32),
            (10, 20),
            (20, 33),
            (20, 34),
            (10, 20),
        ];
        let min = min_sim(&s, 1);
        let tp = tpmin_sim(&s, 1);
        assert!(min.trigger_hits > tp.trigger_hits, "MIN optimises triggers");
        assert_eq!(min.correlation_hits, 0, "...but covers nothing");
        assert_eq!(tp.correlation_hits, 2, "TP-MIN covers the repeats");
    }

    #[test]
    fn tpmin_correlation_hits_are_maximal_vs_min() {
        // TP-MIN optimises correlation hits, so across a batch of random
        // streams it must never lose to trigger-keyed MIN on that metric.
        let mut seed = 0x1234_5678_u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..20 {
            let stream: Vec<Correlation> = (0..400).map(|_| (next() % 30, next() % 6)).collect();
            for cap in [2usize, 4, 8] {
                let a = tpmin_sim(&stream, cap).correlation_hits;
                let b = min_sim(&stream, cap).correlation_hits;
                assert!(a >= b, "tpmin {a} < min {b} at cap {cap}");
            }
        }
    }

    #[test]
    fn multiple_pairs_per_trigger_can_coexist() {
        let s = vec![(1, 2), (1, 3), (1, 2), (1, 3), (1, 2), (1, 3)];
        let r = tpmin_sim(&s, 2);
        assert_eq!(r.correlation_hits, 4);
    }

    #[test]
    fn trigger_hits_track_any_resident_pair() {
        let s = vec![(1, 2), (1, 3)];
        let r = tpmin_sim(&s, 4);
        assert_eq!(r.trigger_hits, 1); // second access sees (1,2) resident
        assert_eq!(r.correlation_hits, 0);
    }

    #[test]
    fn capacity_bound_is_respected() {
        // With capacity 1 and an alternating pattern, at most the repeats
        // of one pair can hit.
        let s = vec![(1, 2), (3, 4), (1, 2), (3, 4), (1, 2), (3, 4)];
        let r = tpmin_sim(&s, 1);
        assert_eq!(r.correlation_hits, 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = tpmin_sim(&[(1, 2)], 0);
    }
}
