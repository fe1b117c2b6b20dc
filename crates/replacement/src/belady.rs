//! Offline Belady's MIN over *trigger addresses* — how prior work
//! (Triage) applied optimal replacement to temporal metadata.
//!
//! The paper argues (Section IV-D1, Figure 6) that this formulation is
//! suboptimal for prefetcher metadata: maximising trigger hits can retain
//! triggers whose *targets* are unstable, producing useless prefetches.
//! [`min_sim`] therefore reports both the trigger hit rate (what MIN
//! optimises) and the correlation hit rate (what actually produces useful
//! prefetches), so the TP-MIN comparison in `tpbench fig13` can show the
//! gap.

use std::collections::{BTreeSet, HashMap};

/// One temporal-metadata access: the correlation `(trigger, target)`
/// recorded when `trigger`'s next access turned out to be `target`.
pub type Correlation = (u64, u64);

/// Result of an offline replacement simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinReport {
    /// Number of correlation accesses simulated.
    pub accesses: u64,
    /// Accesses whose *trigger* was present in the metadata store.
    pub trigger_hits: u64,
    /// Accesses whose exact *(trigger, target)* pair was present — the
    /// hits that would have produced a correct prefetch.
    pub correlation_hits: u64,
}

/// Simulates Belady's MIN with `capacity` metadata entries keyed by
/// **trigger address**, replaying the correlation stream.
///
/// Each cached entry stores the most recent target seen for its trigger.
/// Evictions pick the cached trigger whose next access is farthest in the
/// future (the classic MIN rule).
pub fn min_sim(stream: &[Correlation], capacity: usize) -> MinReport {
    assert!(capacity > 0, "capacity must be nonzero");
    let n = stream.len();
    // next_use[i]: next index accessing the same trigger, or n.
    let mut next_use = vec![n; n];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, &(t, _)) in stream.iter().enumerate().rev() {
        next_use[i] = *last_pos.get(&t).unwrap_or(&n);
        last_pos.insert(t, i);
    }

    // cached: trigger -> (stored target, scheduled next use)
    let mut cached: HashMap<u64, (u64, usize)> = HashMap::new();
    // Eviction order: (next_use, trigger), farthest last.
    let mut order: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut report = MinReport::default();

    for (i, &(trigger, target)) in stream.iter().enumerate() {
        report.accesses += 1;
        if let Some(&(stored_target, nu)) = cached.get(&trigger) {
            report.trigger_hits += 1;
            if stored_target == target {
                report.correlation_hits += 1;
            }
            order.remove(&(nu, trigger));
            cached.insert(trigger, (target, next_use[i]));
            order.insert((next_use[i], trigger));
        } else {
            if cached.len() == capacity {
                let &(nu, victim) = order.iter().next_back().expect("nonempty");
                // MIN refinement: bypass when the incoming entry's next
                // use is even farther than the farthest cached entry.
                if next_use[i] >= nu {
                    continue;
                }
                order.remove(&(nu, victim));
                cached.remove(&victim);
            }
            cached.insert(trigger, (target, next_use[i]));
            order.insert((next_use[i], trigger));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_within_capacity_are_total() {
        // Two triggers, capacity two: all repeats hit.
        let s = vec![(1, 10), (2, 20), (1, 10), (2, 20), (1, 10)];
        let r = min_sim(&s, 2);
        assert_eq!(r.trigger_hits, 3);
        assert_eq!(r.correlation_hits, 3);
    }

    #[test]
    fn unstable_targets_hit_trigger_but_miss_correlation() {
        // Paper Figure 6a: trigger B alternates targets.
        let s = vec![(5, 1), (5, 2), (5, 1), (5, 2)];
        let r = min_sim(&s, 1);
        assert_eq!(r.trigger_hits, 3);
        assert_eq!(r.correlation_hits, 0, "stored target always stale");
    }

    #[test]
    fn min_beats_lru_on_looping_pattern() {
        // Cyclic access to k+1 triggers with capacity k: LRU gets zero
        // hits; MIN keeps k-1 of them resident.
        let k = 4;
        let mut s = Vec::new();
        for _ in 0..50 {
            for t in 0..=k as u64 {
                s.push((t, t + 100));
            }
        }
        let r = min_sim(&s, k);
        // LRU would score 0; MIN must do substantially better.
        assert!(
            r.trigger_hits as usize > 50 * (k - 1),
            "MIN hits {} too low",
            r.trigger_hits
        );
    }

    #[test]
    fn capacity_one_keeps_best_single_trigger() {
        // Figure 6: stream where A repeats 3 times and B once.
        let s = vec![(1, 2), (9, 9), (1, 2), (9, 8), (1, 2)];
        let r = min_sim(&s, 1);
        assert!(r.trigger_hits >= 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = min_sim(&[(1, 2)], 0);
    }

    #[test]
    fn empty_stream_reports_zero() {
        let r = min_sim(&[], 4);
        assert_eq!(r, MinReport::default());
    }
}
