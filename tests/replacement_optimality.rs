//! Integration tests pinning the offline analyzers against online
//! policies: the optimal bounds the practical.

use streamline_repro::tpreplace::{belady::Correlation, min_sim, tpmin_sim, Lru, SetPolicy, Srrip};

/// Simulates a tiny fully-associative trigger cache under an online
/// [`SetPolicy`], returning trigger hits.
fn online_trigger_hits(stream: &[Correlation], capacity: usize, policy: &mut dyn SetPolicy) -> u64 {
    let mut slots: Vec<Option<u64>> = vec![None; capacity];
    let mut hits = 0;
    for &(trigger, _) in stream {
        if let Some(w) = slots.iter().position(|s| *s == Some(trigger)) {
            hits += 1;
            policy.on_hit(w);
        } else {
            let valid: Vec<bool> = slots.iter().map(Option::is_some).collect();
            let v = policy.victim(&valid);
            slots[v] = Some(trigger);
            policy.on_fill(v);
        }
    }
    hits
}

fn lcg_stream(seed: u64, len: usize, triggers: u64, targets: u64) -> Vec<Correlation> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (x >> 33) % triggers;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (t, (x >> 33) % targets)
        })
        .collect()
}

#[test]
fn belady_min_bounds_online_policies_on_trigger_hits() {
    for seed in [1u64, 7, 42] {
        let stream = lcg_stream(seed, 2000, 40, 8);
        for cap in [4usize, 8, 16] {
            let optimal = min_sim(&stream, cap).trigger_hits;
            let lru = online_trigger_hits(&stream, cap, &mut Lru::new(cap));
            let srrip = online_trigger_hits(&stream, cap, &mut Srrip::new(cap));
            assert!(lru <= optimal, "lru {lru} > MIN {optimal} (cap {cap})");
            assert!(
                srrip <= optimal,
                "srrip {srrip} > MIN {optimal} (cap {cap})"
            );
        }
    }
}

#[test]
fn tpmin_dominates_min_on_correlations_across_regimes() {
    for (triggers, targets) in [(10u64, 2u64), (50, 8), (100, 1)] {
        let stream = lcg_stream(99, 3000, triggers, targets);
        for cap in [4usize, 16, 64] {
            let tp = tpmin_sim(&stream, cap).correlation_hits;
            let mn = min_sim(&stream, cap).correlation_hits;
            assert!(
                tp >= mn,
                "TP-MIN {tp} < MIN {mn} at cap {cap} ({triggers}/{targets})"
            );
        }
    }
}

#[test]
fn stable_targets_close_the_min_tpmin_gap() {
    // With one target per trigger, trigger hits == correlation hits, so
    // the two formulations coincide.
    let stream: Vec<Correlation> = lcg_stream(5, 2000, 30, 1);
    for cap in [4usize, 8] {
        let tp = tpmin_sim(&stream, cap);
        let mn = min_sim(&stream, cap);
        assert_eq!(tp.correlation_hits, mn.correlation_hits);
        assert_eq!(mn.trigger_hits, mn.correlation_hits);
    }
}

#[test]
fn capacity_monotonicity_of_offline_hits() {
    let stream = lcg_stream(123, 2500, 60, 4);
    let mut prev_min = 0;
    let mut prev_tp = 0;
    for cap in [2usize, 4, 8, 16, 32] {
        let mn = min_sim(&stream, cap).trigger_hits;
        let tp = tpmin_sim(&stream, cap).correlation_hits;
        assert!(mn >= prev_min, "MIN not monotone in capacity");
        assert!(tp >= prev_tp, "TP-MIN not monotone in capacity");
        prev_min = mn;
        prev_tp = tp;
    }
}
