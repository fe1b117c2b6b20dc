//! Property-based tests on cross-crate invariants (tpcheck).

use streamline_repro::prelude::*;
use streamline_repro::streamline_core::{align, StoreInsert, StreamEntry, StreamStore};
use streamline_repro::tpreplace::{min_sim, tpmin_sim};
use streamline_repro::tptrace::record::Line;
use tpcheck::{check, ensure, Gen};
use tpserve::HashRing;

/// A random (trigger, target) metadata stream.
fn stream(
    g: &mut Gen,
    triggers: u64,
    targets: u64,
    len: std::ops::Range<usize>,
) -> Vec<(u64, u64)> {
    g.vec(len, |g| (g.u64_in(0..triggers), g.u64_in(0..targets)))
}

/// TP-MIN is offline-optimal for correlation hits: it never loses to
/// trigger-keyed MIN on that metric, for any stream and capacity.
#[test]
fn tpmin_never_loses_to_min_on_correlations() {
    check("tpmin >= min on correlation hits", 64, |g| {
        let s = stream(g, 24, 6, 1..300);
        let cap = g.usize_in(1..12);
        let tp = tpmin_sim(&s, cap);
        let mn = min_sim(&s, cap);
        ensure!(
            tp.correlation_hits >= mn.correlation_hits,
            "tpmin {} < min {} (cap {cap}, {} accesses)",
            tp.correlation_hits,
            mn.correlation_hits,
            s.len()
        );
        Ok(())
    });
}

/// MIN's trigger hits are an upper bound on TP-MIN's trigger hits
/// (MIN optimises triggers).
#[test]
fn min_maximises_trigger_hits() {
    check("min >= tpmin on trigger hits", 64, |g| {
        let s = stream(g, 16, 4, 1..200);
        let cap = g.usize_in(1..8);
        let tp = tpmin_sim(&s, cap);
        let mn = min_sim(&s, cap);
        ensure!(
            mn.trigger_hits >= tp.trigger_hits,
            "min {} < tpmin {}",
            mn.trigger_hits,
            tp.trigger_hits
        );
        Ok(())
    });
}

/// Stream alignment never loses a correlation of the new entry: the
/// aligned entry plus leftovers reproduce every new pair.
#[test]
fn alignment_preserves_new_correlations() {
    check("alignment preserves new correlations", 64, |g| {
        let old_targets = g.vec(4..5, |g| g.u64_in(1..50));
        let new_targets = g.vec(4..5, |g| g.u64_in(1..50));
        let pos = g.usize_in(0..4);
        let old = StreamEntry::new(
            Line(100),
            old_targets
                .iter()
                .map(|&t| Line(100 + t))
                .collect::<Vec<_>>(),
        );
        let addrs: Vec<Line> = old.addresses().collect();
        let new = StreamEntry::new(
            addrs[pos],
            new_targets
                .iter()
                .map(|&t| Line(200 + t))
                .collect::<Vec<_>>(),
        );
        if let Some(a) = align(&old, &new, 4) {
            let mut chain: Vec<Line> = a.aligned.addresses().collect();
            chain.extend(a.leftover.iter().copied());
            let merged: Vec<(Line, Line)> = chain.windows(2).map(|w| (w[0], w[1])).collect();
            for p in new.pairs() {
                ensure!(merged.contains(&p), "lost {p:?}");
            }
            ensure!(a.aligned.correlations() <= 4);
            ensure!(a.aligned.trigger == Line(100));
        }
        Ok(())
    });
}

/// The metadata store is a cache: lookups return exactly what was last
/// inserted for a trigger, or nothing — never someone else's entry.
#[test]
fn store_never_returns_wrong_entry() {
    check("store never returns a wrong entry", 64, |g| {
        let triggers = g.vec(1..200, |g| g.u64_in(0..500));
        let mut store = StreamStore::new(StreamlineConfig::default());
        let mut last: std::collections::HashMap<u64, Vec<Line>> = std::collections::HashMap::new();
        for (i, &t) in triggers.iter().enumerate() {
            let targets: Vec<Line> = (1..=4).map(|k| Line(t * 1000 + i as u64 + k)).collect();
            let e = StreamEntry::new(Line(t * 7919), targets.clone());
            if matches!(store.insert(e, (t % 251) as u8), StoreInsert::Stored { .. }) {
                last.insert(t, targets);
            }
        }
        for (&t, expected) in &last {
            if let Some(found) = store.lookup(Line(t * 7919), (t % 251) as u8) {
                ensure!(found == expected, "trigger {t}: {found:?}");
            }
        }
        Ok(())
    });
}

/// Filtered indexing is a pure function: whether a trigger filters
/// depends only on the trigger and the partition size, never on store
/// contents.
#[test]
fn filtering_is_content_independent() {
    check("filtering is content-independent", 64, |g| {
        let trigger = g.u64_in(0..1_000_000);
        let noise = g.vec(0..50, |g| g.u64_in(0..1_000_000));
        let cfg = StreamlineConfig {
            fixed_size: Some(PartitionSize::Half),
            ..Default::default()
        };
        let empty = StreamStore::new(cfg);
        let before = empty.would_filter(Line(trigger));
        let mut full = StreamStore::new(cfg);
        for n in noise {
            let e = StreamEntry::new(Line(n), vec![Line(n + 1)]);
            let _ = full.insert(e, 0);
        }
        ensure!(
            before == full.would_filter(Line(trigger)),
            "filtering decision for {trigger} changed with store contents"
        );
        Ok(())
    });
}

/// Trace generation is deterministic per (workload, scale).
#[test]
fn traces_are_deterministic() {
    check("traces are deterministic", 22, |g| {
        let pool = workloads::memory_intensive();
        let w = &pool[g.usize_in(0..pool.len())];
        let a = w.generate(Scale::Test);
        let b = w.generate(Scale::Test);
        ensure!(a.len() == b.len(), "{}: {} vs {}", w.name, a.len(), b.len());
        ensure!(
            a.accesses()[..50.min(a.len())] == b.accesses()[..50.min(b.len())],
            "{}: first accesses differ",
            w.name
        );
        Ok(())
    });
}

/// Random backend address lists for the coordinator's hash ring.
fn backend_addrs(g: &mut Gen, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            format!(
                "10.{}.{}.{}:{}",
                g.u64_in(0..256),
                g.u64_in(0..256),
                g.u64_in(0..256),
                g.u64_in(1024..65536)
            )
        })
        .collect()
}

/// Consistent hashing bounds churn: removing one backend only remaps
/// the jobs that were assigned to it — every other job keeps its
/// backend. Read in reverse, adding one backend only steals jobs for
/// the new node.
#[test]
fn ring_churn_is_bounded_to_the_changed_backend() {
    check("ring churn bounded on add/remove", 48, |g| {
        let n = g.usize_in(2..6);
        let addrs = backend_addrs(g, n);
        let removed = g.usize_in(0..n);
        let rest: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != removed)
            .map(|(_, a)| a.clone())
            .collect();
        let full = HashRing::new(&addrs);
        let smaller = HashRing::new(&rest);
        for j in 0..256u64 {
            let point = HashRing::job_point(&format!("canonical-req-{j}-{}", g.u64_in(0..1 << 30)));
            let before = full.assign(point).expect("non-empty ring assigns");
            let after = smaller.assign(point).expect("non-empty ring assigns");
            if before != removed {
                ensure!(
                    addrs[before] == rest[after],
                    "job {j} moved from {} to {} though {} was the backend removed",
                    addrs[before],
                    rest[after],
                    addrs[removed]
                );
            }
        }
        Ok(())
    });
}

/// The ring is a pure function of the backend address list: a
/// restarted coordinator over the same `--backend=` flags reproduces
/// the identical assignment and failover order for every job.
#[test]
fn ring_assignment_is_stable_across_restarts() {
    check("ring assignment stable across restarts", 48, |g| {
        let n = g.usize_in(1..6);
        let addrs = backend_addrs(g, n);
        let a = HashRing::new(&addrs);
        let b = HashRing::new(&addrs);
        for j in 0..128u64 {
            let point = HashRing::job_point(&format!("canonical-req-{j}-{}", g.u64_in(0..1 << 30)));
            ensure!(
                a.assign(point) == b.assign(point),
                "restart changed the primary for point {point}"
            );
            ensure!(
                a.candidates(point) == b.candidates(point),
                "restart changed the failover order for point {point}"
            );
        }
        Ok(())
    });
}

/// Mix generation draws only from the given pool and is seed-stable.
#[test]
fn mixes_are_seeded_and_pool_bound() {
    let pool = workloads::memory_intensive();
    let names: std::collections::HashSet<&str> = pool.iter().map(|w| w.name).collect();
    for seed in 0..5u64 {
        let a = MixGenerator::new(seed).mixes(4, 6);
        let b = MixGenerator::new(seed).mixes(4, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label(), y.label());
            for w in &x.workloads {
                assert!(names.contains(w.name));
            }
        }
    }
}
