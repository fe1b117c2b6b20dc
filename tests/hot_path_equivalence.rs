//! Equivalence suite for the allocation-free hot path (tpcheck).
//!
//! The demand-access path replaced `std::collections::HashMap` sidecars
//! with fixed-capacity open-addressed [`LineMap`]s and then with a
//! record in the prefetched block's own cache way, converted the
//! feedback/sample drains to swap-based scratch buffers, and rewrote
//! the metadata-store victim scan in place. None of that may change a
//! single simulated number. Four angles pin it:
//!
//! 1. **Model equivalence on real address streams** — a [`LineMap`]
//!    (still shipped, for the benchmark's table kernel) driven by the
//!    old inflight-table lifecycle (insert on fill, remove on demand
//!    touch or eviction) over actual workload trace lines agrees with a
//!    `HashMap` reference model at every step. (The adversarial
//!    random-key version of this property lives with the table itself,
//!    `crates/sim/src/table.rs`.)
//! 2. **End-to-end audit** — random (workload, config) pairs with the
//!    full prefetcher stack enabled (so the prefetch records and the
//!    partition reservation path all run) pass every conservation law.
//! 3. **Determinism** — the same random experiment run twice produces
//!    byte-identical reports; no iteration-order or probe-order
//!    dependence reaches any counter.
//! 4. **The way-resident record against the sidecar design as a
//!    model** — a bare `Hierarchy` under random demand/prefetch traffic
//!    agrees, event by event, with the per-line `HashMap` bookkeeping
//!    the hierarchy itself used to keep.

use std::collections::HashMap;
use streamline_repro::prelude::*;
use streamline_repro::tpsim::audit::check_hierarchy;
use streamline_repro::tpsim::{Hierarchy, L2EventKind, LineMap, PrefetchOrigin};
use streamline_repro::tptrace::record::Line;
use streamline_repro::tptrace::Mix;
use tpcheck::{check, ensure, Gen};

/// A random experiment at test scale. Unlike the audit suite's
/// generator, the temporal prefetcher is always on (any `None` config
/// would leave the sidecar tables and the partition path idle).
fn random_prefetching_experiment(g: &mut Gen) -> Experiment {
    let temporal = [
        TemporalKind::Triage,
        TemporalKind::Triangel,
        TemporalKind::TriangelIdeal,
        TemporalKind::Streamline,
    ][g.usize_in(0..4)];
    let mut exp = Experiment::new(Scale::Test)
        .l1(L1Kind::ALL[g.usize_in(0..L1Kind::ALL.len())])
        .l2(L2Kind::ALL[g.usize_in(0..L2Kind::ALL.len())])
        .temporal(temporal);
    exp.warmup = [0.0, 0.2, 0.5][g.usize_in(0..3)];
    exp
}

/// Everything in a report that a hot-path regression could move, as one
/// comparable string (Debug output covers every counter field).
fn report_fingerprint(r: &SimReport) -> String {
    format!("{:?} {:?} {:?}", r.cores, r.llc, r.dram)
}

/// Angle 1: the open-addressed table agrees with `HashMap` when driven
/// by the lifecycle the hierarchy actually subjects it to — keys are
/// real trace lines (clustered, strided, looping), inserts happen on
/// "fill", removals on "demand touch", and population stays bounded.
#[test]
fn linemap_matches_hashmap_on_real_address_streams() {
    let pool = workloads::memory_intensive();
    check("LineMap == HashMap on workload lines", 12, |g| {
        let w = &pool[g.usize_in(0..pool.len())];
        let trace = w.generate(Scale::Test);
        let mut map: LineMap<u64> = LineMap::with_capacity_for(g.usize_in(1..256));
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (i, a) in trace.iter().enumerate().take(60_000) {
            let line = a.addr.line();
            let t = i as u64;
            // Mimic the inflight lifecycle: first touch installs a
            // record, the next touch of the same line resolves it.
            if let std::collections::hash_map::Entry::Vacant(e) = reference.entry(line.0) {
                let got = map.insert(line, t);
                let want = {
                    e.insert(t);
                    None
                };
                ensure!(
                    got == want,
                    "{}: insert({line:?}) {got:?} != {want:?}",
                    w.name
                );
            } else {
                let got = map.remove(line);
                let want = reference.remove(&line.0);
                ensure!(
                    got == want,
                    "{}: remove({line:?}) {got:?} != {want:?}",
                    w.name
                );
            }
            ensure!(map.len() == reference.len(), "population diverged");
        }
        let mut got: Vec<(u64, u64)> = map.iter().map(|(l, &v)| (l.0, v)).collect();
        let mut want: Vec<(u64, u64)> = reference.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        ensure!(got == want, "{}: final contents diverged", w.name);
        Ok(())
    });
}

/// Angle 2: random (workload, config) pairs with prefetchers on pass
/// the full conservation-law audit — the sidecar tables never lose or
/// duplicate a record, or the fills/useful/useless balances would trip.
#[test]
fn prefetching_configs_pass_the_audit() {
    let pool = workloads::memory_intensive();
    check("audit passes with sidecar tables hot", 16, |g| {
        let w = &pool[g.usize_in(0..pool.len())];
        let exp = random_prefetching_experiment(g);
        let r = run_single(w, &exp);
        ensure!(
            r.audit.passed(),
            "audit failed for {} under {}:\n{}",
            w.name,
            exp.fingerprint(),
            r.audit
        );
        ensure!(r.audit.checks > 0, "audit ran no checks");
        Ok(())
    });
}

/// Angle 3: repeat runs are byte-identical — no probe-order, iteration-
/// order, or scratch-buffer state leaks into any reported number, even
/// across multi-core mixes where cores share the LLC and DRAM.
#[test]
fn repeat_runs_are_byte_identical() {
    let pool = workloads::memory_intensive();
    check("hot path is deterministic", 6, |g| {
        let exp = random_prefetching_experiment(g);
        let names: Vec<String> = (0..g.usize_in(1..3))
            .map(|_| pool[g.usize_in(0..pool.len())].name.to_string())
            .collect();
        let mix = Mix {
            index: 0,
            workloads: names
                .iter()
                .map(|n| workloads::by_name(n).expect("pool workload"))
                .collect(),
        };
        let a = report_fingerprint(&run_mix(&mix, &exp));
        let b = report_fingerprint(&run_mix(&mix, &exp));
        ensure!(a == b, "{names:?} under {} diverged", exp.fingerprint());
        Ok(())
    });
}

/// Angle 4: the prefetch record kept in the cache way behaves exactly
/// like the hierarchy's old per-line tables, which this test keeps on
/// the outside as `shadow`: a marked (L2-regular or temporal) prefetch
/// the hierarchy accepts inserts `(origin, fill time)`, and the line's
/// feedback event — first demand touch or unused eviction — removes it.
/// The line universe is a few L1/L2/LLC sets' worth of conflicting
/// lines, so evictions, re-prefetches of evicted lines, dirty L1
/// victims landing on an untouched L2 prefetch and L1-origin prefetches
/// of L2-resident lines all occur; timestamps are far enough apart
/// that ports and MSHRs are idle, which makes an L2 hit's time known.
#[test]
fn way_resident_record_matches_the_sidecar_model() {
    const ORIGINS: [PrefetchOrigin; 3] = [
        PrefetchOrigin::L1,
        PrefetchOrigin::L2Regular,
        PrefetchOrigin::Temporal,
    ];
    let cfg = SystemConfig::single_core();
    let l2_hit_latency = cfg.l1d.latency + cfg.l2.latency;
    let l2_sets = cfg.l2.sets() as u64;
    // What the generator is meant to reach, summed over all cases.
    let (mut useful, mut useless, mut late, mut timely) = (0u64, 0u64, 0u64, 0u64);
    let (mut l1_hit_on_marked, mut l1_prefetch_of_l2_resident) = (0u64, 0u64);
    check("way record == sidecar model", 8, |g| {
        let mut h = Hierarchy::new(cfg.clone());
        let mut shadow: HashMap<Line, (PrefetchOrigin, u64)> = HashMap::new();
        let mut feedback = Vec::new();
        let (mut t, mut quick_run, mut line) = (0u64, 0, Line(0));
        for step in 0..4000 {
            // Three L2 sets x 40 lines: more than each level holds of
            // them. One step in four revisits the previous step's line.
            if g.usize_in(0..4) > 0 {
                line = Line(g.u64_in(0..3) + l2_sets * g.u64_in(0..40));
            }
            let late_before = h.l2_stats(0).late_prefetches;
            // The demanded line's shadow record, and the origin whose
            // accepted prefetch is to be shadowed after the drain.
            let (mut touched, mut installed) = (None, None);
            if g.usize_in(0..3) > 0 {
                let expected = shadow.get(&line).copied();
                let out = h.demand_access(0, line, g.usize_in(0..4) == 0, t);
                match expected {
                    Some(_) if out.l1_hit => l1_hit_on_marked += 1,
                    Some((origin, fill)) => {
                        let hit_at = t + l2_hit_latency;
                        ensure!(out.l2_hit, "step {step}: shadowed {line:?} missed the L2");
                        ensure!(
                            out.complete == hit_at.max(fill),
                            "step {step}: {line:?} completes at {} want max({hit_at}, {fill})",
                            out.complete
                        );
                        let is_late = h.l2_stats(0).late_prefetches - late_before;
                        ensure!(
                            is_late == u64::from(fill > hit_at),
                            "step {step}: late_prefetches moved by {is_late}, fill {fill} hit {hit_at}"
                        );
                        let event = (origin == PrefetchOrigin::Temporal)
                            .then_some(L2EventKind::PrefetchHit);
                        ensure!(
                            out.l2_event == event,
                            "step {step}: event {:?}",
                            out.l2_event
                        );
                        if fill > hit_at {
                            late += 1;
                        } else {
                            timely += 1;
                        }
                        touched = Some(line);
                    }
                    None => ensure!(
                        out.l2_event != Some(L2EventKind::PrefetchHit),
                        "step {step}: prefetch hit on unshadowed {line:?}"
                    ),
                }
            } else {
                let origin = ORIGINS[g.usize_in(0..3)];
                let resident_in_l2 = shadow.contains_key(&line);
                let fill = h.prefetch(0, line, t, origin);
                if origin == PrefetchOrigin::L1 {
                    // The L2 copy is unmarked: nothing to shadow.
                    if resident_in_l2 && fill == Some(t + cfg.l2.latency) {
                        l1_prefetch_of_l2_resident += 1;
                    }
                } else {
                    ensure!(
                        !(resident_in_l2 && fill.is_some()),
                        "step {step}: {line:?} prefetched again while pending in the L2"
                    );
                    installed = fill.map(|fill| (origin, fill));
                }
            }
            // Every feedback event is the end of exactly one shadow
            // record and names that record's origin; L1-origin
            // prefetches (never shadowed) produce none.
            h.drain_feedback_into(&mut feedback);
            for ev in &feedback {
                let Some((origin, _)) = shadow.remove(&ev.line) else {
                    return Err(format!(
                        "step {step}: feedback for unshadowed {:?}",
                        ev.line
                    ));
                };
                ensure!(
                    ev.core == 0 && ev.origin == origin,
                    "step {step}: {ev:?} vs {origin:?}"
                );
                ensure!(
                    ev.useful == (touched == Some(ev.line)),
                    "step {step}: {ev:?} while demanding {touched:?}"
                );
                if ev.useful {
                    touched = None;
                    useful += 1;
                } else {
                    useless += 1;
                }
            }
            ensure!(
                touched.is_none(),
                "step {step}: no feedback for first touch of {touched:?}"
            );
            if let Some(record) = installed {
                ensure!(
                    shadow.insert(line, record).is_none(),
                    "step {step}: double install"
                );
            }
            // Exact, where the audit can only bound: every marked fill
            // is useful, useless, or still shadowed.
            let counters = h.origin_counters(0);
            for (o, origin) in ORIGINS.iter().enumerate().skip(1) {
                let pending = shadow.values().filter(|(so, _)| so == origin).count() as u64;
                ensure!(
                    counters.fills[o] == counters.useful[o] + counters.useless[o] + pending,
                    "step {step}: {origin:?} fills {} != useful {} + useless {} + pending {pending}",
                    counters.fills[o],
                    counters.useful[o],
                    counters.useless[o]
                );
            }
            ensure!(
                counters.useful[0] + counters.useless[0] == 0,
                "L1 origin resolved at the L2"
            );
            let audit = check_hierarchy(&h.audit_snapshot());
            ensure!(audit.passed(), "step {step}:\n{audit}");
            // Mostly idle gaps; short runs of quick steps let a demand
            // arrive before its line's fill without queueing on MSHRs.
            quick_run = if quick_run < 6 && g.bool() {
                quick_run + 1
            } else {
                0
            };
            t += if quick_run > 0 {
                g.u64_in(3..60)
            } else {
                5_000
            };
        }
        Ok(())
    });
    for (what, n) in [
        ("useful", useful),
        ("useless", useless),
        ("late", late),
        ("timely", timely),
        ("L1 hit on a marked L2 line", l1_hit_on_marked),
        (
            "L1 prefetch of an L2-resident line",
            l1_prefetch_of_l2_resident,
        ),
    ] {
        assert!(n > 0, "generator never produced: {what}");
    }
}
