//! End-to-end integration tests: whole-pipeline behaviour across crates.
//!
//! These run at `Scale::Test` to stay fast; the paper-shape assertions
//! are deliberately loose (direction and ordering, not magnitudes).

use streamline_repro::prelude::*;

fn ipc(r: &SimReport) -> f64 {
    r.cores[0].ipc()
}

#[test]
fn temporal_prefetchers_speed_up_pointer_chasing() {
    // A dependent chase whose footprint (4 MB) exceeds the 2 MB LLC:
    // the regime where giving up LLC ways for metadata pays. (At
    // `Scale::Test` the bundled mcf stand-in fits the LLC, where the
    // correct behaviour is to shrink the partition, not to win.)
    use streamline_repro::tptrace::TraceBuilder;
    let nodes = 64_000u64;
    let mut builder = TraceBuilder::new("chase", Suite::Spec06);
    for _ in 0..4 {
        for i in 0..nodes {
            builder.dep_load(0x900, (i.wrapping_mul(2654435761) % nodes) * 64 + (1 << 43));
        }
    }
    let trace = builder.finish();
    let run = |temporal: Option<TemporalKind>| {
        let mut plan = CorePlan::bare(trace.clone());
        if let Some(k) = temporal {
            plan = plan.with_temporal(k.build().expect("real prefetcher"));
        }
        Engine::new(SystemConfig::single_core(), vec![plan]).run()
    };
    let b = run(None);
    for kind in [TemporalKind::Triangel, TemporalKind::Streamline] {
        let r = run(Some(kind));
        assert!(
            ipc(&r) > ipc(&b) * 1.10,
            "{kind:?} should speed up an LLC-exceeding chase: {} vs {}",
            ipc(&r),
            ipc(&b)
        );
    }
}

#[test]
fn streamline_beats_triangel_on_coverage_for_irregular_pool() {
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let pool = ["spec06.mcf", "spec06.xalancbmk", "gap.pr"];
    let mut stl_cov = 0.0;
    let mut tri_cov = 0.0;
    for name in pool {
        let w = workloads::by_name(name).unwrap();
        let t = run_single(&w, &base.clone().temporal(TemporalKind::Triangel));
        let s = run_single(&w, &base.clone().temporal(TemporalKind::Streamline));
        tri_cov += t.cores[0].temporal_coverage();
        stl_cov += s.cores[0].temporal_coverage();
    }
    assert!(
        stl_cov > tri_cov,
        "streamline coverage {stl_cov:.3} should beat triangel {tri_cov:.3}"
    );
}

#[test]
fn streamline_capacity_exceeds_triangel_by_a_third() {
    use streamline_repro::streamline_core::Streamline;
    use streamline_repro::triangel::Triangel;
    let s = Streamline::new().capacity_correlations();
    let t = Triangel::new().capacity_correlations();
    assert_eq!(s, t / 3 * 4, "stream format holds 33% more: {s} vs {t}");
}

#[test]
fn stride_prefetcher_covers_streaming_workloads() {
    let w = workloads::by_name("spec06.libquantum").unwrap();
    let bare = Experiment::new(Scale::Test);
    let stride = bare.clone().l1(L1Kind::Stride);
    let b = run_single(&w, &bare);
    let s = run_single(&w, &stride);
    assert!(
        ipc(&s) > ipc(&b) * 1.2,
        "stride should crush streams: {} vs {}",
        ipc(&s),
        ipc(&b)
    );
}

#[test]
fn temporal_prefetchers_leave_streaming_workloads_mostly_alone() {
    let w = workloads::by_name("spec06.libquantum").unwrap();
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let b = run_single(&w, &base);
    for kind in [TemporalKind::Triangel, TemporalKind::Streamline] {
        let r = run_single(&w, &base.clone().temporal(kind));
        let ratio = ipc(&r) / ipc(&b);
        assert!(
            (0.85..1.15).contains(&ratio),
            "{kind:?} should be near-neutral on streams: {ratio}"
        );
    }
}

#[test]
fn metadata_traffic_ordering_matches_paper() {
    // Streamline's stream format must generate less metadata traffic
    // than Triangel per covered miss on a stable irregular workload.
    let w = workloads::by_name("spec06.xalancbmk").unwrap();
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let t = run_single(&w, &base.clone().temporal(TemporalKind::Triangel));
    let s = run_single(&w, &base.clone().temporal(TemporalKind::Streamline));
    let per_cov = |r: &SimReport| {
        let c = &r.cores[0];
        c.temporal.traffic_blocks() as f64 / c.l2_useful_by_origin[2].max(1) as f64
    };
    assert!(
        per_cov(&s) < per_cov(&t),
        "streamline traffic/covered {} should undercut triangel {}",
        per_cov(&s),
        per_cov(&t)
    );
}

#[test]
fn multicore_mix_runs_and_reports_all_cores() {
    // Two cores keep the debug-build runtime of this test reasonable;
    // the 4- and 8-core paths are exercised by the fig10/fig11 binaries.
    let mix = &MixGenerator::new(42).mixes(2, 1)[0];
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let b = run_mix(mix, &base);
    let s = run_mix(mix, &base.clone().temporal(TemporalKind::Streamline));
    assert_eq!(b.cores.len(), 2);
    assert_eq!(s.cores.len(), 2);
    assert!(b.cores.iter().all(|c| c.instructions > 0));
    let sp = mix_speedup(&b, &s);
    assert!(sp > 0.4 && sp < 4.0, "sane mix speedup: {sp}");
}

#[test]
fn experiments_are_deterministic() {
    let w = workloads::by_name("gap.bfs").unwrap();
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let a = run_single(&w, &exp);
    let b = run_single(&w, &exp);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.cores[0].l2.misses, b.cores[0].l2.misses);
    assert_eq!(
        a.cores[0].temporal.trigger_hits,
        b.cores[0].temporal.trigger_hits
    );
}

#[test]
fn bandwidth_scaling_changes_outcomes_sanely() {
    let w = workloads::by_name("gap.pr").unwrap();
    let narrow = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .bandwidth(0.25);
    let wide = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .bandwidth(2.0);
    let n = run_single(&w, &narrow);
    let x = run_single(&w, &wide);
    assert!(ipc(&x) >= ipc(&n), "{} vs {}", ipc(&x), ipc(&n));
}

#[test]
fn l2_prefetchers_compose_with_streamline() {
    let w = workloads::by_name("spec06.soplex").unwrap();
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    for l2 in [L2Kind::Ipcp, L2Kind::Bingo, L2Kind::SppPpf] {
        let r = run_single(&w, &base.clone().l2(l2).temporal(TemporalKind::Streamline));
        assert!(r.cores[0].ipc() > 0.0, "{l2:?} composition runs");
        assert!(r.cores[0].l2_prefetches + r.cores[0].temporal.prefetches_issued > 0);
    }
}
