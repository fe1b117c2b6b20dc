//! Integration tests of simulator behaviour that span crates: timing
//! sanity, prefetch accounting, and partition capacity effects.

use streamline_repro::prelude::*;
use streamline_repro::tpsim::{MetaCtx, PartitionSpec, TemporalEvent};
use streamline_repro::tptrace::record::Line;
use streamline_repro::tptrace::TraceBuilder;

/// A trace of `n` dependent loads over a repeated shuffled ring.
fn ring_trace(lines: u64, passes: usize) -> Trace {
    let mut b = TraceBuilder::new("ring", Suite::Spec06);
    for _ in 0..passes {
        for i in 0..lines {
            // Multiplicative ordering scatters the addresses.
            b.dep_load(
                0x1000,
                (i.wrapping_mul(2654435761) % lines) * 64 + (1 << 40),
            );
        }
    }
    b.finish()
}

#[test]
fn dependent_chains_are_slower_than_independent_scans() {
    let mut dep = TraceBuilder::new("dep", Suite::Spec06);
    let mut ind = TraceBuilder::new("ind", Suite::Spec06);
    for i in 0..30_000u64 {
        let a = (i.wrapping_mul(2654435761) % 30_000) * 64 + (1 << 40);
        dep.dep_load(1, a);
        ind.load(1, a);
    }
    let run = |t: Trace| {
        Engine::new(SystemConfig::single_core(), vec![CorePlan::bare(t)])
            .run()
            .cores[0]
            .ipc()
    };
    let dep_ipc = run(dep.finish());
    let ind_ipc = run(ind.finish());
    assert!(
        ind_ipc > dep_ipc * 3.0,
        "MLP should dominate: dep {dep_ipc} vs ind {ind_ipc}"
    );
}

#[test]
fn prefetch_usefulness_accounting_balances() {
    let w = workloads::by_name("spec06.xalancbmk").unwrap();
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let r = run_single(&w, &exp);
    let c = &r.cores[0];
    // Useful + useless resolved fills can never exceed issued fills.
    let resolved = c.l2_useful_by_origin[2] + c.l2_useless_by_origin[2];
    assert!(
        resolved <= c.l2_fills_by_origin[2],
        "resolved {} > fills {}",
        resolved,
        c.l2_fills_by_origin[2]
    );
    assert!(c.temporal.prefetches_issued >= c.l2_fills_by_origin[2] as u64);
}

#[test]
fn reserving_llc_capacity_costs_data_hits() {
    // A raw TemporalPrefetcher stub that reserves 8 ways everywhere and
    // never prefetches: pure capacity cost.
    struct Hog;
    impl TemporalPrefetcher for Hog {
        fn name(&self) -> &'static str {
            "hog"
        }
        fn on_event(&mut self, _ctx: &mut MetaCtx, _ev: TemporalEvent, _out: &mut Vec<Line>) {}
        fn partition(&self) -> PartitionSpec {
            PartitionSpec::Ways { ways: 8 }
        }
        fn stats(&self) -> streamline_repro::tpsim::TemporalStats {
            Default::default()
        }
    }
    // Working set sized to fit a 2MB LLC but not a 1MB one.
    let trace = ring_trace(24_000, 4);
    let base = Engine::new(
        SystemConfig::single_core(),
        vec![CorePlan::bare(trace.clone())],
    )
    .run();
    let hogged = Engine::new(
        SystemConfig::single_core(),
        vec![CorePlan::bare(trace).with_temporal(Box::new(Hog))],
    )
    .run();
    assert!(
        hogged.cores[0].ipc() < base.cores[0].ipc() * 0.98,
        "halving the LLC must hurt an LLC-resident working set: {} vs {}",
        hogged.cores[0].ipc(),
        base.cores[0].ipc()
    );
}

#[test]
fn temporal_event_stream_includes_prefetch_hits() {
    // Train on a stable ring larger than the L2 (so accesses keep
    // missing it); after coverage kicks in, the prefetcher keeps seeing
    // events (prefetch hits), so lookups keep growing.
    let trace = ring_trace(16_000, 6);
    let r = Engine::new(
        SystemConfig::single_core(),
        vec![CorePlan::bare(trace).with_temporal(Box::new(Streamline::new()))],
    )
    .run();
    let t = r.cores[0].temporal;
    assert!(
        t.trigger_lookups as f64 > r.cores[0].l2.misses as f64,
        "prefetch hits must keep training alive: lookups {} vs misses {}",
        t.trigger_lookups,
        r.cores[0].l2.misses
    );
    assert!(r.cores[0].temporal_coverage() > 0.3);
}

#[test]
fn metadata_traffic_is_charged_to_the_llc() {
    // Large enough that the ring never settles into the L2/LLC: events
    // keep flowing and warm store lookups hit (reads are charged on
    // hits — the tag check itself is free).
    let trace = ring_trace(48_000, 4);
    let r = Engine::new(
        SystemConfig::single_core(),
        vec![CorePlan::bare(trace).with_temporal(Box::new(Streamline::new()))],
    )
    .run();
    let t = r.cores[0].temporal;
    assert!(t.meta_reads > 0, "stream reads must be charged");
    assert!(t.meta_writes > 0, "stream writes must be charged");
    // One write per completed stream entry: far fewer writes than the
    // trace has accesses (the stream format's amortisation).
    assert!(t.meta_writes < 48_000 * 4 / 2);
}

#[test]
fn triangel_rearrangement_traffic_is_visible_end_to_end() {
    // Alternate an irregular phase with a regular phase so Triangel's
    // set dueling resizes, which must show up as rearranged blocks.
    let mut b = TraceBuilder::new("phase", Suite::Spec06);
    for round in 0..6 {
        if round % 2 == 0 {
            for i in 0..40_000u64 {
                b.dep_load(1, (i.wrapping_mul(2654435761) % 40_000) * 64 + (1 << 41));
            }
        } else {
            for i in 0..40_000u64 {
                b.load(2, (i % 1_000) * 2048 * 64 + (1 << 42));
            }
        }
    }
    let r = Engine::new(
        SystemConfig::single_core(),
        vec![CorePlan::bare(b.finish()).with_temporal(Box::new(Triangel::new()))],
    )
    .run();
    let t = r.cores[0].temporal;
    // Not all phase mixes force a resize, but traffic accounting must be
    // wired: if it resized, blocks moved.
    if t.resizes > 0 {
        assert!(t.rearranged_blocks > 0, "resize must shuffle metadata");
    }
}
