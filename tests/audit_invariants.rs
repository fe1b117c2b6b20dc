//! Property-based tests for the conservation-law audit (tpcheck).
//!
//! Three angles:
//!
//! 1. **The laws hold** — random workloads under random prefetcher
//!    configurations always produce a passing [`tpsim::AuditReport`]
//!    (the engine's debug assertion enforces the same thing, but the
//!    explicit checks here survive release-mode test runs).
//! 2. **The harness enforces them** — an audited
//!    [`SweepRunner`](tpharness::sweep::SweepRunner) sweep over the
//!    full memory-intensive pool completes without tripping.
//! 3. **The laws have teeth** — corrupting a snapshot field trips the
//!    corresponding law, and a store-heavy run actually drains dirty
//!    lines to DRAM (the regression the audit layer was built to
//!    catch: fill-path eviction results used to be discarded, so no
//!    writeback ever left the L1).

use streamline_repro::prelude::*;
use streamline_repro::tpharness::sweep::{SweepJob, SweepRunner};
use streamline_repro::tpsim::audit::check_hierarchy;
use streamline_repro::tpsim::hierarchy::Hierarchy;
use streamline_repro::tptrace::record::Line;
use streamline_repro::tptrace::TraceBuilder;
use tpcheck::{check, ensure, Gen};

const TEMPORAL_KINDS: [TemporalKind; 5] = [
    TemporalKind::None,
    TemporalKind::Triage,
    TemporalKind::Triangel,
    TemporalKind::TriangelIdeal,
    TemporalKind::Streamline,
];

/// A random experiment at test scale: any prefetcher stack, any warmup
/// fraction (including zero, which skips the mid-run stats reset).
fn random_experiment(g: &mut Gen) -> Experiment {
    let mut exp = Experiment::new(Scale::Test)
        .l1(L1Kind::ALL[g.usize_in(0..L1Kind::ALL.len())])
        .l2(L2Kind::ALL[g.usize_in(0..L2Kind::ALL.len())])
        .temporal(TEMPORAL_KINDS[g.usize_in(0..TEMPORAL_KINDS.len())]);
    exp.warmup = [0.0, 0.2, 0.5][g.usize_in(0..3)];
    exp
}

/// Every conservation law holds on random (workload, config) pairs.
#[test]
fn random_configurations_pass_the_audit() {
    let pool = workloads::memory_intensive();
    check("audit passes on random configs", 24, |g| {
        let w = &pool[g.usize_in(0..pool.len())];
        let exp = random_experiment(g);
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

/// An audited sweep over the whole memory-intensive pool completes:
/// `SweepRunner::with_audit(true)` panics on the first violation, so
/// reaching the assertions below means every workload passed.
#[test]
fn audited_quick_sweep_covers_every_workload() {
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let jobs: Vec<SweepJob> = workloads::memory_intensive()
        .into_iter()
        .map(|w| SweepJob::single(w, exp.clone()))
        .collect();
    let runner = SweepRunner::new().with_audit(true);
    let reports = runner.run(&jobs);
    assert_eq!(reports.len(), workloads::memory_intensive().len());
    for r in &reports {
        assert!(
            r.audit.passed(),
            "sweep returned a failing audit:\n{}",
            r.audit
        );
    }
}

/// Regression for the dead writeback path: a store-heavy run must push
/// dirty lines down every level of the hierarchy and out to DRAM, with
/// each level's writebacks bounded by the dirty traffic arriving from
/// above (an L2 line is only dirty because a dirty L1 victim landed on
/// it, and likewise for the LLC).
#[test]
fn store_heavy_run_drains_writebacks_to_dram() {
    let mut b = TraceBuilder::new("synthetic.store-flood", Suite::Spec06);
    // Write three times the 2 MiB LLC so dirty victims cascade to DRAM.
    for i in 0..98_304u64 {
        b.store(0x400_100, 0x10_0000 + i * tpsim::LINE_SIZE);
        b.load(0x400_108, 0x10_0000 + (i / 7) * tpsim::LINE_SIZE);
    }
    let plan = CorePlan::bare(b.finish());
    let r = Engine::new(SystemConfig::single_core(), vec![plan])
        .warmup_fraction(0.0)
        .run();
    let c = &r.cores[0];
    assert!(r.audit.passed(), "audit failed:\n{}", r.audit);
    assert!(c.l1d.writebacks > 0, "no dirty L1 victims");
    assert!(c.l2.writebacks > 0, "dirty lines never left the L2");
    assert!(r.llc.writebacks > 0, "dirty lines never left the LLC");
    assert!(r.dram.writes > 0, "no writebacks reached DRAM");
    assert!(
        c.l2.writebacks <= c.l1d.writebacks,
        "L2 wrote back {} dirty lines but only {} arrived from L1",
        c.l2.writebacks,
        c.l1d.writebacks
    );
    assert!(r.llc.writebacks <= c.l2.writebacks + r.llc.prefetch_fills);
}

/// The audit is not vacuous: corrupting a counter in an otherwise
/// consistent snapshot trips the matching law.
#[test]
fn corrupted_snapshots_are_caught() {
    let mut h = Hierarchy::new(SystemConfig::single_core());
    let mut t = 0;
    // More distinct lines than the 32k-line LLC, a third of them dirty,
    // so writebacks flow all the way to DRAM before we corrupt anything.
    for i in 0..120_000u64 {
        let out = h.demand_access(0, Line(0x4000 + i), i % 3 == 0, t);
        t = out.complete + 4;
    }
    let clean = h.audit_snapshot();
    assert!(
        check_hierarchy(&clean).passed(),
        "baseline snapshot must pass"
    );
    assert!(
        clean.cores[0].l1d.stats.writebacks > 0,
        "need dirty traffic"
    );
    assert!(clean.dram.writes > 0, "need dirty lines reaching DRAM");

    // Resurrect the original bug: L1 reports dirty evictions that were
    // never delivered to the L2.
    let mut broken = clean.clone();
    broken.cores[0].l1_writebacks_to_l2 = 0;
    let report = check_hierarchy(&broken);
    assert!(!report.passed(), "dead L1 writeback path went unnoticed");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "writeback-conservation"),
        "wrong law tripped:\n{report}"
    );

    // Writebacks that reach the DRAM counter-less.
    let mut broken = clean.clone();
    broken.dram.writes = 0;
    assert!(
        !check_hierarchy(&broken).passed(),
        "vanished DRAM writes went unnoticed"
    );

    // A hit/miss imbalance at any level.
    let mut broken = clean;
    broken.llc.stats.hits += 1;
    let report = check_hierarchy(&broken);
    assert!(!report.passed(), "hit/miss imbalance went unnoticed");
    assert!(
        report.violations.iter().any(|v| v.invariant == "balance"),
        "wrong law tripped:\n{report}"
    );
}

/// Randomised corruption: bumping any single flow counter in a
/// consistent snapshot must never *add* checks that pass — the audit is
/// monotone in the sense that corruption can only create violations.
#[test]
fn random_corruption_never_passes_silently() {
    let mut h = Hierarchy::new(SystemConfig::single_core());
    let mut t = 0;
    for i in 0..2048u64 {
        let out = h.demand_access(0, Line(0x9000 + i % 900), i % 4 == 0, t);
        t = out.complete + 2;
    }
    let clean = h.audit_snapshot();
    assert!(check_hierarchy(&clean).passed());
    check("single-field corruption trips a law", 32, |g| {
        let mut s = clean.clone();
        let bump = 1 + g.u64_in(0..1000);
        let field = g.usize_in(0..6);
        match field {
            0 => s.cores[0].l1d.stats.writebacks += bump,
            1 => s.cores[0].l2.stats.writebacks += bump,
            2 => s.llc.stats.writebacks += bump,
            3 => s.dram.writes += bump,
            4 => s.dram.reads += bump,
            _ => s.cores[0].l1_writebacks_to_l2 += bump,
        }
        let report = check_hierarchy(&s);
        ensure!(
            !report.passed(),
            "corrupting field {field} by {bump} went unnoticed"
        );
        Ok(())
    });
}
