//! Golden-snapshot regression test: summary statistics for one small
//! `Scale::Test` workload per suite, under the stride baseline and with
//! Streamline on top, pinned at fixed precision.
//!
//! The simulator is a pure function of (trace, config) and the traces
//! are seed-deterministic, so these numbers must reproduce exactly on
//! any machine and any worker count. If a change to the simulator,
//! prefetchers, trace generators, or RNG moves them, that change is not
//! a refactor — either it fixed a bug (update the snapshot and say why
//! in the commit) or it introduced one.

use std::fmt::Write as _;
use streamline_repro::prelude::*;
use streamline_repro::tpharness::sweep::{SweepJob, SweepRunner};
use streamline_repro::tptrace::{Mix, TraceBuilder};

/// (workload, baseline IPC, streamline IPC, streamline L2 MPKI,
/// temporal coverage %, temporal accuracy %), all at 4 decimals.
const GOLDEN: &[(&str, &str, &str, &str, &str, &str)] = &[
    (
        "spec06.mcf",
        "0.1314",
        "0.0980",
        "21.6968",
        "87.3761",
        "97.8795",
    ),
    (
        "spec17.xalancbmk",
        "0.1236",
        "0.1250",
        "14.8787",
        "91.0728",
        "99.9978",
    ),
    (
        "gap.bfs", "0.2250", "0.1457", "57.7071", "63.6836", "80.5800",
    ),
];

fn snapshot(runner: &SweepRunner) -> Vec<(&'static str, String, String, String, String, String)> {
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let with = base.clone().temporal(TemporalKind::Streamline);
    let jobs: Vec<SweepJob> = GOLDEN
        .iter()
        .flat_map(|&(name, ..)| {
            let w = workloads::by_name(name).expect("registry workload");
            [
                SweepJob::single(w.clone(), base.clone()),
                SweepJob::single(w, with.clone()),
            ]
        })
        .collect();
    let reports = runner.run(&jobs);
    GOLDEN
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(&(name, ..), pair)| {
            let (b, s) = (&pair[0].cores[0], &pair[1].cores[0]);
            (
                name,
                format!("{:.4}", b.ipc()),
                format!("{:.4}", s.ipc()),
                format!("{:.4}", s.l2_mpki()),
                format!("{:.4}", s.temporal_coverage() * 100.0),
                format!("{:.4}", s.temporal_accuracy() * 100.0),
            )
        })
        .collect()
}

#[test]
fn summary_stats_match_golden_snapshot() {
    for (got, want) in snapshot(&SweepRunner::serial()).iter().zip(GOLDEN) {
        assert_eq!(got.0, want.0);
        assert_eq!(got.1, want.1, "{}: baseline IPC moved", want.0);
        assert_eq!(got.2, want.2, "{}: streamline IPC moved", want.0);
        assert_eq!(got.3, want.3, "{}: streamline L2 MPKI moved", want.0);
        assert_eq!(got.4, want.4, "{}: temporal coverage moved", want.0);
        assert_eq!(got.5, want.5, "{}: temporal accuracy moved", want.0);
    }
}

/// Serialises **every** counter in a [`SimReport`] — per-core cache
/// stats, temporal stats, origin arrays, LLC, and DRAM — one
/// `key=value` per line. Unlike the headline snapshot above (4-decimal
/// rates), this is the raw integer state of the whole run: any
/// behavioural change to the simulator moves at least one line.
fn full_dump(r: &SimReport) -> String {
    let mut out = String::new();
    let cache = |out: &mut String, tag: &str, c: &streamline_repro::tpsim::CacheStats| {
        let _ = writeln!(
            out,
            "{tag}: acc={} hit={} miss={} useful_pf={} late_pf={} pf_fills={} useless_pf_ev={} wb={}",
            c.accesses,
            c.hits,
            c.misses,
            c.useful_prefetches,
            c.late_prefetches,
            c.prefetch_fills,
            c.useless_prefetch_evictions,
            c.writebacks
        );
    };
    for (i, c) in r.cores.iter().enumerate() {
        let _ = writeln!(
            out,
            "core{i}[{}]: instr={} cycles={}",
            c.workload, c.instructions, c.cycles
        );
        cache(&mut out, &format!("core{i}.l1d"), &c.l1d);
        cache(&mut out, &format!("core{i}.l2"), &c.l2);
        let t = &c.temporal;
        let _ = writeln!(
            out,
            "core{i}.temporal: mr={} mw={} rearr={} lk={} th={} ch={} ins={} red={} al={} fil={} real={} rsz={} pfi={}",
            t.meta_reads,
            t.meta_writes,
            t.rearranged_blocks,
            t.trigger_lookups,
            t.trigger_hits,
            t.correlation_hits,
            t.inserts,
            t.redundant_inserts,
            t.aligned_inserts,
            t.filtered,
            t.realigned,
            t.resizes,
            t.prefetches_issued
        );
        let _ = writeln!(
            out,
            "core{i}.pf: l1={} l2={} tpi={} tpd={} fills={:?} useful={:?} useless={:?}",
            c.l1_prefetches,
            c.l2_prefetches,
            c.temporal_pf_issued,
            c.temporal_pf_dropped,
            c.l2_fills_by_origin,
            c.l2_useful_by_origin,
            c.l2_useless_by_origin
        );
    }
    cache(&mut out, "llc", &r.llc);
    let _ = writeln!(
        out,
        "dram: rd={} wr={} rowhit={}",
        r.dram.reads, r.dram.writes, r.dram.row_hits
    );
    out
}

/// Full counter state of a 2-core mix (irregular + store-pressure
/// workloads) under stride + Streamline. Exercises the multi-core
/// hierarchy paths: per-core inflight/origin tracking, shared-LLC
/// contention, partitioning in the multi-core set domain.
const GOLDEN_MULTICORE: &str = include_str!("golden/multicore.txt");

/// Full counter state of a store-heavy synthetic run (stores over 2x
/// the LLC with Streamline attached): pins the writeback cascade,
/// eviction handling, and dirty-victim bookkeeping end to end.
const GOLDEN_STORE_HEAVY: &str = include_str!("golden/store_heavy.txt");

/// Full counter state of a 2-core mix where **both cores run the same
/// workload** (gap.bfs twice). With the shared trace pool the two cores
/// replay one `Arc<Trace>` allocation; this pin proves that sharing the
/// trace bytes changes nothing — per-core address tags still disjoint
/// the address spaces, and every counter matches the
/// private-copy-per-core numbers byte for byte.
const GOLDEN_SHARED_WORKLOAD: &str = include_str!("golden/multicore_shared.txt");

/// Full counter state of a 2-core mix pairing a store-heavy synthetic
/// trace with the irregular spec06.mcf registry workload, with the
/// *entire* prefetcher stack attached per core: L1 IP-stride (exercises
/// the L1 prefetch feedback path), L2 IPCP, and Streamline with its LLC
/// metadata partition. Pinned immediately **before** the batched-replay
/// engine refactor: every hoisted branch (warmup boundary, interleave
/// selection, feedback drains, accuracy epochs) feeds at least one
/// counter in this dump, so any batching bug that perturbs per-access
/// ordering moves at least one line here.
const GOLDEN_MIXED_STORE_FEEDBACK: &str = include_str!("golden/mixed_store_feedback.txt");

fn multicore_report() -> SimReport {
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let mix = Mix {
        index: 0,
        workloads: vec![
            workloads::by_name("gap.pr").expect("registry workload"),
            workloads::by_name("spec06.mcf").expect("registry workload"),
        ],
    };
    run_mix(&mix, &exp)
}

fn shared_workload_report() -> SimReport {
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let w = workloads::by_name("gap.bfs").expect("registry workload");
    let mix = Mix {
        index: 0,
        workloads: vec![w.clone(), w],
    };
    run_mix(&mix, &exp)
}

fn store_heavy_report() -> SimReport {
    let mut b = TraceBuilder::new("synthetic.store-golden", Suite::Spec06);
    // Stores over 2x the LLC with a 1-in-3 load mix: every level
    // overflows, dirty victims cascade to DRAM, and the temporal
    // prefetcher trains on the load misses.
    for i in 0..65_536u64 {
        b.store(
            0x400_100,
            0x10_0000 + i * streamline_repro::tpsim::LINE_SIZE,
        );
        if i % 3 == 0 {
            b.load(
                0x400_108,
                0x10_0000 + (i / 5) * streamline_repro::tpsim::LINE_SIZE,
            );
        }
    }
    let plan = CorePlan::bare(b.finish()).with_temporal(Box::new(Streamline::new()));
    Engine::new(SystemConfig::single_core(), vec![plan])
        .warmup_fraction(0.0)
        .run()
}

fn mixed_store_feedback_report() -> SimReport {
    use streamline_repro::tpprefetch::{IpStride, Ipcp};
    // Core 0: stores sweeping 2x the LLC with a strided load stream
    // (the stride prefetcher issues, so prefetch-feedback events flow)
    // plus a recurring pointer-chase loop that trains Streamline.
    let mut b = TraceBuilder::new("synthetic.store-feedback-golden", Suite::Spec06);
    for i in 0..48_000u64 {
        b.store(
            0x500_100,
            0x20_0000 + i * streamline_repro::tpsim::LINE_SIZE,
        );
        if i % 2 == 0 {
            b.load(
                0x500_108,
                0x80_0000 + (i / 2) * streamline_repro::tpsim::LINE_SIZE,
            );
        }
        if i % 4 == 0 {
            // 64-line temporal loop: revisited every 256 accesses.
            b.load(
                0x500_110,
                0xC0_0000 + (i / 4 % 64) * 7 * streamline_repro::tpsim::LINE_SIZE,
            );
        }
    }
    let stack = |trace: std::sync::Arc<Trace>| {
        CorePlan::bare(trace)
            .with_l1(Box::new(IpStride::default()))
            .with_l2(Box::new(Ipcp::default()))
            .with_temporal(Box::new(Streamline::new()))
    };
    let mcf = workloads::by_name("spec06.mcf")
        .expect("registry workload")
        .generate_shared(Scale::Test);
    let plans = vec![stack(std::sync::Arc::new(b.finish())), stack(mcf)];
    Engine::new(SystemConfig::with_cores(2), plans).run()
}

/// Compares `got` against the pinned dump in `tests/golden/<file>`, or
/// regenerates the pin when `TPSIM_REGEN_GOLDEN=1` (for intentional,
/// explained behaviour changes only — see the module docs).
fn assert_or_regen(got: &str, want: &str, file: &str) {
    if std::env::var_os("TPSIM_REGEN_GOLDEN").is_some_and(|v| v == "1") {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(file);
        std::fs::write(&path, got).expect("write regenerated golden dump");
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_eq!(got, want, "full counter dump moved ({file}):\n{got}");
}

#[test]
fn multicore_full_counters_match_golden_snapshot() {
    assert_or_regen(
        &full_dump(&multicore_report()),
        GOLDEN_MULTICORE,
        "multicore.txt",
    );
}

#[test]
fn shared_workload_mix_full_counters_match_golden_snapshot() {
    assert_or_regen(
        &full_dump(&shared_workload_report()),
        GOLDEN_SHARED_WORKLOAD,
        "multicore_shared.txt",
    );
}

#[test]
fn mixed_store_feedback_full_counters_match_golden_snapshot() {
    assert_or_regen(
        &full_dump(&mixed_store_feedback_report()),
        GOLDEN_MIXED_STORE_FEEDBACK,
        "mixed_store_feedback.txt",
    );
}

#[test]
fn store_heavy_full_counters_match_golden_snapshot() {
    assert_or_regen(
        &full_dump(&store_heavy_report()),
        GOLDEN_STORE_HEAVY,
        "store_heavy.txt",
    );
}

#[test]
fn golden_snapshot_is_worker_count_independent() {
    assert_eq!(
        snapshot(&SweepRunner::serial()),
        snapshot(&SweepRunner::new().with_workers(8)),
        "parallel snapshot diverged from serial"
    );
}
