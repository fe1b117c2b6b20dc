//! `sweep_cold`: what a `run_figures.sh` user pays for one figure.
//!
//! Every repetition empties the process-wide trace pool, builds a fresh
//! `SweepRunner` and runs single-core jobs under four temporal
//! configurations plus 2- and 4-core mixes. It is the only workload
//! where trace generation, single-flight pooling, parallel dispatch and
//! the multi-core interleave are on the clock.
//!
//! The mixes are drawn once from a fixed seed, so every `--seed`
//! simulates the same amount of work; the seed picks the contents of
//! the traces (`SweepRunner::with_base_seed`).

use crate::host;
use crate::replay::{push_report_totals, stepped_accesses};
use crate::run::{Metric, Run};
use crate::span::Tracer;
use crate::stats;
use std::time::Instant;
use tpharness::wire::encode_sim_report;
use tpharness::{
    derive_seed, gmean, run_mix, run_single, Experiment, L1Kind, SweepJob, SweepRunner,
    TemporalKind,
};
use tpsim::SimReport;
use tptrace::{pool, workloads, Mix, MixGenerator, Scale, Workload};

const SCALE: Scale = Scale::Test;

/// Workloads of the single-core jobs and the pool the mixes draw from:
/// three irregular workloads the replay workloads do not use. Their IPCs
/// are close, which keeps a mix short — the engine loops a fast core's
/// trace until the slowest core finishes, so one streaming workload in a
/// mix multiplies its cost (1-3 s a job here) without exercising
/// anything new.
const POOL: [&str; 3] = ["spec17.mcf", "spec17.gcc", "gap.bfs"];
const SINGLE_CONFIGS: [TemporalKind; 4] = [
    TemporalKind::None,
    TemporalKind::Triage,
    TemporalKind::Triangel,
    TemporalKind::Streamline,
];
const MIX_CONFIGS: [TemporalKind; 2] = [TemporalKind::None, TemporalKind::Streamline];
const TWO_CORE_MIXES: usize = 1;
const FOUR_CORE_MIXES: usize = 1;
/// Seed of the mix draw (fixed: see the module docs).
const MIX_SEED: u64 = 0x0005_EED0_FA11;
/// Reference samples after each phase of a repetition.
const REF_SAMPLES_PER_PHASE: usize = 4;
/// Cached re-runs of the whole job list per batch of the hit path.
const CACHED_RUNS_PER_BATCH: usize = 200;

struct Fixture {
    /// Mixes first: the longest jobs start at once on both workers and
    /// the singles fill in behind them.
    jobs: Vec<SweepJob>,
    /// Warm-up plus one pass of every core of every job.
    accesses: u64,
    /// Reports of the first timed sweep, in job order; every later
    /// sweep must reproduce them byte for byte.
    first: Vec<String>,
}

fn experiment(temporal: TemporalKind) -> Experiment {
    Experiment::new(SCALE).l1(L1Kind::Stride).temporal(temporal)
}

fn jobs() -> Vec<SweepJob> {
    let pool: Vec<Workload> = POOL
        .iter()
        .map(|n| workloads::by_name(n).expect("registry workload"))
        .collect();
    let mut gen = MixGenerator::with_pool(MIX_SEED, pool.clone());
    let mut mixes = gen.mixes(4, FOUR_CORE_MIXES);
    mixes.extend(gen.mixes(2, TWO_CORE_MIXES));
    let mut jobs = Vec::new();
    for mix in mixes {
        for t in MIX_CONFIGS.into_iter().rev() {
            jobs.push(SweepJob::mix(mix.clone(), experiment(t)));
        }
    }
    for w in &pool {
        for t in SINGLE_CONFIGS {
            jobs.push(SweepJob::single(w.clone(), experiment(t)));
        }
    }
    jobs
}

fn job_workloads(job: &SweepJob) -> Vec<Workload> {
    match job {
        SweepJob::Single { workload, .. } => vec![workload.clone()],
        SweepJob::Mix { mix, .. } => mix.workloads.clone(),
    }
}

fn reseeded(w: &Workload, seed: u64) -> Workload {
    w.with_seed(derive_seed(seed, w.name))
}

/// One cold repetition: empty pool, fresh runner, every job.
fn cold_sweep(seed: u64, jobs: &[SweepJob]) -> (SweepRunner, Vec<SimReport>) {
    pool::global().clear();
    let runner = SweepRunner::new()
        .with_workers(host::driver_threads())
        .with_base_seed(seed);
    let reports = runner.run(jobs);
    (runner, reports)
}

fn setup(seed: u64) -> Fixture {
    let jobs = jobs();
    // The single-core jobs once, untimed: lazy set-up (page faults,
    // allocator arenas, worker stacks) is paid here, not in the first
    // repetition.
    let singles: Vec<SweepJob> = jobs
        .iter()
        .filter(|j| matches!(j, SweepJob::Single { .. }))
        .cloned()
        .collect();
    cold_sweep(seed, &singles);
    let accesses = jobs
        .iter()
        .flat_map(job_workloads)
        .map(|w| stepped_accesses(reseeded(&w, seed).generate_shared(SCALE).len()))
        .sum();
    Fixture {
        jobs,
        accesses,
        first: Vec::new(),
    }
}

fn check_reports(run: &mut Run, fx: &mut Fixture, reports: &[SimReport]) {
    let encoded: Vec<String> = reports.iter().map(encode_sim_report).collect();
    for (job, report) in fx.jobs.iter().zip(reports) {
        run.check(report.audit.passed(), || {
            format!("{}: audit violation: {}", job.key(), report.audit)
        });
    }
    if fx.first.is_empty() {
        fx.first = encoded;
        return;
    }
    for ((job, first), now) in fx.jobs.iter().zip(&fx.first).zip(&encoded) {
        run.check(first == now, || {
            format!("{}: report differs between repetitions", job.key())
        });
    }
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let seed = run.seed;
    if host::nproc() < 2 {
        // One hardware thread proves parallel correctness, not speed.
        run.scaling = "n/a";
    }
    let mut fx = run.time_setup(|_| setup(seed), |_, old| drop(old));

    let before = pool::global().stats();
    let mut secs = Vec::new();
    let mut hit_secs = Vec::new();
    let mut pool_delta = None;
    let mut reports_first = Vec::new();
    let mut laps = 0;
    while run.window_open(laps) {
        let t = Instant::now();
        let (runner, reports) = cold_sweep(seed, &fx.jobs);
        secs.push(t.elapsed().as_secs_f64());
        run.sample_ref(REF_SAMPLES_PER_PHASE);
        if pool_delta.is_none() {
            let now = pool::global().stats();
            pool_delta = Some((
                now.generations - before.generations,
                now.hits - before.hits,
                now.peak_resident_bytes,
            ));
        }
        check_reports(run, &mut fx, &reports);

        // The cache in front of a sweep is the runner's own result
        // cache: asking the same runner again simulates nothing.
        let t = Instant::now();
        for _ in 0..CACHED_RUNS_PER_BATCH {
            std::hint::black_box(runner.run(&fx.jobs));
        }
        hit_secs.push(t.elapsed().as_secs_f64());
        run.sample_ref(REF_SAMPLES_PER_PHASE);
        let cached = runner.run(&fx.jobs);
        check_reports(run, &mut fx, &cached);
        if laps == 0 {
            reports_first = reports;
        }
        laps += 1;
    }

    let hits = (CACHED_RUNS_PER_BATCH * fx.jobs.len()) as f64;
    run.series.push(("secs.sweep".into(), secs.clone()));
    run.series.push(("secs.cached".into(), hit_secs.clone()));
    let sim = Metric::from_times("sim_accesses_per_s", "1/s", &secs, |t| {
        fx.accesses as f64 / t
    });
    let hit = Metric::from_times("hit_rps", "1/s", &hit_secs, |t| hits / t);
    run.push(sim.per_ref_s("sim_accesses_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(hit.per_ref_s("hits_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(sim);
    run.push(hit);
    let (generations, pool_hits, peak) = pool_delta.expect("at least one lap");
    run.push(Metric::exact(
        "tptrace.pool.generations",
        "count",
        generations as f64,
    ));
    run.push(Metric::exact(
        "tptrace.gen.calls",
        "count",
        generations as f64,
    ));
    run.push(Metric::exact(
        "tptrace.pool.hits",
        "count",
        pool_hits as f64,
    ));
    run.push(Metric::exact(
        "tptrace.pool.peak_resident_mb",
        "MB",
        peak as f64 / (1 << 20) as f64,
    ));
    push_sim_metrics(run, &reports_first);
    if run.traced {
        traced_pass(run, &mut fx);
    }
    pool::global().clear();
}

/// Exact simulated statistics of the first repetition.
fn push_sim_metrics(run: &mut Run, all: &[SimReport]) {
    // The singles follow the mixes, four configurations per workload.
    let reports = &all[all.len() - 4 * POOL.len()..];
    for (slot, name) in [(3, "streamline"), (2, "triangel")] {
        let speedups: Vec<f64> = (0..POOL.len())
            .map(|w| reports[4 * w + slot].cores[0].ipc() / reports[4 * w].cores[0].ipc())
            .collect();
        run.push(Metric::exact(
            format!("sim.speedup.{name}"),
            "x",
            gmean(&speedups),
        ));
    }
    let mpki: f64 = (0..POOL.len())
        .map(|w| reports[4 * w].cores[0].l2_mpki())
        .sum::<f64>()
        / POOL.len() as f64;
    run.push(Metric::exact("sim.l2_mpki.none", "1/kinstr", mpki));
    push_report_totals(run, &all.iter().collect::<Vec<_>>());
}

/// Runs one job the way `SweepRunner::run` does under a base seed,
/// with its trace fetches split out as a `pool.get` span.
fn run_job_traced(tracer: &Tracer, root: usize, seed: u64, job: &SweepJob) -> SimReport {
    let span = tracer.open("sweep.job", Some(root));
    let get = tracer.open("pool.get", Some(span));
    for w in job_workloads(job) {
        std::hint::black_box(reseeded(&w, seed).generate_shared(SCALE));
    }
    tracer.close(get);
    let report = match job {
        SweepJob::Single { workload, exp } => run_single(&reseeded(workload, seed), exp),
        SweepJob::Mix { mix, exp } => {
            let m = Mix {
                index: mix.index,
                workloads: mix.workloads.iter().map(|w| reseeded(w, seed)).collect(),
            };
            run_mix(&m, exp)
        }
    };
    tracer.close(span);
    report
}

/// The traced pass: the same jobs through `SweepRunner::map` with a
/// span each, then the generator and pool kernels.
fn traced_pass(run: &mut Run, fx: &mut Fixture) {
    let seed = run.seed;
    let workers = host::driver_threads();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut efficiency = Vec::new();
    for _ in 0..run.reps() {
        let t = Instant::now();
        let (_, reports) = cold_sweep(seed, &fx.jobs);
        plain.push(t.elapsed().as_secs_f64());
        check_reports(run, fx, &reports);

        pool::global().clear();
        let runner = SweepRunner::new().with_workers(workers);
        let spans_before = run.tracer.snapshot().len();
        let root = run.tracer.open("sweep.rep", None);
        let tracer = &run.tracer;
        let reports = runner.map(&fx.jobs, |_, job| run_job_traced(tracer, root, seed, job));
        let wall = run.tracer.close(root) as f64;
        traced.push(wall * 1e-9);
        check_reports(run, fx, &reports);
        let busy: u64 = run.tracer.snapshot()[spans_before..]
            .iter()
            .filter(|s| s.name == "sweep.job")
            .map(|s| s.dur_ns())
            .sum();
        efficiency.push(busy as f64 / (workers as f64 * wall));
    }
    let job_ms: Vec<f64> = run
        .tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "sweep.job")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    run.push(Metric::with_samples(
        "tpharness.sweep.job_ms_p50",
        "ms",
        stats::median(&job_ms),
        &job_ms,
    ));
    if run.scaling == "ok" {
        run.push(Metric::with_samples(
            "tpharness.sweep.parallel_efficiency",
            "share",
            efficiency.iter().cloned().fold(0.0, f64::max),
            &efficiency,
        ));
    }
    let fq = stats::fastest_quarter_mean;
    run.push(Metric::single(
        "trace.overhead_share",
        "share",
        (fq(&traced) - fq(&plain)) / fq(&plain),
    ));

    // Generators, bypassing the pool, each under a `gen` span.
    let ws: Vec<Workload> = POOL
        .iter()
        .map(|n| reseeded(&workloads::by_name(n).expect("registry workload"), seed))
        .collect();
    let mut gen_ns = Vec::new();
    let mut generated = 0usize;
    for _ in 0..run.reps() {
        let span = run.tracer.open("gen", None);
        generated = ws.iter().map(|w| w.generate(SCALE).len()).sum();
        gen_ns.push(run.tracer.close(span) as f64);
    }
    run.push(Metric::from_times(
        "tptrace.gen.ns_per_access",
        "ns",
        &gen_ns,
        |t| t / generated as f64,
    ));
    // Hits on resident keys.
    const HITS: usize = 100_000;
    for w in &ws {
        w.generate_shared(SCALE);
    }
    let times: Vec<f64> = (0..run.reps())
        .map(|_| {
            let t = Instant::now();
            for i in 0..HITS {
                std::hint::black_box(ws[i % ws.len()].generate_shared(SCALE));
            }
            t.elapsed().as_nanos() as f64
        })
        .collect();
    run.push(Metric::from_times(
        "tptrace.pool.hit_ns",
        "ns",
        &times,
        |t| t / HITS as f64,
    ));
}
