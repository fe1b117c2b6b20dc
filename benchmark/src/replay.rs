//! `replay_temporal` and `replay_writeback`: single-thread `Engine::run`
//! over a fixed list of cells (one trace × one prefetcher
//! configuration each).
//!
//! The two workloads share this loop and differ only in their cells.
//! `replay_temporal` attaches Triangel or Streamline to four irregular
//! traces, so temporal `on_event` and the metadata stores do most of
//! the work. `replay_writeback` attaches no temporal prefetcher and
//! replays a store flood, two streaming traces and an L1-resident one
//! under stride + IPCP, so the caches, DRAM, the writeback path and the
//! regular prefetchers do all of it: a gain for one use of `hierarchy`
//! that costs the other shows up here.

use crate::heap;
use crate::kernels;
use crate::run::{Metric, Run};
use crate::span::Tracer;
use crate::spec::{TEMPORAL_TRACES, WRITEBACK_TRACES};
use crate::stats;
use crate::wrap::{
    replay_log, timer_ns, Sink, Tally, TemporalCall, TemporalTally, TimedAccess, TimedTemporal,
};
use std::sync::Arc;
use std::time::Instant;
use tpharness::wire::{encode_sim_report, fnv1a};
use tpharness::{derive_seed, gmean, L1Kind, L2Kind, TemporalKind};
use tpsim::{CorePlan, Engine, SimReport, SystemConfig};
use tptrace::pool::{self, PoolKey};
use tptrace::rng::SmallRng;
use tptrace::{workloads, Scale, Suite, Trace, TraceBuilder, Workload};

/// Trace scale of both replay workloads: a lap over every cell takes
/// about half a second, so one run samples each cell a dozen times or
/// more (see README, "Run length").
pub const SCALE: Scale = Scale::Test;

/// Which of the two workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Triangel and Streamline on irregular traces.
    Temporal,
    /// No temporal prefetcher; stores, streams and L1 hits.
    Writeback,
}

/// Traces replayed at their registry seed whatever `--seed` says: the
/// streaming generator draws its number of streams from the seed, which
/// moves the trace length (and the work of a lap) by half.
const SEED_SIZED: [&str; 1] = ["spec06.libquantum"];

/// Pool hits per batch of the cache-hit path.
const POOL_HITS_PER_BATCH: usize = 400_000;

struct Cell {
    name: String,
    trace: Arc<Trace>,
    l2: L2Kind,
    temporal: TemporalKind,
    /// Accesses the engine steps for this trace: warm-up plus one pass.
    accesses: u64,
}

struct Fixture {
    cells: Vec<Cell>,
    /// The registry workloads behind the cells, seeded as replayed.
    workloads: Vec<Workload>,
    /// No-temporal reports of `replay_temporal`'s traces, for speedups.
    baselines: Vec<SimReport>,
}

/// Accesses `Engine::run` steps on a single core: the warm-up share
/// (the default 0.2) and then one measured pass.
pub fn stepped_accesses(trace_len: usize) -> u64 {
    ((trace_len as f64 * 0.2) as usize + trace_len) as u64
}

/// A store flood over four times the LLC with one load in three: every
/// store misses, dirties a line and pushes a writeback down to DRAM.
fn store_flood(seed: u64) -> Trace {
    const LINES: u64 = 4 * (2 << 20) / 64;
    const ACCESSES: u64 = 150_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = 0x4000_0000u64 + rng.gen_range(0u64..1 << 20) * 64;
    let mut b = TraceBuilder::new("store_flood", Suite::Spec06);
    for i in 0..ACCESSES {
        if i % 3 == 2 {
            b.load(0x7100, base + rng.gen_range(0..LINES) * 64);
        } else {
            b.store(0x7200, base + (i * 17 % LINES) * 64);
        }
    }
    b.finish()
}

fn pooled_store_flood(seed: u64) -> Arc<Trace> {
    let key = PoolKey {
        generator: store_flood as *const () as usize,
        name: "store_flood",
        seed,
        scale: SCALE,
    };
    pool::global().get_or_generate(key, || store_flood(seed))
}

fn plan(cell: &Cell, wrap: Option<&Sinks>) -> CorePlan {
    let mut plan = CorePlan::bare(Arc::clone(&cell.trace));
    let l1 = L1Kind::Stride.build().expect("stride builds");
    plan = plan.with_l1(match wrap {
        Some(s) => TimedAccess::boxed(l1, &s.l1),
        None => l1,
    });
    if let Some(l2) = cell.l2.build() {
        plan = plan.with_l2(match wrap {
            Some(s) => TimedAccess::boxed(l2, &s.l2),
            None => l2,
        });
    }
    if let Some(tp) = cell.temporal.build() {
        plan = plan.with_temporal(match wrap {
            Some(s) => TimedTemporal::boxed(tp, s.keep_log, &s.temporal),
            None => tp,
        });
    }
    plan
}

#[derive(Default)]
struct Sinks {
    l1: Sink<Tally>,
    l2: Sink<Tally>,
    temporal: Sink<TemporalTally>,
    keep_log: bool,
}

fn setup(kind: Kind, seed: u64) -> Fixture {
    pool::global().clear();
    let names: &[&str] = match kind {
        Kind::Temporal => &TEMPORAL_TRACES,
        Kind::Writeback => &WRITEBACK_TRACES,
    };
    let mut cells = Vec::new();
    let mut seeded = Vec::new();
    let mut baselines = Vec::new();
    for name in names {
        let trace = match workloads::by_name(name) {
            Some(w) => {
                let w = if SEED_SIZED.contains(name) {
                    w
                } else {
                    w.with_seed(derive_seed(seed, name))
                };
                let trace = w.generate_shared(SCALE);
                seeded.push(w);
                trace
            }
            None => pooled_store_flood(derive_seed(seed, name)),
        };
        let accesses = stepped_accesses(trace.len());
        let configs: &[(L2Kind, TemporalKind)] = match kind {
            Kind::Temporal => &[
                (L2Kind::None, TemporalKind::Triangel),
                (L2Kind::None, TemporalKind::Streamline),
            ],
            Kind::Writeback => &[(L2Kind::Ipcp, TemporalKind::None)],
        };
        for &(l2, temporal) in configs {
            cells.push(Cell {
                name: format!("{name}.{}", temporal.name()),
                trace: Arc::clone(&trace),
                l2,
                temporal,
                accesses,
            });
        }
        if kind == Kind::Temporal {
            let bare = Cell {
                name: format!("{name}.none"),
                trace,
                l2: L2Kind::None,
                temporal: TemporalKind::None,
                accesses,
            };
            baselines.push(Engine::new(SystemConfig::single_core(), vec![plan(&bare, None)]).run());
        }
    }
    Fixture {
        cells,
        workloads: seeded,
        baselines,
    }
}

/// What one `Engine::new` + `run` cost.
struct CellRun {
    report: SimReport,
    build_ns: u64,
    run_ns: u64,
    /// Heap allocations inside `Engine::run`.
    allocs: u64,
    /// The `engine.run` span, when traced.
    run_span: Option<usize>,
}

/// Builds and runs one cell; with a tracer, under a root span with
/// `engine.build` and `engine.run` children.
fn run_cell(cell: &Cell, wrap: Option<&Sinks>, tracer: Option<&Tracer>) -> CellRun {
    let root = tracer.map(|t| t.open(&format!("cell.{}", cell.name), None));
    let span = |name| tracer.map(|t| t.open(name, root));
    let close = |id: Option<usize>| {
        if let (Some(t), Some(id)) = (tracer, id) {
            t.close(id);
        }
    };
    let build_span = span("engine.build");
    let t = Instant::now();
    let engine = Engine::new(SystemConfig::single_core(), vec![plan(cell, wrap)]);
    let build_ns = t.elapsed().as_nanos() as u64;
    close(build_span);
    let run_span = span("engine.run");
    let before = heap::allocs();
    let t = Instant::now();
    let report = engine.run();
    let run_ns = t.elapsed().as_nanos() as u64;
    let allocs = heap::allocs() - before;
    close(run_span);
    close(root);
    CellRun {
        report,
        build_ns,
        run_ns,
        allocs,
        run_span,
    }
}

/// Per-cell state across laps: the first report's bytes and the times.
#[derive(Default)]
struct CellLog {
    first: Option<String>,
    report: Option<SimReport>,
    secs: Vec<f64>,
    allocs: u64,
}

impl CellLog {
    /// Checks a repetition's report: audit clean, bytes equal to the
    /// first repetition's.
    fn check(&mut self, run: &mut Run, cell: &Cell, report: SimReport) {
        let bytes = encode_sim_report(&report);
        run.check(report.audit.passed(), || {
            format!("{}: audit violation: {}", cell.name, report.audit)
        });
        match &self.first {
            None => {
                self.first = Some(bytes);
                self.report = Some(report);
            }
            Some(first) => run.check(*first == bytes, || {
                format!("{}: report differs between repetitions", cell.name)
            }),
        }
    }
}

/// Runs one of the two replay workloads.
pub fn run(run: &mut Run, kind: Kind) {
    let seed = run.seed;
    let fx = run.time_setup(|_| setup(kind, seed), |_, old| drop(old));
    let mut logs: Vec<CellLog> = fx.cells.iter().map(|_| CellLog::default()).collect();

    // Untimed pass: every cell once, so the first timed lap does not
    // pay for first-touch page faults, and the exact counters come from
    // one defined repetition.
    for (cell, log) in fx.cells.iter().zip(&mut logs) {
        let r = run_cell(cell, None, None);
        log.allocs = r.allocs;
        log.check(run, cell, r.report);
    }

    // Timed laps, cells round-robin, a reference sample beside each.
    let total_accesses: u64 = fx.cells.iter().map(|c| c.accesses).sum();
    let mut lap_secs = Vec::new();
    let mut hit_secs = Vec::new();
    let mut laps = 0;
    while run.window_open(laps) {
        let mut secs_this_lap = 0.0;
        for (cell, log) in fx.cells.iter().zip(&mut logs) {
            let r = run_cell(cell, None, None);
            let secs = (r.build_ns + r.run_ns) as f64 * 1e-9;
            log.secs.push(secs);
            secs_this_lap += secs;
            run.sample_ref(1);
            log.check(run, cell, r.report);
        }
        lap_secs.push(secs_this_lap);
        hit_secs.push(pool_hit_batch(&fx));
        run.sample_ref(1);
        laps += 1;
    }

    for (cell, log) in fx.cells.iter().zip(&logs) {
        run.series
            .push((format!("secs.{}", cell.name), log.secs.clone()));
    }
    run.series.push(("secs.pool_hits".into(), hit_secs.clone()));
    // Each cell's fastest-quarter mean, summed: every cell is estimated
    // from its own quiet laps.
    let fastest: f64 = logs
        .iter()
        .map(|l| stats::fastest_quarter_mean(&l.secs))
        .sum();
    let lap_rates: Vec<f64> = lap_secs.iter().map(|s| total_accesses as f64 / s).collect();
    let sim = Metric::with_samples(
        "sim_accesses_per_s",
        "1/s",
        total_accesses as f64 / fastest,
        &lap_rates,
    );
    let hit = Metric::from_times("hit_rps", "1/s", &hit_secs, |t| {
        POOL_HITS_PER_BATCH as f64 / t
    });
    run.push(sim.per_ref_s("sim_accesses_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(hit.per_ref_s("hits_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(sim);
    run.push(hit);
    let allocs: u64 = logs.iter().map(|l| l.allocs).sum();
    run.push(Metric::exact(
        "allocs_per_access",
        "count",
        allocs as f64 / total_accesses as f64,
    ));
    push_sim_metrics(run, kind, &fx, &logs);
    if run.traced {
        traced_pass(run, kind, &fx, &logs);
    }
    drop(fx);
    pool::global().clear();
}

/// The cache in front of a replay is the trace pool: every
/// `Experiment::plan` asks it for its trace before building an engine.
/// One batch of hits on resident keys; returns the seconds it took.
fn pool_hit_batch(fx: &Fixture) -> f64 {
    let t = Instant::now();
    for i in 0..POOL_HITS_PER_BATCH {
        let w = &fx.workloads[i % fx.workloads.len()];
        std::hint::black_box(w.generate_shared(SCALE));
    }
    t.elapsed().as_secs_f64()
}

/// Exact simulated statistics of the first repetition of every cell.
fn push_sim_metrics(run: &mut Run, kind: Kind, fx: &Fixture, logs: &[CellLog]) {
    let reports: Vec<&SimReport> = logs
        .iter()
        .map(|l| l.report.as_ref().expect("every cell ran"))
        .collect();
    // `(trace index, report)` of every cell with temporal kind `k`.
    let of = |k: &str| -> Vec<(usize, &SimReport)> {
        fx.cells
            .iter()
            .zip(&reports)
            .enumerate()
            .filter(|(_, (c, _))| c.temporal.name() == k)
            .map(|(i, (_, r))| (i / 2, *r))
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    if kind == Kind::Temporal {
        for k in ["streamline", "triangel"] {
            let cells = of(k);
            let speedups: Vec<f64> = cells
                .iter()
                .map(|(t, r)| r.cores[0].ipc() / fx.baselines[*t].cores[0].ipc())
                .collect();
            run.push(Metric::exact(
                format!("sim.speedup.{k}"),
                "x",
                gmean(&speedups),
            ));
            let traffic: u64 = cells
                .iter()
                .map(|(_, r)| r.cores[0].temporal.traffic_blocks())
                .sum();
            run.push(Metric::exact(
                format!("sim.meta_traffic_blocks.{k}"),
                "count",
                traffic as f64,
            ));
        }
        let sl = of("streamline");
        let cov: Vec<f64> = sl
            .iter()
            .map(|(_, r)| r.cores[0].temporal_coverage())
            .collect();
        let acc: Vec<f64> = sl
            .iter()
            .map(|(_, r)| r.cores[0].temporal_accuracy())
            .collect();
        run.push(Metric::exact(
            "sim.temporal_coverage.streamline",
            "share",
            mean(&cov),
        ));
        run.push(Metric::exact(
            "sim.temporal_accuracy.streamline",
            "share",
            mean(&acc),
        ));
    }
    let bare: Vec<&SimReport> = match kind {
        Kind::Temporal => fx.baselines.iter().collect(),
        Kind::Writeback => reports.clone(),
    };
    let mpki: Vec<f64> = bare.iter().map(|r| r.cores[0].l2_mpki()).collect();
    run.push(Metric::exact("sim.l2_mpki.none", "1/kinstr", mean(&mpki)));
    push_report_totals(run, &reports);
}

/// DRAM and LLC totals and the fingerprint of a list of reports.
pub fn push_report_totals(run: &mut Run, reports: &[&SimReport]) {
    let reads: u64 = reports.iter().map(|r| r.dram.reads).sum();
    let writes: u64 = reports.iter().map(|r| r.dram.writes).sum();
    let hits: u64 = reports.iter().map(|r| r.llc.hits).sum();
    let accesses: u64 = reports.iter().map(|r| r.llc.accesses).sum();
    run.push(Metric::exact("sim.dram_reads", "count", reads as f64));
    run.push(Metric::exact("sim.dram_writes", "count", writes as f64));
    run.push(Metric::exact(
        "sim.llc_hit_rate",
        "share",
        hits as f64 / accesses.max(1) as f64,
    ));
    let all: String = reports.iter().map(|r| encode_sim_report(r)).collect();
    // 48 bits, so the hash survives a trip through a JSON double.
    run.push(Metric::exact(
        "sim.report_fnv",
        "hash",
        (fnv1a(all.as_bytes()) >> 16) as f64,
    ));
}

/// What the wrappers of one cell summed over all traced repetitions.
#[derive(Default)]
struct CellSums {
    l1: Tally,
    l2: Tally,
    event: Tally,
    feedback: Tally,
    llc: Tally,
    run_ns: u64,
    log: Vec<TemporalCall>,
}

/// The traced pass: every cell again, plain and under the timing
/// wrappers with spans around build and run, then the standalone
/// kernels.
fn traced_pass(run: &mut Run, kind: Kind, fx: &Fixture, logs: &[CellLog]) {
    let reps = run.reps();
    let n = fx.cells.len();
    let timer = timer_ns();
    run.push(Metric::single("host.timer_ns", "ns", timer));
    let mut plain = vec![Vec::new(); n];
    let mut wrapped = vec![Vec::new(); n];
    let mut builds = vec![Vec::new(); n];
    let mut selfs = vec![Vec::new(); n];
    let mut sums: Vec<CellSums> = (0..n).map(|_| CellSums::default()).collect();
    for rep in 0..reps {
        for (i, cell) in fx.cells.iter().enumerate() {
            let r = run_cell(cell, None, None);
            plain[i].push((r.build_ns + r.run_ns) as f64);

            let sinks = Sinks {
                keep_log: rep == 0 && cell.temporal.name() == "streamline",
                ..Sinks::default()
            };
            let r = run_cell(cell, Some(&sinks), Some(&run.tracer));
            let run_span = r.run_span.expect("traced");
            // The engine has dropped the wrappers, so their sums are in.
            let (l1, l2) = (
                *sinks.l1.lock().expect("sink"),
                *sinks.l2.lock().expect("sink"),
            );
            let mut tp = std::mem::take(&mut *sinks.temporal.lock().expect("sink"));
            let mut covered = 0;
            for (name, t) in [
                ("l1.on_access", l1),
                ("l2.on_access", l2),
                ("temporal.on_event", tp.event),
                ("temporal.on_feedback", tp.feedback),
                ("temporal.observe_llc", tp.llc),
            ] {
                if t.calls > 0 {
                    run.tracer.aggregate(run_span, name, t.calls, t.ns);
                    covered += t.ns;
                }
            }
            wrapped[i].push((r.build_ns + r.run_ns) as f64);
            builds[i].push(r.build_ns as f64);
            // engine.self: the run span minus its children, and minus
            // the second clock read of every wrapped call.
            let calls = l1.calls + l2.calls + tp.event.calls + tp.feedback.calls + tp.llc.calls;
            selfs[i]
                .push((r.run_ns.saturating_sub(covered) as f64 - calls as f64 * timer).max(0.0));
            let s = &mut sums[i];
            s.l1.add(l1);
            s.l2.add(l2);
            s.event.add(tp.event);
            s.feedback.add(tp.feedback);
            s.llc.add(tp.llc);
            s.run_ns += r.run_ns;
            s.log.append(&mut tp.log);
            let same = logs[i].first.as_deref() == Some(encode_sim_report(&r.report).as_str());
            run.check(same, || {
                format!("{}: wrapped report differs from unwrapped", cell.name)
            });
        }
    }

    let fq = stats::fastest_quarter_mean;
    let total_accesses: u64 = fx.cells.iter().map(|c| c.accesses).sum();
    for (i, cell) in fx.cells.iter().enumerate() {
        run.push(Metric::from_times(
            format!("cell.{}.ns_per_access", cell.name),
            "ns",
            &plain[i],
            |t| t / cell.accesses as f64,
        ));
    }
    let plain_total: f64 = plain.iter().map(|v| fq(v)).sum();
    let wrapped_total: f64 = wrapped.iter().map(|v| fq(v)).sum();
    run.push(Metric::single(
        "trace.overhead_share",
        "share",
        (wrapped_total - plain_total) / plain_total,
    ));
    let all_builds: Vec<f64> = builds.iter().flatten().map(|b| b / 1e3).collect();
    run.push(Metric::with_samples(
        "tpsim.engine.build_us",
        "us",
        builds.iter().map(|v| fq(v)).sum::<f64>() / n as f64 / 1e3,
        &all_builds,
    ));
    let self_samples: Vec<f64> = (0..reps)
        .map(|r| selfs.iter().map(|v| v[r]).sum::<f64>() / total_accesses as f64)
        .collect();
    run.push(Metric::with_samples(
        "tpsim.engine.self_ns_per_access",
        "ns",
        selfs.iter().map(|v| fq(v)).sum::<f64>() / total_accesses as f64,
        &self_samples,
    ));

    // Prefetcher layers, from the wrappers' sums over all repetitions.
    let total = |pick: fn(&CellSums) -> Tally, only: Option<&str>| {
        let mut t = Tally::default();
        for (c, s) in fx.cells.iter().zip(&sums) {
            if only.is_none_or(|k| c.temporal.name() == k) {
                t.add(pick(s));
            }
        }
        t
    };
    let per_rep = |calls: u64| (calls / reps as u64) as f64;
    let (l1, l2) = (total(|s| s.l1, None), total(|s| s.l2, None));
    run.push(Metric::single(
        "tpprefetch.stride.on_access_ns",
        "ns",
        l1.ns_per_call(timer),
    ));
    run.push(Metric::exact(
        "tpprefetch.stride.calls",
        "count",
        per_rep(l1.calls),
    ));
    if l2.calls > 0 {
        run.push(Metric::single(
            "tpprefetch.ipcp.on_access_ns",
            "ns",
            l2.ns_per_call(timer),
        ));
        run.push(Metric::exact(
            "tpprefetch.ipcp.calls",
            "count",
            per_rep(l2.calls),
        ));
    }
    run.push(Metric::exact(
        "tpprefetch.issued_per_call",
        "count",
        (l1.items + l2.items) as f64 / (l1.calls + l2.calls).max(1) as f64,
    ));
    if kind == Kind::Temporal {
        for (layer, k) in [("streamline_core", "streamline"), ("triangel", "triangel")] {
            let ev = total(|s| s.event, Some(k));
            let fb = total(|s| s.feedback, Some(k));
            let llc = total(|s| s.llc, Some(k));
            let ran: u64 = fx
                .cells
                .iter()
                .zip(&sums)
                .filter(|(c, _)| c.temporal.name() == k)
                .map(|(_, s)| s.run_ns)
                .sum();
            run.push(Metric::single(
                format!("{layer}.on_event_ns"),
                "ns",
                ev.ns_per_call(timer),
            ));
            run.push(Metric::exact(
                format!("{layer}.on_event_calls"),
                "count",
                per_rep(ev.calls),
            ));
            run.push(Metric::single(
                format!("{layer}.share_of_run"),
                "share",
                (ev.ns + fb.ns + llc.ns) as f64 / ran as f64,
            ));
            if k == "streamline" {
                run.push(Metric::single(
                    "streamline_core.on_feedback_ns",
                    "ns",
                    fb.ns_per_call(timer),
                ));
                run.push(Metric::single(
                    "streamline_core.observe_llc_ns",
                    "ns",
                    llc.ns_per_call(timer),
                ));
                run.push(Metric::exact(
                    "streamline_core.prefetches_per_event",
                    "count",
                    ev.items as f64 / ev.calls.max(1) as f64,
                ));
            }
        }
        // The recorded calls of every Streamline cell, replayed into a
        // fresh prefetcher with one timer around the whole log: what
        // on_event costs when nothing times each call.
        let (mut ns, mut events) = (0u64, 0usize);
        for s in sums.iter().filter(|s| !s.log.is_empty()) {
            let mut fresh = TemporalKind::Streamline.build().expect("streamline builds");
            ns += replay_log(fresh.as_mut(), &s.log);
            events += s
                .log
                .iter()
                .filter(|c| matches!(c, TemporalCall::Event { .. }))
                .count();
        }
        run.push(Metric::single(
            "streamline_core.replay_on_event_ns",
            "ns",
            ns as f64 / events.max(1) as f64,
        ));
    }

    // Standalone kernels over this workload's own line streams.
    let mut traces: Vec<Arc<Trace>> = Vec::new();
    for c in &fx.cells {
        if !traces.iter().any(|t| Arc::ptr_eq(t, &c.trace)) {
            traces.push(Arc::clone(&c.trace));
        }
    }
    kernels::sim_kernels(run, &traces, kind == Kind::Temporal);
    let times: Vec<f64> = (0..reps).map(|_| pool_hit_batch(fx) * 1e9).collect();
    run.push(Metric::from_times(
        "tptrace.pool.hit_ns",
        "ns",
        &times,
        |t| t / POOL_HITS_PER_BATCH as f64,
    ));
}
