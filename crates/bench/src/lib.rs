//! # tpbench — benchmark harness for the Streamline reproduction
//!
//! One binary per paper table/figure regenerates the corresponding rows:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1_partitioning` | Table I — partitioning-scheme taxonomy |
//! | `table2_params` | Table II — system parameters |
//! | `fig09_single_core` | Fig. 9 — single-core speedups per suite |
//! | `fig10_perf` | Fig. 10 — multi-core, bandwidth, coverage/accuracy, degree |
//! | `fig11_regular` | Fig. 11 — Berti and L2-prefetcher baselines |
//! | `fig12_stream_issues` | Fig. 12 — stream length, redundancy, buffer size |
//! | `fig13_metadata` | Fig. 13 — storage efficiency, traffic, TP-MIN |
//! | `fig14_ablation` | Fig. 14 — component ablations |
//! | `fig15_filtering` | Fig. 15 — filtering loss, realignment, skew, hybrid |
//!
//! Run with `--scale=test|small|full` (default `small`) and
//! `--jobs=N` (default: the `TPSIM_JOBS` environment variable, else all
//! available cores) to fan independent simulations out over worker
//! threads. Parallel runs are **bit-identical** to `--jobs=1`: jobs go
//! through [`tpharness::sweep::SweepRunner`], which reassembles results
//! in canonical job order and derives seeds independently of
//! scheduling. Pass `--audit` to check every simulation's counters
//! against the conservation laws in `tpsim::audit` (always on in debug
//! builds; the flag enables the same checks in release runs).
//! Speed is measured from outside, by `benchmark/run.sh`.

pub mod remote;

use std::sync::OnceLock;
use tpharness::baselines::{L1Kind, TemporalKind};
use tpharness::experiment::Experiment;
use tpharness::metrics::PairedRun;
use tpharness::sweep::{SweepJob, SweepRunner};
use tptrace::{Scale, Workload};

/// Parses `--scale=` from argv (default [`Scale::Small`]).
pub fn scale_from_args() -> Scale {
    for a in std::env::args() {
        if let Some(s) = a.strip_prefix("--scale=") {
            return s.parse().unwrap_or_else(|e| panic!("{e}"));
        }
    }
    Scale::Small
}

/// Parses `--jobs=N` from argv. Falls back to the `TPSIM_JOBS`
/// environment variable, then to the machine's available parallelism
/// (both handled by [`SweepRunner::new`]). Thin alias for
/// [`tpharness::jobs::jobs_flag`], the policy shared with `tpserve`.
pub fn jobs_from_args() -> Option<usize> {
    tpharness::jobs::jobs_flag()
}

/// Parses `--audit` from argv: when present, every simulation's
/// counters are checked against the conservation laws in `tpsim::audit`
/// and a violation aborts the run (debug builds always check; this is
/// the release-mode gate).
pub fn audit_from_args() -> bool {
    std::env::args().any(|a| a == "--audit")
}

/// The process-wide sweep runner shared by every figure section, so the
/// result cache spans a whole binary: a config revisited across
/// sections (the stride baseline, most commonly) is simulated once.
pub fn runner() -> &'static SweepRunner {
    static RUNNER: OnceLock<SweepRunner> = OnceLock::new();
    RUNNER.get_or_init(|| {
        let runner = SweepRunner::new().with_audit(audit_from_args());
        let runner = match jobs_from_args() {
            Some(n) => runner.with_workers(n),
            None => runner,
        };
        eprintln!(
            "sweep runner: {} worker(s){}",
            runner.workers(),
            if runner.audits() {
                ", conservation-law audit on"
            } else {
                ""
            }
        );
        runner
    })
}

/// Runs a batch of sweep jobs: through a `tpserve` instance when the
/// `TPSIM_SERVER` environment variable names one (see [`remote`]),
/// otherwise through the shared local [`runner`]. Reports come back in
/// job order and are byte-identical either way — the server's workers
/// and the runner's both call `SweepJob::run`.
pub fn run_jobs(jobs: &[SweepJob]) -> Vec<tpsim::SimReport> {
    if let Some(addr) = remote::server_addr() {
        eprintln!("  routing {} job(s) through tpserve at {addr}", jobs.len());
        match remote::run_via_server(&addr, jobs) {
            Ok(reports) => return reports,
            Err(e) => eprintln!("  tpserve at {addr} unusable ({e}); running locally"),
        }
    }
    let reports = runner().run(jobs);
    eprintln!("  {}", runner().pool_summary());
    reports
}

/// Runs `pool` under `base` and `with` through [`run_jobs`] (server
/// routing when enabled, the shared parallel [`runner`] otherwise),
/// returning paired results in pool order and printing one progress
/// line per workload. Results are cached per
/// `(workload, experiment fingerprint)` within the process, so sweeps
/// that revisit a configuration don't re-simulate it.
pub fn paired_runs(pool: &[Workload], base: &Experiment, with: &Experiment) -> Vec<PairedRun> {
    let jobs: Vec<SweepJob> = pool
        .iter()
        .flat_map(|w| {
            [
                SweepJob::single(w.clone(), base.clone()),
                SweepJob::single(w.clone(), with.clone()),
            ]
        })
        .collect();
    let reports = run_jobs(&jobs);
    pool.iter()
        .zip(reports.chunks_exact(2))
        .map(|(w, pair)| {
            let (b, x) = (pair[0].clone(), pair[1].clone());
            eprintln!(
                "  {:20} base {:.3} -> {:.3} ({:+.1}%)",
                w.name,
                b.cores[0].ipc(),
                x.cores[0].ipc(),
                (x.cores[0].ipc() / b.cores[0].ipc().max(1e-12) - 1.0) * 100.0
            );
            PairedRun {
                workload: w.clone(),
                base: b,
                with: x,
            }
        })
        .collect()
}

/// Runs every `(mix, experiment)` combination through [`run_jobs`]
/// (server routing when enabled) and returns the reports grouped per
/// mix, in submission order: `result[i][j]` is `mixes[i]` under
/// `exps[j]`.
pub fn mix_runs(mixes: &[tptrace::Mix], exps: &[Experiment]) -> Vec<Vec<tpsim::SimReport>> {
    let jobs: Vec<SweepJob> = mixes
        .iter()
        .flat_map(|m| exps.iter().map(|e| SweepJob::mix(m.clone(), e.clone())))
        .collect();
    let reports = run_jobs(&jobs);
    reports
        .chunks_exact(exps.len().max(1))
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// A representative six-workload subset of the irregular pool used by
/// the parameter-sweep figures (12, 14, 15), keeping sweep runtimes
/// tractable while covering the three suites and both metadata regimes
/// (fits-in-store and capacity-strained).
pub fn sweep_pool() -> Vec<Workload> {
    ["spec06.mcf", "spec06.xalancbmk", "spec06.omnetpp", "gap.pr", "gap.bfs", "gap.tc"]
        .iter()
        .filter_map(|n| workloads::by_name(n))
        .collect()
}

use tptrace::workloads;

/// The paper's standard baseline: L1D IP-stride prefetcher only.
pub fn stride_baseline(scale: Scale) -> Experiment {
    Experiment::new(scale).l1(L1Kind::Stride)
}

/// The standard candidate experiments for the headline comparisons.
pub fn contenders(scale: Scale) -> Vec<(&'static str, Experiment)> {
    vec![
        (
            "triangel",
            stride_baseline(scale).temporal(TemporalKind::Triangel),
        ),
        (
            "streamline",
            stride_baseline(scale).temporal(TemporalKind::Streamline),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        assert_eq!(scale_from_args(), Scale::Small);
    }

    #[test]
    fn jobs_flag_defaults_to_unset() {
        assert_eq!(jobs_from_args(), None);
    }

    #[test]
    fn paired_runs_go_through_the_shared_cache() {
        let pool = [workloads::by_name("spec06.bzip2").unwrap()];
        let base = stride_baseline(Scale::Test);
        let with = base.clone().temporal(TemporalKind::Streamline);
        let a = paired_runs(&pool, &base, &with);
        let cached = runner().cached_jobs();
        let b = paired_runs(&pool, &base, &with);
        assert_eq!(runner().cached_jobs(), cached, "second sweep fully cached");
        assert_eq!(a[0].base.cores[0].cycles, b[0].base.cores[0].cycles);
        assert_eq!(a[0].with.cores[0].cycles, b[0].with.cores[0].cycles);
    }

    #[test]
    fn contenders_cover_both_prefetchers() {
        let c = contenders(Scale::Test);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].0, "triangel");
        assert_eq!(c[1].0, "streamline");
    }
}
