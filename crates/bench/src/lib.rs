#![forbid(unsafe_code)]
//! # tpbench — the paper's tables and figures
//!
//! One binary, `tpbench`, renders every paper table and figure in one
//! process; each has a module whose `render(scale)` returns the text:
//!
//! | Name | Paper artefact |
//! |---|---|
//! | `table1` | Table I — partitioning-scheme taxonomy |
//! | `table2` | Table II — system parameters |
//! | `fig09` | Fig. 9 — single-core speedups per suite |
//! | `fig10` | Fig. 10 — multi-core, bandwidth, coverage/accuracy, degree |
//! | `fig11` | Fig. 11 — Berti and L2-prefetcher baselines |
//! | `fig12` | Fig. 12 — stream length, redundancy, buffer size |
//! | `fig13` | Fig. 13 — storage efficiency, traffic, TP-MIN |
//! | `fig14` | Fig. 14 — component ablations |
//! | `fig15` | Fig. 15 — filtering loss, realignment, skew, hybrid |
//!
//! `tpbench [--scale=S] [--jobs=N] [--audit] [--out=DIR] [NAME...]`
//! renders the named artefacts (all of them when none is named) to
//! stdout, or each to `DIR/NAME.txt`. `--scale=test|small|full`
//! defaults to `small`; `--jobs=N` defaults to the `TPSIM_JOBS`
//! environment variable, else all available cores. Parallel runs are
//! **bit-identical** to `--jobs=1`: jobs go through one
//! [`tpharness::sweep::SweepRunner`], which reassembles results in
//! canonical job order and derives seeds independently of scheduling.
//! Its cache is keyed by `SweepJob::key` and spans the process, so a job
//! several artefacts share (the stride baseline, default Streamline on
//! the irregular pool) is simulated once. `--audit` checks every
//! simulation's counters against the conservation laws in
//! `tpsim::audit` (always on in debug builds; the flag enables the same
//! checks in release runs). Speed is measured from outside, by
//! `benchmark/run.sh`.

mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod table1;
mod table2;

use std::path::PathBuf;
use std::sync::OnceLock;
use tpharness::baselines::{L1Kind, TemporalKind};
use tpharness::experiment::Experiment;
use tpharness::metrics::PairedRun;
use tpharness::sweep::{SweepJob, SweepRunner};
use tptrace::{workloads, Scale, Workload};

/// One table or figure: the stem of its `results/NAME.txt` file and
/// the function that renders that file's bytes at a scale.
pub type Artefact = (&'static str, fn(Scale) -> String);

/// Every artefact, in the order a bare `tpbench` renders them.
pub const ARTEFACTS: [Artefact; 9] = [
    ("table1", table1::render),
    ("table2", table2::render),
    ("fig09", fig09::render),
    ("fig10", fig10::render),
    ("fig11", fig11::render),
    ("fig12", fig12::render),
    ("fig13", fig13::render),
    ("fig14", fig14::render),
    ("fig15", fig15::render),
];

/// The command line, as a parse error reports it.
pub const USAGE: &str =
    "usage: tpbench [--scale=test|small|full] [--jobs=N] [--audit] [--out=DIR] [NAME...]
  NAME is one of table1 table2 fig09 fig10 fig11 fig12 fig13 fig14 fig15 (default: all)";

/// A parsed `tpbench` command line.
#[derive(Debug)]
pub struct Options {
    /// `--scale=`; [`Scale::Small`] when absent.
    pub scale: Scale,
    /// `--jobs=N`; `None` leaves the choice to [`SweepRunner::new`].
    pub jobs: Option<usize>,
    /// `--audit`: check every simulation against `tpsim::audit`.
    pub audit: bool,
    /// `--out=DIR`: write `DIR/NAME.txt` instead of stdout.
    pub out: Option<PathBuf>,
    /// The named artefacts in command-line order, or all of them.
    pub artefacts: Vec<Artefact>,
}

impl Options {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    /// An unknown flag or name, or a bad value, as a message that ends
    /// with [`USAGE`].
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            scale: Scale::Small,
            jobs: None,
            audit: false,
            out: None,
            artefacts: Vec::new(),
        };
        let bad = |what: String| format!("{what}\n{USAGE}");
        for a in args {
            if let Some(s) = a.strip_prefix("--scale=") {
                opts.scale = s.parse().map_err(bad)?;
            } else if let Some(j) = a.strip_prefix("--jobs=") {
                match j.parse() {
                    Ok(n) if n > 0 => opts.jobs = Some(n),
                    _ => return Err(bad(format!("--jobs wants a positive integer, not {j:?}"))),
                }
            } else if a == "--audit" {
                opts.audit = true;
            } else if let Some(dir) = a.strip_prefix("--out=") {
                opts.out = Some(PathBuf::from(dir));
            } else if a.starts_with('-') {
                return Err(bad(format!("unknown flag {a:?}")));
            } else {
                match ARTEFACTS.iter().find(|(name, _)| *name == a) {
                    Some(art) => opts.artefacts.push(*art),
                    None => return Err(bad(format!("unknown artefact {a:?}"))),
                }
            }
        }
        if opts.artefacts.is_empty() {
            opts.artefacts = ARTEFACTS.to_vec();
        }
        Ok(opts)
    }
}

/// Builds the process-wide sweep runner with `jobs` workers (`None`:
/// `TPSIM_JOBS`, else all cores) and the audit on or off. Only the
/// first call, or the first [`runner`], decides; later calls return the
/// runner already built.
pub fn configure(jobs: Option<usize>, audit: bool) -> &'static SweepRunner {
    static RUNNER: OnceLock<SweepRunner> = OnceLock::new();
    RUNNER.get_or_init(|| {
        let runner = SweepRunner::new().with_audit(audit);
        let runner = match jobs {
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

/// The process-wide sweep runner every artefact shares, so the result
/// cache spans the whole process: a config revisited across sections
/// or figures (the stride baseline, most commonly) is simulated once.
pub fn runner() -> &'static SweepRunner {
    configure(None, false)
}

/// Runs a batch of sweep jobs through the shared [`runner`], reports in
/// job order, and prints the trace pool's summary line.
fn run_jobs(jobs: &[SweepJob]) -> Vec<tpsim::SimReport> {
    let reports = runner().run(jobs);
    eprintln!("  {}", runner().pool_summary());
    reports
}

/// Runs `pool` under `base` and `with` through the shared parallel
/// [`runner`], returning paired results in pool order and printing one
/// progress line per workload. Results are cached per
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

/// Runs every `(mix, experiment)` combination through the shared
/// [`runner`] and returns the reports grouped per mix, in submission
/// order: `result[i][j]` is `mixes[i]` under `exps[j]`.
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
    [
        "spec06.mcf",
        "spec06.xalancbmk",
        "spec06.omnetpp",
        "gap.pr",
        "gap.bfs",
        "gap.tc",
    ]
    .iter()
    .filter_map(|n| workloads::by_name(n))
    .collect()
}

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

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    fn names(opts: &Options) -> Vec<&'static str> {
        opts.artefacts.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn default_scale_is_small() {
        assert_eq!(parse(&[]).unwrap().scale, Scale::Small);
    }

    #[test]
    fn jobs_flag_defaults_to_unset() {
        assert_eq!(parse(&[]).unwrap().jobs, None);
    }

    #[test]
    fn no_names_means_every_artefact_and_names_keep_their_order() {
        let all = parse(&[]).unwrap();
        assert_eq!(names(&all), ARTEFACTS.map(|(name, _)| name));
        assert!(!all.audit && all.out.is_none());
        let args = [
            "--scale=test",
            "--jobs=2",
            "--audit",
            "--out=x",
            "fig12",
            "table1",
        ];
        let some = parse(&args).unwrap();
        assert_eq!(names(&some), ["fig12", "table1"]);
        assert_eq!(some.scale, Scale::Test);
        assert_eq!((some.jobs, some.audit), (Some(2), true));
        assert_eq!(some.out, Some(PathBuf::from("x")));
    }

    #[test]
    fn unknown_names_flags_and_values_are_rejected_with_the_usage() {
        for args in [
            &["fig16"][..],
            &["fig10_perf"],
            &["--quick"],
            &["fig10", "--quick"],
            &["--bin"],
            &["--scale=huge"],
            &["--jobs=0"],
            &["--jobs=two"],
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.ends_with(USAGE), "{args:?}: {err}");
        }
    }

    const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

    #[test]
    fn the_artefacts_are_the_committed_results() {
        let mut stems: Vec<String> = std::fs::read_dir(RESULTS)
            .expect("results/ is committed")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(name.strip_suffix(".txt")?.to_string())
            })
            .collect();
        stems.sort();
        let mut names = ARTEFACTS.map(|(name, _)| name);
        names.sort_unstable();
        assert_eq!(stems, names);
    }

    #[test]
    fn scale_free_tables_render_the_committed_bytes() {
        for (name, render) in ARTEFACTS
            .iter()
            .filter(|(name, _)| name.starts_with("table"))
        {
            let path = format!("{RESULTS}/{name}.txt");
            let committed = std::fs::read_to_string(&path).expect("committed table");
            assert_eq!(render(Scale::Test), committed, "{name}");
        }
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
