//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload; the last line of stdout is the JSON
//!     object the acceptance driver reads
//! benchmark all [--seed=N] [--runs=N] [--seconds=S] [--trace] [--quick] [--out=FILE]
//!     every workload in its own child process, then a summary
//! benchmark compare A.json B.json
//! benchmark spec
//!     prints BENCHMARK.json
//! ```

mod compare;
mod heap;
mod host;
mod kernels;
mod replay;
mod run;
mod serve;
mod span;
mod spec;
mod stats;
mod sweep;
mod wrap;

use run::{fmt_num, Run};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tpharness::wire::{self, Value};

/// Exact allocation counts and the peak of live heap bytes.
#[global_allocator]
static ALLOC: heap::TrackingAlloc = heap::TrackingAlloc;

/// Where runs leave their result files, sockets and stores.
const OUT_DIR: &str = "benchmark/out";
/// A run that has no result after this long has stalled.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// `--key value` and `--key=value` arguments, plus bare words.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => match flag.split_once('=') {
                    Some((k, v)) => flags.push((k.to_string(), v.to_string())),
                    None => {
                        let takes_value = it.peek().is_some_and(|n| !n.starts_with("--"))
                            && !matches!(flag, "quick");
                        let v = if takes_value {
                            it.next().cloned().unwrap_or_default()
                        } else {
                            "1".to_string()
                        };
                        flags.push((flag.to_string(), v));
                    }
                },
                None => words.push(a.clone()),
            }
        }
        Args { flags, words }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        }
    }

    fn on(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }
}

/// One run of one workload, in this process.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .name;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", spec::RUN_SECONDS as f64)?;
    let traced = args.on("trace");
    let quick = args.on("quick");

    // A stalled server must end the run as a failure, not hang it.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("benchmark: no result after {RUN_LIMIT:?}; a stalled operation counts as failed");
        std::process::exit(3);
    });

    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut run = Run::new(workload, seed, seconds, quick, traced);
    // The latency sentinel runs outside the workload (its 32 MiB would
    // otherwise sit in peak_rss_mb): before and after in the traced
    // pass, after only in the untraced one.
    let mut calib = Vec::new();
    if traced {
        calib.push(host::calib_ns_per_hop());
    }
    match workload {
        "replay_temporal" => replay::run(&mut run, replay::Kind::Temporal),
        "replay_writeback" => replay::run(&mut run, replay::Kind::Writeback),
        "sweep_cold" => sweep::run(&mut run),
        "serve_closed" => serve::run(&mut run, serve::Mode::Serve, out),
        "fleet_closed" => serve::run(&mut run, serve::Mode::Fleet, out),
        _ => unreachable!("checked against the spec above"),
    }
    // Memory is read before the sentinel allocates its 32 MiB.
    let (heap, rss) = (heap::peak_mb(), host::peak_rss_mb());
    calib.push(host::calib_ns_per_hop());
    run.push_common(heap, rss, &calib);

    run.print_table();
    let file = out.join(format!("{workload}.t{}.json", traced as u8));
    std::fs::write(&file, run.result_value().encode() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    if traced {
        let file = out.join("trace.json");
        std::fs::write(&file, run.tracer.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    println!("{}", run.contract_line());
    Ok(if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs this binary again for one workload and relays what it prints,
/// except the driver's JSON line; returns its result file's content, or
/// `None` if the child failed.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let mut proc = cmd.spawn().ok()?;
    let mut stdout = proc.stdout.take()?;
    let relay = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        for line in text.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    });
    let started = Instant::now();
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < RUN_LIMIT + Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => {
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    let _ = relay.join();
    let file = PathBuf::from(OUT_DIR).join(format!("{workload}.t{}.json", traced as u8));
    let result = compare::load(&file.to_string_lossy()).ok()?;
    status?.success().then_some(result)
}

/// Every workload in its own child process, `--runs` laps of them so
/// each is sampled across the whole session, then the traced pass.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.num("seed", 1)?;
    let runs: u64 = args.num("runs", 1)?;
    let quick = args.on("quick");
    let seconds: f64 = args.num("seconds", spec::RUN_SECONDS as f64)?;
    let out_file = args.get("out").map_or_else(
        || PathBuf::from(OUT_DIR).join("results.json"),
        PathBuf::from,
    );
    let mut results = Vec::new();
    let mut broken = Vec::new();
    let mut passes = vec![(false, runs)];
    if args.on("trace") {
        passes.push((true, 1));
    }
    for (traced, laps) in passes {
        for lap in 0..laps {
            for w in spec::WORKLOADS {
                println!();
                match child(w.name, seed + lap, seconds, traced, quick) {
                    Some(r) => results.push(r),
                    None => broken.push(format!(
                        "{} (seed {}, trace {})",
                        w.name,
                        seed + lap,
                        traced as u8
                    )),
                }
            }
        }
    }
    let f = host::fingerprint();
    let set = Value::Obj(vec![
        ("schema".into(), Value::Str("benchmark.v1".into())),
        ("git_commit".into(), Value::Str(f.git_commit)),
        ("profile".into(), Value::Str(f.profile.into())),
        ("seed".into(), Value::u64(seed)),
        ("nproc".into(), Value::u64(f.nproc as u64)),
        ("cpu_model".into(), Value::Str(f.cpu_model)),
        ("runs".into(), Value::Arr(results.clone())),
    ]);
    if let Some(dir) = out_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_file, set.encode() + "\n")
        .map_err(|e| format!("{}: {e}", out_file.display()))?;

    // Summary: the end-to-end metrics of every workload, median over
    // the laps, and the failure share.
    println!("\n# summary ({} run(s) per workload, seed {seed})", runs);
    println!(
        "{:18} {:24} {:>9} {:>5} {:>14} {:>8}",
        "workload", "metric", "unit", "runs", "median", "iqr"
    );
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter(|r| {
                    r.get("workload").and_then(Value::as_str) == Some(w.name)
                        && r.get("trace").and_then(Value::as_u64) == Some(0)
                })
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            if !values.is_empty() {
                println!(
                    "{:18} {:24} {:>9} {:>5} {:>14} {:>7.1}%",
                    w.name,
                    m.name,
                    m.unit,
                    values.len(),
                    fmt_num(stats::median(&values)),
                    100.0 * stats::spread(&values)
                );
            }
        }
    }
    let (attempted, failed) = results.iter().fold((0, 0), |(a, f), r| {
        (
            a + r.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            f + r.get("failed").and_then(Value::as_u64).unwrap_or(0),
        )
    });
    println!(
        "failed_share {} ({failed} of {attempted} operations); results in {}",
        fmt_num(failed as f64 / attempted.max(1) as f64),
        out_file.display()
    );
    for b in &broken {
        println!("FAILED RUN: {b}");
    }
    Ok(if broken.is_empty() && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    // BENCHMARK.json is `spec::benchmark_json()` printed (a unit test
    // keeps them identical), so the built-in copy is the file.
    let spec = wire::parse(spec::benchmark_json().trim()).expect("the built-in spec parses");
    let (report, failed) = compare::compare(&compare::load(a)?, &compare::load(b)?, &spec)?;
    print!("{report}");
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    let outcome = match args.words.first().map(String::as_str) {
        Some("compare") => run_compare(&args),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => run_all(&args),
        None if args.get("workload").is_some() => run_workload(&args),
        None => run_all(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
