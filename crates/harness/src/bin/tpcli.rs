//! `tpcli` — command-line front end for the Streamline reproduction.
//!
//! ```text
//! tpcli list                               # available workloads
//! tpcli run <workload> [options]           # run one experiment
//! tpcli compare <workload> [options]       # baseline vs triangel vs streamline
//! tpcli export <workload> <file> [--scale] # serialize a trace to disk
//! tpcli inspect <file>                     # stats of a serialized trace
//! ```
//!
//! Options: `--scale=test|small|full`, `--l1=none|stride|berti`,
//! `--l2=none|ipcp|bingo|spp-ppf`,
//! `--temporal=none|triage|triangel|triangel-ideal|streamline`,
//! `--bandwidth=<factor>`, `--audit` (verify the run's counters against
//! the conservation laws in `tpsim::audit`; always on in debug builds).

use tpharness::baselines::{L1Kind, L2Kind, TemporalKind};
use tpharness::experiment::{run_single, Experiment};
use tpharness::report::Table;
use tptrace::{workloads, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: tpcli <list|run|compare|export|inspect> [args] [--scale=..] [--l1=..] [--l2=..] [--temporal=..] [--bandwidth=..] [--audit]"
    );
    std::process::exit(2);
}

struct Opts {
    scale: Scale,
    l1: L1Kind,
    l2: L2Kind,
    temporal: TemporalKind,
    bandwidth: f64,
    audit: bool,
    positional: Vec<String>,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        scale: Scale::Small,
        l1: L1Kind::Stride,
        l2: L2Kind::None,
        temporal: TemporalKind::None,
        bandwidth: 1.0,
        audit: false,
        positional: Vec::new(),
    };
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--scale=") {
            o.scale = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--l1=") {
            o.l1 = L1Kind::from_name(v).unwrap_or_else(|| usage());
        } else if let Some(v) = a.strip_prefix("--l2=") {
            o.l2 = L2Kind::from_name(v).unwrap_or_else(|| usage());
        } else if let Some(v) = a.strip_prefix("--temporal=") {
            o.temporal = TemporalKind::from_name(v).unwrap_or_else(|| usage());
        } else if let Some(v) = a.strip_prefix("--bandwidth=") {
            o.bandwidth = v.parse().unwrap_or_else(|_| usage());
        } else if a == "--audit" {
            o.audit = true;
        } else if a.starts_with("--") {
            usage();
        } else {
            o.positional.push(a);
        }
    }
    if let Err(e) = experiment(&o).validate() {
        eprintln!("tpcli: {e}");
        usage();
    }
    o
}

fn experiment(o: &Opts) -> Experiment {
    Experiment::new(o.scale)
        .l1(o.l1)
        .l2(o.l2)
        .temporal(o.temporal)
        .bandwidth(o.bandwidth)
}

fn workload_or_exit(name: &str) -> tptrace::Workload {
    workloads::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}; run `tpcli list`");
        std::process::exit(1);
    })
}

fn audit_or_exit(o: &Opts, label: &str, r: &tpsim::SimReport) {
    if !o.audit {
        return;
    }
    if r.audit.passed() {
        eprintln!("[{label}] {}", r.audit);
    } else {
        eprintln!("conservation-law audit failed for {label}:\n{}", r.audit);
        std::process::exit(1);
    }
}

fn main() {
    let o = parse_opts();
    let Some(cmd) = o.positional.first().map(String::as_str) else {
        usage()
    };
    match cmd {
        "list" => {
            let mut t = Table::new(
                "Workloads",
                &["name", "suite", "irregular", "accesses (test scale)"],
            );
            for w in workloads::memory_intensive() {
                let n = w.generate_shared(Scale::Test).len();
                t.row(&[
                    w.name.to_string(),
                    format!("{:?}", w.suite),
                    w.irregular.to_string(),
                    n.to_string(),
                ]);
            }
            t.print();
        }
        "run" => {
            let name = o
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let w = workload_or_exit(name);
            let r = run_single(&w, &experiment(&o));
            audit_or_exit(&o, name, &r);
            let c = &r.cores[0];
            println!("workload    : {name} ({})", o.scale);
            println!("ipc         : {:.4}", c.ipc());
            println!("l2 mpki     : {:.2}", c.l2_mpki());
            println!("coverage    : {:.1}%", c.temporal_coverage() * 100.0);
            println!("accuracy    : {:.1}%", c.temporal_accuracy() * 100.0);
            println!("meta traffic: {} blocks", c.temporal.traffic_blocks());
            println!(
                "dram        : {} reads / {} writes",
                r.dram.reads, r.dram.writes
            );
        }
        "compare" => {
            let name = o
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let w = workload_or_exit(name);
            let base = experiment(&o).temporal(TemporalKind::None);
            let b = run_single(&w, &base);
            audit_or_exit(&o, "baseline", &b);
            let mut t = Table::new(
                format!("{name} ({})", o.scale),
                &[
                    "config",
                    "ipc",
                    "speedup",
                    "coverage",
                    "accuracy",
                    "meta blocks",
                ],
            );
            t.row(&[
                "baseline".into(),
                format!("{:.4}", b.cores[0].ipc()),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
            for (label, kind) in [
                ("triage", TemporalKind::Triage),
                ("triangel", TemporalKind::Triangel),
                ("streamline", TemporalKind::Streamline),
            ] {
                let r = run_single(&w, &base.clone().temporal(kind));
                audit_or_exit(&o, label, &r);
                let c = &r.cores[0];
                t.row(&[
                    label.into(),
                    format!("{:.4}", c.ipc()),
                    format!("{:+.1}%", (c.ipc() / b.cores[0].ipc() - 1.0) * 100.0),
                    format!("{:.1}%", c.temporal_coverage() * 100.0),
                    format!("{:.1}%", c.temporal_accuracy() * 100.0),
                    c.temporal.traffic_blocks().to_string(),
                ]);
            }
            t.print();
        }
        "export" => {
            let name = o
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let path = o
                .positional
                .get(2)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let w = workload_or_exit(name);
            let trace = w.generate_shared(o.scale);
            tptrace::io::save(&trace, path).unwrap_or_else(|e| {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            });
            println!("wrote {} accesses to {path}", trace.len());
        }
        "inspect" => {
            let path = o
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let trace = tptrace::io::load(path).unwrap_or_else(|e| {
                eprintln!("inspect failed: {e}");
                std::process::exit(1);
            });
            println!("name : {}", trace.name());
            println!("suite: {:?}", trace.suite());
            println!("stats: {}", trace.stats());
            let bytes = trace.resident_bytes();
            let per_access = bytes as f64 / trace.len().max(1) as f64;
            println!("resident: {bytes} bytes ({per_access:.2} B/access)");
        }
        _ => usage(),
    }
}
