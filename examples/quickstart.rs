//! Quickstart: run one workload under the baseline, Triangel, and
//! Streamline, and print speedups, coverage, and metadata traffic.
//!
//! ```sh
//! cargo run --release --example quickstart [workload] [test|small|full]
//! ```

use streamline_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "spec06.mcf".into());
    let scale = match args.next().as_deref() {
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        _ => Scale::Test,
    };
    let Some(workload) = workloads::by_name(&name) else {
        eprintln!("unknown workload {name:?}; available:");
        for w in workloads::memory_intensive() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(1);
    };

    println!(
        "workload: {} ({:?}, scale {scale})",
        workload.name, workload.suite
    );
    // Shared-pool fetch: run_single below asks the pool for the same
    // (workload, seed, scale) key and replays this very allocation.
    let trace = workload.generate_shared(scale);
    println!("trace: {}", trace.stats());

    let base = Experiment::new(scale).l1(L1Kind::Stride);
    let base_run = run_single(&workload, &base);
    println!(
        "\n{:12} ipc {:.3}  L2 MPKI {:.2}",
        "baseline",
        base_run.cores[0].ipc(),
        base_run.cores[0].l2_mpki()
    );

    for (label, kind) in [
        ("triangel", TemporalKind::Triangel),
        ("streamline", TemporalKind::Streamline),
    ] {
        let r = run_single(&workload, &base.clone().temporal(kind));
        let c = &r.cores[0];
        println!(
            "{:12} ipc {:.3} ({:+.1}%)  coverage {:.1}%  accuracy {:.1}%  metadata traffic {} blocks",
            label,
            c.ipc(),
            (c.ipc() / base_run.cores[0].ipc() - 1.0) * 100.0,
            c.temporal_coverage() * 100.0,
            c.temporal_accuracy() * 100.0,
            c.temporal.traffic_blocks(),
        );
    }
}
