//! Metadata budget planner: a downstream-user-flavoured tool that
//! answers "how much LLC should I spend on temporal-prefetcher metadata
//! for *this* workload?" by sweeping Streamline partition sizes and the
//! dynamic partitioner, then reporting the efficient frontier.
//!
//! ```sh
//! cargo run --release --example metadata_budget_planner [workload]
//! ```

use streamline_repro::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "spec06.xalancbmk".into());
    let scale = Scale::Test;
    let Some(workload) = workloads::by_name(&name) else {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    };
    println!(
        "planning metadata budget for {} at {scale} scale\n",
        workload.name
    );

    let base = Experiment::new(scale).l1(L1Kind::Stride);
    let base_ipc = run_single(&workload, &base).cores[0].ipc();

    let mut table = Table::new(
        "Budget sweep",
        &[
            "budget",
            "LLC given up",
            "speedup",
            "coverage",
            "traffic blocks",
        ],
    );
    let sizes = [
        ("0 (samples only)", Some(PartitionSize::SamplesOnly)),
        ("0.25 MB", Some(PartitionSize::Quarter)),
        ("0.5 MB", Some(PartitionSize::Half)),
        ("1 MB", Some(PartitionSize::Full)),
        ("dynamic", None),
    ];
    let mut best: (f64, &str) = (f64::MIN, "none");
    for (label, fixed) in sizes {
        let cfg = StreamlineConfig {
            fixed_size: fixed,
            ..StreamlineConfig::default()
        };
        let r = run_single(
            &workload,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let c = &r.cores[0];
        let speedup = (c.ipc() / base_ipc - 1.0) * 100.0;
        if speedup > best.0 {
            best = (speedup, label);
        }
        let given_up = match fixed {
            Some(s) => format!("{} KB", s.capacity_bytes(2048, 8) >> 10),
            None => "adaptive".into(),
        };
        table.row(&[
            label.into(),
            given_up,
            format!("{:+.1}%", speedup),
            format!("{:.1}%", c.temporal_coverage() * 100.0),
            c.temporal.traffic_blocks().to_string(),
        ]);
    }
    table.print();
    println!("\nrecommendation: {} ({:+.1}%)", best.1, best.0);
}
