//! Figure 9: single-core speedups of Triangel and Streamline over the
//! L1D-stride baseline, broken down by suite, the memory-intensive set,
//! and the irregular subset.

use crate::{contenders, paired_runs, stride_baseline};
use tpharness::metrics::summarize;
use tpharness::report::Table;
use tptrace::{workloads, Scale, Suite};

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let pool = workloads::memory_intensive();
    let base = stride_baseline(scale);

    let mut table = Table::new(
        format!("Figure 9: Single-Core Speedup over stride baseline ({scale})"),
        &["prefetcher", "SPEC06", "SPEC17", "GAP", "all", "irregular"],
    );
    let mut per_workload = Table::new(
        "Figure 9 (per workload speedup %)",
        &["workload", "triangel", "streamline"],
    );
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); pool.len()];

    for (name, exp) in contenders(scale) {
        eprintln!("== {name} ==");
        let runs = paired_runs(&pool, &base, &exp);
        let spec06 = summarize(runs.iter(), Some(Suite::Spec06));
        let spec17 = summarize(runs.iter(), Some(Suite::Spec17));
        let gap = summarize(runs.iter(), Some(Suite::Gap));
        let all = summarize(runs.iter(), None);
        let irr_runs: Vec<_> = runs
            .iter()
            .filter(|r| r.workload.irregular)
            .cloned()
            .collect();
        let irr = summarize(irr_runs.iter(), None);
        table.row(&[
            name.to_string(),
            format!("{:+.1}%", spec06.speedup_pct),
            format!("{:+.1}%", spec17.speedup_pct),
            format!("{:+.1}%", gap.speedup_pct),
            format!("{:+.1}%", all.speedup_pct),
            format!("{:+.1}%", irr.speedup_pct),
        ]);
        for (i, r) in runs.iter().enumerate() {
            if cells[i].is_empty() {
                cells[i].push(r.workload.name.to_string());
            }
            cells[i].push(format!("{:+.1}%", (r.speedup() - 1.0) * 100.0));
        }
    }
    for row in cells {
        per_workload.row(&row);
    }
    out += &table.render();
    out.push('\n');
    out += &per_workload.render();
    out += "\npaper shape: Streamline > Triangel on every suite; biggest gap on GAP.\n";
    out
}
