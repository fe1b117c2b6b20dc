//! Figure 14: ablation study — the contribution of each Streamline
//! component to coverage, accuracy, and speedup.
//!
//! Additions start from Streamline-unopt (stream format only); removals
//! start from the complete prefetcher.

use crate::{paired_runs, stride_baseline, sweep_pool};
use streamline_core::StreamlineConfig;
use tpharness::baselines::TemporalKind;
use tpharness::metrics::summarize;
use tpharness::report::Table;
use tptrace::Scale;

fn variants() -> Vec<(&'static str, StreamlineConfig)> {
    let unopt = StreamlineConfig::unoptimized();
    let full = StreamlineConfig::default();
    vec![
        ("unopt", unopt),
        (
            "+MB",
            StreamlineConfig {
                buffer_entries: 3,
                ..unopt
            },
        ),
        (
            "+SA",
            StreamlineConfig {
                alignment: true,
                ..unopt
            },
        ),
        (
            "+MB,SA",
            StreamlineConfig {
                buffer_entries: 3,
                alignment: true,
                ..unopt
            },
        ),
        ("+TSP", StreamlineConfig { tsp: true, ..unopt }),
        (
            "+TP-MJ",
            StreamlineConfig {
                tpmj: true,
                ..unopt
            },
        ),
        (
            "+TSP,TP-MJ",
            StreamlineConfig {
                tsp: true,
                tpmj: true,
                ..unopt
            },
        ),
        ("full", full),
        (
            "-MB,SA",
            StreamlineConfig {
                buffer_entries: 1,
                alignment: false,
                ..full
            },
        ),
        ("-TSP", StreamlineConfig { tsp: false, ..full }),
        (
            "-TP-MJ",
            StreamlineConfig {
                tpmj: false,
                ..full
            },
        ),
    ]
}

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let pool = sweep_pool();
    let base = stride_baseline(scale);

    let mut t = Table::new(
        format!("Figure 14: Ablation Study ({scale}, irregular subset)"),
        &["variant", "speedup", "coverage", "accuracy"],
    );
    for (name, cfg) in variants() {
        eprintln!("== {name} ==");
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let s = summarize(runs.iter(), None);
        t.row(&[
            name.into(),
            format!("{:+.1}%", s.speedup_pct),
            format!("{:.1}%", s.coverage_pct),
            format!("{:.1}%", s.accuracy_pct),
        ]);
    }
    // Triangel reference line.
    eprintln!("== triangel (reference) ==");
    let runs = paired_runs(&pool, &base, &base.clone().temporal(TemporalKind::Triangel));
    let s = summarize(runs.iter(), None);
    t.row(&[
        "triangel(ref)".into(),
        format!("{:+.1}%", s.speedup_pct),
        format!("{:.1}%", s.coverage_pct),
        format!("{:.1}%", s.accuracy_pct),
    ]);
    out += &t.render();
    out += "\npaper shape: MB and SA pay jointly; TSP boosts coverage; TP-MJ boosts accuracy; every removal hurts.\n";
    out
}
