//! Figure 15: mitigating filtering coverage loss at small partition
//! sizes — realignment recovery, skewed indexing, and hybrid
//! partitioning, against unfiltered (RTS) and unconstrained references.

use crate::{paired_runs, stride_baseline, sweep_pool};
use streamline_core::{PartitionSize, StreamlineConfig};
use tpharness::baselines::TemporalKind;
use tpharness::metrics::summarize;
use tpharness::report::Table;
use tptrace::Scale;

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let pool = sweep_pool();
    let base = stride_baseline(scale);
    let small = PartitionSize::Quarter; // filtering bites hardest here

    let quarter = StreamlineConfig {
        fixed_size: Some(small),
        ..StreamlineConfig::default()
    };
    let variants: Vec<(&str, StreamlineConfig)> = vec![
        (
            "filtered, no realignment",
            StreamlineConfig {
                realignment: false,
                ..quarter
            },
        ),
        ("filtered + realignment", quarter),
        (
            "filtered + realign + skew",
            StreamlineConfig {
                skewed: true,
                ..quarter
            },
        ),
        (
            "hybrid partition (1024x4)",
            StreamlineConfig {
                hybrid: true,
                ..quarter
            },
        ),
        (
            "unfiltered (RTS reference)",
            StreamlineConfig {
                filtering: false,
                realignment: false,
                ..quarter
            },
        ),
    ];

    let mut t = Table::new(
        format!("Figure 15: Filtering Coverage Loss at 0.25MB ({scale})"),
        &[
            "variant",
            "speedup",
            "coverage",
            "filtered",
            "realigned",
            "shuffle blocks",
        ],
    );
    for (name, cfg) in variants {
        eprintln!("== {name} ==");
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let s = summarize(runs.iter(), None);
        let (mut filtered, mut realigned, mut shuffled) = (0u64, 0u64, 0u64);
        for r in &runs {
            let x = r.with.cores[0].temporal;
            filtered += x.filtered;
            realigned += x.realigned;
            shuffled += x.rearranged_blocks;
        }
        t.row(&[
            name.into(),
            format!("{:+.1}%", s.speedup_pct),
            format!("{:.1}%", s.coverage_pct),
            filtered.to_string(),
            realigned.to_string(),
            shuffled.to_string(),
        ]);
    }
    out += &t.render();
    out += "\npaper shape: realignment recoups most filtering loss; skew recovers the rest; hybrid can beat unfiltered.\n";
    out
}
