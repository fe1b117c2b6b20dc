//! Figure 13: efficient metadata management.
//!
//! (a) performance vs. metadata store size — Streamline at 0.5 MB should
//!     match Triangel at 1 MB; Triangel-Ideal (dedicated 1 MB) included;
//! (b) metadata traffic vs. store size — stream format plus filtered
//!     indexing cuts traffic;
//! (c) correlation hit rate — TP-Mockingjay vs LRU on Streamline, vs
//!     Triangel, plus the offline MIN vs TP-MIN comparison.

use crate::{paired_runs, stride_baseline};
use streamline_core::{PartitionSize, StreamlineConfig};
use tpharness::baselines::TemporalKind;
use tpharness::metrics::summarize;
use tpharness::report::Table;
use tpreplace::{min_sim, tpmin_sim};
use tptrace::{workloads, Scale};

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let pool = workloads::irregular_subset();
    let base = stride_baseline(scale);

    // --- (a) performance and (b) traffic vs. store size --------------
    let mut a = Table::new(
        format!("Figure 13a/b: Metadata Store Size Sweep ({scale})"),
        &["config", "size", "speedup", "coverage", "traffic blocks"],
    );
    let sweep: Vec<(&str, TemporalKind, &str)> = vec![
        (
            "streamline",
            TemporalKind::StreamlineCfg(StreamlineConfig {
                fixed_size: Some(PartitionSize::Quarter),
                ..StreamlineConfig::default()
            }),
            "0.25MB",
        ),
        (
            "streamline",
            TemporalKind::StreamlineCfg(StreamlineConfig {
                fixed_size: Some(PartitionSize::Half),
                ..StreamlineConfig::default()
            }),
            "0.5MB",
        ),
        (
            "streamline",
            TemporalKind::StreamlineCfg(StreamlineConfig {
                fixed_size: Some(PartitionSize::Full),
                ..StreamlineConfig::default()
            }),
            "1MB",
        ),
        ("triangel", TemporalKind::TriangelFixed(2), "0.25MB"),
        ("triangel", TemporalKind::TriangelFixed(4), "0.5MB"),
        ("triangel", TemporalKind::TriangelFixed(8), "1MB"),
        ("triangel-ideal", TemporalKind::TriangelIdeal, "1MB(ded.)"),
    ];
    for (name, kind, size) in sweep {
        eprintln!("== {name} @ {size} ==");
        let runs = paired_runs(&pool, &base, &base.clone().temporal(kind));
        let s = summarize(runs.iter(), None);
        let traffic: u64 = runs
            .iter()
            .map(|r| r.with.cores[0].temporal.traffic_blocks())
            .sum();
        a.row(&[
            name.into(),
            size.into(),
            format!("{:+.1}%", s.speedup_pct),
            format!("{:.1}%", s.coverage_pct),
            traffic.to_string(),
        ]);
    }
    out += &a.render();
    out.push('\n');

    // --- (c) correlation hit rate: replacement policies ---------------
    let mut c = Table::new(
        format!("Figure 13c: Correlation Hit Rate ({scale})"),
        &["config", "correlation hit rate", "trigger hit rate"],
    );
    let policies: Vec<(&str, TemporalKind)> = vec![
        (
            "streamline (TP-MJ)",
            TemporalKind::StreamlineCfg(StreamlineConfig::default()),
        ),
        (
            "streamline (LRU)",
            TemporalKind::StreamlineCfg(StreamlineConfig {
                tpmj: false,
                ..StreamlineConfig::default()
            }),
        ),
        ("triangel (SRRIP-like)", TemporalKind::Triangel),
    ];
    for (name, kind) in policies {
        eprintln!("== {name} ==");
        let runs = paired_runs(&pool, &base, &base.clone().temporal(kind));
        let (mut corr, mut trig, mut look) = (0u64, 0u64, 0u64);
        for r in &runs {
            let t = r.with.cores[0].temporal;
            corr += t.correlation_hits;
            trig += t.trigger_hits;
            look += t.trigger_lookups;
        }
        c.row(&[
            name.into(),
            format!("{:.1}%", corr as f64 * 100.0 / look.max(1) as f64),
            format!("{:.1}%", trig as f64 * 100.0 / look.max(1) as f64),
        ]);
    }
    out += &c.render();
    out.push('\n');

    // --- offline MIN vs TP-MIN (Section IV-D1 / Figure 6 at scale) ----
    let mut o = Table::new(
        "Offline replacement on extracted correlation streams",
        &[
            "workload",
            "capacity",
            "MIN corr-hits",
            "TP-MIN corr-hits",
            "TP-MIN/MIN",
        ],
    );
    for name in ["spec06.mcf", "gap.pr", "spec06.omnetpp"] {
        let w = workloads::by_name(name).unwrap();
        let trace = w.generate_shared(Scale::Test);
        // Correlation stream: consecutive same-PC line pairs.
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut stream = Vec::new();
        for a in trace.iter() {
            let line = a.addr.line().0;
            if let Some(prev) = last.insert(a.pc.0, line) {
                if prev != line {
                    stream.push((prev, line));
                }
            }
        }
        let cap = 16 * 1024;
        let min = min_sim(&stream, cap);
        let tp = tpmin_sim(&stream, cap);
        o.row(&[
            name.into(),
            cap.to_string(),
            min.correlation_hits.to_string(),
            tp.correlation_hits.to_string(),
            format!(
                "{:.2}x",
                tp.correlation_hits as f64 / min.correlation_hits.max(1) as f64
            ),
        ]);
    }
    out += &o.render();
    out += "\npaper shape: Streamline@0.5MB ~ Triangel@1MB; TP-MJ > LRU > Triangel on correlation hits; TP-MIN > MIN.\n";
    out
}
