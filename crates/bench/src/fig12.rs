//! Figure 12: resolving stream-based problems.
//!
//! (a) stream-length sweep: correlations per block, missed-trigger rate,
//!     coverage — length four should win;
//! (b) redundancy with and without stream alignment — alignment should
//!     roughly halve it;
//! (c) metadata-buffer-size sweep: alignment rate and coverage — three
//!     entries should sit at the knee.

use crate::{paired_runs, stride_baseline, sweep_pool};
use streamline_core::StreamlineConfig;
use tpharness::baselines::TemporalKind;
use tpharness::metrics::{gmean, summarize};
use tpharness::report::Table;
use tptrace::Scale;

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    // The stream-issue studies run on the irregular subset, where stream
    // structure matters.
    let pool = sweep_pool();
    let base = stride_baseline(scale);

    // --- (a) stream length sweep ------------------------------------
    let mut a = Table::new(
        format!("Figure 12a: Stream Length Sweep ({scale})"),
        &[
            "length",
            "corr/block",
            "missed-trigger rate",
            "coverage",
            "speedup",
        ],
    );
    for len in [2usize, 3, 4, 5, 8, 16] {
        let cfg = StreamlineConfig {
            stream_len: len,
            ..StreamlineConfig::default()
        };
        eprintln!("== stream length {len} ==");
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let s = summarize(runs.iter(), None);
        // Missed-trigger rate: store lookups that found nothing, among
        // all lookups (longer streams have fewer triggers to hit).
        let missed: Vec<f64> = runs
            .iter()
            .map(|r| {
                let t = r.with.cores[0].temporal;
                if t.trigger_lookups == 0 {
                    0.0
                } else {
                    1.0 - t.trigger_hits as f64 / t.trigger_lookups as f64
                }
            })
            .collect();
        a.row(&[
            len.to_string(),
            StreamlineConfig::correlations_per_block(len).to_string(),
            format!(
                "{:.1}%",
                gmean(&missed.iter().map(|m| m + 1.0).collect::<Vec<_>>())
                    .max(1.0)
                    .mul_add(100.0, -100.0)
            ),
            format!("{:.1}%", s.coverage_pct),
            format!("{:+.1}%", s.speedup_pct),
        ]);
    }
    out += &a.render();
    out.push('\n');

    // --- (b) redundancy with/without alignment -----------------------
    let mut b = Table::new(
        format!("Figure 12b: Stream Alignment vs Redundancy ({scale})"),
        &[
            "alignment",
            "redundant/insert",
            "aligned/completion",
            "coverage",
        ],
    );
    for (label, alignment) in [("off", false), ("on", true)] {
        let cfg = StreamlineConfig {
            alignment,
            ..StreamlineConfig::default()
        };
        eprintln!("== alignment {label} ==");
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let red: Vec<f64> = runs
            .iter()
            .map(|r| {
                let t = r.with.cores[0].temporal;
                t.redundant_inserts as f64 / (t.inserts.max(1)) as f64
            })
            .collect();
        let aligned: Vec<f64> = runs
            .iter()
            .map(|r| {
                let t = r.with.cores[0].temporal;
                t.aligned_inserts as f64
                    / (t.inserts + t.aligned_inserts + t.filtered).max(1) as f64
            })
            .collect();
        let s = summarize(runs.iter(), None);
        b.row(&[
            label.into(),
            format!("{:.2}", red.iter().sum::<f64>() / red.len() as f64),
            format!("{:.2}", aligned.iter().sum::<f64>() / aligned.len() as f64),
            format!("{:.1}%", s.coverage_pct),
        ]);
    }
    out += &b.render();
    out.push('\n');

    // --- (c) metadata buffer size sweep -------------------------------
    let mut c = Table::new(
        format!("Figure 12c: Metadata Buffer Size ({scale})"),
        &["entries", "alignment rate", "coverage", "speedup"],
    );
    for entries in [1usize, 2, 3, 4, 6] {
        let cfg = StreamlineConfig {
            buffer_entries: entries,
            ..StreamlineConfig::default()
        };
        eprintln!("== buffer {entries} ==");
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let rate: Vec<f64> = runs
            .iter()
            .map(|r| {
                let t = r.with.cores[0].temporal;
                t.aligned_inserts as f64
                    / (t.inserts + t.aligned_inserts + t.filtered).max(1) as f64
            })
            .collect();
        let s = summarize(runs.iter(), None);
        c.row(&[
            entries.to_string(),
            format!("{:.2}", rate.iter().sum::<f64>() / rate.len() as f64),
            format!("{:.1}%", s.coverage_pct),
            format!("{:+.1}%", s.speedup_pct),
        ]);
    }
    out += &c.render();
    out += "\npaper shape: length 4 and a 3-entry buffer sit at the knees; alignment halves redundancy.\n";
    out
}
