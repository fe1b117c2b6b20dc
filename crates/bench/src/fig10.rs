//! Figure 10: performance analysis.
//!
//! (a) multi-core speedups at 2/4/8 cores; (b) 4-core win-rate; (c) DRAM
//! bandwidth sensitivity; (d/e) coverage and accuracy per suite; (f)
//! prefetch degree sweep.

use crate::{contenders, mix_runs, paired_runs, stride_baseline, sweep_pool};
use streamline_core::StreamlineConfig;
use tpharness::baselines::TemporalKind;
use tpharness::metrics::{gmean, mix_speedup, summarize};
use tpharness::report::Table;
use tptrace::{workloads, MixGenerator, Scale, Suite};

/// Mixes drawn per core count in (a)/(b).
const MIXES: usize = 4;

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let base = stride_baseline(scale);

    // --- (a) multi-core speedups + (b) win rate -----------------------
    let mut a = Table::new(
        format!("Figure 10a: Multi-Core Speedup over stride baseline ({scale})"),
        &["cores", "mixes", "triangel", "streamline"],
    );
    let mut win_rows = Vec::new();
    for cores in [2usize, 4, 8] {
        let mixes = MixGenerator::new(0xF1_60A + cores as u64).mixes(cores, MIXES);
        let exps = [
            base.clone(),
            base.clone().temporal(TemporalKind::Triangel),
            base.clone().temporal(TemporalKind::Streamline),
        ];
        let grouped = mix_runs(&mixes, &exps);
        let mut tri = Vec::new();
        let mut stl = Vec::new();
        let mut stl_wins = 0;
        for (m, reports) in mixes.iter().zip(&grouped) {
            eprintln!("  {cores}C {}", m.label());
            let ts = mix_speedup(&reports[0], &reports[1]);
            let ss = mix_speedup(&reports[0], &reports[2]);
            tri.push(ts);
            stl.push(ss);
            if ss > ts {
                stl_wins += 1;
            }
            if cores == 4 {
                win_rows.push((m.label(), ts, ss));
            }
        }
        a.row(&[
            cores.to_string(),
            mixes.len().to_string(),
            format!("{:+.1}%", (gmean(&tri) - 1.0) * 100.0),
            format!("{:+.1}%", (gmean(&stl) - 1.0) * 100.0),
        ]);
        if cores == 4 {
            eprintln!(
                "4-core win rate: streamline beats triangel on {stl_wins}/{} mixes",
                mixes.len()
            );
        }
    }
    out += &a.render();
    out.push('\n');
    let mut b = Table::new(
        "Figure 10b: 4-core mixes (speedup % per mix)",
        &["mix", "triangel", "streamline"],
    );
    win_rows.sort_by(|x, y| (y.2 - y.1).partial_cmp(&(x.2 - x.1)).unwrap());
    let wins = win_rows.iter().filter(|(_, t, s)| s > t).count();
    let total = win_rows.len().max(1);
    for (label, t, s) in &win_rows {
        b.row(&[
            label.clone(),
            format!("{:+.1}%", (t - 1.0) * 100.0),
            format!("{:+.1}%", (s - 1.0) * 100.0),
        ]);
    }
    out += &b.render();
    out += &format!("win rate: {wins}/{total}\n\n");

    // --- (c) bandwidth sensitivity ------------------------------------
    let pool = sweep_pool();
    let mut c = Table::new(
        format!("Figure 10c: DRAM Bandwidth Sensitivity ({scale}, single-core)"),
        &["bandwidth", "triangel", "streamline"],
    );
    for factor in [0.25, 0.5, 1.0, 2.0] {
        let base_bw = base.clone().bandwidth(factor);
        let mut cells = vec![format!("{factor}x")];
        for kind in [TemporalKind::Triangel, TemporalKind::Streamline] {
            let runs = paired_runs(&pool, &base_bw, &base_bw.clone().temporal(kind));
            let s = summarize(runs.iter(), None);
            cells.push(format!("{:+.1}%", s.speedup_pct));
        }
        c.row(&cells);
    }
    out += &c.render();
    out.push('\n');

    // --- (d/e) coverage and accuracy per suite ------------------------
    let all = workloads::memory_intensive();
    let mut d = Table::new(
        format!("Figure 10d/e: Coverage and Accuracy per suite ({scale})"),
        &["prefetcher", "metric", "SPEC06", "SPEC17", "GAP", "all"],
    );
    for (name, exp) in contenders(scale) {
        let runs = paired_runs(&all, &base, &exp);
        let mut cov = vec![name.to_string(), "coverage".into()];
        let mut acc = vec![name.to_string(), "accuracy".into()];
        for suite in [
            Some(Suite::Spec06),
            Some(Suite::Spec17),
            Some(Suite::Gap),
            None,
        ] {
            let s = summarize(runs.iter(), suite);
            cov.push(format!("{:.1}%", s.coverage_pct));
            acc.push(format!("{:.1}%", s.accuracy_pct));
        }
        d.row(&cov);
        d.row(&acc);
    }
    out += &d.render();
    out.push('\n');

    // --- (f) degree sweep ----------------------------------------------
    let mut f = Table::new(
        format!("Figure 10f: Prefetch Degree Sweep ({scale}, irregular subset)"),
        &["degree", "streamline speedup", "streamline accuracy"],
    );
    for degree in [1usize, 2, 3, 4] {
        let cfg = StreamlineConfig {
            degree_override: Some(degree),
            ..StreamlineConfig::default()
        };
        let runs = paired_runs(
            &pool,
            &base,
            &base.clone().temporal(TemporalKind::StreamlineCfg(cfg)),
        );
        let s = summarize(runs.iter(), None);
        f.row(&[
            degree.to_string(),
            format!("{:+.1}%", s.speedup_pct),
            format!("{:.1}%", s.accuracy_pct),
        ]);
    }
    out += &f.render();
    out += "\npaper shape: multi-core gaps widen; Streamline wins most mixes; degree helps up to the stream length.\n";
    out
}
