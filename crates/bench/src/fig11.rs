//! Figure 11: temporal prefetchers combined with aggressive regular
//! prefetchers.
//!
//! (a) Berti in the L1D, single-core; (b) Berti multi-core; (c) L2
//! prefetchers IPCP / Bingo / SPP-PPF with and without the temporal
//! prefetchers; (d) the added coverage on top of each L2 prefetcher.

use crate::{mix_runs, paired_runs};
use tpharness::baselines::{L1Kind, L2Kind, TemporalKind};
use tpharness::experiment::Experiment;
use tpharness::metrics::{gmean, mix_speedup, summarize};
use tpharness::report::Table;
use tptrace::{workloads, MixGenerator, Scale};

/// Mixes drawn per core count in (b).
const MIXES: usize = 3;

pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    let pool = workloads::irregular_subset();

    // --- (a) Berti L1D baseline, single core ---------------------------
    let stride_base = Experiment::new(scale).l1(L1Kind::Stride);
    let berti_base = Experiment::new(scale).l1(L1Kind::Berti);
    let mut a = Table::new(
        format!("Figure 11a: With Berti in the L1D ({scale}, vs stride baseline)"),
        &["config", "speedup", "coverage"],
    );
    // Berti alone, relative to the stride baseline.
    let berti_alone = paired_runs(&pool, &stride_base, &berti_base);
    let s = summarize(berti_alone.iter(), None);
    a.row(&[
        "berti only".into(),
        format!("{:+.1}%", s.speedup_pct),
        "-".into(),
    ]);
    for (name, kind) in [
        ("berti + triangel", TemporalKind::Triangel),
        ("berti + streamline", TemporalKind::Streamline),
    ] {
        eprintln!("== {name} ==");
        let runs = paired_runs(&pool, &stride_base, &berti_base.clone().temporal(kind));
        let s = summarize(runs.iter(), None);
        a.row(&[
            name.into(),
            format!("{:+.1}%", s.speedup_pct),
            format!("{:.1}%", s.coverage_pct),
        ]);
    }
    out += &a.render();
    out.push('\n');

    // --- (b) Berti multi-core -----------------------------------------
    let mut b = Table::new(
        format!("Figure 11b: Berti L1D, multi-core ({scale})"),
        &["cores", "triangel", "streamline"],
    );
    for cores in [2usize, 4, 8] {
        let mixes = MixGenerator::new(0xF11B + cores as u64).mixes(cores, MIXES);
        let exps = [
            berti_base.clone(),
            berti_base.clone().temporal(TemporalKind::Triangel),
            berti_base.clone().temporal(TemporalKind::Streamline),
        ];
        let grouped = mix_runs(&mixes, &exps);
        let mut tri = Vec::new();
        let mut stl = Vec::new();
        for (m, reports) in mixes.iter().zip(&grouped) {
            eprintln!("  {cores}C {}", m.label());
            tri.push(mix_speedup(&reports[0], &reports[1]));
            stl.push(mix_speedup(&reports[0], &reports[2]));
        }
        b.row(&[
            cores.to_string(),
            format!("{:+.1}%", (gmean(&tri) - 1.0) * 100.0),
            format!("{:+.1}%", (gmean(&stl) - 1.0) * 100.0),
        ]);
    }
    out += &b.render();
    out.push('\n');

    // --- (c/d) L2 regular prefetchers -----------------------------------
    let mut c = Table::new(
        format!("Figure 11c/d: With L2 regular prefetchers ({scale})"),
        &[
            "L2 prefetcher",
            "alone",
            "+triangel",
            "+streamline",
            "added cov (tri)",
            "added cov (stl)",
        ],
    );
    for l2 in [L2Kind::Ipcp, L2Kind::Bingo, L2Kind::SppPpf] {
        eprintln!("== {} ==", l2.name());
        let l2_base = stride_base.clone().l2(l2);
        let alone = paired_runs(&pool, &stride_base, &l2_base);
        let tri = paired_runs(
            &pool,
            &stride_base,
            &l2_base.clone().temporal(TemporalKind::Triangel),
        );
        let stl = paired_runs(
            &pool,
            &stride_base,
            &l2_base.clone().temporal(TemporalKind::Streamline),
        );
        let sa = summarize(alone.iter(), None);
        let st = summarize(tri.iter(), None);
        let ss = summarize(stl.iter(), None);
        c.row(&[
            l2.name().into(),
            format!("{:+.1}%", sa.speedup_pct),
            format!("{:+.1}%", st.speedup_pct),
            format!("{:+.1}%", ss.speedup_pct),
            format!("{:.1}%", st.coverage_pct),
            format!("{:.1}%", ss.coverage_pct),
        ]);
    }
    out += &c.render();
    out += "\npaper shape: Streamline adds speedup even over Berti/L2 prefetchers, with ~2x Triangel's added coverage.\n";
    out
}
