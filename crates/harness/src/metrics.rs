//! Metric aggregation: geometric means, speedups, per-suite summaries.

use tpsim::SimReport;
use tptrace::{Suite, Workload};

/// Geometric mean of a nonempty slice (0.0 for empty input).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One workload's paired (baseline, candidate) results.
#[derive(Clone, Debug)]
pub struct PairedRun {
    /// The workload.
    pub workload: Workload,
    /// Baseline report (no temporal prefetcher, usually).
    pub base: SimReport,
    /// Candidate report.
    pub with: SimReport,
}

impl PairedRun {
    /// Single-core speedup of the candidate over the baseline.
    pub fn speedup(&self) -> f64 {
        let b = self.base.cores[0].ipc();
        if b == 0.0 {
            1.0
        } else {
            self.with.cores[0].ipc() / b
        }
    }
}

/// Per-suite aggregate of speedups plus coverage/accuracy means.
#[derive(Clone, Debug, Default)]
pub struct SuiteSummary {
    /// Geometric-mean speedup minus 1, in percent.
    pub speedup_pct: f64,
    /// Mean temporal coverage, in percent.
    pub coverage_pct: f64,
    /// Mean temporal accuracy, in percent.
    pub accuracy_pct: f64,
    /// Number of workloads aggregated.
    pub n: usize,
}

/// Aggregates paired runs over a filter (suite or all).
pub fn summarize<'a>(
    runs: impl Iterator<Item = &'a PairedRun>,
    filter: Option<Suite>,
) -> SuiteSummary {
    let selected: Vec<&PairedRun> = runs
        .filter(|r| filter.is_none_or(|s| r.workload.suite == s))
        .collect();
    if selected.is_empty() {
        return SuiteSummary::default();
    }
    let speedups: Vec<f64> = selected.iter().map(|r| r.speedup()).collect();
    let cov: f64 = selected
        .iter()
        .map(|r| r.with.cores[0].temporal_coverage())
        .sum::<f64>()
        / selected.len() as f64;
    let acc: f64 = selected
        .iter()
        .map(|r| r.with.cores[0].temporal_accuracy())
        .sum::<f64>()
        / selected.len() as f64;
    SuiteSummary {
        speedup_pct: (gmean(&speedups) - 1.0) * 100.0,
        coverage_pct: cov * 100.0,
        accuracy_pct: acc * 100.0,
        n: selected.len(),
    }
}

/// Weighted multi-core speedup of `with` over `base`: mean of per-core
/// IPC ratios (both runs use the same mix, so cores pair up).
pub fn mix_speedup(base: &SimReport, with: &SimReport) -> f64 {
    assert_eq!(base.cores.len(), with.cores.len());
    let ratios: Vec<f64> = base
        .cores
        .iter()
        .zip(&with.cores)
        .map(|(b, w)| {
            if b.ipc() == 0.0 {
                1.0
            } else {
                w.ipc() / b.ipc()
            }
        })
        .collect();
    gmean(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::CoreReport;
    use tptrace::workloads;

    fn report(ipc_num: u64, den: u64) -> SimReport {
        let mut r = SimReport::default();
        let c = CoreReport {
            instructions: ipc_num,
            cycles: den,
            ..Default::default()
        };
        r.cores.push(c);
        r
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((gmean(&[1.0]) - 1.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn paired_speedup() {
        let run = PairedRun {
            workload: workloads::by_name("gap.pr").unwrap(),
            base: report(100, 100),
            with: report(150, 100),
        };
        assert!((run.speedup() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn summarize_filters_by_suite() {
        let runs = [
            PairedRun {
                workload: workloads::by_name("gap.pr").unwrap(),
                base: report(100, 100),
                with: report(200, 100),
            },
            PairedRun {
                workload: workloads::by_name("spec06.mcf").unwrap(),
                base: report(100, 100),
                with: report(100, 100),
            },
        ];
        let gap = summarize(runs.iter(), Some(Suite::Gap));
        assert_eq!(gap.n, 1);
        assert!((gap.speedup_pct - 100.0).abs() < 1e-6);
        let all = summarize(runs.iter(), None);
        assert_eq!(all.n, 2);
        assert!(all.speedup_pct > 0.0 && all.speedup_pct < 100.0);
    }

    #[test]
    fn mix_speedup_pairs_cores() {
        let mut base = report(100, 100);
        base.cores.push({
            CoreReport {
                instructions: 100,
                cycles: 200,
                ..Default::default()
            }
        });
        let mut with = report(100, 50);
        with.cores.push({
            CoreReport {
                instructions: 100,
                cycles: 200,
                ..Default::default()
            }
        });
        // Core 0 sped up 2x, core 1 unchanged: gmean = sqrt(2).
        assert!((mix_speedup(&base, &with) - 2f64.sqrt()).abs() < 1e-9);
    }
}
