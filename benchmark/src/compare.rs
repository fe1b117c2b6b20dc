//! `benchmark compare A.json B.json`: is set B worse than set A?
//!
//! A set is a result file written by `benchmark/run.sh` — one or more
//! runs of every workload. For each workload × end-to-end metric the
//! tool takes the median over the set's runs, applies the metric's
//! direction and bound from `BENCHMARK.json`, and prints one row.
//! Exact metrics (simulated statistics, allocation and STATS counts)
//! must be equal wherever both sets ran the same workload, pass and
//! seed. Any "worse" row or exact difference makes the exit code 1.

use crate::run::fmt_num;
use crate::stats;
use tpharness::wire::{self, Value};

/// What a pair of sample sets says about one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the bound (or every run of B
    /// beats every run of A).
    Better,
    /// The medians are within the bound of each other.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs of a set spread wider than the bound and the two sets
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's median by which B's median is worse (negative: better).
pub fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    }
}

/// Compares the runs of set B with those of set A for one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let by = worse_by(a, b, higher_is_better);
    if stats::spread(a).max(stats::spread(b)) > bound {
        // Too noisy for medians: only a clean separation of every run
        // of one set from every run of the other counts.
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (b_above, b_below) = (min(b) > max(a), max(b) < min(a));
        let (all_better, all_worse) = if higher_is_better {
            (b_above, b_below)
        } else {
            (b_below, b_above)
        };
        return if all_better {
            Verdict::Better
        } else if all_worse && by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if by > bound {
        Verdict::Worse
    } else if by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One run out of a result file.
struct RunRecord<'a> {
    workload: &'a str,
    trace: u64,
    seed: u64,
    metrics: &'a [(String, Value)],
}

fn runs(set: &Value) -> Result<Vec<RunRecord<'_>>, String> {
    let list = set
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("result file has no \"runs\" array")?;
    list.iter()
        .map(|r| {
            let Some(Value::Obj(metrics)) = r.get("metrics") else {
                return Err("run without metrics".to_string());
            };
            Ok(RunRecord {
                workload: r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("run without workload")?,
                trace: r.get("trace").and_then(Value::as_u64).unwrap_or(0),
                seed: r.get("seed").and_then(Value::as_u64).unwrap_or(0),
                metrics,
            })
        })
        .collect()
}

fn values(runs: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == 0)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric))
        .filter_map(|(_, m)| m.get("value").and_then(Value::as_f64))
        .collect()
}

/// Compares two result sets under `spec` (the parsed `BENCHMARK.json`);
/// returns the report and whether anything was worse.
pub fn compare(a: &Value, b: &Value, spec: &Value) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let list = |key: &str| -> Result<&[Value], String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let mut out = format!(
        "{:18} {:24} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound"
    );
    let mut failed = false;
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without name")?;
        for m in list("end_to_end")? {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let (va, vb) = (
                values(&runs_a, workload, name),
                values(&runs_b, workload, name),
            );
            if va.is_empty() || vb.is_empty() {
                out += &format!("{workload:18} {name:24} missing from one set\n");
                failed = true;
                continue;
            }
            let v = verdict(&va, &vb, higher, bound);
            failed |= v == Verdict::Worse;
            out += &format!(
                "{workload:18} {name:24} {:>14} {:>14} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {}\n",
                fmt_num(stats::median(&va)),
                fmt_num(stats::median(&vb)),
                -100.0 * worse_by(&va, &vb, higher) * if higher { 1.0 } else { -1.0 },
                100.0 * stats::spread(&va),
                100.0 * stats::spread(&vb),
                100.0 * bound,
                v.label()
            );
        }
    }

    // Exact metrics: equal wherever both sets hold the same run.
    let (mut checked, mut differing) = (0usize, 0usize);
    for ra in &runs_a {
        let twin = runs_b
            .iter()
            .find(|rb| (rb.workload, rb.trace, rb.seed) == (ra.workload, ra.trace, ra.seed));
        let Some(rb) = twin else { continue };
        for (name, ma) in ra.metrics {
            if ma.get("exact").and_then(Value::as_bool) != Some(true) {
                continue;
            }
            let vb = rb
                .metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, m)| m.get("value"));
            checked += 1;
            if vb != Some(ma.get("value")) {
                differing += 1;
                failed = true;
                out += &format!(
                    "{:18} {name} differs at seed {} (trace {}): {:?} vs {:?}\n",
                    ra.workload,
                    ra.seed,
                    ra.trace,
                    ma.get("value").map(Value::encode),
                    vb.flatten().map(Value::encode)
                );
            }
        }
    }
    out += &format!("exact metrics: {checked} compared, {differing} differ\n");
    Ok((out, failed))
}

/// Loads and parses one JSON file.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    wire::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // Higher is better, bound 10 %.
        assert_eq!(
            verdict(&a, &[95.0, 96.0, 94.0, 95.0], true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.0], true, 0.10),
            Verdict::Better
        );
        // Lower is better: the same numbers read the other way.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.0], false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.0], false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_separate() {
        let noisy = [70.0, 100.0, 130.0, 100.0, 85.0, 115.0];
        // Medians equal, but the set cannot support "unchanged".
        assert_eq!(verdict(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        // Overlapping and lower: still cannot tell.
        let lower = [60.0, 90.0, 120.0, 90.0, 75.0, 105.0];
        assert_eq!(verdict(&noisy, &lower, true, 0.10), Verdict::Unresolved);
        // Every run of B beats every run of A.
        let above = [140.0, 170.0, 200.0, 170.0];
        assert_eq!(verdict(&noisy, &above, true, 0.10), Verdict::Better);
        // Every run of B loses to every run of A.
        let below = [20.0, 40.0, 60.0, 40.0];
        assert_eq!(verdict(&noisy, &below, true, 0.10), Verdict::Worse);
    }

    fn set(rate: f64, fnv: u64) -> Value {
        let spec = crate::spec::benchmark_json();
        let spec = wire::parse(spec.trim()).unwrap();
        let mut runs = Vec::new();
        for w in spec.get("workloads").unwrap().as_arr().unwrap() {
            for seed in 1..=3u64 {
                let mut metrics = Vec::new();
                for m in spec.get("end_to_end").unwrap().as_arr().unwrap() {
                    let name = m.get("name").unwrap().as_str().unwrap();
                    let lower = m.get("better").unwrap().as_str() == Some("lower");
                    // `rate` scales every metric in its good direction.
                    let v = if lower { 100.0 / rate } else { 100.0 * rate } + seed as f64 * 0.1;
                    metrics.push((
                        name.to_string(),
                        Value::Obj(vec![
                            ("value".into(), Value::f64(v)),
                            ("exact".into(), Value::Bool(false)),
                        ]),
                    ));
                }
                metrics.push((
                    "sim.report_fnv".into(),
                    Value::Obj(vec![
                        ("value".into(), Value::u64(fnv)),
                        ("exact".into(), Value::Bool(true)),
                    ]),
                ));
                runs.push(Value::Obj(vec![
                    ("workload".into(), w.get("name").unwrap().clone()),
                    ("trace".into(), Value::u64(0)),
                    ("seed".into(), Value::u64(seed)),
                    ("metrics".into(), Value::Obj(metrics)),
                ]));
            }
        }
        Value::Obj(vec![("runs".into(), Value::Arr(runs))])
    }

    #[test]
    fn compare_fails_on_worse_and_on_exact_differences_only() {
        let spec = wire::parse(crate::spec::benchmark_json().trim()).unwrap();
        let (report, failed) = compare(&set(1.0, 7), &set(1.0, 7), &spec).unwrap();
        assert!(!failed, "{report}");
        assert!(report.contains("within bound") && !report.contains("worse"));
        assert!(report.contains("0 differ"));

        let (report, failed) = compare(&set(1.0, 7), &set(0.5, 7), &spec).unwrap();
        assert!(failed && report.contains("worse"), "{report}");

        let (report, failed) = compare(&set(1.0, 7), &set(2.0, 7), &spec).unwrap();
        assert!(!failed && report.contains("better"), "{report}");

        let (report, failed) = compare(&set(1.0, 7), &set(1.0, 8), &spec).unwrap();
        assert!(
            failed && report.contains("sim.report_fnv differs"),
            "{report}"
        );
    }
}
