//! One run of one workload: its clock, its failure count, its metrics,
//! and the two things it prints — a table for people and, as the last
//! line, the one JSON object the acceptance driver reads.

use crate::host::{self, RefKernel, REF_NOMINAL_NS_PER_OP};
use crate::span::Tracer;
use crate::spec;
use crate::stats;
use std::time::Instant;
use tpharness::wire::Value;

/// A named number with its unit and the spread behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The estimator's value — what the contract line reports.
    pub value: f64,
    /// Samples behind it (1 for an exact count).
    pub n: usize,
    /// Median of the samples, in the metric's unit.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Exact metrics repeat bit for bit between runs of one seed.
    pub exact: bool,
}

impl Metric {
    /// A count or simulated statistic that must repeat exactly.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n: 1,
            median: value,
            q1: value,
            q3: value,
            exact: true,
        }
    }

    /// A host-side reading taken once (fingerprint values).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            exact: false,
            ..Metric::exact(name, unit, value)
        }
    }

    /// `value` with the quartiles of `samples` beside it.
    pub fn with_samples(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) -> Metric {
        let (q1, median, q3) = stats::quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value,
            n: samples.len(),
            median,
            q1,
            q3,
            exact: false,
        }
    }

    /// A host-time metric: `convert` maps a time to the metric's unit,
    /// the value is `convert(fastest-quarter mean of times)`.
    pub fn from_times(
        name: impl Into<String>,
        unit: &'static str,
        times: &[f64],
        convert: impl Fn(f64) -> f64,
    ) -> Metric {
        let samples: Vec<f64> = times.iter().map(|&t| convert(t)).collect();
        Metric::with_samples(
            name,
            unit,
            convert(stats::fastest_quarter_mean(times)),
            &samples,
        )
    }

    /// This metric under another name, every figure multiplied by `k`.
    fn scaled(&self, name: &str, unit: &'static str, k: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: self.value * k,
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            ..self.clone()
        }
    }

    /// This per-second rate per *reference second*: scaled by how fast
    /// the reference kernel ran beside it (see `host::RefKernel`). Both
    /// sides use the same estimator, so a run taken while the host was
    /// slow reads as it would have on the nominal host.
    pub fn per_ref_s(&self, name: &str, unit: &'static str, ref_ns_per_op: &[f64]) -> Metric {
        let k = stats::fastest_quarter_mean(ref_ns_per_op) / REF_NOMINAL_NS_PER_OP;
        self.scaled(name, unit, k)
    }

    /// This duration in reference seconds (the inverse scaling).
    pub fn in_ref_s(&self, name: &str, ref_ns_per_op: &[f64]) -> Metric {
        let k = REF_NOMINAL_NS_PER_OP / stats::fastest_quarter_mean(ref_ns_per_op);
        self.scaled(name, self.unit, k)
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("value".into(), Value::f64(self.value)),
            ("unit".into(), Value::Str(self.unit.into())),
            ("n".into(), Value::u64(self.n as u64)),
            ("median".into(), Value::f64(self.median)),
            ("q1".into(), Value::f64(self.q1)),
            ("q3".into(), Value::f64(self.q3)),
            ("exact".into(), Value::Bool(self.exact)),
        ])
    }
}

/// Seconds a run may spend on repeated set-ups (see [`Run::time_setup`]).
const SETUP_BUDGET_S: f64 = 2.5;
/// Most set-ups one run makes.
const MAX_SETUPS: usize = 9;
/// How many failure messages a run keeps (it counts all of them).
const KEPT_FAILURES: usize = 8;

/// State of one workload run.
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`: every input is derived from it.
    pub seed: u64,
    /// `--seconds`: the measuring window.
    pub seconds: f64,
    /// `--quick`: one repetition, for smoke tests.
    pub quick: bool,
    /// `--trace 1`: the per-layer pass.
    pub traced: bool,
    /// Spans of the traced pass.
    pub tracer: Tracer,
    /// The reference kernel, sampled beside every timed cell.
    pub refk: RefKernel,
    /// Every reference sample taken (ns per op).
    pub ref_samples: Vec<f64>,
    /// Seconds each set-up took.
    pub setup_times: Vec<f64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Whether a parallel figure means anything on this machine.
    pub scaling: &'static str,
    /// Metrics gathered so far.
    pub metrics: Vec<Metric>,
    /// Raw per-lap series behind the end-to-end metrics, kept in the
    /// result file so an estimator can be re-examined after the fact.
    pub series: Vec<(String, Vec<f64>)>,
    window_start: Option<Instant>,
}

impl Run {
    /// A fresh run.
    pub fn new(workload: &'static str, seed: u64, seconds: f64, quick: bool, traced: bool) -> Run {
        Run {
            workload,
            seed,
            seconds,
            quick,
            traced,
            tracer: Tracer::default(),
            refk: RefKernel::default(),
            ref_samples: Vec::new(),
            setup_times: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            scaling: "ok",
            metrics: Vec::new(),
            series: Vec::new(),
            window_start: None,
        }
    }

    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// Repetitions of set-up (and of each traced cell).
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Sets up several times, records how long each took and keeps the
    /// last fixture; `teardown` disposes of the others. A cheap set-up
    /// is repeated more often (up to [`MAX_SETUPS`] times, for about
    /// [`SETUP_BUDGET_S`] in all): its median is what `setup_s` gates,
    /// and three samples of a 0.2 s set-up moved that median by 20 %
    /// between two sets of runs.
    pub fn time_setup<F>(
        &mut self,
        mut setup: impl FnMut(&mut Run) -> F,
        mut teardown: impl FnMut(&mut Run, F),
    ) -> F {
        let mut last = None;
        let mut reps = self.reps();
        let mut done = 0;
        while done < reps {
            if let Some(old) = last.take() {
                teardown(self, old);
            }
            let t = Instant::now();
            let fixture = setup(self);
            let secs = t.elapsed().as_secs_f64();
            self.setup_times.push(secs);
            // Reference samples beside the set-up, as beside any cell.
            self.sample_ref(2);
            last = Some(fixture);
            done += 1;
            if done == 1 && !self.quick {
                reps = ((SETUP_BUDGET_S / secs) as usize).clamp(reps, MAX_SETUPS);
            }
        }
        last.expect("at least one set-up")
    }

    /// True while the measuring window is open. The window opens at the
    /// first call; every workload finishes the lap it is in, so at
    /// least one lap always runs. The traced pass reports no end-to-end
    /// metric, so it runs [`Run::reps`] laps instead of a timed window
    /// (enough for the raw rates it prints); `--quick` runs one.
    pub fn window_open(&mut self, laps_done: usize) -> bool {
        let start = *self.window_start.get_or_insert_with(Instant::now);
        if self.traced || self.quick {
            laps_done < self.reps()
        } else {
            laps_done == 0 || start.elapsed().as_secs_f64() < self.seconds
        }
    }

    /// Takes `n` reference samples, back to back. One goes beside every
    /// timed cell; a phase that runs for a second or so gets a few.
    pub fn sample_ref(&mut self, n: usize) {
        for _ in 0..n {
            let ns = self.refk.sample();
            self.ref_samples.push(ns);
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Adds the metrics every workload reports the same way. The memory
    /// figures are read by the caller before it allocates the latency
    /// sentinel.
    pub fn push_common(&mut self, heap_mb: f64, rss_mb: f64, calib: &[f64]) {
        // Like the rates, set-up time is gated in reference seconds:
        // raw seconds moved 15-20 % between two back-to-back sets of
        // runs, on every workload at once.
        let setup = self.setup_times.clone();
        let wall = Metric::with_samples("setup_wall_s", "s", stats::median(&setup), &setup);
        self.push(wall.in_ref_s("setup_s", &self.ref_samples));
        self.push(wall);
        self.push(Metric::single("peak_heap_mb", "MB", heap_mb));
        self.push(Metric::single("peak_rss_mb", "MB", rss_mb));
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.push(Metric::exact("failed_share", "share", share));
        self.push(Metric::exact("host.nproc", "count", host::nproc() as f64));
        self.push(Metric::single("host.loadavg", "load", host::loadavg()));
        self.push(Metric::with_samples(
            "host.calib_ns_per_hop",
            "ns",
            stats::median(calib),
            calib,
        ));
        let r = self.ref_samples.clone();
        self.push(Metric::from_times("host.ref_ns_per_op", "ns", &r, |t| t));
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the acceptance driver reads: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), nothing else. A
    /// per-layer metric whose layer this workload never enters reads 0.
    pub fn contract_line(&self) -> String {
        let names: Vec<&spec::MetricSpec> = if self.traced {
            spec::PER_LAYER.iter().collect()
        } else {
            spec::END_TO_END.iter().collect()
        };
        let metrics = names
            .iter()
            .map(|s| {
                // JSON has no NaN or infinity.
                let value = self.find(s.name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    s.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::f64(value)),
                        ("unit".into(), Value::Str(s.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::u64(self.attempted.max(1))),
            ("failed".into(), Value::u64(self.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .encode()
    }

    /// The result file: the contract line's content plus the host
    /// fingerprint, the noise sentinels and every metric with its
    /// sample count and quartiles.
    pub fn result_value(&self) -> Value {
        let f = host::fingerprint();
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("trace".into(), Value::u64(self.traced as u64)),
            ("seed".into(), Value::u64(self.seed)),
            ("seconds".into(), Value::f64(self.seconds)),
            ("quick".into(), Value::Bool(self.quick)),
            ("profile".into(), Value::Str(f.profile.into())),
            ("git_commit".into(), Value::Str(f.git_commit)),
            (
                "host".into(),
                Value::Obj(vec![
                    ("nproc".into(), Value::u64(f.nproc as u64)),
                    ("cpu_model".into(), Value::Str(f.cpu_model)),
                    ("loadavg".into(), Value::f64(f.loadavg)),
                ]),
            ),
            ("scaling".into(), Value::Str(self.scaling.into())),
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::u64(self.attempted.max(1))),
            ("failed".into(), Value::u64(self.failed)),
            (
                "failures".into(),
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_value()))
                        .collect(),
                ),
            ),
            (
                "series".into(),
                Value::Obj(
                    self.series
                        .iter()
                        .chain(std::iter::once(&(
                            "ref_ns_per_op".to_string(),
                            self.ref_samples.clone(),
                        )))
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Value::Arr(v.iter().map(|&x| Value::f64(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Prints every metric by name with unit, sample count, estimator
    /// value, median and quartiles.
    pub fn print_table(&self) {
        println!(
            "# {} seed={} trace={} seconds={} attempted={} failed={} scaling={}",
            self.workload,
            self.seed,
            self.traced as u8,
            self.seconds,
            self.attempted,
            self.failed,
            self.scaling
        );
        println!(
            "{:44} {:>9} {:>5} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "value", "median", "q1", "q3"
        );
        for m in &self.metrics {
            println!(
                "{:44} {:>9} {:>5} {:>14} {:>14} {:>14} {:>14}",
                m.name,
                m.unit,
                m.n,
                fmt_num(m.value),
                fmt_num(m.median),
                fmt_num(m.q1),
                fmt_num(m.q3)
            );
        }
        let listed = if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        for s in listed.iter().filter(|s| self.find(s.name).is_none()) {
            println!("{:44} {:>9} {:>5} {:>14}", s.name, s.unit, 0, "n/a");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }
}

/// Formats a number with enough digits to tell two runs apart.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_time_metrics_use_the_fastest_quarter() {
        let times = [4.0, 1.0, 2.0, 8.0];
        let m = Metric::from_times("x", "1/s", &times, |t| 100.0 / t);
        assert_eq!(m.value, 100.0);
        assert_eq!(m.n, 4);
        assert!(m.q1 <= m.median && m.median <= m.q3);
        assert!(!m.exact);
    }

    #[test]
    fn reference_seconds_cancel_common_mode_noise() {
        // Two runs of the same work, the second on a host twice as slow:
        // the work and the reference kernel both took twice as long.
        let n = REF_NOMINAL_NS_PER_OP;
        let quiet = Metric::from_times("x", "1/s", &[1.0, 1.1, 1.3, 1.0], |t| 1000.0 / t);
        let slow = Metric::from_times("x", "1/s", &[2.0, 2.2, 2.6, 2.0], |t| 1000.0 / t);
        let a = quiet.per_ref_s("y", "1/ref_s", &[n, n, 1.2 * n, n]);
        let b = slow.per_ref_s("y", "1/ref_s", &[2.0 * n, 2.4 * n, 2.0 * n, 2.0 * n]);
        assert_eq!(slow.value * 2.0, quiet.value);
        assert_eq!((a.value, a.name.as_str(), a.unit), (1000.0, "y", "1/ref_s"));
        assert_eq!(a.value, b.value);
        assert_eq!(a.median, b.median);
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        let mut run = Run::new("replay_temporal", 3, 1.0, true, false);
        run.check(true, String::new);
        run.check(false, || "bad".into());
        run.push(Metric::single("setup_s", "s", 0.25));
        run.push(Metric::single("not_in_the_spec", "s", 1.0));
        let v = tpharness::wire::parse(&run.contract_line()).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        let Value::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, want);
        assert_eq!(
            metrics[0].1.get("value").unwrap().as_f64(),
            Some(0.25),
            "setup_s comes first"
        );

        let traced = Run::new("replay_temporal", 3, 1.0, true, true);
        let v = tpharness::wire::parse(&traced.contract_line()).unwrap();
        let Value::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
    }
}
