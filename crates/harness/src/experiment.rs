//! Experiment descriptions and runners.

use crate::baselines::{L1Kind, L2Kind, TemporalKind};
use tpsim::{CorePlan, Engine, SimReport, SystemConfig};
use tptrace::{Mix, Scale, Workload};

/// A complete experiment configuration: which prefetchers run at each
/// level, at what scale, on what system.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Trace scale.
    pub scale: Scale,
    /// L1D prefetcher.
    pub l1: L1Kind,
    /// Regular L2 prefetcher.
    pub l2: L2Kind,
    /// Temporal prefetcher.
    pub temporal: TemporalKind,
    /// DRAM bandwidth scaling factor (Figure 10c).
    pub bandwidth_factor: f64,
    /// Warmup fraction of each trace.
    pub warmup: f64,
}

impl Experiment {
    /// A bare experiment (no prefetchers) at the given scale.
    pub fn new(scale: Scale) -> Self {
        Experiment {
            scale,
            l1: L1Kind::None,
            l2: L2Kind::None,
            temporal: TemporalKind::None,
            bandwidth_factor: 1.0,
            warmup: 0.2,
        }
    }

    /// Sets the L1 prefetcher.
    pub fn l1(mut self, l1: L1Kind) -> Self {
        self.l1 = l1;
        self
    }

    /// Sets the regular L2 prefetcher.
    pub fn l2(mut self, l2: L2Kind) -> Self {
        self.l2 = l2;
        self
    }

    /// Sets the temporal prefetcher.
    pub fn temporal(mut self, t: TemporalKind) -> Self {
        self.temporal = t;
        self
    }

    /// Scales DRAM bandwidth (Figure 10c).
    pub fn bandwidth(mut self, factor: f64) -> Self {
        self.bandwidth_factor = factor;
        self
    }

    /// The range checks an experiment passes before it may reach an
    /// engine, which panics on them: a finite, positive bandwidth factor
    /// and a warmup fraction in `[0, 1)`.
    ///
    /// # Errors
    /// A message naming the rejected value.
    pub fn validate(&self) -> Result<(), String> {
        let bandwidth = self.bandwidth_factor;
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(format!(
                "bandwidth must be finite and positive, got {bandwidth}"
            ));
        }
        tpsim::validate_warmup_fraction(self.warmup).map_err(|e| e.to_string())
    }

    /// A stable, human-readable fingerprint of every knob that affects
    /// simulation results. Two experiments with equal fingerprints are
    /// interchangeable, which is what the sweep runner's result cache
    /// keys on (together with each workload's name and seed).
    ///
    /// Derived from the `Debug` form, which spells out the scale, all
    /// three prefetcher kinds (including embedded ablation configs),
    /// the bandwidth factor, and the warmup fraction.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// The engine that simulates `workloads` (one per core, each with
    /// its own prefetcher instances) under this experiment — the one
    /// place a job description becomes a simulator. Callers pick how it
    /// runs: `.run()`, `.run_with_cancel(token)`, `.batch_size(n)`.
    pub fn engine(&self, workloads: &[Workload]) -> Engine {
        let plans = workloads.iter().map(|w| self.plan(w)).collect();
        let system =
            SystemConfig::with_cores(workloads.len()).with_bandwidth_factor(self.bandwidth_factor);
        Engine::new(system, plans).warmup_fraction(self.warmup)
    }

    fn plan(&self, w: &Workload) -> CorePlan {
        // Shared-pool path: every experiment asking for the same
        // (workload, seed, scale) replays one pooled Arc<Trace>.
        let mut plan = CorePlan::bare(w.generate_shared(self.scale));
        if let Some(p) = self.l1.build() {
            plan = plan.with_l1(p);
        }
        if let Some(p) = self.l2.build() {
            plan = plan.with_l2(p);
        }
        if let Some(p) = self.temporal.build() {
            plan = plan.with_temporal(p);
        }
        plan
    }
}

/// Runs a single-core experiment on one workload.
pub fn run_single(workload: &Workload, exp: &Experiment) -> SimReport {
    exp.engine(std::slice::from_ref(workload)).run()
}

/// Runs a multi-core experiment on a mix (one workload per core).
pub fn run_mix(mix: &Mix, exp: &Experiment) -> SimReport {
    exp.engine(&mix.workloads).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tptrace::{workloads, MixGenerator};

    #[test]
    fn single_core_run_is_sane() {
        let w = workloads::by_name("spec06.bzip2").unwrap();
        let exp = Experiment::new(Scale::Test).l1(L1Kind::Stride);
        let r = run_single(&w, &exp);
        assert_eq!(r.cores.len(), 1);
        assert!(r.cores[0].ipc() > 0.0);
    }

    #[test]
    fn temporal_prefetcher_attaches_and_reports() {
        let w = workloads::by_name("spec06.xalancbmk").unwrap();
        let exp = Experiment::new(Scale::Test)
            .l1(L1Kind::Stride)
            .temporal(TemporalKind::Streamline);
        let r = run_single(&w, &exp);
        assert!(r.cores[0].temporal.trigger_lookups > 0);
    }

    #[test]
    fn mix_run_covers_all_cores() {
        let mix = &MixGenerator::new(5).mixes(2, 1)[0];
        let exp = Experiment::new(Scale::Test).l1(L1Kind::Stride);
        let r = run_mix(mix, &exp);
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.instructions > 0));
    }

    #[test]
    fn validate_rejects_what_would_panic_the_engine() {
        let exp = |bandwidth: f64, warmup: f64| {
            let mut e = Experiment::new(Scale::Test).bandwidth(bandwidth);
            e.warmup = warmup;
            e.validate()
        };
        assert_eq!(exp(1.0, 0.2), Ok(()));
        assert_eq!(exp(0.25, 0.0), Ok(()));
        // An infinite factor would saturate the DRAM channel count, so
        // it is checked here and never run.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = exp(bad, 0.2).expect_err("rejected");
            assert!(
                err.starts_with("bandwidth must be finite and positive"),
                "{err}"
            );
        }
        for bad in [1.0, -0.1, f64::NAN] {
            assert!(
                exp(1.0, bad).expect_err("rejected").contains("warmup"),
                "{bad}"
            );
        }
    }

    #[test]
    fn bandwidth_factor_passes_through() {
        let w = workloads::by_name("spec06.libquantum").unwrap();
        let narrow = run_single(&w, &Experiment::new(Scale::Test).bandwidth(0.25));
        let wide = run_single(&w, &Experiment::new(Scale::Test).bandwidth(2.0));
        assert!(
            wide.cores[0].ipc() > narrow.cores[0].ipc(),
            "more bandwidth should help a stream: {} vs {}",
            wide.cores[0].ipc(),
            narrow.cores[0].ipc()
        );
    }
}
