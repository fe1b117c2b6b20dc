//! Deterministic parallel sweep runner.
//!
//! Every figure/table regeneration is a sweep: a list of independent
//! `(workload, experiment)` simulations whose reports are aggregated
//! into tables. [`SweepRunner`] fans those jobs out over scoped worker
//! threads while guaranteeing that **the result vector is a pure
//! function of the job list** — independent of worker count, scheduling
//! order, and submission order:
//!
//! * **Canonical order.** Workers pull jobs from a shared queue, but
//!   results are reassembled by job index, so `run` returns reports in
//!   exactly the order jobs were submitted.
//! * **Stable seeds.** A job's trace seed never depends on which worker
//!   runs it or when. By default each workload keeps the seed it
//!   carries; under [`SweepRunner::with_base_seed`] the seed is
//!   re-derived from a hash of the workload name and the base seed, so
//!   even seed sweeps are order-independent. Crucially the derivation
//!   ignores the experiment config, so a baseline and a candidate run
//!   of the same workload always replay the identical trace.
//! * **Pure jobs.** The simulator itself takes no input other than the
//!   trace and config (no wall-clock, no OS entropy), so a job's report
//!   is a pure function of its cache key.
//!
//! Purity is also what makes the built-in **result cache** sound: the
//! cache is keyed by [`SweepJob::key`] — every workload's name *and
//! seed* plus the experiment fingerprint, i.e. everything the report
//! depends on — so a config that several figures revisit (the stride
//! baseline, most commonly) is simulated once per process and every
//! later request is served byte-identically from memory, while two
//! reseeded runs of one workload never share an entry.

use crate::experiment::Experiment;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tpsim::{CancelToken, SimReport};
use tptrace::rng::splitmix64;
use tptrace::{Mix, Workload};

/// Derives a job's trace seed from a stable `(job key, base seed)`
/// hash (FNV-1a over the key, finalized with splitmix64).
///
/// The job key is the workload *name*, deliberately excluding the
/// experiment config: a baseline and a candidate experiment on the same
/// workload must replay the same trace for their speedup ratio to mean
/// anything.
pub fn derive_seed(base_seed: u64, job_key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in job_key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut s = base_seed;
    let mut mixed = h ^ splitmix64(&mut s);
    splitmix64(&mut mixed)
}

/// One independent simulation in a sweep.
#[derive(Clone, Debug)]
pub enum SweepJob {
    /// A single-core run of one workload.
    Single {
        /// The workload to simulate.
        workload: Workload,
        /// The experiment configuration.
        exp: Experiment,
    },
    /// A multi-programmed mix run (one workload per core).
    Mix {
        /// The mix to simulate.
        mix: Mix,
        /// The experiment configuration (applied to every core).
        exp: Experiment,
    },
}

impl SweepJob {
    /// A single-core job.
    pub fn single(workload: Workload, exp: Experiment) -> Self {
        SweepJob::Single { workload, exp }
    }

    /// A mix job.
    pub fn mix(mix: Mix, exp: Experiment) -> Self {
        SweepJob::Mix { mix, exp }
    }

    /// The workloads, one per core, seeds included.
    pub fn workloads(&self) -> &[Workload] {
        match self {
            SweepJob::Single { workload, .. } => std::slice::from_ref(workload),
            SweepJob::Mix { mix, .. } => &mix.workloads,
        }
    }

    /// The experiment configuration.
    pub fn exp(&self) -> &Experiment {
        match self {
            SweepJob::Single { exp, .. } | SweepJob::Mix { exp, .. } => exp,
        }
    }

    /// The job's cache key: every workload's name and seed × the
    /// experiment fingerprint — everything the report is a function of.
    /// Two jobs with equal keys produce byte-identical reports, so the
    /// runner simulates each distinct key at most once.
    pub fn key(&self) -> String {
        self.key_under(None)
    }

    /// [`SweepJob::key`] of this job as a runner with `base_seed` would
    /// run it, without building the reseeded job.
    fn key_under(&self, base_seed: Option<u64>) -> String {
        // One allocation for a typical key (an experiment prints in
        // about 100 bytes) instead of a doubling series.
        let mut key = String::with_capacity(256);
        match self {
            SweepJob::Single { workload, .. } => write!(key, "single:{}", workload.name),
            SweepJob::Mix { mix, .. } => write!(key, "mix:{mix}"),
        }
        .expect("writing to a String");
        for w in self.workloads() {
            write!(key, "@{:x}", effective_seed(base_seed, w)).expect("writing to a String");
        }
        write!(key, "#{:?}", self.exp()).expect("writing to a String");
        key
    }

    /// This job with every workload reseeded to its effective seed
    /// under `base_seed`.
    fn reseeded(&self, base_seed: u64) -> SweepJob {
        let reseed = |w: &Workload| w.with_seed(effective_seed(Some(base_seed), w));
        match self {
            SweepJob::Single { workload, exp } => SweepJob::single(reseed(workload), exp.clone()),
            SweepJob::Mix { mix, exp } => SweepJob::mix(
                Mix {
                    index: mix.index,
                    workloads: mix.workloads.iter().map(reseed).collect(),
                },
                exp.clone(),
            ),
        }
    }

    /// Simulates the job on the calling thread — the one executor behind
    /// the runner, the service's workers and every local fallback. With
    /// a token the engine polls it at epoch boundaries and `None` means
    /// it fired; without one the run always completes. A completed run
    /// is byte-identical either way.
    pub fn run(&self, cancel: Option<&CancelToken>) -> Option<SimReport> {
        let engine = self.exp().engine(self.workloads());
        match cancel {
            Some(token) => engine.run_with_cancel(token),
            None => Some(engine.run()),
        }
    }
}

/// The seed workload `w` replays under a runner's base seed: its own,
/// or [`derive_seed`] of its name when the runner reseeds.
fn effective_seed(base_seed: Option<u64>, w: &Workload) -> u64 {
    base_seed.map_or(w.seed, |base| derive_seed(base, w.name))
}

/// Deterministic parallel executor for sweep jobs (see module docs).
pub struct SweepRunner {
    workers: usize,
    base_seed: Option<u64>,
    audit: bool,
    cache: Mutex<HashMap<String, SimReport>>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// Creates a runner with the default worker count: the `TPSIM_JOBS`
    /// environment variable if set, otherwise the machine's available
    /// parallelism (see [`crate::jobs::worker_count`], the policy shared
    /// with `tpbench` and the simulation server).
    pub fn new() -> Self {
        // Honour TPSIM_TRACE_CACHE_MB before any job generates a trace.
        crate::jobs::configure_trace_pool();
        let workers = crate::jobs::worker_count(None);
        SweepRunner {
            workers,
            base_seed: None,
            audit: false,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// A single-worker runner (the serial reference path).
    pub fn serial() -> Self {
        Self::new().with_workers(1)
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces every workload's seed with
    /// `derive_seed(base_seed, workload name)`: running `jobs` is then
    /// running the same jobs reseeded by hand, keys and cache included.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = Some(base_seed);
        self
    }

    /// Enables conservation-law auditing: every freshly simulated report
    /// is checked against `tpsim::audit`'s invariants and a violation
    /// aborts the sweep with the failing law named. Debug builds always
    /// audit inside the engine; this flag is the release-mode gate
    /// (surfaced as `--audit` in `tpbench`).
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Whether conservation-law auditing is enabled.
    pub fn audits(&self) -> bool {
        self.audit
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of distinct job keys currently held by the result cache.
    pub fn cached_jobs(&self) -> usize {
        self.cache.lock().expect("sweep cache lock").len()
    }

    /// One-line summary of the process-wide trace pool's counters, for
    /// the end-of-sweep status line `tpbench` prints. The pool
    /// is process-global, so the numbers cover every sweep in the
    /// process, not just this runner's jobs.
    pub fn pool_summary(&self) -> String {
        let s = tptrace::pool::global().stats();
        format!(
            "trace-pool: hits={} misses={} generations={} evictions={} \
             resident={}KiB peak={}KiB entries={}",
            s.hits,
            s.misses,
            s.generations,
            s.evictions,
            s.resident_bytes / 1024,
            s.peak_resident_bytes / 1024,
            s.entries
        )
    }

    /// Runs every job and returns the reports **in job order**. Jobs
    /// whose key was already simulated (earlier in this batch or in a
    /// previous call) are served from the cache without re-simulating.
    pub fn run(&self, jobs: &[SweepJob]) -> Vec<SimReport> {
        // Collect the distinct keys that still need simulating, in
        // first-appearance order (stable regardless of worker count).
        let keys: Vec<String> = jobs.iter().map(|j| j.key_under(self.base_seed)).collect();
        let mut pending: Vec<(&str, &SweepJob)> = Vec::new();
        {
            let cache = self.cache.lock().expect("sweep cache lock");
            let mut queued: std::collections::HashSet<&str> = std::collections::HashSet::new();
            for (key, job) in keys.iter().zip(jobs) {
                if !cache.contains_key(key.as_str()) && queued.insert(key.as_str()) {
                    pending.push((key.as_str(), job));
                }
            }
        }

        let fresh = self.map(&pending, |_, (key, job)| {
            let report = match self.base_seed {
                None => job.run(None),
                Some(base) => job.reseeded(base).run(None),
            }
            .expect("a run without a cancel token always completes");
            if self.audit {
                assert!(
                    report.audit.passed(),
                    "conservation-law audit failed for {key}:\n{}",
                    report.audit
                );
            }
            report
        });

        let mut cache = self.cache.lock().expect("sweep cache lock");
        for ((key, _), report) in pending.iter().zip(fresh) {
            cache.insert((*key).to_string(), report);
        }
        keys.iter()
            .map(|k| cache.get(k).expect("every key simulated or cached").clone())
            .collect()
    }

    /// Runs one job (through the cache).
    pub fn run_one(&self, job: SweepJob) -> SimReport {
        self.run(std::slice::from_ref(&job)).remove(0)
    }

    /// Low-level deterministic parallel map: applies `f` to every item
    /// on a scoped worker pool and returns the outputs in item order.
    ///
    /// This is the primitive `run` is built on; it is public so tests
    /// (and future sweep layers) can exercise the scheduling machinery
    /// with arbitrary job shapes.
    ///
    /// # Panics
    /// Propagates panics from `f`, and panics if the reassembled result
    /// set does not contain exactly one output per item (lost or
    /// duplicated jobs — which the tests assert never happens).
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    collected.lock().expect("sweep result lock").extend(local);
                });
            }
        });
        // Back into submission order: exactly one result per slot of
        // `0..n` (a lost or duplicated job is a harness bug, never data).
        let mut indexed = collected.into_inner().expect("sweep result lock");
        indexed.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(indexed.len(), items.len(), "sweep lost or duplicated jobs");
        for (slot, &(i, _)) in indexed.iter().enumerate() {
            assert_eq!(slot, i, "sweep result indices must be exactly 0..n");
        }
        indexed.into_iter().map(|(_, u)| u).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{L1Kind, TemporalKind};
    use tptrace::{workloads, Scale};

    fn job(name: &str, temporal: TemporalKind) -> SweepJob {
        SweepJob::single(
            workloads::by_name(name).unwrap(),
            Experiment::new(Scale::Test)
                .l1(L1Kind::Stride)
                .temporal(temporal),
        )
    }

    #[test]
    fn map_preserves_item_order() {
        let runner = SweepRunner::new().with_workers(8);
        let items: Vec<usize> = (0..100).collect();
        let out = runner.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let jobs = vec![
            job("spec06.mcf", TemporalKind::None),
            job("spec06.mcf", TemporalKind::Streamline),
            job("gap.bfs", TemporalKind::Triangel),
        ];
        let serial = SweepRunner::serial().run(&jobs);
        let parallel = SweepRunner::new().with_workers(4).run(&jobs);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cores[0].cycles, p.cores[0].cycles);
            assert_eq!(s.cores[0].instructions, p.cores[0].instructions);
            assert_eq!(s.cores[0].l2.misses, p.cores[0].l2.misses);
        }
    }

    #[test]
    fn cache_serves_repeated_keys_without_resimulating() {
        let runner = SweepRunner::new().with_workers(2);
        let j = job("spec06.bzip2", TemporalKind::None);
        let first = runner.run(&[j.clone(), j.clone()]);
        assert_eq!(runner.cached_jobs(), 1, "duplicate keys simulated once");
        let again = runner.run_one(j);
        assert_eq!(first[0].cores[0].cycles, first[1].cores[0].cycles);
        assert_eq!(first[0].cores[0].cycles, again.cores[0].cycles);
    }

    #[test]
    fn derived_seeds_ignore_config_but_not_base() {
        assert_eq!(derive_seed(1, "gap.pr"), derive_seed(1, "gap.pr"));
        assert_ne!(derive_seed(1, "gap.pr"), derive_seed(2, "gap.pr"));
        assert_ne!(derive_seed(1, "gap.pr"), derive_seed(1, "gap.cc"));
    }

    #[test]
    fn a_token_cancels_the_run_and_a_live_one_does_not_perturb_it() {
        let j = job("gap.tc", TemporalKind::None);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(j.run(Some(&cancelled)).is_none());

        let live = CancelToken::new();
        let via_token = j.run(Some(&live)).unwrap();
        let plain = j.run(None).unwrap();
        assert!(live.polls() > 0, "the engine never polled the token");
        assert_eq!(format!("{via_token:?}"), format!("{plain:?}"));
    }

    #[test]
    fn the_key_under_a_base_seed_is_the_reseeded_jobs_key() {
        let single = job("gap.pr", TemporalKind::Streamline);
        let mix = SweepJob::mix(
            tptrace::MixGenerator::new(3).mixes(2, 1).remove(0),
            single.exp().clone(),
        );
        for j in [single, mix] {
            assert_eq!(j.key_under(None), j.key());
            assert_eq!(j.key_under(Some(9)), j.reseeded(9).key());
            assert_ne!(j.key_under(Some(9)), j.key());
            assert_ne!(j.key_under(Some(9)), j.key_under(Some(10)));
        }
    }

    #[test]
    fn base_seed_changes_results_deterministically() {
        let jobs = vec![job("spec06.xalancbmk", TemporalKind::None)];
        let a = SweepRunner::serial().with_base_seed(7).run(&jobs);
        let b = SweepRunner::serial().with_base_seed(7).run(&jobs);
        let c = SweepRunner::serial().with_base_seed(8).run(&jobs);
        assert_eq!(a[0].cores[0].cycles, b[0].cores[0].cycles);
        assert_ne!(a[0].cores[0].cycles, c[0].cores[0].cycles);
    }
}
