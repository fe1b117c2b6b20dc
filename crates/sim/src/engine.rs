//! The simulation engine: interleaves per-core traces by issue time,
//! drives the hierarchy, and invokes prefetchers.

use crate::audit::{self, AuditReport};
use crate::cancel::{CancelToken, CANCEL_EPOCH};
use crate::config::{validate_warmup_fraction, ConfigError, SystemConfig};
use crate::core_model::CoreTiming;
use crate::hierarchy::{FeedbackEvent, Hierarchy, PrefetchOrigin};
use crate::prefetch::{
    AccessPrefetcher, MetaCtx, PartitionSpec, TemporalEvent, TemporalPrefetcher,
};
use crate::stats::{CoreReport, SimReport, TemporalStats};
use std::sync::Arc;
use tptrace::record::{Access, AccessKind, Line};
use tptrace::Trace;

/// Everything attached to one simulated core.
pub struct CorePlan {
    /// The trace to replay. Held by `Arc` so a mix whose cores run the
    /// same workload — and parallel sweep jobs across experiments —
    /// replay one shared allocation instead of cloning megabytes of
    /// trace per core (see [`tptrace::pool`]).
    pub trace: Arc<Trace>,
    /// Optional L1D prefetcher (stride / Berti).
    pub l1_prefetcher: Option<Box<dyn AccessPrefetcher>>,
    /// Optional regular L2 prefetcher (IPCP / Bingo / SPP-PPF).
    pub l2_prefetcher: Option<Box<dyn AccessPrefetcher>>,
    /// Optional temporal prefetcher (Triage / Triangel / Streamline).
    pub temporal: Option<Box<dyn TemporalPrefetcher>>,
}

impl CorePlan {
    /// A plan with no prefetchers. Accepts an owned [`Trace`] or a
    /// shared `Arc<Trace>` from the trace pool.
    pub fn bare(trace: impl Into<Arc<Trace>>) -> Self {
        CorePlan {
            trace: trace.into(),
            l1_prefetcher: None,
            l2_prefetcher: None,
            temporal: None,
        }
    }

    /// Attaches an L1 prefetcher.
    pub fn with_l1(mut self, p: Box<dyn AccessPrefetcher>) -> Self {
        self.l1_prefetcher = Some(p);
        self
    }

    /// Attaches a regular L2 prefetcher.
    pub fn with_l2(mut self, p: Box<dyn AccessPrefetcher>) -> Self {
        self.l2_prefetcher = Some(p);
        self
    }

    /// Attaches a temporal prefetcher.
    pub fn with_temporal(mut self, p: Box<dyn TemporalPrefetcher>) -> Self {
        self.temporal = Some(p);
        self
    }
}

/// Maximum prefetch-queue drain per event, to bound pathological cases.
const MAX_PREFETCHES_PER_EVENT: usize = 8;

/// Default replay block size (accesses pulled per block from the packed
/// trace arrays). Large enough to amortise the per-block interleave
/// scan and bookkeeping over hundreds of accesses, small enough that a
/// block of `Access` state stays resident in L1 while it replays.
pub const DEFAULT_BATCH: usize = 256;

/// Accuracy-tracking epoch in issued prefetches (paper Section IV-E4).
const ACCURACY_EPOCH: u64 = 2048;

struct CoreRunState {
    timing: CoreTiming,
    /// Total accesses processed (wraps through the trace).
    processed: usize,
    pending_issue: Option<u64>,
    /// The core's report, frozen when it completes its target (short
    /// traces in a mix loop; their numbers freeze at one full pass).
    snapshot: Option<CoreReport>,
    // Accuracy epoch tracking for utility-aware policies.
    epoch_useful: u64,
    epoch_feedback: u64,
    accuracy: f64,
    // Measurement snapshots taken at warmup end.
    measure_from_instr: u64,
    measure_from_cycles: u64,
    measure_from_processed: usize,
    temporal_snapshot: TemporalStats,
    l1_prefetches: u64,
    l2_prefetches: u64,
    /// Temporal prefetches the hierarchy accepted / refused (duplicates,
    /// backlog drops, per-event truncation) since warmup reset.
    temporal_pf_issued: u64,
    temporal_pf_dropped: u64,
    address_tag: u64,
}

/// The trace-driven simulation engine.
///
/// ```
/// use tpsim::{Engine, CorePlan, SystemConfig};
/// use tptrace::{workloads, Scale};
///
/// let w = workloads::by_name("spec06.mcf").unwrap();
/// let plan = CorePlan::bare(w.generate(Scale::Test));
/// let report = Engine::new(SystemConfig::single_core(), vec![plan]).run();
/// assert!(report.cores[0].ipc() > 0.0);
/// ```
pub struct Engine {
    hierarchy: Hierarchy,
    plans: Vec<CorePlan>,
    states: Vec<CoreRunState>,
    warmup_frac: f64,
    /// Conservation-law violations collected while running (snapshot
    /// monotonicity); merged with the final hierarchy audit in `report`.
    audit: AuditReport,
    /// Scratch buffers swapped with the hierarchy's feedback/sample
    /// queues each step; both sides retain capacity, so steady-state
    /// draining never allocates.
    feedback_scratch: Vec<FeedbackEvent>,
    samples_scratch: Vec<Line>,
    /// Scratch buffer handed to `TemporalPrefetcher::on_event` each
    /// event (cleared before the call, capacity retained across events).
    prefetch_scratch: Vec<Line>,
    /// Scratch buffer handed to `AccessPrefetcher::on_access` (same
    /// protocol as `prefetch_scratch`: cleared per call, capacity
    /// retained, so the regular-prefetcher path never allocates).
    access_scratch: Vec<Line>,
    /// Replay block size; 1 selects the serial reference loop.
    batch: usize,
}

impl Engine {
    /// Creates an engine. `plans.len()` must equal `config.cores`.
    ///
    /// # Panics
    /// Panics if the plan count does not match the core count.
    pub fn new(config: SystemConfig, plans: Vec<CorePlan>) -> Self {
        Self::try_new(config, plans).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an engine, returning the validation error instead of
    /// panicking on a plan/core mismatch (the service path).
    ///
    /// # Errors
    /// [`ConfigError::PlanCountMismatch`] if the plan count does not
    /// match the configured core count.
    pub fn try_new(config: SystemConfig, plans: Vec<CorePlan>) -> Result<Self, ConfigError> {
        if plans.len() != config.cores {
            return Err(ConfigError::PlanCountMismatch {
                plans: plans.len(),
                cores: config.cores,
            });
        }
        let states = (0..plans.len())
            .map(|i| CoreRunState {
                timing: CoreTiming::new(config.core.width, config.core.rob),
                processed: 0,
                pending_issue: None,
                snapshot: None,
                epoch_useful: 0,
                epoch_feedback: 0,
                accuracy: 0.0,
                measure_from_instr: 0,
                measure_from_cycles: 0,
                measure_from_processed: 0,
                temporal_snapshot: TemporalStats::default(),
                l1_prefetches: 0,
                l2_prefetches: 0,
                temporal_pf_issued: 0,
                temporal_pf_dropped: 0,
                // Distinct high bits per core keep multiprogrammed
                // address spaces disjoint, as in ChampSim mixes.
                address_tag: (i as u64) << 52,
            })
            .collect();
        let mut hierarchy = Hierarchy::new(config);
        for (core, plan) in plans.iter().enumerate() {
            hierarchy.set_llc_sampling(core, plan.temporal.is_some());
        }
        Ok(Engine {
            hierarchy,
            plans,
            states,
            warmup_frac: 0.2,
            audit: AuditReport::default(),
            feedback_scratch: Vec::new(),
            samples_scratch: Vec::new(),
            prefetch_scratch: Vec::new(),
            access_scratch: Vec::new(),
            batch: DEFAULT_BATCH,
        })
    }

    /// Sets the replay block size (default [`DEFAULT_BATCH`]). A batch
    /// of 1 selects the serial reference loop; any batch produces
    /// byte-identical reports (pinned by the `batched_equivalence`
    /// differential suite), so this knob trades nothing but speed.
    ///
    /// # Panics
    /// Panics if `batch` is 0.
    pub fn batch_size(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be at least 1");
        self.batch = batch;
        self
    }

    /// Sets the warmup fraction (default 0.2): statistics are reset after
    /// this fraction of each trace has executed.
    ///
    /// # Panics
    /// Panics if `frac` is NaN or outside `[0, 1)`; use
    /// [`Engine::try_warmup_fraction`] to get the rejection as a value.
    pub fn warmup_fraction(self, frac: f64) -> Self {
        self.try_warmup_fraction(frac).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the warmup fraction, returning the validation error instead
    /// of panicking. NaN is rejected explicitly
    /// ([`ConfigError::WarmupNan`]); anything outside `[0, 1)` is
    /// [`ConfigError::WarmupOutOfRange`].
    ///
    /// # Errors
    /// See above; on error the engine is consumed (rebuild it), which
    /// keeps the builder chain ergonomic for the panicking wrapper.
    pub fn try_warmup_fraction(mut self, frac: f64) -> Result<Self, ConfigError> {
        validate_warmup_fraction(frac)?;
        self.warmup_frac = frac;
        Ok(self)
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Each core's target is one full pass over its trace measured after
    /// warmup. In a mix, short traces loop (keeping the caches warm and
    /// the shared LLC/DRAM contended) with their statistics frozen at
    /// target, until every core completes — mirroring fixed-instruction
    /// multi-programmed methodology.
    pub fn run(self) -> SimReport {
        self.run_impl(None)
            .expect("run without a cancel token always completes")
    }

    /// Runs the simulation with cooperative cancellation: the engine
    /// checks `cancel` at epoch boundaries (every [`CANCEL_EPOCH`]
    /// processed accesses) and returns `None` if cancellation was
    /// requested, discarding the partial run. A completed run returns
    /// the same report `run` would have produced — the check adds no
    /// simulation-visible state.
    pub fn run_with_cancel(self, cancel: &CancelToken) -> Option<SimReport> {
        self.run_impl(Some(cancel))
    }

    fn run_impl(self, cancel: Option<&CancelToken>) -> Option<SimReport> {
        if self.batch <= 1 {
            self.run_serial(cancel)
        } else {
            self.run_batched(cancel)
        }
    }

    /// The per-access reference loop. `batch_size(1)` selects it, which
    /// is what makes the batched-vs-serial differential suite a real
    /// comparison rather than the batched path against itself.
    fn run_serial(mut self, cancel: Option<&CancelToken>) -> Option<SimReport> {
        let cores = self.plans.len();
        let warmup_at: Vec<usize> = self
            .plans
            .iter()
            .map(|p| (p.trace.len() as f64 * self.warmup_frac) as usize)
            .collect();
        let mut warmed = vec![self.warmup_frac == 0.0; cores];
        let mut warm_count = if self.warmup_frac == 0.0 { cores } else { 0 };
        let mut done_count = 0usize;

        // Prime each core's first pending issue time.
        for c in 0..cores {
            self.prime(c);
        }

        let mut steps: u64 = 0;
        while done_count < cores {
            // Epoch-boundary cancellation check (see `crate::cancel`):
            // cheap enough to leave simulation results bit-identical
            // (it touches no simulation state) while bounding the
            // latency of a deadline or shutdown request.
            if steps.is_multiple_of(CANCEL_EPOCH) {
                if let Some(token) = cancel {
                    if token.is_cancelled() {
                        return None;
                    }
                }
            }
            steps += 1;
            // Pick the core with the earliest pending issue.
            let mut best: Option<(u64, usize)> = None;
            for (c, s) in self.states.iter().enumerate() {
                if let Some(t) = s.pending_issue {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, c));
                    }
                }
            }
            let Some((_, core)) = best else { break };
            self.step(core);

            // Warmup bookkeeping.
            if !warmed[core] && self.states[core].processed >= warmup_at[core] {
                warmed[core] = true;
                warm_count += 1;
                if warm_count == cores {
                    self.reset_measurement();
                }
            }
            // Completion bookkeeping: a core is done after one full
            // measured pass; freeze its numbers.
            if warm_count == cores && self.states[core].snapshot.is_none() {
                let s = &self.states[core];
                if s.processed >= s.measure_from_processed + self.plans[core].trace.len() {
                    self.take_snapshot(core);
                    done_count += 1;
                }
            }
            self.prime(core);
        }
        Some(self.report())
    }

    /// Batched replay: pulls fixed-size blocks straight from the packed
    /// SoA trace arrays and hoists every per-access branch of the serial
    /// loop — cancel-epoch check, interleave scan, warmup / completion /
    /// retire-bound bookkeeping — to per-block decisions.
    ///
    /// Byte-identity with [`Engine::run_serial`] rests on two
    /// invariants (see DESIGN.md §11):
    ///
    /// * **Frozen interleave bounds.** Stepping core `c` mutates only
    ///   `c`'s `pending_issue`, so the serial first-minimum scan keeps
    ///   selecting `c` exactly while its next issue time stays strictly
    ///   below every lower-index core's pending time and at-or-below
    ///   every higher-index core's. Both bounds are constants for the
    ///   duration of the block and are checked inline.
    /// * **Boundary-aligned caps.** The block length is clamped so no
    ///   bookkeeping boundary (trace wrap, warmup end, measured-pass
    ///   completion, finished-core retire bound) falls strictly inside
    ///   a block; every hoisted decision therefore fires at the same
    ///   access index the serial loop would have fired it.
    fn run_batched(mut self, cancel: Option<&CancelToken>) -> Option<SimReport> {
        let cores = self.plans.len();
        let batch = self.batch;
        let warmup_at: Vec<usize> = self
            .plans
            .iter()
            .map(|p| (p.trace.len() as f64 * self.warmup_frac) as usize)
            .collect();
        let mut warmed = vec![self.warmup_frac == 0.0; cores];
        let mut warm_count = if self.warmup_frac == 0.0 { cores } else { 0 };
        let mut done_count = 0usize;

        for c in 0..cores {
            self.prime(c);
        }

        let mut steps: u64 = 0;
        // First cancel poll happens before any work, exactly like the
        // serial loop's `steps.is_multiple_of(CANCEL_EPOCH)` at step 0;
        // later polls land on the first block boundary at or after each
        // epoch multiple, bounding the drift past an epoch by one block.
        let mut next_cancel_check: u64 = 0;
        while done_count < cores {
            if steps >= next_cancel_check {
                if let Some(token) = cancel {
                    if token.is_cancelled() {
                        return None;
                    }
                }
                next_cancel_check = (steps / CANCEL_EPOCH + 1) * CANCEL_EPOCH;
            }
            // Serial-identical selection: earliest pending issue time,
            // lowest core index winning ties.
            let mut best: Option<(u64, usize)> = None;
            for (c, s) in self.states.iter().enumerate() {
                if let Some(t) = s.pending_issue {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, c));
                    }
                }
            }
            let Some((_, core)) = best else { break };
            // Frozen interleave bounds for this block.
            let mut lo = u64::MAX;
            let mut hi = u64::MAX;
            for (c, s) in self.states.iter().enumerate() {
                if c == core {
                    continue;
                }
                if let Some(t) = s.pending_issue {
                    if c < core {
                        lo = lo.min(t);
                    } else {
                        hi = hi.min(t);
                    }
                }
            }
            // Boundary-aligned block cap.
            let trace_len = self.plans[core].trace.len();
            let s = &self.states[core];
            let pos = s.processed % trace_len;
            let mut cap = batch.min(trace_len - pos);
            if !warmed[core] {
                cap = cap.min(warmup_at[core].saturating_sub(s.processed).max(1));
            }
            if warm_count == cores && s.snapshot.is_none() {
                let target = s.measure_from_processed + trace_len;
                cap = cap.min(target.saturating_sub(s.processed).max(1));
            }
            if s.snapshot.is_some() {
                let bound = s.measure_from_processed + 4 * trace_len;
                cap = cap.min(bound.saturating_sub(s.processed).max(1));
            }
            let trace = Arc::clone(&self.plans[core].trace);
            let block = trace.block(pos, cap);
            let mut issue = self.states[core].pending_issue.take().expect("primed");
            let mut ran = 0usize;
            loop {
                let access = block.get(ran);
                self.states[core].processed += 1;
                self.step_with(core, &access, issue);
                ran += 1;
                if ran == cap {
                    break;
                }
                // Inline prime: identical to `prime()` for a non-empty,
                // non-wrapping block on an unfinished-or-capped core.
                let t = self.states[core].timing.begin_access(&block.get(ran));
                if t < lo && t <= hi {
                    issue = t;
                } else {
                    // Another core now wins the scan; bank the issue
                    // time (this is exactly what serial `prime` stores).
                    self.states[core].pending_issue = Some(t);
                    break;
                }
            }
            steps += ran as u64;

            // Post-block bookkeeping: the cap clamps guarantee these
            // fire at the same access counts as the serial loop.
            if !warmed[core] && self.states[core].processed >= warmup_at[core] {
                warmed[core] = true;
                warm_count += 1;
                if warm_count == cores {
                    self.reset_measurement();
                }
            }
            if warm_count == cores && self.states[core].snapshot.is_none() {
                let s = &self.states[core];
                if s.processed >= s.measure_from_processed + trace_len {
                    self.take_snapshot(core);
                    done_count += 1;
                }
            }
            self.prime(core);
        }
        Some(self.report())
    }

    /// Computes the issue time of the core's next access.
    fn prime(&mut self, core: usize) {
        let s = &mut self.states[core];
        if s.pending_issue.is_some() {
            return;
        }
        let trace = &self.plans[core].trace;
        if trace.is_empty() {
            return;
        }
        // A finished core keeps looping to preserve shared-resource
        // contention, but only up to a bound: with extreme IPC ratios in
        // a mix, unbounded looping would multiply simulation work
        // without changing the laggard's environment materially.
        if s.snapshot.is_some()
            && s.processed >= s.measure_from_processed + 4 * trace.len()
        {
            return;
        }
        let access = trace.get(s.processed % trace.len());
        s.pending_issue = Some(s.timing.begin_access(&access));
    }

    /// Processes the core's pending access end-to-end (serial path).
    fn step(&mut self, core: usize) {
        let issue = self.states[core].pending_issue.take().expect("primed");
        let idx = self.states[core].processed % self.plans[core].trace.len();
        let access = self.plans[core].trace.get(idx);
        self.states[core].processed += 1;
        self.step_with(core, &access, issue);
    }

    /// Simulates one access issued at `issue` — the shared body of the
    /// serial and batched loops. The caller has already advanced
    /// `processed` and consumed `pending_issue`.
    fn step_with(&mut self, core: usize, access: &Access, issue: u64) {
        let tag = self.states[core].address_tag;
        let line = Line(access.addr.line().0 | tag);
        let is_write = access.kind == AccessKind::Store;

        let outcome = self.hierarchy.demand_access(core, line, is_write, issue);
        let complete = match access.kind {
            AccessKind::Load => outcome.complete,
            AccessKind::Store => issue, // stores retire via the store buffer
        };
        self.states[core].timing.finish_access(access, complete);

        // L1 prefetcher trains on every L1 access, the regular L2
        // prefetcher on L2 queries (L1 misses).
        self.train_regular(
            core,
            PrefetchOrigin::L1,
            access,
            line,
            outcome.l1_hit,
            issue,
        );
        if outcome.l2_queried {
            self.train_regular(
                core,
                PrefetchOrigin::L2Regular,
                access,
                line,
                outcome.l2_hit,
                issue,
            );
        }

        // Temporal prefetcher trains on L2 misses and prefetch hits.
        if let Some(kind) = outcome.l2_event {
            if self.plans[core].temporal.is_some() {
                let accuracy = self.states[core].accuracy;
                let mut ctx = MetaCtx::new(issue, accuracy);
                let ev = TemporalEvent {
                    pc: access.pc,
                    line,
                    kind,
                    now: issue,
                };
                let tp = self.plans[core].temporal.as_mut().expect("checked");
                let mut lines = std::mem::take(&mut self.prefetch_scratch);
                lines.clear();
                tp.on_event(&mut ctx, ev, &mut lines);
                // Nothing below can move the partition again: ask once.
                let spec = tp.partition();
                let dedicated = spec == PartitionSpec::Dedicated;
                // Metadata reads delay the dependent prefetches.
                let delay = if ctx.reads() > 0 {
                    self.hierarchy.metadata_read_latency()
                } else {
                    0
                };
                self.hierarchy.apply_meta_charges(core, &ctx, dedicated);
                let mut issued = 0u64;
                let mut dropped = 0u64;
                for (i, &l) in lines.iter().enumerate() {
                    if i >= MAX_PREFETCHES_PER_EVENT {
                        dropped += 1; // queue truncation
                        continue;
                    }
                    match self
                        .hierarchy
                        .prefetch(core, l, issue + delay, PrefetchOrigin::Temporal)
                    {
                        Some(_) => issued += 1,
                        None => dropped += 1, // duplicate or backlog drop
                    }
                }
                self.prefetch_scratch = lines;
                self.states[core].temporal_pf_issued += issued;
                self.states[core].temporal_pf_dropped += dropped;
                // Partition changes (dynamic repartitioning).
                if self.hierarchy.partition(core) != spec {
                    self.hierarchy.apply_partition(core, spec, issue);
                }
            }
        }

        // Deliver sampled LLC accesses to the temporal prefetcher's
        // data-utility model (hardware set dueling observes all LLC
        // traffic, including prefetch-driven fills).
        if self.plans[core].temporal.is_some() {
            self.hierarchy
                .drain_llc_samples_into(core, &mut self.samples_scratch);
            let tp = self.plans[core].temporal.as_mut().expect("checked");
            for &l in &self.samples_scratch {
                tp.observe_llc(l);
            }
        }

        // Deliver prefetch feedback and update accuracy epochs. The
        // index loop (events are `Copy`) keeps the scratch buffer
        // borrow disjoint from the `states`/`plans` mutations inside.
        self.hierarchy
            .drain_feedback_into(&mut self.feedback_scratch);
        for idx in 0..self.feedback_scratch.len() {
            let fb = self.feedback_scratch[idx];
            let s = &mut self.states[fb.core];
            if fb.origin == PrefetchOrigin::Temporal {
                s.epoch_feedback += 1;
                if fb.useful {
                    s.epoch_useful += 1;
                }
                if s.epoch_feedback >= ACCURACY_EPOCH {
                    s.accuracy = s.epoch_useful as f64 / s.epoch_feedback as f64;
                    s.epoch_feedback = 0;
                    s.epoch_useful = 0;
                }
                if let Some(tp) = self.plans[fb.core].temporal.as_mut() {
                    tp.on_feedback(fb.line, fb.useful);
                }
            }
        }
    }

    /// Trains `core`'s regular prefetcher for `origin`'s level (if it has
    /// one) on this access, issues what it asks for and counts what the
    /// hierarchy accepted. The scratch buffer keeps its capacity, so this
    /// path never allocates in steady state.
    fn train_regular(
        &mut self,
        core: usize,
        origin: PrefetchOrigin,
        access: &Access,
        line: Line,
        hit: bool,
        issue: u64,
    ) {
        let (plan, state) = (&mut self.plans[core], &mut self.states[core]);
        let (prefetcher, issued) = match origin {
            PrefetchOrigin::L1 => (&mut plan.l1_prefetcher, &mut state.l1_prefetches),
            PrefetchOrigin::L2Regular => (&mut plan.l2_prefetcher, &mut state.l2_prefetches),
            PrefetchOrigin::Temporal => return, // trained by `on_event`
        };
        let Some(prefetcher) = prefetcher else { return };
        self.access_scratch.clear();
        prefetcher.on_access(access.pc, line, hit, &mut self.access_scratch);
        for &pl in self.access_scratch.iter().take(MAX_PREFETCHES_PER_EVENT) {
            if self.hierarchy.prefetch(core, pl, issue, origin).is_some() {
                *issued += 1;
            }
        }
    }

    /// Zeroes statistics at warmup end; timing state is preserved.
    fn reset_measurement(&mut self) {
        self.hierarchy.reset_stats();
        for (c, s) in self.states.iter_mut().enumerate() {
            s.measure_from_instr = s.timing.instructions();
            s.measure_from_cycles = s.timing.cycles();
            s.measure_from_processed = s.processed;
            s.l1_prefetches = 0;
            s.l2_prefetches = 0;
            s.temporal_pf_issued = 0;
            s.temporal_pf_dropped = 0;
            if let Some(tp) = self.plans[c].temporal.as_ref() {
                s.temporal_snapshot = tp.stats();
            }
        }
    }

    /// Freezes a completed core's measured numbers. Counters are
    /// checked for monotonicity against their warmup baselines before
    /// differencing (a regressing counter would underflow the diff);
    /// any regression is recorded as an audit violation and the
    /// offending diff clamped to zero.
    fn take_snapshot(&mut self, core: usize) {
        let s = &self.states[core];
        let mut mono = AuditReport::default();
        let mut temporal = match self.plans[core].temporal.as_ref() {
            Some(tp) => {
                let now = tp.stats();
                mono.merge(audit::check_temporal_monotonic(
                    core,
                    &s.temporal_snapshot,
                    &now,
                ));
                if mono.passed() {
                    now - s.temporal_snapshot
                } else {
                    TemporalStats::default()
                }
            }
            None => TemporalStats::default(),
        };
        mono.require_le(
            "snapshot-monotonicity",
            format!("core{core}.instructions"),
            s.measure_from_instr,
            s.timing.instructions(),
        );
        mono.require_le(
            "snapshot-monotonicity",
            format!("core{core}.cycles"),
            s.measure_from_cycles,
            s.timing.cycles(),
        );
        let mt = self.hierarchy.meta_traffic(core);
        temporal.meta_reads = mt.reads;
        temporal.meta_writes = mt.writes;
        temporal.rearranged_blocks = mt.rearranged;
        let origin = self.hierarchy.origin_counters(core);
        let snap = CoreReport {
            workload: self.plans[core].trace.name().to_string(),
            instructions: s.timing.instructions().saturating_sub(s.measure_from_instr),
            cycles: s.timing.cycles().saturating_sub(s.measure_from_cycles),
            l1d: self.hierarchy.l1d_stats(core),
            l2: self.hierarchy.l2_stats(core),
            temporal,
            l1_prefetches: s.l1_prefetches,
            l2_prefetches: s.l2_prefetches,
            temporal_pf_issued: s.temporal_pf_issued,
            temporal_pf_dropped: s.temporal_pf_dropped,
            l2_fills_by_origin: origin.fills,
            l2_useful_by_origin: origin.useful,
            l2_useless_by_origin: origin.useless,
        };
        self.states[core].snapshot = Some(snap);
        self.audit.merge(mono);
    }

    fn report(mut self) -> SimReport {
        // Any core without a snapshot (degenerate short runs) gets one
        // from its final state.
        for c in 0..self.plans.len() {
            if self.states[c].snapshot.is_none() {
                self.take_snapshot(c);
            }
        }
        let cores: Vec<CoreReport> = self
            .states
            .iter_mut()
            .map(|s| s.snapshot.take().expect("snapshot taken above"))
            .collect();
        let mut audit = std::mem::take(&mut self.audit);
        audit.merge(audit::check_hierarchy(&self.hierarchy.audit_snapshot()));
        for (i, c) in cores.iter().enumerate() {
            audit.merge(audit::check_core_report(i, c));
        }
        let report = SimReport {
            cores,
            llc: self.hierarchy.llc_stats(),
            dram: self.hierarchy.dram_stats(),
            audit,
        };
        // Every debug run (including the whole test suite) enforces the
        // conservation laws; release runs opt in via SweepRunner or the
        // binaries' --audit flag.
        debug_assert!(
            report.audit.passed(),
            "conservation-law audit failed:\n{}",
            report.audit
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::IdealTemporal;
    use tptrace::{workloads, Scale};

    fn trace(name: &str) -> Trace {
        workloads::by_name(name).unwrap().generate(Scale::Test)
    }

    #[test]
    fn bare_run_produces_sane_ipc() {
        let r = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.bzip2"))],
        )
        .run();
        let ipc = r.cores[0].ipc();
        assert!(ipc > 0.05 && ipc <= 6.0, "ipc {ipc}");
        assert!(r.cores[0].instructions > 0);
    }

    #[test]
    fn ideal_temporal_speeds_up_pointer_chase() {
        let base = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.mcf"))],
        )
        .run();
        let with = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.mcf"))
                .with_temporal(Box::new(IdealTemporal::new(4)))],
        )
        .run();
        assert!(
            with.cores[0].ipc() > base.cores[0].ipc() * 1.05,
            "ideal temporal should help mcf: {} vs {}",
            with.cores[0].ipc(),
            base.cores[0].ipc()
        );
        assert!(with.cores[0].l2_coverage() > 0.2);
    }

    #[test]
    fn ideal_temporal_barely_matters_on_streams() {
        let base = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.libquantum"))],
        )
        .run();
        let with = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.libquantum"))
                .with_temporal(Box::new(IdealTemporal::new(4)))],
        )
        .run();
        let ratio = with.cores[0].ipc() / base.cores[0].ipc();
        assert!(ratio < 2.0, "stream workload should not explode: {ratio}");
    }

    #[test]
    fn multicore_runs_all_traces() {
        let r = Engine::new(
            SystemConfig::with_cores(2),
            vec![
                CorePlan::bare(trace("gap.pr")),
                CorePlan::bare(trace("spec06.libquantum")),
            ],
        )
        .run();
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.instructions > 0));
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Engine::new(
                SystemConfig::single_core(),
                vec![CorePlan::bare(trace("gap.bfs"))
                    .with_temporal(Box::new(IdealTemporal::new(4)))],
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.cores[0].l2.misses, b.cores[0].l2.misses);
    }

    #[test]
    #[should_panic(expected = "one plan per configured core")]
    fn plan_count_mismatch_panics() {
        let _ = Engine::new(SystemConfig::with_cores(2), vec![]);
    }

    #[test]
    fn try_new_reports_plan_mismatch_as_value() {
        let err = Engine::try_new(SystemConfig::with_cores(2), vec![]).err().unwrap();
        assert_eq!(
            err,
            crate::config::ConfigError::PlanCountMismatch { plans: 0, cores: 2 }
        );
        assert!(Engine::try_new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.bzip2"))]
        )
        .is_ok());
    }

    #[test]
    fn try_warmup_rejects_nan_and_out_of_range() {
        let mk = || {
            Engine::new(
                SystemConfig::single_core(),
                vec![CorePlan::bare(trace("spec06.bzip2"))],
            )
        };
        assert_eq!(
            mk().try_warmup_fraction(f64::NAN).err().unwrap(),
            crate::config::ConfigError::WarmupNan
        );
        assert_eq!(
            mk().try_warmup_fraction(1.5).err().unwrap(),
            crate::config::ConfigError::WarmupOutOfRange(1.5)
        );
        assert!(mk().try_warmup_fraction(0.3).is_ok());
    }

    #[test]
    #[should_panic(expected = "warmup must be in [0, 1)")]
    fn warmup_panicking_wrapper_keeps_its_message() {
        let _ = Engine::new(
            SystemConfig::single_core(),
            vec![CorePlan::bare(trace("spec06.bzip2"))],
        )
        .warmup_fraction(f64::NAN);
    }

    #[test]
    fn cancelled_run_returns_none_and_completed_run_matches_plain_run() {
        let mk = || {
            Engine::new(
                SystemConfig::single_core(),
                vec![CorePlan::bare(trace("gap.bfs"))
                    .with_temporal(Box::new(IdealTemporal::new(4)))],
            )
        };
        let pre_cancelled = CancelToken::new();
        pre_cancelled.cancel();
        assert!(mk().run_with_cancel(&pre_cancelled).is_none());

        let live = CancelToken::new();
        let via_token = mk().run_with_cancel(&live).expect("uncancelled run completes");
        let plain = mk().run();
        assert_eq!(via_token.cores[0].cycles, plain.cores[0].cycles);
        assert_eq!(via_token.cores[0].l2.misses, plain.cores[0].l2.misses);
    }
}
