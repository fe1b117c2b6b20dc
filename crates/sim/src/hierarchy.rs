//! The memory hierarchy: per-core L1D/L2, shared LLC, DRAM, the one
//! prefetch entry point ([`Hierarchy::prefetch`]), metadata-traffic
//! charging, and LLC partitioning.
//!
//! Whether a resident block was prefetched and not yet demanded, by
//! whom, and when its fill lands is recorded with the block, in its set
//! header and way (see [`crate::cache`]); this module keeps no per-line
//! state beside the cache levels. Each fill after a miss installs the
//! line the miss has just shown absent, without searching again.

use crate::audit;
pub use crate::cache::PrefetchOrigin;
use crate::cache::{CacheLevel, Evicted, LookupResult};
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::prefetch::{L2EventKind, MetaCtx, PartitionSpec};
use crate::stats::{CacheStats, DramStats};
use tptrace::record::Line;

/// Per-origin prefetch usefulness counters at the L2.
#[derive(Clone, Copy, Debug, Default)]
pub struct OriginCounters {
    /// Prefetch fills installed.
    pub fills: [u64; 3],
    /// First demand touches (useful prefetches).
    pub useful: [u64; 3],
    /// Evicted without use.
    pub useless: [u64; 3],
}

impl OriginCounters {
    /// Accuracy for one origin.
    pub fn accuracy(&self, origin: PrefetchOrigin) -> f64 {
        let i = origin.idx();
        let denom = self.useful[i] + self.useless[i];
        if denom == 0 {
            0.0
        } else {
            self.useful[i] as f64 / denom as f64
        }
    }
}

/// Outcome of a demand access.
#[derive(Clone, Copy, Debug)]
pub struct DemandOutcome {
    /// Completion time of the access.
    pub complete: u64,
    /// Whether the access hit in the L1D.
    pub l1_hit: bool,
    /// Whether the L2 was queried (L1 miss).
    pub l2_queried: bool,
    /// Training event for the temporal prefetcher, if any.
    pub l2_event: Option<L2EventKind>,
    /// Whether the L2 was hit (when queried).
    pub l2_hit: bool,
}

/// Feedback about a previously prefetched block.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackEvent {
    /// Core whose prefetcher installed the block.
    pub core: usize,
    /// The block.
    pub line: Line,
    /// Who prefetched it.
    pub origin: PrefetchOrigin,
    /// Demand-used (true) or evicted unused (false).
    pub useful: bool,
}

/// Per-core metadata traffic charged through [`MetaCtx`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetaTraffic {
    /// Metadata block reads.
    pub reads: u64,
    /// Metadata block writes.
    pub writes: u64,
    /// Blocks moved by repartition shuffles.
    pub rearranged: u64,
}

struct CoreCaches {
    l1d: CacheLevel,
    l2: CacheLevel,
    origin_counters: OriginCounters,
    meta_traffic: MetaTraffic,
    partition: PartitionSpec,
    /// Whether this core's LLC accesses are sampled at all: only a
    /// temporal prefetcher ever drains `llc_samples`, so the engine
    /// turns sampling off for cores that have none.
    sample_llc: bool,
    /// Sampled LLC accesses awaiting delivery to the temporal
    /// prefetcher's data-utility model (1-in-32 sets).
    llc_samples: Vec<Line>,
    /// Dirty L1 victims written back into the L2 (flow counter paired
    /// with `l1d.stats().writebacks` by the audit).
    flow_l1_writebacks: u64,
    /// Dirty L2 victims written back into the LLC.
    flow_l2_writebacks: u64,
    /// Prefetched blocks resident in each level at the last stats reset
    /// (slack for the audit's resolution inequalities).
    l1_prefetched_at_reset: u64,
    l2_prefetched_at_reset: u64,
    /// The L2's share of that population by origin.
    origin_at_reset: [u64; 3],
}

/// The levels below the private caches and the queues their traffic
/// feeds, kept apart from the per-core caches so an eviction cascade
/// can hold one core and the shared side at once.
struct Shared {
    llc: CacheLevel,
    dram: Dram,
    feedback: Vec<FeedbackEvent>,
    flows: GlobalFlows,
}

/// Hierarchy-wide flow counters the audit reconciles against the cache
/// and DRAM statistics. Reset together with the stats at warmup end.
#[derive(Clone, Copy, Debug, Default)]
struct GlobalFlows {
    /// Dirty LLC victims written back to DRAM on the fill path.
    llc_writebacks: u64,
    /// Dirty blocks displaced by metadata-way reservations (counted in
    /// `llc.writebacks` but drained lazily, not via `dram.write`).
    partition_dirty: u64,
    /// Token DRAM writes charged for reservation displacements.
    partition_token_writes: u64,
    /// Prefetch reads dropped at a saturated DRAM bank after counting
    /// an LLC miss.
    dropped_prefetches: u64,
}

/// The full memory hierarchy shared by all cores.
pub struct Hierarchy {
    config: SystemConfig,
    cores: Vec<CoreCaches>,
    shared: Shared,
    /// Prefetched blocks resident in the LLC at the last stats reset.
    llc_prefetched_at_reset: u64,
    /// Scratch buffer reused by [`Hierarchy::apply_partition`] so
    /// repartition sweeps never allocate per set.
    scratch_reserve: Vec<(Line, bool)>,
}

impl Hierarchy {
    /// Builds a hierarchy from the system configuration.
    pub fn new(config: SystemConfig) -> Self {
        let cores = (0..config.cores)
            .map(|_| CoreCaches {
                l1d: CacheLevel::new(config.l1d),
                l2: CacheLevel::new(config.l2),
                origin_counters: OriginCounters::default(),
                meta_traffic: MetaTraffic::default(),
                partition: PartitionSpec::None,
                sample_llc: true,
                llc_samples: Vec::new(),
                flow_l1_writebacks: 0,
                flow_l2_writebacks: 0,
                l1_prefetched_at_reset: 0,
                l2_prefetched_at_reset: 0,
                origin_at_reset: [0; 3],
            })
            .collect();
        let mut llc = CacheLevel::new(config.llc);
        llc.set_prefetch_low_priority(true);
        Hierarchy {
            shared: Shared {
                llc,
                dram: Dram::new(config.dram),
                feedback: Vec::new(),
                flows: GlobalFlows::default(),
            },
            cores,
            llc_prefetched_at_reset: 0,
            scratch_reserve: Vec::new(),
            config,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Drains the feedback events accumulated since the last call into
    /// a caller-provided scratch buffer.
    ///
    /// `out` is cleared and then *swapped* with the internal buffer, so
    /// steady-state operation ping-pongs two capacity-retaining Vecs and
    /// never allocates.
    pub fn drain_feedback_into(&mut self, out: &mut Vec<FeedbackEvent>) {
        out.clear();
        std::mem::swap(&mut self.shared.feedback, out);
    }

    /// Turns `core`'s LLC sampling on or off (on for a new hierarchy).
    /// A function of the core's plan, set once by the engine: samples
    /// only ever feed a temporal prefetcher's `observe_llc`.
    pub(crate) fn set_llc_sampling(&mut self, core: usize, on: bool) {
        self.cores[core].sample_llc = on;
    }

    /// Drains the sampled LLC accesses for `core` into a caller-provided
    /// scratch buffer (swap-based, allocation-free at steady state; see
    /// [`Hierarchy::drain_feedback_into`]).
    pub fn drain_llc_samples_into(&mut self, core: usize, out: &mut Vec<Line>) {
        out.clear();
        std::mem::swap(&mut self.cores[core].llc_samples, out);
    }

    /// L1D stats for a core.
    pub fn l1d_stats(&self, core: usize) -> CacheStats {
        self.cores[core].l1d.stats()
    }

    /// L2 stats for a core.
    pub fn l2_stats(&self, core: usize) -> CacheStats {
        self.cores[core].l2.stats()
    }

    /// Shared LLC stats.
    pub fn llc_stats(&self) -> CacheStats {
        self.shared.llc.stats()
    }

    /// DRAM stats.
    pub fn dram_stats(&self) -> DramStats {
        self.shared.dram.stats()
    }

    /// Per-origin prefetch counters for a core's L2.
    pub fn origin_counters(&self, core: usize) -> OriginCounters {
        self.cores[core].origin_counters
    }

    /// Metadata traffic charged by a core's temporal prefetcher.
    pub fn meta_traffic(&self, core: usize) -> MetaTraffic {
        self.cores[core].meta_traffic
    }

    /// Resets all statistics at the end of warmup (state preserved).
    ///
    /// Cache contents survive the reset, so blocks prefetched before it
    /// can still resolve as useful/useless afterwards; the audit needs
    /// the resident-prefetched population at this instant as slack for
    /// its resolution inequalities.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1d.reset_stats();
            c.l2.reset_stats();
            c.origin_counters = OriginCounters::default();
            c.meta_traffic = MetaTraffic::default();
            c.flow_l1_writebacks = 0;
            c.flow_l2_writebacks = 0;
            c.l1_prefetched_at_reset = c.l1d.resident_prefetched().iter().sum();
            c.origin_at_reset = c.l2.resident_prefetched();
            c.l2_prefetched_at_reset = c.origin_at_reset.iter().sum();
        }
        self.shared.llc.reset_stats();
        self.llc_prefetched_at_reset = self.shared.llc.resident_prefetched().iter().sum();
        self.shared.dram.reset_stats();
        self.shared.flows = GlobalFlows::default();
    }

    /// Captures a plain-data snapshot of every counter the
    /// conservation-law audit reconciles. See [`crate::audit`].
    pub fn audit_snapshot(&self) -> audit::HierarchySnapshot {
        audit::HierarchySnapshot {
            cores: self
                .cores
                .iter()
                .map(|c| audit::CoreFlows {
                    l1d: audit::LevelAudit {
                        stats: c.l1d.stats(),
                        prefetched_at_reset: c.l1_prefetched_at_reset,
                    },
                    l2: audit::LevelAudit {
                        stats: c.l2.stats(),
                        prefetched_at_reset: c.l2_prefetched_at_reset,
                    },
                    origin: c.origin_counters,
                    origin_at_reset: c.origin_at_reset,
                    l1_writebacks_to_l2: c.flow_l1_writebacks,
                    l2_writebacks_to_llc: c.flow_l2_writebacks,
                })
                .collect(),
            llc: audit::LevelAudit {
                stats: self.shared.llc.stats(),
                prefetched_at_reset: self.llc_prefetched_at_reset,
            },
            dram: self.shared.dram.stats(),
            llc_writebacks_to_dram: self.shared.flows.llc_writebacks,
            partition_dirty_evictions: self.shared.flows.partition_dirty,
            partition_token_writes: self.shared.flows.partition_token_writes,
            dropped_prefetches: self.shared.flows.dropped_prefetches,
        }
    }

    /// Services a demand access from `core` to `line` at time `t`.
    pub fn demand_access(
        &mut self,
        core: usize,
        line: Line,
        is_write: bool,
        t: u64,
    ) -> DemandOutcome {
        let (cc, shared) = (&mut self.cores[core], &mut self.shared);
        let t0 = cc.l1d.port_start(t);
        if let LookupResult::Hit { ready_at, .. } = cc.l1d.demand_lookup(line, is_write) {
            return DemandOutcome {
                complete: cc.l1d.await_fill(t0 + cc.l1d.latency(), ready_at),
                l1_hit: true,
                l2_queried: false,
                l2_event: None,
                l2_hit: false,
            };
        }
        // L1 miss: MSHR admission, then L2.
        let t1 = cc.l1d.mshr.admit(t0 + cc.l1d.latency());
        let t2 = cc.l2.port_start(t1);
        let (complete, l2_event, l2_hit);
        // Write-back L1: stores do not dirty the L2 directly.
        match cc.l2.demand_lookup(line, false) {
            LookupResult::Hit {
                first_touch,
                ready_at,
            } => {
                complete = cc.l2.await_fill(t2 + cc.l2.latency(), ready_at);
                l2_hit = true;
                if let Some(origin) = first_touch {
                    cc.origin_counters.useful[origin.idx()] += 1;
                    shared.feedback.push(FeedbackEvent {
                        core,
                        line,
                        origin,
                        useful: true,
                    });
                }
                l2_event = (first_touch == Some(PrefetchOrigin::Temporal))
                    .then_some(L2EventKind::PrefetchHit);
            }
            LookupResult::Miss => {
                l2_hit = false;
                l2_event = Some(L2EventKind::DemandMiss);
                let t3 = cc.l2.mshr.admit(t2 + cc.l2.latency());
                complete = cc
                    .llc_access(shared, line, t3, false)
                    .expect("demand accesses always complete");
                cc.l2.mshr.register(complete);
                // Fill L2 on the way back.
                if let Some(victim) = cc.l2.install(line, false, None, 0) {
                    cc.retire_l2_victim(core, shared, victim, complete);
                }
            }
        }
        cc.l1d.mshr.register(complete);
        if let Some(victim) = cc.l1d.install(line, is_write, None, 0) {
            cc.retire_l1_victim(core, shared, victim, complete);
        }
        DemandOutcome {
            complete,
            l1_hit: false,
            l2_queried: true,
            l2_event,
            l2_hit,
        }
    }

    /// Issues a prefetch of `line` for `core` at `t` on behalf of
    /// `origin` — the one way a prefetch enters the hierarchy. The block
    /// is brought into the L2 (through the LLC), marked with its origin
    /// so the L2 can report it useful or useless; an
    /// [`PrefetchOrigin::L1`] prefetch is also installed in the L1D and
    /// tracked there instead, its L2 copy staying unmarked so L2
    /// usefulness is not mis-attributed. Returns the fill time, or
    /// `None` if the line is already resident where `origin` wants it or
    /// the prefetch was dropped behind a saturated DRAM bank.
    pub fn prefetch(
        &mut self,
        core: usize,
        line: Line,
        t: u64,
        origin: PrefetchOrigin,
    ) -> Option<u64> {
        let (cc, shared) = (&mut self.cores[core], &mut self.shared);
        let into_l1 = origin == PrefetchOrigin::L1;
        if into_l1 && cc.l1d.probe(line) {
            return None;
        }
        let fill = if cc.l2.probe(line) {
            if !into_l1 {
                return None;
            }
            // L1 prefetch of an L2-resident line: cheap fill.
            t + cc.l2.latency()
        } else {
            // Prefetches ride a separate queue (hardware gives them
            // their own MSHR-like structure that yields to demands); the
            // DRAM backlog drop in `Shared::access` bounds how far they
            // can run ahead.
            let fill = cc.llc_access(shared, line, t, true)?;
            let mark = (!into_l1).then_some(origin);
            if let Some(victim) = cc.l2.install(line, false, mark, fill) {
                cc.retire_l2_victim(core, shared, victim, fill);
            }
            cc.origin_counters.fills[origin.idx()] += 1;
            fill
        };
        if into_l1 {
            if let Some(victim) = cc.l1d.install(line, false, Some(origin), fill) {
                cc.retire_l1_victim(core, shared, victim, fill);
            }
        }
        Some(fill)
    }

    /// Applies the traffic charged in a [`MetaCtx`] by `core`'s temporal
    /// prefetcher: LLC port occupancy plus traffic counters. Dedicated
    /// (ideal) stores skip the port charges.
    pub fn apply_meta_charges(&mut self, core: usize, ctx: &MetaCtx, dedicated: bool) {
        let cc = &mut self.cores[core];
        cc.meta_traffic.reads += ctx.reads() as u64;
        cc.meta_traffic.writes += ctx.writes() as u64;
        cc.meta_traffic.rearranged += ctx.rearranged() as u64;
        if dedicated {
            return;
        }
        let ops = ctx.reads() + ctx.writes();
        for _ in 0..ops {
            self.shared.llc.port_start(ctx.now);
        }
        // Rearrangement shuffles occupy the port in bursts: one read plus
        // one write per moved block.
        for _ in 0..ctx.rearranged().min(4096) {
            self.shared.llc.port_start(ctx.now);
            self.shared.llc.port_start(ctx.now);
        }
    }

    /// Latency of one metadata read from the LLC partition (used by the
    /// engine to delay metadata-dependent prefetches).
    pub fn metadata_read_latency(&self) -> u64 {
        self.shared.llc.latency()
    }

    /// Current partition of a core.
    pub fn partition(&self, core: usize) -> PartitionSpec {
        self.cores[core].partition
    }

    /// Applies a new metadata partition for `core`, reserving LLC ways in
    /// the core's set domain and writing back displaced data.
    ///
    /// Core `i`'s domain is the sets `s` with `s % cores == i`; within the
    /// domain, way- and set-partitions are laid out as in single-core.
    pub fn apply_partition(&mut self, core: usize, spec: PartitionSpec, t: u64) {
        if self.cores[core].partition == spec {
            return;
        }
        self.cores[core].partition = spec;
        let n = self.config.cores;
        let llc = &mut self.shared.llc;
        let sets = llc.sets();
        let mut dirty_evictions = 0u64;
        for s in (core..sets).step_by(n) {
            let domain_index = s / n;
            let ways = match spec {
                PartitionSpec::None | PartitionSpec::Dedicated => 0,
                PartitionSpec::Ways { ways } => ways,
                PartitionSpec::Sets { every_log2, ways } => {
                    if domain_index & ((1usize << every_log2) - 1) == 0 {
                        ways
                    } else {
                        0
                    }
                }
            };
            if llc.reserved_ways(s) != ways {
                self.scratch_reserve.clear();
                llc.reserve_ways_into(s, ways, &mut self.scratch_reserve);
                dirty_evictions += self
                    .scratch_reserve
                    .iter()
                    .filter(|(_, dirty)| *dirty)
                    .count() as u64;
            }
        }
        // Reserved ways are reclaimed lazily in real hardware: dirty
        // victims drain through the ordinary writeback path over many
        // cycles. Charging them as an instantaneous DRAM burst at `t`
        // would fabricate a huge queueing penalty, so we count the
        // traffic without serialising the timeline behind it.
        let _ = t;
        self.shared.flows.partition_dirty += dirty_evictions;
        let tokens = dirty_evictions.min(4);
        self.shared.flows.partition_token_writes += tokens;
        for _ in 0..tokens {
            // Token charge: keep a trace of bank pressure without the
            // burst (at most a handful of writes hit the queues now).
            self.shared.dram.write(t, Line(0));
        }
    }

    /// Bytes of LLC capacity currently reserved for metadata (all cores).
    pub fn reserved_metadata_bytes(&self) -> usize {
        let llc = &self.shared.llc;
        (0..llc.sets())
            .map(|s| llc.reserved_ways(s) as usize * crate::LINE_SIZE as usize)
            .sum()
    }
}

impl CoreCaches {
    /// An access from this core to the shared levels, sampled for the
    /// partitioners' data models (one LLC set in `2^LLC_SAMPLE_SHIFT`,
    /// matching the prefetchers' samplers) when the core has one.
    fn llc_access(
        &mut self,
        shared: &mut Shared,
        line: Line,
        t: u64,
        is_prefetch: bool,
    ) -> Option<u64> {
        if self.sample_llc
            && shared
                .llc
                .set_of(line)
                .is_multiple_of(1 << crate::LLC_SAMPLE_SHIFT)
        {
            self.llc_samples.push(line);
        }
        shared.access(line, t, is_prefetch)
    }

    /// Retires an L1D victim: when dirty, writes it back into the L2
    /// (writeback-allocate, as ChampSim models it). A victim the
    /// writeback displaces from the L2 continues down the hierarchy
    /// through [`CoreCaches::retire_l2_victim`].
    fn retire_l1_victim(&mut self, core: usize, shared: &mut Shared, victim: Evicted, t: u64) {
        if !victim.dirty {
            return;
        }
        self.flow_l1_writebacks += 1;
        if let Some(below) = self.l2.fill(victim.line, true, false) {
            self.retire_l2_victim(core, shared, below, t);
        }
    }

    /// Retires an L2 victim: origin accounting and feedback when it was
    /// prefetched and never used, then the writeback into the LLC when
    /// dirty — whose own dirty victim, if any, is written to DRAM.
    fn retire_l2_victim(&mut self, core: usize, shared: &mut Shared, victim: Evicted, t: u64) {
        if let Some(origin) = victim.unused {
            self.origin_counters.useless[origin.idx()] += 1;
            shared.feedback.push(FeedbackEvent {
                core,
                line: victim.line,
                origin,
                useful: false,
            });
        }
        if victim.dirty {
            // Writeback to LLC: mark dirty there (refill path).
            self.flow_l2_writebacks += 1;
            if let Some(below) = shared.llc.fill(victim.line, true, false) {
                shared.drain(below, t);
            }
        }
    }
}

impl Shared {
    /// Maximum DRAM bank backlog (cycles) a prefetch will queue behind;
    /// beyond this the prefetch is dropped, as a hardware prefetch queue
    /// would do rather than starve demand traffic.
    const PREFETCH_DROP_BACKLOG: u64 = 1000;

    /// LLC (and DRAM on miss) access; fills the LLC; returns completion.
    /// Prefetches that would queue behind a saturated DRAM bank are
    /// dropped (`None`); demand accesses always complete.
    fn access(&mut self, line: Line, t: u64, is_prefetch: bool) -> Option<u64> {
        let t0 = self.llc.port_start(t);
        match self.llc.demand_lookup(line, false) {
            LookupResult::Hit { .. } => Some(t0 + self.llc.latency()),
            LookupResult::Miss => {
                let t1 = self.llc.mshr.admit(t0 + self.llc.latency());
                let read = if is_prefetch {
                    self.dram
                        .read_prefetch(t1, line, Self::PREFETCH_DROP_BACKLOG)
                } else {
                    Some(self.dram.read(t1, line))
                };
                let Some(complete) = read else {
                    // The LLC miss is already counted, but no DRAM read
                    // happens: record the drop so the audit's read
                    // conservation law still balances.
                    self.flows.dropped_prefetches += 1;
                    return None;
                };
                self.llc.mshr.register(complete);
                // Who prefetched an LLC block is not tracked; only that
                // it was, for the victim choice.
                let mark = is_prefetch.then_some(PrefetchOrigin::L2Regular);
                if let Some(victim) = self.llc.install(line, false, mark, 0) {
                    self.drain(victim, complete);
                }
                Some(complete)
            }
        }
    }

    /// Retires an LLC victim: written to DRAM when dirty.
    fn drain(&mut self, victim: Evicted, t: u64) {
        if victim.dirty {
            self.flows.llc_writebacks += 1;
            self.dram.write(t, victim.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(SystemConfig::single_core())
    }

    #[test]
    fn first_access_misses_everywhere_then_hits() {
        let mut h = hierarchy();
        let out = h.demand_access(0, Line(1000), false, 0);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_event, Some(L2EventKind::DemandMiss));
        // DRAM latency dominates.
        assert!(out.complete > 100, "complete {}", out.complete);
        let out2 = h.demand_access(0, Line(1000), false, out.complete + 1);
        assert!(out2.l1_hit);
        assert!(out2.complete <= out.complete + 1 + 5);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = hierarchy();
        // Fill L1 set 0 beyond capacity: lines stride by 64 sets.
        let mut t = 0;
        for i in 0..32u64 {
            let out = h.demand_access(0, Line(i * 64), false, t);
            t = out.complete + 1;
        }
        // Line 0 evicted from tiny L1 but still in L2.
        let out = h.demand_access(0, Line(0), false, t);
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert!(out.l2_event.is_none());
    }

    #[test]
    fn temporal_prefetch_hit_generates_event_and_feedback() {
        let mut h = hierarchy();
        let fill = h
            .prefetch(0, Line(777), 0, PrefetchOrigin::Temporal)
            .expect("prefetch issued");
        let out = h.demand_access(0, Line(777), false, fill + 10);
        assert!(out.l2_hit);
        assert_eq!(out.l2_event, Some(L2EventKind::PrefetchHit));
        let mut fb = Vec::new();
        h.drain_feedback_into(&mut fb);
        assert_eq!(fb.len(), 1);
        assert!(fb[0].useful);
        assert_eq!(fb[0].origin, PrefetchOrigin::Temporal);
        assert_eq!(h.origin_counters(0).useful[2], 1);
    }

    #[test]
    fn late_prefetch_shortens_latency_but_counts() {
        let mut h = hierarchy();
        let fill = h
            .prefetch(0, Line(555), 0, PrefetchOrigin::Temporal)
            .unwrap();
        // Demand arrives long before the fill completes: it hits on the
        // in-flight block and is pulled up to the fill time, rather than
        // paying a full miss.
        let out = h.demand_access(0, Line(555), false, 1);
        assert_eq!(out.complete, fill, "demand waits exactly for the fill");
        assert_eq!(h.l2_stats(0).late_prefetches, 1);
    }

    #[test]
    fn duplicate_temporal_prefetch_is_dropped() {
        let mut h = hierarchy();
        assert!(h
            .prefetch(0, Line(9), 0, PrefetchOrigin::Temporal)
            .is_some());
        assert!(h
            .prefetch(0, Line(9), 1, PrefetchOrigin::Temporal)
            .is_none());
    }

    #[test]
    fn llc_samples_are_kept_only_for_a_core_that_drains_them() {
        // 256 LLC-missing accesses, every other one to a sampled set.
        let lines: Vec<Line> = (0..256u64).map(|i| Line(i * 16)).collect();
        let drive = |sampling: bool| {
            let mut h = hierarchy();
            h.set_llc_sampling(0, sampling);
            let mut t = 0;
            for &line in &lines {
                t = h.demand_access(0, line, false, t).complete + 1;
            }
            let mut samples = Vec::new();
            h.drain_llc_samples_into(0, &mut samples);
            samples
        };
        assert!(drive(false).is_empty());
        let sampled: Vec<Line> = lines.iter().copied().filter(|l| l.0 % 32 == 0).collect();
        assert_eq!(drive(true), sampled);
        // A new hierarchy samples until told otherwise.
        let mut h = hierarchy();
        h.demand_access(0, Line(0), false, 0);
        let mut samples = Vec::new();
        h.drain_llc_samples_into(0, &mut samples);
        assert_eq!(samples, [Line(0)]);
    }

    #[test]
    fn meta_charges_accumulate_and_contend() {
        let mut h = hierarchy();
        let mut ctx = MetaCtx::new(100, 0.5);
        ctx.read_block();
        ctx.write_block();
        h.apply_meta_charges(0, &ctx, false);
        let mt = h.meta_traffic(0);
        assert_eq!(mt.reads, 1);
        assert_eq!(mt.writes, 1);
        // Dedicated skips port charges but still counts traffic.
        let mut ctx2 = MetaCtx::new(100, 0.5);
        ctx2.read_block();
        h.apply_meta_charges(0, &ctx2, true);
        assert_eq!(h.meta_traffic(0).reads, 2);
    }

    #[test]
    fn partition_reserves_and_releases_capacity() {
        let mut h = hierarchy();
        let base = h.reserved_metadata_bytes();
        assert_eq!(base, 0);
        h.apply_partition(0, PartitionSpec::Ways { ways: 8 }, 0);
        assert_eq!(h.reserved_metadata_bytes(), 1 << 20);
        h.apply_partition(
            0,
            PartitionSpec::Sets {
                every_log2: 1,
                ways: 8,
            },
            0,
        );
        assert_eq!(h.reserved_metadata_bytes(), 512 << 10);
        h.apply_partition(0, PartitionSpec::None, 0);
        assert_eq!(h.reserved_metadata_bytes(), 0);
    }

    #[test]
    fn multicore_partitions_are_disjoint() {
        let mut h = Hierarchy::new(SystemConfig::with_cores(2));
        h.apply_partition(0, PartitionSpec::Ways { ways: 8 }, 0);
        h.apply_partition(1, PartitionSpec::Ways { ways: 4 }, 0);
        // Core 0: 8 ways in half the sets (4096 sets total for 2 cores).
        let expected = 2048 * 8 * 64 + 2048 * 4 * 64;
        assert_eq!(h.reserved_metadata_bytes(), expected);
        h.apply_partition(0, PartitionSpec::None, 0);
        assert_eq!(h.reserved_metadata_bytes(), 2048 * 4 * 64);
    }

    #[test]
    fn dirty_l1_victim_is_written_back_to_l2() {
        let mut h = hierarchy();
        // Store dirties Line(0) in the L1, then 12 conflicting loads
        // (the L1 is 12-way, 64 sets) evict it.
        let mut t = h.demand_access(0, Line(0), true, 0).complete + 1;
        for i in 1..=12u64 {
            t = h.demand_access(0, Line(i * 64), false, t).complete + 1;
        }
        let snap = h.audit_snapshot();
        assert_eq!(snap.cores[0].l1d.stats.writebacks, 1);
        assert_eq!(
            snap.cores[0].l1_writebacks_to_l2, 1,
            "dirty L1 victim must reach the L2"
        );
        assert!(audit::check_hierarchy(&snap).passed());
    }

    #[test]
    fn store_stream_drains_writebacks_to_dram() {
        let mut h = hierarchy();
        // Stores over a 4 MiB working set (2x the LLC): every level
        // overflows, so dirty victims must cascade all the way to DRAM.
        let mut t = 0;
        for i in 0..65_536u64 {
            t = h.demand_access(0, Line(i), true, t).complete + 1;
        }
        let snap = h.audit_snapshot();
        assert!(snap.cores[0].l1d.stats.writebacks > 0);
        assert!(snap.cores[0].l2.stats.writebacks > 0);
        assert!(snap.llc.stats.writebacks > 0);
        assert!(snap.dram.writes > 0, "dirty LLC victims must reach DRAM");
        let report = audit::check_hierarchy(&snap);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn audit_snapshot_balances_after_mixed_traffic() {
        let mut h = hierarchy();
        let mut t = 0;
        for i in 0..4096u64 {
            // Mix loads, stores, and temporal prefetches.
            let line = Line((i * 37) % 8192);
            t = h.demand_access(0, line, i % 3 == 0, t).complete + 1;
            if i % 5 == 0 {
                h.prefetch(0, Line(i + 100_000), t, PrefetchOrigin::Temporal);
            }
        }
        let report = audit::check_hierarchy(&h.audit_snapshot());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn useless_temporal_prefetch_feedback_on_eviction() {
        let mut h = hierarchy();
        // Prefetch a line, then stream enough conflicting lines through
        // the same L2 set to evict it untouched.
        let target = Line(0x10_0000);
        h.prefetch(0, target, 0, PrefetchOrigin::Temporal).unwrap();
        let l2_sets = 1024u64;
        let mut t = 100;
        for i in 1..=16u64 {
            let out = h.demand_access(0, Line(0x10_0000 + i * l2_sets), false, t);
            t = out.complete + 1;
        }
        let mut fb = Vec::new();
        h.drain_feedback_into(&mut fb);
        assert!(
            fb.iter().any(|f| f.line == target && !f.useful),
            "expected useless-prefetch feedback"
        );
    }
}
