//! Conservation-law audit: structural invariants the hierarchy's
//! counters must satisfy after any run.
//!
//! The simulator's headline outputs (speedups, DRAM traffic, coverage)
//! are all derived from counters scattered across four layers — cache
//! levels, the hierarchy's flow bookkeeping, the DRAM model, and the
//! engine's per-core snapshots. A bug in any one layer (a discarded
//! eviction result, a counter that misses a reset) silently corrupts
//! figures without failing a test. This module states the conservation
//! laws that tie the layers together and checks them against a
//! plain-data snapshot, so a violation names the exact counter pair
//! that disagrees.
//!
//! The laws, per run:
//!
//! * **Balance** — at every level, `hits + misses == accesses`.
//! * **Prefetch resolution** — at every level, `useful + useless ≤
//!   prefetch_fills + prefetched-resident-at-reset` (blocks prefetched
//!   before the warmup reset may resolve after it).
//! * **Writeback conservation** — every dirty L1 victim reaches the L2
//!   (`l1d.writebacks == l1_writebacks_to_l2`), every dirty L2 victim
//!   reaches the LLC, and every dirty LLC victim reaches DRAM:
//!   `dram.writes == llc_writebacks_to_dram + partition_token_writes`.
//! * **Read conservation** — every LLC miss either reads DRAM or is a
//!   dropped prefetch: `dram.reads + dropped_prefetches == llc.misses`.
//! * **Origin consistency** — the hierarchy's per-origin L2 counters
//!   partition the L2's own prefetch stats exactly.
//! * **Snapshot monotonicity** — counters never run backwards across
//!   the warmup reset (checked by the engine as it takes snapshots).
//!
//! Checks run on every [`crate::Engine::run`] and are enforced with a
//! `debug_assert!`; release binaries opt in through
//! `SweepRunner::with_audit` / `--audit`.

use crate::hierarchy::OriginCounters;
use crate::stats::{CacheStats, CoreReport, DramStats, TemporalStats};
use std::fmt;

/// One failed invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the conservation law that failed.
    pub invariant: &'static str,
    /// Where it failed (level, core index).
    pub context: String,
    /// The disagreeing values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.context, self.detail)
    }
}

/// Outcome of an audit pass: how many checks ran and which failed.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Number of individual invariant checks performed.
    pub checks: u64,
    /// The checks that failed (empty means the audit passed).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// Requires `lhs == rhs`.
    pub fn require_eq(
        &mut self,
        invariant: &'static str,
        context: impl Into<String>,
        lhs: u64,
        rhs: u64,
    ) {
        self.checks += 1;
        if lhs != rhs {
            self.violations.push(Violation {
                invariant,
                context: context.into(),
                detail: format!("{lhs} != {rhs}"),
            });
        }
    }

    /// Requires `lhs ≤ rhs`.
    pub fn require_le(
        &mut self,
        invariant: &'static str,
        context: impl Into<String>,
        lhs: u64,
        rhs: u64,
    ) {
        self.checks += 1;
        if lhs > rhs {
            self.violations.push(Violation {
                invariant,
                context: context.into(),
                detail: format!("{lhs} > {rhs}"),
            });
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            return write!(f, "audit: {} checks passed", self.checks);
        }
        writeln!(
            f,
            "audit: {}/{} checks FAILED",
            self.violations.len(),
            self.checks
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// One cache level's counters plus the prefetch slack carried across
/// the warmup reset (prefetched blocks resident when stats were zeroed
/// may still resolve as useful/useless afterwards).
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelAudit {
    /// The level's statistics.
    pub stats: CacheStats,
    /// Prefetched blocks resident at the last stats reset.
    pub prefetched_at_reset: u64,
}

/// Per-core flow counters mirrored out of the hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreFlows {
    /// L1D counters.
    pub l1d: LevelAudit,
    /// Private L2 counters.
    pub l2: LevelAudit,
    /// Per-origin L2 prefetch counters.
    pub origin: OriginCounters,
    /// Prefetched, untouched L2 blocks by origin at the last stats reset
    /// (slack for the per-origin resolution inequality).
    pub origin_at_reset: [u64; 3],
    /// Dirty L1 victims delivered to the L2 (writeback path).
    pub l1_writebacks_to_l2: u64,
    /// Dirty L2 victims delivered to the LLC (writeback path).
    pub l2_writebacks_to_llc: u64,
}

/// Everything the hierarchy-level audit needs, as plain data. Produced
/// by [`crate::Hierarchy::audit_snapshot`]; tests may corrupt a field
/// to verify the corresponding law trips.
#[derive(Clone, Debug, Default)]
pub struct HierarchySnapshot {
    /// One entry per core.
    pub cores: Vec<CoreFlows>,
    /// Shared LLC counters.
    pub llc: LevelAudit,
    /// DRAM counters.
    pub dram: DramStats,
    /// Dirty LLC victims written back to DRAM (fill path).
    pub llc_writebacks_to_dram: u64,
    /// Dirty blocks displaced by metadata-way reservations.
    pub partition_dirty_evictions: u64,
    /// Token DRAM writes charged for reservation displacements.
    pub partition_token_writes: u64,
    /// Prefetch reads dropped at a saturated DRAM bank (they count an
    /// LLC miss but never reach DRAM).
    pub dropped_prefetches: u64,
}

fn check_level(a: &mut AuditReport, ctx: &str, level: &LevelAudit) {
    let s = &level.stats;
    a.require_eq("balance", ctx, s.hits + s.misses, s.accesses);
    a.require_le(
        "prefetch-resolution",
        ctx,
        s.useful_prefetches + s.useless_prefetch_evictions,
        s.prefetch_fills + level.prefetched_at_reset,
    );
}

/// Audits a hierarchy snapshot against every conservation law.
pub fn check_hierarchy(s: &HierarchySnapshot) -> AuditReport {
    let mut a = AuditReport::default();
    for (i, c) in s.cores.iter().enumerate() {
        check_level(&mut a, &format!("core{i}.l1d"), &c.l1d);
        check_level(&mut a, &format!("core{i}.l2"), &c.l2);
        // Every dirty victim a cache reports evicting must have been
        // delivered to the next level — this is exactly the law the
        // original dead writeback path violated (fills' eviction
        // results were discarded, so writebacks never left the L1).
        a.require_eq(
            "writeback-conservation",
            format!("core{i}.l1d->l2"),
            c.l1d.stats.writebacks,
            c.l1_writebacks_to_l2,
        );
        a.require_eq(
            "writeback-conservation",
            format!("core{i}.l2->llc"),
            c.l2.stats.writebacks,
            c.l2_writebacks_to_llc,
        );
        // Per-origin counters partition the L2's prefetch stats: L1-origin
        // blocks are not marked prefetched at the L2 (their usefulness is
        // tracked at the L1), so the L2's own counters are exactly the
        // L2-regular + temporal shares.
        let o = &c.origin;
        a.require_eq(
            "origin-consistency",
            format!("core{i}.useful[l1]"),
            o.useful[0],
            0,
        );
        a.require_eq(
            "origin-consistency",
            format!("core{i}.useless[l1]"),
            o.useless[0],
            0,
        );
        a.require_eq(
            "origin-consistency",
            format!("core{i}.useful"),
            o.useful[1] + o.useful[2],
            c.l2.stats.useful_prefetches,
        );
        a.require_eq(
            "origin-consistency",
            format!("core{i}.useless"),
            o.useless[1] + o.useless[2],
            c.l2.stats.useless_prefetch_evictions,
        );
        a.require_eq(
            "origin-consistency",
            format!("core{i}.fills"),
            o.fills[1] + o.fills[2],
            c.l2.stats.prefetch_fills,
        );
        for (idx, name) in [(1usize, "l2reg"), (2, "temporal")] {
            a.require_le(
                "origin-consistency",
                format!("core{i}.resolved[{name}]"),
                o.useful[idx] + o.useless[idx],
                o.fills[idx] + c.origin_at_reset[idx],
            );
        }
    }
    check_level(&mut a, "llc", &s.llc);
    // Dirty LLC victims split between the fill path (→ DRAM writes) and
    // metadata-way reservations (accounted as token writes).
    a.require_eq(
        "writeback-conservation",
        "llc->dram",
        s.llc.stats.writebacks,
        s.llc_writebacks_to_dram + s.partition_dirty_evictions,
    );
    a.require_eq(
        "write-conservation",
        "dram.writes",
        s.dram.writes,
        s.llc_writebacks_to_dram + s.partition_token_writes,
    );
    // Every LLC miss either reads DRAM or was a dropped prefetch.
    a.require_eq(
        "read-conservation",
        "dram.reads",
        s.dram.reads + s.dropped_prefetches,
        s.llc.stats.misses,
    );
    a.require_le(
        "row-hit-bound",
        "dram.row_hits",
        s.dram.row_hits,
        s.dram.reads + s.dram.writes,
    );
    a
}

/// Audits one frozen per-core report for internal consistency (the
/// snapshot the engine took is a coherent cut of the counters).
pub fn check_core_report(core: usize, c: &CoreReport) -> AuditReport {
    let mut a = AuditReport::default();
    for (name, s) in [("l1d", &c.l1d), ("l2", &c.l2)] {
        a.require_eq(
            "balance",
            format!("core{core}.{name}.report"),
            s.hits + s.misses,
            s.accesses,
        );
    }
    a.require_eq(
        "origin-consistency",
        format!("core{core}.report.useful"),
        c.l2_useful_by_origin[1] + c.l2_useful_by_origin[2],
        c.l2.useful_prefetches,
    );
    a.require_eq(
        "origin-consistency",
        format!("core{core}.report.useless"),
        c.l2_useless_by_origin[1] + c.l2_useless_by_origin[2],
        c.l2.useless_prefetch_evictions,
    );
    a.require_eq(
        "origin-consistency",
        format!("core{core}.report.fills"),
        c.l2_fills_by_origin[1] + c.l2_fills_by_origin[2],
        c.l2.prefetch_fills,
    );
    // The engine's accepted-temporal-prefetch count must agree with the
    // hierarchy's temporal-origin fill count: every accepted prefetch
    // fills the L2 exactly once.
    a.require_eq(
        "temporal-issue-consistency",
        format!("core{core}.report.temporal_issued"),
        c.temporal_pf_issued,
        c.l2_fills_by_origin[2],
    );
    if c.instructions > 0 {
        a.require_le(
            "timing-sanity",
            format!("core{core}.report.cycles"),
            1,
            c.cycles,
        );
    }
    a
}

/// Checks that every counter in `now` is at least its value in `base`
/// (temporal-prefetcher stats must be monotone across the warmup
/// snapshot, or the measured diff underflows).
pub fn check_temporal_monotonic(
    core: usize,
    base: &TemporalStats,
    now: &TemporalStats,
) -> AuditReport {
    let mut a = AuditReport::default();
    let pairs = base.values().into_iter().zip(now.values());
    for (name, (b, n)) in TemporalStats::NAMES.iter().zip(pairs) {
        a.require_le(
            "snapshot-monotonicity",
            format!("core{core}.temporal.{name}"),
            b,
            n,
        );
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_passes() {
        let r = check_hierarchy(&HierarchySnapshot::default());
        assert!(r.passed());
        assert!(r.checks > 0);
    }

    #[test]
    fn balance_violation_is_reported() {
        let mut s = HierarchySnapshot::default();
        s.llc.stats.accesses = 10;
        s.llc.stats.hits = 4;
        s.llc.stats.misses = 5; // one access vanished
        s.dram.reads = 5; // keep read conservation consistent
        let r = check_hierarchy(&s);
        assert!(!r.passed());
        assert_eq!(r.violations[0].invariant, "balance");
        assert!(format!("{r}").contains("balance"));
    }

    #[test]
    fn writeback_conservation_catches_dead_path() {
        let mut s = HierarchySnapshot::default();
        s.cores.push(CoreFlows::default());
        // The cache says it evicted 3 dirty victims, but none were
        // delivered downstream — the pre-fix dead writeback path.
        s.cores[0].l1d.stats.writebacks = 3;
        s.cores[0].l1_writebacks_to_l2 = 0;
        let r = check_hierarchy(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| v.invariant == "writeback-conservation"));
    }

    #[test]
    fn monotonicity_regression_is_reported() {
        // Each counter on its own: raising one field in `base` (so it
        // ran backwards) must give exactly one violation, naming it.
        let now = TemporalStats::default();
        for (i, name) in TemporalStats::NAMES.iter().enumerate() {
            let base =
                TemporalStats::try_from_names(|n| Ok::<_, ()>(u64::from(n == *name))).unwrap();
            assert_eq!(base.values()[i], 1);
            let r = check_temporal_monotonic(0, &base, &now);
            assert_eq!(r.checks, TemporalStats::NAMES.len() as u64);
            assert_eq!(r.violations.len(), 1, "{name}");
            assert_eq!(r.violations[0].context, format!("core0.temporal.{name}"));
        }
    }

    #[test]
    fn merge_accumulates_checks_and_violations() {
        let mut a = AuditReport::default();
        a.require_eq("balance", "x", 1, 1);
        let mut b = AuditReport::default();
        b.require_eq("balance", "y", 1, 2);
        a.merge(b);
        assert_eq!(a.checks, 2);
        assert_eq!(a.violations.len(), 1);
        assert!(!a.passed());
    }
}
