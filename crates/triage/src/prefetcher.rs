//! The Triage prefetcher proper.

use crate::lut::{CompressedTarget, TargetLut};
use crate::pairwise::{InsertOutcome, PairwiseStore};
use std::collections::HashMap;
use tpsim::{
    MetaCtx, PartitionSpec, TemporalEvent, TemporalPrefetcher, TemporalStats, LLC_SLICE_SETS,
};
use tptrace::record::{Line, Pc};

/// Maximum metadata ways (8: 1 MB of a 2 MB slice).
const MAX_WAYS: u8 = 8;

/// Prefetch degree.
const DEGREE: usize = 4;

/// Correlations per metadata way-block (16, thanks to LUT compression).
const ENTRIES_PER_WAY: usize = 16;

/// Triage configuration.
#[derive(Clone, Copy, Debug)]
pub struct TriageConfig {
    /// Resize epoch in training events (50K).
    pub epoch: u64,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig { epoch: 50_000 }
    }
}

/// The Triage on-chip temporal prefetcher.
pub struct Triage {
    config: TriageConfig,
    /// Training unit: PC → last accessed line.
    tu: HashMap<Pc, Line>,
    store: PairwiseStore<CompressedTarget>,
    lut: TargetLut,
    events: u64,
    stats: TemporalStats,
}

impl Triage {
    /// Creates a Triage prefetcher for the default single-core LLC slice.
    pub fn new() -> Self {
        Triage::with_config(TriageConfig::default())
    }

    /// Creates a Triage prefetcher from an explicit configuration.
    pub fn with_config(config: TriageConfig) -> Self {
        Triage {
            tu: HashMap::new(),
            // Start fully sized; the first epoch adjusts.
            store: PairwiseStore::new(LLC_SLICE_SETS, ENTRIES_PER_WAY, MAX_WAYS, MAX_WAYS),
            lut: TargetLut::new(),
            events: 0,
            stats: TemporalStats::default(),
            config,
        }
    }

    /// Current metadata capacity in correlations.
    pub fn capacity_correlations(&self) -> usize {
        self.store.capacity_entries()
    }

    fn maybe_resize(&mut self, ctx: &mut MetaCtx) {
        self.events += 1;
        if !self.events.is_multiple_of(self.config.epoch) {
            return;
        }
        // Triage sizes the partition to maximise trigger hit rate: pick
        // the smallest allocation capturing (almost) all the hits the
        // maximum allocation would, with a mild per-way cost so that a
        // workload with no temporal reuse releases the ways to data.
        let full = self.store.hits_with_ways(MAX_WAYS);
        let per_way_cost = (full / 64).max(8);
        let mut best_w = 0u8;
        let mut best_score = i64::MIN;
        for w in 0..=MAX_WAYS {
            let score = self.store.hits_with_ways(w) as i64 - per_way_cost as i64 * w as i64;
            if score > best_score {
                best_score = score;
                best_w = w;
            }
        }
        if best_w != self.store.ways() {
            self.store.resize(best_w);
            self.stats.resizes += 1;
            // Way-partition resize relocates surviving metadata blocks
            // (index function changes with the way count).
            let moved = self.store.valid_blocks() as u32;
            ctx.rearrange(moved);
        }
        self.store.reset_hist();
    }
}

impl Default for Triage {
    fn default() -> Self {
        Triage::new()
    }
}

impl TemporalPrefetcher for Triage {
    fn name(&self) -> &'static str {
        "triage"
    }

    fn on_event(&mut self, ctx: &mut MetaCtx, ev: TemporalEvent, out: &mut Vec<Line>) {
        let _ = ev.kind; // Triage trains identically on misses and prefetch hits.

        // --- Training: correlate the PC's previous access with this one.
        if let Some(prev) = self.tu.insert(ev.pc, ev.line) {
            if prev != ev.line {
                // Correlation-hit measurement (no traffic: piggybacks on
                // the RMW below).
                if let Some(stored) = self.store.peek(prev.0) {
                    let (line, stale) = self.lut.decompress(stored);
                    if !stale && line == ev.line {
                        self.stats.correlation_hits += 1;
                    }
                }
                let compressed = self.lut.compress(ev.line);
                match self.store.insert(prev.0, compressed) {
                    InsertOutcome::Redundant => self.stats.redundant_inserts += 1,
                    _ => {
                        self.stats.inserts += 1;
                        ctx.write_block();
                    }
                }
            }
        }

        // --- Prefetching: chase correlations up to the degree; each hop
        // in a pairwise store is an independent metadata read.
        let mut cur = ev.line;
        for _ in 0..DEGREE {
            self.stats.trigger_lookups += 1;
            ctx.read_block();
            let Some(stored) = self.store.lookup(cur.0) else {
                break;
            };
            self.stats.trigger_hits += 1;
            let (target, stale) = self.lut.decompress(stored);
            if target == ev.line {
                break; // trivial self-loop
            }
            // A stale (dangling-LUT) target still issues a prefetch — to
            // the wrong line. That is exactly Triage's accuracy loss.
            out.push(target);
            if stale {
                break;
            }
            cur = target;
        }
        self.stats.prefetches_issued += out.len() as u64;

        self.maybe_resize(ctx);
    }

    fn partition(&self) -> PartitionSpec {
        match self.store.ways() {
            0 => PartitionSpec::None,
            w => PartitionSpec::Ways { ways: w },
        }
    }

    fn stats(&self) -> TemporalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::L2EventKind;

    fn ev(pc: u64, line: u64) -> TemporalEvent {
        TemporalEvent {
            pc: Pc(pc),
            line: Line(line),
            kind: L2EventKind::DemandMiss,
            now: 0,
        }
    }

    fn drive(t: &mut Triage, pc: u64, lines: &[u64]) -> Vec<Vec<Line>> {
        lines
            .iter()
            .map(|&l| {
                let mut ctx = MetaCtx::new(0, 0.0);
                let mut r = Vec::new();
                t.on_event(&mut ctx, ev(pc, l), &mut r);
                r
            })
            .collect()
    }

    #[test]
    fn learns_and_chases_repeated_sequence() {
        let mut t = Triage::new();
        let seq: Vec<u64> = (0..10).map(|i| 1000 + i * 7).collect();
        drive(&mut t, 1, &seq);
        let out = drive(&mut t, 1, &seq);
        // Second pass: each access should chase the learned chain.
        let fired: usize = out.iter().map(Vec::len).sum();
        assert!(fired >= 20, "expected chained prefetches, got {fired}");
        assert!(out[0].contains(&Line(1007)));
    }

    #[test]
    fn degree_bounds_chain_length() {
        let mut t = Triage::new();
        let seq: Vec<u64> = (0..20).map(|i| 5000 + i).collect();
        drive(&mut t, 1, &seq);
        let out = drive(&mut t, 1, &seq);
        assert!(out.iter().all(|v| v.len() <= 4));
    }

    #[test]
    fn metadata_traffic_is_charged() {
        let mut t = Triage::new();
        let mut ctx = MetaCtx::new(0, 0.0);
        t.on_event(&mut ctx, ev(1, 10), &mut Vec::new());
        t.on_event(&mut ctx, ev(1, 20), &mut Vec::new());
        assert!(ctx.writes() >= 1, "insert must write metadata");
        assert!(ctx.reads() >= 1, "prefetch lookup must read metadata");
    }

    #[test]
    fn capacity_matches_paper_geometry() {
        let t = Triage::new();
        // 2048 sets x 8 ways x 16 correlations = 256K correlations at 1MB.
        assert_eq!(t.capacity_correlations(), 2048 * 8 * 16);
    }

    #[test]
    fn resize_epoch_releases_ways_without_reuse() {
        let mut t = Triage::with_config(TriageConfig { epoch: 1000 });
        // Pure scan: no trigger ever repeats.
        for i in 0..4000u64 {
            let mut ctx = MetaCtx::new(0, 0.0);
            t.on_event(&mut ctx, ev(1, 1_000_000 + i), &mut Vec::new());
        }
        assert_eq!(t.store.ways(), 0, "scan workload should release ways");
        assert_eq!(t.partition(), PartitionSpec::None);
    }

    #[test]
    fn resize_epoch_keeps_ways_under_reuse() {
        let mut t = Triage::with_config(TriageConfig { epoch: 1000 });
        let seq: Vec<u64> = (0..500).map(|i| 77_000 + i * 3).collect();
        for _ in 0..8 {
            drive(&mut t, 2, &seq);
        }
        assert!(t.store.ways() >= 1, "temporal workload should keep ways");
    }
}
