//! Prefetcher interfaces.
//!
//! Two kinds of prefetchers plug into the engine:
//!
//! * [`AccessPrefetcher`] — regular prefetchers observing every demand
//!   access at one level (IP-stride and Berti at the L1D; IPCP, Bingo,
//!   SPP-PPF at the L2). They return lines to prefetch into that level.
//! * [`TemporalPrefetcher`] — the on-chip temporal prefetchers under
//!   study (Triage, Triangel, Streamline). They train on L2 demand
//!   misses and L2 prefetch hits, keep their metadata in an LLC
//!   partition, and are charged for metadata traffic via [`MetaCtx`].

use crate::stats::TemporalStats;
use tptrace::record::{Line, Pc};

/// A regular prefetcher attached to one cache level.
///
/// `Send` is a supertrait so that boxed prefetchers (and therefore
/// [`crate::CorePlan`]s and [`crate::Engine`]s) can move across the
/// harness's sweep-runner worker threads. Prefetchers are plain data
/// structures, so the bound costs implementors nothing.
pub trait AccessPrefetcher: Send {
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Observes a demand access and appends lines to prefetch into the
    /// attached level to `out`.
    ///
    /// `out` arrives empty — the engine clears and reuses one scratch
    /// buffer across every call (the same protocol as
    /// [`TemporalPrefetcher::on_event`]), so implementations must not
    /// allocate a fresh Vec per access on the hot path.
    fn on_access(&mut self, pc: Pc, line: Line, hit: bool, out: &mut Vec<Line>);
}

/// Why the temporal prefetcher is being invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2EventKind {
    /// The access missed in the L2.
    DemandMiss,
    /// The access hit an L2 block installed by a prefetch (first touch).
    PrefetchHit,
}

/// A training/prefetch trigger event delivered to a temporal prefetcher.
#[derive(Clone, Copy, Debug)]
pub struct TemporalEvent {
    /// Load/store PC.
    pub pc: Pc,
    /// Accessed line.
    pub line: Line,
    /// Miss or prefetch hit.
    pub kind: L2EventKind,
    /// Current time in cycles.
    pub now: u64,
}

/// How the temporal prefetcher's metadata occupies the LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionSpec {
    /// No LLC space used (metadata store disabled).
    None,
    /// Way-partitioning: reserve `ways` ways in every set of the core's
    /// LLC slice (Triage, Triangel).
    Ways {
        /// Ways reserved per set (0..=associativity).
        ways: u8,
    },
    /// Tagged set-partitioning: reserve `ways` ways in every
    /// `2^every_log2`-th set of the core's LLC slice (Streamline).
    Sets {
        /// Log2 of the set stride (0 = every set, 1 = every other set...).
        every_log2: u8,
        /// Ways reserved in each allocated set.
        ways: u8,
    },
    /// Dedicated storage outside the LLC (Triangel-Ideal): no data
    /// displacement and no LLC port contention.
    Dedicated,
}

impl PartitionSpec {
    /// Metadata capacity in bytes for an LLC slice with `slice_sets` sets
    /// and `ways_total` ways of 64-byte blocks.
    pub fn capacity_bytes(&self, slice_sets: usize, ways_total: usize) -> usize {
        match *self {
            PartitionSpec::None => 0,
            PartitionSpec::Ways { ways } => slice_sets * ways as usize * 64,
            PartitionSpec::Sets { every_log2, ways } => {
                (slice_sets >> every_log2) * ways as usize * 64
            }
            PartitionSpec::Dedicated => slice_sets * ways_total * 64,
        }
    }
}

/// Metadata-access context handed to temporal prefetchers.
///
/// The prefetcher owns its logical metadata contents; every *physical*
/// block read/write must be charged here so the engine can model LLC
/// port contention, latency, and traffic. The context also carries the
/// engine-measured global prefetch accuracy used by utility-aware
/// policies.
#[derive(Debug)]
pub struct MetaCtx {
    /// Current time in cycles.
    pub now: u64,
    /// Global prefetch accuracy over the previous epoch, in [0, 1].
    pub global_accuracy: f64,
    pub(crate) reads: u32,
    pub(crate) writes: u32,
    pub(crate) rearranged: u32,
}

impl MetaCtx {
    /// Creates a context for one event.
    pub fn new(now: u64, global_accuracy: f64) -> Self {
        MetaCtx {
            now,
            global_accuracy,
            reads: 0,
            writes: 0,
            rearranged: 0,
        }
    }

    /// Charges one metadata block read from the LLC.
    pub fn read_block(&mut self) {
        self.reads += 1;
    }

    /// Charges one metadata block write to the LLC.
    pub fn write_block(&mut self) {
        self.writes += 1;
    }

    /// Charges `blocks` block movements for a repartition shuffle
    /// (Triangel's metadata rearrangement).
    pub fn rearrange(&mut self, blocks: u32) {
        self.rearranged += blocks;
    }

    /// Blocks read so far in this event.
    pub fn reads(&self) -> u32 {
        self.reads
    }

    /// Blocks written so far in this event.
    pub fn writes(&self) -> u32 {
        self.writes
    }

    /// Blocks shuffled so far in this event.
    pub fn rearranged(&self) -> u32 {
        self.rearranged
    }
}

/// An on-chip temporal prefetcher (Triage / Triangel / Streamline).
///
/// `Send` is a supertrait for the same reason as [`AccessPrefetcher`]:
/// sweep workers build and run whole [`crate::Engine`]s on worker
/// threads.
pub trait TemporalPrefetcher: Send {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Handles an L2 demand miss or prefetch hit: trains metadata and
    /// appends the lines to prefetch into the L2 (bounded by the
    /// prefetcher's degree) to `out`.
    ///
    /// `out` arrives empty — the engine clears and reuses one scratch
    /// buffer across every event, so implementations must not allocate
    /// a fresh Vec per call on the hot path.
    fn on_event(&mut self, ctx: &mut MetaCtx, ev: TemporalEvent, out: &mut Vec<Line>);

    /// Feedback when a previously issued prefetch is consumed (`useful`)
    /// or evicted unused (`!useful`).
    fn on_feedback(&mut self, _line: Line, _useful: bool) {}

    /// Observes a sampled LLC data access (hardware set dueling sees
    /// *all* LLC traffic, including prefetch-driven fills that never
    /// appear in the temporal event stream). The engine forwards
    /// accesses to a 1-in-32 sample of LLC sets; dynamic partitioners
    /// should train their data-utility model here.
    fn observe_llc(&mut self, _line: Line) {}

    /// Current metadata partition of the core's LLC slice.
    fn partition(&self) -> PartitionSpec;

    /// Internal statistics snapshot.
    fn stats(&self) -> TemporalStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_ctx_accumulates_charges() {
        let mut ctx = MetaCtx::new(5, 0.5);
        ctx.read_block();
        ctx.read_block();
        ctx.write_block();
        ctx.rearrange(10);
        assert_eq!(ctx.reads(), 2);
        assert_eq!(ctx.writes(), 1);
        assert_eq!(ctx.rearranged(), 10);
    }

    #[test]
    fn partition_capacity_math() {
        assert_eq!(PartitionSpec::None.capacity_bytes(2048, 16), 0);
        assert_eq!(
            PartitionSpec::Ways { ways: 8 }.capacity_bytes(2048, 16),
            1 << 20
        );
        assert_eq!(
            PartitionSpec::Sets {
                every_log2: 1,
                ways: 8
            }
            .capacity_bytes(2048, 16),
            512 << 10
        );
        assert_eq!(PartitionSpec::Dedicated.capacity_bytes(2048, 16), 2 << 20);
    }
}
