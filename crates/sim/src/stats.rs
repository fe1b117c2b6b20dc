//! Simulation statistics: per-cache, per-core, and whole-run reports.

use crate::audit::AuditReport;
use std::fmt;
use std::ops::{Add, Sub};

/// Declares a plain-`u64` counter struct from one field list. The
/// list's order is the wire order (`tpharness::wire` encodes the
/// fields in it), and every walk over the counters — `Sub`, `Add`,
/// the wire encoder and decoder, the monotonic audit — reads it
/// through the generated `NAMES`, `values()` and `try_from_names`, so
/// a new counter is one line here.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// Field names in declaration (wire) order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Field values in [`Self::NAMES`] order.
            pub fn values(&self) -> [u64; [$(stringify!($field)),*].len()] {
                [$(self.$field),*]
            }

            /// Builds the struct by asking `value` for each field by
            /// name, in [`Self::NAMES`] order; the first error wins.
            ///
            /// # Errors
            /// The first error `value` returns.
            pub fn try_from_names<E>(
                mut value: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok(Self { $($field: value(stringify!($field))?,)* })
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name { $($field: self.$field - rhs.$field,)* }
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name { $($field: self.$field + rhs.$field,)* }
            }
        }
    };
}

counters! {
    /// Counters for one cache level.
    pub struct CacheStats {
        /// Demand accesses (loads + stores).
        accesses,
        /// Demand hits.
        hits,
        /// Demand misses.
        misses,
        /// Demand hits on blocks brought in by a prefetch (first touch).
        useful_prefetches,
        /// Demand misses that found their line already in flight from a
        /// prefetch (late prefetches; partial latency credit).
        late_prefetches,
        /// Prefetch fills installed at this level.
        prefetch_fills,
        /// Prefetched blocks evicted without ever being demanded.
        useless_prefetch_evictions,
        /// Dirty evictions (writebacks issued downstream).
        writebacks,
    }
}

impl CacheStats {
    /// Demand hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

counters! {
    /// DRAM traffic counters.
    pub struct DramStats {
        /// Line reads serviced (demand + prefetch fills).
        reads,
        /// Line writes serviced (writebacks).
        writes,
        /// Row-buffer hits among reads+writes.
        row_hits,
    }
}

impl DramStats {
    /// Total lines transferred.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

counters! {
    /// Counters kept by temporal prefetchers and the metadata subsystem.
    ///
    /// Every prefetcher fills the fields that apply to it; the figure
    /// harnesses read them to regenerate the paper's metadata-centric plots
    /// (Figures 12 and 13).
    pub struct TemporalStats {
        /// Metadata block reads issued to the LLC.
        meta_reads,
        /// Metadata block writes issued to the LLC.
        meta_writes,
        /// Blocks shuffled by repartitioning (Triangel's rearrangement).
        rearranged_blocks,
        /// Lookups of a trigger in the metadata store.
        trigger_lookups,
        /// Lookups that found the trigger.
        trigger_hits,
        /// Lookups that found the trigger *and* whose stored correlation
        /// matched the actual next access (measured on training events).
        correlation_hits,
        /// Metadata entries inserted.
        inserts,
        /// Inserts that duplicated correlations already present (redundancy;
        /// paper Figure 12b).
        redundant_inserts,
        /// Inserts merged by stream alignment (Streamline only).
        aligned_inserts,
        /// Entries discarded by filtered indexing (Streamline only).
        filtered,
        /// Entries saved by stream realignment (Streamline only).
        realigned,
        /// Partition resizes performed.
        resizes,
        /// Prefetches issued by the temporal prefetcher.
        prefetches_issued,
    }
}

impl TemporalStats {
    /// Metadata traffic in 64-byte blocks (reads + writes + shuffles).
    pub fn traffic_blocks(&self) -> u64 {
        self.meta_reads + self.meta_writes + self.rearranged_blocks
    }
}

/// Per-core results of a run (measured after warmup).
#[derive(Clone, Debug, Default)]
pub struct CoreReport {
    /// Workload name simulated on this core.
    pub workload: String,
    /// Instructions retired in the measured region.
    pub instructions: u64,
    /// Cycles elapsed in the measured region.
    pub cycles: u64,
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Temporal-prefetcher statistics (zero if none attached).
    pub temporal: TemporalStats,
    /// Prefetches issued into L1 by the L1 prefetcher.
    pub l1_prefetches: u64,
    /// Prefetches issued into L2 by the regular L2 prefetcher.
    pub l2_prefetches: u64,
    /// Temporal prefetches accepted by the hierarchy (each fills the L2
    /// exactly once; the audit cross-checks this against
    /// `l2_fills_by_origin[2]`).
    pub temporal_pf_issued: u64,
    /// Temporal prefetches the hierarchy refused: duplicates of resident
    /// or in-flight lines, DRAM-backlog drops, and per-event queue
    /// truncation.
    pub temporal_pf_dropped: u64,
    /// L2 prefetch fills by origin: [L1, L2-regular, temporal].
    pub l2_fills_by_origin: [u64; 3],
    /// First demand touches of prefetched L2 blocks, by origin.
    pub l2_useful_by_origin: [u64; 3],
    /// L2 prefetched blocks evicted unused, by origin.
    pub l2_useless_by_origin: [u64; 3],
}

impl CoreReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 prefetch coverage: fraction of would-be L2 demand misses
    /// covered by prefetches. `useful_prefetches` counts first demand
    /// touches of prefetched blocks (late prefetches included — the
    /// block was resident-or-in-flight when demanded), so the would-be
    /// miss count is `useful + misses`.
    pub fn l2_coverage(&self) -> f64 {
        let base = self.l2.useful_prefetches + self.l2.misses;
        if base == 0 {
            0.0
        } else {
            self.l2.useful_prefetches as f64 / base as f64
        }
    }

    /// L2 prefetch accuracy: demanded prefetch fills / resolved prefetch
    /// fills (demanded + evicted-unused).
    pub fn l2_accuracy(&self) -> f64 {
        let resolved = self.l2.useful_prefetches + self.l2.useless_prefetch_evictions;
        if resolved == 0 {
            0.0
        } else {
            self.l2.useful_prefetches as f64 / resolved as f64
        }
    }

    /// Coverage attributable to the **temporal** prefetcher alone: its
    /// useful prefetches over the would-be miss count. This is the
    /// paper's Figure 10d metric.
    pub fn temporal_coverage(&self) -> f64 {
        let useful = self.l2_useful_by_origin[2];
        let base = useful + self.l2.misses;
        if base == 0 {
            0.0
        } else {
            useful as f64 / base as f64
        }
    }

    /// Accuracy of the temporal prefetcher alone (Figure 10e metric).
    pub fn temporal_accuracy(&self) -> f64 {
        let useful = self.l2_useful_by_origin[2];
        let resolved = useful + self.l2_useless_by_origin[2];
        if resolved == 0 {
            0.0
        } else {
            useful as f64 / resolved as f64
        }
    }

    /// Misses per kilo-instruction at L2.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2.misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Whole-run report.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// One report per core.
    pub cores: Vec<CoreReport>,
    /// Shared LLC statistics.
    pub llc: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Conservation-law audit of the run's counters (see
    /// [`crate::audit`]). Empty/passing for a default report.
    pub audit: AuditReport,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "core{i} [{}]: IPC {:.3}, L2 cov {:.1}%, acc {:.1}%, L2 MPKI {:.2}",
                c.workload,
                c.ipc(),
                c.l2_coverage() * 100.0,
                c.l2_accuracy() * 100.0,
                c.l2_mpki()
            )?;
        }
        writeln!(
            f,
            "llc: {}/{} hits, dram: {} rd / {} wr",
            self.llc.hits, self.llc.accesses, self.dram.reads, self.dram.writes
        )?;
        if !self.audit.passed() {
            writeln!(f, "{}", self.audit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let c = CacheStats::default();
        assert_eq!(c.hit_rate(), 0.0);
        let r = CoreReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.l2_coverage(), 0.0);
        assert_eq!(r.l2_accuracy(), 0.0);
    }

    #[test]
    fn coverage_and_accuracy_make_sense() {
        let mut r = CoreReport {
            instructions: 1000,
            cycles: 500,
            ..Default::default()
        };
        r.l2.misses = 50;
        r.l2.useful_prefetches = 50;
        r.l2.useless_prefetch_evictions = 25;
        assert!((r.ipc() - 2.0).abs() < 1e-9);
        assert!((r.l2_coverage() - 0.5).abs() < 1e-9);
        assert!((r.l2_accuracy() - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.l2_mpki() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stats_subtraction_diffs_counters() {
        let a = CacheStats {
            accesses: 10,
            hits: 6,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 4,
            hits: 2,
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.accesses, 6);
        assert_eq!(d.hits, 4);
    }

    #[test]
    fn names_values_and_try_from_names_agree() {
        // Field i holds i + 1: each walk must visit the fields in one order.
        let t = TemporalStats::try_from_names(|name| {
            let i = TemporalStats::NAMES
                .iter()
                .position(|n| *n == name)
                .unwrap();
            Ok::<_, ()>(i as u64 + 1)
        })
        .unwrap();
        assert_eq!(t.values().to_vec(), (1..=13).collect::<Vec<u64>>());
        assert_eq!((t.meta_reads, t.prefetches_issued), (1, 13));
        assert_eq!(t + t - t, t);
    }

    #[test]
    fn display_is_nonempty() {
        let mut rep = SimReport::default();
        rep.cores.push(CoreReport::default());
        assert!(!format!("{rep}").is_empty());
    }
}
