//! System configuration mirroring the paper's Table II.

use std::fmt;

/// A rejected engine or experiment parameter.
///
/// The builder-style entry points (`Engine::new`,
/// `Engine::warmup_fraction`) panic on invalid input, which is right
/// for experiment code where a bad parameter is a programming error.
/// Services that accept configurations from untrusted clients use the
/// `try_` variants instead and surface this error as a structured
/// request rejection rather than a process abort.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The warmup fraction was NaN (explicitly rejected: NaN fails every
    /// range comparison and would otherwise masquerade as out-of-range).
    WarmupNan,
    /// The warmup fraction was outside `[0, 1)`.
    WarmupOutOfRange(f64),
    /// The number of core plans did not match the configured core count.
    PlanCountMismatch {
        /// Plans supplied.
        plans: usize,
        /// Cores configured.
        cores: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Both warmup variants keep the historical assert message as
            // a prefix so `should_panic(expected = ...)` callers and log
            // scrapers keep matching.
            ConfigError::WarmupNan => write!(f, "warmup must be in [0, 1), got NaN"),
            ConfigError::WarmupOutOfRange(v) => {
                write!(f, "warmup must be in [0, 1), got {v}")
            }
            ConfigError::PlanCountMismatch { plans, cores } => write!(
                f,
                "one plan per configured core required ({plans} plan(s), {cores} core(s))"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates a warmup fraction: finite and within `[0, 1)`, with NaN
/// rejected explicitly.
///
/// # Errors
/// Returns the specific [`ConfigError`] describing the rejection.
pub fn validate_warmup_fraction(frac: f64) -> Result<(), ConfigError> {
    if frac.is_nan() {
        return Err(ConfigError::WarmupNan);
    }
    if !(0.0..1.0).contains(&frac) {
        return Err(ConfigError::WarmupOutOfRange(frac));
    }
    Ok(())
}

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: u64,
    /// Miss-status holding registers (outstanding-miss limit).
    pub mshrs: usize,
    /// Read/write ports (requests accepted per cycle).
    pub ports: usize,
}

impl CacheParams {
    /// Number of sets implied by capacity, associativity, and 64B lines.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * crate::LINE_SIZE as usize)
    }
}

/// Analytic out-of-order core parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreParams {
    /// Dispatch/retire width (instructions per cycle).
    pub width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob: usize,
}

/// DRAM timing and topology parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramParams {
    /// Number of channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Column-access latency in CPU cycles (tCAS = 12.5 ns at 4 GHz).
    pub t_cas: u64,
    /// Row-to-column delay in CPU cycles.
    pub t_rcd: u64,
    /// Precharge latency in CPU cycles.
    pub t_rp: u64,
    /// 64-byte burst occupancy of the channel data bus, in CPU cycles
    /// (8 B × 8 beats at 3200 MT/s ≈ 2.5 ns ≈ 10 cycles at 4 GHz).
    pub burst: u64,
    /// Cache lines per DRAM row (8 KB rows → 128 lines).
    pub lines_per_row: u64,
}

impl DramParams {
    /// Paper topology for a given core count: 1/2/4/8 cores use
    /// 1/2/2/4 channels and 1/1/2/2 ranks per channel.
    pub fn for_cores(cores: usize) -> Self {
        let (channels, ranks) = match cores {
            0 | 1 => (1, 1),
            2 => (2, 1),
            3..=4 => (2, 2),
            _ => (4, 2),
        };
        DramParams {
            channels,
            ranks,
            ..DramParams::default()
        }
    }
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams {
            channels: 1,
            ranks: 1,
            banks_per_rank: 8,
            t_cas: 50,
            t_rcd: 50,
            t_rp: 50,
            burst: 10,
            lines_per_row: 128,
        }
    }
}

/// Sets in one core's 2 MB slice of the shared LLC (paper Table II).
/// The temporal prefetchers size their metadata stores and shadow sets
/// by it; the LLC has this many sets per core.
pub const LLC_SLICE_SETS: usize = 2048;

/// LLC associativity (paper Table II).
pub const LLC_WAYS: usize = 16;

/// Full system configuration (paper Table II, Ice Lake-like).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core model parameters.
    pub core: CoreParams,
    /// Private L1 data cache.
    pub l1d: CacheParams,
    /// Private unified L2.
    pub l2: CacheParams,
    /// Shared LLC; capacity scales with `cores` (2 MB per core).
    pub llc: CacheParams,
    /// DRAM topology and timing.
    pub dram: DramParams,
}

impl SystemConfig {
    /// Single-core configuration matching Table II.
    pub fn single_core() -> Self {
        SystemConfig::with_cores(1)
    }

    /// Multi-core configuration: LLC capacity and DRAM channels/ranks
    /// scale with the core count as in the paper.
    pub fn with_cores(cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        SystemConfig {
            cores,
            core: CoreParams { width: 6, rob: 352 },
            l1d: CacheParams {
                capacity: 48 << 10,
                ways: 12,
                latency: 5,
                mshrs: 16,
                ports: 2,
            },
            l2: CacheParams {
                capacity: 512 << 10,
                ways: 8,
                latency: 10,
                mshrs: 32,
                ports: 1,
            },
            llc: CacheParams {
                capacity: cores * LLC_SLICE_SETS * LLC_WAYS * crate::LINE_SIZE as usize,
                ways: LLC_WAYS,
                latency: 20,
                mshrs: 64,
                ports: 1,
            },
            dram: DramParams::for_cores(cores),
        }
    }

    /// Scales DRAM bandwidth by adjusting the channel count; used by the
    /// bandwidth-sensitivity experiment (paper Figure 10c). `factor` of 1
    /// keeps the default; 2 doubles channels; fractions below 1 reduce
    /// bandwidth by stretching the burst occupancy.
    pub fn with_bandwidth_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth factor must be positive");
        if factor >= 1.0 {
            self.dram.channels = ((self.dram.channels as f64) * factor).round().max(1.0) as usize;
        } else {
            self.dram.burst = ((self.dram.burst as f64) / factor).round() as u64;
        }
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::single_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let c = SystemConfig::single_core();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.core.width, 6);
        assert_eq!(c.core.rob, 352);
    }

    #[test]
    fn llc_and_dram_scale_with_cores() {
        for n in [1, 2, 4, 8] {
            let llc = SystemConfig::with_cores(n).llc;
            assert_eq!(llc.sets(), n * LLC_SLICE_SETS, "{n} cores");
            assert_eq!(llc.ways, LLC_WAYS, "{n} cores");
        }
        let c8 = SystemConfig::with_cores(8);
        assert_eq!(c8.llc.capacity, 16 << 20);
        assert_eq!(c8.llc.sets(), 16384);
        assert_eq!(c8.dram.channels, 4);
        assert_eq!(c8.dram.ranks, 2);
        let c2 = SystemConfig::with_cores(2);
        assert_eq!(c2.dram.channels, 2);
        assert_eq!(c2.dram.ranks, 1);
    }

    #[test]
    fn bandwidth_factor_adjusts_channels_or_burst() {
        let up = SystemConfig::single_core().with_bandwidth_factor(2.0);
        assert_eq!(up.dram.channels, 2);
        let down = SystemConfig::single_core().with_bandwidth_factor(0.5);
        assert_eq!(down.dram.channels, 1);
        assert_eq!(down.dram.burst, 20);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SystemConfig::with_cores(0);
    }

    #[test]
    fn warmup_validation_accepts_the_range_and_names_rejections() {
        assert_eq!(validate_warmup_fraction(0.0), Ok(()));
        assert_eq!(validate_warmup_fraction(0.999), Ok(()));
        assert_eq!(
            validate_warmup_fraction(f64::NAN),
            Err(ConfigError::WarmupNan)
        );
        assert_eq!(
            validate_warmup_fraction(1.0),
            Err(ConfigError::WarmupOutOfRange(1.0))
        );
        assert_eq!(
            validate_warmup_fraction(-0.1),
            Err(ConfigError::WarmupOutOfRange(-0.1))
        );
        assert_eq!(
            validate_warmup_fraction(f64::INFINITY),
            Err(ConfigError::WarmupOutOfRange(f64::INFINITY))
        );
        // Rejections render with the historical assert prefix.
        assert!(validate_warmup_fraction(f64::NAN)
            .unwrap_err()
            .to_string()
            .starts_with("warmup must be in [0, 1)"));
    }
}
