//! Streamline configuration: the ablation and sweep knobs of the paper's
//! Figures 10–15, and as constants the hardware sizes the paper fixes.

/// Ways reserved per allocated metadata set (8: 1 MB of a 2 MB slice
/// when every set is allocated).
pub const META_WAYS: usize = 8;

/// Training-unit entries (256).
pub const TU_ENTRIES: usize = 256;

/// Instability epoch in accesses (paper Section IV-E6: 1024).
pub const INSTABILITY_EPOCH: u32 = 1024;

/// Metadata partition sizes (paper Section IV-E4: 0 MB, 0.5 MB, 1 MB).
///
/// Sizes are expressed as the log2 stride of allocated LLC sets: a
/// `1 MB` store allocates 8 ways in **every** set of the core's domain, a
/// `0.5 MB` store in every *other* set, and so on. `SamplesOnly` models
/// the "0 MB" configuration, which still permanently allocates the 64
/// sample sets so the partitioner can observe metadata utility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PartitionSize {
    /// 64 permanently allocated sample sets only ("0 MB").
    SamplesOnly,
    /// Every 4th set (0.25 MB on a 2 MB slice; used in sweeps).
    Quarter,
    /// Every other set (0.5 MB).
    Half,
    /// Every set (1 MB).
    Full,
}

impl PartitionSize {
    /// Log2 of the allocated-set stride on a `llc_sets`-set domain.
    pub fn stride_log2(self, llc_sets: usize) -> u8 {
        match self {
            PartitionSize::Full => 0,
            PartitionSize::Half => 1,
            PartitionSize::Quarter => 2,
            // The 64 sample sets, evenly spread (every 32nd set of a
            // 2048-set domain); every set of a domain of 64 or fewer.
            PartitionSize::SamplesOnly => (llc_sets / 64).max(1).ilog2() as u8,
        }
    }

    /// Capacity in bytes on a `llc_sets`-set domain with 8 reserved ways.
    pub fn capacity_bytes(self, llc_sets: usize, ways: usize) -> usize {
        (llc_sets >> self.stride_log2(llc_sets)) * ways * 64
    }
}

/// Full Streamline configuration.
#[derive(Clone, Copy, Debug)]
pub struct StreamlineConfig {
    /// LLC sets in this core's slice (`tpsim::LLC_SLICE_SETS`; tests
    /// shrink it).
    pub llc_sets: usize,
    /// Stream length: correlations per stream entry (4).
    pub stream_len: usize,
    /// Per-PC metadata buffer entries (3). Zero disables the buffer
    /// (the `-MB` ablation).
    pub buffer_entries: usize,
    /// Enable stream alignment (`-SA` ablation when false).
    pub alignment: bool,
    /// Enable tagged set-partitioning; when false the store degrades to
    /// the low-associativity way-partitioned layout (`-TSP` ablation).
    pub tsp: bool,
    /// Enable TP-Mockingjay replacement; when false the store uses LRU
    /// (`-TP-MJ` ablation).
    pub tpmj: bool,
    /// Enable filtered indexing. When false, resizes must rearrange
    /// metadata like Triangel (the RTS scheme of Table I).
    pub filtering: bool,
    /// Enable stream realignment of filtered triggers (Section V-D6).
    pub realignment: bool,
    /// Skewed indexing: bias the trigger-to-set map toward sets allocated
    /// at small partition sizes (Section V-D6 extension).
    pub skewed: bool,
    /// Hybrid way/set partitioning for sub-half sizes (Section V-D6).
    pub hybrid: bool,
    /// Pin the partition to one size (size sweeps); `None` = dynamic.
    pub fixed_size: Option<PartitionSize>,
    /// Override the stability-based degree with a constant (Figure 10f).
    pub degree_override: Option<usize>,
    /// Utility-partitioner resize epoch in **events**. The paper resizes
    /// every 2^15 *sampled* accesses; our traces are orders of magnitude
    /// shorter than the paper's 800M-instruction windows, so the default
    /// (2^17) is chosen to give the partitioner several warm decisions
    /// per run while still amortising cold-start noise.
    pub resize_epoch: u64,
}

impl Default for StreamlineConfig {
    fn default() -> Self {
        StreamlineConfig {
            llc_sets: tpsim::LLC_SLICE_SETS,
            stream_len: 4,
            buffer_entries: 3,
            alignment: true,
            tsp: true,
            tpmj: true,
            filtering: true,
            realignment: true,
            skewed: false,
            hybrid: false,
            fixed_size: None,
            degree_override: None,
            resize_epoch: 1 << 17,
        }
    }
}

impl StreamlineConfig {
    /// The unoptimised stream-based prefetcher of the ablation study
    /// (Figure 14): stream metadata format only — a minimal 1-entry
    /// stream buffer (any stream prefetcher needs the current entry in
    /// flight), no alignment, way-partitioned low-associativity store,
    /// LRU replacement. The `+MB` ablation grows the buffer to 3.
    pub fn unoptimized() -> Self {
        StreamlineConfig {
            buffer_entries: 1,
            alignment: false,
            tsp: false,
            tpmj: false,
            ..StreamlineConfig::default()
        }
    }

    /// Correlations per metadata block for a given stream length: the
    /// paper's Figure 12a capacity series (4/8/16 → 16; 2 → 14; 3 → 15;
    /// 5 → 15).
    ///
    /// A 64-byte block holds 512 bits; each stream entry costs
    /// `31 × len` bits of targets plus 4 residual trigger bits (6 of the
    /// 10 hashed-trigger bits spill into the LLC tag store as the
    /// partial tag). Entries per block is `floor(512 / (31 × len + 4))`,
    /// so correlations per block is `len × entries`, capped at 16.
    pub fn correlations_per_block(stream_len: usize) -> usize {
        assert!(stream_len >= 1);
        let entries = 512 / (31 * stream_len + 4);
        (entries * stream_len).min(16)
    }

    /// Total correlation capacity at a given partition size.
    pub fn capacity_correlations(&self, size: PartitionSize) -> usize {
        let blocks = (self.llc_sets >> size.stride_log2(self.llc_sets)) * META_WAYS;
        blocks * Self::correlations_per_block(self.stream_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_series() {
        // Figure 12a: lengths 4, 8, 16 hold 16 correlations per way;
        // 2, 3, 5 hold 14, 15, 15.
        assert_eq!(StreamlineConfig::correlations_per_block(4), 16);
        assert_eq!(StreamlineConfig::correlations_per_block(8), 16);
        assert_eq!(StreamlineConfig::correlations_per_block(16), 16);
        assert_eq!(StreamlineConfig::correlations_per_block(2), 14);
        assert_eq!(StreamlineConfig::correlations_per_block(3), 15);
        assert_eq!(StreamlineConfig::correlations_per_block(5), 15);
    }

    #[test]
    fn capacity_exceeds_triangel_by_a_third() {
        let c = StreamlineConfig::default();
        let streamline = c.capacity_correlations(PartitionSize::Full);
        let triangel = 2048 * 8 * 12;
        assert_eq!(streamline, 2048 * 8 * 16);
        assert!((streamline as f64 / triangel as f64 - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn partition_sizes_scale_by_powers_of_two() {
        let sets = 2048;
        assert_eq!(PartitionSize::Full.capacity_bytes(sets, 8), 1 << 20);
        assert_eq!(PartitionSize::Half.capacity_bytes(sets, 8), 512 << 10);
        assert_eq!(PartitionSize::Quarter.capacity_bytes(sets, 8), 256 << 10);
        // 64 sample sets, on any domain that has them.
        for sets in [64, 1024, sets, 4096] {
            assert_eq!(
                PartitionSize::SamplesOnly.capacity_bytes(sets, 8),
                64 * 8 * 64
            );
        }
    }

    #[test]
    fn unoptimized_disables_the_right_knobs() {
        let u = StreamlineConfig::unoptimized();
        assert!(!u.alignment && !u.tsp && !u.tpmj);
        assert_eq!(u.stream_len, 4);
        assert_eq!(u.buffer_entries, 1);
    }
}
