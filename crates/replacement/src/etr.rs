//! Sampled reuse-distance prediction, the core mechanism of Mockingjay
//! (Shah, Jain, Lin — HPCA 2022), reused by the paper's TP-Mockingjay.
//!
//! A small sampled cache observes a subset of accesses and measures, per
//! (hashed) PC, how long its elements take to be reused. The predictor is
//! then consulted at insertion time to set an *estimated time remaining*
//! (ETR) for the filled way; the replacement victim is the way whose
//! reuse is estimated farthest away (largest |ETR|). The ETR counters
//! and the victim choice belong to the table whose ways they describe:
//! this module holds only the predictor.
//!
//! This module is deliberately generic over what an "element" is: data
//! lines for classic Mockingjay, or whole correlations for TP-Mockingjay
//! (the paper modifies sampler entries to store correlations and finds
//! 3-bit ETRs suffice for temporal metadata — see Section IV-E5). Its
//! geometry and ranges are TP-Mockingjay's, as Streamline's store uses
//! them.

/// Sampler sets (the paper's sampled sets, in total).
const SETS: usize = 256;

/// Sampler associativity (paper: 10).
const WAYS: usize = 10;

/// Saturating cap for measured reuse distances, in sampler-set
/// accesses. Temporal metadata has long but consistent reuse distances
/// (paper Section IV-E5), so the range must cover them.
const MAX_DISTANCE: u32 = 2048;

/// ETR quantisation granularity: predicted distances are divided by
/// this before being stored in per-way ETR counters, so 3-bit ETRs span
/// the sampler's range.
const GRANULARITY: u32 = 64;

#[derive(Clone, Copy, Debug, Default)]
struct SamplerEntry {
    valid: bool,
    tag: u16,
    pc_hash: u8,
    timestamp: u32,
    lru: u32,
}

/// Prediction returned by [`EtrSampler::predict`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReusePrediction {
    /// Predicted reuse in approximately this many set-accesses.
    Reuse(u32),
    /// The PC's elements are predicted dead on arrival (scans).
    Scan,
}

/// The sampled reuse-distance predictor.
///
/// Call [`EtrSampler::observe`] for every access that falls in a sampled
/// set; call [`EtrSampler::predict`] at fill time to initialise a way's
/// ETR counter.
#[derive(Clone, Debug)]
pub struct EtrSampler {
    /// The sampled sets, `WAYS` entries each: entry `w` of set `s` is
    /// index `s * WAYS + w`.
    entries: Vec<SamplerEntry>,
    /// Per-PC-hash predicted reuse distance; `u32::MAX` encodes scan.
    rdp: Vec<u32>,
    clock: Vec<u32>,
    lru_clock: u32,
}

impl EtrSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        EtrSampler {
            entries: vec![SamplerEntry::default(); SETS * WAYS],
            rdp: vec![0; 256],
            clock: vec![0; SETS],
            lru_clock: 0,
        }
    }

    fn set_index(&self, key: u64) -> usize {
        (key ^ (key >> 17) ^ (key >> 31)) as usize % SETS
    }

    fn tag_of(key: u64) -> u16 {
        ((key >> 5) ^ (key >> 21) ^ key) as u16
    }

    /// Observes an access to `key` made by `pc_hash`, training the
    /// per-PC reuse-distance predictor.
    pub fn observe(&mut self, key: u64, pc_hash: u8) {
        let si = self.set_index(key);
        let tag = Self::tag_of(key);
        self.clock[si] = self.clock[si].wrapping_add(1);
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let now = self.clock[si];
        let set = &mut self.entries[si * WAYS..][..WAYS];

        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            // Reuse: train the *previous* PC toward the observed distance.
            let distance = now.wrapping_sub(e.timestamp).min(MAX_DISTANCE);
            let slot = &mut self.rdp[e.pc_hash as usize];
            *slot = if *slot == u32::MAX || *slot == 0 {
                distance
            } else {
                // Exponential approach toward the sample.
                (*slot * 3 + distance) / 4
            };
            e.pc_hash = pc_hash;
            e.timestamp = now;
            e.lru = self.lru_clock;
            return;
        }

        // Miss: victimise LRU; its PC never saw a reuse → train scan-ward.
        let (victim_idx, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .expect("nonempty sampler set");
        let victim = set[victim_idx];
        if victim.valid {
            let slot = &mut self.rdp[victim.pc_hash as usize];
            *slot = if *slot >= MAX_DISTANCE / 2 {
                u32::MAX // repeated non-reuse (or already scan): declare scan
            } else {
                (*slot).saturating_add(MAX_DISTANCE / 8).max(1)
            };
        }
        set[victim_idx] = SamplerEntry {
            valid: true,
            tag,
            pc_hash,
            timestamp: now,
            lru: self.lru_clock,
        };
    }

    /// Predicts the reuse behaviour of elements inserted by `pc_hash`.
    pub fn predict(&self, pc_hash: u8) -> ReusePrediction {
        match self.rdp[pc_hash as usize] {
            u32::MAX => ReusePrediction::Scan,
            d => ReusePrediction::Reuse(d),
        }
    }

    /// Quantises a prediction into an ETR counter value clamped to
    /// `bits` signed bits (paper: 3 bits for TP-Mockingjay).
    pub fn etr_for(&self, pred: ReusePrediction, bits: u32) -> i32 {
        let max = (1i32 << (bits - 1)) - 1;
        match pred {
            ReusePrediction::Scan => -max,
            ReusePrediction::Reuse(d) => ((d / GRANULARITY) as i32).min(max),
        }
    }
}

impl Default for EtrSampler {
    fn default() -> Self {
        EtrSampler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_trains_toward_observed_distance() {
        let mut s = EtrSampler::new();
        // Key 42 reused every 4 accesses to its set (approx).
        for _ in 0..50 {
            s.observe(42, 7);
            s.observe(1042, 9);
            s.observe(2042, 9);
            s.observe(3042, 9);
        }
        match s.predict(7) {
            ReusePrediction::Reuse(d) => assert!(d <= 16, "distance {d} too large"),
            ReusePrediction::Scan => panic!("reused key predicted as scan"),
        }
    }

    #[test]
    fn never_reused_pcs_become_scans() {
        let mut s = EtrSampler::new();
        // A stream of unique keys from one PC: every eviction trains
        // scan-ward.
        for k in 0..10_000u64 {
            s.observe(k * 131, 3);
        }
        assert_eq!(s.predict(3), ReusePrediction::Scan);
    }

    #[test]
    fn etr_quantisation_respects_bit_width() {
        let s = EtrSampler::new();
        assert_eq!(s.etr_for(ReusePrediction::Scan, 3), -3);
        assert_eq!(s.etr_for(ReusePrediction::Reuse(10_000), 3), 3);
        assert_eq!(s.etr_for(ReusePrediction::Reuse(0), 3), 0);
    }
}
