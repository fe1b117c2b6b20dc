#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpreplace — replacement policies for caches and temporal metadata
//!
//! This crate implements the replacement-policy family used by the
//! Streamline reproduction:
//!
//! * Online set-local policies usable for both data and metadata:
//!   [`Lru`] and [`Srrip`]. Triangel's metadata is SRRIP-managed in
//!   hardware; the `triangel` crate models that by MRU insertion and
//!   does not call [`Srrip`], which the online-vs-offline property tests
//!   exercise instead.
//! * [`EtrSampler`], the sampled reuse-distance predictor at the heart of
//!   Mockingjay (HPCA 2022) and of the paper's **TP-Mockingjay** variant.
//! * Offline analyzers: [`belady`] implements Belady's MIN over *trigger
//!   addresses* (how Triage applied it), and [`tpmin`] implements the
//!   paper's **TP-MIN**, which maximizes the hit rate of whole
//!   *(trigger, target)* correlations instead (paper Section IV-D1,
//!   Figure 6).
//!
//! The offline analyzers are used by `tpbench fig13` to reproduce the
//! paper's MIN-vs-TP-MIN comparison, and by property tests that check the
//! online policies never beat the offline optimum.

pub mod belady;
pub mod etr;
pub mod lru;
pub mod srrip;
pub mod tpmin;

pub use belady::min_sim;
pub use etr::{EtrSampler, ReusePrediction};
pub use lru::Lru;
pub use srrip::Srrip;
pub use tpmin::tpmin_sim;

/// A set-local replacement policy over `ways` slots.
///
/// Implementations keep per-way state; the caller owns the tags. All the
/// online policies in this crate implement it, so caches and metadata
/// stores can be generic over replacement.
pub trait SetPolicy {
    /// Called when the slot `way` is filled with a new element.
    fn on_fill(&mut self, way: usize);
    /// Called when the slot `way` hits.
    fn on_hit(&mut self, way: usize);
    /// Chooses a victim way among `0..ways`; `valid[w]` tells whether the
    /// slot currently holds a valid element (invalid slots should be
    /// preferred).
    fn victim(&mut self, valid: &[bool]) -> usize;
    /// Number of ways managed.
    fn ways(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(policy: &mut dyn SetPolicy) {
        let ways = policy.ways();
        let valid = vec![false; ways];
        // First victim must be an invalid slot.
        let v = policy.victim(&valid);
        assert!(v < ways);
        let mut valid = vec![true; ways];
        valid[ways - 1] = false;
        assert_eq!(policy.victim(&valid), ways - 1, "prefer invalid slots");
        valid[ways - 1] = true;
        for w in 0..ways {
            policy.on_fill(w);
        }
        policy.on_hit(0);
        let v = policy.victim(&valid);
        assert!(v < ways);
        assert_ne!(v, 0, "most recently hit way should not be the victim");
    }

    #[test]
    fn lru_and_srrip_satisfy_policy_contract() {
        exercise(&mut Lru::new(8));
        exercise(&mut Srrip::new(8));
    }
}
