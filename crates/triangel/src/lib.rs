#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # triangel — the Triangel on-chip temporal prefetcher (Ainsworth &
//! Mukhanov, ISCA 2024), the paper's state-of-the-art baseline.
//!
//! Triangel improves Triage along three axes, all modelled here:
//!
//! * **Confidence-based filtering** ([`training`]): per-PC *reuse* and
//!   *pattern* confidence, measured by a History Sampler with a
//!   Second-Chance Sampler for reordering leeway, gate which PCs may
//!   store metadata and at what prefetch degree;
//! * a **Metadata Reuse Buffer** ([`mrb::Mrb`]) that short-circuits
//!   redundant metadata reads and writes before they reach the LLC;
//! * **set-dueling dynamic partitioning** over nine way-allocations
//!   (0–8), scoring data and trigger hits equally — and paying the
//!   paper's headline cost: every resize changes the metadata index
//!   function, so surviving blocks must be **rearranged**, shuffling up
//!   to 1 MB of metadata through the LLC.
//!
//! Metadata entries store full 31-bit targets (12 correlations per
//! block; no LUT compression, hence none of Triage's dangling-pointer
//! mispredictions) and use an SRRIP-like long-re-reference insertion.
//!
//! [`prefetcher::Triangel::ideal`] builds the paper's *Triangel-Ideal*
//! variant: the same algorithm with a dedicated metadata store outside
//! the LLC (no data displacement, no port contention).

pub mod mrb;
pub mod prefetcher;
pub mod training;

pub use mrb::Mrb;
pub use prefetcher::{Triangel, TriangelConfig};
pub use training::{TrainingUnit, TuDecision};
