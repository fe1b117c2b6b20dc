#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # triage — the Triage on-chip temporal prefetcher (Wu et al., MICRO
//! 2019), reproduced as the paper's historical baseline.
//!
//! Triage was the first temporal prefetcher to keep all of its metadata
//! in a partition of the LLC, discarding whatever does not fit. This
//! implementation models its three signature mechanisms:
//!
//! * a **pairwise metadata store** ([`pairwise::PairwiseStore`]) holding
//!   16 compressed correlations per 64-byte block;
//! * **LUT target compression** ([`lut::TargetLut`]): prefetch targets
//!   are stored as a pointer into a 1024-entry region lookup table plus
//!   an 11-bit offset, which enlarges capacity but *loses accuracy* when
//!   LUT entries are replaced under pressure (the dangling-pointer
//!   mispredictions the Triangel paper highlights);
//! * **hit-rate partition sizing**: every 50K training events the
//!   metadata partition (0–8 LLC ways) is resized to maximise trigger
//!   hit rate, estimated from the store's way-depth histogram.
//!
//! The original uses Hawkeye for metadata replacement; this reproduction
//! uses LRU within each metadata set, which the Triangel authors report
//! performs equivalently in this role.

pub mod lut;
pub mod pairwise;
pub mod prefetcher;

pub use lut::TargetLut;
pub use pairwise::{InsertOutcome, PairwiseStore};
pub use prefetcher::{Triage, TriageConfig};
