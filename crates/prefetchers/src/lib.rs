#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpprefetch — regular (non-temporal) prefetchers
//!
//! The paper's baselines pair the temporal prefetchers with regular
//! prefetchers at two levels:
//!
//! * **L1D**: a PC-localised [`stride::IpStride`] prefetcher (degree 3,
//!   Table II) and [`berti::Berti`], the state-of-the-art local-delta
//!   prefetcher (Figure 11a/b).
//! * **L2**: [`ipcp::Ipcp`], [`bingo::Bingo`], and [`spp::SppPpf`]
//!   (Figure 11c/d).
//!
//! All of them implement [`tpsim::AccessPrefetcher`] and are
//! deliberately compact reimplementations: they capture each design's
//! coverage/accuracy character (stride capture, local-delta timeliness,
//! spatial footprints, signature-path lookahead) rather than every
//! micro-detail of the originals.

pub mod berti;
pub mod bingo;
pub mod ipcp;
pub mod spp;
pub mod stride;

pub use berti::Berti;
pub use bingo::Bingo;
pub use ipcp::Ipcp;
pub use spp::SppPpf;
pub use stride::IpStride;
