#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # streamline-core — the Streamline temporal prefetcher
//!
//! This crate implements the primary contribution of *"Streamlined
//! On-Chip Temporal Prefetching"* (Duong & Lin, HPCA 2026): an on-chip
//! temporal prefetcher whose metadata is stored as **streams** rather
//! than pairs, yielding 33% more correlations per LLC block, large
//! metadata-traffic reductions, and a partitioning scheme that never
//! needs Triangel's costly metadata rearrangement.
//!
//! The pieces map onto the paper as follows:
//!
//! | Paper section | Module |
//! |---|---|
//! | IV-A stream-based representation | [`stream`] |
//! | IV-B2 stream alignment | [`stream::align`] |
//! | IV-B3 tagged set-partitioning | [`store`] |
//! | IV-C filtered indexing + realignment | [`store`], [`prefetcher`] |
//! | IV-D TP-MIN / TP-Mockingjay | [`store`] (via `tpreplace`) |
//! | IV-E2 training unit + metadata buffer | [`training`] |
//! | IV-E4 utility-aware dynamic partitioning | [`prefetcher`] |
//! | IV-E6 stability-based degree control | [`training`] |
//!
//! Every ablation of the paper's Figures 12, 14, and 15 is a
//! [`StreamlineConfig`] knob.
//!
//! ## Example
//!
//! ```
//! use streamline_core::{Streamline, StreamlineConfig};
//! use tpsim::{TemporalPrefetcher, MetaCtx, TemporalEvent, L2EventKind};
//! use tptrace::record::{Line, Pc};
//!
//! let mut pf = Streamline::new();
//! let mut prefetched = Vec::new();
//! let mut scratch = Vec::new();
//! for pass in 0..3 {
//!     for i in 0..32u64 {
//!         let mut ctx = MetaCtx::new(0, 0.9);
//!         let ev = TemporalEvent {
//!             pc: Pc(0x400),
//!             line: Line(1000 + i * 3),
//!             kind: L2EventKind::DemandMiss,
//!             now: 0,
//!         };
//!         scratch.clear();
//!         pf.on_event(&mut ctx, ev, &mut scratch);
//!         if pass == 2 {
//!             prefetched.extend(scratch.drain(..));
//!         }
//!     }
//! }
//! assert!(!prefetched.is_empty(), "learned stream should prefetch");
//! ```

pub mod config;
pub mod prefetcher;
pub mod store;
pub mod stream;
pub mod training;

pub use config::{PartitionSize, StreamlineConfig, INSTABILITY_EPOCH, META_WAYS, TU_ENTRIES};
pub use prefetcher::Streamline;
pub use store::{StoreInsert, StreamStore};
pub use stream::{align, Alignment, StreamEntry};
pub use training::StreamTu;
