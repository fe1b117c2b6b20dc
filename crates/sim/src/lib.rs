#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpsim — cycle-approximate multi-core memory-hierarchy simulator
//!
//! This crate is the simulation substrate for the Streamline
//! temporal-prefetching reproduction. The paper evaluates on ChampSim, a
//! cycle-level trace-driven simulator; `tpsim` replaces it with an
//! **analytic-ROB, timestamp-ordered model** that preserves the
//! first-order effects temporal-prefetching results depend on:
//!
//! * serialised miss chains (pointer chasing) vs. overlapping misses,
//!   bounded by the 352-entry ROB and per-level MSHRs;
//! * three-level cache hierarchy with port contention and LRU data
//!   replacement;
//! * DRAM banks, channels, and open rows (bandwidth saturation);
//! * prefetch timeliness (late prefetches get partial credit);
//! * **LLC metadata partitions**: temporal prefetchers reserve LLC
//!   capacity, are charged port occupancy and traffic for every metadata
//!   block they touch, and pay for repartition shuffles.
//!
//! See `DESIGN.md` §3 for the model equations and fidelity argument.
//!
//! ## Quick example
//!
//! A temporal prefetcher is anything that implements
//! [`TemporalPrefetcher`]; this one prefetches the line after each L2
//! miss and keeps no metadata.
//!
//! ```
//! use tpsim::{CorePlan, Engine, MetaCtx, PartitionSpec, SystemConfig};
//! use tpsim::{TemporalEvent, TemporalPrefetcher, TemporalStats};
//! use tptrace::record::Line;
//! use tptrace::{workloads, Scale};
//!
//! struct NextLine;
//!
//! impl TemporalPrefetcher for NextLine {
//!     fn name(&self) -> &'static str {
//!         "next-line"
//!     }
//!     fn on_event(&mut self, _: &mut MetaCtx, ev: TemporalEvent, out: &mut Vec<Line>) {
//!         out.push(Line(ev.line.0 + 1));
//!     }
//!     fn partition(&self) -> PartitionSpec {
//!         PartitionSpec::None
//!     }
//!     fn stats(&self) -> TemporalStats {
//!         TemporalStats::default()
//!     }
//! }
//!
//! let trace = workloads::by_name("gap.bfs").unwrap().generate(Scale::Test);
//! let plan = CorePlan::bare(trace).with_temporal(Box::new(NextLine));
//! let report = Engine::new(SystemConfig::single_core(), vec![plan]).run();
//! println!("IPC = {:.3}", report.cores[0].ipc());
//! ```

pub mod audit;
pub mod cache;
pub mod cancel;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod engine;
pub mod hierarchy;
pub mod prefetch;
pub mod shadow;
pub mod stats;
pub mod table;
pub mod tagrow;

pub use audit::{AuditReport, Violation};
pub use cancel::{CancelToken, CANCEL_EPOCH};
pub use config::{
    validate_warmup_fraction, CacheParams, ConfigError, CoreParams, DramParams, SystemConfig,
    LLC_SLICE_SETS, LLC_WAYS,
};
pub use engine::{CorePlan, Engine, DEFAULT_BATCH};
pub use hierarchy::{Hierarchy, PrefetchOrigin};
pub use prefetch::{
    AccessPrefetcher, L2EventKind, MetaCtx, PartitionSpec, TemporalEvent, TemporalPrefetcher,
};
pub use shadow::{ShadowSets, LLC_SAMPLE_SHIFT};
pub use stats::{CacheStats, CoreReport, DramStats, SimReport, TemporalStats};
pub use table::LineMap;

/// Cache line size in bytes (re-exported from `tptrace`).
pub const LINE_SIZE: u64 = tptrace::LINE_SIZE;
