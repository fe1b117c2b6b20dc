#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tptrace — trace format and synthetic workload generators
//!
//! This crate provides the workload substrate for the Streamline
//! temporal-prefetching reproduction. The paper evaluates on SPEC 2006,
//! SPEC 2017, and GAP SimPoint traces; those traces are proprietary (SPEC)
//! or impractically large for a laptop-scale reproduction, so this crate
//! generates **seeded synthetic traces from the same access-pattern
//! classes**: pointer chasing with a stable revisit order, hash-table
//! probing, sparse-matrix kernels, graph analytics over CSR structures,
//! streaming/strided loops, and scan-heavy low-reuse code.
//!
//! Every generator is deterministic given a [`u64`] seed, and every
//! workload is tagged with the [`Suite`] it stands in for, so per-suite
//! result breakdowns (paper Figures 9 and 10d) can be reported.
//!
//! ## Example
//!
//! ```
//! use tptrace::{workloads, Suite, Scale};
//!
//! let pool = workloads::memory_intensive();
//! assert!(pool.iter().any(|w| w.suite == Suite::Gap));
//! let trace = pool[0].generate(Scale::Test);
//! assert!(!trace.is_empty());
//! ```

pub mod gen;
pub mod io;
pub mod mix;
pub mod pool;
pub mod record;
pub mod rng;
pub mod trace;
pub mod workloads;

pub use mix::{Mix, MixGenerator};
pub use pool::{PoolKey, PoolStats, TracePool};
pub use record::{Access, AccessKind, Addr, Dep, Pc, LINE_SIZE};
pub use trace::{BlockView, Trace, TraceBuilder, TraceStats};
pub use workloads::{Scale, Suite, Workload, WorkloadId};
