#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # streamline-repro — umbrella crate
//!
//! This crate ties the workspace together for the examples and the
//! cross-crate integration tests. The real functionality lives in the
//! member crates, re-exported here for convenience:
//!
//! * [`tptrace`] — trace format and synthetic workload generators;
//! * [`tpsim`] — the cycle-approximate multi-core simulator;
//! * [`tpreplace`] — replacement policies (LRU, SRRIP, Mockingjay
//!   machinery, offline MIN / TP-MIN);
//! * [`tpprefetch`] — regular prefetchers (stride, Berti, IPCP, Bingo,
//!   SPP-PPF);
//! * [`triage`] / [`triangel`] — the prior on-chip temporal prefetchers;
//! * [`streamline_core`] — **the paper's contribution**: the Streamline
//!   stream-based temporal prefetcher;
//! * [`tpharness`] — experiment runner, metrics, and report tables.
//!
//! ## Quickstart
//!
//! ```
//! use streamline_repro::prelude::*;
//!
//! let workload = workloads::by_name("spec06.mcf").unwrap();
//! let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
//! let with = base.clone().temporal(TemporalKind::Streamline);
//! let speedup = run_single(&workload, &with).cores[0].ipc()
//!     / run_single(&workload, &base).cores[0].ipc();
//! assert!(speedup > 0.5);
//! ```

pub use streamline_core;
pub use tpharness;
pub use tpprefetch;
pub use tpreplace;
pub use tpsim;
pub use tptrace;
pub use triage;
pub use triangel;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use streamline_core::{PartitionSize, Streamline, StreamlineConfig};
    pub use tpharness::baselines::{L1Kind, L2Kind, TemporalKind};
    pub use tpharness::experiment::{run_mix, run_single, Experiment};
    pub use tpharness::metrics::{gmean, mix_speedup, summarize, PairedRun};
    pub use tpharness::report::Table;
    pub use tpsim::{CorePlan, Engine, SimReport, SystemConfig, TemporalPrefetcher};
    pub use tptrace::{workloads, MixGenerator, Scale, Suite, Trace, Workload};
    pub use triage::Triage;
    pub use triangel::Triangel;
}
