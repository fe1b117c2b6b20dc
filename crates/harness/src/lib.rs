#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpharness — experiment harness for the Streamline reproduction
//!
//! This crate turns the simulator + prefetcher crates into the paper's
//! experiments: it names prefetcher configurations ([`baselines`]),
//! runs single-core workloads and multi-core mixes ([`experiment`]),
//! fans independent jobs out over a deterministic parallel sweep runner
//! with result caching ([`sweep`]), aggregates speedup/coverage/
//! accuracy/traffic metrics per suite ([`metrics`]), and prints
//! paper-style tables ([`report`]). Two infrastructure modules round it
//! out: [`jobs`] is the single worker-count policy (`--jobs` /
//! `TPSIM_JOBS` / available parallelism) shared by the sweep runner,
//! `tpbench`, and the `tpserve` service, and [`wire`] is the
//! dependency-free JSON-ish codec with a canonical byte-comparable
//! [`SimReport`](tpsim::SimReport) encoding used by the service
//! protocol.
//!
//! Every `tpbench` table and figure is a thin composition of these pieces.
//!
//! ## Example: one speedup cell of Figure 9
//!
//! ```
//! use tpharness::{baselines::{L1Kind, TemporalKind}, experiment::{Experiment, self}};
//! use tptrace::{workloads, Scale};
//!
//! let w = workloads::by_name("spec06.mcf").unwrap();
//! let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
//! let with = base.clone().temporal(TemporalKind::Streamline);
//! let speedup = experiment::run_single(&w, &with).cores[0].ipc()
//!     / experiment::run_single(&w, &base).cores[0].ipc();
//! assert!(speedup > 0.2, "sane speedup: {speedup}");
//! ```

pub mod baselines;
pub mod experiment;
pub mod jobs;
pub mod metrics;
pub mod report;
pub mod sweep;
pub mod wire;

pub use baselines::{L1Kind, L2Kind, TemporalKind};
pub use experiment::{run_mix, run_single, Experiment};
pub use metrics::{gmean, SuiteSummary};
pub use report::Table;
pub use sweep::{derive_seed, SweepJob, SweepRunner};
