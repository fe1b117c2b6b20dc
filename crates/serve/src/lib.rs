#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpserve — a dependency-free simulation service
//!
//! Long experiment campaigns re-run the same simulator configurations
//! over and over (sweeps share baselines, figures share contenders,
//! people share machines). `tpserve` keeps one process — or a fleet of
//! them — warm and turns experiment execution into a service.
//!
//! There is **one service core** (private modules; DESIGN.md §9
//! describes it): one job table, one two-level
//! result cache, one local worker pool. A [`Server`]
//! is that core with an empty hash ring; a [`Coordinator`] is the same
//! core with a ring of backend servers it tries first.
//!
//! * **Protocol**: newline-delimited, length-checked JSON-ish lines
//!   over a Unix-domain or TCP socket ([`protocol`]); verbs are
//!   `SUBMIT`, `WAIT`, `POLL`, `STATS`, `PING`, `SHUTDOWN`. A
//!   coordinator speaks it unchanged, and `STATS` has one shape for
//!   both roles.
//! * **Completion-driven waiting**: `WAIT <ticket>` is answered when
//!   the job is over — the connection's thread blocks until a finishing
//!   worker, or a backend answering the coordinator's own `WAIT`,
//!   settles the job — so nothing polls; `POLL` is the non-blocking
//!   probe.
//! * **Blocking I/O, one thread per connection**: each accepted
//!   connection is served on its own thread, and a coordinator forwards
//!   each remote job from a thread of its own, over a [`Client`]
//!   connection of its own. Clients may **pipeline** requests (write many
//!   before reading any response); responses come back in request
//!   order, written in batches. A slow reader blocks only its own
//!   thread's `write`, which stops that thread reading too: per-
//!   connection backpressure, not unbounded buffering.
//! * **Routing**: each job goes to the first untried reachable
//!   candidate of a consistent-hash ring ([`ring`]) keyed by the
//!   canonical request, else to the local pool. Placement failures
//!   reroute; execution verdicts relay.
//! * **Execution**: every worker runs [`Request::run`] — the request's
//!   `SweepJob`, executed as the sweep runner executes it — so a served
//!   report is **byte-identical** to the same experiment run through
//!   the CLI, whichever node ran it (the integration and
//!   fleet-equivalence suites compare canonical encodings).
//! * **Caching**: responses are content-addressed by the canonical
//!   request string; a repeat request returns synchronously without
//!   touching the queue or the simulator. With a store directory
//!   configured ([`store`]), results also persist on disk — a
//!   **restarted** server answers previously served requests without
//!   simulating, and a cold miss costs one in-memory admission-index
//!   probe, not a disk I/O.
//! * **Backpressure**: a bounded job table with explicit load
//!   shedding — a full queue rejects with a structured `queue-full`
//!   reason instead of buffering unboundedly or blocking the socket.
//! * **Deadlines**: per-request `deadline_ms` with cooperative
//!   cancellation at engine epoch boundaries (see
//!   [`tpsim::CancelToken`]), wherever the job ends up running.
//! * **Drain**: `SHUTDOWN` (or SIGTERM in the binary) stops accepting,
//!   sheds new submissions, finishes every accepted request, and only
//!   then replies — no response is ever lost to a shutdown.
//!
//! The `tpserve` binary runs either role; the `tpclient` binary (and
//! the [`client::Client`] library type it wraps) submits work, waits
//! for or polls tickets, runs sweeps and fetches stats.
//!
//! ## In-process example
//!
//! ```
//! use tpserve::{Client, Server, ServerConfig};
//! use tpharness::wire::{decode_sim_report, parse, Value};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.addr().to_string();
//! let handle = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut c = Client::connect(&addr).unwrap();
//! let req = parse(r#"{"workload":"gap.bfs","scale":"test","temporal":"streamline"}"#).unwrap();
//! let resp = c.submit_and_wait(&req).unwrap();
//! assert_eq!(resp.get("status").unwrap().as_str(), Some("done"));
//! // The report is kept as the text it arrived in, checked but not
//! // built: `encode` gives the served bytes, and it decodes on demand.
//! let Some(Value::Encoded(report)) = resp.get("report") else { panic!("no report") };
//! assert_eq!(decode_sim_report(report).unwrap().cores.len(), 1);
//!
//! c.shutdown().unwrap();
//! drop(c); // disconnect so the server's handler thread exits promptly
//! handle.join().unwrap();
//! ```

mod conn;
mod links;
mod service;

pub mod client;
pub mod coordinator;
pub mod hist;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod store;

pub use client::Client;
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use hist::LogHistogram;
pub use protocol::{Request, MAX_LINE_BYTES};
pub use ring::HashRing;
pub use server::{Controller, Server, ServerConfig, DEFAULT_QUEUE_CAPACITY};
pub use store::{ResultStore, StoreStats, DEFAULT_STORE_CAP_BYTES};
