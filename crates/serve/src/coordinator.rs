//! [`Coordinator`]: the same service core as [`Server`], over a
//! non-empty ring. `tpserve --coordinator --backend=ADDR...` speaks the
//! *same* client-facing protocol, so every existing client — `tpclient`,
//! `Client` — works against a coordinator unchanged. Behind the
//! listener each accepted job is **consistent-hashed by its canonical
//! request encoding** onto one of N backends
//! ([`crate::ring::HashRing`]) and forwarded the way a client submits
//! it: one thread and one connection of its own, one `SUBMIT`, one
//! `WAIT` (`links.rs`); the local worker pool is the fallback of last
//! resort.

use crate::ring::HashRing;
use crate::server::{Controller, Server, ServerConfig};
use std::io;
use std::sync::atomic::AtomicBool;

/// Local worker threads: used only when no backend can take a job.
const LOCAL_WORKERS: usize = 2;

/// Coordinator construction knobs.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Cap on accepted jobs not yet running locally; submissions beyond
    /// it are shed with a structured `queue-full` rejection.
    pub max_jobs: usize,
    /// Reject locally-run results whose conservation-law audit fails,
    /// even when the request didn't ask for auditing (parity with the
    /// server's `--audit`; forwarded jobs inherit each backend's own
    /// setting).
    pub audit: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            max_jobs: 256,
            audit: false,
        }
    }
}

/// A bound, not-yet-running coordinator.
pub struct Coordinator(Server);

impl Coordinator {
    /// Binds the client-facing listener (`unix:PATH` or TCP
    /// `host:port`) and builds the hash ring over `backends`. No
    /// backend connection is attempted until the first job routes.
    ///
    /// # Errors
    /// Socket binding errors (address in use, bad path, ...).
    pub fn bind<S: AsRef<str>>(
        spec: &str,
        backends: &[S],
        cfg: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        let cfg = ServerConfig {
            workers: LOCAL_WORKERS,
            queue_capacity: cfg.max_jobs,
            audit: cfg.audit,
            ..ServerConfig::default()
        };
        Server::bind_ring(spec, cfg, HashRing::new(backends)).map(Coordinator)
    }

    /// See [`Server::addr`].
    pub fn addr(&self) -> &str {
        self.0.addr()
    }

    /// See [`Server::controller`].
    pub fn controller(&self) -> Controller {
        self.0.controller()
    }

    /// See [`Server::run`].
    ///
    /// # Errors
    /// Fatal accept-loop I/O errors.
    pub fn run(self) -> io::Result<()> {
        self.0.run()
    }

    /// See [`Server::run_until`]: the drain covers remote and local
    /// jobs alike.
    ///
    /// # Errors
    /// Fatal accept-loop I/O errors.
    pub fn run_until(self, term: &AtomicBool) -> io::Result<()> {
        self.0.run_until(term)
    }
}
