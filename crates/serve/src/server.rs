//! [`Server`]: the service core with an empty ring — every job runs in
//! the local worker pool. See `service.rs` for the job table and cache,
//! `event_loop.rs` for the loop.

use crate::conn::ListenerKind;
use crate::event_loop;
use crate::ring::HashRing;
use crate::service::Core;
use crate::store::{ResultStore, StoreStats, DEFAULT_STORE_CAP_BYTES};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

/// Default bounded-queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; `0` means the shared policy
    /// ([`tpharness::jobs::worker_count`]).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Reject results whose conservation-law audit fails, even when the
    /// request didn't ask for auditing.
    pub audit: bool,
    /// Start with the queue paused (test hook: lets a test fill the
    /// queue deterministically before any worker pops).
    pub start_paused: bool,
    /// Root directory for the persistent content-addressed result
    /// store; `None` keeps results in memory only (lost on restart).
    pub store_dir: Option<PathBuf>,
    /// Byte cap for the on-disk store; exceeding it reclaims
    /// least-recently-used entries.
    pub store_cap_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            audit: false,
            start_paused: false,
            store_dir: None,
            store_cap_bytes: DEFAULT_STORE_CAP_BYTES,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    core: Arc<Core>,
    listener: ListenerKind,
    addr: String,
}

/// Test/observability handle onto a running (or about-to-run) server or
/// coordinator.
#[derive(Clone)]
pub struct Controller {
    core: Arc<Core>,
}

impl Controller {
    /// Releases a paused queue (see [`ServerConfig::start_paused`]).
    pub fn resume(&self) {
        self.core.latch(|t| t.paused = false);
    }

    /// Pauses the queue: queued work stays queued, running work finishes.
    pub fn pause(&self) {
        self.core.latch(|t| t.paused = true);
    }

    /// Current queue depth (accepted jobs not yet running here).
    pub fn queue_depth(&self) -> usize {
        self.core.lock().waiting
    }

    /// Live job-table size (bounded by reap-on-delivery + TTL).
    pub fn ticket_count(&self) -> usize {
        self.core.lock().jobs.len()
    }

    /// Persistent-store counters, when a store is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.core.store.as_ref().map(ResultStore::stats)
    }

    /// Live (non-terminal) jobs right now, wherever they are.
    pub fn live_jobs(&self) -> u64 {
        let t = self.core.lock();
        (t.waiting + t.in_flight) as u64
    }

    /// SUBMITs forwarded to backends (re-forwards included).
    pub fn forwarded(&self) -> u64 {
        self.core.counters.forwarded.load(Relaxed)
    }

    /// Jobs that landed anywhere other than their primary ring node.
    pub fn rerouted(&self) -> u64 {
        self.core.counters.rerouted.load(Relaxed)
    }

    /// Jobs handed to the local pool: a coordinator's fallbacks of last
    /// resort, or every accepted job of a plain server.
    pub fn local_jobs(&self) -> u64 {
        self.core.counters.local_jobs.load(Relaxed)
    }
}

impl Server {
    /// Binds to `spec`: `unix:PATH` for a Unix-domain socket, otherwise
    /// a TCP `host:port` (port `0` picks a free port; see
    /// [`Server::addr`] for the resolved address).
    ///
    /// # Errors
    /// Socket binding errors (address in use, bad path, ...) and
    /// result-store directory errors.
    pub fn bind(spec: &str, cfg: ServerConfig) -> io::Result<Server> {
        Server::bind_ring(spec, cfg, HashRing::new::<&str>(&[]))
    }

    /// [`Server::bind`] over a ring of backends: the routing rule tries
    /// them before the local pool.
    pub(crate) fn bind_ring(spec: &str, cfg: ServerConfig, ring: HashRing) -> io::Result<Server> {
        let core = Core::new(cfg, ring)?;
        let (listener, addr) = ListenerKind::bind(spec)?;
        Ok(Server {
            core,
            listener,
            addr,
        })
    }

    /// The resolved listen address, connectable by
    /// [`Client::connect`](crate::client::Client::connect).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A control handle (pause/resume, gauges) usable from other threads.
    pub fn controller(&self) -> Controller {
        Controller {
            core: Arc::clone(&self.core),
        }
    }

    /// Runs until a `SHUTDOWN` request completes. Equivalent to
    /// [`Server::run_until`] with a flag that never fires.
    ///
    /// # Errors
    /// Fatal accept-loop I/O errors.
    pub fn run(self) -> io::Result<()> {
        self.run_until(&AtomicBool::new(false))
    }

    /// Runs the event loop until either a `SHUTDOWN` request completes
    /// or `term` becomes true (e.g. from a SIGTERM handler). Both paths
    /// drain first: stop accepting, shed new submissions, finish every
    /// accepted job.
    ///
    /// # Errors
    /// Fatal accept-loop I/O errors.
    pub fn run_until(self, term: &AtomicBool) -> io::Result<()> {
        event_loop::run(&self.core, &self.listener, term)
    }
}
