//! [`Server`]: the service core with an empty ring — every job runs in
//! the local worker pool — and the threads that run a core. See
//! `service.rs` for the job table and cache, `conn.rs` for a client
//! connection's loop.
//!
//! A running core is a fixed set of threads plus one per connection and
//! one per remote job: the accept loop (the caller's thread), one
//! thread per accepted connection, the workers, a coordinator's
//! forwarders (`links.rs`), and a housekeeper that ticks the job table
//! and ends the run.

use crate::conn::{self, Conn, ListenerKind};
use crate::ring::HashRing;
use crate::service::{Core, JobState, JOB_TTL};
use crate::store::DEFAULT_STORE_CAP_BYTES;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

/// Default bounded-queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// How often the housekeeper reaps, cancels past-deadline jobs and
/// looks at the termination flag.
const TICK: Duration = Duration::from_millis(10);

/// How long connections may stay open after the drain completes, so
/// clients can still collect responses for drained work.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(2);

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

    /// Live job-table size (bounded by reap-on-delivery + TTL).
    pub fn ticket_count(&self) -> usize {
        self.core.lock().jobs.len()
    }

    /// Jobs that landed anywhere other than their primary ring node.
    pub fn rerouted(&self) -> u64 {
        self.core.counters.rerouted.load(Ordering::Relaxed)
    }

    /// Jobs handed to the local pool: a coordinator's fallbacks of last
    /// resort, or every accepted job of a plain server.
    pub fn local_jobs(&self) -> u64 {
        self.core.counters.local_jobs.load(Ordering::Relaxed)
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

    /// Serves until either a `SHUTDOWN` request completes or `term`
    /// becomes true (e.g. from a SIGTERM handler). Both paths drain
    /// first: shed new submissions, finish every accepted job, then
    /// stop accepting and give open connections up to 2 s to collect
    /// their replies before closing them.
    ///
    /// # Errors
    /// Fatal accept-loop I/O errors.
    pub fn run_until(self, term: &AtomicBool) -> io::Result<()> {
        let core = &self.core;
        let open = Mutex::new(Open {
            conns: HashMap::new(),
            accepting: true,
        });
        let result = thread::scope(|s| {
            for i in 0..core.cfg.workers {
                let worker = thread::Builder::new().name(format!("tpserve-worker-{i}"));
                worker
                    .spawn_scoped(s, || core.worker_loop())
                    .expect("spawn worker");
            }
            s.spawn(|| housekeep(core, term, &open, &self.addr));
            let result = accept_loop(s, core, &self.listener, &open);
            // A fatal accept error ends the run without a drain.
            lock(&open).accepting = false;
            result
        });
        self.listener.cleanup();
        result
    }
}

/// The client connections a run has open, so the housekeeper can close
/// what the linger leaves. Behind one lock with `accepting`, so no
/// connection is registered after the housekeeper's last look.
struct Open {
    conns: HashMap<u64, Conn>,
    /// Cleared once the drain completes, or the accept loop fails.
    accepting: bool,
}

fn lock(open: &Mutex<Open>) -> MutexGuard<'_, Open> {
    open.lock().expect("open connections lock")
}

/// Accepts connections and serves each on its own thread until the
/// housekeeper stops accepting.
fn accept_loop<'scope, 'env>(
    s: &'scope Scope<'scope, 'env>,
    core: &'env Arc<Core>,
    listener: &ListenerKind,
    open: &'env Mutex<Open>,
) -> io::Result<()> {
    for id in 0u64.. {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        };
        let Ok(handle) = conn.try_clone() else {
            continue;
        };
        {
            let mut open = lock(open);
            if !open.accepting {
                // The housekeeper's wake-up, or a client too late to
                // serve.
                break;
            }
            open.conns.insert(id, handle);
        }
        let served = thread::Builder::new().spawn_scoped(s, move || {
            conn::serve(core, conn);
            lock(open).conns.remove(&id);
        });
        if served.is_err() {
            // No thread to serve it: the connection closes unserved.
            lock(open).conns.remove(&id);
        }
    }
    Ok(())
}

/// The housekeeper: ticks the job table every [`TICK`], turns `term`
/// into a drain, stops accepting once the drain completes, and ends the
/// run once every connection has closed or [`SHUTDOWN_LINGER`] passed:
/// it shuts the connections still open, stops the workers and shuts
/// every forward connection, so every thread of the run returns.
fn housekeep(core: &Core, term: &AtomicBool, open: &Mutex<Open>, addr: &str) {
    let mut drained: Option<Instant> = None;
    loop {
        thread::sleep(TICK);
        core.tick(Instant::now(), JOB_TTL);
        if drained.is_none() && term.load(Ordering::SeqCst) {
            core.latch(|t| t.draining = true);
        }
        if drained.is_none() && core.lock().drained() {
            drained = Some(Instant::now());
            lock(open).accepting = false;
            // Ends the accept loop's blocking `accept`.
            let _ = Conn::connect(addr);
        }
        let open = lock(open);
        let over = match drained {
            Some(at) => open.conns.is_empty() || at.elapsed() > SHUTDOWN_LINGER,
            None => !open.accepting,
        };
        if over {
            open.conns.values().for_each(Conn::shutdown);
            break;
        }
    }
    core.latch(|t| {
        t.stop = true;
        for job in t.jobs.values() {
            if let JobState::Remote(conn) = &job.state {
                conn.shutdown();
            }
        }
    });
}
