//! The one service core behind both [`Server`](crate::Server) and
//! [`Coordinator`](crate::Coordinator): job table, two-level result
//! cache, protocol verbs, STATS, and the local worker pool. Threads
//! drive it — one per client connection ([`crate::conn::serve`]), the
//! workers, a housekeeper ([`crate::server`]) — and the backend side of
//! a fleet lives in [`crate::links`]. DESIGN.md §9 has the full story.
//!
//! ## One job table
//!
//! Every accepted `SUBMIT` becomes a [`Job`] whose state runs
//!
//! ```text
//! routing ⇄ remote ───────────┐
//!    └──→ local-queued → running ─┴→ done | deadline-exceeded | failed
//! ```
//!
//! The routing rule is *first untried reachable ring candidate, else
//! the local pool*. A backend is a coordinator with an empty ring: with
//! no candidates every job goes straight to the local pool at submit
//! time and nothing routes. For a coordinator the submitting thread
//! starts the job's forwarder ([`links::forward`]) and replies `queued`
//! at once; the same pool is the last resort once every ring node has
//! been tried.
//!
//! The table, its local queue and the pause/drain/stop latches sit
//! behind **one** mutex, so shedding, worker wakeup and drain tracking
//! cannot miss each other; workers wait on one of its condvars for
//! work, `WAIT` and `SHUTDOWN` on the other for jobs to settle.
//! [`Table::set_state`] is
//! the only transition, which keeps the `waiting`/`in_flight` gauges
//! exact. The table is bounded: the `WAIT` or `POLL` that delivers a
//! terminal job reaps it, and [`Core::tick`] reaps terminal jobs nobody
//! collects.
//!
//! ## Completion-driven waiting
//!
//! `WAIT <ticket>` is answered when the job turns terminal, not
//! before: the connection's thread blocks on the table's condvar until
//! a worker (or a forwarder given a backend's verdict) [settles](Core::settle)
//! the job, then delivers it. Nothing polls. `POLL` remains as the
//! non-blocking probe. `SHUTDOWN` blocks the same way until the drain
//! is over, which counts blocked `WAIT`s: its reply in hand means every
//! accepted job ran and every `WAIT` on one was answered.
//!
//! ## One cache
//!
//! Results are content-addressed by the full canonical request string
//! (the FNV `key` clients see is display-only, so hash collisions
//! cannot alias results): memory first, then the optional persistent
//! [`ResultStore`]. A finished job holds the `Arc<str>` it published,
//! so delivering it looks nothing up. A hit is answered synchronously:
//! no queue slot, no ticket, served even while draining.
//!
//! One invariant makes a hit a copy of bytes: *what the memory cache
//! holds is exactly what [`wire`]'s encoder emits, checked once where
//! it enters and never where it leaves.* Local simulations and relayed
//! backend results are encoded here, so canonical by construction; a
//! body read from the store is promoted only if it parses and encodes
//! back to itself — otherwise the entry is dropped as a load error and
//! the request is a miss. Entries are `Arc<str>` (a hit clones a
//! pointer under the lock) and replies are encoded lines: a `done` is
//! an envelope written around the cached report, which is not re-read.
//!
//! The memory cache has no bound: it holds one entry per distinct
//! canonical request for the life of the process, while the disk
//! store has a byte cap. At figure scale that is a few hundred entries
//! of about a kilobyte; a long-lived server fed ever-new requests
//! grows without limit.
//!
//! ## Deadlines
//!
//! Cancellation is cooperative: [`Core::tick`] flips the
//! [`CancelToken`] of a running job whose `deadline_ms` has passed and
//! the engine notices at its next epoch boundary
//! ([`tpsim::CANCEL_EPOCH`] accesses); a cancelled run caches nothing.

use crate::conn::Conn;
use crate::hist::LogHistogram;
use crate::links::{self, Backend};
use crate::protocol::Request;
use crate::ring::HashRing;
use crate::server::ServerConfig;
use crate::store::ResultStore;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tpharness::wire::{self, encode_sim_report, Value};
use tpsim::CancelToken;

/// Terminal jobs nobody collects are reaped after this long, bounding the
/// table even for clients that submit and vanish.
pub(crate) const JOB_TTL: Duration = Duration::from_secs(60);

/// Lifecycle of one job (see the module docs for the diagram).
pub(crate) enum JobState {
    /// Its forwarder is looking for a backend: freshly submitted or
    /// bounced off one.
    Routing,
    /// Placed on a backend; its forwarder waits on this connection for
    /// the answer, and a stopping run shuts it.
    Remote(Conn),
    /// Queued for the local worker pool.
    LocalQueued,
    /// Running in a local worker.
    Running,
    /// Over, with the report that was published.
    Done {
        cached: bool,
        report: Arc<str>,
    },
    DeadlineExceeded,
    Failed(String),
}

impl JobState {
    fn terminal(&self) -> bool {
        use JobState::{DeadlineExceeded, Done, Failed};
        matches!(self, Done { .. } | DeadlineExceeded | Failed(_))
    }
}

/// What was submitted: fixed at acceptance and shared, not copied, with
/// the worker that runs it.
pub(crate) struct Spec {
    request: Request,
    /// Cache key of the result (and the ring-hash input).
    pub(crate) canonical: String,
    /// The raw submitted payload, forwarded verbatim so execution-policy
    /// fields (`deadline_ms`, `audit`) — which the canonical string
    /// deliberately excludes — survive the hop to a backend.
    pub(crate) payload: String,
    cancel: CancelToken,
    deadline: Option<Instant>,
    accepted: Instant,
}

pub(crate) struct Job {
    pub(crate) spec: Arc<Spec>,
    pub(crate) state: JobState,
    /// When the job reached a terminal state (drives the TTL reap).
    completed: Option<Instant>,
}

/// Everything the one mutex guards.
#[derive(Default)]
pub(crate) struct Table {
    pub(crate) jobs: HashMap<u64, Job>,
    /// Ids of `LocalQueued` jobs, in arrival order.
    queue: VecDeque<u64>,
    /// Accepted jobs not yet executing here — routing, on a backend, or
    /// queued locally. STATS `queue_depth`; what the shedding rule bounds.
    pub(crate) waiting: usize,
    /// Jobs running in a local worker.
    pub(crate) in_flight: usize,
    /// Threads blocked in `WAIT`; a drain is not over until they are
    /// answered.
    waiters: usize,
    last_ticket: u64,
    /// Workers leave the queue alone while set.
    pub(crate) paused: bool,
    /// New uncached submissions are shed; accepted work still runs to
    /// completion. Never cleared once set.
    pub(crate) draining: bool,
    /// Workers exit.
    pub(crate) stop: bool,
}

impl Table {
    /// The only state transition: keeps the gauges in step, queues
    /// `LocalQueued` jobs for the pool and stamps the TTL clock on
    /// terminal states. Terminal jobs never change state again.
    pub(crate) fn set_state(&mut self, id: u64, next: JobState) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let prev = std::mem::replace(&mut job.state, next);
        debug_assert!(!prev.terminal());
        match prev {
            JobState::Running => self.in_flight -= 1,
            _ => self.waiting -= 1,
        }
        match &job.state {
            JobState::Running => self.in_flight += 1,
            JobState::LocalQueued => {
                self.waiting += 1;
                self.queue.push_back(id);
            }
            s if s.terminal() => job.completed = Some(Instant::now()),
            _ => self.waiting += 1,
        }
    }

    /// A drain was requested, no job is live anywhere and every `WAIT`
    /// has been answered.
    pub(crate) fn drained(&self) -> bool {
        self.draining && self.waiting + self.in_flight + self.waiters == 0
    }

    /// Takes job `id` out of the table if it is over — delivery reaps,
    /// which keeps the table bounded — and returns it (`None`: unknown
    /// ticket). `Err` carries the status of a live job.
    fn take(&mut self, id: u64) -> Result<Option<Job>, &'static str> {
        match self.jobs.get(&id).map(|j| &j.state) {
            None => Ok(None),
            Some(JobState::Running) => Err("running"),
            Some(s) if !s.terminal() => Err("queued"),
            Some(_) => Ok(self.jobs.remove(&id)),
        }
    }

    /// Pops the next locally queued job and marks it running.
    fn claim(&mut self) -> Option<(u64, Arc<Spec>)> {
        let id = self.queue.pop_front()?;
        self.set_state(id, JobState::Running);
        Some((id, Arc::clone(&self.jobs.get(&id)?.spec)))
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) served: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    store_hits: AtomicU64,
    simulations: AtomicU64,
    /// SUBMITs forwarded to backends (counts re-forwards too).
    pub(crate) forwarded: AtomicU64,
    /// Jobs that landed anywhere other than their primary ring node.
    pub(crate) rerouted: AtomicU64,
    /// Jobs handed to the local pool (every job, on an empty ring).
    pub(crate) local_jobs: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) failed: AtomicU64,
}

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

/// State shared by the connection threads, the workers, the
/// forwarders, the housekeeper and [`Controller`] handles.
///
/// [`Controller`]: crate::Controller
pub(crate) struct Core {
    /// As given, except that `workers` is resolved (never `0`).
    pub(crate) cfg: ServerConfig,
    pub(crate) ring: HashRing,
    table: Mutex<Table>,
    /// Work was queued or a latch flipped: wakes workers.
    cv: Condvar,
    /// A job turned terminal, a `WAIT` was answered or a latch flipped:
    /// wakes blocked `WAIT`s and `SHUTDOWN`s.
    settled: Condvar,
    cache: Mutex<HashMap<String, Arc<str>>>,
    pub(crate) store: Option<ResultStore>,
    pub(crate) counters: Counters,
    /// One per ring node, in ring order.
    pub(crate) backends: Vec<Backend>,
    /// Service times, from the line reaching [`Core::dispatch`] to the
    /// reply line in hand, split by outcome: a ~3 µs cache hit and a
    /// ~0.5 s simulation in one histogram would make the p50 track the
    /// hit ratio, not load, so STATS reports them separately.
    hit_hist: Mutex<LogHistogram>,
    sim_hist: Mutex<LogHistogram>,
    started: Instant,
}

type Fields = Vec<(&'static str, Value)>;

fn obj(fields: Fields) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A response line: `status` first, then `fields`.
pub(crate) fn response(status: &str, mut fields: Fields) -> String {
    fields.insert(0, ("status", text(status)));
    obj(fields).encode()
}

/// An `error` response carrying `reason`.
pub(crate) fn error_response(reason: impl Into<String>) -> String {
    response("error", vec![("reason", text(reason))])
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn num(n: usize) -> Value {
    Value::u64(n as u64)
}

/// The short display key clients see: FNV-1a of the canonical string.
fn key_hex(canonical: &str) -> String {
    format!("{:016x}", wire::fnv1a(canonical.as_bytes()))
}

/// A `done` response line: the envelope, then the cached report's
/// bytes as they are — canonical since they entered the cache, so the
/// line is what encoding the parsed tree would give. `ticket` is `None`
/// for synchronous cache-hit replies: they are complete in hand, so
/// there is nothing to poll and no job is retained for them.
fn done_response(ticket: Option<u64>, canonical: &str, cached: bool, report: &str) -> String {
    let mut line = String::with_capacity(report.len() + 96);
    line.push_str(r#"{"status":"done""#);
    if let Some(id) = ticket {
        let _ = write!(line, r#","ticket":{id}"#);
    }
    let key = key_hex(canonical);
    let _ = write!(
        line,
        r#","key":"{key}","cached":{cached},"report":{report}}}"#
    );
    line
}

/// The check on the bytes this process did not encode, a store body
/// or a backend's report: they are a report only if their parse
/// decodes as one and is exactly what the encoder gives that parse.
pub(crate) fn is_canonical_report(body: &str) -> bool {
    wire::parse(body).is_ok_and(|v| wire::sim_report_from_value(&v).is_ok() && v.encode() == body)
}

/// What a panic said, when it said it with a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

fn record_time(hist: &Mutex<LogHistogram>, accepted: Instant) {
    let us = accepted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    hist.lock().expect("hist lock").record(us);
}

impl Core {
    /// `cfg.queue_capacity` bounds `waiting`; `ring` is empty for a
    /// plain server.
    pub(crate) fn new(mut cfg: ServerConfig, ring: HashRing) -> io::Result<Arc<Core>> {
        // Honour TPSIM_TRACE_CACHE_MB before any job generates a trace.
        tpharness::jobs::configure_trace_pool();
        if cfg.workers == 0 {
            cfg.workers = tpharness::jobs::worker_count(None);
        }
        let store = match &cfg.store_dir {
            Some(dir) => Some(ResultStore::open(dir, cfg.store_cap_bytes)?),
            None => None,
        };
        let table = Table {
            paused: cfg.start_paused,
            ..Table::default()
        };
        Ok(Arc::new(Core {
            backends: Backend::for_ring(&ring),
            ring,
            table: Mutex::new(table),
            cv: Condvar::new(),
            settled: Condvar::new(),
            cache: Mutex::new(HashMap::new()),
            store,
            counters: Counters::default(),
            hit_hist: Mutex::new(LogHistogram::new()),
            sim_hist: Mutex::new(LogHistogram::new()),
            started: Instant::now(),
            cfg,
        }))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("job table lock")
    }

    fn cache(&self) -> MutexGuard<'_, HashMap<String, Arc<str>>> {
        self.cache.lock().expect("cache lock")
    }

    /// Memory first, then one probe of the store's admission index;
    /// disk hits are checked, then promoted into memory. A hit shares
    /// the cached allocation.
    fn lookup_cached(&self, canonical: &str) -> Option<Arc<str>> {
        let mem = self.cache().get(canonical).cloned();
        if mem.is_some() {
            return mem;
        }
        let store = self.store.as_ref()?;
        let report: Arc<str> = store.get_checked(canonical, is_canonical_report)?.into();
        bump(&self.counters.store_hits);
        self.cache()
            .insert(canonical.to_string(), Arc::clone(&report));
        Some(report)
    }

    /// Publishes a finished report — `encoded` by [`wire`], which is
    /// what lets a reply splice it unread — under its canonical key:
    /// memory plus (when configured) the persistent store. Returns the
    /// entry, for the job to deliver.
    pub(crate) fn publish(&self, canonical: &str, encoded: &str) -> Arc<str> {
        let report: Arc<str> = encoded.into();
        self.cache()
            .insert(canonical.to_string(), Arc::clone(&report));
        if let Some(store) = &self.store {
            // A store write failure degrades persistence, not
            // correctness: the report is already served from memory.
            let _ = store.put(canonical, encoded);
        }
        report
    }

    /// `SUBMIT`: cache-hit fast path, load shedding, or accept. An
    /// accepted job goes to the local pool at once when the ring is
    /// empty; otherwise this thread starts its forwarder. Either way
    /// the reply is `queued`. `accepted` is when the line reached
    /// [`Core::dispatch`].
    fn submit(self: &Arc<Self>, request: Request, payload: &str, accepted: Instant) -> String {
        let canonical = request.canonical();
        if let Some(hit) = self.lookup_cached(&canonical) {
            bump(&self.counters.cache_hits);
            bump(&self.counters.served);
            let reply = done_response(None, &canonical, true, &hit);
            record_time(&self.hit_hist, accepted);
            return reply;
        }

        let mut t = self.lock();
        let capacity = self.cfg.queue_capacity;
        if t.draining {
            bump(&self.counters.rejected);
            return response("rejected", vec![("reason", text("shutting-down"))]);
        }
        if t.waiting >= capacity {
            bump(&self.counters.rejected);
            let depth = ("queue_depth", num(t.waiting));
            let cap = ("queue_capacity", num(capacity));
            return response("rejected", vec![("reason", text("queue-full")), depth, cap]);
        }

        t.last_ticket += 1;
        let id = t.last_ticket;
        let key = text(key_hex(&canonical));
        let spec = Spec {
            deadline: request
                .deadline_ms
                .map(|ms| accepted + Duration::from_millis(ms)),
            request,
            canonical,
            payload: payload.to_string(),
            cancel: CancelToken::new(),
            accepted,
        };
        let spec = Arc::new(spec);
        let job = Job {
            spec: Arc::clone(&spec),
            state: JobState::Routing,
            completed: None,
        };
        t.jobs.insert(id, job);
        t.waiting += 1;
        if self.ring.is_empty() {
            self.run_locally(&mut t, id);
        }
        let depth = ("queue_depth", num(t.waiting));
        drop(t);
        if !self.ring.is_empty() {
            links::forward(self, id, spec);
        }
        response(
            "queued",
            vec![("ticket", Value::u64(id)), ("key", key), depth],
        )
    }

    /// The routing rule's last branch: hand `id` to the local pool.
    pub(crate) fn run_locally(&self, t: &mut Table, id: u64) {
        t.set_state(id, JobState::LocalQueued);
        bump(&self.counters.local_jobs);
        self.cv.notify_one();
    }

    /// The reply to what [`Table::take`] gave for ticket `id`: the
    /// delivered job's terminal state, the unknown-ticket error, or the
    /// status of a live job.
    fn answer(&self, id: u64, taken: Result<Option<Job>, &'static str>) -> String {
        let ticket = ("ticket", Value::u64(id));
        let job = match taken {
            Ok(Some(job)) => job,
            Ok(None) => return error_response(format!("unknown ticket {id}")),
            Err(live) => return response(live, vec![ticket]),
        };
        match job.state {
            JobState::Done { cached, report } => {
                done_response(Some(id), &job.spec.canonical, cached, &report)
            }
            JobState::Failed(reason) => response("failed", vec![ticket, ("reason", text(reason))]),
            _ => response("deadline-exceeded", vec![ticket]),
        }
    }

    /// `WAIT`: blocks until job `id` is over, then delivers it. Only a
    /// stopping server answers a live job, with its status.
    fn wait(&self, id: u64) -> String {
        let mut t = self.lock();
        t.waiters += 1;
        let taken = loop {
            match t.take(id) {
                Err(_) if !t.stop => t = self.settled.wait(t).expect("job table lock"),
                taken => break taken,
            }
        };
        t.waiters -= 1;
        drop(t);
        // A drain may have been waiting on this delivery.
        self.settled.notify_all();
        self.answer(id, taken)
    }

    /// `SHUTDOWN`: starts the drain and blocks until it is over.
    fn shutdown(&self) -> String {
        let mut t = self.lock();
        t.draining = true;
        while !t.drained() && !t.stop {
            t = self.settled.wait(t).expect("job table lock");
        }
        drop(t);
        let served = ("served", Value::u64(self.counters.served.load(Relaxed)));
        response("ok", vec![("draining", Value::Bool(true)), served])
    }

    /// `STATS`: one shape for every role.
    fn stats(&self) -> String {
        let n = |a: &AtomicU64| Value::u64(a.load(Relaxed));
        let u = Value::u64;
        let hist = |h: &Mutex<LogHistogram>| {
            let h = h.lock().expect("hist lock");
            obj(vec![
                ("count", u(h.count())),
                ("p50", u(h.p50())),
                ("p99", u(h.p99())),
            ])
        };
        let (waiting, in_flight, tickets) = {
            let t = self.lock();
            (t.waiting, t.in_flight, t.jobs.len())
        };
        let backend = |backend: &Backend| {
            let b = &backend.stats;
            obj(vec![
                ("addr", text(backend.addr.as_str())),
                ("up", Value::Bool(b.up.load(Relaxed))),
                ("routed", n(&b.routed)),
                ("completed", n(&b.completed)),
                ("rerouted_away", n(&b.rerouted_away)),
            ])
        };
        let backends = self.backends.iter().map(backend).collect();
        let role = match self.ring.len() {
            0 => "server",
            _ => "coordinator",
        };
        let c = &self.counters;
        let s = self.store.as_ref().map(ResultStore::stats);
        let s = s.unwrap_or_default();
        let tp = tptrace::pool::global().stats();
        let uptime = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        // Persistent result store (zeros when disabled).
        let store = vec![
            ("enabled", Value::Bool(self.store.is_some())),
            ("entries", u(s.entries)),
            ("resident_bytes", u(s.resident_bytes)),
            ("hits", u(s.hits)),
            ("misses", u(s.misses)),
            ("inserts", u(s.inserts)),
            ("evictions", u(s.evictions)),
            ("collisions", u(s.collisions)),
            ("load_errors", u(s.load_errors)),
        ];
        // Process-wide trace pool: how much trace generation the
        // workers shared.
        let trace_pool = vec![
            ("hits", u(tp.hits)),
            ("misses", u(tp.misses)),
            ("generations", u(tp.generations)),
            ("evictions", u(tp.evictions)),
            ("resident_bytes", u(tp.resident_bytes)),
        ];
        let service_time = vec![
            ("hit", hist(&self.hit_hist)),
            ("simulated", hist(&self.sim_hist)),
        ];
        let stats = vec![
            ("role", text(role)),
            ("backends", Value::Arr(backends)),
            ("queue_depth", num(waiting)),
            ("in_flight", num(in_flight)),
            ("workers", num(self.cfg.workers)),
            ("queue_capacity", num(self.cfg.queue_capacity)),
            // Live table size: bounded by reap-on-delivery + the TTL reap.
            ("tickets", num(tickets)),
            ("served", n(&c.served)),
            ("rejected", n(&c.rejected)),
            ("errors", n(&c.errors)),
            ("cache_hits", n(&c.cache_hits)),
            ("store_hits", n(&c.store_hits)),
            ("simulations", n(&c.simulations)),
            ("forwarded", n(&c.forwarded)),
            ("rerouted", n(&c.rerouted)),
            ("local_jobs", n(&c.local_jobs)),
            ("cancelled", n(&c.cancelled)),
            ("failed", n(&c.failed)),
            ("cache_entries", num(self.cache().len())),
            ("store", obj(store)),
            ("trace_pool", obj(trace_pool)),
            ("service_time_us", obj(service_time)),
            ("uptime_ms", u(uptime)),
        ];
        response("ok", vec![("stats", obj(stats))])
    }

    /// Handles one protocol line and returns the reply line. `WAIT` on a
    /// live job and `SHUTDOWN` block the calling thread until they can
    /// be answered; everything else replies immediately.
    pub(crate) fn dispatch(self: &Arc<Self>, line: &str) -> String {
        let received = Instant::now();
        let line = line.trim();
        let (verb, rest) = match line.find(' ') {
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => (line, ""),
        };
        let error = |reason: String| {
            bump(&self.counters.errors);
            error_response(reason)
        };
        match verb {
            "PING" => response("ok", vec![("pong", Value::Bool(true))]),
            "STATS" => self.stats(),
            // Full validation at the edge: a malformed request never
            // reaches the queue, a worker or a backend.
            "SUBMIT" => match wire::parse(rest).and_then(|v| Request::from_value(&v)) {
                Ok(req) => self.submit(req, rest, received),
                Err(reason) => error(format!("invalid request: {reason}")),
            },
            // The same delivery either way; they differ only in what a
            // live job gets: `POLL` its status, `WAIT` a blocked reply.
            "POLL" | "WAIT" => match rest.parse::<u64>() {
                Err(_) => error(format!("{verb} needs a ticket number")),
                Ok(id) if verb == "WAIT" => self.wait(id),
                Ok(id) => {
                    let taken = self.lock().take(id);
                    self.answer(id, taken)
                }
            },
            "SHUTDOWN" => self.shutdown(),
            other => error(format!(
                "unknown verb {other:?} (SUBMIT|WAIT|POLL|STATS|PING|SHUTDOWN)"
            )),
        }
    }

    /// Flips a pause/drain/stop latch and wakes every thread that waits
    /// on the table to see it.
    pub(crate) fn latch(&self, set: impl FnOnce(&mut Table)) {
        set(&mut self.lock());
        self.cv.notify_all();
        self.settled.notify_all();
    }

    /// Moves job `id` to `next` and wakes whoever waits on it.
    pub(crate) fn settle(&self, t: &mut Table, id: u64, next: JobState) {
        t.set_state(id, next);
        self.settled.notify_all();
    }

    pub(crate) fn worker_loop(&self) {
        loop {
            let (id, spec) = {
                let mut t = self.lock();
                loop {
                    if t.stop {
                        return;
                    }
                    if let Some(claim) = (!t.paused).then(|| t.claim()).flatten() {
                        break claim;
                    }
                    t = self.cv.wait(t).expect("job table lock");
                }
            };
            // A panicking run fails its job, not the worker: the job
            // still turns terminal, so its WAIT is answered and a drain
            // can finish. `Request::run` holds no lock for it to poison.
            let verdict = panic::catch_unwind(AssertUnwindSafe(|| self.execute(&spec)))
                .unwrap_or_else(|payload| {
                    bump(&self.counters.failed);
                    JobState::Failed(format!("panicked: {}", panic_message(&*payload)))
                });
            self.settle(&mut self.lock(), id, verdict);
        }
    }

    /// Runs one claimed job to its terminal state.
    fn execute(&self, job: &Spec) -> JobState {
        let c = &self.counters;
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // Expired while queued or bouncing around the fleet: don't
            // start a doomed run.
            bump(&c.cancelled);
            return JobState::DeadlineExceeded;
        }
        if let Some(report) = self.lookup_cached(&job.canonical) {
            // An identical request completed while this one waited.
            bump(&c.cache_hits);
            bump(&c.served);
            record_time(&self.hit_hist, job.accepted);
            return JobState::Done {
                cached: true,
                report,
            };
        }
        let Some(report) = job.request.run(&job.cancel) else {
            bump(&c.cancelled);
            return JobState::DeadlineExceeded;
        };
        bump(&c.simulations);
        if (self.cfg.audit || job.request.audit) && !report.audit.passed() {
            bump(&c.failed);
            return JobState::Failed("conservation-law audit failed".into());
        }
        let report = self.publish(&job.canonical, &encode_sim_report(&report));
        bump(&c.served);
        record_time(&self.sim_hist, job.accepted);
        JobState::Done {
            cached: false,
            report,
        }
    }

    /// Housekeeping, run every few milliseconds: reaps terminal jobs
    /// uncollected for `ttl` (the server passes [`JOB_TTL`]) and cancels
    /// running jobs past their deadline.
    pub(crate) fn tick(&self, now: Instant, ttl: Duration) {
        self.lock().jobs.retain(|_, j| {
            if matches!(j.state, JobState::Running) && j.spec.deadline.is_some_and(|d| now >= d) {
                j.spec.cancel.cancel();
            }
            j.completed
                .is_none_or(|done| now.duration_since(done) < ttl)
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tpharness::wire::parse;

    /// An address that refuses connections: bind an ephemeral port and
    /// drop the listener before anyone dials it.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// A core with no server threads. The tests play them: dispatching
    /// a line is a connection's thread, [`Shape::run_queued`] a worker.
    pub(crate) struct Shape {
        pub(crate) core: Arc<Core>,
    }

    impl Shape {
        fn new(cfg: ServerConfig, backends: &[String]) -> Shape {
            let core = Core::new(cfg, HashRing::new(backends)).expect("core");
            Shape { core }
        }

        fn line(&self, line: &str) -> String {
            self.core.dispatch(line)
        }

        fn reply(&self, line: &str) -> Value {
            decoded(&self.line(line))
        }

        /// `SUBMIT`, and on a ring, the wait for the job's forwarder to
        /// place it: the shape's backends refuse, so in the local pool.
        fn submit(&self, json: &str) -> Value {
            let reply = self.reply(&format!("SUBMIT {json}"));
            let routing = |j: &Job| matches!(j.state, JobState::Routing | JobState::Remote(_));
            while self.core.lock().jobs.values().any(routing) {
                std::thread::yield_now();
            }
            reply
        }

        /// Accepts `request` as `SUBMIT` would, but leaves it `routing`.
        fn accept(&self, request: Request) -> u64 {
            let spec = Spec {
                canonical: request.canonical(),
                payload: request.canonical(),
                request,
                cancel: CancelToken::new(),
                deadline: None,
                accepted: Instant::now(),
            };
            let job = Job {
                spec: Arc::new(spec),
                state: JobState::Routing,
                completed: None,
            };
            let mut t = self.core.lock();
            t.last_ticket += 1;
            let id = t.last_ticket;
            t.jobs.insert(id, job);
            t.waiting += 1;
            id
        }

        /// Returns once a thread is blocked in `WAIT` on this core.
        fn await_waiter(&self) {
            while self.core.lock().waiters == 0 {
                std::thread::yield_now();
            }
        }

        fn run_queued(&self) {
            loop {
                let Some((id, spec)) = self.core.lock().claim() else {
                    return;
                };
                let verdict = self.core.execute(&spec);
                self.core.settle(&mut self.core.lock(), id, verdict);
            }
        }

        fn poll(&self, ticket: u64) -> Value {
            self.reply(&format!("POLL {ticket}"))
        }
    }

    /// Both shapes of the one core: an empty ring (a plain server) and
    /// a ring whose every backend refuses connections (a coordinator
    /// reduced to its last resort). Every verb must behave the same.
    fn shapes() -> [Shape; 2] {
        let cfg = ServerConfig {
            queue_capacity: 2,
            ..Default::default()
        };
        let server = Shape::new(cfg.clone(), &[]);
        [server, Shape::new(cfg, &[dead_addr(), dead_addr()])]
    }

    fn both_shapes(case: impl Fn(Shape)) {
        shapes().into_iter().for_each(case);
    }

    pub(crate) fn request(json: &str) -> Request {
        Request::from_value(&parse(json).unwrap()).unwrap()
    }

    /// A reply line as the client reads it.
    fn decoded(reply: &str) -> Value {
        parse(reply).expect("a reply is wire-parseable")
    }

    fn str_of<'a>(v: &'a Value, field: &str) -> &'a str {
        v.get(field).and_then(Value::as_str).unwrap_or("<none>")
    }

    fn status(v: &Value) -> &str {
        str_of(v, "status")
    }

    fn ticket(v: &Value) -> u64 {
        v.get("ticket").and_then(Value::as_u64).expect("a ticket")
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Relaxed)
    }

    const BFS: &str = r#"{"workload":"gap.bfs","scale":"test"}"#;
    const TC: &str = r#"{"workload":"gap.tc","scale":"test"}"#;
    const PR: &str = r#"{"workload":"gap.pr","scale":"test"}"#;

    #[test]
    fn load_beyond_capacity_is_shed_and_a_drain_sheds_everything() {
        both_shapes(|s| {
            assert_eq!(status(&s.submit(BFS)), "queued");
            assert_eq!(status(&s.submit(TC)), "queued");
            let shed = s.submit(PR);
            assert_eq!(status(&shed), "rejected");
            assert_eq!(str_of(&shed, "reason"), "queue-full");
            assert_eq!(shed.get("queue_depth").and_then(Value::as_u64), Some(2));
            assert_eq!(count(&s.core.counters.rejected), 1);

            // What `SHUTDOWN` does before it blocks.
            s.core.latch(|t| t.draining = true);
            assert!(!s.core.lock().drained(), "two accepted jobs are still live");
            s.run_queued();
            assert!(s.core.lock().drained());
            assert_eq!(
                str_of(&s.reply("SHUTDOWN"), "status"),
                "ok",
                "nothing to wait for"
            );
            assert_eq!(str_of(&s.submit(PR), "reason"), "shutting-down");
            // Hits create no work, so they are served even now.
            assert_eq!(status(&s.submit(BFS)), "done");
        });
    }

    /// Every STATS field, as a dotted path.
    const STATS_FIELDS: &str = "role backends queue_depth in_flight workers queue_capacity \
        tickets served rejected errors cache_hits store_hits simulations forwarded rerouted \
        local_jobs cancelled failed cache_entries uptime_ms store.enabled store.entries \
        store.resident_bytes store.hits store.misses store.inserts store.evictions \
        store.collisions store.load_errors trace_pool.hits trace_pool.misses \
        trace_pool.generations trace_pool.evictions trace_pool.resident_bytes \
        service_time_us.hit.count service_time_us.hit.p50 service_time_us.hit.p99 \
        service_time_us.simulated.count service_time_us.simulated.p50 \
        service_time_us.simulated.p99";

    /// Every field of a `backends` entry, in order.
    const BACKEND_FIELDS: [&str; 5] = ["addr", "up", "routed", "completed", "rerouted_away"];

    #[test]
    fn stats_shape_is_one_superset_for_every_role() {
        both_shapes(|s| {
            let v = s.reply("STATS");
            let stats = v.get("stats").unwrap();
            for path in STATS_FIELDS.split_whitespace() {
                let found = path.split('.').try_fold(stats, |v, key| v.get(key));
                assert!(found.is_some(), "stats missing {path}");
            }
            let enabled = stats.get("store").and_then(|s| s.get("enabled"));
            assert_eq!(enabled.and_then(Value::as_bool), Some(false));
            let backends = stats.get("backends").and_then(Value::as_arr).unwrap();
            assert_eq!(backends.len(), s.core.ring.len());
            for backend in backends {
                let Value::Obj(fields) = backend else {
                    panic!("a backend is an object")
                };
                let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, BACKEND_FIELDS);
            }
            let role = ["server", "coordinator"][usize::from(!backends.is_empty())];
            assert_eq!(str_of(stats, "role"), role);
            assert!(parse(&v.encode()).is_ok(), "the response is wire-parseable");
        });
    }

    #[test]
    fn malformed_lines_are_structured_errors_not_rejections() {
        both_shapes(|s| {
            assert_eq!(status(&s.submit(r#"{"workload":"no.such"}"#)), "error");
            assert_eq!(status(&s.reply("FROBNICATE 12")), "error");
            assert_eq!(status(&s.reply("POLL notanumber")), "error");
            assert_eq!(status(&s.reply("WAIT notanumber")), "error");
            assert!(str_of(&s.poll(999), "reason").contains("unknown ticket"));
            assert_eq!(count(&s.core.counters.errors), 4);
            assert_eq!(count(&s.core.counters.rejected), 0);
        });
    }

    #[test]
    fn synchronous_cache_hits_retain_no_job() {
        both_shapes(|s| {
            let request = request(BFS);
            // Seed the cache directly; the submits below must hit it.
            s.core.publish(&request.canonical(), r#"{"fake":"report"}"#);
            for _ in 0..50 {
                let r = s.submit(BFS);
                assert_eq!(status(&r), "done");
                assert_eq!(r.get("cached").unwrap().as_bool(), Some(true));
                assert!(r.get("ticket").is_none(), "nothing to poll");
            }
            assert_eq!(s.core.lock().jobs.len(), 0, "hits must not leak jobs");
            assert_eq!(count(&s.core.counters.cache_hits), 50);
        });
    }

    /// The request a test payload parses to, and the encoded report of
    /// running it directly.
    fn direct(json: &str) -> (Request, String) {
        let request = request(json);
        let report = request
            .run(&CancelToken::new())
            .expect("nothing cancels it");
        let encoded = encode_sim_report(&report);
        (request, encoded)
    }

    fn report_of(reply: &Value) -> String {
        reply.get("report").expect("a report").encode()
    }

    #[test]
    fn done_lines_are_the_bytes_the_tree_path_encoded() {
        // What the reply was before the splice: a tree around the
        // parsed report, encoded.
        let tree_line = |ticket: Option<u64>, (request, report): &(Request, String), cached| {
            let key = ("key", text(format!("{:016x}", request.key())));
            let mut fields = vec![key, ("cached", Value::Bool(cached))];
            fields.push(("report", parse(report).unwrap()));
            if let Some(id) = ticket {
                fields.insert(0, ("ticket", Value::u64(id)));
            }
            response("done", fields)
        };
        let runs = [
            (BFS, ["POLL", "WAIT"], direct(BFS)),
            (TC, ["WAIT", "POLL"], direct(TC)),
        ];
        both_shapes(|s| {
            for (json, [verb_a, verb_b], run) in &runs {
                // Two tickets for one key: the first job simulates, the
                // second finds the result cached when a worker claims it.
                let (a, b) = (ticket(&s.submit(json)), ticket(&s.submit(json)));
                s.run_queued();
                for (line, expected) in [
                    (
                        s.line(&format!("{verb_a} {a}")),
                        tree_line(Some(a), run, false),
                    ),
                    (
                        s.line(&format!("{verb_b} {b}")),
                        tree_line(Some(b), run, true),
                    ),
                    (
                        s.line(&format!("SUBMIT {json}")),
                        tree_line(None, run, true),
                    ),
                ] {
                    assert_eq!(line, expected);
                    assert!(!line.contains('\n'), "a reply is one frame");
                }
                let canonical = run.0.canonical();
                let hits = [(); 2].map(|()| s.core.lookup_cached(&canonical).expect("cached"));
                assert!(Arc::ptr_eq(&hits[0], &hits[1]), "hits share one allocation");
            }
        });
    }

    #[test]
    fn a_damaged_store_body_is_a_miss_that_rewrites_the_entry() {
        type Damage = fn(&str) -> String;
        /// `body` with every counter set spelled as an object of its
        /// names: how a store written before counter sets became
        /// positional holds its entries.
        fn named_counters(body: &str) -> String {
            use tpsim::{CacheStats, DramStats, TemporalStats};
            fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
                let Value::Obj(fields) = v else {
                    panic!("{key}: parent is not an object")
                };
                &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
            }
            fn name(set: &mut Value, names: &[&str]) {
                let Value::Arr(values) = std::mem::replace(set, Value::Null) else {
                    panic!("a counter set is not an array")
                };
                *set = Value::Obj(names.iter().map(|n| n.to_string()).zip(values).collect());
            }
            let mut v = parse(body).expect("a stored body parses");
            let Value::Arr(cores) = member(&mut v, "cores") else {
                panic!("cores")
            };
            for core in cores {
                name(member(core, "l1d"), CacheStats::NAMES);
                name(member(core, "l2"), CacheStats::NAMES);
                name(member(core, "temporal"), TemporalStats::NAMES);
            }
            name(member(&mut v, "llc"), CacheStats::NAMES);
            name(member(&mut v, "dram"), DramStats::NAMES);
            v.encode()
        }
        let damages: [(&str, Damage); 6] = [
            ("a flipped byte inside a counter", |body| {
                let field = r#""cycles":"#;
                let mut bytes = body.as_bytes().to_vec();
                bytes[body.find(field).expect("a cycle count") + field.len()] ^= 0x40;
                String::from_utf8(bytes).expect("a digit becomes a letter")
            }),
            ("a body truncated mid-object", |body| {
                body[..body.len() / 2].into()
            }),
            ("an embedded newline", |body| body.replacen(',', ",\n", 1)),
            ("valid JSON with extra whitespace", |body| {
                body.replacen(':', ": ", 1)
            }),
            ("a counter removed, still canonical JSON", |body| {
                let set = r#""l1d":["#;
                let first = body.find(set).expect("an l1d array") + set.len();
                let comma = first + body[first..].find(',').expect("a second counter");
                format!("{}{}", &body[..first], &body[comma + 1..])
            }),
            ("counter sets spelled as named objects", named_counters),
        ];
        let dir = std::env::temp_dir().join(format!("tpserve-damage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let simulate = |s: &Shape| {
            let queued = s.submit(BFS);
            assert_eq!(status(&queued), "queued", "no cache level answers");
            s.run_queued();
            s.poll(ticket(&queued))
        };
        let cached = |reply: &Value| reply.get("cached").and_then(Value::as_bool);
        let (_, direct) = direct(BFS);

        // One server fills the store and stops.
        assert_eq!(report_of(&simulate(&Shape::new(cfg.clone(), &[]))), direct);
        let mut files = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
        let entry = files
            .find(|p| p.extension().is_some_and(|x| x == "rsp"))
            .expect("one entry");
        let pristine = std::fs::read_to_string(&entry).unwrap();
        let (canonical, body) = pristine.split_once('\n').unwrap();
        assert_eq!(body, direct);

        for (what, damage) in damages {
            std::fs::write(&entry, format!("{canonical}\n{}", damage(body))).unwrap();
            // The next one starts on the same directory: the damaged
            // entry must cost a simulation, never answer.
            let s = Shape::new(cfg.clone(), &[]);
            let fresh = simulate(&s);
            assert_eq!(
                (cached(&fresh), report_of(&fresh)),
                (Some(false), direct.clone()),
                "{what}"
            );
            let stats = s.reply("STATS");
            let stat = |path: &str| {
                let leaf = path.split('.').try_fold(&stats, |v, key| v.get(key));
                leaf.and_then(Value::as_u64)
            };
            assert_eq!(stat("stats.simulations"), Some(1), "{what}");
            assert_eq!(stat("stats.store.load_errors"), Some(1), "{what}");
            assert_eq!(stat("stats.store_hits"), Some(0), "{what}");
            let again = s.submit(BFS);
            assert_eq!(
                (cached(&again), report_of(&again)),
                (Some(true), direct.clone()),
                "{what}"
            );
            let rewritten = std::fs::read_to_string(&entry).unwrap();
            assert_eq!(rewritten, pristine, "{what}: the entry is whole again");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn terminal_jobs_reap_on_first_poll_and_on_ttl() {
        both_shapes(|s| {
            let (ta, tb) = (ticket(&s.submit(BFS)), ticket(&s.submit(TC)));
            s.core.tick(Instant::now(), Duration::ZERO);
            assert_eq!(status(&s.poll(ta)), "queued", "live: never reaped");
            s.run_queued();
            assert_eq!(s.core.lock().jobs.len(), 2);
            assert_eq!(count(&s.core.counters.local_jobs), 2);

            // First POLL delivers and reaps; the second sees no job.
            let done = s.poll(ta);
            assert_eq!(status(&done), "done");
            assert!(done.get("report").is_some());
            assert_eq!(s.core.lock().jobs.len(), 1);
            assert_eq!(status(&s.poll(ta)), "error");

            // The uncollected terminal job falls to the TTL reap; its
            // result is still served from the cache on resubmission.
            s.core.tick(Instant::now(), Duration::ZERO);
            assert_eq!(s.core.lock().jobs.len(), 0);
            assert_eq!(status(&s.poll(tb)), "error");
            assert_eq!(s.submit(TC).get("cached").unwrap().as_bool(), Some(true));
        });
    }

    #[test]
    fn wait_parks_on_a_live_job_and_delivers_what_poll_would_have() {
        type Finish = fn(&Shape, u64);
        let cases: [(&str, Finish); 3] = [
            ("done", |s, _| s.run_queued()),
            ("failed", |s, id| {
                let audit = JobState::Failed("conservation-law audit failed".into());
                s.core.settle(&mut s.core.lock(), id, audit);
            }),
            ("deadline-exceeded", |s, id| {
                s.core
                    .settle(&mut s.core.lock(), id, JobState::DeadlineExceeded);
            }),
        ];
        for (outcome, finish) in cases {
            // Twin cores issue the same tickets: one job is waited for,
            // its twin polled, and the bytes must not differ.
            for (waited, polled) in shapes().into_iter().zip(shapes()) {
                // An unknown ticket is an error at once, never a wait.
                let unknown = waited.reply("WAIT 999");
                assert_eq!(unknown.encode(), polled.poll(999).encode());
                assert!(str_of(&unknown, "reason").contains("unknown ticket"));

                let id = ticket(&waited.submit(BFS));
                assert_eq!(ticket(&polled.submit(BFS)), id);
                let delivered = std::thread::scope(|scope| {
                    let waiter = scope.spawn(|| waited.line(&format!("WAIT {id}")));
                    waited.await_waiter();
                    assert_eq!(status(&polled.poll(id)), "queued");
                    assert!(!waiter.is_finished(), "WAIT answered a live job");
                    finish(&waited, id);
                    waiter.join().expect("the waiter")
                });
                finish(&polled, id);
                assert_eq!(status(&decoded(&delivered)), outcome);
                assert_eq!(delivered, polled.poll(id).encode());
                let t = waited.core.lock();
                assert_eq!((t.jobs.len(), t.waiters), (0, 0), "delivery reaps");
                drop(t);

                // A job already terminal is delivered, and reaped, by
                // the WAIT at once.
                let late = ticket(&waited.submit(TC));
                finish(&waited, late);
                assert_eq!(status(&waited.reply(&format!("WAIT {late}"))), outcome);
                assert_eq!(waited.core.lock().jobs.len(), 0);
                assert_eq!(status(&waited.reply(&format!("WAIT {late}"))), "error");
            }
        }
    }

    #[test]
    fn a_finishing_worker_ends_a_long_wait_and_the_parked_wait_is_answered() {
        let s = Shape::new(ServerConfig::default(), &[]);
        // Past its deadline before a worker claims it: terminal without
        // a simulation whose length the assertion would depend on.
        let doomed = r#"SUBMIT {"workload":"gap.bfs","scale":"test","deadline_ms":1}"#;
        let id = ticket(&s.reply(doomed));
        std::thread::sleep(Duration::from_millis(2));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| s.reply(&format!("WAIT {id}")));
            s.await_waiter();
            assert!(!waiter.is_finished(), "no worker yet, so no answer");
            let started = Instant::now();
            scope.spawn(|| s.core.worker_loop());
            let reply = waiter.join().expect("the waiter");
            assert_eq!(status(&reply), "deadline-exceeded");
            let woken = started.elapsed() < Duration::from_secs(1);
            assert!(woken, "the worker's settle did not end the wait");
            s.core.latch(|t| t.stop = true);
        });
    }

    #[test]
    fn tick_cancels_running_jobs_past_their_deadline() {
        both_shapes(|s| {
            let a = ticket(&s.submit(r#"{"workload":"gap.bfs","scale":"test","deadline_ms":1}"#));
            s.submit(r#"{"workload":"gap.tc","scale":"test","deadline_ms":60000}"#);
            let (id, spec) = s.core.lock().claim().expect("first queued job");
            // The deadline's clock starts at acceptance, not here.
            let start = spec.accepted;
            assert_eq!((id, status(&s.poll(a))), (a, "running"));
            s.core.tick(start, JOB_TTL);
            assert!(!spec.cancel.is_cancelled(), "not yet due");
            s.core.tick(start + Duration::from_millis(5), JOB_TTL);
            assert!(spec.cancel.is_cancelled(), "the engine stops next epoch");
        });
    }

    /// A job whose run panics fails with the panic's message; the one
    /// worker that ran it lives on and runs the next job, and a drain
    /// completes.
    #[test]
    fn a_panicking_job_fails_and_its_worker_lives_on() {
        let s = Shape::new(ServerConfig::default(), &[]);
        // `from_value` rejects this warmup, so no client can send it;
        // `Engine::warmup_fraction` panics on it.
        let mut doomed = request(BFS);
        doomed.exp.warmup = 2.0;
        let doomed = s.accept(doomed);
        s.core.run_locally(&mut s.core.lock(), doomed);
        std::thread::scope(|scope| {
            scope.spawn(|| s.core.worker_loop());
            let failed = s.reply(&format!("WAIT {doomed}"));
            assert_eq!(status(&failed), "failed");
            let reason = str_of(&failed, "reason");
            assert!(
                reason.starts_with("panicked: ") && reason.contains("warmup"),
                "{reason}"
            );
            assert_eq!(count(&s.core.counters.failed), 1);
            let gauges = |t: MutexGuard<'_, Table>| (t.in_flight, t.waiting);
            assert_eq!(gauges(s.core.lock()), (0, 0));

            let next = ticket(&s.submit(BFS));
            let done = s.reply(&format!("WAIT {next}"));
            assert_eq!(status(&done), "done", "the worker survived");
            assert_eq!(status(&s.reply("SHUTDOWN")), "ok");
            assert!(s.core.lock().drained());
            s.core.latch(|t| t.stop = true);
        });
    }
}
