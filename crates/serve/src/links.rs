//! The backend side of a fleet: persistent links to the ring's nodes,
//! the routing pass, and the handlers for what backends answer. Only a
//! core with a non-empty ring ever runs any of this.
//!
//! ## Reroute vs relay
//!
//! *Placement* failures (this backend can't run the job) reroute;
//! *execution* verdicts (the job ran and terminally failed) relay:
//!
//! * **Reroute** — connect refused, mid-flight disconnect, a `rejected`
//!   submit (backend draining or queue-full), an unparseable or
//!   incomplete response (a `done` whose `report` is not the canonical
//!   encoding of a report is one), or a `WAIT` answered with anything
//!   but a verdict — the unknown-ticket `error` of a restarted backend,
//!   or a `queued`/`running` from one that does not hold the reply back.
//!   The job returns to `routing` and tries the next distinct ring node
//!   ([`HashRing::candidates`]), each at most once; when every backend
//!   has been tried or is down it runs in the local pool. Each landing
//!   away from the primary bumps `rerouted` (and the departed backend's
//!   `rerouted_away`).
//! * **Relay** — `deadline-exceeded` and `failed` are real outcomes of
//!   running the job; retrying elsewhere would waste a deadline that
//!   already expired or re-run a deterministic failure.
//!
//! Results are content-addressed by the canonical request string end
//! to end, so a rerouted job's report is byte-identical wherever it
//! finally ran — the fleet-equivalence suite pins that.
//!
//! A link carries a FIFO expectation queue: the protocol answers in
//! request order on a connection, so the k-th response line belongs to
//! the k-th outstanding forward. A link failure voids all of its
//! expectations at once and re-routes every job assigned to it.
//!
//! ## Threads and locks
//!
//! Each link has one reader thread, which applies every answer
//! ([`Link::on_line`]) and fails the link when its connection breaks.
//! Lines are written under the link's lock by whoever needs them sent:
//! the thread routing a job (the submitting connection's, or a failing
//! link's as it re-routes what it stranded) writes the `SUBMIT`, the
//! reader writes the `WAIT` when it sees `queued`. Writing a line and
//! queueing its expectation happen under that one lock, so the queue
//! matches the wire; the reader pops without it. Locks nest link, then
//! job table, never the other way, and no link lock is held while
//! routing, so no two links wait on each other. A connect attempt holds
//! only its own link's lock.
//!
//! A write blocks while the backend is not reading, which it does not
//! while a `WAIT` holds its connection. The coordinator's bounded job
//! table bounds what can be unread on a link — a `SUBMIT` and a `WAIT`
//! per job — well inside a socket buffer at the default capacity.
//!
//! ## One `SUBMIT`, one `WAIT`
//!
//! A remote job costs exactly two lines on its link: the `SUBMIT`, and
//! a `WAIT` sent the moment the backend's `queued` arrives. The
//! backend's thread for the link blocks on it and answers when the job
//! is terminal; nothing is polled. Request order is the protocol's one
//! head-of-line rule and it applies here: the backend reads nothing
//! further from a link blocked on a `WAIT`, so a later `WAIT` — or
//! `SUBMIT` — on the same link is held until the older job finishes. A
//! backend runs its queue FIFO, so a later `WAIT` is delayed by at most
//! the older job's remaining run time; a sweep pipelines its `SUBMIT`s,
//! so they normally reach the backend ahead of the first `WAIT`.

use crate::conn::Conn;
use crate::protocol::read_frame;
use crate::ring::HashRing;
use crate::service::{bump, is_canonical_report, Core, JobState, Table};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tpharness::wire::{self, Value};

/// Bound on one blocking connect attempt: a black-holed backend address
/// costs at most this, not a kernel default.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Minimum time between connect attempts to a down backend.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(250);

/// What the next response line on a link answers: job `id`'s `SUBMIT`,
/// or (`waited`) its `WAIT`.
struct Expect {
    id: u64,
    waited: bool,
}

/// The expectations of one connection, oldest first. Writers push under
/// the link lock; the reader pops without it, since a writer may hold
/// that lock while the backend's socket is full.
type Expects = Arc<Mutex<VecDeque<Expect>>>;

/// One live backend connection: the handle lines are written on, and
/// what their answers are for.
struct Session {
    conn: Conn,
    expects: Expects,
}

impl Session {
    /// Writes one request line and queues what its answer is for; false
    /// if the write failed.
    fn send(&mut self, expect: Expect, line: &str) -> bool {
        self.expects.lock().expect("expects lock").push_back(expect);
        self.conn.write_all(line.as_bytes()).is_ok()
    }
}

/// What the link lock guards.
#[derive(Default)]
struct LinkState {
    session: Option<Session>,
    /// Last connect attempt (gates the reconnect backoff).
    last_attempt: Option<Instant>,
    /// The server is stopping: no session opens, the reader returns.
    closed: bool,
}

/// Per-backend health and routing stats (surfaced in STATS).
#[derive(Default)]
pub(crate) struct BackendStats {
    pub(crate) up: AtomicBool,
    /// Jobs forwarded to this backend.
    pub(crate) routed: AtomicU64,
    /// Jobs this backend completed.
    pub(crate) completed: AtomicU64,
    /// Jobs whose primary was this backend but which landed elsewhere.
    pub(crate) rerouted_away: AtomicU64,
    /// Successful (re)connects to this backend.
    pub(crate) connects: AtomicU64,
}

/// One persistent backend connection, its expectations and its stats.
pub(crate) struct Link {
    /// This backend's position in the ring.
    index: usize,
    pub(crate) addr: String,
    pub(crate) stats: BackendStats,
    state: Mutex<LinkState>,
    /// Wakes the reader when a session opens or the link closes.
    changed: Condvar,
}

impl Link {
    /// One unconnected link per ring node; nothing dials until the
    /// first job routes.
    pub(crate) fn for_ring(ring: &HashRing) -> Vec<Link> {
        let unconnected = |index| Link {
            index,
            addr: ring.addr(index).to_string(),
            stats: BackendStats::default(),
            state: Mutex::default(),
            changed: Condvar::new(),
        };
        (0..ring.len()).map(unconnected).collect()
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("link lock")
    }

    /// The live session, connecting first if the backoff allows.
    fn ensure<'a>(&self, st: &'a mut LinkState) -> Option<&'a mut Session> {
        let backing_off = |t: Instant| t.elapsed() < RECONNECT_BACKOFF;
        if st.session.is_none() && !st.closed && !st.last_attempt.is_some_and(backing_off) {
            st.last_attempt = Some(Instant::now());
            let conn = Conn::connect_timeout(&self.addr, CONNECT_TIMEOUT);
            st.session = conn.ok().map(|conn| Session {
                conn,
                expects: Expects::default(),
            });
            let up = st.session.is_some();
            self.stats.up.store(up, Relaxed);
            if up {
                bump(&self.stats.connects);
                self.changed.notify_all();
            }
        }
        st.session.as_mut()
    }

    /// Tears the live session down and moves every job assigned to this
    /// backend back to `routing`, returning them for the caller to route
    /// once it has let go of the link lock.
    fn drop_session(&self, core: &Core, st: &mut LinkState) -> Vec<u64> {
        if let Some(session) = st.session.take() {
            // The reader's blocking read returns.
            session.conn.shutdown();
        }
        st.last_attempt = Some(Instant::now());
        self.stats.up.store(false, Relaxed);
        let mut t = core.lock();
        let stranded: Vec<u64> = t
            .jobs
            .iter()
            .filter(|(_, j)| match j.state {
                JobState::AwaitSubmit(b) | JobState::Remote(b) => b == self.index,
                _ => false,
            })
            .map(|(&id, _)| id)
            .collect();
        for &id in &stranded {
            t.set_state(id, JobState::Routing);
        }
        stranded
    }

    /// Fails the session `expects` belongs to, unless another thread
    /// already has, and re-routes what it stranded.
    fn fail(&self, core: &Core, expects: &Expects) {
        let stranded = {
            let mut st = self.lock();
            let current = st
                .session
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(&s.expects, expects));
            if !current {
                return;
            }
            self.drop_session(core, &mut st)
        };
        stranded.into_iter().for_each(|id| route(core, id));
    }

    /// Stops the link for good: the live session is shut and the reader
    /// returns.
    pub(crate) fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        if let Some(session) = st.session.take() {
            session.conn.shutdown();
        }
        self.changed.notify_all();
    }

    /// The body of this link's reader thread: applies each answer on
    /// the live session, fails the link when the session breaks (EOF,
    /// framing violation, or a response nothing was waiting for), then
    /// waits for the next session. Returns once the link is closed.
    pub(crate) fn read_answers(&self, core: &Core) {
        loop {
            let (conn, expects) = {
                let mut st = self.lock();
                loop {
                    if st.closed {
                        return;
                    }
                    if let Some(s) = &st.session {
                        break (s.conn.try_clone(), Arc::clone(&s.expects));
                    }
                    st = self.changed.wait(st).expect("link lock");
                }
            };
            if let Ok(conn) = conn {
                let mut answers = BufReader::new(conn);
                let mut scratch = Vec::new();
                loop {
                    match read_frame(&mut answers, &mut scratch) {
                        Ok(Some("")) => {}
                        Ok(Some(line)) if self.on_line(core, &expects, line).is_ok() => {}
                        _ => break,
                    }
                }
            }
            self.fail(core, &expects);
        }
    }

    /// Applies one response line to the job its FIFO slot names. `Err`
    /// means nothing was waiting for it: the link must be failed.
    fn on_line(&self, core: &Core, expects: &Expects, line: &str) -> Result<(), ()> {
        let bi = self.index;
        let next = expects.lock().expect("expects lock").pop_front();
        let Expect { id, waited } = next.ok_or(())?;
        let reply = wire::parse_reply(line).ok();
        let field = |name: &str| reply.as_ref().and_then(|v| v.get(name));
        let status = field("status").and_then(Value::as_str).unwrap_or("");

        let mut t = core.lock();
        // Ignore stale lines: the job must still be waiting on this
        // backend for this kind of answer (a link failure in between
        // re-routed it).
        let Some(job) = t.jobs.get_mut(&id) else {
            return Ok(());
        };
        let current = match job.state {
            JobState::AwaitSubmit(b) => !waited && b == bi,
            JobState::Remote(b) => waited && b == bi,
            _ => false,
        };
        if !current {
            return Ok(());
        }
        let mut wait_on = None;
        let next = match (status, waited) {
            // The report's text goes into the cache under the job's
            // canonical key as it arrived, admitted by the store's rule:
            // it decodes as a report and is exactly that report's
            // encoding, the only spelling the cache holds. A `done` with
            // no report, or one that fails the rule, is a protocol bug:
            // reroute.
            ("done", _) => match field("report") {
                Some(Value::Encoded(report)) if is_canonical_report(report) => {
                    core.publish(&job.spec.canonical, report);
                    bump(&core.counters.served);
                    bump(&self.stats.completed);
                    let cached = field("cached").and_then(Value::as_bool).unwrap_or(false);
                    JobState::Done { cached }
                }
                _ => JobState::Routing,
            },
            // Accepted: ask, once, to be told when it is over.
            ("queued", false) => match field("ticket").and_then(Value::as_u64) {
                Some(ticket) => {
                    wait_on = Some(ticket);
                    JobState::Remote(bi)
                }
                None => JobState::Routing,
            },
            ("deadline-exceeded", true) => {
                bump(&core.counters.cancelled);
                JobState::DeadlineExceeded
            }
            ("failed", true) => {
                bump(&core.counters.failed);
                let reason = field("reason").and_then(Value::as_str);
                JobState::Failed(reason.unwrap_or("backend reported failure").to_string())
            }
            // `rejected`, garbage, or — to a `WAIT` — an `error` (the
            // backend lost the ticket) or a status that is no verdict:
            // placement is void.
            _ => JobState::Routing,
        };
        let reroute = matches!(next, JobState::Routing);
        core.settle(&mut t, id, next);
        drop(t);
        if let Some(ticket) = wait_on {
            self.wait_remote(core, expects, id, ticket);
        }
        if reroute {
            route(core, id);
        }
        Ok(())
    }

    /// Sends job `id`'s `WAIT` for backend ticket `ticket` on the
    /// session of `expects`. If that session is gone, its failure
    /// already re-routed the job; a failed write fails it now.
    fn wait_remote(&self, core: &Core, expects: &Expects, id: u64, ticket: u64) {
        let stranded = {
            let mut st = self.lock();
            let ours = |s: &&mut Session| Arc::ptr_eq(&s.expects, expects);
            let Some(session) = st.session.as_mut().filter(ours) else {
                return;
            };
            if session.send(Expect { id, waited: true }, &format!("WAIT {ticket}\n")) {
                return;
            }
            self.drop_session(core, &mut st)
        };
        stranded.into_iter().for_each(|id| route(core, id));
    }

    /// Places routing job `id` on this backend: connects if need be,
    /// then sends its `SUBMIT`. False if the backend is unreachable. A
    /// failed write fails the link, whose re-routing takes the job along.
    fn submit(&self, core: &Core, id: u64, payload: &str, primary: Option<usize>) -> bool {
        let bi = self.index;
        let stranded = {
            let mut st = self.lock();
            let Some(session) = self.ensure(&mut st) else {
                return false;
            };
            {
                let mut t = core.lock();
                if !land(core, &mut t, id, Some(bi), primary) {
                    return true;
                }
                t.jobs.get_mut(&id).expect("landed").attempts.push(bi);
                t.set_state(id, JobState::AwaitSubmit(bi));
            }
            bump(&core.counters.forwarded);
            bump(&self.stats.routed);
            if session.send(Expect { id, waited: false }, &format!("SUBMIT {payload}\n")) {
                return true;
            }
            self.drop_session(core, &mut st)
        };
        stranded.into_iter().for_each(|id| route(core, id));
        true
    }
}

/// Whether job `id` is still `routing`, so the caller may place it. If
/// so, a landing on `to` (`None`: the local pool) anywhere but the
/// primary is a reroute, attributed to the backend the job came from
/// (retry) or to the unreachable primary (first routing).
fn land(core: &Core, t: &mut Table, id: u64, to: Option<usize>, primary: Option<usize>) -> bool {
    let Some(job) = t
        .jobs
        .get(&id)
        .filter(|j| matches!(j.state, JobState::Routing))
    else {
        return false;
    };
    let away_from_primary = primary.filter(|&p| Some(p) != to);
    if let Some(from) = job.attempts.last().copied().or(away_from_primary) {
        bump(&core.counters.rerouted);
        bump(&core.links[from].stats.rerouted_away);
    }
    true
}

/// Routes job `id` if it is `routing`: first untried, reachable
/// candidate in ring order, else the local pool. Called by whoever put
/// the job in that state, holding no lock.
pub(crate) fn route(core: &Core, id: u64) {
    let routing = |t: &Table| {
        let job = t
            .jobs
            .get(&id)
            .filter(|j| matches!(j.state, JobState::Routing))?;
        Some((Arc::clone(&job.spec), job.attempts.clone()))
    };
    let Some((spec, attempts)) = routing(&core.lock()) else {
        return;
    };
    let cands = core.ring.candidates(HashRing::job_point(&spec.canonical));
    let primary = cands.first().copied();
    for &b in cands.iter().filter(|b| !attempts.contains(b)) {
        if core.links[b].submit(core, id, &spec.payload, primary) {
            return;
        }
    }
    let mut t = core.lock();
    if land(core, &mut t, id, None, primary) {
        core.run_locally(&mut t, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::service::tests::{dead_addr, request, status, str_of, Shape};
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    /// A two-node ring whose backends refuse connections, with one job
    /// placed on backend 0 as if over a live session: awaiting the
    /// submit response (`waited` false) or accepted and waited for.
    /// Also returns that session's expectations and its far end.
    fn parked(waited: bool) -> (Shape, u64, Expects, UnixStream) {
        let s = Shape::new(ServerConfig::default(), &[dead_addr(), dead_addr()]);
        let id = s.accept(request(r#"{"workload":"gap.bfs","scale":"test"}"#));
        let state = if waited {
            JobState::Remote(0)
        } else {
            JobState::AwaitSubmit(0)
        };
        let (near, far) = UnixStream::pair().unwrap();
        let expects = Expects::default();
        expects.lock().unwrap().push_back(Expect { id, waited });
        let session = Session {
            conn: Conn::Unix(near),
            expects: Arc::clone(&expects),
        };
        s.core.links[0].lock().session = Some(session);
        {
            let mut t = s.core.lock();
            t.jobs.get_mut(&id).unwrap().attempts.push(0);
            t.set_state(id, state);
        }
        (s, id, expects, far)
    }

    /// What backend 0 says next.
    fn answer(s: &Shape, expects: &Expects, line: &str) -> Result<(), ()> {
        s.core.links[0].on_line(&s.core, expects, line)
    }

    fn state(s: &Shape, id: u64) -> String {
        format!("{:?}", s.core.lock().jobs[&id].state)
    }

    /// After any placement failure the job must re-route at once — here,
    /// with backend 1 refusing too, all the way to the local pool — and
    /// the departure from backend 0 must be counted.
    fn assert_rerouted_to_local_pool(s: &Shape, id: u64) {
        assert_eq!(state(s, id), "LocalQueued", "placement failed");
        assert_eq!(s.core.counters.local_jobs.load(Relaxed), 1);
        assert_eq!(s.core.counters.rerouted.load(Relaxed), 1);
        assert_eq!(s.core.links[0].stats.rerouted_away.load(Relaxed), 1);
        assert_eq!(status(&s.poll(id)), "queued", "never stuck");
    }

    #[test]
    fn malformed_backend_answers_reroute_the_job() {
        for (waited, line) in [
            (false, "\u{1}garbage, not json"),
            (true, "\u{1}garbage, not json"),
            (false, r#"{"status":"done","cached":false}"#),
            (true, r#"{"status":"done","cached":false}"#),
            (false, r#"{"status":"queued","key":"0"}"#),
            (false, r#"{"status":"rejected","reason":"queue-full"}"#),
            (true, r#"{"status":"error","reason":"unknown ticket 7"}"#),
            // A WAIT is answered with a verdict or not at all.
            (true, r#"{"status":"running","ticket":7}"#),
            (true, r#"{"status":"queued","ticket":7}"#),
        ] {
            let (s, id, expects, _far) = parked(waited);
            assert_eq!(answer(&s, &expects, line), Ok(()), "{line}");
            assert!(expects.lock().unwrap().is_empty());
            assert_rerouted_to_local_pool(&s, id);
        }
    }

    #[test]
    fn an_answer_nobody_asked_for_fails_the_link_and_reroutes_its_jobs() {
        let (s, id, expects, mut far) = parked(true);
        expects.lock().unwrap().clear();
        let unasked = answer(&s, &expects, r#"{"status":"ok","pong":true}"#);
        assert_eq!(unasked, Err(()), "the reader must fail this link");
        s.core.links[0].fail(&s.core, &expects);
        assert_rerouted_to_local_pool(&s, id);
        assert!(s.core.links[0].lock().session.is_none());
        assert_eq!(far.read(&mut [0; 8]).unwrap(), 0, "the session is shut");
    }

    #[test]
    fn a_stale_answer_leaves_the_job_where_it_is() {
        // A submit answer for a job that is already being waited for
        // (its link failed and recovered in between) is ignored.
        let (s, id, expects, _far) = parked(true);
        expects.lock().unwrap()[0].waited = false;
        let queued = r#"{"status":"queued","ticket":9}"#;
        assert_eq!(answer(&s, &expects, queued), Ok(()));
        assert_eq!(state(&s, id), "Remote(0)");
        assert!(expects.lock().unwrap().is_empty(), "and asks nothing new");
    }

    #[test]
    fn a_queued_answer_sends_one_wait_on_the_same_session() {
        let (s, id, expects, mut far) = parked(false);
        let queued = r#"{"status":"queued","ticket":9}"#;
        assert_eq!(answer(&s, &expects, queued), Ok(()));
        assert_eq!(state(&s, id), "Remote(0)");
        let mut sent = [0; 7];
        far.read_exact(&mut sent).unwrap();
        assert_eq!(&sent, b"WAIT 9\n");
        let pending: Vec<_> = expects
            .lock()
            .unwrap()
            .iter()
            .map(|e| (e.id, e.waited))
            .collect();
        assert_eq!(pending, [(id, true)]);
    }

    #[test]
    fn execution_verdicts_relay_instead_of_rerouting() {
        let (s, id, expects, _far) = parked(true);
        let verdict = r#"{"status":"failed","ticket":7,"reason":"audit"}"#;
        assert_eq!(answer(&s, &expects, verdict), Ok(()));
        let reply = s.poll(id);
        assert_eq!(status(&reply), "failed");
        assert_eq!(str_of(&reply, "reason"), "audit");
        assert_eq!(s.core.counters.rerouted.load(Relaxed), 0);
        assert_eq!(s.core.lock().waiting, 0, "a relayed verdict is terminal");
    }
}
