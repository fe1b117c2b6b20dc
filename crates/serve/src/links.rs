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
//!   incomplete response, or a `WAIT` answered with anything but a
//!   verdict — the unknown-ticket `error` of a restarted backend, or a
//!   `queued`/`running` from one that does not hold the reply back. The
//!   job returns to `routing` and tries the next
//!   distinct ring node ([`HashRing::candidates`]), each at most once;
//!   when every backend has been tried or is down it runs in the local
//!   pool. Each landing away from the primary bumps `rerouted` (and the
//!   departed backend's `rerouted_away`).
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
//! ## One `SUBMIT`, one `WAIT`
//!
//! A remote job costs exactly two lines on its link: the `SUBMIT`, and
//! a `WAIT` sent the moment the backend's `queued` arrives. The backend
//! parks the link on it and answers when the job is terminal; nothing
//! is polled. Request order is the protocol's one head-of-line rule and
//! it applies here: the backend reads nothing further from a link
//! parked on a `WAIT`, so a later `WAIT` — or `SUBMIT` — on the same
//! link is held until the older job finishes. A backend runs its queue
//! FIFO, so a later `WAIT` is delayed by at most the older job's
//! remaining run time; a sweep pipelines its `SUBMIT`s, so they
//! normally reach the backend ahead of the first `WAIT`.

use crate::conn::{Conn, ConnState};
use crate::readiness::Ready;
use crate::ring::HashRing;
use crate::service::{bump, BackendStats, Core, Job, JobState};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpharness::wire::{self, Value};

/// Bound on one blocking connect attempt from the event loop: a
/// black-holed backend address costs at most this, not a kernel default.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Minimum time between connect attempts to a down backend.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(250);

/// What the next response line on a link answers: job `id`'s `SUBMIT`,
/// or (`waited`) its `WAIT`.
struct Expect {
    id: u64,
    waited: bool,
}

/// One persistent backend connection plus its expectation queue.
#[derive(Default)]
pub(crate) struct Link {
    addr: String,
    pub(crate) cs: Option<ConnState>,
    /// Where the event loop put this link in the current poll set.
    pub(crate) slot: Option<usize>,
    expects: VecDeque<Expect>,
    /// Last connect attempt (gates the reconnect backoff).
    last_attempt: Option<Instant>,
}

impl Link {
    /// One unconnected link per ring node; nothing dials until the
    /// first job routes.
    pub(crate) fn for_ring(ring: &HashRing) -> Vec<Link> {
        let unconnected = |i| Link {
            addr: ring.addr(i).to_string(),
            ..Link::default()
        };
        (0..ring.len()).map(unconnected).collect()
    }

    /// Ensures a live connection, respecting the backoff.
    fn ensure(&mut self, stats: &BackendStats, now: Instant) -> bool {
        if self.cs.is_some() {
            return true;
        }
        let backing_off = |t| now.duration_since(t) < RECONNECT_BACKOFF;
        if self.last_attempt.is_some_and(backing_off) {
            return false;
        }
        self.last_attempt = Some(now);
        self.cs = Conn::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .and_then(ConnState::new)
            .ok();
        let up = self.cs.is_some();
        stats.up.store(up, Relaxed);
        if up {
            bump(&stats.connects);
        }
        up
    }

    /// Tears the link down and re-routes every job assigned to backend
    /// `bi` (outstanding expectations included).
    pub(crate) fn fail(&mut self, core: &Core, bi: usize) {
        self.cs = None;
        self.last_attempt = Some(Instant::now());
        self.expects.clear();
        core.backends[bi].up.store(false, Relaxed);
        let mut t = core.lock();
        let stranded: Vec<u64> = t
            .jobs
            .iter()
            .filter(|(_, j)| match j.state {
                JobState::AwaitSubmit(b) | JobState::Remote(b) => b == bi,
                _ => false,
            })
            .map(|(&id, _)| id)
            .collect();
        for id in stranded {
            t.set_state(id, JobState::Routing);
        }
    }

    /// Applies every complete buffered response line. `Err(())` means
    /// the link is broken (EOF, framing violation, or a response nothing
    /// was waiting for) and must be [failed](Link::fail).
    fn service(&mut self, core: &Core, bi: usize) -> Result<(), ()> {
        while let Some(cs) = self.cs.as_mut() {
            match cs.next_line() {
                Ok(Some(line)) if line.is_empty() => {}
                Ok(Some(line)) => self.on_line(core, bi, &line)?,
                Ok(None) if cs.eof => return Err(()),
                Ok(None) => break,
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Applies one response line to the job its FIFO slot names.
    fn on_line(&mut self, core: &Core, bi: usize, line: &str) -> Result<(), ()> {
        let Expect { id, waited } = self.expects.pop_front().ok_or(())?;
        let reply = wire::parse(line).ok();
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
        let next = match (status, waited) {
            // The report goes into the cache under the job's canonical
            // key as the encoding of its parsed tree: the backend's
            // literals, in the only spelling the cache holds. A `done`
            // with no report is a protocol bug: reroute.
            ("done", _) => match field("report") {
                Some(report) => {
                    core.publish(&job.spec.canonical, &report.encode());
                    bump(&core.counters.served);
                    bump(&core.backends[bi].completed);
                    let cached = field("cached").and_then(Value::as_bool).unwrap_or(false);
                    JobState::Done { cached }
                }
                None => JobState::Routing,
            },
            // Accepted: ask, once, to be told when it is over.
            ("queued", false) => match (field("ticket").and_then(Value::as_u64), &mut self.cs) {
                (Some(ticket), Some(cs)) => {
                    cs.queue(format!("WAIT {ticket}\n").as_bytes());
                    self.expects.push_back(Expect { id, waited: true });
                    JobState::Remote(bi)
                }
                _ => JobState::Routing,
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
        t.set_state(id, next);
        Ok(())
    }
}

/// Routes every `routing` job: first untried, reachable candidate in
/// ring order, else the local pool. Connect attempts happen outside
/// the table lock so a slow connect can't stall workers.
pub(crate) fn route_jobs(core: &Core, links: &mut [Link]) {
    let routing = |(&id, j): (&u64, &Job)| {
        matches!(j.state, JobState::Routing).then(|| (id, Arc::clone(&j.spec), j.attempts.clone()))
    };
    let pending: Vec<_> = core.lock().jobs.iter().filter_map(routing).collect();
    for (id, spec, attempts) in pending {
        let cands = core.ring.candidates(HashRing::job_point(&spec.canonical));
        let now = Instant::now();
        let chosen = cands
            .iter()
            .copied()
            .find(|&b| !attempts.contains(&b) && links[b].ensure(&core.backends[b], now));

        let mut t = core.lock();
        let Some(job) = t.jobs.get_mut(&id) else {
            continue;
        };
        // A landing anywhere but the primary is a reroute; attribute
        // the departure to the backend the job came from (retry) or to
        // the unreachable primary (first routing).
        let primary = cands.first().copied().filter(|&p| Some(p) != chosen);
        if let Some(from) = job.attempts.last().copied().or(primary) {
            bump(&core.counters.rerouted);
            bump(&core.backends[from].rerouted_away);
        }
        match chosen {
            Some(b) => {
                let cs = links[b].cs.as_mut().expect("ensure left a live conn");
                cs.queue(format!("SUBMIT {}\n", spec.payload).as_bytes());
                links[b].expects.push_back(Expect { id, waited: false });
                job.attempts.push(b);
                t.set_state(id, JobState::AwaitSubmit(b));
                bump(&core.counters.forwarded);
                bump(&core.backends[b].routed);
            }
            None => core.run_locally(&mut t, id),
        }
    }
}

/// One event-loop pass over the fleet. Responses are read first (they
/// may re-route jobs, and each `queued` queues its `WAIT`), then jobs
/// are routed, then output is flushed — so a failure and its reroute
/// happen in the same pass.
/// `ready` is what the poll set built from [`Link::slot`]s reported.
pub(crate) fn pump(core: &Core, links: &mut [Link], ready: &[Ready]) {
    for (bi, link) in links.iter_mut().enumerate() {
        let readable = link.slot.take().is_some_and(|slot| ready[slot].read);
        let read_failed = readable && link.cs.as_mut().is_some_and(|cs| cs.fill().is_err());
        if read_failed || link.service(core, bi).is_err() {
            link.fail(core, bi);
        }
    }
    route_jobs(core, links);
    // A write failure is a link failure.
    let unsent = |cs: &mut ConnState| cs.pending_out() > 0 && cs.flush().is_err();
    for (bi, link) in links.iter_mut().enumerate() {
        if link.cs.as_mut().is_some_and(unsent) {
            link.fail(core, bi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::service::tests::{dead_addr, status, str_of, ticket, Shape};

    /// A two-node ring whose backends refuse connections, with one job
    /// parked on backend 0 as if its link had been live: awaiting the
    /// submit response (`waited` false) or accepted and waited for.
    fn parked(waited: bool) -> (Shape, u64) {
        let mut s = Shape::new(ServerConfig::default(), &[dead_addr(), dead_addr()]);
        let id = ticket(&s.reply(r#"SUBMIT {"workload":"gap.bfs","scale":"test"}"#));
        let state = if waited {
            JobState::Remote(0)
        } else {
            JobState::AwaitSubmit(0)
        };
        s.core.lock().jobs.get_mut(&id).unwrap().attempts.push(0);
        s.core.lock().set_state(id, state);
        s.links[0].expects.push_back(Expect { id, waited });
        (s, id)
    }

    /// What backend 0 says next.
    fn answer(s: &mut Shape, line: &str) -> Result<(), ()> {
        s.links[0].on_line(&s.core, 0, line)
    }

    fn state(s: &Shape, id: u64) -> String {
        format!("{:?}", s.core.lock().jobs[&id].state)
    }

    /// After any placement failure the job must re-route — here, with
    /// backend 1 refusing too, all the way to the local pool — and the
    /// departure from backend 0 must be counted.
    fn assert_rerouted_to_local_pool(mut s: Shape, id: u64) {
        assert_eq!(state(&s, id), "Routing", "placement failed");
        route_jobs(&s.core, &mut s.links);
        assert_eq!(state(&s, id), "LocalQueued");
        assert_eq!(s.core.counters.local_jobs.load(Relaxed), 1);
        assert_eq!(s.core.counters.rerouted.load(Relaxed), 1);
        assert_eq!(s.core.backends[0].rerouted_away.load(Relaxed), 1);
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
            let (mut s, id) = parked(waited);
            assert_eq!(answer(&mut s, line), Ok(()), "{line}");
            assert!(s.links[0].expects.is_empty());
            assert_rerouted_to_local_pool(s, id);
        }
    }

    #[test]
    fn an_answer_nobody_asked_for_fails_the_link_and_reroutes_its_jobs() {
        let (mut s, id) = parked(true);
        s.links[0].expects.clear();
        let unasked = answer(&mut s, r#"{"status":"ok","pong":true}"#);
        assert_eq!(unasked, Err(()), "the loop must fail this link");
        s.links[0].fail(&s.core, 0);
        assert_rerouted_to_local_pool(s, id);
    }

    #[test]
    fn a_stale_answer_leaves_the_job_where_it_is() {
        // A submit answer for a job that is already being waited for
        // (its link failed and recovered in between) is ignored.
        let (mut s, id) = parked(true);
        s.links[0].expects[0].waited = false;
        assert_eq!(answer(&mut s, r#"{"status":"queued","ticket":9}"#), Ok(()));
        assert_eq!(state(&s, id), "Remote(0)");
        assert!(s.links[0].expects.is_empty(), "and asks nothing new");
    }

    #[test]
    fn execution_verdicts_relay_instead_of_rerouting() {
        let (mut s, id) = parked(true);
        let verdict = r#"{"status":"failed","ticket":7,"reason":"audit"}"#;
        assert_eq!(answer(&mut s, verdict), Ok(()));
        let reply = s.poll(id);
        assert_eq!(status(&reply), "failed");
        assert_eq!(str_of(&reply, "reason"), "audit");
        assert_eq!(s.core.counters.rerouted.load(Relaxed), 0);
        assert_eq!(s.core.lock().waiting, 0, "a relayed verdict is terminal");
    }
}
