//! The backend side of a fleet: per-backend health and back-off, the
//! forwarder that places a job on the ring's nodes, and [`classify`],
//! what a backend's answer means. Only a core with a non-empty ring
//! ever runs any of this.
//!
//! ## One job, one connection
//!
//! A coordinator forwards an uncached job the way a client submits one.
//! [`forward`] starts one thread for the job, which walks the ring's
//! candidates ([`HashRing::candidates`]) in order. For each it opens a
//! [`Client`] connection of the job's own — a connect is bounded by
//! 250 ms, and a backend whose connection failed is skipped for the
//! next 250 ms — sends the payload verbatim as `SUBMIT` and, on
//! `queued`, one `WAIT` for the ticket on the same connection. The
//! backend answers that `WAIT` when the job is over; nothing polls. So
//! a remote job costs one connection, one `SUBMIT` and at most one
//! `WAIT` per backend it is placed on, and no job's answer waits behind
//! another's. The coordinator's bounded job table bounds the forwarders
//! and connections in flight; a backend serves each connection on its
//! own thread.
//!
//! ## Reroute vs relay
//!
//! *Placement* failures (this backend can't run the job) reroute;
//! *execution* verdicts (the job ran and terminally failed) relay:
//!
//! * **Reroute** — connect refused, mid-flight disconnect, a `rejected`
//!   submit (backend draining or queue-full), an unparseable or
//!   incomplete response (`queued` without a ticket; a `done` whose
//!   `report` is not the canonical encoding of a report), or a `WAIT`
//!   answered with anything but a verdict — the unknown-ticket `error`
//!   of a restarted backend, or a `queued`/`running` from one that does
//!   not hold the reply back. The forwarder tries the next distinct
//!   ring node, each at most once; when every backend has been tried or
//!   is down the job runs in the local pool. Each landing away from the
//!   primary bumps `rerouted` (and the departed backend's
//!   `rerouted_away`).
//! * **Relay** — `deadline-exceeded` and `failed` are real outcomes of
//!   running the job; retrying elsewhere would waste a deadline that
//!   already expired or re-run a deterministic failure.
//!
//! Results are content-addressed by the canonical request string end
//! to end, so a rerouted job's report is byte-identical wherever it
//! finally ran — the fleet-equivalence suite pins that.
//!
//! ## Stopping
//!
//! While its forwarder talks to a backend a job is
//! [`JobState::Remote`], which holds a handle on the connection. A
//! stopping run shuts every such connection, so the blocked call
//! returns, and a forwarder that finds the run stopping places its job
//! nowhere else.

use crate::client::Client;
use crate::conn::Conn;
use crate::ring::HashRing;
use crate::service::{bump, is_canonical_report, Core, JobState, Spec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use tpharness::wire::Value;

/// Bound on one blocking connect attempt: a black-holed backend address
/// costs at most this, not a kernel default.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// How long a backend whose connection failed is skipped.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(250);

/// Per-backend health and routing stats (surfaced in STATS).
#[derive(Default)]
pub(crate) struct BackendStats {
    /// The last connection to this backend opened, and each answer on
    /// it could be read.
    pub(crate) up: AtomicBool,
    /// Jobs forwarded to this backend.
    pub(crate) routed: AtomicU64,
    /// Jobs this backend completed.
    pub(crate) completed: AtomicU64,
    /// Jobs whose primary was this backend but which landed elsewhere.
    pub(crate) rerouted_away: AtomicU64,
}

/// One ring node: where it is, its stats, and its back-off.
pub(crate) struct Backend {
    pub(crate) addr: String,
    pub(crate) stats: BackendStats,
    /// When a connection to it last failed.
    failed: Mutex<Option<Instant>>,
}

impl Backend {
    /// One per ring node, in ring order; nothing dials until the first
    /// job is forwarded.
    pub(crate) fn for_ring(ring: &HashRing) -> Vec<Backend> {
        let backend = |index| Backend {
            addr: ring.addr(index).to_string(),
            stats: BackendStats::default(),
            failed: Mutex::default(),
        };
        (0..ring.len()).map(backend).collect()
    }

    /// A new connection and a handle that shuts it; `None` while the
    /// back-off lasts or if the connect fails.
    fn connect(&self) -> Option<(Client, Conn)> {
        let failed = *self.failed.lock().expect("backend lock");
        if failed.is_some_and(|at| at.elapsed() < RECONNECT_BACKOFF) {
            return None;
        }
        let client = Client::connect_timeout(&self.addr, CONNECT_TIMEOUT);
        match client.and_then(|c| Ok((c.handle()?, c))) {
            Ok((handle, client)) => {
                self.stats.up.store(true, Relaxed);
                Some((client, handle))
            }
            Err(_) => {
                self.fail();
                None
            }
        }
    }

    /// A connect failed, or an answer could not be read: the backend is
    /// down, and skipped for [`RECONNECT_BACKOFF`].
    fn fail(&self) {
        self.stats.up.store(false, Relaxed);
        *self.failed.lock().expect("backend lock") = Some(Instant::now());
    }
}

/// What one answer of a backend means for the job placed on it.
#[derive(Debug, PartialEq)]
pub(crate) enum Answer<'a> {
    /// The `SUBMIT` was accepted under this ticket: `WAIT` for it.
    Queued(u64),
    /// The job's report, admitted by the store's rule.
    Done {
        report: &'a str,
        cached: bool,
    },
    Failed(&'a str),
    DeadlineExceeded,
    /// The placement is void: try the next candidate.
    Void,
}

/// What `reply` means: the answer to a job's `SUBMIT`, or (`waited`)
/// to its `WAIT`; `None` when no answer could be read.
pub(crate) fn classify(reply: Option<&Value>, waited: bool) -> Answer<'_> {
    let field = |name: &str| reply.and_then(|v| v.get(name));
    let status = field("status").and_then(Value::as_str).unwrap_or("");
    match (status, waited) {
        // The report's text goes into the cache under the job's
        // canonical key as it arrived, admitted by the store's rule: it
        // decodes as a report and is exactly that report's encoding,
        // the only spelling the cache holds.
        ("done", _) => match field("report") {
            Some(Value::Encoded(report)) if is_canonical_report(report) => Answer::Done {
                report,
                cached: field("cached").and_then(Value::as_bool).unwrap_or(false),
            },
            _ => Answer::Void,
        },
        ("queued", false) => field("ticket")
            .and_then(Value::as_u64)
            .map_or(Answer::Void, Answer::Queued),
        ("deadline-exceeded", true) => Answer::DeadlineExceeded,
        ("failed", true) => Answer::Failed(
            field("reason")
                .and_then(Value::as_str)
                .unwrap_or("backend reported failure"),
        ),
        // `rejected`, garbage, or — to a `WAIT` — an `error` (the
        // backend lost the ticket) or a status that is no verdict.
        _ => Answer::Void,
    }
}

/// Counts a job landing on `to` (`None`: the local pool). A landing
/// anywhere but the primary is a reroute, attributed to the backend the
/// job came `from` (retry) or to the unreachable primary (first
/// placement).
fn land(core: &Core, from: Option<usize>, to: Option<usize>, primary: Option<usize>) {
    let away_from_primary = primary.filter(|&p| Some(p) != to);
    if let Some(from) = from.or(away_from_primary) {
        bump(&core.counters.rerouted);
        bump(&core.backends[from].stats.rerouted_away);
    }
}

/// Starts the forwarder of routing job `id`. Without a thread for it
/// the job goes to the local pool.
pub(crate) fn forward(core: &Arc<Core>, id: u64, spec: Arc<Spec>) {
    let cands = core.ring.candidates(HashRing::job_point(&spec.canonical));
    let primary = cands.first().copied();
    let forwarder = Arc::clone(core);
    let started = thread::Builder::new().spawn(move || place(&forwarder, id, &spec, &cands));
    if started.is_err() {
        land(core, None, None, primary);
        core.run_locally(&mut core.lock(), id);
    }
}

/// A forwarder: places job `id` on the first candidate that answers it
/// with a verdict, else hands it to the local pool.
fn place(core: &Core, id: u64, spec: &Spec, cands: &[usize]) {
    let primary = cands.first().copied();
    let mut from = None;
    for &b in cands {
        let backend = &core.backends[b];
        let Some((mut client, handle)) = backend.connect() else {
            continue;
        };
        {
            let mut t = core.lock();
            if t.stop {
                return;
            }
            t.set_state(id, JobState::Remote(handle));
        }
        land(core, from, Some(b), primary);
        bump(&core.counters.forwarded);
        bump(&backend.stats.routed);
        let mut line = format!("SUBMIT {}", spec.payload);
        let mut waited = false;
        let verdict = loop {
            let reply = client.request(&line);
            if reply.is_err() {
                backend.fail();
            }
            match classify(reply.as_ref().ok(), waited) {
                Answer::Queued(ticket) => {
                    line = format!("WAIT {ticket}");
                    waited = true;
                }
                Answer::Done { report, cached } => {
                    let report = core.publish(&spec.canonical, report);
                    bump(&core.counters.served);
                    bump(&backend.stats.completed);
                    break Some(JobState::Done { cached, report });
                }
                Answer::Failed(reason) => {
                    bump(&core.counters.failed);
                    break Some(JobState::Failed(reason.to_string()));
                }
                Answer::DeadlineExceeded => {
                    bump(&core.counters.cancelled);
                    break Some(JobState::DeadlineExceeded);
                }
                Answer::Void => break None,
            }
        };
        // Closed before the job settles, so a drained coordinator has
        // no forward connection open.
        drop(client);
        let mut t = core.lock();
        match verdict {
            Some(verdict) => return core.settle(&mut t, id, verdict),
            None if t.stop => return,
            None => t.set_state(id, JobState::Routing),
        }
        from = Some(b);
    }
    let mut t = core.lock();
    if !t.stop {
        land(core, from, None, primary);
        core.run_locally(&mut t, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::request;
    use tpharness::wire;

    /// What each `(waited, line, expected)` case says `line` means as the
    /// answer to a `SUBMIT` or (`waited`) a `WAIT`.
    fn check(cases: &[(bool, &str, Answer<'_>)]) {
        for (waited, line, expected) in cases {
            let reply = wire::parse_reply(line).ok();
            let what = format!("{line} (waited: {waited})");
            assert_eq!(&classify(reply.as_ref(), *waited), expected, "{what}");
        }
    }

    #[test]
    fn malformed_backend_answers_reroute_the_job() {
        check(&[
            (false, "\u{1}garbage, not json", Answer::Void),
            (true, "\u{1}garbage, not json", Answer::Void),
            (false, r#"{"status":"done","cached":false}"#, Answer::Void),
            (true, r#"{"status":"done","cached":false}"#, Answer::Void),
            (false, r#"{"status":"queued","key":"0"}"#, Answer::Void),
            (
                false,
                r#"{"status":"rejected","reason":"queue-full"}"#,
                Answer::Void,
            ),
            (
                true,
                r#"{"status":"error","reason":"unknown ticket 7"}"#,
                Answer::Void,
            ),
            // A WAIT is answered with a verdict or not at all.
            (true, r#"{"status":"running","ticket":7}"#, Answer::Void),
            (true, r#"{"status":"queued","ticket":7}"#, Answer::Void),
        ]);
        assert_eq!(classify(None, true), Answer::Void, "EOF or an I/O error");
    }

    #[test]
    fn execution_verdicts_relay_instead_of_rerouting() {
        let job = request(r#"{"workload":"gap.bfs","scale":"test"}"#);
        let report = wire::encode_sim_report(&job.run(&tpsim::CancelToken::new()).unwrap());
        let done =
            format!(r#"{{"status":"done","ticket":7,"key":"0","cached":true,"report":{report}}}"#);
        // The right report with one space added: it decodes, but it is
        // not the encoder's bytes.
        let spaced = done.replacen(r#""cores":"#, r#""cores": "#, 1);
        let relayed = Answer::Done {
            report: &report,
            cached: true,
        };
        check(&[
            (
                false,
                r#"{"status":"queued","ticket":7,"key":"0"}"#,
                Answer::Queued(7),
            ),
            (
                true,
                r#"{"status":"failed","ticket":7,"reason":"audit"}"#,
                Answer::Failed("audit"),
            ),
            (
                true,
                r#"{"status":"deadline-exceeded","ticket":7}"#,
                Answer::DeadlineExceeded,
            ),
            // A verdict answers a WAIT, never a SUBMIT.
            (
                false,
                r#"{"status":"failed","reason":"audit"}"#,
                Answer::Void,
            ),
            (true, &done, relayed),
            // A backend's cache hit answers the SUBMIT itself.
            (
                false,
                &done,
                Answer::Done {
                    report: &report,
                    cached: true,
                },
            ),
            (true, &spaced, Answer::Void),
        ]);
    }
}
