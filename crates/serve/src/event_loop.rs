//! The one event loop: a single thread drives the listener, every
//! client connection and every backend link through one `poll(2)`
//! readiness set.
//!
//! Each connection carries its own read/write buffers plus a
//! line-protocol state machine ([`ConnState`]), so a client may
//! **pipeline** requests — write many before reading any response — and
//! responses always come back in request order on that connection. Slow
//! readers get backpressure, not unbounded buffering: once a
//! connection's unsent output passes [`WRITE_BACKPRESSURE_BYTES`] the
//! loop stops parsing *and reading* its input until the peer drains.
//!
//! `WAIT` and `SHUTDOWN` cannot block the loop, so their replies are
//! *deferred*: the connection is [parked](Parked) — it stops parsing
//! further input, which keeps its replies in request order — and the
//! reply is queued in the pass that sees the job terminal, or the last
//! live job finished. A shutdown response in hand still means every
//! accepted request ran, and every parked `WAIT` was answered first.
//! Nothing polls for either: a worker that finishes a job signals
//! [`Core::waker`], which sits in the readiness set, and a backend's
//! answer on a link is handled earlier in the same pass than the
//! parked connections are.
//!
//! The loop also owns the clock: [`Core::tick`] runs once per iteration
//! (TTL reap + deadline scan) and the poll timeout is clamped to the
//! nearest job deadline, so there is no separate monitor thread.

use crate::conn::{ConnState, ListenerKind};
use crate::links::{pump, Link};
use crate::readiness::{self, Interest};
use crate::service::{error_response, response, Core, Dispatch, Parked, JOB_TTL};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpharness::wire::Value;

/// Longest the loop sleeps with no fd ready: bounds how late it notices
/// the external termination flag and a drain that finished with nobody
/// parked on it. Completions do not wait for it; they signal the waker.
const IDLE_TICK: Duration = Duration::from_millis(10);

/// How long idle connections linger after shutdown completes, so
/// clients can still collect responses for drained work.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(2);

/// Per-connection unsent-output soft cap (see the module docs).
const WRITE_BACKPRESSURE_BYTES: usize = 4 * 1024 * 1024;

/// One client connection: buffered stream plus protocol phase.
struct EventConn {
    cs: ConnState,
    /// Hit `WAIT` on a live job or `SHUTDOWN`: parsing is paused
    /// (preserving response order on a pipelined stream) until that
    /// happens and the deferred reply is queued.
    parked: Option<Parked>,
    /// Flush whatever is queued, then drop (framing error or EOF).
    closing: bool,
    /// Hard I/O failure: drop immediately.
    dead: bool,
}

impl EventConn {
    fn new(cs: ConnState) -> EventConn {
        EventConn {
            cs,
            parked: None,
            closing: false,
            dead: false,
        }
    }

    /// Whether the loop should read more input from this peer. Reading
    /// past the backlog cap would only move the unbounded buffer from
    /// the output side to the input side.
    fn wants_read(&self) -> bool {
        !self.closing
            && self.parked.is_none()
            && !self.cs.eof
            && self.cs.pending_out() < WRITE_BACKPRESSURE_BYTES
    }

    /// Parses and dispatches every complete buffered line, stopping at
    /// backpressure, a deferred reply, or a framing error.
    fn process(&mut self, core: &Core) {
        while !self.closing && self.parked.is_none() {
            let line = match self.cs.next_line() {
                Ok(Some(line)) => line,
                // EOF parity with the framed reader: a final
                // unterminated line is still a frame.
                Ok(None) if self.cs.eof => match self.cs.take_partial() {
                    Some(Ok(line)) => line,
                    Some(Err(e)) => return self.fail_framing(&e.message()),
                    None => return,
                },
                Ok(None) => return,
                // Oversized line / bad UTF-8: tell the client, then
                // close (framing is unrecoverable).
                Err(e) => return self.fail_framing(&e.message()),
            };
            if line.is_empty() {
                continue;
            }
            match core.dispatch(&line) {
                Dispatch::Reply(reply) => self.queue_line(&reply),
                Dispatch::Park(on) => self.parked = Some(on),
            }
            if self.cs.pending_out() >= WRITE_BACKPRESSURE_BYTES {
                return;
            }
        }
    }

    /// Queues the reply this connection was parked for and parses
    /// whatever was pipelined behind it.
    fn unpark(&mut self, reply: &str, core: &Core) {
        self.parked = None;
        self.queue_line(reply);
        self.process(core);
    }

    fn fail_framing(&mut self, reason: &str) {
        self.queue_line(&error_response(reason));
        self.closing = true;
    }

    /// Replies reach the loop as encoded lines; framing them is all
    /// that is left to do.
    fn queue_line(&mut self, line: &str) {
        self.cs.queue(line.as_bytes());
        self.cs.queue(b"\n");
    }
}

/// The body of [`Server::run_until`](crate::Server::run_until).
pub(crate) fn run(core: &Arc<Core>, listener: &ListenerKind, term: &AtomicBool) -> io::Result<()> {
    listener.set_nonblocking()?;
    let spawn = |i| {
        let core = Arc::clone(core);
        let worker = std::thread::Builder::new().name(format!("tpserve-worker-{i}"));
        let spawned = worker.spawn(move || core.worker_loop());
        spawned.expect("spawn worker")
    };
    let pool: Vec<_> = (0..core.cfg.workers).map(spawn).collect();
    let result = serve(core, listener, term);
    core.latch(|t| t.stop = true);
    for worker in pool {
        let _ = worker.join();
    }
    listener.cleanup();
    result
}

fn serve(core: &Core, listener: &ListenerKind, term: &AtomicBool) -> io::Result<()> {
    let mut links = Link::for_ring(&core.ring);
    let mut conns: Vec<EventConn> = Vec::new();
    // Set once the drain completes; carries the served count for
    // deferred SHUTDOWN acknowledgements.
    let mut drained_served: Option<u64> = None;

    loop {
        let accepting = drained_served.is_none();
        let now = Instant::now();
        let timeout = match core.tick(now, JOB_TTL) {
            Some(deadline) => IDLE_TICK.min(deadline - now).max(Duration::from_millis(1)),
            None => IDLE_TICK,
        };

        // Readiness set: listener, then clients, then connected links,
        // then the waker.
        let mut interest = Vec::with_capacity(2 + conns.len() + links.len());
        let (read, write) = (accepting, false);
        interest.push((listener.token(), Interest { read, write }));
        interest.extend(conns.iter().map(|c| c.cs.interest(c.wants_read())));
        let known = conns.len();
        for link in links.iter_mut() {
            if let Some(cs) = &link.cs {
                link.slot = Some(interest.len());
                interest.push(cs.interest(true));
            }
        }
        let (read, write) = (true, false);
        interest.push((core.waker.token(), Interest { read, write }));
        let ready = readiness::wait(&interest, timeout);
        if ready[interest.len() - 1].read {
            // Before anything below looks at the job table: a job that
            // turns terminal after that look leaves a wake for the
            // next pass.
            core.waker.drain();
        }

        // Accept every pending connection.
        let mut pending = accepting && ready[0].read;
        while pending {
            match listener.accept() {
                Ok(Some(conn)) => conns.extend(ConnState::new(conn).ok().map(EventConn::new)),
                Ok(None) => pending = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(e) => return Err(e),
            }
        }

        // Client I/O: parse + dispatch. Fresh connections (index >=
        // known) get an immediate first read instead of waiting a tick.
        for (i, c) in conns.iter_mut().enumerate() {
            let read_ready = i >= known || ready[i + 1].read;
            if read_ready && !c.closing && !c.cs.eof && c.cs.fill().is_err() {
                c.dead = true;
                continue;
            }
            c.process(core);
        }

        if !links.is_empty() {
            pump(core, &mut links, &ready);
        }

        // Deferred WAIT replies, after the links so that a backend's
        // answer reaches the client parked on it in this same pass.
        for c in conns.iter_mut() {
            let Some(Parked::Job(id)) = c.parked else {
                continue;
            };
            if let Ok(reply) = core.deliver(id) {
                c.unpark(&reply, core);
            }
        }

        // External termination requests the same graceful drain as a
        // protocol SHUTDOWN.
        if term.load(Ordering::SeqCst) && drained_served.is_none() {
            core.latch(|t| t.draining = true);
        }
        if drained_served.is_none() && core.drain_finished() {
            drained_served = Some(core.counters.served.load(Ordering::Relaxed));
            // The post-drain linger clock starts *now*: a client that
            // sat idle while its work drained still gets the full
            // window to collect responses.
            let now = Instant::now();
            conns.iter_mut().for_each(|c| c.cs.last_activity = now);
        }
        if let Some(served) = drained_served {
            // Deferred SHUTDOWN acknowledgements: queued only now, so a
            // reply in hand means every accepted request ran.
            for c in conns.iter_mut().filter(|c| c.parked == Some(Parked::Drain)) {
                let draining = ("draining", Value::Bool(true));
                let ack = response("ok", vec![draining, ("served", Value::u64(served))]);
                c.unpark(&ack, core);
            }
        }

        // Flush and cull.
        let finished = drained_served.is_some();
        for c in conns.iter_mut() {
            if !c.dead && c.cs.pending_out() > 0 && c.cs.flush().is_err() {
                c.dead = true;
            }
        }
        conns.retain(|c| {
            let flushed = c.cs.pending_out() == 0;
            // Post-drain linger: keep serving WAITs briefly, then close
            // idle connections so the process can exit.
            let lingered = finished && c.cs.last_activity.elapsed() > SHUTDOWN_LINGER;
            let done = c.closing || (c.cs.eof && c.parked.is_none()) || lingered;
            !(c.dead || (flushed && done))
        });
        if finished && conns.is_empty() {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Conn;
    use std::net::{TcpListener, TcpStream};

    /// A connected `EventConn` and the peer end that keeps it open.
    fn pair() -> (EventConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let cs = ConnState::new(Conn::Tcp(stream)).unwrap();
        (EventConn::new(cs), peer)
    }

    #[test]
    fn read_interest_is_gated_on_phase_eof_and_write_backlog() {
        const CAP: usize = WRITE_BACKPRESSURE_BYTES;
        // (closing, parked on, at EOF, bytes owed to the peer) → reads?
        for (closing, parked, eof, owed, reads) in [
            (false, None, false, 0, true),
            (true, None, false, 0, false),
            (false, Some(Parked::Drain), false, 0, false),
            (false, Some(Parked::Job(7)), false, 0, false),
            (false, None, true, 0, false),
            (false, None, false, CAP - 1, true),
            (false, None, false, CAP, false),
            (false, None, false, CAP + 1, false),
        ] {
            let (mut c, _peer) = pair();
            (c.closing, c.parked, c.cs.eof) = (closing, parked, eof);
            c.cs.queue(&vec![b'x'; owed]);
            let what = format!("closing {closing}, parked {parked:?}, eof {eof}, owes {owed}");
            assert_eq!(c.wants_read(), reads, "{what}");
        }
    }
}
