//! Raw-fd readiness polling for the event loop — one `poll(2)` call
//! over every interested fd — plus the [`Waker`] other threads use to
//! end a wait early.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

// std links libc on every supported Unix; declaring `poll` directly
// keeps the workspace dependency-free (same idiom as the `signal`
// declaration in the tpserve binary).
extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// What the loop wants to know about one fd.
#[derive(Clone, Copy, Default)]
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

/// What the kernel reported. Only read-readiness is surfaced: the loop
/// flushes any pending output every tick regardless, so write interest
/// exists purely to wake the poll when a previously-full socket drains.
/// Errors/hangups surface as read-readiness so the next nonblocking op
/// observes the failure.
#[derive(Clone, Copy, Default)]
pub(crate) struct Ready {
    pub(crate) read: bool,
}

pub(crate) type Token = RawFd;

/// Blocks until any interested fd is ready or `timeout` elapses.
pub(crate) fn wait(entries: &[(Token, Interest)], timeout: Duration) -> Vec<Ready> {
    let mut fds: Vec<PollFd> = entries
        .iter()
        .map(|&(fd, i)| PollFd {
            // `poll` reports a hangup whatever was asked for, and skips
            // a negative fd. A connection the loop is not reading
            // (parked on a `WAIT`, say) must not end every wait at once
            // because its peer left.
            fd: if i.read || i.write { fd } else { -1 },
            events: if i.read { POLLIN } else { 0 } | if i.write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed buffer of
    // `fds.len()` `#[repr(C)]` `pollfd`s for the whole call, and `poll`
    // writes only their `revents` fields.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms) };
    if n <= 0 {
        // Timeout or EINTR: nothing ready; the loop ticks anyway.
        return vec![Ready::default(); entries.len()];
    }
    fds.iter()
        .map(|p| Ready {
            read: p.revents & (POLLIN | POLLERR | POLLHUP) != 0,
        })
        .collect()
}

/// Ends the event loop's [`wait`] from another thread: a worker that
/// finished a job, or a latch flip. A nonblocking socket pair whose
/// read end sits in the poll set; the bytes carry nothing.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Never blocks and cannot fail the caller: a full pipe
    /// (`WouldBlock`) means a wake is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// The read end, for the poll set.
    pub(crate) fn token(&self) -> Token {
        self.rx.as_raw_fd()
    }

    /// Swallows every pending wake. The loop calls this *before* it
    /// looks at the job table, so a completion it is about to miss
    /// leaves a wake behind for the next pass.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 256];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::service::tests::{decoded, status, ticket, Shape};
    use crate::service::{Dispatch, Parked};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const READ: Interest = Interest {
        read: true,
        write: false,
    };

    #[test]
    fn a_finishing_worker_ends_a_long_wait_and_the_parked_wait_is_answered() {
        let s = Shape::new(ServerConfig::default(), &[]);
        // Past its deadline before a worker claims it: terminal without
        // a simulation whose length the assertion would depend on.
        let doomed = r#"SUBMIT {"workload":"gap.bfs","scale":"test","deadline_ms":1}"#;
        let id = ticket(&s.reply(doomed));
        let parked = s.core.dispatch(&format!("WAIT {id}"));
        assert!(matches!(parked, Dispatch::Park(Parked::Job(on)) if on == id));
        std::thread::sleep(Duration::from_millis(2));

        let core = Arc::clone(&s.core);
        let worker = std::thread::spawn(move || core.worker_loop());
        // The loop's side, with no socket in the set and a timeout far
        // beyond what the test allows itself: only the wake ends it.
        let blocked = Instant::now();
        let reply = loop {
            wait(&[(s.core.waker.token(), READ)], Duration::from_secs(30));
            s.core.waker.drain();
            if let Ok(reply) = s.core.deliver(id) {
                break reply;
            }
        };
        assert_eq!(status(&decoded(&reply)), "deadline-exceeded");
        let woken = blocked.elapsed() < Duration::from_secs(1);
        assert!(woken, "the 30 s timeout is what ended the wait");
        s.core.latch(|t| t.stop = true);
        worker.join().expect("worker exits on stop");
    }

    #[test]
    fn wakes_nobody_drains_never_block_or_fail_and_read_as_one() {
        let waker = Waker::new().expect("socket pair");
        // Far more than the socket buffers: most of these hit
        // `WouldBlock`, which `wake` takes to mean "already pending".
        for _ in 0..10_000 {
            waker.wake();
        }
        let set = [(waker.token(), READ)];
        assert!(wait(&set, Duration::ZERO)[0].read);
        waker.drain();
        let still = wait(&set, Duration::ZERO)[0].read;
        assert!(!still, "one drain clears them all");
    }
}
