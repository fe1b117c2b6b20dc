//! Raw-fd readiness polling for the event loop: `poll(2)` on Unix, a
//! short-tick fallback elsewhere.

/// Unix implementation: one `poll(2)` call over every interested fd.
#[cfg(unix)]
mod imp {
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    // std links libc on every supported Unix; declaring `poll`
    // directly keeps the workspace dependency-free (same idiom as the
    // `signal` declaration in the tpserve binary).
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout_ms: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// What the loop wants to know about one fd.
    #[derive(Clone, Copy, Default)]
    pub struct Interest {
        pub read: bool,
        pub write: bool,
    }

    /// What the kernel reported. Only read-readiness is surfaced:
    /// the loop flushes any pending output every tick regardless, so
    /// write interest exists purely to wake the poll when a
    /// previously-full socket drains. Errors/hangups surface as
    /// read-readiness so the next nonblocking op observes the failure.
    #[derive(Clone, Copy, Default)]
    pub struct Ready {
        pub read: bool,
    }

    pub type Token = RawFd;

    /// Blocks until any interested fd is ready or `timeout` elapses.
    pub fn wait(entries: &[(Token, Interest)], timeout: Duration) -> Vec<Ready> {
        let mut fds: Vec<PollFd> = entries
            .iter()
            .map(|&(fd, i)| PollFd {
                fd,
                events: if i.read { POLLIN } else { 0 } | if i.write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
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
}

/// Portable fallback: no fd readiness API, so the loop sleeps one
/// short tick and then *attempts* every interested nonblocking op
/// (reads return `WouldBlock` harmlessly when nothing is pending).
#[cfg(not(unix))]
mod imp {
    use std::time::Duration;

    #[derive(Clone, Copy, Default)]
    pub struct Interest {
        pub read: bool,
        pub write: bool,
    }

    #[derive(Clone, Copy, Default)]
    pub struct Ready {
        pub read: bool,
    }

    pub type Token = ();

    pub fn wait(entries: &[(Token, Interest)], timeout: Duration) -> Vec<Ready> {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        entries.iter().map(|&(_, i)| Ready { read: i.read }).collect()
    }
}

pub(crate) use imp::{wait, Interest, Ready, Token};
