//! A tiny stream abstraction (TCP or Unix-domain) shared by the event
//! loop, client, and tests — plus the per-connection state machine the
//! loop runs: nonblocking read/write buffers and a newline-delimited
//! line splitter with the protocol's byte cap enforced while
//! buffering, and the listener wrapper the loop accepts through.

use crate::protocol::MAX_LINE_BYTES;
use crate::readiness;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A connected byte stream (TCP or Unix-domain).
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Every TCP stream the crate creates passes through here: the
    /// protocol is request/response lines, so Nagle only ever adds a
    /// delayed-ACK wait (~40 ms) to a line split across two segments.
    /// Failing to set the option costs latency, never correctness, and
    /// on an accepted socket must not take the listener down.
    fn tcp(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn::Tcp(stream)
    }

    /// Connects to `addr`: `unix:PATH` selects a Unix-domain socket,
    /// anything else is a TCP `host:port`.
    pub(crate) fn connect(addr: &str) -> io::Result<Conn> {
        if let Some(path) = addr.strip_prefix("unix:") {
            return Ok(Conn::Unix(UnixStream::connect(path)?));
        }
        Ok(Conn::tcp(TcpStream::connect(addr)?))
    }

    /// Connects like [`Conn::connect`], but bounds how long a TCP
    /// connection attempt may block — the event loop calls this when
    /// (re)establishing backend links, so a black-holed
    /// backend address costs at most `timeout`, not a kernel default.
    /// Unix-domain connects either succeed or fail immediately.
    pub(crate) fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Conn> {
        if addr.starts_with("unix:") {
            return Conn::connect(addr);
        }
        let mut last = None;
        for sa in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, timeout) {
                Ok(s) => return Ok(Conn::tcp(s)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no addresses for {addr}"))
        }))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            Conn::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Raw fd for readiness polling.
    fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Listeners
// ---------------------------------------------------------------------

/// A bound listening socket (TCP or Unix-domain), accepted through by
/// the event loop.
pub(crate) enum ListenerKind {
    Tcp(TcpListener),
    Unix {
        listener: UnixListener,
        path: PathBuf,
    },
}

impl ListenerKind {
    /// Binds to `spec`: `unix:PATH` for a Unix-domain socket, otherwise
    /// a TCP `host:port` (port `0` picks a free port). Returns the
    /// listener plus its resolved, connectable address.
    pub(crate) fn bind(spec: &str) -> io::Result<(ListenerKind, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            let pb = PathBuf::from(path);
            // A stale socket file from a dead server blocks rebinding.
            let _ = std::fs::remove_file(&pb);
            let listener = UnixListener::bind(&pb)?;
            return Ok((
                ListenerKind::Unix { listener, path: pb },
                format!("unix:{path}"),
            ));
        }
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?.to_string();
        Ok((ListenerKind::Tcp(listener), addr))
    }

    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            ListenerKind::Tcp(l) => l.set_nonblocking(true),
            ListenerKind::Unix { listener, .. } => listener.set_nonblocking(true),
        }
    }

    pub(crate) fn token(&self) -> readiness::Token {
        match self {
            ListenerKind::Tcp(l) => l.as_raw_fd(),
            ListenerKind::Unix { listener, .. } => listener.as_raw_fd(),
        }
    }

    /// Removes the Unix socket file, if any (called on loop exit).
    pub(crate) fn cleanup(&self) {
        if let ListenerKind::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Accepts one pending connection, or `None` on `WouldBlock`.
    pub(crate) fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            ListenerKind::Tcp(l) => match l.accept() {
                Ok((s, _)) => Conn::tcp(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            ListenerKind::Unix { listener, .. } => match listener.accept() {
                Ok((s, _)) => Conn::Unix(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        Ok(Some(conn))
    }
}

// ---------------------------------------------------------------------
// Event-loop connection state
// ---------------------------------------------------------------------

/// Most bytes one [`ConnState::fill`] call takes in (a 256-deep
/// pipelined batch is about half of it). A peer that writes as fast as
/// the loop reads would otherwise never hit `WouldBlock`: one call
/// would starve every other connection and grow the buffer past
/// anything write backpressure could bound. Polling is level-triggered,
/// so the rest is reported again next iteration.
const FILL_BUDGET: usize = 64 * 1024;

/// What a nonblocking read pass observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FillOutcome {
    /// At least one byte arrived (more may still be buffered).
    Progress,
    /// Nothing readable right now (`WouldBlock`).
    Idle,
    /// The peer closed its write side; buffered bytes remain valid.
    Eof,
}

/// Why a buffered line could not be produced.
#[derive(Debug)]
pub(crate) enum LineError {
    /// More than [`MAX_LINE_BYTES`] without a newline — framing is
    /// unrecoverable on this connection.
    Oversized,
    /// The line was not UTF-8.
    NotUtf8,
}

impl LineError {
    pub(crate) fn message(&self) -> String {
        match self {
            LineError::Oversized => format!("line exceeds {MAX_LINE_BYTES} bytes"),
            LineError::NotUtf8 => "frame is not UTF-8".to_string(),
        }
    }
}

/// One event-loop connection: the stream plus its unparsed input,
/// unsent output, and activity clock. All I/O is nonblocking; the
/// event loop drives [`ConnState::fill`] on read-readiness,
/// [`ConnState::next_line`] until the buffer is dry, and
/// [`ConnState::flush`] on write-readiness.
pub(crate) struct ConnState {
    conn: Conn,
    rbuf: Vec<u8>,
    /// Already-parsed prefix of `rbuf` (compacted once per fill, so a
    /// deep pipeline is split without moving its tail once per line).
    rpos: usize,
    wbuf: Vec<u8>,
    /// Already-written prefix of `wbuf` (compacted opportunistically).
    wpos: usize,
    /// Peer closed its write side; serve what is buffered, then close.
    pub(crate) eof: bool,
    pub(crate) last_activity: Instant,
}

impl ConnState {
    pub(crate) fn new(conn: Conn) -> io::Result<ConnState> {
        conn.set_nonblocking(true)?;
        Ok(ConnState {
            conn,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            last_activity: Instant::now(),
        })
    }

    /// Readiness token for the event loop's poll set.
    pub(crate) fn token(&self) -> readiness::Token {
        self.conn.raw_fd()
    }

    /// This connection's entry in the poll set: the caller decides
    /// whether to read; write interest follows the unsent output.
    pub(crate) fn interest(&self, read: bool) -> (readiness::Token, readiness::Interest) {
        let write = self.pending_out() > 0;
        (self.token(), readiness::Interest { read, write })
    }

    /// Reads until `WouldBlock`/EOF or [`FILL_BUDGET`] bytes, appending
    /// to the input buffer. Each read is capped at what is left of the
    /// budget, so the unparsed input (at most [`MAX_LINE_BYTES`] once
    /// [`ConnState::next_line`] has run dry) never exceeds their sum.
    ///
    /// # Errors
    /// Hard I/O errors (connection reset, ...); the caller drops the
    /// connection.
    pub(crate) fn fill(&mut self) -> io::Result<FillOutcome> {
        self.compact();
        let mut tmp = [0u8; 16 * 1024];
        let mut taken = 0;
        loop {
            let want = tmp.len().min(FILL_BUDGET - taken);
            match self.conn.read(&mut tmp[..want]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(FillOutcome::Eof);
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    self.last_activity = Instant::now();
                    taken += n;
                    if taken >= FILL_BUDGET {
                        return Ok(FillOutcome::Progress);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if taken > 0 {
                        FillOutcome::Progress
                    } else {
                        FillOutcome::Idle
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops the parsed prefix of the input buffer and returns how many
    /// bytes that moved: the unparsed tail moves once per fill, not
    /// once per line.
    fn compact(&mut self) -> usize {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        self.rbuf.len()
    }

    /// Pops the next complete line (CR stripped) from the input
    /// buffer, or `Ok(None)` if no full line is buffered yet.
    ///
    /// # Errors
    /// [`LineError`] for an oversized or non-UTF-8 line; framing on
    /// this connection is unrecoverable afterwards.
    pub(crate) fn next_line(&mut self) -> Result<Option<String>, LineError> {
        let unparsed = &self.rbuf[self.rpos..];
        match unparsed.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if i > MAX_LINE_BYTES {
                    return Err(LineError::Oversized);
                }
                let mut line = &unparsed[..i];
                if line.last() == Some(&b'\r') {
                    line = &line[..i - 1];
                }
                let line = std::str::from_utf8(line).map(str::to_string);
                self.rpos += i + 1;
                line.map(Some).map_err(|_| LineError::NotUtf8)
            }
            None if unparsed.len() > MAX_LINE_BYTES => Err(LineError::Oversized),
            None => Ok(None),
        }
    }

    /// Drains a final unterminated line after EOF (parity with the
    /// framed reader: EOF after a partial line delivers that partial
    /// as a frame). `None` when nothing is buffered.
    pub(crate) fn take_partial(&mut self) -> Option<Result<String, LineError>> {
        self.compact();
        if self.rbuf.is_empty() {
            return None;
        }
        if self.rbuf.len() > MAX_LINE_BYTES {
            self.rbuf.clear();
            return Some(Err(LineError::Oversized));
        }
        let line = std::mem::take(&mut self.rbuf);
        Some(String::from_utf8(line).map_err(|_| LineError::NotUtf8))
    }

    /// Queues response bytes (the caller includes the trailing
    /// newline) and opportunistically pushes them to the socket.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet written.
    pub(crate) fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes queued output until done or `WouldBlock`.
    ///
    /// # Errors
    /// Hard I/O errors; the caller drops the connection.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.conn.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection wrote zero bytes",
                    ))
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback pair for exercising the state machine.
    fn pair() -> (ConnState, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (ConnState::new(Conn::Tcp(server)).unwrap(), client)
    }

    fn fill_until_progress(cs: &mut ConnState) {
        for _ in 0..200 {
            match cs.fill().unwrap() {
                FillOutcome::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
                _ => return,
            }
        }
        panic!("no bytes arrived");
    }

    #[test]
    fn pipelined_lines_split_in_order_with_crlf_tolerance() {
        let (mut cs, mut client) = pair();
        client.write_all(b"PING\r\nSTATS\nPOLL 7\npartial").unwrap();
        fill_until_progress(&mut cs);
        assert_eq!(cs.next_line().unwrap().as_deref(), Some("PING"));
        assert_eq!(cs.next_line().unwrap().as_deref(), Some("STATS"));
        assert_eq!(cs.next_line().unwrap().as_deref(), Some("POLL 7"));
        assert_eq!(cs.next_line().unwrap(), None, "partial line stays buffered");
        client.write_all(b" done\n").unwrap();
        fill_until_progress(&mut cs);
        assert_eq!(cs.next_line().unwrap().as_deref(), Some("partial done"));
    }

    #[test]
    fn a_deep_pipeline_splits_in_order_without_moving_its_tail_per_line() {
        const LINES: usize = 50_000;
        let (mut cs, _client) = pair();
        for i in 0..LINES {
            cs.rbuf.extend_from_slice(format!("POLL {i}\n").as_bytes());
        }
        cs.rbuf.extend_from_slice(b"partial");
        let buffered = cs.rbuf.len();
        for i in 0..LINES {
            if i == LINES / 2 {
                // Splitting moved nothing (the per-line drain this
                // replaces had moved LINES / 4 buffers' worth by now);
                // the next fill moves the unparsed tail, once.
                assert_eq!(cs.rbuf.len(), buffered);
                let moved = cs.compact();
                assert!(moved < buffered, "moved {moved} of {buffered}");
            }
            assert_eq!(cs.next_line().unwrap(), Some(format!("POLL {i}")));
        }
        assert_eq!(cs.next_line().unwrap(), None, "partial line stays buffered");
        assert_eq!(cs.take_partial().unwrap().unwrap(), "partial");
    }

    #[test]
    fn oversized_lines_are_rejected_while_buffering() {
        let (mut cs, mut client) = pair();
        let big = vec![b'x'; MAX_LINE_BYTES + 2];
        client.write_all(&big).unwrap();
        // No newline yet: the cap trips on buffered length alone.
        for _ in 0..10_000 {
            if cs.fill().unwrap() == FillOutcome::Idle {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            if cs.rbuf.len() > MAX_LINE_BYTES {
                break;
            }
        }
        assert!(matches!(cs.next_line(), Err(LineError::Oversized)));
    }

    /// One line of a fuzzed stream: printable bytes, then CRLF or LF.
    fn random_line(g: &mut tpcheck::Gen) -> (Vec<u8>, bool) {
        let crlf = g.bool();
        let len = match g.u64_in(0..40) {
            0 => MAX_LINE_BYTES + g.usize_in(1..3000),
            1 => MAX_LINE_BYTES - crlf as usize,
            2..=6 => g.usize_in(1000..20_000),
            _ => g.usize_in(0..80),
        };
        (g.vec(len..len + 1, |g| g.u64_in(0x20..0x7f) as u8), crlf)
    }

    #[test]
    fn a_byte_stream_cut_anywhere_comes_back_as_its_lines() {
        tpcheck::check("conn line splitter over arbitrary cuts", 32, |g| {
            let lines = g.vec(1..24, random_line);
            let partial = if g.bool() { random_line(g).0 } else { Vec::new() };
            let mut stream = Vec::new();
            for (content, crlf) in &lines {
                stream.extend_from_slice(content);
                stream.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
            stream.extend_from_slice(&partial);
            // What the splitter must give back: each line in order, up to
            // the first oversized one (`None`, a framing error that ends
            // the connection), then the unterminated tail at EOF.
            let mut want = Vec::new();
            for (content, crlf) in &lines {
                if content.len() + *crlf as usize > MAX_LINE_BYTES {
                    want.push(None);
                    break;
                }
                want.push(Some(String::from_utf8(content.clone()).unwrap()));
            }
            if want.last() != Some(&None) && !partial.is_empty() {
                want.push(
                    (partial.len() <= MAX_LINE_BYTES).then(|| String::from_utf8(partial).unwrap()),
                );
            }
            // Cut at random points; the socket merges what it likes, and
            // an occasional pause lets a cut reach the reader as is.
            let mut chunks = Vec::new();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let n = g.usize_in(1..rest.len().min(40_000) + 1);
                chunks.push((rest[..n].to_vec(), g.u64_in(0..8) == 0));
                rest = &rest[n..];
            }
            let (mut cs, mut client) = pair();
            client.set_nodelay(true).unwrap();
            let writer = std::thread::spawn(move || {
                for (chunk, pause) in chunks {
                    // The reader hangs up after a framing error.
                    if client.write_all(&chunk).is_err() {
                        return;
                    }
                    if pause {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            });
            let mut got = Vec::new();
            'conn: loop {
                let outcome = cs.fill().map_err(|e| e.to_string())?;
                let unparsed = cs.rbuf.len() - cs.rpos;
                tpcheck::ensure!(
                    unparsed <= MAX_LINE_BYTES + FILL_BUDGET,
                    "{unparsed} unparsed bytes buffered"
                );
                loop {
                    match cs.next_line() {
                        Ok(Some(line)) => got.push(Some(line)),
                        Ok(None) => break,
                        Err(LineError::Oversized) => {
                            got.push(None);
                            break 'conn;
                        }
                        Err(e) => return Err(e.message()),
                    }
                }
                match outcome {
                    FillOutcome::Eof => {
                        match cs.take_partial() {
                            None => {}
                            Some(Ok(line)) => got.push(Some(line)),
                            Some(Err(LineError::Oversized)) => got.push(None),
                            Some(Err(e)) => return Err(e.message()),
                        }
                        break;
                    }
                    FillOutcome::Idle => std::thread::sleep(std::time::Duration::from_micros(200)),
                    FillOutcome::Progress => {}
                }
            }
            drop(cs);
            writer.join().unwrap();
            let lens = |v: &[Option<String>]| -> Vec<_> {
                v.iter().map(|l| l.as_ref().map(String::len)).collect()
            };
            tpcheck::ensure!(got == want, "lines {:?}, want {:?}", lens(&got), lens(&want));
            Ok(())
        });
    }

    #[test]
    fn eof_after_fill_is_reported_once_buffer_drains() {
        let (mut cs, mut client) = pair();
        client.write_all(b"LAST\n").unwrap();
        drop(client);
        // Drain everything the peer sent, then observe EOF.
        let mut saw_eof = false;
        for _ in 0..200 {
            match cs.fill().unwrap() {
                FillOutcome::Eof => {
                    saw_eof = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(saw_eof);
        assert_eq!(cs.next_line().unwrap().as_deref(), Some("LAST"));
        assert!(cs.eof);
    }
}
