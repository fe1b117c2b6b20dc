//! A tiny stream abstraction (TCP or Unix-domain) shared by the
//! server, the client and the tests; the listener
//! the server accepts through; and [`serve`], the loop one client
//! connection runs on its own thread.

use crate::protocol::read_frame;
use crate::service::{error_response, Core};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    /// connection attempt may block — a forwarder calls this for each
    /// backend it tries, so a black-holed backend address costs at most
    /// `timeout`, not a kernel default. Unix-domain connects either
    /// succeed or fail immediately.
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
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no addresses for {addr}"),
            )
        }))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Shuts both directions of the socket, for every handle onto it: a
    /// thread blocked reading sees EOF, one blocked writing an error.
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
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

/// A bound listening socket (TCP or Unix-domain).
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

    /// Removes the Unix socket file, if any (called once the server
    /// stops).
    pub(crate) fn cleanup(&self) {
        if let ListenerKind::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until a connection arrives.
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            ListenerKind::Tcp(l) => Conn::tcp(l.accept()?.0),
            ListenerKind::Unix { listener, .. } => Conn::Unix(listener.accept()?.0),
        })
    }
}

// ---------------------------------------------------------------------
// One client connection
// ---------------------------------------------------------------------

/// Input read per `read` call: a depth-256 pipeline of `SUBMIT`s fits.
const READ_BUFFER: usize = 64 * 1024;

/// Serves one client connection on the calling thread until the peer
/// closes it, a line breaks framing, or a write fails.
///
/// Each line is dispatched in order and its reply appended to one
/// output buffer, which is written out whenever no complete line is
/// left in the input buffer: a pipelined batch costs a few large writes,
/// and no reply waits on input the peer has not sent. A `WAIT` or
/// `SHUTDOWN` blocks this thread alone — replies stay in request order
/// because nothing behind it is read meanwhile — and a peer that never
/// reads blocks it in `write`, so it stops reading too: that is the
/// backpressure.
pub(crate) fn serve(core: &Arc<Core>, conn: Conn) {
    let Ok(mut out) = conn.try_clone() else {
        return;
    };
    let mut input = BufReader::with_capacity(READ_BUFFER, conn);
    let mut scratch = Vec::new();
    let mut replies = String::new();
    loop {
        match read_frame(&mut input, &mut scratch) {
            Ok(Some("")) => {}
            Ok(Some(line)) => {
                replies.push_str(&core.dispatch(line));
                replies.push('\n');
            }
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Oversized or not UTF-8: framing is lost, so say why and
            // close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                replies.push_str(&error_response(e.to_string()));
                replies.push('\n');
                break;
            }
            Err(_) => return,
        }
        if !input.buffer().contains(&b'\n') {
            if out.write_all(replies.as_bytes()).is_err() {
                return;
            }
            replies.clear();
        }
    }
    let _ = out.write_all(replies.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_LINE_BYTES;

    /// The server's end of a loopback connection, buffered as [`serve`]
    /// buffers it, and the client's end.
    fn pair() -> (BufReader<Conn>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            BufReader::with_capacity(READ_BUFFER, Conn::Tcp(server)),
            client,
        )
    }

    fn next(input: &mut BufReader<Conn>, scratch: &mut Vec<u8>) -> Option<String> {
        read_frame(input, scratch)
            .expect("a frame or EOF")
            .map(str::to_owned)
    }

    #[test]
    fn pipelined_lines_split_in_order_with_crlf_tolerance() {
        let (mut input, mut client) = pair();
        let mut scratch = Vec::new();
        client.write_all(b"PING\r\nSTATS\nPOLL 7\npartial").unwrap();
        for want in ["PING", "STATS", "POLL 7"] {
            assert_eq!(next(&mut input, &mut scratch).as_deref(), Some(want));
        }
        assert!(!input.buffer().contains(&b'\n'), "serve flushes here");
        client.write_all(b" done\n").unwrap();
        assert_eq!(
            next(&mut input, &mut scratch).as_deref(),
            Some("partial done")
        );
    }

    /// `BufReader` consumes by offset, so splitting moves no bytes per
    /// line; this holds the order through a pipeline far deeper than
    /// one buffer, and the unterminated tail at EOF.
    #[test]
    fn a_deep_pipeline_splits_in_order_without_moving_its_tail_per_line() {
        const LINES: usize = 50_000;
        let (mut input, mut client) = pair();
        let writer = std::thread::spawn(move || {
            let lines = (0..LINES).flat_map(|i| format!("POLL {i}\n").into_bytes());
            let mut stream: Vec<u8> = lines.collect();
            stream.extend_from_slice(b"partial");
            client.write_all(&stream).unwrap();
        });
        let mut scratch = Vec::new();
        for i in 0..LINES {
            assert_eq!(next(&mut input, &mut scratch), Some(format!("POLL {i}")));
        }
        writer.join().unwrap();
        assert_eq!(next(&mut input, &mut scratch).as_deref(), Some("partial"));
        assert_eq!(next(&mut input, &mut scratch), None);
    }

    #[test]
    fn oversized_lines_are_rejected_while_buffering() {
        let (mut input, mut client) = pair();
        // No newline, and the peer stays connected: the cap trips on
        // buffered length alone.
        client.write_all(&vec![b'x'; MAX_LINE_BYTES + 2]).unwrap();
        let err = read_frame(&mut input, &mut Vec::new()).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("line exceeds {MAX_LINE_BYTES} bytes")
        );
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
        tpcheck::check("read_frame over a socket, arbitrary cuts", 32, |g| {
            let lines = g.vec(1..24, random_line);
            let partial = if g.bool() {
                random_line(g).0
            } else {
                Vec::new()
            };
            let mut stream = Vec::new();
            for (content, crlf) in &lines {
                stream.extend_from_slice(content);
                stream.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
            stream.extend_from_slice(&partial);
            // What the reader must give back: each line in order, up to
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
            let (mut input, mut client) = pair();
            client.set_nodelay(true).unwrap();
            let writer = std::thread::spawn(move || {
                for (chunk, pause) in chunks {
                    // The reader hangs up after a framing error.
                    if client.write_all(&chunk).is_err() {
                        return;
                    }
                    if pause {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            let mut scratch = Vec::new();
            let mut got = Vec::new();
            loop {
                match read_frame(&mut input, &mut scratch) {
                    Ok(Some(line)) => got.push(Some(line.to_owned())),
                    Ok(None) => break,
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        got.push(None);
                        break;
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
            drop(input);
            writer.join().unwrap();
            let lens = |v: &[Option<String>]| -> Vec<_> {
                v.iter().map(|l| l.as_ref().map(String::len)).collect()
            };
            tpcheck::ensure!(
                got == want,
                "lines {:?}, want {:?}",
                lens(&got),
                lens(&want)
            );
            Ok(())
        });
    }

    #[test]
    fn eof_after_fill_is_reported_once_buffer_drains() {
        let (mut input, mut client) = pair();
        client.write_all(b"LAST\n").unwrap();
        drop(client);
        let mut scratch = Vec::new();
        assert_eq!(next(&mut input, &mut scratch).as_deref(), Some("LAST"));
        assert_eq!(next(&mut input, &mut scratch), None);
    }
}
