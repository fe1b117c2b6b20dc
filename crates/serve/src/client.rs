//! Client side of the service protocol.
//!
//! [`Client`] is used by the `tpclient` binary, by the integration
//! tests and by the benchmark's service workloads. It is deliberately
//! thin — one blocking request/response round-trip per call; waiting on
//! a ticket is one such round trip (`WAIT`), answered when the job is
//! over.

use crate::conn::Conn;
use crate::protocol::read_frame;
use std::fmt::Write as _;
use std::io::{self, BufReader, Write};
use std::time::Duration;
use tpharness::wire::{self, Value};

/// A blocking protocol client over TCP (`host:port`) or a Unix-domain
/// socket (`unix:PATH`).
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    scratch: Vec<u8>,
    /// The lines of the next write, kept between writes so a request
    /// is encoded without allocating once it has its size.
    out: String,
}

/// Appends `payload`'s `SUBMIT` line.
fn submit_line(out: &mut String, payload: &Value) {
    out.push_str("SUBMIT ");
    payload.encode_into(out);
    out.push('\n');
}

fn data_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects to a server (see [`crate::Server::addr`] for the format).
    ///
    /// # Errors
    /// Connection errors.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::over(Conn::connect(addr)?)
    }

    /// [`Client::connect`], with a TCP connect bounded by `timeout`.
    pub(crate) fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        Client::over(Conn::connect_timeout(addr, timeout)?)
    }

    fn over(conn: Conn) -> io::Result<Client> {
        let writer = conn.try_clone()?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
            scratch: Vec::new(),
            out: String::new(),
        })
    }

    /// A second handle onto the connection, whose
    /// [`shutdown`](Conn::shutdown) ends a call blocked on it.
    pub(crate) fn handle(&self) -> io::Result<Conn> {
        self.writer.try_clone()
    }

    /// Writes what `lines` appends to the kept buffer, in one write:
    /// a line and its newline in separate segments is what Nagle and
    /// delayed ACKs turn into 40 ms.
    fn send(&mut self, lines: impl FnOnce(&mut String)) -> io::Result<()> {
        self.out.clear();
        lines(&mut self.out);
        self.writer.write_all(self.out.as_bytes())?;
        self.writer.flush()
    }

    /// Sends the one protocol line `line` appends and reads the
    /// one-line response.
    fn exchange(&mut self, line: impl FnOnce(&mut String)) -> io::Result<Value> {
        self.send(line)?;
        self.read_response()
    }

    /// Sends one protocol line and reads the one-line response.
    ///
    /// # Errors
    /// I/O errors, unexpected EOF, or an unparseable response.
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        self.exchange(|out| {
            out.push_str(line);
            out.push('\n');
        })
    }

    /// `PING`.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn ping(&mut self) -> io::Result<Value> {
        self.request("PING")
    }

    /// `STATS`.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn stats(&mut self) -> io::Result<Value> {
        self.request("STATS")
    }

    /// `SHUTDOWN`: blocks until the server has drained every accepted
    /// request, then returns its final acknowledgement.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> io::Result<Value> {
        self.request("SHUTDOWN")
    }

    /// `SUBMIT` with a JSON payload; returns the immediate response
    /// (`done` for cache hits, `queued`, `rejected`, or `error`).
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn submit(&mut self, payload: &Value) -> io::Result<Value> {
        self.exchange(|out| submit_line(out, payload))
    }

    /// Writes one `SUBMIT` line per payload as a single batch without
    /// reading anything back — the write half of pipelining. Pair with
    /// one [`Client::read_response`] per payload; the server returns
    /// responses in request order.
    ///
    /// # Errors
    /// I/O errors.
    pub fn submit_batch(&mut self, payloads: &[Value]) -> io::Result<()> {
        self.send(|out| payloads.iter().for_each(|p| submit_line(out, p)))
    }

    /// Reads the next response frame — the read half of pipelining.
    /// Every reply is read by [`wire::parse_reply`]: a `done` reply's
    /// `report` is the [`Value::Encoded`] text it arrived in, checked
    /// but not built, so its `encode()` is the served bytes.
    ///
    /// # Errors
    /// I/O errors, unexpected EOF, or an unparseable response.
    pub fn read_response(&mut self) -> io::Result<Value> {
        match read_frame(&mut self.reader, &mut self.scratch)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Some(resp) => wire::parse_reply(resp)
                .map_err(|e| data_err(format!("bad response: {e}: {resp:.120}"))),
        }
    }

    /// Pipelined `SUBMIT`: writes every request line before reading
    /// any response, then collects the responses (which the server
    /// returns in request order). This is the high-throughput path for
    /// many small requests — one flush, one round-trip's worth of
    /// latency for the whole batch.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn pipeline(&mut self, payloads: &[Value]) -> io::Result<Vec<Value>> {
        self.submit_batch(payloads)?;
        let mut out = Vec::with_capacity(payloads.len());
        for _ in payloads {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    /// A whole sweep in one call: pipelines every `SUBMIT`, then waits
    /// each queued ticket to a terminal state. Returns one terminal
    /// response per payload, in request order — the client-side mirror
    /// of `SweepRunner`'s canonical reassembly, and the path `tpclient
    /// sweep` and the fleet smoke tests drive.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn submit_sweep(&mut self, payloads: &[Value]) -> io::Result<Vec<Value>> {
        let submitted = self.pipeline(payloads)?;
        let mut out = Vec::with_capacity(submitted.len());
        for resp in submitted {
            match resp.get("status").and_then(Value::as_str) {
                Some("queued") => {
                    let ticket = resp
                        .get("ticket")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| data_err("queued response without a ticket"))?;
                    out.push(self.wait(ticket)?);
                }
                _ => out.push(resp),
            }
        }
        Ok(out)
    }

    /// `POLL` one ticket: its status now, without blocking.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn poll(&mut self, ticket: u64) -> io::Result<Value> {
        self.exchange(|out| {
            let _ = writeln!(out, "POLL {ticket}");
        })
    }

    /// `WAIT` one ticket: blocks until it reaches a terminal state
    /// (`done`, `deadline-exceeded`, `failed`, or `error`) and returns
    /// what the delivering `POLL` would have.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn wait(&mut self, ticket: u64) -> io::Result<Value> {
        self.exchange(|out| {
            let _ = writeln!(out, "WAIT {ticket}");
        })
    }

    /// Submits and, if the request was queued, waits for its terminal
    /// state. Rejections and errors come back as-is.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn submit_and_wait(&mut self, payload: &Value) -> io::Result<Value> {
        let resp = self.submit(payload)?;
        match resp.get("status").and_then(Value::as_str) {
            Some("queued") => {
                let ticket = resp
                    .get("ticket")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| data_err("queued response without a ticket"))?;
                self.wait(ticket)
            }
            _ => Ok(resp),
        }
    }
}
