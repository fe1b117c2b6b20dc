//! Client side of the service protocol.
//!
//! [`Client`] is used three ways: by the `tpclient` binary, by the
//! integration tests, and by `tpbench`'s optional `TPSIM_SERVER`
//! routing. It is deliberately thin — one blocking request/response
//! round-trip per call; waiting on a ticket is one such round trip
//! (`WAIT`), answered when the job is over.

use crate::conn::Conn;
use crate::protocol::read_frame;
use std::io::{self, BufReader, Write};
use tpharness::wire::{self, Value};

/// A blocking protocol client over TCP (`host:port`) or a Unix-domain
/// socket (`unix:PATH`).
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    scratch: Vec<u8>,
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
        let conn = Conn::connect(addr)?;
        let writer = conn.try_clone()?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
            scratch: Vec::new(),
        })
    }

    /// Sends one protocol line and reads the one-line response.
    ///
    /// # Errors
    /// I/O errors, unexpected EOF, or an unparseable response.
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        // One write per frame: a line and its newline in separate
        // segments is what Nagle and delayed ACKs turn into 40 ms.
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        self.read_response()
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
        self.request(&format!("SUBMIT {}", payload.encode()))
    }

    /// Writes one `SUBMIT` line per payload as a single batch without
    /// reading anything back — the write half of pipelining. Pair with
    /// one [`Client::read_response`] per payload; the server returns
    /// responses in request order.
    ///
    /// # Errors
    /// I/O errors.
    pub fn submit_batch(&mut self, payloads: &[Value]) -> io::Result<()> {
        let mut batch = String::new();
        for p in payloads {
            batch.push_str("SUBMIT ");
            batch.push_str(&p.encode());
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next response frame — the read half of pipelining.
    ///
    /// # Errors
    /// I/O errors, unexpected EOF, or an unparseable response.
    pub fn read_response(&mut self) -> io::Result<Value> {
        match read_frame(&mut self.reader, &mut self.scratch)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Some(resp) => {
                wire::parse(&resp).map_err(|e| data_err(format!("bad response: {e}: {resp:.120}")))
            }
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
        self.request(&format!("POLL {ticket}"))
    }

    /// `WAIT` one ticket: blocks until it reaches a terminal state
    /// (`done`, `deadline-exceeded`, `failed`, or `error`) and returns
    /// what the delivering `POLL` would have.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn wait(&mut self, ticket: u64) -> io::Result<Value> {
        self.request(&format!("WAIT {ticket}"))
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
