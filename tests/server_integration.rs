//! End-to-end tests for the `tpserve` simulation service: protocol
//! round-trips over real sockets, byte-identical reports vs direct
//! sweep-runner execution, pipelined submissions, persistent-store
//! warm restarts, ticket-table bounds, load shedding, deadline
//! cancellation, deferred `WAIT` replies, and graceful drain.

use std::thread;
use tpharness::baselines::{L1Kind, TemporalKind};
use tpharness::experiment::{run_single, Experiment};
use tpharness::sweep::{SweepJob, SweepRunner};
use tpharness::wire::{encode_sim_report, parse, Value};
use tpserve::{Client, Controller, Server, ServerConfig};
use tptrace::{workloads, Scale};

struct Harness {
    addr: String,
    controller: Controller,
    handle: thread::JoinHandle<()>,
}

fn start(cfg: ServerConfig) -> Harness {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind test server");
    let addr = server.addr().to_string();
    let controller = server.controller();
    let handle = thread::spawn(move || server.run().expect("server run"));
    Harness {
        addr,
        controller,
        handle,
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("<none>")
}

fn req(json: &str) -> Value {
    parse(json).expect("test request parses")
}

/// A bare protocol connection: unlike [`Client`] it can write several
/// lines before reading any reply, and leave a reply unread.
struct Raw {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = std::net::TcpStream::connect(addr).expect("connect raw");
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    fn send(&mut self, lines: &str) {
        use std::io::Write;
        self.stream.write_all(lines.as_bytes()).expect("write");
    }

    /// The next reply line, or `None` if none arrives within `within`.
    fn reply_within(&mut self, within: std::time::Duration) -> Option<Value> {
        use std::io::BufRead;
        self.stream.set_read_timeout(Some(within)).unwrap();
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(parse(line.trim_end()).expect("reply parses")),
            _ => None,
        }
    }

    fn reply(&mut self) -> Value {
        let patience = std::time::Duration::from_secs(120);
        self.reply_within(patience).expect("a reply")
    }

    /// Submits an uncached request and returns the ticket it queued under.
    fn submit_miss(&mut self, json: &str) -> u64 {
        self.send(&format!("SUBMIT {json}\n"));
        let queued = self.reply();
        assert_eq!(status(&queued), "queued", "{}", queued.encode());
        queued
            .get("ticket")
            .and_then(Value::as_u64)
            .expect("a ticket")
    }
}

#[test]
fn served_reports_are_byte_identical_and_cache_hits_skip_simulation() {
    let h = start(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");
    assert_eq!(status(&c.ping().unwrap()), "ok");

    // Canonical-seed request vs a direct sweep-runner run.
    let payload =
        req(r#"{"workload":"spec06.mcf","scale":"test","l1":"stride","temporal":"streamline"}"#);
    let resp = c.submit_and_wait(&payload).unwrap();
    assert_eq!(status(&resp), "done", "{}", resp.encode());
    assert_eq!(resp.get("cached").unwrap().as_bool(), Some(false));
    let served = resp.get("report").expect("done carries a report").encode();

    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let direct = SweepRunner::serial().run_one(SweepJob::single(
        workloads::by_name("spec06.mcf").unwrap(),
        exp.clone(),
    ));
    assert_eq!(
        served,
        encode_sim_report(&direct),
        "server report must be byte-identical to a direct run"
    );

    // Seed-overriding request vs a direct reseeded run (this path
    // bypasses the sweep cache inside the server).
    let seeded = req(
        r#"{"workload":"spec06.mcf","scale":"test","l1":"stride","temporal":"streamline","seed":12345}"#,
    );
    let resp = c.submit_and_wait(&seeded).unwrap();
    assert_eq!(status(&resp), "done");
    let w = workloads::by_name("spec06.mcf").unwrap().with_seed(12345);
    assert_eq!(
        resp.get("report").unwrap().encode(),
        encode_sim_report(&run_single(&w, &exp)),
        "seeded server report must match a direct reseeded run"
    );

    // Identical resubmission: served synchronously from the response
    // cache, with no new simulation (proven via STATS counters).
    let sims_before = {
        let stats = c.stats().unwrap();
        stats
            .get("stats")
            .unwrap()
            .get("simulations")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    let resp = c.submit_and_wait(&payload).unwrap();
    assert_eq!(status(&resp), "done");
    assert_eq!(resp.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("report").unwrap().encode(), served);
    let stats = c.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(
        stats.get("simulations").unwrap().as_u64().unwrap(),
        sims_before,
        "a cache hit must not simulate"
    );
    assert!(stats.get("cache_hits").unwrap().as_u64().unwrap() >= 1);
    // Service times are split by outcome so hits don't drown the
    // simulation latencies (and vice versa).
    let st = stats.get("service_time_us").unwrap();
    assert!(st.get("hit").unwrap().get("p50").is_some());
    assert!(st.get("simulated").unwrap().get("p50").is_some());

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn pipelined_submits_answer_in_request_order() {
    let h = start(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");

    // Four SUBMITs (one a duplicate) written before any response is
    // read. The connection's own thread answers each line before it
    // reads the next, so the replies must come back in request order,
    // whichever worker finishes first.
    let payloads: Vec<Value> = ["gap.bfs", "gap.tc", "gap.pr", "gap.bfs"]
        .iter()
        .map(|wl| req(&format!(r#"{{"workload":"{wl}","scale":"test"}}"#)))
        .collect();
    let keys: Vec<String> = payloads
        .iter()
        .map(|p| {
            format!(
                "{:016x}",
                tpserve::Request::from_value(p)
                    .expect("payload parses")
                    .key()
            )
        })
        .collect();
    let resps = c.pipeline(&payloads).expect("pipelined batch");
    assert_eq!(resps.len(), payloads.len());
    for (i, resp) in resps.iter().enumerate() {
        assert!(
            matches!(status(resp), "queued" | "done"),
            "response {i}: {}",
            resp.encode()
        );
        assert_eq!(
            resp.get("key").unwrap().as_str(),
            Some(keys[i].as_str()),
            "response {i} answers the wrong request (order violated)"
        );
    }
    // Every queued ticket still completes.
    for resp in &resps {
        if status(resp) == "queued" {
            let t = resp.get("ticket").unwrap().as_u64().unwrap();
            let done = c.wait(t).unwrap();
            assert_eq!(status(&done), "done", "{}", done.encode());
        }
    }

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn warm_restart_serves_cached_reports_from_the_store() {
    let dir = std::env::temp_dir().join(format!("tpserve-it-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let payload = req(r#"{"workload":"gap.bfs","scale":"test","temporal":"streamline"}"#);

    // First server: simulate once, persisting the result to the store.
    let report = {
        let h = start(ServerConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        });
        let mut c = Client::connect(&h.addr).expect("connect");
        let resp = c.submit_and_wait(&payload).unwrap();
        assert_eq!(status(&resp), "done", "{}", resp.encode());
        let report = resp.get("report").unwrap().encode();
        assert_eq!(status(&c.shutdown().unwrap()), "ok");
        drop(c);
        h.handle.join().unwrap();
        report
    };

    // Second server over the same directory: the request is answered
    // synchronously from disk — byte-identical, zero simulations.
    let h = start(ServerConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");
    let resp = c.submit_and_wait(&payload).unwrap();
    assert_eq!(status(&resp), "done", "{}", resp.encode());
    assert_eq!(resp.get("cached").unwrap().as_bool(), Some(true));
    assert!(
        resp.get("ticket").is_none(),
        "synchronous hits carry no ticket: {}",
        resp.encode()
    );
    assert_eq!(
        resp.get("report").unwrap().encode(),
        report,
        "restarted server must serve byte-identical bytes from the store"
    );
    let stats = c.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(
        stats.get("simulations").unwrap().as_u64(),
        Some(0),
        "warm restart must not simulate"
    );
    assert!(stats.get("store_hits").unwrap().as_u64().unwrap() >= 1);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ticket_table_stays_bounded_across_submit_poll_cycles() {
    let h = start(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");

    // Distinct seeds force the queue path (each canonical is new);
    // repeat rounds are synchronous cache hits that create no tickets.
    // Historically every one of these leaked a ticket-table entry.
    for _round in 0..3 {
        for seed in 1..=8 {
            let resp = c
                .submit_and_wait(&req(&format!(
                    r#"{{"workload":"gap.bfs","scale":"test","seed":{seed}}}"#
                )))
                .unwrap();
            assert_eq!(status(&resp), "done", "{}", resp.encode());
        }
    }
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.get("stats").unwrap().get("tickets").unwrap().as_u64(),
        Some(0),
        "terminal tickets must be reaped after their delivering POLL"
    );

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn full_queue_sheds_load_with_structured_rejections() {
    let h = start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        start_paused: true, // queue fills deterministically: no worker pops
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");

    let a = c
        .submit(&req(r#"{"workload":"gap.bfs","scale":"test"}"#))
        .unwrap();
    let b = c
        .submit(&req(r#"{"workload":"gap.tc","scale":"test"}"#))
        .unwrap();
    let shed = c
        .submit(&req(r#"{"workload":"gap.pr","scale":"test"}"#))
        .unwrap();
    assert_eq!(status(&a), "queued");
    assert_eq!(status(&b), "queued");
    assert_eq!(status(&shed), "rejected", "{}", shed.encode());
    assert_eq!(shed.get("reason").unwrap().as_str(), Some("queue-full"));
    assert_eq!(shed.get("queue_capacity").unwrap().as_u64(), Some(2));

    // Accepted work completes once the queue is released.
    h.controller.resume();
    for queued in [&a, &b] {
        let ticket = queued.get("ticket").unwrap().as_u64().unwrap();
        let done = c.wait(ticket).unwrap();
        assert_eq!(status(&done), "done", "{}", done.encode());
    }
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .get("stats")
            .unwrap()
            .get("rejected")
            .unwrap()
            .as_u64(),
        Some(1)
    );

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn deadline_expires_mid_run_and_the_server_keeps_serving() {
    let h = start(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let mut c = Client::connect(&h.addr).expect("connect");

    // A four-core full-scale mix runs far longer than 10ms; the
    // deadline monitor cancels it at an engine epoch boundary.
    let doomed = req(
        r#"{"mix":["spec06.mcf","gap.pr","gap.tc","spec06.xalancbmk"],"scale":"full","temporal":"streamline","deadline_ms":10}"#,
    );
    let resp = c.submit_and_wait(&doomed).unwrap();
    assert_eq!(status(&resp), "deadline-exceeded", "{}", resp.encode());

    // The worker that ran the doomed job is free again: quick work
    // still completes, and the cancellation is visible in the stats.
    let quick = c
        .submit_and_wait(&req(r#"{"workload":"gap.bfs","scale":"test"}"#))
        .unwrap();
    assert_eq!(status(&quick), "done", "{}", quick.encode());
    let stats = c.stats().unwrap();
    assert!(
        stats
            .get("stats")
            .unwrap()
            .get("cancelled")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "cancelled counter must record the deadline expiry"
    );

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn graceful_drain_loses_no_responses() {
    let h = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        start_paused: true,
        ..Default::default()
    });
    let mut submitter = Client::connect(&h.addr).expect("connect submitter");

    // Four distinct requests pile up behind the paused queue.
    let mut tickets = Vec::new();
    for wl in ["gap.bfs", "gap.tc", "gap.pr", "spec06.bzip2"] {
        let resp = submitter
            .submit(&req(&format!(r#"{{"workload":"{wl}","scale":"test"}}"#)))
            .unwrap();
        assert_eq!(status(&resp), "queued", "{}", resp.encode());
        tickets.push(resp.get("ticket").unwrap().as_u64().unwrap());
    }

    // SHUTDOWN on a second connection: it must block until the queue
    // drains, which only happens once we release the pause.
    let addr = h.addr.clone();
    let shutdown = thread::spawn(move || {
        let mut c = Client::connect(&addr).expect("connect shutdowner");
        c.shutdown().expect("shutdown round-trip")
    });
    thread::sleep(std::time::Duration::from_millis(50));
    h.controller.resume();
    let ack = shutdown.join().expect("shutdown thread");
    assert_eq!(status(&ack), "ok", "{}", ack.encode());

    // Every response accepted before the drain is still collectable.
    for t in tickets {
        let resp = submitter.wait(t).unwrap();
        assert_eq!(
            status(&resp),
            "done",
            "drained ticket {t}: {}",
            resp.encode()
        );
    }
    // New (uncached) work is shed with a structured reason; already-
    // cached requests would still be served, since they create no work.
    let late = submitter
        .submit(&req(r#"{"workload":"spec06.libquantum","scale":"test"}"#))
        .unwrap();
    assert_eq!(status(&late), "rejected", "{}", late.encode());
    assert_eq!(late.get("reason").unwrap().as_str(), Some("shutting-down"));

    drop(submitter);
    h.handle.join().unwrap();
}

#[test]
fn a_parked_wait_holds_back_the_replies_pipelined_behind_it() {
    let h = start(ServerConfig {
        workers: 1,
        start_paused: true, // the job stays live until the test says otherwise
        ..Default::default()
    });
    let mut c = Raw::connect(&h.addr);
    let t = c.submit_miss(r#"{"workload":"gap.bfs","scale":"test"}"#);

    // WAIT and PING in one batch: while the job is live the connection
    // is parked, and the PING behind the WAIT gets no answer either.
    c.send(&format!("WAIT {t}\nPING\n"));
    let early = c.reply_within(std::time::Duration::from_millis(200));
    assert!(
        early.is_none(),
        "answered while parked: {}",
        early.unwrap().encode()
    );

    // Once the job is done: its reply first, then the PING's.
    h.controller.resume();
    let done = c.reply();
    assert_eq!(status(&done), "done", "{}", done.encode());
    assert_eq!(done.get("ticket").and_then(Value::as_u64), Some(t));
    assert!(done.get("report").is_some());
    let pong = c.reply();
    assert_eq!(
        pong.get("pong").and_then(Value::as_bool),
        Some(true),
        "{}",
        pong.encode()
    );
    assert_eq!(h.controller.ticket_count(), 0, "the WAIT's delivery reaps");

    c.send("SHUTDOWN\n");
    assert_eq!(status(&c.reply()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn a_waiter_that_disconnects_still_has_its_job_reaped() {
    let h = start(ServerConfig {
        workers: 1,
        start_paused: true,
        ..Default::default()
    });
    let mut gone = Raw::connect(&h.addr);
    let t = gone.submit_miss(r#"{"workload":"gap.tc","scale":"test"}"#);
    gone.send(&format!("WAIT {t}\n"));
    drop(gone);

    // The job still runs, and delivering to the dead peer still reaps.
    assert_eq!(h.controller.ticket_count(), 1);
    h.controller.resume();
    let mut c = Client::connect(&h.addr).expect("connect");
    let patience = std::time::Instant::now();
    while h.controller.ticket_count() > 0 {
        assert!(
            patience.elapsed().as_secs() < 120,
            "ticket {t} was never reaped"
        );
        assert_eq!(
            status(&c.ping().unwrap()),
            "ok",
            "the loop serves others meanwhile"
        );
        thread::sleep(std::time::Duration::from_millis(5));
    }

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    h.handle.join().unwrap();
}

#[test]
fn shutdown_is_acknowledged_only_after_parked_waits_are_answered() {
    let h = start(ServerConfig {
        workers: 1,
        start_paused: true,
        ..Default::default()
    });
    let mut waiter = Raw::connect(&h.addr);
    let t = waiter.submit_miss(r#"{"workload":"gap.pr","scale":"test"}"#);
    waiter.send(&format!("WAIT {t}\n"));

    // SHUTDOWN on a second connection blocks on the drain, which needs
    // the paused job to run.
    let addr = h.addr.clone();
    let shutdown = thread::spawn(move || {
        let mut c = Client::connect(&addr).expect("connect shutdowner");
        c.shutdown().expect("shutdown round-trip")
    });
    thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(h.controller.ticket_count(), 1, "still parked on a live job");
    h.controller.resume();
    let ack = shutdown.join().expect("shutdown thread");
    assert_eq!(status(&ack), "ok", "{}", ack.encode());

    // With the acknowledgement in hand the WAIT has been delivered
    // (delivery is what reaps), and its reply is there to read.
    assert_eq!(
        h.controller.ticket_count(),
        0,
        "acknowledged before the WAIT was answered"
    );
    let done = waiter.reply();
    assert_eq!(status(&done), "done", "{}", done.encode());

    drop(waiter);
    h.handle.join().unwrap();
}
