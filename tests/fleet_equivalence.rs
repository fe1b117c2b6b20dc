//! Fleet-equivalence suite for the tpserve coordinator: a fleet of
//! backend servers behind `--coordinator` must produce reports
//! byte-identical to local `--jobs=N` sweeps — including when a
//! backend dies mid-sweep, is down from the start, or the whole fleet
//! is unreachable and jobs fall back to local execution.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use tpharness::baselines::{L1Kind, TemporalKind};
use tpharness::experiment::{run_single, Experiment};
use tpharness::sweep::{SweepJob, SweepRunner};
use tpharness::wire::{decode_sim_report, encode_sim_report, parse, Value};
use tpserve::protocol::Request;
use tpserve::{Client, Controller, Coordinator, CoordinatorConfig, HashRing, Server, ServerConfig};
use tptrace::{workloads, Scale};

struct Backend {
    addr: String,
    handle: thread::JoinHandle<()>,
}

fn start_backend() -> Backend {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind backend");
    let addr = server.addr().to_string();
    let handle = thread::spawn(move || server.run().expect("backend run"));
    Backend { addr, handle }
}

struct Fleet {
    addr: String,
    controller: Controller,
    handle: thread::JoinHandle<()>,
}

fn start_coordinator(backends: &[String]) -> Fleet {
    let coord = Coordinator::bind("127.0.0.1:0", backends, CoordinatorConfig::default())
        .expect("bind coordinator");
    let addr = coord.addr().to_string();
    let controller = coord.controller();
    let handle = thread::spawn(move || coord.run().expect("coordinator run"));
    Fleet {
        addr,
        controller,
        handle,
    }
}

fn shutdown_backend(b: Backend) {
    let mut c = Client::connect(&b.addr).expect("connect backend for shutdown");
    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    b.handle.join().unwrap();
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("<none>")
}

fn req(json: &str) -> Value {
    parse(json).expect("test request parses")
}

/// An address that connect() refuses: bind an ephemeral port, record
/// it, and drop the listener before anyone dials it.
fn dead_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

fn seeded_payload(seed: u64) -> Value {
    req(&format!(
        r#"{{"workload":"spec06.mcf","scale":"test","l1":"stride","temporal":"streamline","seed":{seed}}}"#
    ))
}

/// The primary ring node a payload routes to — computed exactly as the
/// coordinator does (canonical request encoding → ring point), so
/// tests can deterministically aim jobs at a chosen backend.
fn primary_of(ring: &HashRing, payload: &Value) -> usize {
    let r = Request::from_value(payload).expect("payload is a valid request");
    ring.candidates(HashRing::job_point(&r.canonical()))[0]
}

/// The first seed in `1..` whose payload's primary is backend `target`.
fn seed_with_primary(ring: &HashRing, target: usize) -> u64 {
    (1..1000)
        .find(|&s| primary_of(ring, &seeded_payload(s)) == target)
        .expect("some seed in 1..1000 must hash to every backend")
}

fn stat_u64(stats: &Value, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats.{key} missing: {}", stats.encode()))
}

#[test]
fn fleet_of_three_matches_local_jobs_sweep() {
    let backends: Vec<Backend> = (0..3).map(|_| start_backend()).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let fleet = start_coordinator(&addrs);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    assert_eq!(status(&c.ping().unwrap()), "ok");

    // A multi-experiment sweep: 3 workloads x {streamline, triage}.
    let names = ["spec06.mcf", "gap.bfs", "spec06.omnetpp"];
    let kinds = [
        ("streamline", TemporalKind::Streamline),
        ("triage", TemporalKind::Triage),
    ];
    let mut payloads = Vec::new();
    let mut jobs = Vec::new();
    for name in names {
        for (wire_name, kind) in kinds {
            payloads.push(req(&format!(
                r#"{{"workload":"{name}","scale":"test","l1":"stride","temporal":"{wire_name}"}}"#
            )));
            jobs.push(SweepJob::single(
                workloads::by_name(name).unwrap(),
                Experiment::new(Scale::Test)
                    .l1(L1Kind::Stride)
                    .temporal(kind),
            ));
        }
    }

    // Pipeline every SUBMIT, then wait the tickets out in order —
    // the same submit-all-then-collect shape SweepRunner::map uses.
    let submitted = c.pipeline(&payloads).unwrap();
    let mut served = Vec::with_capacity(payloads.len());
    for resp in &submitted {
        assert_eq!(status(resp), "queued", "{}", resp.encode());
        let ticket = resp.get("ticket").and_then(Value::as_u64).unwrap();
        let done = c.wait(ticket).unwrap();
        assert_eq!(status(&done), "done", "{}", done.encode());
        served.push(done.get("report").expect("done carries a report").encode());
    }

    // Byte-identity against a local --jobs=2 sweep over the same jobs,
    // in the same canonical order.
    let local = SweepRunner::new().with_workers(2).run(&jobs);
    for (i, (remote, report)) in served.iter().zip(&local).enumerate() {
        assert_eq!(
            remote,
            &encode_sim_report(report),
            "job {i}: fleet report must be byte-identical to the local sweep"
        );
    }

    // Seed-overriding request: must bypass the seed-blind sweep cache
    // on whichever backend it lands on and match a direct reseeded run.
    let seeded = seeded_payload(12345);
    let resp = c.submit_and_wait(&seeded).unwrap();
    assert_eq!(status(&resp), "done");
    let w = workloads::by_name("spec06.mcf").unwrap().with_seed(12345);
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    assert_eq!(
        resp.get("report").unwrap().encode(),
        encode_sim_report(&run_single(&w, &exp)),
        "seeded fleet report must match a direct reseeded run"
    );

    // A healthy fleet forwards everything to primaries: no reroutes,
    // no local fallbacks, and the routed counts add up.
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("role"))
            .and_then(Value::as_str),
        Some("coordinator")
    );
    assert_eq!(stat_u64(&stats, "forwarded"), payloads.len() as u64 + 1);
    assert_eq!(stat_u64(&stats, "rerouted"), 0);
    assert_eq!(stat_u64(&stats, "local_jobs"), 0);
    let per_backend = stats
        .get("stats")
        .and_then(|s| s.get("backends"))
        .and_then(Value::as_arr)
        .expect("coordinator stats carry a backends array");
    assert_eq!(per_backend.len(), 3);
    let routed: u64 = per_backend
        .iter()
        .map(|b| b.get("routed").and_then(Value::as_u64).unwrap())
        .sum();
    assert_eq!(routed, payloads.len() as u64 + 1);

    // Identical resubmission is a coordinator-cache hit: answered
    // synchronously, byte-identical, no new forward.
    let resp = c.submit_and_wait(&payloads[0]).unwrap();
    assert_eq!(status(&resp), "done");
    assert_eq!(resp.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("report").unwrap().encode(), served[0]);
    assert_eq!(
        stat_u64(&c.stats().unwrap(), "forwarded"),
        payloads.len() as u64 + 1
    );

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    assert_eq!(fleet.controller.rerouted(), 0);
    for b in backends {
        shutdown_backend(b);
    }
}

#[test]
fn backend_killed_mid_sweep_reroutes_with_byte_identical_reports() {
    // Two real backends plus a fake that accepts one forward
    // connection, acknowledges its SUBMIT as queued, and then drops
    // the connection and stops listening — a mid-sweep kill.
    let b0 = start_backend();
    let b1 = start_backend();
    let fake = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    let killer = thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let (stream, _) = fake.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("SUBMIT"), "unexpected first line: {line}");
        let mut stream = stream;
        stream
            .write_all(b"{\"status\":\"queued\",\"ticket\":1,\"key\":\"0\",\"queue_depth\":1}\n")
            .unwrap();
        // Dropping the stream and listener kills the backend: the
        // coordinator sees EOF on the job's connection and
        // connect-refused after.
    });

    let addrs = vec![b0.addr.clone(), fake_addr, b1.addr.clone()];
    let ring = HashRing::new(&addrs);
    // Deterministically aim two jobs at the doomed backend (index 1)
    // and two at the survivors.
    let s_dead = seed_with_primary(&ring, 1);
    let s_dead2 = (s_dead + 1..1000)
        .find(|&s| primary_of(&ring, &seeded_payload(s)) == 1)
        .unwrap();
    let s_live = seed_with_primary(&ring, 0);
    let s_live2 = seed_with_primary(&ring, 2);
    let seeds = [s_dead, s_dead2, s_live, s_live2];

    let fleet = start_coordinator(&addrs);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let payloads: Vec<Value> = seeds.iter().map(|&s| seeded_payload(s)).collect();
    let submitted = c.pipeline(&payloads).unwrap();

    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    for (resp, &seed) in submitted.iter().zip(&seeds) {
        assert_eq!(status(resp), "queued", "{}", resp.encode());
        let ticket = resp.get("ticket").and_then(Value::as_u64).unwrap();
        let done = c.wait(ticket).unwrap();
        assert_eq!(status(&done), "done", "{}", done.encode());
        let w = workloads::by_name("spec06.mcf").unwrap().with_seed(seed);
        assert_eq!(
            done.get("report").unwrap().encode(),
            encode_sim_report(&run_single(&w, &exp)),
            "seed {seed}: report must stay byte-identical across the kill"
        );
    }

    // The jobs aimed at the killed backend must have rerouted.
    assert!(
        fleet.controller.rerouted() >= 2,
        "expected both doomed-backend jobs to reroute, got {}",
        fleet.controller.rerouted()
    );
    let stats = c.stats().unwrap();
    assert!(stat_u64(&stats, "rerouted") >= 2);
    let per_backend = stats
        .get("stats")
        .and_then(|s| s.get("backends"))
        .and_then(Value::as_arr)
        .unwrap();
    let dead = per_backend
        .iter()
        .find(|b| b.get("addr").and_then(Value::as_str) == Some(addrs[1].as_str()))
        .expect("killed backend still listed in stats");
    assert_eq!(dead.get("up").and_then(Value::as_bool), Some(false));
    assert!(dead.get("rerouted_away").and_then(Value::as_u64).unwrap() >= 2);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    killer.join().unwrap();
    shutdown_backend(b0);
    shutdown_backend(b1);
}

#[test]
fn backend_down_at_start_falls_back_and_counts_reroutes() {
    // The middle ring node never existed; jobs aimed at it must land
    // on a live backend with the departure visible in STATS.
    let b0 = start_backend();
    let b1 = start_backend();
    let addrs = vec![b0.addr.clone(), dead_addr(), b1.addr.clone()];
    let ring = HashRing::new(&addrs);
    let seed = seed_with_primary(&ring, 1);

    let fleet = start_coordinator(&addrs);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let resp = c.submit_and_wait(&seeded_payload(seed)).unwrap();
    assert_eq!(status(&resp), "done", "{}", resp.encode());
    let w = workloads::by_name("spec06.mcf").unwrap().with_seed(seed);
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    assert_eq!(
        resp.get("report").unwrap().encode(),
        encode_sim_report(&run_single(&w, &exp)),
        "rerouted report must be byte-identical to a local run"
    );

    assert!(fleet.controller.rerouted() >= 1);
    assert_eq!(
        fleet.controller.local_jobs(),
        0,
        "a live ring node must absorb the job"
    );
    let stats = c.stats().unwrap();
    assert!(
        stat_u64(&stats, "rerouted") >= 1,
        "the rerouted counter must be visible in STATS: {}",
        stats.encode()
    );
    let per_backend = stats
        .get("stats")
        .and_then(|s| s.get("backends"))
        .and_then(Value::as_arr)
        .unwrap();
    let down = per_backend
        .iter()
        .find(|b| b.get("addr").and_then(Value::as_str) == Some(addrs[1].as_str()))
        .unwrap();
    assert_eq!(down.get("up").and_then(Value::as_bool), Some(false));
    assert!(down.get("rerouted_away").and_then(Value::as_u64).unwrap() >= 1);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    shutdown_backend(b0);
    shutdown_backend(b1);
}

#[test]
fn unreachable_fleet_falls_back_to_local_execution() {
    // Every ring node refuses connections: the coordinator must finish
    // the sweep itself, byte-identically, and say so in its counters —
    // including the seed-bypass path running locally.
    let addrs = vec![dead_addr(), dead_addr()];
    let fleet = start_coordinator(&addrs);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");

    let canonical =
        req(r#"{"workload":"gap.bfs","scale":"test","l1":"stride","temporal":"streamline"}"#);
    let resp = c.submit_and_wait(&canonical).unwrap();
    assert_eq!(status(&resp), "done", "{}", resp.encode());
    let direct = SweepRunner::serial().run_one(SweepJob::single(
        workloads::by_name("gap.bfs").unwrap(),
        Experiment::new(Scale::Test)
            .l1(L1Kind::Stride)
            .temporal(TemporalKind::Streamline),
    ));
    assert_eq!(
        resp.get("report").unwrap().encode(),
        encode_sim_report(&direct)
    );

    let seeded = seeded_payload(777);
    let resp = c.submit_and_wait(&seeded).unwrap();
    assert_eq!(status(&resp), "done");
    let w = workloads::by_name("spec06.mcf").unwrap().with_seed(777);
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    assert_eq!(
        resp.get("report").unwrap().encode(),
        encode_sim_report(&run_single(&w, &exp)),
        "local-fallback seeded run must bypass the seed-blind cache"
    );

    assert_eq!(fleet.controller.local_jobs(), 2);
    assert!(
        fleet.controller.rerouted() >= 2,
        "departures from unreachable primaries count"
    );
    let stats = c.stats().unwrap();
    assert_eq!(stat_u64(&stats, "local_jobs"), 2);
    assert_eq!(stat_u64(&stats, "forwarded"), 0);
    let per_backend = stats
        .get("stats")
        .and_then(|s| s.get("backends"))
        .and_then(Value::as_arr)
        .unwrap();
    assert!(per_backend
        .iter()
        .all(|b| b.get("up").and_then(Value::as_bool) == Some(false)));

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
}

#[test]
fn local_fallback_jobs_honour_their_deadline() {
    // With every ring node down the job runs in the coordinator's own
    // pool, and a deadline must cancel it there exactly as a backend
    // would: a four-core full-scale mix runs far longer than 10 ms.
    let fleet = start_coordinator(&[dead_addr(), dead_addr()]);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let doomed = req(
        r#"{"mix":["spec06.mcf","gap.pr","gap.tc","spec06.xalancbmk"],"scale":"full","temporal":"streamline","deadline_ms":10}"#,
    );
    let resp = c.submit_and_wait(&doomed).unwrap();
    assert_eq!(status(&resp), "deadline-exceeded", "{}", resp.encode());
    assert_eq!(fleet.controller.local_jobs(), 1);
    assert!(stat_u64(&c.stats().unwrap(), "cancelled") >= 1);

    // The worker that ran the doomed job is free again.
    let quick = c
        .submit_and_wait(&req(r#"{"workload":"gap.bfs","scale":"test"}"#))
        .unwrap();
    assert_eq!(status(&quick), "done", "{}", quick.encode());

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
}

#[test]
fn coordinator_stops_reading_from_a_client_that_never_reads() {
    use std::io::Write;
    // A client that pipelines PINGs and never reads a reply: once the
    // thread serving it blocks writing replies, it stops *reading* as
    // well, so the kernel buffers fill and the client's writes stall.
    // Reading on regardless would buffer the whole 48 MiB in the
    // service. The same holds for a coordinator and a plain server.
    let server = start_backend();
    let fleet = start_coordinator(&[dead_addr()]);
    for (addr, handle) in [(server.addr, server.handle), (fleet.addr, fleet.handle)] {
        let mut flood = std::net::TcpStream::connect(&addr).expect("connect raw");
        flood
            .set_write_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let chunk = "PING\n".repeat(64 * 1024 / 5);
        let stalled = (0..48 * 16).any(|_| flood.write_all(chunk.as_bytes()).is_err());
        let what = "48 MiB of pipelined requests were all read with no reply collected";
        assert!(stalled, "{addr}: {what}");

        // The stalled connection holds up nobody else.
        let mut c = Client::connect(&addr).expect("connect");
        assert_eq!(
            status(&c.ping().unwrap()),
            "ok",
            "{addr}: others are still served"
        );
        drop(flood);
        assert_eq!(status(&c.shutdown().unwrap()), "ok");
        drop(c);
        handle.join().unwrap();
    }
}

/// A scripted backend: accepts connections in a loop, records every
/// line sent down any of them, answers each `SUBMIT` with `queued`
/// under the next ticket and each `WAIT` — after a pause long enough
/// for a poller to show itself — with whatever `verdict` makes of the
/// ticket and the payload submitted under it. Its handle yields the
/// recorded lines. A `verdict` may say anything, which makes this the
/// misbehaving backend too.
fn stub_backend(verdict: impl Fn(u64, &str) -> String + Send + Sync + 'static) -> (String, Stub) {
    let payloads = Mutex::new(Vec::<String>::new());
    stub_server(move |line| match line.split_once(' ') {
        Some(("SUBMIT", payload)) => {
            let mut payloads = payloads.lock().unwrap();
            payloads.push(payload.to_string());
            let ticket = payloads.len();
            format!(r#"{{"status":"queued","ticket":{ticket},"key":"0","queue_depth":1}}"#)
        }
        Some(("WAIT", ticket)) => {
            thread::sleep(std::time::Duration::from_millis(30));
            let ticket: u64 = ticket.parse().expect("a ticket number");
            let payload = payloads.lock().unwrap()[ticket as usize - 1].clone();
            verdict(ticket, &payload)
        }
        _ => r#"{"status":"error","reason":"the stub speaks SUBMIT and WAIT"}"#.to_string(),
    })
}

/// A server that accepts any number of connections, serves each on a
/// thread of its own, records every line it reads and answers it with
/// what `answer` makes of it.
fn stub_server(answer: impl Fn(&str) -> String + Send + Sync + 'static) -> (String, Stub) {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let stopped = Arc::new(AtomicBool::new(false));
    let (seen, stop) = (Arc::clone(&lines), Arc::clone(&stopped));
    let answer = Arc::new(answer);
    let accepting = thread::spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = stream.unwrap();
            let (answer, seen) = (Arc::clone(&answer), Arc::clone(&seen));
            thread::spawn(move || {
                let reader = BufReader::new(stream.try_clone().unwrap());
                for line in reader.lines().map_while(Result::ok) {
                    seen.lock().unwrap().push(line.clone());
                    let reply = answer(&line);
                    if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    let stub = Stub {
        addr: addr.clone(),
        lines,
        stopped,
        accepting,
    };
    (addr, stub)
}

/// A running [`stub_server`].
struct Stub {
    addr: String,
    lines: Arc<Mutex<Vec<String>>>,
    stopped: Arc<AtomicBool>,
    accepting: thread::JoinHandle<()>,
}

impl Stub {
    /// Stops accepting and returns every line recorded. A line is
    /// recorded before it is answered, so once the coordinator has
    /// stopped, all of its lines are in.
    fn join(self) -> thread::Result<Vec<String>> {
        self.stopped.store(true, Ordering::SeqCst);
        // Wakes the blocking accept.
        drop(std::net::TcpStream::connect(&self.addr));
        self.accepting.join()?;
        let lines = self.lines.lock().unwrap();
        Ok(lines.clone())
    }
}

/// `(SUBMIT lines, WAIT lines, all lines)` a stub recorded.
fn verbs(lines: &[String]) -> (usize, usize, usize) {
    let count = |verb: &str| lines.iter().filter(|l| l.starts_with(verb)).count();
    (count("SUBMIT "), count("WAIT "), lines.len())
}

fn seeded_local_report(seed: u64) -> String {
    let w = workloads::by_name("spec06.mcf").unwrap().with_seed(seed);
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    encode_sim_report(&run_single(&w, &exp))
}

#[test]
fn a_link_carries_one_submit_and_one_wait_per_job_and_never_a_poll() {
    let seeds = [21, 22, 23];
    let payloads: Vec<Value> = seeds.iter().map(|&s| seeded_payload(s)).collect();
    let local: Vec<String> = seeds.iter().map(|&s| seeded_local_report(s)).collect();
    // The stub's canned results are the local runs, keyed by the
    // payload bytes the coordinator forwards verbatim.
    let canned: std::collections::HashMap<String, String> = payloads
        .iter()
        .map(Value::encode)
        .zip(local.iter().cloned())
        .collect();
    let (addr, stub) = stub_backend(move |ticket, payload| {
        let report = &canned[payload];
        format!(
            r#"{{"status":"done","ticket":{ticket},"key":"0","cached":false,"report":{report}}}"#
        )
    });

    let fleet = start_coordinator(&[addr]);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let served = c.submit_sweep(&payloads).unwrap();
    for (resp, local) in served.iter().zip(&local) {
        assert_eq!(status(resp), "done", "{}", resp.encode());
        assert_eq!(&resp.get("report").unwrap().encode(), local);
    }
    assert_eq!(fleet.controller.rerouted(), 0);
    assert_eq!(fleet.controller.local_jobs(), 0);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    let lines = stub.join().unwrap();
    assert_eq!(verbs(&lines), (3, 3, 6), "{lines:#?}");
}

#[test]
fn a_wait_answered_without_a_verdict_reroutes_the_job() {
    // A backend that answers WAIT the way POLL would: the placement is
    // void, and with the ring exhausted the job runs locally.
    let (addr, stub) =
        stub_backend(|ticket, _| format!(r#"{{"status":"running","ticket":{ticket}}}"#));
    let fleet = start_coordinator(&[addr]);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let resp = c.submit_and_wait(&seeded_payload(24)).unwrap();
    assert_eq!(status(&resp), "done", "{}", resp.encode());
    assert_eq!(
        resp.get("report").unwrap().encode(),
        seeded_local_report(24)
    );
    assert_eq!(fleet.controller.rerouted(), 1);
    assert_eq!(fleet.controller.local_jobs(), 1);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    let lines = stub.join().unwrap();
    assert_eq!(verbs(&lines), (1, 1, 2), "{lines:#?}");
}

/// A stub backend answers job `seed` `done` with `report`, which the
/// coordinator must not admit: the placement is void, the bytes never
/// reach the cache, and the job runs locally — once, though it is
/// asked for twice.
fn a_done_carrying_reroutes(report: String, seed: u64) {
    let (addr, stub) = stub_backend(move |ticket, _| {
        format!(
            r#"{{"status":"done","ticket":{ticket},"key":"0","cached":false,"report":{report}}}"#
        )
    });
    let fleet = start_coordinator(&[addr]);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    for _ in 0..2 {
        let resp = c.submit_and_wait(&seeded_payload(seed)).unwrap();
        assert_eq!(status(&resp), "done", "{}", resp.encode());
        assert_eq!(
            resp.get("report").unwrap().encode(),
            seeded_local_report(seed)
        );
    }
    assert_eq!(fleet.controller.rerouted(), 1);
    assert_eq!(fleet.controller.local_jobs(), 1);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    let lines = stub.join().unwrap();
    assert_eq!(verbs(&lines), (1, 1, 2), "{lines:#?}");
}

#[test]
fn a_done_whose_report_does_not_decode_reroutes_the_job() {
    // Canonical JSON, but not a report.
    a_done_carrying_reroutes(r#"{"cores":[]}"#.into(), 27);
}

#[test]
fn a_done_whose_report_is_not_canonical_reroutes_the_job() {
    // The right report with one space added: it decodes, but it is not
    // the encoder's bytes, so it fails the store's admission rule.
    let spaced = seeded_local_report(28).replacen(',', ", ", 1);
    assert!(decode_sim_report(&spaced).is_ok());
    a_done_carrying_reroutes(spaced, 28);
}

#[test]
fn a_panicked_jobs_verdict_is_relayed_and_the_backend_serves_the_next_job() {
    // Ticket 1 panicked on its backend worker; ticket 2 ran. The
    // coordinator relays the first verdict as it is — no reroute, no
    // local run — and forwards the next job to the same backend.
    let reason = "panicked: warmup fraction 2 is not in [0, 1)";
    let report = seeded_local_report(26);
    let canned = report.clone();
    let (addr, stub) = stub_backend(move |ticket, _| match ticket {
        1 => format!(r#"{{"status":"failed","ticket":{ticket},"reason":"{reason}"}}"#),
        _ => format!(
            r#"{{"status":"done","ticket":{ticket},"key":"0","cached":false,"report":{canned}}}"#
        ),
    });
    let fleet = start_coordinator(&[addr]);
    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    let failed = c.submit_and_wait(&seeded_payload(25)).unwrap();
    assert_eq!(status(&failed), "failed", "{}", failed.encode());
    assert_eq!(failed.get("reason").and_then(Value::as_str), Some(reason));
    let next = c.submit_and_wait(&seeded_payload(26)).unwrap();
    assert_eq!(status(&next), "done", "{}", next.encode());
    assert_eq!(next.get("report").unwrap().encode(), report);
    assert_eq!(fleet.controller.rerouted(), 0);
    assert_eq!(fleet.controller.local_jobs(), 0);

    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    let lines = stub.join().unwrap();
    assert_eq!(verbs(&lines), (2, 2, 4), "{lines:#?}");
}

#[test]
fn a_finished_job_is_not_held_behind_an_older_job_on_its_backend() {
    use std::sync::mpsc;
    use std::time::Duration;
    // One backend: job 1 is ticket 1 and runs until the test releases
    // it; job 2 is ticket 2 and is over at once.
    let (slow, fast) = (seeded_payload(31), seeded_payload(32));
    let reports = [seeded_local_report(31), seeded_local_report(32)];
    let (slow_report, fast_report) = (reports[0].clone(), reports[1].clone());
    let (parked, is_parked) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let slow_line = slow.encode();
    let (addr, stub) = stub_server(move |line| {
        let done = |ticket: usize| {
            let report = &reports[ticket - 1];
            format!(
                r#"{{"status":"done","ticket":{ticket},"key":"0","cached":false,"report":{report}}}"#
            )
        };
        match line.split_once(' ') {
            Some(("SUBMIT", payload)) => {
                let ticket = if payload == slow_line { 1 } else { 2 };
                format!(r#"{{"status":"queued","ticket":{ticket},"key":"0","queue_depth":1}}"#)
            }
            Some(("WAIT", "1")) => {
                parked.send(()).unwrap();
                released.lock().unwrap().recv().unwrap();
                done(1)
            }
            Some(("WAIT", "2")) => done(2),
            _ => r#"{"status":"error","reason":"unexpected"}"#.to_string(),
        }
    });
    let fleet = start_coordinator(&[addr]);
    let submit = |payload: Value| {
        let addr = fleet.addr.clone();
        let (sent, answer) = mpsc::channel();
        thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect coordinator");
            let _ = sent.send(c.submit_and_wait(&payload).unwrap());
        });
        answer
    };
    let first = submit(slow);
    is_parked
        .recv_timeout(Duration::from_secs(30))
        .expect("job 1's WAIT reaches the backend");
    let second = submit(fast).recv_timeout(Duration::from_secs(5));
    let first_was_running = first.try_recv().is_err();
    // Let job 1 finish before judging, so a failure leaves nothing
    // blocked.
    release.send(()).unwrap();
    let second = second.expect("job 2's answer is not held behind job 1's");
    assert!(first_was_running, "job 1 was released only now");
    assert_eq!(status(&second), "done", "{}", second.encode());
    assert_eq!(second.get("report").unwrap().encode(), fast_report);
    let first = first.recv().unwrap();
    assert_eq!(status(&first), "done", "{}", first.encode());
    assert_eq!(first.get("report").unwrap().encode(), slow_report);
    assert_eq!(fleet.controller.rerouted(), 0);

    let mut c = Client::connect(&fleet.addr).expect("connect coordinator");
    assert_eq!(status(&c.shutdown().unwrap()), "ok");
    drop(c);
    fleet.handle.join().unwrap();
    let lines = stub.join().unwrap();
    assert_eq!(verbs(&lines), (2, 2, 4), "{lines:#?}");
}
