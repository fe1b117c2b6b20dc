//! `serve_closed` and `fleet_closed`: one closed-loop client script
//! against an in-process service.
//!
//! `serve_closed` talks to one `Server` on a `unix:` socket with a
//! result store; `fleet_closed` runs the same script through a
//! `Coordinator` and two one-worker TCP backends, so every number that
//! differs between the two is the price of the hop.
//!
//! Closed loop: every connection sends its next batch only after the
//! previous one is answered. Set-up fills 16 keys. Each round then
//! sends 8 192 cache hits as [`host::driver_threads`] connections ×
//! depth-256 pipelines and submits an 8-job seeded sweep no cache level
//! can answer. The traced pass adds depth-1 round trips. The run ends
//! with a restart on the same stores that must answer all 16 keys
//! without simulating.
//!
//! `Client` keeps its socket private, so a read timeout cannot be set
//! from here; the watchdog in `main` turns a stalled server into a
//! failed run instead of a hang.

use crate::host;
use crate::kernels;
use crate::replay::{push_report_totals, stepped_accesses};
use crate::run::{Metric, Run};
use crate::stats;
use std::path::Path;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;
use tpharness::wire::{decode_sim_report, encode_sim_report, Value};
use tpharness::{derive_seed, run_single};
use tpserve::{Client, Coordinator, CoordinatorConfig, HashRing, Request, Server, ServerConfig};
use tptrace::{pool, Scale};

/// Which service the script runs against.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `Server` on a unix socket.
    Serve,
    /// `Coordinator` + two TCP backends.
    Fleet,
}

/// Keys the set-up fills: 4 workloads × 4 temporal configurations.
const FILL_WORKLOADS: [&str; 4] = ["spec06.mcf", "spec06.soplex", "spec17.gcc", "gap.bfs"];
const FILL_TEMPORALS: [&str; 4] = ["none", "triage", "triangel", "streamline"];
/// Jobs of one miss sweep: 4 workloads × 2 temporal configurations.
const MISS_WORKLOADS: [&str; 4] = ["spec06.xalancbmk", "spec06.sphinx3", "gap.pr", "gap.sssp"];
const MISS_TEMPORALS: [&str; 2] = ["triangel", "streamline"];
/// Which backend job `j` of a fleet sweep lands on: heavy and light
/// jobs alternate, so both backends get the same work every round.
const MISS_BACKEND: [usize; 8] = [0, 1, 1, 0, 0, 1, 1, 0];
const PIPELINE_DEPTH: usize = 256;
/// Reference samples after each phase of a round.
const REF_SAMPLES_PER_PHASE: usize = 4;
const HITS_PER_ROUND: usize = 8_192;

/// A running service and the threads its servers run on.
struct Service {
    /// The address clients connect to.
    addr: String,
    /// Backends behind the coordinator (empty for one server).
    backends: Vec<String>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

/// Where the fleet's backends listen. The hash ring places jobs by
/// backend address and the script picks each job's seed by where the
/// ring sends it, so fixed ports are what makes a `--seed` produce the
/// same requests in every run.
const FIRST_BACKEND_PORT: u16 = 47_611;

/// Binds a backend on the first free port at or after `from`. A backend
/// must also come back on the port it had, or its store answers for the
/// wrong shard; a restart passes the old port and finds it free.
fn bind_backend(from: u16, cfg: ServerConfig) -> std::io::Result<Server> {
    let mut last = None;
    for port in from..from.saturating_add(64) {
        match Server::bind(&format!("127.0.0.1:{port}"), cfg.clone()) {
            Ok(server) => return Ok(server),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one port tried"))
}

/// `backend_ports` are the ports a restarted fleet must come back on
/// (empty on a first start).
fn start(
    mode: Mode,
    dir: &Path,
    generation: usize,
    backend_ports: &[u16],
) -> std::io::Result<Service> {
    let cfg = |workers: usize, store: &str| ServerConfig {
        workers,
        store_dir: Some(dir.join(store)),
        ..ServerConfig::default()
    };
    let mut threads = Vec::new();
    let mut spawn_server = |server: Server| {
        let addr = server.addr().to_string();
        threads.push(std::thread::spawn(move || server.run()));
        addr
    };
    match mode {
        Mode::Serve => {
            let spec = format!("unix:{}/s{generation}.sock", dir.display());
            let addr = spawn_server(Server::bind(&spec, cfg(host::driver_threads(), "store"))?);
            Ok(Service {
                addr,
                backends: Vec::new(),
                threads,
            })
        }
        Mode::Fleet => {
            let from = |k: usize| {
                backend_ports
                    .get(k)
                    .copied()
                    .unwrap_or(FIRST_BACKEND_PORT + 100 * k as u16)
            };
            let backends = vec![
                spawn_server(bind_backend(from(0), cfg(1, "store0"))?),
                spawn_server(bind_backend(from(1), cfg(1, "store1"))?),
            ];
            let coord = Coordinator::bind("127.0.0.1:0", &backends, CoordinatorConfig::default())?;
            let addr = coord.addr().to_string();
            threads.push(std::thread::spawn(move || coord.run()));
            Ok(Service {
                addr,
                backends,
                threads,
            })
        }
    }
}

/// Drains and stops every server of the service.
fn stop(run: &mut Run, service: Service) {
    for addr in std::iter::once(&service.addr).chain(&service.backends) {
        let ok = Client::connect(addr).and_then(|mut c| c.shutdown()).is_ok();
        run.check(ok, || format!("SHUTDOWN of {addr} failed"));
    }
    for t in service.threads {
        let ok = matches!(t.join(), Ok(Ok(())));
        run.check(ok, || "a server thread ended with an error".into());
    }
}

/// One request of the script: its payload and what must come back.
struct Job {
    payload: Value,
    /// `key` field of the response.
    key: String,
    workload: &'static str,
    temporal: &'static str,
    seed: u64,
}

fn job(workload: &'static str, temporal: &'static str, seed: u64) -> Job {
    let payload = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("scale".into(), Value::Str("test".into())),
        ("l1".into(), Value::Str("stride".into())),
        ("temporal".into(), Value::Str(temporal.into())),
        ("seed".into(), Value::u64(seed)),
        ("audit".into(), Value::Bool(true)),
    ]);
    let request = Request::from_value(&payload).expect("a valid request");
    Job {
        key: format!("{:016x}", request.key()),
        payload,
        workload,
        temporal,
        seed,
    }
}

/// The report the same job produces when run directly.
fn direct_report(j: &Job) -> String {
    let request = Request::from_value(&j.payload).expect("a valid request");
    let tpserve::protocol::Target::Single(w) = &request.target else {
        unreachable!("the script only submits single-workload jobs")
    };
    encode_sim_report(&run_single(&w.with_seed(j.seed), &request.experiment()))
}

/// One job per `workloads × temporals` pair, seeds derived from
/// `(seed, tag)`. Behind a coordinator, job `j` gets the first derived
/// seed that the hash ring sends to backend `placement[j]` (the pattern
/// repeats if there are more jobs than entries), so the two
/// backends share the work the same way whatever the seed and whatever
/// ports they listen on; the metric then measures the hop, not the luck
/// of the hash.
fn jobs(
    seed: u64,
    tag: &str,
    workloads: &[&'static str],
    temporals: &[&'static str],
    ring: Option<&HashRing>,
    placement: &[usize],
) -> Vec<Job> {
    let mut out = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for (ti, t) in temporals.iter().enumerate() {
            let j = wi * temporals.len() + ti;
            let mut attempt = 0;
            let chosen = loop {
                let candidate = job(w, t, derive_seed(seed, &format!("{tag}.{j}.{attempt}")));
                let lands = ring.map(|r| {
                    let request = Request::from_value(&candidate.payload).expect("valid");
                    r.assign(HashRing::job_point(&request.canonical()))
                });
                if lands.is_none_or(|b| b == Some(placement[j % placement.len()])) {
                    break candidate;
                }
                attempt += 1;
            };
            out.push(chosen);
        }
    }
    out
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("?")
}

fn report_bytes(v: &Value) -> Option<String> {
    v.get("report").map(Value::encode)
}

/// Checks one terminal response of `j`.
fn check_done(run: &mut Run, j: &Job, resp: &Value, want_cached: bool) {
    let cached = resp.get("cached").and_then(Value::as_bool);
    let ok = status(resp) == "done"
        && resp.get("key").and_then(Value::as_str) == Some(j.key.as_str())
        && cached == Some(want_cached);
    run.check(ok, || {
        format!(
            "{}/{}: status {} cached {cached:?} (wanted {want_cached})",
            j.workload,
            j.temporal,
            status(resp)
        )
    });
}

struct Fixture {
    service: Service,
    generation: usize,
    fill: Vec<Job>,
    /// Encoded report of every fill key, as the service answered it.
    fill_reports: Vec<String>,
    /// One connection per driver thread; the first also runs the miss
    /// sweeps and the depth-1 phase.
    conns: Vec<Client>,
    ring: Option<HashRing>,
}

fn setup(run: &mut Run, mode: Mode, dir: &Path, generation: usize) -> Fixture {
    for store in ["store", "store0", "store1"] {
        let _ = std::fs::remove_dir_all(dir.join(store));
    }
    pool::global().clear();
    let service = start(mode, dir, generation, &[]).expect("the service binds");
    let ring = (mode == Mode::Fleet).then(|| HashRing::new(&service.backends));
    let fill = jobs(
        run.seed,
        "fill",
        &FILL_WORKLOADS,
        &FILL_TEMPORALS,
        ring.as_ref(),
        &[0, 1],
    );
    let mut conns: Vec<Client> = (0..host::driver_threads())
        .map(|_| Client::connect(&service.addr).expect("the service accepts"))
        .collect();
    let payloads: Vec<Value> = fill.iter().map(|j| j.payload.clone()).collect();
    let answers = conns[0]
        .submit_sweep(&payloads)
        .expect("the fill sweep completes");
    let mut fill_reports = Vec::new();
    for (j, resp) in fill.iter().zip(&answers) {
        check_done(run, j, resp, false);
        fill_reports.push(report_bytes(resp).unwrap_or_default());
    }
    Fixture {
        service,
        generation,
        fill,
        fill_reports,
        conns,
        ring,
    }
}

fn teardown(run: &mut Run, fx: Fixture) {
    drop(fx.conns);
    stop(run, fx.service);
}

/// The hit phase: every connection pipelines its share of
/// [`HITS_PER_ROUND`] requests for the filled keys, depth
/// [`PIPELINE_DEPTH`]. Returns the seconds it took.
fn hit_phase(run: &mut Run, fx: &mut Fixture, round: usize) -> f64 {
    let conns = fx.conns.len();
    let batches = HITS_PER_ROUND / PIPELINE_DEPTH / conns;
    let fill = &fx.fill;
    // Which key each slot of a batch asks for: a rotation that moves
    // with the round and the connection.
    let slot = |c: usize, b: usize, i: usize| (i + 7 * b + 13 * c + 31 * round) % fill.len();
    let batch_of = |c: usize, b: usize| -> Vec<Value> {
        (0..PIPELINE_DEPTH)
            .map(|i| fill[slot(c, b, i)].payload.clone())
            .collect()
    };
    let barrier = Barrier::new(conns + 1);
    let (secs, bad) = std::thread::scope(|s| {
        let handles: Vec<_> = fx
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, batch_of) = (&barrier, &batch_of);
                s.spawn(move || {
                    let payloads: Vec<Vec<Value>> = (0..batches).map(|b| batch_of(c, b)).collect();
                    let mut bad = Vec::new();
                    barrier.wait();
                    for (b, batch) in payloads.iter().enumerate() {
                        if let Err(e) = client.submit_batch(batch) {
                            bad.push(format!("hit batch write: {e}"));
                            break;
                        }
                        for i in 0..PIPELINE_DEPTH {
                            let want = &fill[slot(c, b, i)];
                            match client.read_response() {
                                Ok(r)
                                    if status(&r) == "done"
                                        && r.get("cached").and_then(Value::as_bool)
                                            == Some(true)
                                        && r.get("key").and_then(Value::as_str)
                                            == Some(want.key.as_str()) => {}
                                Ok(r) => bad.push(format!("hit answered {}", status(&r))),
                                Err(e) => bad.push(format!("hit read: {e}")),
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let bad: Vec<String> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (t.elapsed().as_secs_f64(), bad)
    });
    let sent = (batches * PIPELINE_DEPTH * conns) as u64;
    run.attempted += sent;
    run.failed += bad.len() as u64;
    for b in bad.into_iter().take(4) {
        run.failures.push(b);
    }
    secs
}

/// STATS of the client-facing server (asked over `client`), and the
/// simulations its workers — or, behind a coordinator, its backends'
/// workers — have run.
fn stats(client: &mut Client, backends: &[String]) -> (Value, u64) {
    let stats_of = |c: &mut Client| c.stats().ok().and_then(|v| v.get("stats").cloned());
    let own = stats_of(client).unwrap_or(Value::Null);
    let simulations = if backends.is_empty() {
        counter(&own, "simulations")
    } else {
        backends
            .iter()
            .filter_map(|b| stats_of(&mut Client::connect(b).ok()?))
            .map(|v| counter(&v, "simulations"))
            .sum()
    };
    (own, simulations)
}

fn counter(v: &Value, name: &str) -> u64 {
    v.get(name).and_then(Value::as_u64).unwrap_or(0)
}

/// Runs one of the two served workloads.
pub fn run(run: &mut Run, mode: Mode, out_dir: &Path) {
    let dir = out_dir.join(format!("w{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut generation = 0;
    let mut fx = run.time_setup(
        |run| {
            generation += 1;
            setup(run, mode, &dir, generation)
        },
        teardown,
    );

    // Nominal work of one miss sweep, from the registry-seed traces (a
    // seed moves the two graph traces' lengths by a percent).
    let miss_accesses: u64 = MISS_WORKLOADS
        .iter()
        .map(|name| {
            let w = tptrace::workloads::by_name(name).expect("registry workload");
            MISS_TEMPORALS.len() as u64 * stepped_accesses(w.generate(Scale::Test).len())
        })
        .sum();

    let mut hit_secs = Vec::new();
    let mut miss_secs = Vec::new();
    let mut first_miss: Vec<(Job, String)> = Vec::new();
    let mut first_round_stats = None;
    let mut round = 0;
    while run.window_open(round) {
        let first = round == 0;
        let (before, sims_before) = if first {
            stats(&mut fx.conns[0], &fx.service.backends)
        } else {
            (Value::Null, 0)
        };
        hit_secs.push(hit_phase(run, &mut fx, round));
        run.sample_ref(REF_SAMPLES_PER_PHASE);
        let mid = if first {
            stats(&mut fx.conns[0], &fx.service.backends).0
        } else {
            Value::Null
        };

        let sweep = jobs(
            run.seed,
            &format!("miss.{round}"),
            &MISS_WORKLOADS,
            &MISS_TEMPORALS,
            fx.ring.as_ref(),
            &MISS_BACKEND,
        );
        let payloads: Vec<Value> = sweep.iter().map(|j| j.payload.clone()).collect();
        let t = Instant::now();
        let answers = fx.conns[0].submit_sweep(&payloads);
        miss_secs.push(t.elapsed().as_secs_f64());
        run.sample_ref(REF_SAMPLES_PER_PHASE);
        match answers {
            Ok(answers) => {
                for (j, resp) in sweep.iter().zip(&answers) {
                    check_done(run, j, resp, false);
                }
                if first {
                    first_miss = sweep
                        .into_iter()
                        .zip(&answers)
                        .map(|(j, r)| (j, report_bytes(r).unwrap_or_default()))
                        .collect();
                }
            }
            Err(e) => run.check(false, || format!("miss sweep: {e}")),
        }
        if first {
            let (after, sims_after) = stats(&mut fx.conns[0], &fx.service.backends);
            let simulations = sims_after.saturating_sub(sims_before);
            first_round_stats = Some((before, mid, after, simulations));
        }
        // Seeded traces are never asked for again; dropping them keeps
        // the resident set independent of how many rounds fit the
        // window.
        pool::global().clear();
        round += 1;
    }

    run.series.push(("secs.hits".into(), hit_secs.clone()));
    run.series
        .push(("secs.miss_sweep".into(), miss_secs.clone()));
    let hits = HITS_PER_ROUND as f64;
    let n_miss = (MISS_WORKLOADS.len() * MISS_TEMPORALS.len()) as f64;
    let sim = Metric::from_times("sim_accesses_per_s", "1/s", &miss_secs, |t| {
        miss_accesses as f64 / t
    });
    let hit = Metric::from_times("hit_rps", "1/s", &hit_secs, |t| hits / t);
    run.push(sim.per_ref_s("sim_accesses_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(hit.per_ref_s("hits_per_ref_s", "1/ref_s", &run.ref_samples));
    run.push(sim);
    run.push(hit);
    run.push(Metric::from_times(
        "miss_jobs_per_s",
        "1/s",
        &miss_secs,
        |t| n_miss / t,
    ));

    // Exact STATS deltas of the first round, phase by phase.
    if let Some((before, mid, after, simulations)) = first_round_stats {
        let delta = |name: &str, a: &Value, b: &Value| {
            counter(b, name).saturating_sub(counter(a, name)) as f64
        };
        run.push(Metric::exact(
            "tpserve.server.cache_hits",
            "count",
            delta("cache_hits", &before, &mid),
        ));
        run.push(Metric::exact(
            "tpserve.server.simulations",
            "count",
            simulations as f64,
        ));
        run.push(Metric::exact(
            "tpserve.server.store_hits",
            "count",
            delta("store_hits", &before, &after),
        ));
        run.push(Metric::exact(
            "tpserve.server.rejected",
            "count",
            delta("rejected", &before, &after),
        ));
        if mode == Mode::Fleet {
            for name in ["forwarded", "rerouted", "local_jobs"] {
                run.push(Metric::exact(
                    format!("tpserve.coordinator.{name}"),
                    "count",
                    delta(name, &mid, &after),
                ));
            }
        }
        let p50 = after
            .get("service_time_us")
            .and_then(|v| v.get("hit"))
            .map(|h| counter(h, "p50"));
        if let Some(p50) = p50 {
            run.push(Metric::single(
                "tpserve.server.hit_service_p50_us",
                "us",
                p50 as f64,
            ));
        }
    }

    if run.traced {
        traced_pass(run, mode, &mut fx, &dir);
    }

    // Served (or fleet) bytes against a direct run of the same job:
    // every first-round miss and one fill key per workload.
    let mut reports = Vec::new();
    let fill_sample = fx.fill.iter().zip(&fx.fill_reports).step_by(5);
    for (j, served) in first_miss.iter().map(|(j, s)| (j, s)).chain(fill_sample) {
        let direct = direct_report(j);
        run.check(*served == direct, || {
            format!(
                "{}/{}: served bytes differ from a direct run",
                j.workload, j.temporal
            )
        });
        if let Ok(r) = decode_sim_report(&direct) {
            reports.push(r);
        }
    }
    push_report_totals(run, &reports.iter().collect::<Vec<_>>());

    // Warm restart on the same stores: every fill key must come back
    // byte-identical with no simulation run.
    let Fixture {
        service,
        conns,
        fill,
        fill_reports,
        generation,
        ..
    } = fx;
    drop(conns);
    let ports: Vec<u16> = service
        .backends
        .iter()
        .filter_map(|a| a.rsplit(':').next()?.parse().ok())
        .collect();
    stop(run, service);
    match start(mode, &dir, generation + 1, &ports) {
        Ok(service) => {
            let payloads: Vec<Value> = fill.iter().map(|j| j.payload.clone()).collect();
            match Client::connect(&service.addr) {
                Ok(mut client) => {
                    match client.submit_sweep(&payloads) {
                        Ok(answers) => {
                            for ((j, want), resp) in fill.iter().zip(&fill_reports).zip(&answers) {
                                check_done(run, j, resp, true);
                                let same = report_bytes(resp).as_deref() == Some(want.as_str());
                                run.check(same, || {
                                    format!(
                                        "{}/{}: bytes changed across the restart",
                                        j.workload, j.temporal
                                    )
                                });
                            }
                        }
                        Err(e) => run.check(false, || format!("restart sweep: {e}")),
                    }
                    let (_, simulations) = stats(&mut client, &service.backends);
                    run.check(simulations == 0, || {
                        format!("warm restart ran {simulations} simulations")
                    });
                }
                Err(e) => run.check(false, || format!("restart connect: {e}")),
            }
            stop(run, service);
        }
        Err(e) => run.check(false, || format!("restart: {e}")),
    }
    pool::global().clear();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The traced pass: depth-1 round trips, a sweep with `client.submit`
/// and `client.wait` spans, the miss overhead against a direct run,
/// and the socket-free kernels.
fn traced_pass(run: &mut Run, mode: Mode, fx: &mut Fixture, dir: &Path) {
    // Over TCP one depth-1 request costs a delayed-ACK timeout, so the
    // fleet does fewer of them.
    let per_round = match mode {
        Mode::Serve => 2_000,
        Mode::Fleet => 20,
    };
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut pings = Vec::new();
    for rep in 0..run.reps() {
        let root = run.tracer.open("depth1.round", None);
        let mut rtts = Vec::with_capacity(per_round);
        for i in 0..per_round {
            let j = &fx.fill[(i + rep) % fx.fill.len()];
            let span = run.tracer.open("client.submit", Some(root));
            let resp = fx.conns[0].submit(&j.payload);
            rtts.push(run.tracer.close(span) as f64 / 1e3);
            match resp {
                Ok(r) => check_done(run, j, &r, true),
                Err(e) => run.check(false, || format!("depth-1 hit: {e}")),
            }
        }
        run.tracer.close(root);
        p50s.push(stats::percentile(&rtts, 50.0));
        p99s.push(stats::percentile(&rtts, 99.0));
        for _ in 0..(per_round / 20).max(3) {
            let t = Instant::now();
            let ok = fx.conns[0].ping().is_ok();
            pings.push(t.elapsed().as_nanos() as f64 / 1e3);
            run.check(ok, || "PING failed".into());
        }
    }
    run.push(Metric::from_times(
        "tpserve.client.rtt_p50_us",
        "us",
        &p50s,
        |t| t,
    ));
    run.push(Metric::from_times(
        "tpserve.client.rtt_p99_us",
        "us",
        &p99s,
        |t| t,
    ));
    run.push(Metric::from_times(
        "tpserve.client.ping_us",
        "us",
        &pings,
        |t| t,
    ));

    // One traced sweep per repetition: submit, then wait ticket by
    // ticket, exactly what `Client::submit_sweep` does.
    let mut served_ms = Vec::new();
    let mut direct_ms = Vec::new();
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    for rep in 0..run.reps() {
        let plain = jobs(
            run.seed,
            &format!("plain.{rep}"),
            &MISS_WORKLOADS,
            &MISS_TEMPORALS,
            fx.ring.as_ref(),
            &MISS_BACKEND,
        );
        let payloads: Vec<Value> = plain.iter().map(|j| j.payload.clone()).collect();
        let t = Instant::now();
        let ok = fx.conns[0].submit_sweep(&payloads).is_ok();
        plain_secs.push(t.elapsed().as_secs_f64());
        run.check(ok, || "untraced sweep failed".into());

        let sweep = jobs(
            run.seed,
            &format!("traced.{rep}"),
            &MISS_WORKLOADS,
            &MISS_TEMPORALS,
            fx.ring.as_ref(),
            &MISS_BACKEND,
        );
        let payloads: Vec<Value> = sweep.iter().map(|j| j.payload.clone()).collect();
        let root = run.tracer.open("sweep.request", None);
        let span = run.tracer.open("client.submit", Some(root));
        let submitted = fx.conns[0].pipeline(&payloads);
        run.tracer.close(span);
        if let Ok(submitted) = submitted {
            for (j, resp) in sweep.iter().zip(&submitted) {
                let terminal = match resp.get("ticket").and_then(Value::as_u64) {
                    Some(ticket) if status(resp) == "queued" => {
                        let span = run.tracer.open("client.wait", Some(root));
                        let r = fx.conns[0].wait(ticket);
                        run.tracer.close(span);
                        r
                    }
                    _ => Ok(resp.clone()),
                };
                match terminal {
                    Ok(r) => check_done(run, j, &r, false),
                    Err(e) => run.check(false, || format!("traced wait: {e}")),
                }
            }
        } else {
            run.check(false, || "traced sweep submit failed".into());
        }
        let wall = run.tracer.close(root) as f64;
        traced_secs.push(wall * 1e-9);
        served_ms.push(wall / 1e6 / sweep.len() as f64);

        // The same jobs run directly, one after the other.
        let t = Instant::now();
        for j in &sweep {
            std::hint::black_box(direct_report(j));
        }
        direct_ms.push(t.elapsed().as_nanos() as f64 / 1e6 / sweep.len() as f64);
        pool::global().clear();
    }
    let fq = stats::fastest_quarter_mean;
    let workers = match mode {
        Mode::Serve => host::driver_threads(),
        Mode::Fleet => 2,
    } as f64;
    // Per job: served wall time against the direct time spread over the
    // service's workers.
    let overhead = fq(&served_ms) - fq(&direct_ms) / workers;
    let per_rep: Vec<f64> = served_ms
        .iter()
        .zip(&direct_ms)
        .map(|(s, d)| s - d / workers)
        .collect();
    let name = match mode {
        Mode::Serve => "tpserve.server.miss_overhead_ms",
        Mode::Fleet => "tpserve.coordinator.hop_overhead_ms",
    };
    run.push(Metric::with_samples(name, "ms", overhead, &per_rep));
    run.push(Metric::single(
        "trace.overhead_share",
        "share",
        (fq(&traced_secs) - fq(&plain_secs)) / fq(&plain_secs),
    ));

    let payloads: Vec<Value> = fx.fill.iter().map(|j| j.payload.clone()).collect();
    kernels::serve_kernels(run, &payloads, &fx.fill_reports, dir, &fx.service.backends);
}
