//! Command-line companion for `tpserve`.
//!
//! ```text
//! tpclient ADDR ping
//! tpclient ADDR stats
//! tpclient ADDR submit '{"workload":"gap.bfs","scale":"test"}' [--no-wait]
//! tpclient ADDR pipeline JSON [JSON...]
//! tpclient ADDR sweep JSON [JSON...] [--local-check]
//! tpclient ADDR poll TICKET
//! tpclient ADDR shutdown
//! ```
//!
//! `ADDR` is `host:port` or `unix:PATH`. Every command prints the
//! server's JSON response on stdout; `pipeline` writes all its SUBMITs
//! before reading anything back and prints one response line per
//! payload (in request order). `sweep` pipelines the payloads, waits
//! every ticket to a terminal state, and prints a one-line summary;
//! with `--local-check` it also re-runs each job locally and exits
//! nonzero unless every served report is byte-identical to the local
//! run (the gate the fleet smoke test in `scripts/check.sh` stands on).
//! Throughput and latency are measured by `benchmark/run.sh`
//! (`serve_closed`, `fleet_closed`), not here.

use std::time::Instant;
use tpharness::wire::{parse, Value};
use tpserve::Client;

fn usage() -> ! {
    eprintln!(
        "usage: tpclient ADDR ping|stats|shutdown|poll TICKET|submit JSON [--no-wait]\n\
         \x20      |pipeline JSON [JSON...]|sweep JSON [JSON...] [--local-check]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("tpclient: {msg}");
    std::process::exit(1);
}

/// Runs one payload locally: the request's job through a fresh serial
/// sweep runner, in this process — no socket, no service cache, no store.
fn run_locally(payload: &Value) -> tpsim::SimReport {
    let req = tpserve::Request::from_value(payload)
        .unwrap_or_else(|e| fail(&format!("--local-check: invalid request: {e}")));
    tpharness::sweep::SweepRunner::serial().run_one(req.job())
}

/// `sweep`: pipelined submits, every ticket waited to a terminal
/// state, one summary line. With `local_check`, each served report is
/// byte-compared against a local run of the same request.
fn sweep(client: &mut Client, payloads: &[Value], local_check: bool) {
    let t0 = Instant::now();
    let served = client
        .submit_sweep(payloads)
        .unwrap_or_else(|e| fail(&format!("sweep failed: {e}")));
    let total_us = t0.elapsed().as_micros() as u64;
    let mut identical = true;
    for (payload, resp) in payloads.iter().zip(&served) {
        if resp.get("status").and_then(Value::as_str) != Some("done") {
            fail(&format!("sweep job did not complete: {}", resp.encode()));
        }
        if local_check {
            let remote = resp
                .get("report")
                .unwrap_or_else(|| fail("done response without a report"))
                .encode();
            let local = tpharness::wire::encode_sim_report(&run_locally(payload));
            if remote != local {
                identical = false;
                eprintln!("tpclient: sweep divergence for {}", payload.encode());
            }
        }
    }
    let out = Value::Obj(vec![
        ("jobs".into(), Value::u64(payloads.len() as u64)),
        ("total_us".into(), Value::u64(total_us)),
        ("local_check".into(), Value::Bool(local_check)),
        ("identical".into(), Value::Bool(identical)),
    ]);
    println!("{}", out.encode());
    if !identical {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let addr = &args[0];
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));

    let print = |v: Value| println!("{}", v.encode());
    match args[1].as_str() {
        "ping" => print(client.ping().unwrap_or_else(|e| fail(&e.to_string()))),
        "stats" => print(client.stats().unwrap_or_else(|e| fail(&e.to_string()))),
        "shutdown" => print(client.shutdown().unwrap_or_else(|e| fail(&e.to_string()))),
        "poll" => {
            let ticket = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            print(client.poll(ticket).unwrap_or_else(|e| fail(&e.to_string())));
        }
        "submit" => {
            let json = args.get(2).unwrap_or_else(|| usage());
            let payload =
                parse(json).unwrap_or_else(|e| fail(&format!("bad request payload: {e}")));
            let no_wait = args.iter().any(|a| a == "--no-wait");
            let resp = if no_wait {
                client.submit(&payload)
            } else {
                client.submit_and_wait(&payload)
            };
            print(resp.unwrap_or_else(|e| fail(&e.to_string())));
        }
        "pipeline" => {
            if args.len() < 3 {
                usage();
            }
            let payloads: Vec<Value> = args[2..]
                .iter()
                .map(|j| parse(j).unwrap_or_else(|e| fail(&format!("bad request payload: {e}"))))
                .collect();
            let resps = client
                .pipeline(&payloads)
                .unwrap_or_else(|e| fail(&e.to_string()));
            for r in resps {
                print(r);
            }
        }
        "sweep" => {
            let local_check = args.iter().any(|a| a == "--local-check");
            let payloads: Vec<Value> = args[2..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(|j| parse(j).unwrap_or_else(|e| fail(&format!("bad request payload: {e}"))))
                .collect();
            if payloads.is_empty() {
                usage();
            }
            sweep(&mut client, &payloads, local_check);
        }
        _ => usage(),
    }
}
