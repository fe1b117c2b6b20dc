//! The simulation server daemon.
//!
//! ```text
//! tpserve [--listen=HOST:PORT | --socket=PATH] [--jobs=N] [--queue=N]
//!         [--audit] [--store=DIR] [--store-cap-mb=N]
//! tpserve --coordinator --backend=ADDR [--backend=ADDR ...]
//!         [--listen=... | --socket=...] [--queue=N] [--audit]
//! ```
//!
//! Prints `tpserve: listening on ADDR` once ready (scripts parse this
//! line to discover the bound port when `--listen` uses port 0).
//! SIGTERM/SIGINT trigger the same graceful drain as a protocol
//! `SHUTDOWN`: stop accepting, shed new submissions, finish in-flight
//! and queued work, then exit.
//!
//! `--store=DIR` enables the persistent result store: served reports
//! are written to `DIR` (content-addressed by the canonical request)
//! and a restarted server on the same directory answers previously
//! served requests without simulating. `--store-cap-mb` bounds the
//! directory; least-recently-used entries are reclaimed past the cap.
//!
//! `--coordinator` runs the same service core over a ring of
//! backends: jobs are consistent-hashed onto the `--backend=` tpserve
//! instances (each flag may repeat; `unix:PATH` or TCP `host:port`),
//! with reroute on backend failure and the local pool as the last
//! resort. The client-facing protocol is identical, so clients need no
//! changes.

use std::io::Write;
use std::sync::atomic::AtomicBool;
use tpserve::{Coordinator, CoordinatorConfig, Server, ServerConfig, DEFAULT_QUEUE_CAPACITY};

static TERM: AtomicBool = AtomicBool::new(false);

mod sig {
    use super::TERM;
    use std::sync::atomic::Ordering;

    // std links libc on every supported Unix; declaring `signal`
    // directly keeps the workspace dependency-free.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the C library's, declared with its C
        // signature; `on_term` is an `extern "C" fn(i32)` that lives for
        // the whole program and only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tpserve [--listen=HOST:PORT | --socket=PATH] [--jobs=N] [--queue=N] \
         [--audit] [--store=DIR] [--store-cap-mb=N]\n\
         \x20      tpserve --coordinator --backend=ADDR [--backend=ADDR ...] \
         [--listen=... | --socket=...] [--queue=N] [--audit]"
    );
    std::process::exit(2);
}

fn main() {
    let mut spec = String::from("127.0.0.1:0");
    let mut coordinator = false;
    let mut backends: Vec<String> = Vec::new();
    let mut cfg = ServerConfig {
        queue_capacity: DEFAULT_QUEUE_CAPACITY,
        ..Default::default()
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--listen=") {
            spec = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--socket=") {
            spec = format!("unix:{v}");
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            cfg.workers = v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| usage());
        } else if let Some(v) = arg.strip_prefix("--queue=") {
            cfg.queue_capacity = v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| usage());
        } else if let Some(v) = arg.strip_prefix("--store=") {
            cfg.store_dir = Some(std::path::PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--store-cap-mb=") {
            cfg.store_cap_bytes = v
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| usage())
                * 1024
                * 1024;
        } else if arg == "--audit" {
            cfg.audit = true;
        } else if arg == "--coordinator" {
            coordinator = true;
        } else if let Some(v) = arg.strip_prefix("--backend=") {
            backends.push(v.to_string());
        } else {
            usage();
        }
    }
    if !backends.is_empty() && !coordinator {
        eprintln!("tpserve: --backend requires --coordinator");
        usage();
    }
    if coordinator && cfg.store_dir.is_some() {
        eprintln!("tpserve: --store applies to backends, not the coordinator");
        usage();
    }

    sig::install();

    if coordinator {
        let ccfg = CoordinatorConfig {
            max_jobs: cfg.queue_capacity,
            audit: cfg.audit,
        };
        let coord = match Coordinator::bind(&spec, &backends, ccfg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("tpserve: cannot bind {spec}: {e}");
                std::process::exit(1);
            }
        };
        println!("tpserve: listening on {}", coord.addr());
        let _ = std::io::stdout().flush();
        if let Err(e) = coord.run_until(&TERM) {
            eprintln!("tpserve: accept loop failed: {e}");
            std::process::exit(1);
        }
        println!("tpserve: drained, exiting");
        return;
    }

    let server = match Server::bind(&spec, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tpserve: cannot bind {spec}: {e}");
            std::process::exit(1);
        }
    };
    println!("tpserve: listening on {}", server.addr());
    let _ = std::io::stdout().flush();

    if let Err(e) = server.run_until(&TERM) {
        eprintln!("tpserve: accept loop failed: {e}");
        std::process::exit(1);
    }
    println!("tpserve: drained, exiting");
}
