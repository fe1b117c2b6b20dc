//! Optional routing of sweep jobs through a running `tpserve` instance.
//!
//! When the `TPSIM_SERVER` environment variable names a server address
//! (`host:port` or `unix:PATH`), [`crate::run_jobs`] submits each
//! expressible job there instead of simulating locally, so concurrent
//! figure binaries share one process-wide result cache. The design is
//! strictly best-effort: jobs the wire protocol cannot express
//! (parameterized ablation configs), shed submissions (`queue-full`),
//! and transport errors all fall back to local execution — a figure run
//! never fails because the server is busy or gone, and results are
//! byte-identical either way because the server's workers execute the
//! same [`SweepJob::run`].

use crate::{audit_from_args, runner};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use tpharness::sweep::SweepJob;
use tpharness::wire::{parse, sim_report_from_value, Value};
use tpserve::{Client, Request};
use tpsim::SimReport;

/// Process-wide count of jobs that fell back to local execution while
/// server routing was active (inexpressible, rejected, or failed by
/// the server). Visible so harnesses can assert the fallback fired —
/// the path used to be observable only as an stderr note.
static LOCAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Jobs that fell back to local execution across every
/// [`run_via_server`] call in this process.
pub fn local_fallbacks() -> u64 {
    LOCAL_FALLBACKS.load(Ordering::Relaxed)
}

/// The server address from `TPSIM_SERVER`, if routing is enabled.
/// Empty, `0`, and `off` all mean disabled.
pub fn server_addr() -> Option<String> {
    let v = std::env::var("TPSIM_SERVER").ok()?;
    let v = v.trim();
    if v.is_empty() || v == "0" || v == "off" {
        return None;
    }
    Some(v.to_string())
}

/// Submits every job the wire can express as one pipelined sweep, then
/// simulates locally, through the shared [`runner`], whatever was
/// inexpressible or did not come back `done` with a readable report
/// (rejected, failed, deadline-exceeded, evicted).
///
/// # Errors
/// Transport-level failures (cannot connect, connection lost); the
/// caller falls back to a fully local run.
pub fn run_via_server(addr: &str, jobs: &[SweepJob]) -> io::Result<Vec<SimReport>> {
    let payload = |job: &SweepJob| {
        let canonical = Request::from_job(job)?.canonical();
        let mut payload = parse(&canonical).expect("canonical requests parse");
        if let (true, Value::Obj(fields)) = (audit_from_args(), &mut payload) {
            fields.push(("audit".into(), Value::Bool(true)));
        }
        Some(payload)
    };
    let (sent, payloads): (Vec<usize>, Vec<Value>) = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, job)| Some((i, payload(job)?)))
        .unzip();
    let mut served = vec![None; jobs.len()];
    let responses = Client::connect(addr)?.submit_sweep(&payloads)?;
    for (i, resp) in sent.into_iter().zip(responses) {
        if resp.get("status").and_then(Value::as_str) == Some("done") {
            served[i] = resp
                .get("report")
                .and_then(|r| sim_report_from_value(r).ok());
        }
    }

    let missing: Vec<SweepJob> = jobs
        .iter()
        .zip(&served)
        .filter(|(_, report)| report.is_none())
        .map(|(job, _)| job.clone())
        .collect();
    if !missing.is_empty() {
        LOCAL_FALLBACKS.fetch_add(missing.len() as u64, Ordering::Relaxed);
        eprintln!("  tpserve routing: {}/{} job(s) ran locally", missing.len(), jobs.len());
    }
    let mut local = runner().run(&missing).into_iter();
    Ok(served
        .into_iter()
        .map(|report| report.unwrap_or_else(|| local.next().expect("one local run per gap")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stride_baseline;
    use tptrace::{workloads, Scale};

    #[test]
    fn accepted_then_failed_jobs_fall_back_locally_and_count() {
        use std::io::{BufRead, BufReader, Write};

        // A server that accepts every SUBMIT, then fails the job at
        // `WAIT` time — the regression this pins: the per-job fallback
        // must run locally, return a byte-identical report, and bump
        // the visible counter.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let resp = if line.starts_with("SUBMIT") {
                    r#"{"status":"queued","ticket":1,"key":"0","queue_depth":1}"#
                } else {
                    r#"{"status":"failed","ticket":1,"reason":"injected failure"}"#
                };
                stream.write_all(resp.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                line.clear();
            }
        });

        let w = workloads::by_name("gap.bfs").unwrap();
        let job = SweepJob::single(w, stride_baseline(Scale::Test));
        let before = local_fallbacks();
        let got = run_via_server(&addr, std::slice::from_ref(&job)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            local_fallbacks() - before,
            1,
            "the fallback must increment the visible counter"
        );
        let direct = runner().run_one(job);
        assert_eq!(
            tpharness::wire::encode_sim_report(&got[0]),
            tpharness::wire::encode_sim_report(&direct),
            "fallback reports must be byte-identical to local runs"
        );
        server.join().unwrap();
    }

    #[test]
    fn routing_is_disabled_without_the_env_var() {
        // The test runner doesn't set TPSIM_SERVER; guard the contract
        // that unset/empty means fully local execution.
        if std::env::var("TPSIM_SERVER").is_err() {
            assert!(server_addr().is_none());
        }
    }
}
