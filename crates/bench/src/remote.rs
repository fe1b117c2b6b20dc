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
//! byte-identical either way because the server executes through the
//! same [`SweepRunner`](tpharness::sweep::SweepRunner) path.

use crate::{audit_from_args, runner};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use tpharness::baselines::TemporalKind;
use tpharness::experiment::Experiment;
use tpharness::sweep::{reassemble, SweepJob};
use tpharness::wire::{decode_sim_report, Value};
use tpserve::Client;
use tpsim::SimReport;
use tptrace::workloads;

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

fn temporal_name(t: TemporalKind) -> Option<&'static str> {
    // Only parameterless named kinds exist on the wire; ablation
    // configs (TriangelFixed, StreamlineCfg) carry structs the protocol
    // deliberately doesn't serialize.
    match t {
        TemporalKind::None
        | TemporalKind::Ideal
        | TemporalKind::Triage
        | TemporalKind::Triangel
        | TemporalKind::TriangelIdeal
        | TemporalKind::Streamline => Some(t.name()),
        TemporalKind::TriangelFixed(_) | TemporalKind::StreamlineCfg(_) => None,
    }
}

fn exp_fields(exp: &Experiment, fields: &mut Vec<(String, Value)>) -> Option<()> {
    // Every L1/L2 kind is a parameterless name, so only the temporal
    // kind can make an experiment inexpressible.
    fields.push(("scale".into(), Value::Str(exp.scale.to_string())));
    fields.push(("l1".into(), Value::Str(exp.l1.name().into())));
    fields.push(("l2".into(), Value::Str(exp.l2.name().into())));
    fields.push(("temporal".into(), Value::Str(temporal_name(exp.temporal)?.into())));
    fields.push(("bandwidth".into(), Value::f64(exp.bandwidth_factor)));
    fields.push(("warmup".into(), Value::f64(exp.warmup)));
    Some(())
}

/// Renders a job as a `SUBMIT` payload, or `None` if it isn't
/// expressible over the wire (runs locally instead).
fn payload(job: &SweepJob) -> Option<Value> {
    let mut fields: Vec<(String, Value)> = Vec::new();
    match job {
        SweepJob::Single { workload, exp } => {
            fields.push(("workload".into(), Value::Str(workload.name.into())));
            exp_fields(exp, &mut fields)?;
            let canonical_seed = workloads::by_name(workload.name)?.seed;
            if workload.seed != canonical_seed {
                fields.push(("seed".into(), Value::u64(workload.seed)));
            }
        }
        SweepJob::Mix { mix, exp } => {
            // Reseeded mixes aren't expressible (the protocol only
            // carries one seed, for single-workload requests).
            for w in &mix.workloads {
                if workloads::by_name(w.name)?.seed != w.seed {
                    return None;
                }
            }
            if mix.index > 99 {
                return None;
            }
            fields.push((
                "mix".into(),
                Value::Arr(mix.workloads.iter().map(|w| Value::Str(w.name.into())).collect()),
            ));
            fields.push(("mix_index".into(), Value::u64(mix.index as u64)));
            exp_fields(exp, &mut fields)?;
        }
    }
    if audit_from_args() {
        fields.push(("audit".into(), Value::Bool(true)));
    }
    Some(Value::Obj(fields))
}

enum Slot {
    Done(Box<SimReport>),
    Ticket(u64),
    Local,
}

fn decode_response_report(resp: &Value) -> Option<SimReport> {
    let report = resp.get("report")?;
    decode_sim_report(&report.encode()).ok()
}

/// Submits every expressible job, then collects queued tickets; any
/// inexpressible, rejected, or failed job is simulated locally through
/// the shared [`runner`].
///
/// # Errors
/// Transport-level failures (cannot connect, connection lost); the
/// caller falls back to a fully local run.
pub fn run_via_server(addr: &str, jobs: &[SweepJob]) -> io::Result<Vec<SimReport>> {
    let mut client = Client::connect(addr)?;
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let slot = match payload(job) {
            None => Slot::Local,
            Some(p) => {
                let resp = client.submit(&p)?;
                match resp.get("status").and_then(Value::as_str) {
                    Some("done") => match decode_response_report(&resp) {
                        Some(r) => Slot::Done(Box::new(r)),
                        None => Slot::Local,
                    },
                    Some("queued") => match resp.get("ticket").and_then(Value::as_u64) {
                        Some(t) => Slot::Ticket(t),
                        None => Slot::Local,
                    },
                    // rejected (queue-full / shutting-down) or error.
                    _ => Slot::Local,
                }
            }
        };
        slots.push(slot);
    }

    // Collect as (index, report) pairs and reassemble through the same
    // canonical-order primitive SweepRunner::map uses, so server-routed
    // sweeps share the lost/duplicated-job invariant with local ones.
    let mut indexed: Vec<(usize, SimReport)> = Vec::with_capacity(jobs.len());
    let mut local = 0usize;
    for (i, (job, slot)) in jobs.iter().zip(slots).enumerate() {
        let report = match slot {
            Slot::Done(r) => *r,
            Slot::Ticket(t) => {
                let resp = client.wait(t)?;
                match resp.get("status").and_then(Value::as_str) {
                    Some("done") => match decode_response_report(&resp) {
                        Some(r) => r,
                        None => {
                            local += 1;
                            runner().run_one(job.clone())
                        }
                    },
                    // The server accepted the job but it terminated
                    // without a report (failed, deadline-exceeded,
                    // evicted): per-job local fallback.
                    _ => {
                        local += 1;
                        runner().run_one(job.clone())
                    }
                }
            }
            Slot::Local => {
                local += 1;
                runner().run_one(job.clone())
            }
        };
        indexed.push((i, report));
    }
    if local > 0 {
        LOCAL_FALLBACKS.fetch_add(local as u64, Ordering::Relaxed);
        eprintln!("  tpserve routing: {local}/{} job(s) ran locally", jobs.len());
    }
    Ok(reassemble(indexed, jobs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stride_baseline;
    use tptrace::{Mix, Scale};

    #[test]
    fn expressible_jobs_render_canonical_payloads() {
        let w = workloads::by_name("gap.bfs").unwrap();
        let job = SweepJob::single(w.clone(), stride_baseline(Scale::Test));
        let p = payload(&job).unwrap();
        assert_eq!(p.get("workload").unwrap().as_str(), Some("gap.bfs"));
        assert_eq!(p.get("scale").unwrap().as_str(), Some("test"));
        assert!(p.get("seed").is_none(), "canonical seeds travel implicitly");

        let seeded = SweepJob::single(w.with_seed(42), stride_baseline(Scale::Test));
        let p = payload(&seeded).unwrap();
        assert_eq!(p.get("seed").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn parameterized_ablations_stay_local() {
        let w = workloads::by_name("gap.bfs").unwrap();
        let exp = stride_baseline(Scale::Test).temporal(TemporalKind::TriangelFixed(4));
        assert!(payload(&SweepJob::single(w, exp)).is_none());
    }

    #[test]
    fn mix_payloads_carry_names_and_index() {
        let ws = ["gap.bfs", "spec06.mcf"]
            .iter()
            .filter_map(|n| workloads::by_name(n))
            .collect::<Vec<_>>();
        let mix = Mix {
            index: 7,
            workloads: ws,
        };
        let p = payload(&SweepJob::mix(mix, stride_baseline(Scale::Test))).unwrap();
        assert_eq!(p.get("mix").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(p.get("mix_index").unwrap().as_u64(), Some(7));
    }

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
