//! Standalone kernels of the traced pass: one loop per layer, calling
//! nothing but that layer's public functions, so each number is the
//! layer's own cost with the rest of the stack out of the way.
//!
//! The simulator kernels are driven by the workload's own line stream —
//! the accesses of the traces the workload replays — not by a synthetic
//! pattern, so set conflicts, row hits and table load factors are the
//! ones the engine meets.

use crate::run::{Metric, Run};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use streamline_core::{StreamEntry, StreamStore, StreamlineConfig};
use tpharness::wire::{self, decode_sim_report, Value};
use tpserve::{HashRing, LogHistogram, Request, ResultStore, DEFAULT_STORE_CAP_BYTES};
use tpsim::cache::{CacheLevel, LookupResult};
use tpsim::core_model::CoreTiming;
use tpsim::dram::Dram;
use tpsim::{Hierarchy, LineMap, SystemConfig};
use tptrace::record::{AccessKind, Line};
use tptrace::Trace;

/// Times `body` [`Run::reps`] times and reports ns per `ops`.
fn kernel(run: &mut Run, name: &str, unit: &'static str, ops: usize, mut body: impl FnMut()) {
    let scale = if unit == "us" { 1e3 } else { 1.0 };
    let times: Vec<f64> = (0..run.reps())
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    run.push(Metric::from_times(name, unit, &times, |t| {
        t / ops.max(1) as f64 / scale
    }));
}

/// The `tpsim`, `tptrace::trace` and (optionally) `StreamStore`
/// kernels over `traces`.
pub fn sim_kernels(run: &mut Run, traces: &[Arc<Trace>], with_stream_store: bool) {
    let cfg = SystemConfig::single_core();
    let ops: usize = traces.iter().map(|t| t.len()).sum();
    let lines = |t: &Trace| -> Vec<(Line, bool)> {
        t.iter()
            .map(|a| (a.addr.line(), a.kind == AccessKind::Store))
            .collect()
    };
    let streams: Vec<Vec<(Line, bool)>> = traces.iter().map(|t| lines(t)).collect();

    kernel(run, "tpsim.hierarchy.demand_access_ns", "ns", ops, || {
        for s in &streams {
            let mut h = Hierarchy::new(cfg.clone());
            let (mut fb, mut samples) = (Vec::new(), Vec::new());
            for (i, &(line, write)) in s.iter().enumerate() {
                std::hint::black_box(h.demand_access(0, line, write, 4 * i as u64));
                if i % 256 == 255 {
                    h.drain_feedback_into(&mut fb);
                    h.drain_llc_samples_into(0, &mut samples);
                }
            }
        }
    });
    for (name, params) in [
        ("tpsim.cache.l1_lookup_ns", cfg.l1d),
        ("tpsim.cache.llc_lookup_fill_ns", cfg.llc),
    ] {
        kernel(run, name, "ns", ops, || {
            for s in &streams {
                let mut level = CacheLevel::new(params);
                for &(line, write) in s {
                    if level.demand_lookup(line, write) == LookupResult::Miss {
                        std::hint::black_box(level.fill(line, write, false));
                    }
                }
            }
        });
    }
    kernel(run, "tpsim.dram.read_ns", "ns", ops, || {
        for s in &streams {
            let mut dram = Dram::new(cfg.dram);
            for (i, &(line, _)) in s.iter().enumerate() {
                std::hint::black_box(dram.read(10 * i as u64, line));
            }
        }
    });
    kernel(run, "tpsim.core_model.ns_per_access", "ns", ops, || {
        for t in traces {
            let mut core = CoreTiming::new(cfg.core.width, cfg.core.rob);
            for a in t.iter() {
                let issue = core.begin_access(&a);
                core.finish_access(&a, issue + 20);
            }
            std::hint::black_box(core.cycles());
        }
    });
    // Insert a line, look it up, retire the one from 32 accesses ago:
    // the in-flight tables' steady state at MSHR-sized occupancy.
    kernel(run, "tpsim.table.linemap_op_ns", "ns", 3 * ops, || {
        for s in &streams {
            let mut map: LineMap<u64> = LineMap::with_capacity_for(64);
            for (i, &(line, _)) in s.iter().enumerate() {
                map.insert(line, i as u64);
                std::hint::black_box(map.get(line));
                if i >= 32 {
                    map.remove(s[i - 32].0);
                }
            }
        }
    });
    kernel(
        run,
        "tptrace.trace.block_decode_ns_per_access",
        "ns",
        ops,
        || {
            for t in traces {
                let mut pos = 0;
                while pos < t.len() {
                    let len = tpsim::DEFAULT_BATCH.min(t.len() - pos);
                    let block = t.block(pos, len);
                    for i in 0..len {
                        std::hint::black_box(block.get(i));
                    }
                    pos += len;
                }
            }
        },
    );
    if with_stream_store {
        // Streams cut from the first trace: each trigger followed by
        // its next four lines, as the training unit would emit them.
        let s = &streams[0];
        let entries: Vec<(StreamEntry, u8)> = s
            .windows(5)
            .step_by(5)
            .map(|w| {
                let targets: Vec<Line> = w[1..].iter().map(|x| x.0).collect();
                (StreamEntry::new(w[0].0, targets), (w[0].0 .0 % 251) as u8)
            })
            .collect();
        let mut store = StreamStore::new(StreamlineConfig::default());
        kernel(
            run,
            "streamline_core.store.insert_ns",
            "ns",
            entries.len(),
            || {
                store = StreamStore::new(StreamlineConfig::default());
                for (e, pc) in &entries {
                    std::hint::black_box(store.insert(e.clone(), *pc));
                }
            },
        );
        kernel(
            run,
            "streamline_core.store.lookup_ns",
            "ns",
            entries.len(),
            || {
                for (e, pc) in &entries {
                    std::hint::black_box(store.lookup(e.trigger, *pc));
                }
            },
        );
    }
}

/// The `tpharness::wire` and `tpserve` kernels that need no socket:
/// codec, request validation, histogram, on-disk store, hash ring.
/// `payloads` are the workload's own requests and `reports` the encoded
/// reports they produced; `dir` is scratch space for the store.
pub fn serve_kernels(
    run: &mut Run,
    payloads: &[Value],
    reports: &[String],
    dir: &Path,
    backends: &[String],
) {
    const LOOPS: usize = 50;
    let n = LOOPS * payloads.len();
    let requests: Vec<Request> = payloads
        .iter()
        .map(|p| Request::from_value(p).expect("the workload's own request"))
        .collect();
    let lines: Vec<String> = payloads.iter().map(Value::encode).collect();
    let decoded: Vec<tpsim::SimReport> = reports
        .iter()
        .map(|r| decode_sim_report(r).expect("the workload's own report"))
        .collect();

    kernel(
        run,
        "tpharness.wire.encode_report_us",
        "us",
        LOOPS * decoded.len(),
        || {
            for _ in 0..LOOPS {
                for r in &decoded {
                    std::hint::black_box(wire::encode_sim_report(r));
                }
            }
        },
    );
    kernel(
        run,
        "tpharness.wire.decode_report_us",
        "us",
        LOOPS * reports.len(),
        || {
            for _ in 0..LOOPS {
                for r in reports {
                    std::hint::black_box(decode_sim_report(r).is_ok());
                }
            }
        },
    );
    kernel(run, "tpharness.wire.parse_request_us", "us", n, || {
        for _ in 0..LOOPS {
            for l in &lines {
                std::hint::black_box(wire::parse(l).is_ok());
            }
        }
    });
    kernel(run, "tpserve.protocol.from_value_us", "us", n, || {
        for _ in 0..LOOPS {
            for p in payloads {
                std::hint::black_box(Request::from_value(p).is_ok());
            }
        }
    });
    kernel(run, "tpserve.protocol.canonical_us", "us", n, || {
        for _ in 0..LOOPS {
            for r in &requests {
                std::hint::black_box(r.canonical());
            }
        }
    });
    kernel(run, "tpserve.hist.record_ns", "ns", 1 << 20, || {
        let mut h = LogHistogram::new();
        for i in 0..1u64 << 20 {
            h.record(i.wrapping_mul(0x9E37_79B9) >> 12);
        }
        std::hint::black_box(h.p50());
    });

    let canon: Vec<String> = requests.iter().map(Request::canonical).collect();
    let store_dir = dir.join("kernel-store");
    let mut puts = Vec::new();
    let mut gets = Vec::new();
    let mut opens = Vec::new();
    for _ in 0..run.reps() {
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ResultStore::open(&store_dir, DEFAULT_STORE_CAP_BYTES).expect("scratch store");
        let t = Instant::now();
        for (c, r) in canon.iter().zip(reports) {
            let ok = store.put(c, r).is_ok();
            run.check(ok, || "store.put failed".into());
        }
        puts.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for (c, r) in canon.iter().zip(reports) {
            let same = store.get(c).as_deref() == Some(r.as_str());
            run.check(same, || "store.get returned other bytes".into());
        }
        gets.push(t.elapsed().as_nanos() as f64);
        drop(store);
        let t = Instant::now();
        let reopened = ResultStore::open(&store_dir, DEFAULT_STORE_CAP_BYTES).expect("reopen");
        opens.push(t.elapsed().as_nanos() as f64);
        let entries = reopened.stats().entries;
        run.check(entries == canon.len() as u64, || {
            format!("store reopened with {entries} entries")
        });
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let per = canon.len() as f64;
    run.push(Metric::from_times(
        "tpserve.store.put_us",
        "us",
        &puts,
        |t| t / per / 1e3,
    ));
    run.push(Metric::from_times(
        "tpserve.store.get_us",
        "us",
        &gets,
        |t| t / per / 1e3,
    ));
    run.push(Metric::from_times(
        "tpserve.store.open_scan_ms",
        "ms",
        &opens,
        |t| t / 1e6,
    ));

    if !backends.is_empty() {
        let ring = HashRing::new(backends);
        let points: Vec<u64> = canon.iter().map(|c| HashRing::job_point(c)).collect();
        kernel(
            run,
            "tpserve.ring.assign_ns",
            "ns",
            1000 * points.len(),
            || {
                for _ in 0..1000 {
                    for &p in &points {
                        std::hint::black_box(ring.assign(p));
                    }
                }
            },
        );
    }
}
