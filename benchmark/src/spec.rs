//! The benchmark's contract, as data: workloads, end-to-end metrics
//! with direction and bound, per-layer metric names. `BENCHMARK.json`
//! at the repo root is this module printed (`benchmark spec`); a unit
//! test keeps the two from drifting apart.

use tpharness::wire::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// One workload and the reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// One metric of the contract.
pub struct MetricSpec {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (unused for per-layer metrics, which are never gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "replay_temporal",
        why: "single-thread Engine::run with Triangel and Streamline on four irregular traces: temporal on_event and StreamStore do most of the work",
    },
    WorkloadSpec {
        name: "replay_writeback",
        why: "same loop with no temporal prefetcher on store-heavy, streaming and L1-resident traces: cache, DRAM, writeback and stride/IPCP do all the work",
    },
    WorkloadSpec {
        name: "sweep_cold",
        why: "a fresh SweepRunner over singles and 2/4-core mixes with an empty trace pool: the only workload with generation, pooling, dispatch and interleave on the clock",
    },
    WorkloadSpec {
        name: "serve_closed",
        why: "closed loop against an in-process Server on a unix socket with a store: protocol, conn, cache and store serve hits; misses add queue, pool, engine, encode, fsync",
    },
    WorkloadSpec {
        name: "fleet_closed",
        why: "the same script through Coordinator and two TCP backends: hop cost, POLL cadence and the TCP round trip become numbers",
    },
];

/// End-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("sim_accesses_per_ref_s", "1/ref_s", true, 0.25),
    e2e("hits_per_ref_s", "1/ref_s", true, 0.25),
    e2e("peak_heap_mb", "MB", false, 0.15),
];

/// Cells of the two replay workloads: `(trace, configuration)`.
pub const TEMPORAL_TRACES: [&str; 4] = [
    "spec06.mcf",
    "spec06.xalancbmk",
    "spec06.sphinx3",
    "gap.sssp",
];
/// Traces of `replay_writeback` (the first is built by the benchmark).
pub const WRITEBACK_TRACES: [&str; 4] = [
    "store_flood",
    "spec06.lbm",
    "spec06.libquantum",
    "spec06.bzip2",
];

/// Per-layer metrics. Never gated; a workload that does not enter a
/// layer reports 0 for it.
pub const PER_LAYER: &[MetricSpec] = &[
    // Raw host-time rates behind the normalised end-to-end metrics,
    // and the other figures the end-to-end table was cut down from.
    higher("sim_accesses_per_s", "1/s"),
    higher("hit_rps", "1/s"),
    higher("miss_jobs_per_s", "1/s"),
    lower("setup_wall_s", "s"),
    lower("allocs_per_access", "count"),
    lower("peak_rss_mb", "MB"),
    lower("failed_share", "share"),
    // One per replay cell.
    lower("cell.spec06.mcf.triangel.ns_per_access", "ns"),
    lower("cell.spec06.mcf.streamline.ns_per_access", "ns"),
    lower("cell.spec06.xalancbmk.triangel.ns_per_access", "ns"),
    lower("cell.spec06.xalancbmk.streamline.ns_per_access", "ns"),
    lower("cell.spec06.sphinx3.triangel.ns_per_access", "ns"),
    lower("cell.spec06.sphinx3.streamline.ns_per_access", "ns"),
    lower("cell.gap.sssp.triangel.ns_per_access", "ns"),
    lower("cell.gap.sssp.streamline.ns_per_access", "ns"),
    lower("cell.store_flood.none.ns_per_access", "ns"),
    lower("cell.spec06.lbm.none.ns_per_access", "ns"),
    lower("cell.spec06.libquantum.none.ns_per_access", "ns"),
    lower("cell.spec06.bzip2.none.ns_per_access", "ns"),
    // tpsim
    lower("tpsim.engine.build_us", "us"),
    lower("tpsim.engine.self_ns_per_access", "ns"),
    lower("tpsim.hierarchy.demand_access_ns", "ns"),
    lower("tpsim.cache.l1_lookup_ns", "ns"),
    lower("tpsim.cache.llc_lookup_fill_ns", "ns"),
    lower("tpsim.dram.read_ns", "ns"),
    lower("tpsim.core_model.ns_per_access", "ns"),
    lower("tpsim.table.linemap_op_ns", "ns"),
    // tptrace
    lower("tptrace.trace.block_decode_ns_per_access", "ns"),
    lower("tptrace.gen.ns_per_access", "ns"),
    lower("tptrace.gen.calls", "count"),
    lower("tptrace.pool.hit_ns", "ns"),
    lower("tptrace.pool.generations", "count"),
    higher("tptrace.pool.hits", "count"),
    lower("tptrace.pool.peak_resident_mb", "MB"),
    // tpprefetch
    lower("tpprefetch.stride.on_access_ns", "ns"),
    lower("tpprefetch.stride.calls", "count"),
    lower("tpprefetch.ipcp.on_access_ns", "ns"),
    lower("tpprefetch.ipcp.calls", "count"),
    higher("tpprefetch.issued_per_call", "count"),
    // streamline_core
    lower("streamline_core.on_event_ns", "ns"),
    lower("streamline_core.on_event_calls", "count"),
    lower("streamline_core.on_feedback_ns", "ns"),
    lower("streamline_core.observe_llc_ns", "ns"),
    lower("streamline_core.share_of_run", "share"),
    higher("streamline_core.prefetches_per_event", "count"),
    lower("streamline_core.replay_on_event_ns", "ns"),
    lower("streamline_core.store.lookup_ns", "ns"),
    lower("streamline_core.store.insert_ns", "ns"),
    // triangel
    lower("triangel.on_event_ns", "ns"),
    lower("triangel.on_event_calls", "count"),
    lower("triangel.share_of_run", "share"),
    // tpharness
    lower("tpharness.sweep.job_ms_p50", "ms"),
    higher("tpharness.sweep.parallel_efficiency", "share"),
    lower("tpharness.wire.encode_report_us", "us"),
    lower("tpharness.wire.decode_report_us", "us"),
    lower("tpharness.wire.parse_request_us", "us"),
    // tpserve
    lower("tpserve.protocol.from_value_us", "us"),
    lower("tpserve.protocol.canonical_us", "us"),
    lower("tpserve.hist.record_ns", "ns"),
    lower("tpserve.client.rtt_p50_us", "us"),
    lower("tpserve.client.rtt_p99_us", "us"),
    lower("tpserve.client.ping_us", "us"),
    higher("tpserve.server.cache_hits", "count"),
    lower("tpserve.server.simulations", "count"),
    higher("tpserve.server.store_hits", "count"),
    lower("tpserve.server.rejected", "count"),
    lower("tpserve.server.hit_service_p50_us", "us"),
    lower("tpserve.server.miss_overhead_ms", "ms"),
    lower("tpserve.store.put_us", "us"),
    lower("tpserve.store.get_us", "us"),
    lower("tpserve.store.open_scan_ms", "ms"),
    lower("tpserve.ring.assign_ns", "ns"),
    higher("tpserve.coordinator.forwarded", "count"),
    lower("tpserve.coordinator.rerouted", "count"),
    lower("tpserve.coordinator.local_jobs", "count"),
    lower("tpserve.coordinator.hop_overhead_ms", "ms"),
    // sim: exact simulated statistics; a speed change must leave every
    // one of them identical.
    higher("sim.speedup.streamline", "x"),
    higher("sim.speedup.triangel", "x"),
    higher("sim.temporal_coverage.streamline", "share"),
    higher("sim.temporal_accuracy.streamline", "share"),
    lower("sim.meta_traffic_blocks.streamline", "count"),
    lower("sim.meta_traffic_blocks.triangel", "count"),
    lower("sim.l2_mpki.none", "1/kinstr"),
    lower("sim.dram_reads", "count"),
    lower("sim.dram_writes", "count"),
    higher("sim.llc_hit_rate", "share"),
    lower("sim.report_fnv", "hash"),
    // host: fingerprint and noise sentinels.
    higher("host.nproc", "count"),
    lower("host.calib_ns_per_hop", "ns"),
    lower("host.ref_ns_per_op", "ns"),
    lower("host.timer_ns", "ns"),
    lower("host.loadavg", "load"),
    lower("trace.overhead_share", "share"),
];

fn metric_value(m: &MetricSpec, with_bound: bool) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(m.name.into())),
        ("unit".to_string(), Value::Str(m.unit.into())),
        (
            "better".to_string(),
            Value::Str(
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .into(),
            ),
        ),
    ];
    if with_bound {
        fields.push(("bound".to_string(), Value::f64(m.bound)));
    }
    Value::Obj(fields)
}

/// `BENCHMARK.json`, pretty-printed one entry per line.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Value>| {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.encode()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::Obj(vec![
                ("name".into(), Value::Str(w.name.into())),
                ("why".into(), Value::Str(w.why.into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(|m| metric_value(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| metric_value(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn every_replay_cell_has_its_metric() {
        for t in TEMPORAL_TRACES {
            for cfg in ["triangel", "streamline"] {
                let n = format!("cell.{t}.{cfg}.ns_per_access");
                assert!(PER_LAYER.iter().any(|m| m.name == n), "{n}");
            }
        }
        for t in WRITEBACK_TRACES {
            let n = format!("cell.{t}.none.ns_per_access");
            assert!(PER_LAYER.iter().any(|m| m.name == n), "{n}");
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_module_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark spec`"
        );
        let v = tpharness::wire::parse(&on_disk).expect("valid json");
        let Value::Obj(fields) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
