//! Integration tests for the shared trace pool: single-flight
//! generation, byte-capped eviction, the `TPSIM_TRACE_CACHE_MB` knob,
//! and the headline guarantee — an experiment sweep over one workload
//! generates its trace exactly once.
//!
//! The pool under test is the **process-global** one
//! (`tptrace::pool::global()`), shared by every test in this binary and
//! mutated via `clear()`/`set_capacity_bytes`, so all tests serialize
//! through [`pool_lock`]. Rust runs each integration-test *file* as its
//! own process, so nothing outside this file can race the pool.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use streamline_repro::prelude::*;
use streamline_repro::tpharness::sweep::{SweepJob, SweepRunner};
use streamline_repro::tptrace::pool;

/// Serializes every test in this file around the global pool, and
/// resets the pool's contents (counters persist; tests diff them).
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        // A previous test's assertion failure poisons the mutex; the
        // pool itself is still sound (clear() below resets it).
        Err(poisoned) => poisoned.into_inner(),
    };
    pool::global().clear();
    pool::global().set_capacity_bytes(pool::DEFAULT_CAPACITY_BYTES);
    guard
}

#[test]
fn concurrent_requests_share_one_arc_and_one_generation() {
    let _guard = pool_lock();
    let w = workloads::by_name("gap.cc").unwrap();
    let before = pool::global().stats();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let w = w.clone();
            std::thread::spawn(move || w.generate_shared(Scale::Test))
        })
        .collect();
    let traces: Vec<Arc<Trace>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let after = pool::global().stats();
    assert!(
        traces.windows(2).all(|p| Arc::ptr_eq(&p[0], &p[1])),
        "all 8 threads must receive the identical allocation"
    );
    assert_eq!(
        after.generations - before.generations,
        1,
        "single-flight: 8 concurrent requests, 1 generator run"
    );
    assert_eq!(after.misses - before.misses, 1, "one miss charged");
    assert_eq!(after.hits - before.hits, 7, "seven waiters count as hits");
}

#[test]
fn repeated_generate_shared_is_pointer_identical_and_private_generate_is_not() {
    let _guard = pool_lock();
    let w = workloads::by_name("gap.sssp").unwrap();
    let a = w.generate_shared(Scale::Test);
    let b = w.generate_shared(Scale::Test);
    assert!(Arc::ptr_eq(&a, &b), "same key -> same allocation");

    // Different scale is a different key.
    let c = w.generate_shared(Scale::Small);
    assert!(!Arc::ptr_eq(&a, &c));

    // The private path bypasses the pool but replays identically.
    let private = w.generate(Scale::Test);
    assert_eq!(private, *a, "pooled and private traces are equal");
}

#[test]
fn eviction_respects_the_byte_cap() {
    let _guard = pool_lock();
    let wb = workloads::by_name("gap.bc").unwrap();
    let wt = workloads::by_name("gap.tc").unwrap();
    let b_bytes = wb.generate_shared(Scale::Test).resident_bytes();
    let t_bytes = wt.generate_shared(Scale::Test).resident_bytes();
    pool::global().clear();

    // A cap that fits either trace alone but never both: the second
    // insert must evict the first (LRU).
    let cap = b_bytes.max(t_bytes) + 1024;
    assert!(cap < b_bytes + t_bytes, "test traces must not be tiny");
    pool::global().set_capacity_bytes(cap);
    let before = pool::global().stats();
    let _b = wb.generate_shared(Scale::Test);
    let _t = wt.generate_shared(Scale::Test);
    let after = pool::global().stats();
    assert!(
        after.evictions > before.evictions,
        "second insert must evict under the cap"
    );
    assert!(
        after.resident_bytes <= cap as u64,
        "resident bytes {} exceed the cap {cap}",
        after.resident_bytes
    );

    // The evicted key regenerates on the next request (counted).
    let regen_before = pool::global().stats().generations;
    let again = wb.generate_shared(Scale::Test);
    assert_eq!(pool::global().stats().generations, regen_before + 1);
    assert_eq!(again.name(), "gap_bc");
}

#[test]
fn trace_cache_mb_env_knob_resizes_the_global_pool() {
    let _guard = pool_lock();
    std::env::set_var("TPSIM_TRACE_CACHE_MB", "7");
    streamline_repro::tpharness::jobs::configure_trace_pool();
    assert_eq!(pool::global().capacity_bytes(), 7 << 20);

    // Unset and garbage values leave the capacity untouched.
    std::env::set_var("TPSIM_TRACE_CACHE_MB", "not-a-number");
    streamline_repro::tpharness::jobs::configure_trace_pool();
    assert_eq!(pool::global().capacity_bytes(), 7 << 20);
    std::env::remove_var("TPSIM_TRACE_CACHE_MB");
    streamline_repro::tpharness::jobs::configure_trace_pool();
    assert_eq!(pool::global().capacity_bytes(), 7 << 20);
}

#[test]
fn four_experiment_sweep_generates_the_trace_exactly_once() {
    let _guard = pool_lock();
    let w = workloads::by_name("gap.pr").unwrap();
    let before = pool::global().stats();

    // Four distinct experiment fingerprints (the sweep cache cannot
    // collapse them) over one workload, fanned out over 4 workers.
    let jobs: Vec<SweepJob> = [1.0, 1.25, 1.5, 1.75]
        .iter()
        .map(|&bw| {
            SweepJob::single(
                w.clone(),
                Experiment::new(Scale::Test)
                    .l1(L1Kind::Stride)
                    .bandwidth(bw),
            )
        })
        .collect();
    let reports = SweepRunner::new().with_workers(4).run(&jobs);
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.cores[0].instructions > 0));

    let after = pool::global().stats();
    assert_eq!(
        after.generations - before.generations,
        1,
        "a sweep over one workload must generate its trace once"
    );
}

#[test]
fn mix_sharing_one_workload_replays_one_allocation_per_core_pair() {
    let _guard = pool_lock();
    let w = workloads::by_name("gap.bfs").unwrap();
    let before = pool::global().stats();
    // Two cores, same workload: the engine's two plans hold the same
    // Arc, so resident bytes count the trace once.
    let mix = streamline_repro::tptrace::Mix {
        index: 0,
        workloads: vec![w.clone(), w.clone()],
    };
    let r = run_mix(&mix, &Experiment::new(Scale::Test).l1(L1Kind::Stride));
    assert_eq!(r.cores.len(), 2);
    let after = pool::global().stats();
    assert_eq!(after.generations - before.generations, 1);
    assert_eq!(after.entries, 1, "one pooled entry covers both cores");
}
