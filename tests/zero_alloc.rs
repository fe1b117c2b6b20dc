//! The hard allocation gates: `Engine::run` performs (almost) no heap
//! allocation per simulated access, generating a trace costs little
//! more memory than the finished trace holds, and a served report is
//! read and parsed with one allocation per thing the tree must own.
//!
//! Engine construction front-loads every table and metadata-store slot,
//! so the bracket wraps `run` only; what is left is per-run epilogue
//! work (report assembly, audit), well under 0.001 allocs/access over a
//! trace pass. At or above the gate, an allocation has crept back onto
//! the per-access path. `benchmark/run.sh` reports the same quantity as
//! `allocs_per_access`; this is the test that fails on it. Its
//! `peak_heap_mb` is counted the way [`LIVE`] and [`PEAK`] count here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use streamline_repro::prelude::*;
use streamline_repro::tpharness::wire::{self, encode_sim_report, Value};
use streamline_repro::tptrace::TraceBuilder;

thread_local! {
    /// Allocations made by *this* thread, so the test harness's other
    /// threads cannot pollute a bracket.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds in blocks of [`TRACKED_MIN`] or more
    /// (signed: a block may be freed by a thread that did not allocate
    /// it).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since a bracket reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Smallest block that counts towards [`LIVE`], as in the benchmark's
/// heap tracker: the traces, tables and stores are the footprint.
const TRACKED_MIN: usize = 4096;

/// `try_with` throughout: a thread being torn down may allocate after
/// its thread-locals are gone.
fn grew(bytes: usize) {
    if bytes >= TRACKED_MIN {
        let _ = LIVE.try_with(|l| {
            l.set(l.get() + bytes as i64);
            let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
        });
    }
}

fn shrank(bytes: usize) {
    if bytes >= TRACKED_MIN {
        let _ = LIVE.try_with(|l| l.set(l.get() - bytes as i64));
    }
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on
// the returned pointers or layouts. `realloc` counts as one allocation
// (the grow-in-place path still hits the allocator) and, for live
// bytes, as a free of the old block and an allocation of the new one.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MAX_ALLOCS_PER_ACCESS: f64 = 0.005;

fn allocs_per_access(trace: Trace) -> f64 {
    let trace = Arc::new(trace);
    let plan = CorePlan::bare(Arc::clone(&trace)).with_temporal(Box::new(Streamline::new()));
    let engine = Engine::new(SystemConfig::single_core(), vec![plan]);
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(engine.run());
    (ALLOCS.with(Cell::get) - before) as f64 / trace.len() as f64
}

#[test]
fn the_demand_path_does_not_allocate() {
    // The canonical temporal-prefetching target: dependent loads over a
    // large irregular footprint.
    let pointer_chase = workloads::by_name("spec06.mcf")
        .expect("registry workload")
        .generate(Scale::Test);
    // Stores sweeping 2x the LLC with a 1-in-3 load mix: every level
    // overflows and the writeback / eviction paths run on most accesses.
    let mut b = TraceBuilder::new("synthetic.store-flood", Suite::Spec06);
    for i in 0..65_536u64 {
        b.store(
            0x400_100,
            0x10_0000 + i * streamline_repro::tpsim::LINE_SIZE,
        );
        if i % 3 == 0 {
            b.load(
                0x400_108,
                0x10_0000 + (i / 5) * streamline_repro::tpsim::LINE_SIZE,
            );
        }
    }
    for (name, trace) in [
        ("pointer_chase", pointer_chase),
        ("store_heavy", b.finish()),
    ] {
        let rate = allocs_per_access(trace);
        assert!(
            rate < MAX_ALLOCS_PER_ACCESS,
            "{name}: {rate:.4} allocs/access (gate {MAX_ALLOCS_PER_ACCESS}): \
             the demand path is allocating again"
        );
    }
}

/// The metadata store lays out every slot in `StreamStore::new`; after
/// that, inserts, lookups and resizes build nothing. That holds for
/// filtered indexing (the default, and every configuration outside the
/// `filtering: false` ablation): an unfiltered (RTS) resize still
/// collects the entries it must move into one `Vec`.
#[test]
fn the_store_never_allocates_after_construction() {
    use streamline_repro::streamline_core::store::ALL_SIZES;
    use streamline_repro::streamline_core::{StreamEntry, StreamStore};
    use streamline_repro::tptrace::record::Line;

    let mut store = StreamStore::new(StreamlineConfig::default());
    let work = |store: &mut StreamStore, from: u64| {
        for i in from..from + 25_000 {
            // ~1.5x the store's 64 K entries, revisited: sets fill,
            // evict, hit and miss.
            let trigger = Line(i.wrapping_mul(0x9e37_79b9) % 100_000);
            let targets = [1, 2, 3, 4].map(|k| Line(trigger.0 + k));
            std::hint::black_box(store.insert(StreamEntry::new(trigger, &targets[..]), i as u8));
            let probe = Line(i.wrapping_mul(0x85eb_ca6b) % 100_000);
            std::hint::black_box(store.lookup(probe, i as u8));
        }
    };
    let before = ALLOCS.with(Cell::get);
    work(&mut store, 0);
    // Down through all four sizes and back up, on a warm store.
    for size in ALL_SIZES.into_iter().rev().chain(ALL_SIZES) {
        std::hint::black_box(store.set_size(size));
    }
    work(&mut store, 25_000);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "StreamStore allocated after construction");
}

/// Triangel's reuse buffer is three arrays sized in `Mrb::new`; hits,
/// misses, overwrites and evictions move entries inside them.
#[test]
fn the_mrb_never_allocates_after_construction() {
    use streamline_repro::tptrace::record::Line;
    use streamline_repro::triangel::Mrb;

    let mut mrb = Mrb::new(32);
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        // 47 triggers over 32 entries: the buffer fills, then evicts.
        let trigger = i.wrapping_mul(0x9e37_79b9) % 47;
        if !mrb.contains_pair(trigger, Line(i % 3)) {
            mrb.update(trigger, Line(i % 3));
        }
        std::hint::black_box(mrb.lookup(i.wrapping_mul(0x85eb_ca6b) % 47));
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "Mrb allocated after construction");
    assert_eq!(mrb.len(), 32);
}

/// Live bytes while `generate` runs may peak at this multiple of the
/// finished trace's `resident_bytes()`. A builder that packs in place
/// pays its columns' growth slack (up to 2x) plus the generator's own
/// working set; staging a 24-byte `Vec<Access>` and then packing a
/// second copy read 2.8-4.4x.
const MAX_GENERATION_PEAK: f64 = 2.5;

#[test]
fn generating_a_trace_peaks_near_its_resident_size() {
    for w in workloads::memory_intensive() {
        let before = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(before));
        let trace = w.generate(Scale::Test);
        let ratio = (PEAK.with(Cell::get) - before) as f64 / trace.resident_bytes() as f64;
        assert!(
            ratio <= MAX_GENERATION_PEAK,
            "{}: generation peaked at {ratio:.2}x the trace's {} resident bytes \
             (gate {MAX_GENERATION_PEAK}x)",
            w.name,
            trace.resident_bytes()
        );
    }
}

/// Counts what parsing `v` must allocate for: one `String` per key and
/// string into `owned`, one `Vec` per array and object into
/// `containers`. Numerals, `null` and booleans own no heap memory.
fn count_parts(v: &Value, owned: &mut u64, containers: &mut u64) {
    match v {
        Value::Str(_) => *owned += 1,
        Value::Arr(items) => {
            *containers += 1;
            for v in items {
                count_parts(v, owned, containers);
            }
        }
        Value::Obj(fields) => {
            *containers += 1;
            *owned += fields.len() as u64;
            for (_, v) in fields {
                count_parts(v, owned, containers);
            }
        }
        _ => {}
    }
}

/// A cached hit's reply: the envelope a `done` line carries around the
/// report of a `spec06.mcf` run with Streamline.
fn done_reply() -> String {
    let w = workloads::by_name("spec06.mcf").expect("registry workload");
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);
    let report = encode_sim_report(&run_single(&w, &exp));
    format!(r#"{{"status":"done","key":"0123456789abcdef","cached":true,"report":{report}}}"#)
}

#[test]
fn a_done_reply_parses_with_one_allocation_per_owned_part() {
    let line = done_reply();
    let before = ALLOCS.with(Cell::get);
    let tree = wire::parse(&line).expect("a done reply parses");
    let allocs = ALLOCS.with(Cell::get) - before;
    let (mut owned, mut containers) = (0, 0);
    count_parts(&tree, &mut owned, &mut containers);
    // `Vec`s regrow as they fill (a 13-field object allocates three
    // times): two allocations per container, on average.
    let gate = owned + 2 * containers;
    assert!(
        allocs <= gate,
        "parsing a done reply made {allocs} allocations; its {owned} keys and strings and \
         {containers} containers allow {gate}"
    );
}

#[test]
fn read_frame_allocates_once_per_frame() {
    use std::io::BufReader;
    use tpserve::protocol::read_frame;

    const FRAMES: usize = 64;
    let line = done_reply();
    // Replies of varying length, the longest first so the kept buffer
    // has its size before the count starts.
    let stream: String = (0..=FRAMES)
        .map(|i| format!("{}\n", &line[..line.len() - i]))
        .collect();
    let mut reader = BufReader::new(stream.as_bytes());
    let mut scratch = Vec::new();
    read_frame(&mut reader, &mut scratch).expect("first frame");
    let before = ALLOCS.with(Cell::get);
    let frames: Vec<String> = (0..FRAMES)
        .map(|_| read_frame(&mut reader, &mut scratch).expect("a frame").expect("not EOF"))
        .collect();
    let allocs = ALLOCS.with(Cell::get) - before;
    // The `Vec` of frames collects into one exact-size allocation.
    assert_eq!(allocs, FRAMES as u64 + 1, "{FRAMES} frames read with {allocs} allocations");
    assert!(frames.iter().all(|f| line.starts_with(f.as_str())));
}
