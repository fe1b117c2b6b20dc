//! The benchmark's global allocator: forwards to the system allocator
//! and keeps three exact counters — allocations made, bytes live now in
//! large blocks, and the most such bytes ever live.
//!
//! `peak_heap_mb` comes from here rather than from `VmHWM` because the
//! resident set of a threaded process is mostly a fact about glibc's
//! arenas: the same `sweep_cold` run read 95 MB or 123 MB depending on
//! which arena its worker threads happened to land in, while the bytes
//! the program asked for did not change. (`tpbench::alloc_count` counts
//! allocations but not frees, and a process has one global allocator,
//! so the allocation count for `allocs_per_access` is kept here too.)
//!
//! Only blocks of [`TRACKED_MIN`] bytes or more count towards the live
//! total. Those are the traces, tag arrays, metadata stores and caches
//! that make up the footprint (92-98 % of all live bytes at the peak,
//! depending on the workload). Tracking
//! the small ones as well means a second contended atomic on every free
//! and took a third off `serve_closed`'s hit throughput — the
//! instrument would have been measuring itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Smallest block that counts towards the live total.
pub const TRACKED_MIN: usize = 4096;

/// Counts what the program asks of the heap.
pub struct TrackingAlloc;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if bytes < TRACKED_MIN {
        return;
    }
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    if bytes < TRACKED_MIN {
        return;
    }
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence a pointer or
// a layout.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One allocation, as `tpbench::alloc_count` counts it: the
            // grow-in-place path still goes through the allocator.
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocations (and reallocations) made since the process started.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The most bytes that were ever live at once in blocks of
/// [`TRACKED_MIN`] bytes or more, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary registers the allocator too (it is declared in
    // `main.rs`), so these counters are live here.
    #[test]
    fn counts_allocations_and_tracks_the_high_water_mark() {
        let before = allocs();
        let peak_before = PEAK.load(Ordering::Relaxed);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(allocs() > before);
        let peak_with = PEAK.load(Ordering::Relaxed);
        assert!(peak_with >= peak_before.max(64 << 20));
        drop(big);
        // Freed bytes leave the live count; the peak stays.
        assert!(LIVE.load(Ordering::Relaxed) < peak_with);
        assert!(PEAK.load(Ordering::Relaxed) >= peak_with);
        assert!(peak_mb() >= 64.0);
    }
}
