//! Best-effort software-prefetch hints for the batched replay loop.
//!
//! The engine simulates accesses in blocks pulled straight from the
//! packed trace arrays, so the address of access `i + 1` is known while
//! access `i` is still in flight. Touching the hierarchy structure that
//! access will hit — the L1 way slots for its set — overlaps its
//! cache-miss latency with the current access's simulation work (the
//! scx CPU-context scan pattern). Hints are advisory: they read no
//! simulated state and never change results.

/// Requests that the cache line containing `p` be pulled toward the
/// core. No-op on architectures without a stable prefetch intrinsic.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint; it never faults, for any address.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
