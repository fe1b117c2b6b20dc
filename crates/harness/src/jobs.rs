//! Worker-count resolution shared by every parallel front end.
//!
//! The sweep runner, the `tpbench` figure renderer, and the `tpserve`
//! simulation service all size their worker pools the same way:
//! an explicit count wins (each binary parses its own `--jobs=N` flag
//! with the rest of its arguments and passes the count in), then the
//! `TPSIM_JOBS` environment variable, then the machine's available
//! parallelism. This module is the single implementation of that
//! policy (it used to be duplicated between `tpharness::sweep` and
//! `tpbench`).
//!
//! It also resolves the sibling `TPSIM_TRACE_CACHE_MB` knob, which
//! bounds the process-wide trace pool's resident bytes (see
//! [`tptrace::pool`]); every front end applies it via
//! [`configure_trace_pool`] before running work.

/// Reads the `TPSIM_JOBS` environment variable, ignoring unset, empty,
/// non-numeric, and zero values.
pub fn jobs_env() -> Option<usize> {
    std::env::var("TPSIM_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Resolves the worker count: `explicit` (a parsed `--jobs` flag or a
/// service configuration knob) wins, then [`jobs_env`], then the
/// machine's available parallelism; always at least 1.
pub fn worker_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(jobs_env)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Reads the `TPSIM_TRACE_CACHE_MB` environment variable: the byte
/// capacity (in mebibytes) of the process-wide trace pool. Unset,
/// empty, and non-numeric values are ignored; `0` is honoured and
/// means "evict aggressively" (the pool still serves in-flight
/// requests, it just keeps nothing cached).
pub fn trace_cache_mb_env() -> Option<usize> {
    std::env::var("TPSIM_TRACE_CACHE_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
}

/// Applies the `TPSIM_TRACE_CACHE_MB` knob (when set) to the
/// process-wide [`tptrace::pool`]. Called by every parallel front end
/// (sweep runner, service, bench binaries) at construction; a no-op
/// when the variable is absent, leaving the pool's default capacity.
pub fn configure_trace_pool() {
    if let Some(mb) = trace_cache_mb_env() {
        tptrace::pool::global().set_capacity_bytes(mb.saturating_mul(1 << 20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_count_wins_and_is_clamped() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(1)), 1);
    }

    #[test]
    fn resolution_is_at_least_one() {
        assert!(worker_count(None) >= 1);
    }
}
