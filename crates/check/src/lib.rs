#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tpcheck — minimal property-testing harness
//!
//! The build environment is offline, so `proptest` cannot be pulled from
//! a registry. This crate provides the small slice of property-based
//! testing the repo needs: a seeded case generator and a runner that
//! executes a property over many random cases and, on failure, reports
//! the per-case seed so the failing case can be replayed exactly.
//!
//! There is no shrinking; cases are kept small instead, and the failing
//! seed pins the exact input.
//!
//! ## Example
//!
//! ```
//! tpcheck::check("sort is idempotent", 64, |g| {
//!     let mut v = g.vec(0..20, |g| g.u64_in(0..100));
//!     v.sort_unstable();
//!     let w = {
//!         let mut w = v.clone();
//!         w.sort_unstable();
//!         w
//!     };
//!     tpcheck::ensure!(v == w, "sorting twice changed the vector");
//!     Ok(())
//! });
//! ```

use std::ops::Range;

/// Splitmix64 step: the case-seed sequence and the generator stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-case random input generator.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator for one case seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x7c3e_c4e5_a1b2_d3f4,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `u64` in `[range.start, range.end)`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.next_u64() % span
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// A property outcome: `Err` carries the failure message.
pub type PropResult = Result<(), String>;

/// Fails the current property with a formatted message.
///
/// Unlike `assert!`, this returns an `Err` so the runner can attach the
/// case seed before panicking.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("condition failed: {}", stringify!($cond)));
        }
    };
}

/// Runs `prop` over `cases` deterministic random cases derived from the
/// property name. On failure, panics with the case index, seed, and
/// message; replay with [`check_one`] and the reported seed.
pub fn check(name: &str, cases: u32, mut prop: impl FnMut(&mut Gen) -> PropResult) {
    // Derive a base seed from the property name so distinct properties
    // explore distinct inputs but every run of the same test is
    // identical (no flakes, no time-of-day dependence).
    let mut base = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        base ^= *b as u64;
        base = base.wrapping_mul(0x100_0000_01b3);
    }
    for case in 0..cases {
        let seed = {
            let mut s = base.wrapping_add(case as u64);
            splitmix64(&mut s)
        };
        let mut g = Gen::new(seed);
        if let Err(msg) = prop(&mut g) {
            panic!(
                "property {name:?} failed on case {case}/{cases} (seed {seed:#x}): {msg}\n\
                 replay with tpcheck::check_one({seed:#x}, ...)"
            );
        }
    }
}

/// Replays a property on a single case seed reported by [`check`].
pub fn check_one(seed: u64, mut prop: impl FnMut(&mut Gen) -> PropResult) {
    let mut g = Gen::new(seed);
    if let Err(msg) = prop(&mut g) {
        panic!("property failed on seed {seed:#x}: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_seed_deterministic() {
        let mut a = Gen::new(9);
        let mut b = Gen::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::new(1);
        for _ in 0..1000 {
            assert!((5..10).contains(&g.u64_in(5..10)));
            assert!((0..3).contains(&g.usize_in(0..3)));
        }
        let v = g.vec(2..5, |g| g.bool());
        assert!((2..5).contains(&v.len()));
    }

    #[test]
    fn check_passes_trivial_property() {
        check("trivial", 32, |g| {
            let x = g.u64_in(0..100);
            ensure!(x < 100, "x out of range: {x}");
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property")]
    fn check_reports_failures_with_seed() {
        check("always-fails", 4, |_| Err("nope".into()));
    }

    #[test]
    fn cases_vary_across_indices() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        check("variety", 16, |g| {
            seen.insert(g.next_u64());
            Ok(())
        });
        // The runner is expected to feed a fresh seed per case.
        assert!(seen.len() > 10, "cases not varied: {}", seen.len());
    }
}
