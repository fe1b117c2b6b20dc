//! Regular-pattern generators: streams, stencils, scans, and phased mixes.

use super::{permutation, region, rng};
use crate::record::LINE_SIZE;
use crate::trace::{Trace, TraceBuilder};
use crate::workloads::{Scale, Suite};

/// SPEC `libquantum`/`fotonik3d`/`roms`-like workload: long unit-stride
/// streams over arrays far larger than the LLC. A stride prefetcher covers
/// nearly everything; temporal prefetchers should learn to stay out of the
/// way (their dynamic partitioning should shrink the metadata store).
pub fn stream_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let lines = 40_000 * f;
    let passes = 5;
    let mut r = rng(seed);
    let arrays: u64 = 2 + (seed % 2); // 2 or 3 concurrent streams

    let mut b = TraceBuilder::new("stream_like", Suite::Spec06);
    b.default_gap(3 + (r.gen_range(0..2)) as u32);
    for _ in 0..passes {
        for i in 0..lines as u64 {
            for arr in 0..arrays {
                let base = region::STREAM + arr * 0x100_0000_0000;
                if arr == arrays - 1 {
                    b.store(0x60_1000 + arr * 8, base + i * LINE_SIZE);
                } else {
                    b.load(0x60_1000 + arr * 8, base + i * LINE_SIZE);
                }
            }
        }
    }
    b.finish()
}

/// SPEC `lbm`/`cactuBSSN`-like workload: stencil sweeps touching several
/// planes with fixed non-unit strides; regular but multi-stream.
pub fn stencil_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let plane = 200 * f; // lines per row
    let rows = 160;
    let sweeps = 4;
    let _ = rng(seed);

    let mut b = TraceBuilder::new("stencil_like", Suite::Spec06);
    b.default_gap(4);
    let base = region::STREAM + 0x400_0000_0000;
    for _ in 0..sweeps {
        for y in 1..rows - 1 {
            for x in 0..plane {
                let at = |dy: i64| {
                    base + (((y as i64 + dy) as u64) * plane as u64 + x as u64) * LINE_SIZE
                };
                b.load(0x61_1000, at(-1));
                b.load(0x61_1008, at(0));
                b.load(0x61_1010, at(1));
                b.store(0x61_1018, at(0) + 0x200_0000_0000);
            }
        }
    }
    b.finish()
}

/// SPEC `bzip2`-like workload: a small, hot working set with high locality
/// plus occasional cold scans. Very low LLC MPKI headroom — the paper
/// notes Streamline *loses* slightly here because its 64 permanently
/// allocated metadata sets cost data capacity without paying rent.
pub fn scan_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let hot_lines = 3_000; // fits comfortably in L2+LLC
    let scan_lines = 30_000 * f;
    let iterations = 60 * f;
    let mut r = rng(seed);
    let hot_place = permutation(&mut r, hot_lines);

    let mut b = TraceBuilder::new("scan_like", Suite::Spec06);
    b.default_gap(5);
    let mut scan_cursor = 0u64;
    for it in 0..iterations {
        // Hot phase: skewed references within the hot set.
        for k in 0..2_000 {
            let idx = (k * 7 + it * 13) % hot_lines;
            let a = region::HEAP + 0x300_0000_0000 + hot_place[idx] as u64 * LINE_SIZE;
            if k % 11 == 0 {
                b.store(0x62_1008, a);
            } else {
                b.load(0x62_1000, a);
            }
        }
        // Short cold scan (run-length encoding pass).
        for _ in 0..300 {
            b.load(
                0x62_2000,
                region::STREAM + 0x600_0000_0000 + scan_cursor * LINE_SIZE,
            );
            scan_cursor = (scan_cursor + 1) % scan_lines as u64;
        }
    }
    b.finish()
}

/// SPEC `sphinx3`/`gcc`-like workload: alternating phases of regular
/// strided scoring and irregular pointer/gather work. Exercises dynamic
/// partitioning: the metadata store should grow in irregular phases and
/// shrink in regular ones.
pub fn phased_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let irregular_lines = 14_000 * f;
    let stream_lines = 10_000 * f;
    let phases = 6;
    let mut r = rng(seed);
    let place = permutation(&mut r, irregular_lines);
    // A stable irregular visit order, reused in every irregular phase.
    let order = permutation(&mut r, irregular_lines);

    let mut b = TraceBuilder::new("phased_like", Suite::Spec06);
    b.default_gap(4);
    for phase in 0..phases {
        if phase % 2 == 0 {
            // Irregular phase: walk the stable shuffled order.
            for &o in &order {
                b.dep_load(
                    0x63_1000,
                    region::HEAP + 0x400_0000_0000 + place[o as usize] as u64 * LINE_SIZE,
                );
            }
        } else {
            // Regular phase: strided sweeps.
            for pass in 0..2 {
                for i in 0..stream_lines as u64 {
                    b.load(
                        0x63_2000 + pass * 8,
                        region::STREAM + 0x700_0000_0000 + i * LINE_SIZE,
                    );
                }
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_sequential_per_pc() {
        let t = stream_like(Scale::Test, 0x606);
        let a: Vec<_> = t
            .accesses()
            .iter()
            .filter(|x| x.pc.0 == 0x60_1000)
            .map(|x| x.addr.0)
            .collect();
        let increasing = a.windows(2).filter(|w| w[1] == w[0] + LINE_SIZE).count();
        assert!(increasing * 10 > a.len() * 9, "stream should be sequential");
    }

    #[test]
    fn stencil_touches_three_planes() {
        let t = stencil_like(Scale::Test, 0x607);
        let pcs: std::collections::HashSet<_> = t.accesses().iter().map(|a| a.pc.0).collect();
        assert!(pcs.len() >= 4);
    }

    #[test]
    fn scan_like_has_small_hot_footprint() {
        let t = scan_like(Scale::Test, 0x608);
        let hot: std::collections::HashSet<_> = t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x62_1000)
            .map(|a| a.addr.line())
            .collect();
        assert!(hot.len() <= 3_000);
    }

    #[test]
    fn phased_alternates_patterns() {
        let t = phased_like(Scale::Test, 0x605);
        let deps = t.stats().dependent_loads;
        assert!(deps > 0);
        assert!(deps < t.stats().accesses, "must include regular phases");
        // Irregular order repeats between phases 0 and 2.
        let irr: Vec<_> = t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x63_1000)
            .map(|a| a.addr)
            .collect();
        let n = irr.len() / 3;
        assert_eq!(&irr[..n], &irr[n..2 * n]);
    }
}
