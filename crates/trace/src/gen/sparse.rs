//! Sparse-matrix generator: `sparse_like` (soplex/milc stand-in).

use super::{permutation, region, rng};
use crate::record::LINE_SIZE;
use crate::trace::{Trace, TraceBuilder};
use crate::workloads::{Scale, Suite};

/// SPEC `soplex`-like workload: iterative sparse matrix-vector products
/// over a fixed sparsity pattern.
///
/// Each iteration streams through the column-index array (regular,
/// stride-friendly) and gathers `x[col]` (irregular but *identical every
/// iteration*, and independent — MLP-rich). This is the classic case where
/// temporal prefetchers add coverage on top of a stride prefetcher.
pub fn sparse_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let rows = 4_000 * f;
    let nnz_per_row = 12;
    let x_lines = 20_000 * f;
    let iterations = 4;

    let mut r = rng(seed);
    let x_place = permutation(&mut r, x_lines);
    // Fixed sparsity pattern: columns per row drawn once.
    let cols: Vec<u32> = (0..rows * nnz_per_row)
        .map(|_| r.gen_range(0..x_lines) as u32)
        .collect();

    let mut b = TraceBuilder::new("sparse_like", Suite::Spec06);
    b.default_gap(3);
    let idx_pc = 0x43_1000u64;
    let gather_pc = 0x43_2000u64;
    let y_pc = 0x43_3000u64;

    for _ in 0..iterations {
        for row in 0..rows {
            for k in 0..nnz_per_row {
                let e = row * nnz_per_row + k;
                // Stream through the index array: 16 u32 indices per line.
                if e % 16 == 0 {
                    b.load(idx_pc, region::EDGES + (e as u64 / 16) * LINE_SIZE);
                }
                let col = cols[e] as usize;
                b.load(gather_pc, region::VEC + x_place[col] as u64 * LINE_SIZE);
            }
            // Write y[row]: 8 doubles per line.
            if row % 8 == 0 {
                b.store(
                    y_pc,
                    region::VEC + 0x80_0000_0000 + (row as u64 / 8) * LINE_SIZE,
                );
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Dep;

    #[test]
    fn gathers_are_independent_loads() {
        let t = sparse_like(Scale::Test, 4);
        assert!(t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x43_2000)
            .all(|a| a.dep == Dep::None));
    }

    #[test]
    fn gather_sequence_repeats_each_iteration() {
        let t = sparse_like(Scale::Test, 4);
        let gathers: Vec<_> = t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x43_2000)
            .map(|a| a.addr)
            .collect();
        let n = gathers.len() / 4;
        assert_eq!(&gathers[..n], &gathers[n..2 * n]);
    }

    #[test]
    fn index_stream_is_sequential() {
        let t = sparse_like(Scale::Test, 4);
        let idx: Vec<_> = t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x43_1000)
            .map(|a| a.addr.0)
            .collect();
        assert!(idx
            .windows(2)
            .take(50)
            .all(|w| w[1] == w[0] + LINE_SIZE || w[1] < w[0]));
    }
}
