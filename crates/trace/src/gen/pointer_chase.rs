//! Pointer-chasing generators: `mcf_like` and `xalanc_like`.

use super::{permutation, region, rng};
use crate::record::LINE_SIZE;
use crate::trace::{Trace, TraceBuilder};
use crate::workloads::{Scale, Suite};

/// SPEC `mcf`-like workload: network-simplex style pointer chasing over a
/// large pool of arc nodes placed at shuffled addresses, interleaved with
/// **scan phases** (sequential sweeps with no temporal reuse).
///
/// The scans matter for fidelity: the paper observes that Triangel wins on
/// mcf because its PC-based filtering bypasses scan metadata, while
/// Streamline must insert those non-temporal entries.
pub fn mcf_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let nodes = 30_000 * f; // pointer pool footprint in lines
    let epochs = 4;
    let mutate_per_epoch = nodes / 50; // 2% relink per epoch -> stale metadata
    let scan_lines = 8_000 * f;

    let mut r = rng(seed);
    let placement = permutation(&mut r, nodes);
    // next[i] = successor node in traversal order; a single Hamiltonian
    // cycle gives one long, stable temporal stream.
    let mut next: Vec<u32> = (0..nodes as u32).map(|i| (i + 1) % nodes as u32).collect();

    let addr_of = |node: u32| region::HEAP + placement[node as usize] as u64 * LINE_SIZE;

    let mut b = TraceBuilder::new("mcf_like", Suite::Spec06);
    b.default_gap(4);
    let chase_pc = 0x40_1000u64;
    let scan_pc = 0x40_2000u64;
    let update_pc = 0x40_3000u64;

    let mut scan_cursor = 0u64;
    for epoch in 0..epochs {
        // Traversal phase: serialized pointer chase through the cycle.
        let mut node = 0u32;
        for step in 0..nodes {
            b.dep_load(chase_pc, addr_of(node));
            node = next[node as usize];
            // Periodic short scan bursts within the traversal (mcf's
            // price-out loops): sequential, no reuse across epochs.
            if step % 64 == 63 {
                for k in 0..8u64 {
                    let a = region::STREAM + (scan_cursor + k) * LINE_SIZE;
                    b.load(scan_pc, a);
                }
                scan_cursor += 8;
                scan_cursor %= scan_lines as u64 * 16; // keep region bounded but reuse-free
            }
        }
        // Mutate a small fraction of links between epochs: splice node x's
        // successor to skip one node, creating stale correlations.
        if epoch + 1 < epochs {
            for _ in 0..mutate_per_epoch {
                let x = r.gen_range(0..nodes) as u32;
                let nx = next[x as usize];
                next[x as usize] = next[nx as usize];
                b.store(update_pc, addr_of(x));
            }
        }
    }
    b.finish()
}

/// SPEC `xalancbmk`-like workload: repeated depth-first traversals of a
/// DOM-like tree whose nodes are scattered in memory. The visit order is
/// stable across traversals, so the access stream is a long repeated
/// irregular sequence — ideal temporal-prefetching territory, with a
/// smaller footprint than mcf and no scan phases.
pub fn xalanc_like(scale: Scale, seed: u64) -> Trace {
    let f = scale.factor();
    let nodes = 18_000 * f;
    let traversals = 7;

    let mut r = rng(seed);
    let placement = permutation(&mut r, nodes);
    let addr_of = |node: usize| region::HEAP + 0x100_0000_0000 + placement[node] as u64 * LINE_SIZE;

    // Build a random tree: parent of node i (i>0) is uniform in [0, i).
    // A DFS pre-order over it gives the stable visit order.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    for i in 1..nodes {
        let p = r.gen_range(0..i);
        children[p].push(i as u32);
    }
    let mut order = Vec::with_capacity(nodes);
    let mut stack = vec![0u32];
    while let Some(n) = stack.pop() {
        order.push(n);
        for &c in children[n as usize].iter().rev() {
            stack.push(c);
        }
    }

    let mut b = TraceBuilder::new("xalanc_like", Suite::Spec06);
    b.default_gap(5);
    let visit_pc = 0x41_1000u64;
    let attr_pc = 0x41_2000u64;
    for t in 0..traversals {
        for (i, &n) in order.iter().enumerate() {
            b.dep_load(visit_pc, addr_of(n as usize));
            // Every few nodes, touch an attribute line adjacent in the
            // node's object (same line region, different offset region).
            if (i + t) % 5 == 0 {
                b.load(attr_pc, addr_of(n as usize) ^ (1 << 22));
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
    fn mcf_has_dependent_chases_and_scans() {
        let t = mcf_like(Scale::Test, 1);
        let s = t.stats();
        assert!(s.dependent_loads > s.accesses / 2, "mostly chases");
        assert!(s.stores > 0, "mutations emit stores");
        // Scan accesses come from the STREAM region.
        assert!(t
            .accesses()
            .iter()
            .any(|a| a.addr.0 >= region::STREAM && a.dep == Dep::None));
    }

    #[test]
    fn mcf_traversal_repeats_across_epochs() {
        let t = mcf_like(Scale::Test, 1);
        // The first chase address must appear in several epochs.
        let first = t
            .accesses()
            .iter()
            .find(|a| a.dep == Dep::PrevLoad)
            .unwrap()
            .addr;
        let occurrences = t.accesses().iter().filter(|a| a.addr == first).count();
        assert!(
            occurrences >= 3,
            "expected epoch repeats, got {occurrences}"
        );
    }

    #[test]
    fn xalanc_repeats_same_order() {
        let t = xalanc_like(Scale::Test, 2);
        let visits: Vec<_> = t
            .accesses()
            .iter()
            .filter(|a| a.pc.0 == 0x41_1000)
            .map(|a| a.addr)
            .collect();
        let n = visits.len() / 7;
        assert_eq!(&visits[..n], &visits[n..2 * n], "visit order must repeat");
    }

    #[test]
    fn different_seeds_differ() {
        let a = mcf_like(Scale::Test, 1);
        let b = mcf_like(Scale::Test, 2);
        assert_ne!(a.accesses()[..100], b.accesses()[..100]);
    }
}
