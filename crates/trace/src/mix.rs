//! Multi-programmed workload mixes for the multi-core evaluation.
//!
//! The paper simulates 150 random mixes of memory-intensive workloads per
//! core count (2, 4, 8). We reproduce the same experimental design with a
//! seeded [`MixGenerator`]; the default mix count is smaller (laptop-scale)
//! but configurable.

use crate::rng::SmallRng;
use crate::workloads::{memory_intensive, Workload};
use std::fmt;

/// A multi-programmed mix: one workload per core.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Mix index within its batch.
    pub index: usize,
    /// The workload assigned to each core.
    pub workloads: Vec<Workload>,
}

impl Mix {
    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.workloads.len()
    }

    /// Short human-readable label, e.g. `"mix03[gap.pr+spec06.mcf]"`.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        format!("mix{:02}[{}]", self.index, names.join("+"))
    }
}

impl fmt::Display for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Seeded generator of random workload mixes drawn from the
/// memory-intensive pool.
///
/// ```
/// use tptrace::MixGenerator;
/// let mixes = MixGenerator::new(1234).mixes(4, 10);
/// assert_eq!(mixes.len(), 10);
/// assert!(mixes.iter().all(|m| m.cores() == 4));
/// ```
#[derive(Debug)]
pub struct MixGenerator {
    rng: SmallRng,
    pool: Vec<Workload>,
}

impl MixGenerator {
    /// Creates a generator over the default memory-intensive pool.
    pub fn new(seed: u64) -> Self {
        MixGenerator {
            rng: SmallRng::seed_from_u64(seed),
            pool: memory_intensive(),
        }
    }

    /// Creates a generator over a custom pool.
    pub fn with_pool(seed: u64, pool: Vec<Workload>) -> Self {
        assert!(!pool.is_empty(), "mix pool must be nonempty");
        MixGenerator {
            rng: SmallRng::seed_from_u64(seed),
            pool,
        }
    }

    /// Draws `count` random mixes of `cores` workloads each (with
    /// replacement across mixes, without replacement within a mix when the
    /// pool allows it).
    pub fn mixes(&mut self, cores: usize, count: usize) -> Vec<Mix> {
        (0..count)
            .map(|index| {
                let mut chosen: Vec<usize> = Vec::with_capacity(cores);
                for _ in 0..cores {
                    let mut pick = self.rng.gen_range(0..self.pool.len());
                    if self.pool.len() > cores {
                        while chosen.contains(&pick) {
                            pick = self.rng.gen_range(0..self.pool.len());
                        }
                    }
                    chosen.push(pick);
                }
                Mix {
                    index,
                    workloads: chosen.iter().map(|&i| self.pool[i].clone()).collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_requested_shape() {
        let mixes = MixGenerator::new(1).mixes(8, 5);
        assert_eq!(mixes.len(), 5);
        assert!(mixes.iter().all(|m| m.cores() == 8));
    }

    #[test]
    fn mixes_are_deterministic_per_seed() {
        let a = MixGenerator::new(7).mixes(4, 6);
        let b = MixGenerator::new(7).mixes(4, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label(), y.label());
        }
        let c = MixGenerator::new(8).mixes(4, 6);
        assert!(a.iter().zip(&c).any(|(x, y)| x.label() != y.label()));
    }

    #[test]
    fn within_mix_workloads_are_distinct_when_pool_allows() {
        let mixes = MixGenerator::new(3).mixes(4, 20);
        for m in &mixes {
            let mut ids: Vec<_> = m.workloads.iter().map(|w| w.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 4, "duplicate workload in {}", m.label());
        }
    }

    #[test]
    fn label_mentions_all_members() {
        let m = &MixGenerator::new(3).mixes(2, 1)[0];
        for w in &m.workloads {
            assert!(m.label().contains(w.name));
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_pool_panics() {
        let _ = MixGenerator::with_pool(0, Vec::new());
    }
}
