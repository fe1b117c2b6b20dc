//! Workload registry: the memory-intensive benchmark pool used throughout
//! the evaluation, tagged by the suite each synthetic workload stands in
//! for (SPEC 2006, SPEC 2017, GAP).

use crate::gen;
use crate::trace::Trace;
use std::fmt;

/// Which benchmark suite a workload stands in for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Suite {
    /// SPEC CPU 2006 memory-intensive subset.
    Spec06,
    /// SPEC CPU 2017 memory-intensive subset.
    Spec17,
    /// GAP graph-analytics suite.
    Gap,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Spec06 => write!(f, "SPEC 2006"),
            Suite::Spec17 => write!(f, "SPEC 2017"),
            Suite::Gap => write!(f, "GAP"),
        }
    }
}

/// Trace length / footprint scaling.
///
/// The paper simulates 200M warmup + 800M evaluation instructions; that is
/// far beyond a laptop-scale reproduction, so each workload supports three
/// scales with proportionally shrunk footprints. Relative behaviour (who
/// wins, crossover shapes) is preserved because footprints are scaled
/// relative to the simulated LLC and metadata-store capacities.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Scale {
    /// Tiny traces for unit tests (tens of thousands of accesses).
    Test,
    /// Default experiment scale (hundreds of thousands of accesses).
    Small,
    /// Larger runs for final numbers (about a million accesses).
    Full,
}

impl Scale {
    /// A multiplier applied to per-workload footprint and repetition
    /// parameters: Test = 1, Small = 4, Full = 10.
    pub fn factor(self) -> usize {
        match self {
            Scale::Test => 1,
            Scale::Small => 4,
            Scale::Full => 10,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Test => write!(f, "test"),
            Scale::Small => write!(f, "small"),
            Scale::Full => write!(f, "full"),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// The inverse of `Display` — the one parser of scale names (CLI
    /// flags and the service protocol both call it).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (test|small|full)")),
        }
    }
}

/// Stable identifier for a workload in the registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct WorkloadId(pub usize);

/// A named, seeded workload generator.
#[derive(Clone)]
pub struct Workload {
    /// Registry index.
    pub id: WorkloadId,
    /// Name, e.g. `"gap.pr"`.
    pub name: &'static str,
    /// Suite tag for per-suite reporting.
    pub suite: Suite,
    /// Whether the workload belongs to the paper's "irregular subset"
    /// (≥5% headroom under an idealised Triage with unlimited metadata).
    /// The flag is static: it marks the pattern classes that have
    /// substantial repeated irregular structure.
    pub irregular: bool,
    /// Deterministic seed (distinct per workload).
    pub seed: u64,
    generator: fn(Scale, u64) -> Trace,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("irregular", &self.irregular)
            .finish()
    }
}

impl Workload {
    /// Generates a **private** trace for this workload at the given
    /// scale, bypassing the shared pool. Prefer
    /// [`Workload::generate_shared`] anywhere the trace is replayed —
    /// the private path exists for tests that pin generator determinism
    /// and tools that mutate or serialize the trace they get back.
    pub fn generate(&self, scale: Scale) -> Trace {
        (self.generator)(scale, self.seed)
    }

    /// Returns the trace for `(self, scale)` from the process-wide
    /// [`crate::pool`], generating it on first request. Every caller
    /// asking for the same `(workload fingerprint, seed, scale)` gets a
    /// pointer-identical `Arc<Trace>` — concurrent sweep jobs, mix
    /// cores, and server workers all replay one allocation, and
    /// concurrent first requests collapse into a single generation.
    pub fn generate_shared(&self, scale: Scale) -> std::sync::Arc<Trace> {
        crate::pool::global().get_or_generate(self.pool_key(scale), || self.generate(scale))
    }

    /// The content address this workload's trace is pooled under: the
    /// generator function identity plus `(name, seed, scale)`.
    pub fn pool_key(&self, scale: Scale) -> crate::pool::PoolKey {
        crate::pool::PoolKey {
            generator: self.generator as usize,
            name: self.name,
            seed: self.seed,
            scale,
        }
    }

    /// Returns a copy of this workload with its generator seed replaced.
    ///
    /// The sweep runner uses this to re-derive seeds from a stable
    /// `(job key, base seed)` hash, so seed sweeps are independent of
    /// job submission order and worker count.
    pub fn with_seed(&self, seed: u64) -> Workload {
        let mut w = self.clone();
        w.seed = seed;
        w
    }
}

macro_rules! pool {
    ($(($name:literal, $suite:ident, $irr:literal, $seed:literal, $gen:expr)),+ $(,)?) => {{
        let gens: Vec<(&'static str, Suite, bool, u64, fn(Scale, u64) -> Trace)> =
            vec![$(($name, Suite::$suite, $irr, $seed, $gen)),+];
        gens.into_iter()
            .enumerate()
            .map(|(i, (name, suite, irregular, seed, generator))| Workload {
                id: WorkloadId(i),
                name,
                suite,
                irregular,
                seed,
                generator,
            })
            .collect()
    }};
}

/// The full memory-intensive pool (>1 LLC MPKI equivalents) mirroring the
/// paper's evaluation set: eight SPEC 2006 stand-ins, eight SPEC 2017
/// stand-ins, and the six GAP kernels.
pub fn memory_intensive() -> Vec<Workload> {
    pool![
        // --- SPEC 2006 stand-ins ---
        ("spec06.mcf", Spec06, true, 0x06_01, gen::mcf_like),
        ("spec06.omnetpp", Spec06, true, 0x06_02, gen::omnetpp_like),
        ("spec06.xalancbmk", Spec06, true, 0x06_03, gen::xalanc_like),
        ("spec06.soplex", Spec06, true, 0x06_04, gen::sparse_like),
        ("spec06.sphinx3", Spec06, true, 0x06_05, gen::phased_like),
        (
            "spec06.libquantum",
            Spec06,
            false,
            0x06_06,
            gen::stream_like
        ),
        ("spec06.lbm", Spec06, false, 0x06_07, gen::stencil_like),
        ("spec06.bzip2", Spec06, false, 0x06_08, gen::scan_like),
        // --- SPEC 2017 stand-ins ---
        ("spec17.mcf", Spec17, true, 0x17_01, gen::mcf_like),
        ("spec17.omnetpp", Spec17, true, 0x17_02, gen::omnetpp_like),
        ("spec17.xalancbmk", Spec17, true, 0x17_03, gen::xalanc_like),
        ("spec17.gcc", Spec17, true, 0x17_04, gen::phased_like),
        (
            "spec17.cactuBSSN",
            Spec17,
            false,
            0x17_05,
            gen::stencil_like
        ),
        ("spec17.lbm", Spec17, false, 0x17_06, gen::stencil_like),
        ("spec17.fotonik3d", Spec17, false, 0x17_07, gen::stream_like),
        ("spec17.roms", Spec17, false, 0x17_08, gen::stream_like),
        // --- GAP kernels ---
        ("gap.bfs", Gap, true, 0x9A_01, gen::gap_bfs),
        ("gap.pr", Gap, true, 0x9A_02, gen::gap_pr),
        ("gap.cc", Gap, true, 0x9A_03, gen::gap_cc),
        ("gap.bc", Gap, true, 0x9A_04, gen::gap_bc),
        ("gap.sssp", Gap, true, 0x9A_05, gen::gap_sssp),
        ("gap.tc", Gap, true, 0x9A_06, gen::gap_tc),
    ]
}

/// The statically-marked irregular subset of [`memory_intensive`].
pub fn irregular_subset() -> Vec<Workload> {
    memory_intensive()
        .into_iter()
        .filter(|w| w.irregular)
        .collect()
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    memory_intensive().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_all_suites_and_unique_names() {
        let pool = memory_intensive();
        assert!(pool.len() >= 20);
        for s in [Suite::Spec06, Suite::Spec17, Suite::Gap] {
            assert!(pool.iter().any(|w| w.suite == s), "missing suite {s}");
        }
        let mut names: Vec<_> = pool.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pool.len(), "duplicate workload names");
    }

    #[test]
    fn seeds_are_unique() {
        let pool = memory_intensive();
        let mut seeds: Vec<_> = pool.iter().map(|w| w.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), pool.len());
    }

    #[test]
    fn irregular_subset_is_proper_and_nonempty() {
        let irr = irregular_subset();
        assert!(!irr.is_empty());
        assert!(irr.len() < memory_intensive().len());
        assert!(irr.iter().all(|w| w.irregular));
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("gap.pr").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let w = by_name("spec06.mcf").unwrap();
        let a = w.generate(Scale::Test);
        let b = w.generate(Scale::Test);
        assert_eq!(a.accesses(), b.accesses());
    }

    #[test]
    fn scale_names_parse_back() {
        for s in [Scale::Test, Scale::Small, Scale::Full] {
            assert_eq!(s.to_string().parse(), Ok(s));
        }
        assert!("huge"
            .parse::<Scale>()
            .unwrap_err()
            .contains("unknown scale"));
    }

    #[test]
    fn scale_factors_are_monotonic() {
        assert!(Scale::Test.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }
}
