//! Sampled shadow-tag stack-distance profiling.
//!
//! The dynamic partitioners in Triage, Triangel, and Streamline must
//! estimate how many *data* hits the LLC would gain or lose at each
//! candidate metadata-partition size. Hardware does this with set
//! dueling (leader sets run competing configurations); an equivalent —
//! and deterministic — formulation samples a subset of sets, keeps a
//! full-depth LRU stack of data tags for each, and histograms the stack
//! distance of every hit. The hits a configuration with `d` data ways
//! would capture are then `Σ_{depth < d} hist[depth]`.
//!
//! Temporal prefetchers see every LLC-bound access (their training events
//! are exactly the L2 misses and prefetch hits), so they can feed this
//! sampler without extra probes.

use tptrace::record::Line;

/// Log2 of the LLC set-sampling ratio (5 → every 32nd set). The
/// hierarchy forwards only sampled sets' accesses, the temporal
/// prefetchers size their [`ShadowSets`] by it, and their partitioners
/// scale sampled data hits back up by it: all three must agree.
pub const LLC_SAMPLE_SHIFT: u32 = 5;

/// Tag filling the unused tail of a stack. `Line` values are block
/// numbers (addresses shifted right by 6), so no access carries it.
const EMPTY: u64 = u64::MAX;

/// Sampled LRU stack-distance profiler over cache sets.
#[derive(Clone, Debug)]
pub struct ShadowSets {
    /// Log2 of the sampling ratio (5 → every 32nd set).
    sample_shift: u32,
    set_mask: u64,
    max_depth: usize,
    /// One most-recent-first tag stack of `max_depth` tags per sampled
    /// set, back to back; `EMPTY` fills the tail of a stack that has
    /// seen fewer distinct lines.
    stacks: Vec<u64>,
    /// Hit counts by stack depth; index `max_depth` counts misses.
    hist: Vec<u64>,
}

impl ShadowSets {
    /// Creates a profiler for a cache with `sets` sets, sampling every
    /// `2^sample_shift`-th set, tracking stack depths up to `max_depth`.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or `max_depth` is zero.
    pub fn new(sets: usize, sample_shift: u32, max_depth: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(max_depth > 0, "max_depth must be nonzero");
        let sampled = (sets >> sample_shift).max(1);
        ShadowSets {
            sample_shift,
            set_mask: sets as u64 - 1,
            max_depth,
            stacks: vec![EMPTY; sampled * max_depth],
            hist: vec![0; max_depth + 1],
        }
    }

    /// Observes an access; returns `true` if the line fell in a sampled
    /// set.
    pub fn observe(&mut self, line: Line) -> bool {
        let set = line.0 & self.set_mask;
        if set & ((1 << self.sample_shift) - 1) != 0 {
            return false;
        }
        // A sampled set's number shifted down is below the sampled-set
        // count (or is 0 when fewer than one stride of sets exists).
        let base = (set >> self.sample_shift) as usize * self.max_depth;
        let stack = &mut self.stacks[base..base + self.max_depth];
        match stack.iter().position(|&t| t == line.0) {
            Some(depth) => {
                self.hist[depth] += 1;
                stack[..=depth].rotate_right(1);
            }
            None => {
                self.hist[self.max_depth] += 1;
                // The deepest tag (or an `EMPTY`) comes round to the
                // top, where the new tag replaces it.
                stack.rotate_right(1);
                stack[0] = line.0;
            }
        }
        true
    }

    /// Hits that a configuration with `ways` data ways would capture,
    /// over the sampled sets since the last [`ShadowSets::reset`].
    pub fn hits_with_ways(&self, ways: usize) -> u64 {
        self.hist[..ways.min(self.max_depth)].iter().sum()
    }

    /// Total sampled accesses since the last reset.
    pub fn sampled_accesses(&self) -> u64 {
        self.hist.iter().sum()
    }

    /// Clears the histogram for the next epoch (stacks persist).
    pub fn reset(&mut self) {
        self.hist.iter_mut().for_each(|h| *h = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_loop_hits_at_shallow_depths() {
        let mut s = ShadowSets::new(64, 0, 16);
        // Working set of 4 lines per set, looped: depths 0..4 after warmup.
        for _ in 0..10 {
            for i in 0..4u64 {
                s.observe(Line(i * 64)); // all map to set 0
            }
        }
        assert!(s.hits_with_ways(4) > 30);
        assert_eq!(s.hits_with_ways(4), s.hits_with_ways(16));
    }

    #[test]
    fn larger_working_set_needs_more_ways() {
        let mut s = ShadowSets::new(64, 0, 16);
        for _ in 0..10 {
            for i in 0..12u64 {
                s.observe(Line(i * 64));
            }
        }
        let at4 = s.hits_with_ways(4);
        let at12 = s.hits_with_ways(12);
        assert!(at12 > at4, "deeper stack captures loop: {at4} vs {at12}");
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        let mut s = ShadowSets::new(64, 5, 16);
        assert!(s.observe(Line(0)));
        assert!(!s.observe(Line(1)));
        assert!(s.observe(Line(32)));
    }

    #[test]
    fn reset_clears_histogram_not_stacks() {
        let mut s = ShadowSets::new(64, 0, 8);
        s.observe(Line(0));
        s.observe(Line(0));
        assert_eq!(s.hits_with_ways(8), 1);
        s.reset();
        assert_eq!(s.sampled_accesses(), 0);
        s.observe(Line(0));
        // Stack persisted, so this is still a depth-0 hit.
        assert_eq!(s.hits_with_ways(1), 1);
    }

    /// The per-set `Vec<Vec<u64>>` stacks (`position` + `remove` +
    /// `insert(0, …)` + `pop`) the flat array replaced, kept as the
    /// reference model: per sampled set a most-recent-first stack that
    /// grows to `max_depth`, and a histogram shaped like `hist`.
    struct Reference {
        sample_shift: u32,
        set_mask: u64,
        max_depth: usize,
        stacks: Vec<Vec<u64>>,
        hist: Vec<u64>,
    }

    fn reference_observe(r: &mut Reference, line: Line) -> bool {
        let set = line.0 & r.set_mask;
        if set & ((1 << r.sample_shift) - 1) != 0 {
            return false;
        }
        let idx = (set >> r.sample_shift) as usize % r.stacks.len();
        let stack = &mut r.stacks[idx];
        match stack.iter().position(|&t| t == line.0) {
            Some(depth) => {
                r.hist[depth.min(r.max_depth - 1)] += 1;
                let tag = stack.remove(depth);
                stack.insert(0, tag);
            }
            None => {
                r.hist[r.max_depth] += 1;
                stack.insert(0, line.0);
                if stack.len() > r.max_depth {
                    stack.pop();
                }
            }
        }
        true
    }

    #[test]
    fn flat_stacks_match_the_per_set_vec_reference() {
        // Not every case reaches the two edges; the run as a whole must.
        let (mut deepest_hits, mut evictions) = (0u64, 0u64);
        tpcheck::check("flat shadow stacks == Vec<Vec> reference", 256, |g| {
            let sets = 1usize << g.usize_in(0..9);
            let sample_shift = g.usize_in(0..7) as u32;
            let max_depth = g.usize_in(1..20);
            let mut flat = ShadowSets::new(sets, sample_shift, max_depth);
            let mut model = Reference {
                sample_shift,
                set_mask: sets as u64 - 1,
                max_depth,
                stacks: vec![Vec::new(); (sets >> sample_shift).max(1)],
                hist: vec![0; max_depth + 1],
            };
            // A few hot sets with a tag pool a little deeper than the
            // stack: heavy reuse at every depth including the last,
            // and misses that evict the deepest tag.
            let hot: Vec<u64> = g.vec(1..4, |g| g.u64_in(0..sets as u64));
            let pool = max_depth as u64 + 3;
            for _ in 0..g.usize_in(1..600) {
                if g.u64_in(0..50) == 0 {
                    flat.reset();
                    model.hist.iter_mut().for_each(|h| *h = 0);
                }
                let line = if g.u64_in(0..8) == 0 {
                    Line(g.next_u64() >> 8) // anywhere
                } else {
                    let set = hot[g.usize_in(0..hot.len())];
                    Line(g.u64_in(0..pool) * sets as u64 + set)
                };
                let held = |m: &Reference| m.stacks.iter().map(Vec::len).sum::<usize>();
                let before = (
                    model.hist[max_depth - 1],
                    model.hist[max_depth],
                    held(&model),
                );
                let sampled = reference_observe(&mut model, line);
                deepest_hits += model.hist[max_depth - 1] - before.0;
                // A miss that left the stacks no fuller pushed a tag out.
                evictions +=
                    u64::from(model.hist[max_depth] > before.1 && held(&model) == before.2);
                tpcheck::ensure!(
                    flat.observe(line) == sampled,
                    "line {line:?}: sampled-set decision diverged"
                );
                for w in 0..=max_depth + 1 {
                    let want: u64 = model.hist[..w.min(max_depth)].iter().sum();
                    tpcheck::ensure!(
                        flat.hits_with_ways(w) == want,
                        "hits_with_ways({w}) = {} after {line:?}, reference {want}",
                        flat.hits_with_ways(w)
                    );
                }
                tpcheck::ensure!(
                    flat.sampled_accesses() == model.hist.iter().sum::<u64>(),
                    "sampled_accesses diverged after {line:?}"
                );
            }
            Ok(())
        });
        assert!(deepest_hits > 0, "no case hit at depth max_depth - 1");
        assert!(evictions > 0, "no case evicted a deepest tag");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = ShadowSets::new(100, 0, 8);
    }
}
