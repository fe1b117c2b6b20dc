//! Triage's target-compression lookup table (LUT).
//!
//! Triage stores each prefetch target as a 10-bit LUT index plus an
//! 11-bit in-region offset instead of a full 31-bit line number, fitting
//! 16 correlations per block instead of 12. The cost: when a LUT entry
//! is evicted and reused for a different region, every stored pointer to
//! it silently *dangles* — a later metadata hit reconstructs an address
//! in the wrong region and issues a useless prefetch. The Triangel paper
//! identifies this as a significant accuracy loss; we model it
//! faithfully by tracking per-entry generations.

use tptrace::record::Line;

/// Lines per LUT region (11-bit offset → 2048 lines).
pub const REGION_LINES: u64 = 2048;

/// Number of LUT entries (10-bit index).
pub const LUT_ENTRIES: usize = 1024;

/// A compressed prefetch-target handle: LUT slot + generation + offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedTarget {
    slot: u16,
    generation: u32,
    offset: u16,
}

#[derive(Clone, Copy, Debug, Default)]
struct LutEntry {
    region: u64,
    generation: u32,
    lru: u64,
    valid: bool,
}

/// The region lookup table.
#[derive(Clone, Debug)]
pub struct TargetLut {
    entries: Vec<LutEntry>,
    clock: u64,
    evictions: u64,
}

impl TargetLut {
    /// Creates a LUT with the canonical 1024 entries.
    pub fn new() -> Self {
        TargetLut::with_entries(LUT_ENTRIES)
    }

    /// Creates a LUT with a custom entry count (for pressure studies).
    pub fn with_entries(n: usize) -> Self {
        assert!(n > 0);
        TargetLut {
            entries: vec![LutEntry::default(); n],
            clock: 0,
            evictions: 0,
        }
    }

    /// Compresses `target`, allocating or reusing a region entry.
    pub fn compress(&mut self, target: Line) -> CompressedTarget {
        let region = target.0 / REGION_LINES;
        let offset = (target.0 % REGION_LINES) as u16;
        self.clock += 1;
        if let Some((i, e)) = self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(_, e)| e.valid && e.region == region)
        {
            e.lru = self.clock;
            return CompressedTarget {
                slot: i as u16,
                generation: e.generation,
                offset,
            };
        }
        // Allocate: invalid entry or LRU victim (bumping its generation,
        // which dangles every stored pointer to it).
        let slot = self
            .entries
            .iter()
            .position(|e| !e.valid)
            .unwrap_or_else(|| {
                self.evictions += 1;
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("nonempty lut")
            });
        let e = &mut self.entries[slot];
        let generation = if e.valid {
            e.generation + 1
        } else {
            e.generation
        };
        self.entries[slot] = LutEntry {
            region,
            generation,
            lru: self.clock,
            valid: true,
        };
        CompressedTarget {
            slot: slot as u16,
            generation,
            offset,
        }
    }

    /// Decompresses a handle. Returns the reconstructed line and whether
    /// the reconstruction is **stale** (the LUT entry was reused for a
    /// different region, so the line is wrong — a dangling pointer).
    pub fn decompress(&self, t: CompressedTarget) -> (Line, bool) {
        let e = &self.entries[t.slot as usize];
        let line = Line(e.region * REGION_LINES + t.offset as u64);
        let stale = !e.valid || e.generation != t.generation;
        (line, stale)
    }

    /// LUT replacements so far (each one dangles some pointers).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl Default for TargetLut {
    fn default() -> Self {
        TargetLut::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_capacity() {
        let mut lut = TargetLut::new();
        let t = Line(5 * REGION_LINES + 123);
        let c = lut.compress(t);
        let (line, stale) = lut.decompress(c);
        assert_eq!(line, t);
        assert!(!stale);
    }

    #[test]
    fn same_region_shares_slot() {
        let mut lut = TargetLut::new();
        let a = lut.compress(Line(7 * REGION_LINES + 1));
        let b = lut.compress(Line(7 * REGION_LINES + 2000));
        assert_eq!(a.slot, b.slot);
        assert_eq!(a.generation, b.generation);
    }

    #[test]
    fn pressure_dangles_old_pointers() {
        let mut lut = TargetLut::with_entries(4);
        let old = lut.compress(Line(0));
        // Evict region 0 by touching 4 fresh regions.
        for r in 1..=4u64 {
            lut.compress(Line(r * REGION_LINES));
        }
        let (_, stale) = lut.decompress(old);
        assert!(stale, "dangling pointer must be detectable");
        assert!(lut.evictions() >= 1);
    }

    #[test]
    fn refreshed_region_revalidates_new_handles_only() {
        let mut lut = TargetLut::with_entries(2);
        let old = lut.compress(Line(0));
        lut.compress(Line(REGION_LINES));
        lut.compress(Line(2 * REGION_LINES)); // evicts region 0's slot
        let fresh = lut.compress(Line(5)); // region 0 reallocated
        assert!(lut.decompress(old).1, "old handle stays stale");
        assert!(!lut.decompress(fresh).1, "new handle is valid");
    }
}
