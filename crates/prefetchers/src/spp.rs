//! SPP-PPF-style signature-path prefetcher (Kim et al., MICRO 2016;
//! Bhatia et al., ISCA 2019), used as an L2 baseline in Figure 11c/d.
//!
//! SPP builds a per-page *signature* from the sequence of line deltas,
//! looks the signature up in a pattern table to predict the next delta,
//! and speculatively walks the signature path with multiplying
//! confidence, issuing deeper prefetches while the path confidence stays
//! above a threshold. The PPF part is approximated by a quality filter:
//! deltas whose predictions keep getting rejected lose a per-delta
//! reputation weight and are suppressed.

use std::collections::HashMap;
use tpsim::AccessPrefetcher;
use tptrace::record::{Line, Pc};

/// Lines per page (4 KB pages of 64-byte lines).
pub const PAGE_LINES: u64 = 64;
const LOOKAHEAD_MAX: usize = 4;
const PATH_THRESHOLD: f64 = 0.35;

#[derive(Clone, Copy, Debug, Default)]
struct PageEntry {
    signature: u16,
    last_offset: u8,
    valid: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Pattern {
    delta: i8,
    count: u16,
    total: u16,
}

/// The SPP-PPF prefetcher.
#[derive(Clone, Debug, Default)]
pub struct SppPpf {
    pages: HashMap<u64, PageEntry>,
    patterns: HashMap<u16, Pattern>,
    /// PPF-lite reputation per delta (suppresses chronically bad deltas).
    reputation: HashMap<i8, i16>,
}

impl SppPpf {
    /// Creates an SPP-PPF prefetcher.
    pub fn new() -> Self {
        SppPpf::default()
    }

    fn fold(sig: u16, delta: i8) -> u16 {
        ((sig << 3) ^ (delta as u16 & 0x7f)) & 0x0fff
    }
}

impl AccessPrefetcher for SppPpf {
    fn name(&self) -> &'static str {
        "spp-ppf"
    }

    fn on_access(&mut self, _pc: Pc, line: Line, _hit: bool, out: &mut Vec<Line>) {
        let page = line.0 / PAGE_LINES;
        let offset = (line.0 % PAGE_LINES) as u8;

        if self.pages.len() > 4096 {
            self.pages.clear();
        }
        let entry = self.pages.entry(page).or_default();
        if !entry.valid {
            *entry = PageEntry {
                signature: 0,
                last_offset: offset,
                valid: true,
            };
            return;
        }
        let delta = offset as i16 - entry.last_offset as i16;
        entry.last_offset = offset;
        if delta == 0 || delta.unsigned_abs() >= PAGE_LINES as u16 {
            return;
        }
        let delta = delta as i8;

        // Train the pattern table for the previous signature.
        let sig = entry.signature;
        let p = self.patterns.entry(sig).or_default();
        p.total = p.total.saturating_add(1);
        if p.delta == delta {
            p.count = p.count.saturating_add(1);
        } else if p.count <= 1 {
            p.delta = delta;
            p.count = 1;
        } else {
            p.count -= 1;
        }
        if p.total > 256 {
            p.total /= 2;
            p.count /= 2;
        }
        entry.signature = Self::fold(sig, delta);

        // Path walk: follow predicted deltas with multiplying confidence.
        let mut conf = 1.0f64;
        let mut sig = entry.signature;
        let mut cur = line.0;
        if self.patterns.len() > 8192 {
            self.patterns.clear();
        }
        for _ in 0..LOOKAHEAD_MAX {
            let Some(p) = self.patterns.get(&sig) else {
                break;
            };
            if p.total == 0 {
                break;
            }
            let step_conf = p.count as f64 / p.total as f64;
            conf *= step_conf;
            if conf < PATH_THRESHOLD {
                break;
            }
            // PPF-lite rejection.
            if self.reputation.get(&p.delta).copied().unwrap_or(0) < -8 {
                break;
            }
            let next = cur as i64 + p.delta as i64;
            // Stay within the page, as SPP does.
            if next < 0 || (next as u64) / PAGE_LINES != page {
                break;
            }
            cur = next as u64;
            out.push(Line(cur));
            sig = Self::fold(sig, p.delta);
        }
    }
}

impl SppPpf {
    /// Feedback hook for the PPF-lite filter: callers may report whether
    /// a prefetch for `delta` turned out useful.
    pub fn reward_delta(&mut self, delta: i8, useful: bool) {
        let r = self.reputation.entry(delta).or_insert(0);
        *r = (*r + if useful { 1 } else { -1 }).clamp(-16, 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(p: &mut SppPpf, line: u64) -> Vec<Line> {
        let mut out = Vec::new();
        p.on_access(Pc(1), Line(line), false, &mut out);
        out
    }

    #[test]
    fn learns_unit_stride_within_page() {
        let mut p = SppPpf::new();
        let mut out = Vec::new();
        // Two pages of warmup, then a fresh page: signatures transfer.
        for page in 0..3u64 {
            for o in 0..PAGE_LINES / 2 {
                out = access(&mut p, page * PAGE_LINES + o);
            }
        }
        assert!(!out.is_empty(), "unit stride should walk the path");
        assert!(out.len() >= 2, "lookahead should exceed 1: {out:?}");
    }

    #[test]
    fn prefetches_stay_within_page() {
        let mut p = SppPpf::new();
        let mut all = Vec::new();
        for page in 0..3u64 {
            for o in 0..PAGE_LINES {
                all.extend(access(&mut p, page * PAGE_LINES + o));
            }
        }
        // Every prefetch must land inside some page the access touched.
        assert!(all.iter().all(|l| l.0 / PAGE_LINES < 3));
    }

    #[test]
    fn random_offsets_rarely_fire() {
        let mut p = SppPpf::new();
        let mut x = 12345u64;
        let mut fired = 0;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            fired += access(&mut p, (x >> 33) % (PAGE_LINES * 4)).len();
        }
        assert!(fired < 80, "random fired {fired}");
    }

    #[test]
    fn reputation_suppresses_bad_deltas() {
        let mut p = SppPpf::new();
        for _ in 0..20 {
            p.reward_delta(1, false);
        }
        let mut out = Vec::new();
        for page in 0..3u64 {
            for o in 0..PAGE_LINES / 2 {
                out = access(&mut p, page * PAGE_LINES + o);
            }
        }
        assert!(out.is_empty(), "suppressed delta still fired: {out:?}");
    }
}
