//! Triangel's training unit: per-PC reuse/pattern confidence measured by
//! an adaptively-sampled History Sampler (HS) with a Second-Chance
//! Sampler (SCS) for reordering leeway.
//!
//! For each load PC, Triangel estimates:
//!
//! * **reuse confidence** — would this PC's correlations be *used* before
//!   eviction from the metadata store? A correlation is sampled into the
//!   HS; if its trigger returns while the sample is resident, the PC is
//!   credited. The per-PC **sampling rate adapts** (Triangel's 4-bit
//!   rate field): when samples die unused, the PC samples less often so
//!   that the HS's effective reach grows to match the PC's reuse
//!   distance; only a PC whose samples die even at the slowest rate
//!   loses reuse confidence. This is what lets Triangel retain
//!   pointer-chase PCs with multi-hundred-thousand-access reuse
//!   distances while still filtering true scans.
//! * **pattern confidence** — does the PC produce *repeatable*
//!   correlations? On a sample's reuse, the recorded next-address is
//!   compared with the actual next access; mismatches get a second
//!   chance via the SCS (the target may merely be reordered).
//!
//! Only PCs with high reuse confidence may store metadata, and pattern
//! confidence sets the prefetch degree.

use tptrace::record::{Line, Pc};

const CONF_MAX: u8 = 15;
const CONF_INIT: u8 = 8;
/// Reuse confidence required to store metadata.
const STORE_THRESHOLD: u8 = 8;
/// Sampling-rate exponent bounds: 1/4 .. 1/1024 of correlations.
const RATE_MIN: u8 = 2;
const RATE_MAX: u8 = 10;
/// Unused evictions punish reuse confidence once the rate is this slow.
const RATE_PUNISH: u8 = 8;
/// Training-unit entries.
const TU_ENTRIES: usize = 256;
/// History-sampler entries (a power of two: it is hash-indexed).
const HS_ENTRIES: usize = 512;
const _: () = assert!(HS_ENTRIES.is_power_of_two());
/// Second-chance-sampler entries.
const SCS_ENTRIES: usize = 16;
/// Maximum prefetch degree.
const MAX_DEGREE: usize = 4;

#[derive(Clone, Copy, Debug, Default)]
struct TuEntry {
    tag: u64,
    last: [u64; 2],
    valid: [bool; 2],
    reuse_conf: u8,
    pattern_conf: u8,
    /// SCS rescues since the last promotion; frequent rescues flip the
    /// lookahead bit (the stream is consistently reordered by one).
    reorder_hits: u8,
    lookahead: bool,
    /// log2 of the sampling period.
    rate: u8,
    countdown: u16,
}

#[derive(Clone, Copy, Debug, Default)]
struct HsEntry {
    trigger: u64,
    next: u64,
    tu_idx: u16,
    tu_tag: u64,
    valid: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct ScsEntry {
    expected: u64,
    tu_tag: u64,
    ttl: u8,
    valid: bool,
}

/// What the training unit tells the prefetcher to do for one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuDecision {
    /// The completed correlation to (maybe) store: `(trigger, target)`.
    pub correlation: Option<(Line, Line)>,
    /// Whether the PC's reuse confidence allows storing it.
    pub may_store: bool,
    /// Prefetch degree granted by pattern confidence (0..=4).
    pub degree: usize,
}

/// Triangel's training unit (TU + HS + SCS).
#[derive(Clone, Debug)]
pub struct TrainingUnit {
    tu: Vec<TuEntry>,
    hs: Vec<HsEntry>,
    scs: Vec<ScsEntry>,
}

impl TrainingUnit {
    /// Creates the paper-sized training unit: 256 TU entries, a
    /// 512-entry history sampler, a 16-entry second-chance sampler.
    pub fn new() -> Self {
        TrainingUnit {
            tu: vec![TuEntry::default(); TU_ENTRIES],
            hs: vec![HsEntry::default(); HS_ENTRIES],
            scs: vec![ScsEntry::default(); SCS_ENTRIES],
        }
    }

    fn tu_index(&self, pc: Pc) -> usize {
        (pc.0 as usize ^ (pc.0 >> 7) as usize ^ (pc.0 >> 15) as usize) % TU_ENTRIES
    }

    fn hs_index(&self, trigger: u64) -> usize {
        let mut x = trigger.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x ^ (x >> 27)) as usize & (HS_ENTRIES - 1)
    }

    /// Processes one L2 event for `pc` accessing `line`; returns the
    /// storage/prefetch decision.
    pub fn observe(&mut self, pc: Pc, line: Line) -> TuDecision {
        // Second-chance pass: does this access redeem a parked target?
        for i in 0..self.scs.len() {
            let s = self.scs[i];
            if !s.valid {
                continue;
            }
            if s.expected == line.0 {
                self.scs[i].valid = false;
                if let Some(e) = self.tu.iter_mut().find(|e| e.tag == s.tu_tag) {
                    e.pattern_conf = (e.pattern_conf + 2).min(CONF_MAX);
                    // Flipping the lookahead bit rewrites the PC's whole
                    // correlation key space, so require sustained,
                    // uncontradicted reordering evidence (direct pattern
                    // hits decrement the counter in `hs_check`).
                    e.reorder_hits = e.reorder_hits.saturating_add(1);
                    if e.reorder_hits >= 32 {
                        e.lookahead = true;
                        e.reorder_hits = 0;
                    }
                }
            } else {
                self.scs[i].ttl = s.ttl.saturating_sub(1);
                if self.scs[i].ttl == 0 {
                    self.scs[i].valid = false;
                }
            }
        }

        let tu_idx = self.tu_index(pc);
        let e = &mut self.tu[tu_idx];
        if e.tag != pc.0 {
            *e = TuEntry {
                tag: pc.0,
                last: [line.0, 0],
                valid: [true, false],
                reuse_conf: CONF_INIT,
                pattern_conf: CONF_INIT,
                rate: RATE_MIN,
                countdown: 1 << RATE_MIN,
                ..TuEntry::default()
            };
            return TuDecision {
                correlation: None,
                may_store: false,
                degree: 0,
            };
        }

        // The completed correlation: lookahead picks the older address.
        let trig_slot = if e.lookahead && e.valid[1] { 1 } else { 0 };
        let correlation = if e.valid[trig_slot] && e.last[trig_slot] != line.0 {
            Some((Line(e.last[trig_slot]), line))
        } else {
            None
        };

        // Shift history.
        e.last[1] = e.last[0];
        e.valid[1] = e.valid[0];
        e.last[0] = line.0;
        e.valid[0] = true;

        let may_sample = {
            e.countdown = e.countdown.saturating_sub(1);
            if e.countdown == 0 {
                e.countdown = 1 << e.rate;
                true
            } else {
                false
            }
        };
        let reuse_ok = e.reuse_conf >= STORE_THRESHOLD;
        let degree_conf = e.pattern_conf;
        let tag = e.tag;

        if let Some((trigger, target)) = correlation {
            self.hs_check(tu_idx, trigger, target);
            if may_sample {
                self.hs_insert(tu_idx as u16, tag, trigger, target);
            }
        }

        // Map pattern confidence to degree (paper: confidence sets the
        // degree; max 4 in this system). A PC trusted enough to *store*
        // correlations prefetches at least degree 1 — partially stable
        // streams (graph gathers) keep a conservative benefit.
        let degree = match degree_conf {
            0..=1 => 0,
            2..=7 => 1,
            8..=11 => 2,
            _ => MAX_DEGREE,
        };

        TuDecision {
            correlation,
            may_store: reuse_ok,
            degree,
        }
    }

    /// Checks whether `trigger`'s return matches the sampled next.
    fn hs_check(&mut self, tu_idx: usize, trigger: Line, actual_next: Line) {
        let slot = self.hs_index(trigger.0);
        let h = self.hs[slot];
        if !h.valid || h.trigger != trigger.0 {
            return;
        }
        self.hs[slot].valid = false;
        // Reuse credit: the sample survived until its trigger returned.
        {
            let e = &mut self.tu[h.tu_idx as usize];
            if e.tag == h.tu_tag {
                e.reuse_conf = (e.reuse_conf + 1).min(CONF_MAX);
                // The current rate reaches this PC's reuse distance;
                // probe a faster rate for more samples.
                e.rate = e.rate.saturating_sub(1).max(RATE_MIN);
            }
        }
        // Pattern check.
        let same_pc = tu_idx == h.tu_idx as usize;
        let e = &mut self.tu[h.tu_idx as usize];
        if e.tag != h.tu_tag {
            return;
        }
        if h.next == actual_next.0 {
            // Asymmetric update (+2/−1): partially stable streams — e.g.
            // low-degree graph gathers mixed with ambiguous hubs — keep
            // a usable degree, while truly random successors still decay
            // to zero.
            e.pattern_conf = (e.pattern_conf + 2).min(CONF_MAX);
            e.reorder_hits = e.reorder_hits.saturating_sub(1);
        } else {
            e.pattern_conf = e.pattern_conf.saturating_sub(1);
            let _ = same_pc;
            // Park the expectation in the SCS: if the old target shows
            // up shortly, the pattern was merely reordered.
            let free = self.scs.iter().position(|s| !s.valid).unwrap_or(0);
            self.scs[free] = ScsEntry {
                expected: h.next,
                tu_tag: h.tu_tag,
                ttl: 8,
                valid: true,
            };
        }
    }

    fn hs_insert(&mut self, tu_idx: u16, tu_tag: u64, trigger: Line, target: Line) {
        let slot = self.hs_index(trigger.0);
        let victim = self.hs[slot];
        if victim.valid {
            // Unused eviction: slow the owner's sampling so its next
            // samples live long enough to observe reuse; a PC already at
            // the slowest rate is a genuine scan — punish it.
            let e = &mut self.tu[victim.tu_idx as usize];
            if e.tag == victim.tu_tag {
                if e.rate >= RATE_PUNISH {
                    e.reuse_conf = e.reuse_conf.saturating_sub(1);
                }
                if e.rate < RATE_MAX {
                    e.rate += 1;
                }
            }
        }
        self.hs[slot] = HsEntry {
            trigger: trigger.0,
            next: target.0,
            tu_idx,
            tu_tag,
            valid: true,
        };
    }

    /// The lookahead bit of `pc`'s entry (diagnostics / tests).
    pub fn lookahead(&self, pc: Pc) -> bool {
        let e = &self.tu[self.tu_index(pc)];
        e.tag == pc.0 && e.lookahead
    }

    /// Current reuse/pattern confidence of `pc` (diagnostics / tests).
    pub fn confidence(&self, pc: Pc) -> Option<(u8, u8)> {
        let e = &self.tu[self.tu_index(pc)];
        (e.tag == pc.0).then_some((e.reuse_conf, e.pattern_conf))
    }

    /// Current sampling-rate exponent of `pc` (diagnostics / tests).
    pub fn sample_rate_log2(&self, pc: Pc) -> Option<u8> {
        let e = &self.tu[self.tu_index(pc)];
        (e.tag == pc.0).then_some(e.rate)
    }
}

impl Default for TrainingUnit {
    fn default() -> Self {
        TrainingUnit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(tu: &mut TrainingUnit, pc: u64, lines: &[u64]) -> Vec<TuDecision> {
        lines.iter().map(|&l| tu.observe(Pc(pc), Line(l))).collect()
    }

    #[test]
    fn stable_stream_builds_confidence_and_degree() {
        let mut tu = TrainingUnit::new();
        let seq: Vec<u64> = (0..40).map(|i| 100 + i).collect();
        for _ in 0..40 {
            drive(&mut tu, 1, &seq);
        }
        let (reuse, pattern) = tu.confidence(Pc(1)).unwrap();
        assert!(reuse >= 8, "stable stream should be storable: {reuse}");
        assert!(pattern >= 12, "stable stream earns degree 4: {pattern}");
        let d = tu.observe(Pc(1), Line(100));
        assert_eq!(d.degree, 4);
        assert!(d.may_store);
    }

    #[test]
    fn random_stream_loses_pattern_confidence() {
        let mut tu = TrainingUnit::new();
        let mut x = 0xabcdefu64;
        let mut lines = Vec::new();
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            lines.push((x >> 30) % 200); // triggers repeat; successors random
        }
        drive(&mut tu, 2, &lines);
        let (_, pattern) = tu.confidence(Pc(2)).unwrap();
        assert!(pattern < 8, "random successors: pattern {pattern}");
    }

    #[test]
    fn correlations_report_previous_address() {
        let mut tu = TrainingUnit::new();
        tu.observe(Pc(3), Line(10));
        let d = tu.observe(Pc(3), Line(20));
        assert_eq!(d.correlation, Some((Line(10), Line(20))));
    }

    #[test]
    fn scan_pcs_lose_reuse_confidence() {
        let mut tu = TrainingUnit::new();
        // Never-repeating triggers: rate climbs to max, then unused
        // evictions punish reuse confidence.
        let lines: Vec<u64> = (0..200_000).map(|i| 10_000_000 + i).collect();
        drive(&mut tu, 4, &lines);
        let (reuse, _) = tu.confidence(Pc(4)).unwrap();
        assert!(reuse < 8, "scan should lose reuse confidence: {reuse}");
        assert_eq!(tu.sample_rate_log2(Pc(4)), Some(RATE_MAX));
    }

    #[test]
    fn long_reuse_distances_adapt_rather_than_filter() {
        let mut tu = TrainingUnit::new();
        // mcf-like: a 20K-line loop (reuse distance 20K, far beyond a
        // fixed-rate 512-entry sampler) revisited many times.
        let seq: Vec<u64> = (0..20_000).map(|i| 500_000 + i * 3).collect();
        for _ in 0..12 {
            drive(&mut tu, 5, &seq);
        }
        let (reuse, _) = tu.confidence(Pc(5)).unwrap();
        assert!(
            reuse >= 8,
            "rate adaptation should keep long loops storable: {reuse}"
        );
    }

    #[test]
    fn second_chance_rescues_reordered_patterns() {
        let mut tu = TrainingUnit::new();
        // Pattern A->B->C with occasional A->C->B swaps.
        let mut seq = Vec::new();
        for i in 0..2000 {
            if i % 4 == 3 {
                seq.extend_from_slice(&[1u64, 3, 2]);
            } else {
                seq.extend_from_slice(&[1u64, 2, 3]);
            }
        }
        drive(&mut tu, 6, &seq);
        let (_, pattern) = tu.confidence(Pc(6)).unwrap();
        assert!(
            pattern >= 8,
            "reordering should be forgiven via SCS: {pattern}"
        );
    }

    #[test]
    fn new_pc_starts_neutral() {
        let mut tu = TrainingUnit::new();
        let d = tu.observe(Pc(9), Line(1));
        assert_eq!(d.correlation, None);
        assert_eq!(d.degree, 0);
        assert_eq!(tu.confidence(Pc(9)), Some((CONF_INIT, CONF_INIT)));
    }
}
