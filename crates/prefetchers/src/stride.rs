//! PC-localised IP-stride prefetcher (the paper's default L1D
//! prefetcher, degree 3 — Table II).

use tpsim::{AccessPrefetcher, LINE_SIZE};
use tptrace::record::{Line, Pc};

const _: () = assert!(LINE_SIZE == 64);

/// Table entries (a power of two).
const ENTRIES: usize = 64;

/// Prefetches issued ahead of a confident stride.
const DEGREE: i64 = 3;

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    tag: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// Classic instruction-pointer stride prefetcher.
///
/// A small direct-mapped table tracks each PC's last line and stride with
/// a 2-bit confidence counter; once confidence saturates, the prefetcher
/// issues three strided prefetches ahead of the demand stream.
#[derive(Clone, Debug)]
pub struct IpStride {
    table: Vec<StrideEntry>,
}

impl IpStride {
    /// Creates the paper-default configuration: 64 entries, degree 3.
    pub fn new() -> Self {
        IpStride {
            table: vec![StrideEntry::default(); ENTRIES],
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.0 as usize ^ (pc.0 >> 6) as usize ^ (pc.0 >> 13) as usize) & (ENTRIES - 1)
    }
}

impl Default for IpStride {
    fn default() -> Self {
        IpStride::new()
    }
}

impl AccessPrefetcher for IpStride {
    fn name(&self) -> &'static str {
        "ip-stride"
    }

    fn on_access(&mut self, pc: Pc, line: Line, _hit: bool, out: &mut Vec<Line>) {
        let idx = self.index(pc);
        let e = &mut self.table[idx];
        if e.tag != pc.0 {
            *e = StrideEntry {
                tag: pc.0,
                last_line: line.0,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let delta = line.0 as i64 - e.last_line as i64;
        e.last_line = line.0;
        if delta == 0 {
            return;
        }
        if delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            if e.confidence > 0 {
                e.confidence -= 1;
            }
            if e.confidence == 0 {
                e.stride = delta;
            }
            return;
        }
        if e.confidence >= 2 {
            let stride = e.stride;
            out.extend((1..=DEGREE).map(|k| Line((line.0 as i64 + stride * k) as u64)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut IpStride, pc: u64, lines: &[u64]) -> Vec<Vec<Line>> {
        lines
            .iter()
            .map(|&l| {
                let mut out = Vec::new();
                p.on_access(Pc(pc), Line(l), false, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn unit_stride_stream_prefetches_ahead() {
        let mut p = IpStride::new();
        let out = drive(&mut p, 0x400, &[100, 101, 102, 103, 104]);
        let last = out.last().unwrap();
        assert_eq!(last, &vec![Line(105), Line(106), Line(107)]);
    }

    #[test]
    fn negative_stride_works() {
        let mut p = IpStride::new();
        let out = drive(&mut p, 0x400, &[100, 98, 96, 94, 92]);
        assert_eq!(out.last().unwrap(), &vec![Line(90), Line(88), Line(86)]);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = IpStride::new();
        let out = drive(&mut p, 0x400, &[5, 93, 12, 71, 3, 55, 8]);
        assert!(out.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn pcs_are_tracked_independently() {
        let mut p = IpStride::new();
        // Interleave two strided PCs.
        let mut fired = 0;
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(Pc(0x400), Line(100 + i), false, &mut out);
            fired += out.len();
            out.clear();
            p.on_access(Pc(0x500), Line(9000 + 4 * i), false, &mut out);
            fired += out.len();
        }
        assert!(fired > 10, "both PCs should prefetch: {fired}");
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = IpStride::new();
        let out = drive(&mut p, 0x400, &[7, 7, 7, 7]);
        assert!(out.iter().all(|v| v.is_empty()));
    }
}
