//! Log-linear latency histogram for the service's live stats.
//!
//! Service times span five orders of magnitude (a cache hit is
//! microseconds, a Full-scale mix is seconds), so the stats endpoint
//! reports quantiles from a fixed array of buckets rather than a raw
//! sample list: constant memory, O(1) record, and no allocation on the
//! request path.

/// Linear sub-buckets per power of two, and its log.
const SUB: u64 = 8;
const SUB_BITS: u32 = 3;

/// One bucket per value below [`SUB`], then [`SUB`] per power of two
/// from `2^3` to `2^63`.
const BUCKETS: usize = (SUB * (1 + 64 - SUB_BITS as u64)) as usize;

/// Log-linear histogram over `u64` samples.
///
/// Values below 8 have a bucket each; every power-of-two range
/// `[2^e, 2^(e+1))` above is split into 8 equal buckets. Quantile
/// queries return the **upper bound** of the bucket containing the
/// requested rank, i.e. a conservative (never-underestimating) value at
/// most an eighth above the true quantile: a sample `v` reads as a
/// value in `[v, v + v/8]`.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        // The width of `value`'s buckets is `2^shift`.
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + (value >> shift) - SUB) as usize
    }

    fn upper_bound(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < SUB {
            return b;
        }
        let shift = b / SUB - 1;
        ((SUB + b % SUB) << shift) + ((1 << shift) - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket(value)] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket holding that rank; `0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_bound(b);
            }
        }
        u64::MAX
    }

    /// Median (see [`LogHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (see [`LogHistogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn buckets_cover_the_full_range() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.01), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_are_conservative_within_2x() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True median is 500, in the bucket [480, 511].
        assert_eq!(h.p50(), 511);
        // True p99 is 990, in the bucket [960, 1023].
        assert_eq!(h.p99(), 1023);
        // Never under, at most an eighth over.
        assert!((500..=500 + 500 / 8).contains(&h.p50()));
        assert!((990..=990 + 990 / 8).contains(&h.p99()));
    }

    #[test]
    fn a_single_sample_reads_at_most_an_eighth_above_itself() {
        tpcheck::check("one sample v reads in [v, v + v/8]", 512, |g| {
            // Every magnitude, not just the top few bits.
            let v = g.next_u64() >> g.u64_in(0..64);
            let mut h = LogHistogram::new();
            h.record(v);
            for read in [h.p50(), h.p99(), h.quantile(1.0)] {
                tpcheck::ensure!(
                    (v..=v.saturating_add(v / 8)).contains(&read),
                    "sample {v} reads {read}"
                );
            }
            Ok(())
        });
        // Bucket edges, which random draws rarely hit.
        let edges = (0..64).flat_map(|e| [(1u64 << e) - 1, 1 << e, (1 << e) + 1]);
        for v in edges.chain([u64::MAX]) {
            let mut h = LogHistogram::new();
            h.record(v);
            let read = h.p50();
            assert!(
                (v..=v.saturating_add(v / 8)).contains(&read),
                "sample {v} reads {read}"
            );
        }
    }

    #[test]
    fn skewed_distribution_separates_p50_and_p99() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // fast cache hits
        }
        h.record(1_000_000); // one slow simulation
        assert!(h.p50() < 256);
        assert!(h.p99() < 256, "99/100 samples are fast");
        assert!(h.quantile(1.0) >= 1_000_000);
    }
}
