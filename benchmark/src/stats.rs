//! Estimators. Every host-time number in the benchmark goes through
//! [`fastest_quarter_mean`]; medians and quartiles are printed beside it
//! so a reader can see how far the quiet quarter sits from the bulk.

/// Mean of the fastest quarter of `times`, the quarter rounded up (so
/// five to eight samples average their fastest two rather than trusting
/// one).
///
/// The work behind every sample is deterministic and host noise only
/// ever adds time, so the fast tail is the part of the distribution
/// that repeats between runs on a shared host.
pub fn fastest_quarter_mean(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "no samples");
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// which is what the acceptance check computes. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile (`p` in `0..=100`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_quarter_ignores_the_slow_tail() {
        // Eight samples: the fastest two are 1.0 and 2.0.
        let t = [9.0, 1.0, 50.0, 2.0, 7.0, 8.0, 100.0, 6.0];
        assert_eq!(fastest_quarter_mean(&t), 1.5);
        // The quarter rounds up: five samples still average two.
        assert_eq!(fastest_quarter_mean(&[9.0, 1.0, 50.0, 2.0, 7.0]), 1.5);
        // Up to four samples fall back to the minimum.
        assert_eq!(fastest_quarter_mean(&[3.0, 2.0, 5.0, 4.0]), 2.0);
        assert_eq!(fastest_quarter_mean(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
