//! Order statistics over raw samples. End-to-end numbers never pass
//! through the product's log2 histograms: a percentile here is an
//! actual sample.

/// The nearest rank of percentile `p` among `samples`: the least count
/// that is at least `p` percent of them. The product is rounded to nine
/// decimals first: 99.9% of 10000 is 9990, not the 9990.000000000002 of
/// floating point.
fn rank(p: f64, samples: usize) -> usize {
    let exact = p / 100.0 * samples as f64;
    ((exact * 1e9).round() / 1e9).ceil() as usize
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest percentile of 99.9, 99, 95, 90, 75 and 50 that still has
/// at least ten samples beyond it — a tail estimate resting on fewer is
/// noise. `None` when even the median does not qualify.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples.saturating_sub(rank(*p, samples)) >= 10)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// both equal the value itself for a single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        let v = [10, 20, 30];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 34.0), 20);
        assert_eq!(percentile(&v, 33.0), 10);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn the_tail_percentile_needs_ten_samples_beyond_it() {
        // p99.9 of 10000 samples is rank 9990: exactly ten beyond.
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
