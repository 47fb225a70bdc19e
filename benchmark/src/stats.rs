//! The few statistics the benchmark reports: median, quartiles, a tail
//! percentile that is only emitted when enough samples lie beyond it, and
//! the geometric mean.

/// Samples a tail percentile needs beyond it before it is reported
/// (choosing-metrics §1): p99 needs 1 000 samples, p90 needs 100.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of repeated timings of the same fixed work: what the work
/// costs when the host leaves it alone. Everything a shared host adds — a
/// neighbour on the core, a descheduled thread, a cold cache after a
/// migration — makes a repeat slower and never faster, so the minimum is
/// the one statistic a burst of host noise cannot move while at least one
/// repeat ran undisturbed; a median moves as soon as half of them are hit.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First quartile, median, third quartile — the cut points Python's
/// `statistics.quantiles(values, n=4)` returns (exclusive method), so the
/// spread this package computes is the one the driver computes. `None`
/// with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; `0.0` with fewer than two samples or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (`0 < p < 1`, nearest-rank), or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = values.len();
    // A small epsilon keeps 1000 · (1 − 0.99) from reading as 9.999….
    if n as f64 * (1.0 - p) + 1e-9 < MIN_SAMPLES_BEYOND {
        return None;
    }
    let v = sorted(values);
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_ignores_disturbed_repeats() {
        assert_eq!(fastest(&[3.0]), 3.0);
        assert_eq!(fastest(&[9.0, 2.5, 40.0, 2.6]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None, "9.99 samples beyond p99");
        assert_eq!(tail_percentile(&v[..100], 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn geomean_weighs_ratios_not_magnitudes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }
}
