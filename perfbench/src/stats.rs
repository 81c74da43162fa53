//! Order statistics over raw samples.
//!
//! Every quantile is read off the sorted samples themselves, so it is
//! always a value that was observed (or, for an even-sized median, the
//! midpoint of two observed values) and always lies in `[min, max]`.
//! A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, one outlier would
//! decide it.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Sort a copy of the samples (NaN-free by construction: they are
/// durations and counts).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median: the middle sample, or the midpoint of the two middle
/// samples for an even count. `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile `p` in `(0.5, 1)` by nearest rank: the
/// `ceil(p·n)`-th smallest sample. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank — a p90 needs at least
/// 100 samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.5 && p < 1.0, "tail percentile {p} is not in (0.5, 1)");
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank(samples.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples; the
/// epsilon keeps `0.9 * 100` at rank 90.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// How many samples lie strictly beyond the rank of tail percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantiles_stay_within_the_observed_range() {
        // The failure this helper exists to avoid: a power-of-two
        // bucket bound reported as p50 above the largest sample.
        let samples: Vec<f64> = (0..150).map(|i| 40_000.0 + f64::from(i) * 40.0).collect();
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        for q in [median(&samples), tail_percentile(&samples, 0.9)] {
            let q = q.expect("enough samples");
            assert!(q >= min && q <= max, "{q} outside [{min}, {max}]");
            assert!(samples.contains(&q) || q == median(&samples).unwrap());
        }
    }

    #[test]
    fn p90_is_the_nearest_rank_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), Some(90.0));
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), Some(180.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail_percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_percentile(&samples, 0.9).is_some());
        // A p99 needs a thousand.
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
