//! The benchmark's own arithmetic: nearest-rank percentiles that carry
//! their sample counts, medians and geometric means.

/// One nearest-rank percentile together with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// How many samples the percentile was drawn from.
    pub samples: usize,
    /// How many samples rank above it. A tail percentile is only worth
    /// reporting with at least ten of these.
    pub beyond: usize,
}

impl Quantile {
    /// The quantile of no samples: zero, flagged by `samples == 0`.
    pub const NONE: Quantile = Quantile {
        value: 0.0,
        samples: 0,
        beyond: 0,
    };
}

/// The `p`-th percentile (`0 < p <= 100`) of `values` by nearest rank:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Quantile {
    if values.is_empty() {
        return Quantile::NONE;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> Quantile {
    percentile(values, 50.0)
}

/// The geometric mean of positive `values`, or `None` when there are none
/// or one is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|&v| v > 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_sample_counts() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&xs, 99.0);
        assert_eq!((p99.value, p99.samples, p99.beyond), (99.0, 100, 1));
        assert_eq!(percentile(&xs, 100.0).value, 100.0);
    }

    #[test]
    fn p99_has_ten_samples_beyond_it_from_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0);
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&short, 99.0).beyond < 10);
    }

    #[test]
    fn small_and_empty_sample_sets() {
        let one = percentile(&[7.5], 99.0);
        assert_eq!((one.value, one.samples, one.beyond), (7.5, 1, 0));
        let two = median(&[3.0, 1.0]);
        assert_eq!((two.value, two.beyond), (1.0, 1));
        assert_eq!(percentile(&[], 50.0), Quantile::NONE);
        assert_eq!(median(&[2.0, 9.0, 4.0]).value, 4.0);
    }

    #[test]
    fn geometric_mean_and_ratio() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[4.0, 0.0]), None);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
