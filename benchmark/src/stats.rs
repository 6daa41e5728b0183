//! Order statistics for noisy samples.
//!
//! Wall-clock numbers on a shared 2-core box are noisy, so nothing here
//! reports a mean of timings: a run reports medians, a set of runs
//! reports median, quartiles, minimum and the sample count, and a tail
//! percentile is reported only when the sample supports it.

/// Median, quartiles, extremes and count of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread the contract compares against a metric's bound. Zero when
    /// the median is zero (an all-zero counter has no spread).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of an ascending slice, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method: position `k * (n + 1) / 4`, linear interpolation between the
/// two neighbours, which are clamped to the sample), so this benchmark and
/// its driver agree on a spread. One value is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |k: usize| {
        // 1-based position k * (n + 1) / 4, split into whole and part.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// The `p`-th percentile (0 < p < 100, nearest rank) of an unsorted
/// sample, or `None` unless at least ten samples lie beyond it — a p90
/// needs 100 samples, a p99 needs 1000. Fewer than that and the figure
/// is one or two outliers, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let n = values.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n as f64 * p / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_of_one_value() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 4.0, 4.0, 4.0, 4.0, 4.0)
        );
        assert_eq!(s.spread(), 0.0);
    }

    /// Reference values from Python:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, and `quantiles([3, 1, 2], n=4)` is
    /// `[1.0, 2.0, 3.0]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let three = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((three.q1, three.median, three.q3), (1.0, 2.0, 3.0));
        // Two points extrapolate, as Python's do.
        let two = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
        let skewed = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((skewed.q1, skewed.median, skewed.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
    }
}
