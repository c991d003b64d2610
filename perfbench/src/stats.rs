//! Order statistics for every reported timing.
//!
//! Quantiles use the default "exclusive" method of Python's
//! `statistics.quantiles` (position `p·(n+1)`, interpolated between the two
//! nearest inner order statistics, extrapolating at the ends of tiny
//! samples), so the quartiles printed here match what that function
//! gives for the same values.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The `p`-quantile (`0 < p < 1`) of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 + 1.0);
    let j = (h.floor() as usize).clamp(1, n - 1);
    let (a, b) = (sorted[j - 1], sorted[j]);
    a + (h - j as f64) * (b - a)
}

/// Sorts a sample ascending (NaN-free by construction of every caller).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median and quartiles; `None` when the sample is empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs.to_vec());
    Some(Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
    })
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least ten
/// samples beyond it in a sample of `n`; `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        let median = |xs: &[f64]| summarize(xs).map(|s| s.median);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        let s = summarize(&[9.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 7.0, 10.0));
    }

    #[test]
    fn quantile_extrapolates_like_python_at_the_ends() {
        // statistics.quantiles([10, 20, 30], n=100): first 0.4, last 39.6
        let s = sorted(vec![10.0, 20.0, 30.0]);
        assert!((quantile(&s, 0.01) - 0.4).abs() < 1e-9);
        assert!((quantile(&s, 0.99) - 39.6).abs() < 1e-9);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }
}
