//! Order statistics for timings: medians, quantiles and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a tail figure is never read off one or two outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first (p99.9 … p50).
const TAIL_LADDER_PER_MILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` values, linearly
/// interpolated between the two nearest order statistics. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (in any order). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy of `values` (NaN-free input is assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest ladder percentile (p99.9, p99, p95, p90, p75, p50) with at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it, i.e. the largest `p`
/// with `n · (1 − p/100) ≥ 10`. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PER_MILLE
        .iter()
        .find(|&&pm| n * (1000 - pm as usize) >= TAIL_MIN_BEYOND * 1000)
        .map(|&pm| f64::from(pm) / 10.0)
}

/// Median, tail percentile and sample count of one timing series.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` from [`tail_percentile`], when one qualifies.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let s = sorted(values);
    let median = quantile(&s, 0.5)?;
    let tail =
        tail_percentile(s.len()).map(|p| (p, quantile(&s, p / 100.0).expect("non-empty series")));
    Some(Summary {
        n: s.len(),
        median,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 1.0 / 3.0), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..2_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n as f64 * (1.0 - p / 100.0) >= 9.999, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let values: Vec<f64> = (1..=40).map(f64::from).rev().collect();
        let s = summarize(&values).unwrap();
        assert_eq!(s.n, 40);
        assert_eq!(s.median, 20.5);
        assert_eq!(s.tail, Some((75.0, 30.25)));
        let short = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(short.tail, None);
        assert_eq!(summarize(&[]), None);
    }
}
