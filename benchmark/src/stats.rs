//! Order statistics and the reducers the report uses.

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts `values` in place and returns them as a sorted slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(sorted(&mut v), 0.5)
}

/// The sample-count rule: `q` may be reported from `n` samples only when
/// at least [`TAIL_SAMPLES`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    // 1 - 0.9 is a hair under 0.1 in binary; do not let that cost a sample.
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= TAIL_SAMPLES
}

/// Distance between the first and third quartile as a share of the
/// median, by the same method as Python's `statistics.quantiles(n=4)`
/// (exclusive). The noise figure `compare` prints beside each value.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    let s = sorted(&mut v);
    let n = s.len();
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
    };
    let mid = at(0.5);
    if mid == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(200, 0.95));
        assert!(!supports(30, 0.75));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
