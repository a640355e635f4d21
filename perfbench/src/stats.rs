//! Order statistics over job samples.

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let logs: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// The tail sample: the highest order statistic with at least ten
/// samples beyond it. Returns its index into the ascending order, the
/// percentile it stands for and the value. `None` with 10 samples or
/// fewer.
pub fn tail_index(n: usize) -> Option<(usize, f64)> {
    if n <= 10 {
        return None;
    }
    let idx = n - 11;
    Some((idx, 100.0 * (idx + 1) as f64 / n as f64))
}

/// Index of the median sample in ascending order (the lower middle).
pub fn median_index(n: usize) -> usize {
    n.saturating_sub(1) / 2
}

/// Ascending order of `xs`, as indices.
pub fn argsort(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_index(10), None);
        let (idx, pct) = tail_index(100).unwrap();
        assert_eq!(idx, 89);
        assert_eq!(100 - idx - 1, 10);
        assert!((pct - 90.0).abs() < 1e-9);
    }
}
