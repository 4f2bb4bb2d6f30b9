//! Order statistics for latency samples and for `--repeat` summaries.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by nearest rank; 0 when
/// empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` (nanoseconds) and return its `q`-quantile in
/// milliseconds.
pub fn percentile_ms(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, q) as f64 / 1e6
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by nearest rank (the third smallest of
/// ten at 0.25, the eighth at 0.75, the only value of one); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the rule the driver judges spreads by. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; `None` below two
/// values or at a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&v), 5.5);
        assert_eq!((quantile(&v, 0.25), quantile(&v, 0.75)), (3.0, 8.0));
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
