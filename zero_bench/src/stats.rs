//! Order statistics the benchmark reports and `compare` judges by.

/// Nearest-rank percentile (inclusive): the smallest sample such that at
/// least `q` of the distribution is ≤ it — `sorted[⌈q·n⌉ − 1]`. The
/// reported value is always an observed sample; p100 is the maximum and
/// p50 the lower median. Same definition as `bench_serve`'s.
///
/// # Panics
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside [0, 1]"
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// The median as Python's `statistics.median` gives it: the middle
/// sample, or the mean of the two middle samples.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
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

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), so a spread computed here is the spread the
/// driver computes.
///
/// # Panics
/// Panics with fewer than two samples or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let (n, m) = (4, v.len() + 1);
    [1, 2, 3].map(|i| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a bound is judged against. Zero with
/// fewer than two samples (no spread is observable) or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the nearest-rank definition on small known samples (the test
    /// `bench_serve` carries for its copy of the same function).
    #[test]
    fn percentiles_use_nearest_rank_with_ceil() {
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.50), 10);
        assert_eq!(percentile(&v, 0.99), 20);
        assert_eq!(percentile(&v, 1.00), 20);
        assert_eq!(percentile(&v, 0.0), 1);
        let v: Vec<u64> = (1..=34).collect();
        assert_eq!(percentile(&v, 0.50), 17);
        assert_eq!(percentile(&v, 0.90), 31);
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&v, 0.99), 50);
        assert_eq!(percentile(&[7], 0.01), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
        assert_eq!(percentile_of(&mut [9, 1, 5], 0.5), 5);
    }

    #[test]
    fn median_is_middle_or_mean_of_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Values from CPython: `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
