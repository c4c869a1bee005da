//! Order statistics used for every reported number: medians and quartiles
//! computed exactly as Python's `statistics.quantiles(values, n=4)` does, so
//! the spreads printed here are the ones an outside checker recomputes.

/// Sorted copy; panics on NaN (a NaN timing is a bug in the benchmark).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`.  A one-element sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0, 3.0], 0.0), 3.0);
    }
}
