//! Order statistics of a run's samples.

/// Median of `samples`, which must not be empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Highest percentile of `samples` with at least ten samples beyond it, as
/// `(percentile, value)`; `None` when not even the median has ten.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // v[k] has n - 1 - k samples beyond it.
    (n >= 21).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// The fastest of `samples`, which must not be empty.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples to summarise");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 20]).is_none());
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 is the 30th of 40 samples: ten lie beyond it.
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }
}
