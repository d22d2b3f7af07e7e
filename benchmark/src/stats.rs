//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the acceptance
//! driver computes run-to-run spreads with; using the same rule here
//! keeps a spread printed by `compare` equal to the one the driver sees.

/// Median, quartiles, minimum and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `[q1, median, q3]` by the exclusive method; a single sample is its own
/// three quartiles. Panics on an empty slice (a benchmark bug).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        median,
        q1,
        q3,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        n: values.len(),
    }
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty series");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5.2, 4.4, 6.1, 5.0], n=4) == [4.55, 5.1, 5.875]
        let q = quartiles(&[5.2, 4.4, 6.1, 5.0]);
        assert!((q[0] - 4.55).abs() < 1e-12 && (q[1] - 5.1).abs() < 1e-12);
        assert!((q[2] - 5.875).abs() < 1e-12);
    }

    #[test]
    fn a_single_sample_is_its_own_summary() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (4.0, 4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_series() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
