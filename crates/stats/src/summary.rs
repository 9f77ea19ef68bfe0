//! Numeric summaries: means, percentiles, CDFs.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `q`-quantile (0.0 ≤ q ≤ 1.0) using nearest-rank interpolation on a
/// copy of the data. Returns 0 for empty input.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, q)
}

/// The `q`-quantile of an already-sorted slice, with linear interpolation.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Sorts `samples` in place and returns their mean, median and 99th
/// percentile: what a run and each of its tenants report of their FCTs and
/// QCTs.
pub(crate) fn summarize(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let p = |q| percentile_sorted(samples, q);
    (mean(samples), p(0.50), p(0.99))
}

/// An empirical CDF extracted from samples: `points` are
/// `(value, cumulative_fraction)` pairs suitable for plotting the paper's
/// CDF figures (Figs. 6b and 7).
#[derive(Debug, Clone)]
pub struct Cdf {
    /// `(value, cumulative fraction)` pairs in ascending value order.
    pub points: Vec<(f64, f64)>,
    /// Number of samples behind the curve.
    pub n: usize,
}

impl Cdf {
    /// Builds a CDF, downsampling to at most `max_points` evenly spaced
    /// quantiles.
    pub fn from_samples(xs: &[f64], max_points: usize) -> Cdf {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = v.len();
        if n == 0 {
            return Cdf {
                points: Vec::new(),
                n: 0,
            };
        }
        let k = max_points.max(2).min(n);
        let mut points = Vec::with_capacity(k);
        for i in 0..k {
            let frac = (i as f64 + 1.0) / k as f64;
            let idx = ((frac * n as f64).ceil() as usize - 1).min(n - 1);
            points.push((v[idx], frac));
        }
        Cdf { points, n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(mean(&xs), 50.5);
        assert!((percentile(&xs, 0.5) - 50.5).abs() < 1e-9);
        assert!((percentile(&xs, 0.99) - 99.01).abs() < 0.02);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        let c = Cdf::from_samples(&[], 10);
        assert_eq!(c.n, 0);
        assert!(c.points.is_empty());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
    }

    #[test]
    fn cdf_shape() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let c = Cdf::from_samples(&xs, 50);
        assert_eq!(c.points.len(), 50);
        assert_eq!(c.points.last().unwrap().1, 1.0);
        // Monotone in both coordinates.
        for w in c.points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        // Each point is the sample at its quantile.
        assert_eq!(c.points[0], (20.0, 0.02));
        assert_eq!(c.points[24], (500.0, 0.5));
    }
}
