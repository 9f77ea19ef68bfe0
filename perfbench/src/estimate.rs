//! Estimators over repetitions, chosen for a shared box whose noise is
//! other tenants rather than this process (see `README.md`).

use crate::rep::Rep;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile of `v`, as Python's
/// `statistics.quantiles(v, n=4)` gives them. With fewer than two
/// values all three are the value itself (0 when empty).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in measurements"));
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        m => {
            let q = |i: usize| {
                let pos = i * (m + 1);
                let j = (pos / 4).clamp(1, m - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Host nanoseconds the cell takes on a quiet box. The run is
/// deterministic, so slice *i* of simulated time does identical work in
/// every repetition: take each slice's minimum across repetitions, sum
/// them, and add the minimum `finalize`. A run that cannot be sliced
/// (the domain engine) falls back to the minimum whole run.
pub fn quiet_wall_ns(reps: &[Rep]) -> u64 {
    let slices = reps.iter().map(|r| r.slice_ns.len()).min().unwrap_or(0);
    if slices == 0 {
        return reps.iter().map(|r| r.whole_ns).min().unwrap_or(0);
    }
    let drain: u64 = (0..slices)
        .map(|i| reps.iter().map(|r| r.slice_ns[i]).min().expect("reps"))
        .sum();
    drain + reps.iter().map(|r| r.finalize_ns).min().expect("reps")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
