//! Order statistics over small samples of measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark driver
//! computes spreads with.

/// Sorted copy of `v` (NaNs are a caller bug: every input is a measurement).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    s
}

/// The `p`-quantile (`0 <= p <= 1`) of `v` by the exclusive method: rank
/// `p * (n + 1)` between the two neighbouring order statistics, linearly
/// interpolated (and, like Python, extrapolated from the outermost pair
/// when the rank falls outside them). A single value is its own quantile;
/// an empty sample gives NaN.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => return f64::NAN,
        1 => return s[0],
        _ => {}
    }
    let rank = p * (n as f64 + 1.0);
    let j = (rank.floor() as usize).clamp(1, n - 1);
    s[j - 1] + (rank - j as f64) * (s[j] - s[j - 1])
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// `(first quartile, median, third quartile)` of `v`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    (percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against a metric's bound. Zero for fewer than two samples.
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}
