//! The harness's own arithmetic: percentiles, medians and the run-to-run
//! spread the acceptance criterion uses. Pinned by `tests/harness.rs`.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median (mean of the two middle samples for an even count); `0.0` for no
/// samples. Rates are reported as the median over passes.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method); needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}
