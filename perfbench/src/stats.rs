//! Order statistics over timing samples.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. `NaN` for an empty sample.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The 99th percentile, or `NaN` unless at least ten samples lie beyond
/// it (a tail estimated from fewer is no tail).
pub(crate) fn p99(samples: &[f64]) -> f64 {
    if samples.len() < 1000 {
        return f64::NAN;
    }
    quantile(samples, 0.99)
}

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A one-line summary of a timing sample for the human-readable part of
/// the output.
pub(crate) fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    format!(
        "{name}: n={} min={:.4}{unit} p10={:.4}{unit} p25={:.4}{unit} p50={:.4}{unit} p99={:.4}{unit} max={:.4}{unit}",
        samples.len(),
        quantile(samples, 0.0),
        quantile(samples, 0.1),
        quantile(samples, 0.25),
        median(samples),
        p99(samples),
        quantile(samples, 1.0),
    )
}

/// Runs `setup` `repeats` times, tearing down every result but the last,
/// and returns the last result with each set-up's wall time in seconds.
pub(crate) fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for i in 0..repeats.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        kept = Some(timed_setup(&mut times, || setup(i)));
    }
    (kept.expect("at least one set-up ran"), times)
}

/// Runs `setup` once, adding its wall time in seconds to `times`.
pub(crate) fn timed_setup<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let result = setup();
    times.push(t.elapsed().as_secs_f64());
    result
}
