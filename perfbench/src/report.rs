//! The result every run prints: correctness, operation counts and
//! named metrics, rendered as the one-line JSON object the benchmark
//! ends with.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) value: f64,
}

/// What a workload (or the per-layer probes) hands back to `main`.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Every output check passed (operations that failed are counted in
    /// `failed` instead and do not clear this).
    pub(crate) correct: bool,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: Vec<Metric>,
    /// One line per failed output check, printed before the JSON.
    pub(crate) failures: Vec<String>,
}

impl Outcome {
    pub(crate) fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records one output check; a failing check clears `correct`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.failures.push(what());
        }
    }

    pub(crate) fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub(crate) fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a
            // broken measurement, which must not look like a number.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
