//! In-memory spans recorded by the traced run (`--trace 1`) around the
//! benchmark's own calls into each layer. Spans are kept in memory and
//! summarised when the run ends; nothing is written while measuring.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy)]
pub(crate) struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// A span recorder. While disabled, `begin`/`end` record nothing, so an
/// untraced round pays one branch per call.
pub(crate) struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub(crate) fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub(crate) fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos();
        }
    }

    /// Records `f` as one span and returns its result.
    pub(crate) fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub(crate) fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// One line per span name: count, total time and self time (the
    /// span's duration minus the part its child spans cover).
    pub(crate) fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, (usize, u128, u128)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(*children);
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "span {name}: count={count} total_ms={:.3} self_ms={:.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}
