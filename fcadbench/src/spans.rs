//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start, end and parent. Spans stay in memory and
//! are written once, when the sample ends. With the tracer off, `enter`
//! and `exit` read no clock, so the untraced body pays nothing for them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dse.explore`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Whether the span times extra calls made only to measure a layer
    /// (they are not part of the workload body).
    pub probe: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Span and count recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Self {
            origin: Some(Instant::now()),
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    /// Opens a span around a workload call.
    pub fn enter(&mut self, name: &'static str) {
        self.open_span(name, false);
    }

    /// Opens a span around calls made only to measure a layer.
    pub fn enter_probe(&mut self, name: &'static str) {
        self.open_span(name, true);
    }

    fn open_span(&mut self, name: &'static str, probe: bool) {
        let Some(origin) = self.origin else { return };
        let now = micros_since(origin);
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            probe,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some(origin) = self.origin else { return };
        let index = self.open.pop().expect("exit must match an enter");
        self.spans[index].end_us = micros_since(origin);
    }

    /// Adds `value` to the named count (recorded only when on).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.is_on() {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }
}

fn micros_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64() * 1e6
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its child spans cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_seconds = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_seconds[parent] += span.seconds();
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_seconds) {
        *by_name.entry(span.name).or_insert(0.0) += span.seconds() - children;
    }
    by_name
}

/// Share of the root span's duration covered by its direct children.
/// The first span must be the root; 0 when there is none.
pub fn top_level_coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(Span::seconds)
        .sum();
    if root.seconds() > 0.0 {
        covered / root.seconds()
    } else {
        0.0
    }
}

/// Seconds spent in probe spans.
pub fn probe_seconds(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.probe).map(Span::seconds).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0.0, 10e6, None),
            span("a", 1e6, 4e6, Some(0)),
            span("b", 5e6, 9e6, Some(0)),
            span("a", 2e6, 3e6, Some(1)),
        ];
        let own = self_seconds(&spans);
        assert!((own["root"] - 3.0).abs() < 1e-9);
        assert!((own["a"] - 3.0).abs() < 1e-9, "2 s outer self + 1 s inner");
        assert!((own["b"] - 4.0).abs() < 1e-9);
        assert!((top_level_coverage(&spans) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("x");
        t.count("n", 1.0);
        t.exit();
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn on_tracer_nests_spans() {
        let mut t = Tracer::on();
        t.enter("outer");
        t.enter_probe("inner");
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].probe);
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
    }
}
