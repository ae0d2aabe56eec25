//! Host-clock spans recorded by the benchmark around its calls into a layer.
//!
//! Nothing inside the crates under test is instrumented: a span opens just
//! before a public function is called and closes when it returns, with the
//! device counters read at the same two points. Spans stay in memory and are
//! written as JSON lines once the run is over.

use sim::Device;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Counts taken at a span's boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Input tuples handed to the call.
    pub tuples: u64,
    /// `Counters::kernel_launches` delta over the span.
    pub kernel_launches: u64,
    /// `Counters::dram_bytes()` delta over the span.
    pub dram_bytes: u64,
    /// Rows the call returned.
    pub rows_out: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The operation (one join call, one query, one serving session) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer runs the wrapped call and nothing else,
/// so traced and untraced runs share one code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation: top-level spans opened from now on carry a
    /// fresh `op` id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span. `f` gets the tracer back to open child spans
    /// and returns its value plus the rows it produced. Counter deltas are
    /// read off `dev` when one is given.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        dev: Option<&Device>,
        tuples: u64,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len();
        let before = dev.map(Device::counters);
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            layer,
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            counts: Counts::default(),
        });
        self.open.push(id);
        let (value, rows_out) = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut counts = Counts {
            tuples,
            rows_out,
            ..Counts::default()
        };
        if let (Some(dev), Some(before)) = (dev, before) {
            let delta = dev.counters().delta_since(&before);
            counts.kernel_launches = delta.kernel_launches;
            counts.dram_bytes = delta.dram_bytes();
        }
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts = counts;
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let line = serde_json::json!({
                "id": span.id as u64,
                "parent": span.parent.map(|p| p as u64),
                "workload": workload,
                "op": span.op,
                "layer": span.layer,
                "name": span.name.as_str(),
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "self_ns": self_ns,
                "tuples": span.counts.tuples,
                "kernel_launches": span.counts.kernel_launches,
                "dram_bytes": span.counts.dram_bytes,
                "rows_out": span.counts.rows_out,
            });
            let text = serde_json::to_string(&line).expect("span renders as JSON");
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (spans nest on one thread), so
/// the covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

/// Total self time per `layer`, in first-appearance order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, ns) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(layer, _)| *layer == span.layer) {
            Some((_, total)) => *total += ns,
            None => totals.push((span.layer, ns)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            name: String::new(),
            start_ns: start,
            end_ns: end,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // query [0,100) { parse [5,15), execute [20,90) { kernel [30,60) } }
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "sql", 5, 15),
            span(2, Some(0), "engine", 20, 90),
            span(3, Some(2), "sim", 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 30]);
        assert_eq!(
            self_time_by_layer(&spans),
            vec![("bench", 20), ("sql", 10), ("engine", 40), ("sim", 30)]
        );
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let v = tr.span("bench", "outer", None, 7, |tr| {
            let inner = tr.span("sql", "inner", None, 0, |_| (2, 3));
            (inner * 21, 1)
        });
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].counts.tuples, spans[0].counts.rows_out), (7, 1));
        assert_eq!(spans[1].counts.rows_out, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op == 1));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("bench", "x", None, 0, |_| (5, 0)), 5);
        assert!(off.spans().is_empty());
    }
}
