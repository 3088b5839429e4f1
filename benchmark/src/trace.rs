//! The traced run's span recorder.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written out once, at the end of the run. A layer's self time is its
//! span's duration minus the union of the intervals its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use saber_core::json::JsonValue;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.kernel.sample`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or iteration.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose interval was measured elsewhere (e.g. two
    /// shard legs in flight at once), under the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and count per layer name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, span.start_ns, span.end_ns);
            let entry = out.entry(span.name).or_default();
            entry.self_s += span.duration_ns().saturating_sub(covered) as f64 * 1e-9;
            entry.count += 1;
        }
        out
    }

    /// The spans as a JSON array, for writing out at the end of a run.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object([
                        ("name", JsonValue::from(s.name)),
                        ("start_ns", JsonValue::from(s.start_ns)),
                        ("end_ns", JsonValue::from(s.end_ns)),
                        ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                        ("request", JsonValue::from(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (sorted in place).
fn union_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", 1);
        t.end(root);
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        // Two overlapping children cover [10, 60) = 50 ns; a third [80, 90).
        t.open.push(root);
        t.record("leg", 1, 10, 50);
        t.record("leg", 1, 30, 60);
        t.record("merge", 1, 80, 90);
        t.open.clear();
        let times = t.layer_times();
        assert_eq!(times["root"].count, 1);
        assert!((times["root"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(times["leg"].count, 2);
        assert!((times["leg"].self_s - 70e-9).abs() < 1e-15);
        assert!((times["merge"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_take_their_parent_from_the_stack() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        t.leaf("inner", 7, || ());
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.to_json().to_string();
        assert!(json.contains("\"name\":\"inner\""), "{json}");
    }
}
