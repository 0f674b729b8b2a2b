//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name (`<module>.<what>`), start and end times, the span that
//! was open when it started, and a request id shared by every span of one
//! operation. Spans stay in memory and are written out when the run ends.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover, so self times of nested spans add up to
//! the time spent inside any span without double counting.

use std::collections::BTreeMap;
use std::time::Instant;

use memsense_experiments::json::Json;

/// Most spans one run keeps; later spans are counted as dropped.
pub const MAX_SPANS: usize = 250_000;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, `<module>.<what>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one request or point.
    pub request: u64,
}

/// Handle to an open span (`None` when tracing is off or the buffer is full).
pub type SpanId = Option<usize>;

/// Span recorder. When disabled every call is a no-op that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        self.close(id, end_ns);
    }

    fn close(&mut self, id: usize, end_ns: u64) {
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Closes `id` and opens its successor at the same instant, so
    /// back-to-back layers leave no untraced gap (and cost one clock read).
    pub fn switch(&mut self, id: SpanId, name: &'static str, request: u64) -> SpanId {
        let Some(id) = id else {
            return self.enter(name, request);
        };
        let at = self.now_ns();
        self.close(id, at);
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
            request,
        });
        let next = self.spans.len() - 1;
        self.open.push(next);
        Some(next)
    }

    /// Records a finished root span measured elsewhere (another thread, or
    /// timestamps taken before the tracer saw them).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns, index-aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Sum of self times of spans whose name starts with one of `prefixes`,
    /// in seconds.
    pub fn self_seconds(&self, prefixes: &[&str]) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| prefixes.iter().any(|p| s.name.starts_with(p)))
            .map(|(_, t)| t as f64 / 1e9)
            .sum()
    }

    /// Writes the spans to `target/bench/trace-<workload>.json` under the
    /// working directory; a failure is reported, not fatal.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new("target").join("bench");
        let path = dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_json(workload).to_string()));
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// The trace as JSON: every span plus the dropped count.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("request", Json::num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("dropped", Json::num(self.dropped as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&i)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            own - covered.min(own)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        // Children overlap each other and one runs past the parent's end.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(90, 120, Some(0)),
            span(25, 35, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (40 + 10));
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30 - 10);
        assert_eq!(st[4], 10);
        assert_eq!(union_within(&[(5, 8), (1, 3), (2, 4)], 0, 10), 6);
        assert_eq!(union_within(&[(5, 8)], 6, 7), 1);
    }

    #[test]
    fn nested_self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        std::thread::sleep(Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let st = t.self_times();
        let outer_len = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(st[0] + st[1], outer_len);
        assert!(st[1] >= 2_000_000);
    }

    #[test]
    fn switch_hands_over_without_a_gap() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 1);
        let a = t.enter("a", 1);
        let b = t.switch(a, "b", 1);
        t.exit(b);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        let st = t.self_times();
        assert_eq!(st[1] + st[2], s[2].end_ns - s[1].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.enter("outer", 1);
        let id = off.switch(id, "next", 1);
        off.exit(id);
        off.record("wire", Instant::now(), Instant::now(), 1);
        assert!(off.spans().is_empty());
    }
}
