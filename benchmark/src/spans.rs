//! The benchmark's own span recorder.
//!
//! The traced pass wraps every call into a layer's public function in a
//! span: name, start, end, the span that caused it, and the id of the op
//! it belongs to. Spans live in memory and are written once, as a Chrome
//! trace, when the run ends. When the recorder is off (every end-to-end
//! run) `begin`/`end` do nothing and take no timestamp.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans that belong to no op (set-up, post-processing).
pub const NO_OP: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Handle returned by [`Spans::begin`]; hand it back to [`Spans::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span. Spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its direct children cover. Children of one parent
    /// never overlap (spans nest strictly), so their cover is their sum.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_cover[i]);
            *by_name.entry(s.name).or_insert(0) += own;
        }
        by_name
    }

    /// The spans in Chrome Trace Event Format (load in Perfetto or
    /// `chrome://tracing`): complete events on one track, each carrying
    /// its op id and parent index as arguments.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"benchmark {workload}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == NO_OP { -1 } else { i64::from(s.op) };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{op}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Wall cost of one recorded span (begin + end), measured on a scratch
/// recorder: what the traced pass pays per span it records.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut scratch = Spans::new(true);
    scratch.spans.reserve(N);
    let t = Instant::now();
    for _ in 0..N {
        let id = scratch.begin("bench.calibrate", NO_OP);
        scratch.end(id);
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(&scratch.spans);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = fixed(vec![
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ]);
        let st = s.self_time_ns();
        assert_eq!(st["a"], 100 - 50 - 20);
        assert_eq!(st["b"], (50 - 10) + 20);
        assert_eq!(st["c"], 10);
        // Self times partition the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_records_parents_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer", 3);
        s.within("inner", 3, || ());
        s.end(outer);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let json = s.to_chrome_trace("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"op\":3"));

        let mut off = Spans::new(false);
        let id = off.begin("x", NO_OP);
        off.end(id);
        assert_eq!(off.len(), 0);
    }
}
