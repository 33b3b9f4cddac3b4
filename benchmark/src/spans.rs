//! Benchmark-side spans: one per call into a layer, recorded from the
//! benchmark's own files (hooks inside the program are a later change).
//!
//! A span is `(name, layer, start, end, parent)`. Spans are kept in memory
//! and written at exit as Chrome-trace JSON. A layer's *self time* is its
//! span minus the part of it covered by child spans; whatever a root span
//! does not hand to a child is reported as unattributed, not hidden.

use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Shared so a hot span (one per loop execution) costs no allocation.
    pub name: Rc<str>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns the span id with `f`'s result. Every
    /// span is opened by the driver thread, so siblings never overlap.
    pub fn span<T>(
        &mut self,
        name: impl Into<Rc<str>>,
        layer: &'static str,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (usize, T) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, out)
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Self time of `id`: its duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of every span. The
    /// program's own `op2_trace` timeline is exported next to it by
    /// `op2_trace::chrome::to_chrome_json`; the two share a wall clock only
    /// approximately, so they are separate files.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                &*s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                s.parent.map_or(-1, |p| p as i64),
            ));
        }
        out.push_str("]}");
        out
    }
}
