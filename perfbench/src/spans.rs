//! The benchmark's own span recorder for traced runs.
//!
//! Every call the traced run makes into a layer is wrapped in a span
//! (name, start, end, parent, request id). Spans live in memory and are
//! written out once, when the run ends; untraced runs record nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Ids are 1-based indices; parent 0 is the root.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// Spans of one run, on one monotonic clock.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn scope<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            req,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
        out
    }

    /// The innermost open span (0 at top level), for spans recorded on
    /// other threads and merged later.
    pub fn current(&self) -> u32 {
        self.open.last().copied().unwrap_or(0)
    }

    /// Appends spans recorded elsewhere against this run's epoch.
    pub fn merge(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array of `{id, name, start_ns, end_ns,
    /// parent, req}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                i + 1,
                press_telem::json_escape(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            );
        }
        out.push_str("\n]\n");
        out
    }
}
