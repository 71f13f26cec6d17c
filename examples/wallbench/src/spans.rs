//! In-memory spans around every call the benchmark makes into the program.
//!
//! Spans live in a `Vec` until the run ends; nothing is written while a
//! pass is timed. A disabled recorder runs the wrapped call directly, so
//! the end-to-end run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>` of the wrapped entry point.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (0 = set-up, warm-up and probes).
    pub pass: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    passes_begun: u32,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            passes_begun: 0,
        }
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = on;
    }

    /// Starts the next pass: spans recorded from now on carry its id.
    pub fn begin_pass(&mut self) {
        self.passes_begun += 1;
        self.pass = self.passes_begun;
    }

    /// Ends the pass: spans recorded from now on carry pass id 0.
    pub fn end_pass(&mut self) {
        self.pass = 0;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(calls, self time ns)` — a span's duration minus
    /// the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// complete events on one thread track, one process per pass.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                sp.name,
                sp.pass,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                i,
                sp.parent.map_or(-1, |p| p as i64),
            ));
        }
        s.push_str("],\"displayTimeUnit\":\"ns\"}");
        s
    }
}
