//! Spans recorded from the benchmark's side of each public call.
//!
//! Every call into the program goes through [`Tracer::call`], which
//! always measures the call's host time (the workloads need it for
//! their end-to-end figures) and, when tracing is on, also records a
//! span: name, start, end, parent and pass. Spans stay in memory
//! until the run ends and are reduced to per-pass self times there.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    /// Layer the span times (`pass`, `suite_build`, `exp`, `simulate`, ...).
    name: &'static str,
    /// Start, seconds since the tracer origin.
    start: f64,
    /// End, seconds since the tracer origin.
    end: f64,
    /// The span that was open when this one started.
    parent: Option<usize>,
    /// Pass the span belongs to; spans of one pass share it.
    pass: u32,
}

/// Where a timed call ran, for attaching program-measured children.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Start, seconds since the tracer origin.
    start: f64,
    /// End, seconds since the tracer origin.
    end: f64,
    /// The span recorded for the call, when tracing.
    span: Option<usize>,
}

impl Timed {
    /// Host seconds the call took.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A recorder that starts with tracing `on` or off.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Turns span recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn push(&mut self, name: &'static str, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.spans.len() - 1
    }

    /// Opens the root span of a new pass and returns its start.
    pub fn begin_pass(&mut self, pass: u32) -> f64 {
        self.pass = pass;
        let start = self.now();
        if self.on {
            let id = self.push("pass", start, start);
            self.open.push(id);
        }
        start
    }

    /// Closes the pass opened by [`Tracer::begin_pass`] and returns the
    /// pass's host seconds.
    pub fn end_pass(&mut self, start: f64) -> f64 {
        let end = self.now();
        if self.on {
            let id = self.open.pop().expect("a pass span is open");
            self.spans[id].end = end;
        }
        end - start
    }

    /// Runs one call into the program, timing it and recording a span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Timed) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        let span = self.on.then(|| self.push(name, start, end));
        (out, Timed { start, end, span })
    }

    /// Records a child of `of` lasting `secs`, for an interval the
    /// program measured itself inside the call: set-up at the call's
    /// start (`at_end == false`) or rendering at its end.
    pub fn child(&mut self, of: Timed, name: &'static str, secs: f64, at_end: bool) {
        let Some(parent) = of.span else { return };
        let secs = secs.clamp(0.0, of.secs());
        let (start, end) = if at_end {
            (of.end - secs, of.end)
        } else {
            (of.start, of.start + secs)
        };
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            pass: self.pass,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time summed per span name for every pass: a span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.pass).or_default().entry(s.name).or_default() +=
                (s.end - s.start - c).max(0.0);
        }
        out
    }
}
