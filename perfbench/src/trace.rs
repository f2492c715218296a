//! The benchmark's own span recorder.
//!
//! Spans are recorded around the driver's calls into each layer's public
//! functions — nothing inside the program is instrumented. Each span has
//! a name, start and end (host nanoseconds since the recorder started),
//! the span that encloses it, and a request id shared by the spans of one
//! unit of work. Spans stay in memory and are written out when the run
//! ends.
//!
//! With tracing off the recorder still measures the elapsed host time of
//! each call (the end-to-end metrics need it) but keeps no spans, so an
//! untraced run pays one `Instant::now` pair per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.build` or `index.write`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one unit of work.
    pub request: u64,
    /// A replay: the driver re-sends a layer call's inputs to the layer's
    /// public function on its own copy, to time that layer alone. Replays
    /// are extra work the traced run does, outside the end-to-end time.
    pub replay: bool,
}

impl Span {
    /// Host seconds between start and end.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: `(span index if kept, start instant)`.
    open: Vec<(Option<usize>, Instant)>,
    request: u64,
}

impl Tracer {
    /// A recorder; `on = false` measures times without keeping spans.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are kept (and replays run).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops keeping spans; spans kept so far stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the request id of the spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, replay: bool) {
        let start = Instant::now();
        let idx = self.on.then_some(self.spans.len());
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent: self.open.iter().rev().find_map(|&(i, _)| i),
                request: self.request,
                replay,
            });
        }
        self.open.push((idx, start));
    }

    /// Opens a span enclosing the calls until the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        self.open_span(name, false);
    }

    /// Closes the innermost open span; returns its host seconds.
    pub fn exit(&mut self) -> f64 {
        let (idx, start) = self.open.pop().expect("exit matches an enter");
        let end = Instant::now();
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.ns(end);
        }
        end.duration_since(start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and host seconds.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.open_span(name, false);
        let r = f();
        (r, self.exit())
    }

    /// Runs a replay inside a span marked as one; returns its result.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open_span(name, true);
        let r = f();
        self.exit();
        r
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span, in seconds: its duration minus the part
    /// its child spans cover (children never overlap: the driver is
    /// single-threaded).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns - c) as f64 / 1e9)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.replay
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("unit");
        t.call("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let st = t.self_secs();
        assert!(st[1] >= 0.005);
        assert!(st[0] < st[1]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_keeps_no_spans_but_times_calls() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.call("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
