//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into the
//! program (`recommend`, `run`, `submit`, `drain`, `append_batch`,
//! `refresh*`) under a root span per request. Spans stay in memory and
//! are written out once the run ends. With tracing off, `begin`/`end`
//! read no clock and record nothing, so untraced runs pay one branch per
//! boundary.
//!
//! Durations read back through the tracer are rescaled by the host-speed
//! factor recorded for their request (see [`crate::calib`]); the span
//! dump keeps raw clock readings and lists the factors.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name (`request`, `round`, `recommend`, `run`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or round) id shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Wall time the span covers, in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The handle every call returns when tracing is off.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// The recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    scales: HashMap<u64, f64>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            scales: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records the host-speed factor for every span of request `req`.
    pub fn set_scale(&mut self, req: u64, factor: f64) {
        if self.on {
            self.scales.insert(req, factor);
        }
    }

    fn scaled_ms(&self, s: &Span, ns: u64) -> f64 {
        ns as f64 / 1e6 * self.scales.get(&s.req).copied().unwrap_or(1.0)
    }

    /// Opens a span under `parent` (`SpanId::NONE` for a root).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            req,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn scoped<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Rescaled duration of a closed span in ms (0 when tracing is off).
    pub fn dur_ms(&self, id: SpanId) -> f64 {
        if id == SpanId::NONE {
            0.0
        } else {
            let s = &self.spans[id.0];
            self.scaled_ms(s, s.dur_ns())
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Rescaled durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.scaled_ms(s, s.dur_ns()))
            .collect()
    }

    /// Mean rescaled self time (ms) per span name: each span's duration
    /// minus the part of it its children cover. Children of one parent
    /// never overlap (the benchmark is single-threaded), so their
    /// durations add up.
    pub fn mean_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut sum: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = sum.entry(s.name).or_insert((0.0, 0));
            e.0 += self.scaled_ms(s, s.dur_ns().saturating_sub(c));
            e.1 += 1;
        }
        sum.into_iter()
            .map(|(name, (ms, n))| (name, ms / n as f64))
            .collect()
    }

    /// The spans as JSON: `{"spans": [...], "scales": {req: factor}}`,
    /// span times raw.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"scales\": {");
        let scales: BTreeMap<_, _> = self.scales.iter().collect();
        for (i, (req, f)) in scales.into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{req}\": {f:?}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("request", SpanId::NONE, 0);
        assert_eq!(a, SpanId::NONE);
        t.end(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", SpanId::NONE, 7);
        t.scoped("run", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        let own = t.mean_self_ms();
        let ms = |ns: u64| ns as f64 / 1e6;
        assert_eq!(own["request"], ms(spans[0].dur_ns() - spans[1].dur_ns()));
        assert_eq!(own["run"], ms(spans[1].dur_ns()));
        t.set_scale(7, 0.5);
        assert_eq!(t.durations_ms("run"), vec![ms(t.spans()[1].dur_ns()) * 0.5]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"7\": 0.5"));
    }
}
