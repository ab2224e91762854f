//! The benchmark's own spans, recorded around calls into the program.
//!
//! Spans are kept in memory while measuring and written out as a Chrome
//! trace-event file when the run ends. A layer's *self time* is its
//! span minus the part of that interval its child spans cover, so the
//! loop and bookkeeping code of a parent never counts towards a layer.

use presto_telemetry::export::json_escape;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (module) name, or `epoch` / `shard` for the nesting levels.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one epoch share this identifier.
    pub trace: u32,
    /// Units of work done inside the span (records, samples, batches).
    pub units: u64,
    /// Bytes the span's work covered.
    pub bytes: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub spans: u64,
    /// Work units over all spans.
    pub units: u64,
    /// Bytes over all spans.
    pub bytes: u64,
    /// Self time over all spans, ns.
    pub self_ns: u64,
}

/// Records spans from one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, trace: u32) -> SpanId {
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
            units: 0,
            bytes: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span under `parent`, in the parent's trace.
    pub fn begin_child(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let trace = self.spans[parent as usize].trace;
        self.begin(name, Some(parent), trace)
    }

    /// Close a span, noting how much work it covered.
    pub fn end(&mut self, id: SpanId, units: u64, bytes: u64) {
        let end_ns = self.ns_at(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.units = units;
        span.bytes = bytes;
    }

    /// Record a span whose start and end were taken elsewhere (on the
    /// consumer threads of a traced epoch).
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Time `work` as one child span of `parent`; `work` returns its
    /// result, the units of work it did and the bytes it covered.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        work: impl FnOnce() -> (R, u64, u64),
    ) -> R {
        let id = self.begin_child(name, parent);
        let (result, units, bytes) = work();
        self.end(id, units, bytes);
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Self time, units and bytes summed by span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let total = totals.entry(span.name).or_default();
            total.spans += 1;
            total.units += span.units;
            total.bytes += span.bytes;
            total.self_ns += self_ns;
        }
        totals
    }

    /// Write the first `limit` spans as Chrome trace events (`ph: "X"`,
    /// microsecond timestamps). Nesting in a viewer follows from the
    /// intervals; `args` carries the span, parent and trace ids.
    pub fn write_chrome(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (id, span) in self.spans.iter().take(limit).enumerate() {
            if id > 0 {
                write!(out, ",")?;
            }
            let parent = span.parent.map_or(-1, i64::from);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"units\":{},\"bytes\":{}}}}}",
                json_escape(span.name),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.trace,
                span.units,
                span.bytes,
            )?;
        }
        writeln!(out, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace: 0,
            units: 1,
            bytes: 10,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tracer = Tracer::new();
        let epoch = tracer.record(span("epoch", 0, 1000, None));
        let shard = tracer.record(span("shard", 100, 900, Some(epoch)));
        tracer.record(span("store.get", 100, 150, Some(shard)));
        tracer.record(span("record.read", 200, 600, Some(shard)));
        tracer.record(span("record.read", 600, 850, Some(shard)));
        assert_eq!(tracer.self_times(), vec![200, 100, 50, 400, 250]);
        let totals = tracer.totals();
        assert_eq!(totals["epoch"].self_ns, 200);
        assert_eq!(totals["shard"].self_ns, 100);
        assert_eq!(
            totals["record.read"],
            LayerTotal {
                spans: 2,
                units: 2,
                bytes: 20,
                self_ns: 650
            }
        );
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn begin_end_nest_and_carry_the_trace_id() {
        let mut tracer = Tracer::new();
        let epoch = tracer.begin("epoch", None, 7);
        let got = tracer.time("store.get", epoch, || (41 + 1, 3, 99));
        tracer.end(epoch, 1, 0);
        assert_eq!(got, 42);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(epoch));
        assert_eq!(spans[1].trace, 7);
        assert_eq!((spans[1].units, spans[1].bytes), (3, 99));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut tracer = Tracer::new();
        let epoch = tracer.record(span("epoch", 0, 2000, None));
        tracer.record(span("shard", 500, 1500, Some(epoch)));
        let mut text = Vec::new();
        tracer.write_chrome(&mut text, usize::MAX).unwrap();
        let text = String::from_utf8(text).unwrap();
        let doc = presto_telemetry::export::parse_json(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("shard")
        );
        assert_eq!(events[1].get("ts").and_then(|n| n.as_f64()), Some(0.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|n| n.as_f64()), Some(0.0));
    }
}
