//! Cross-process ("fleet") tracing for the disaggregated serve layer.
//!
//! A serve session spans one `train-client` and N `serve-worker`
//! processes, each with its own monotonic clock and its own
//! [`EpochRecorder`](crate::EpochRecorder). This module is the glue
//! that turns those per-process telemetry islands into one picture:
//!
//! - [`mono_ns`]: a process-wide monotonic clock (nanoseconds since an
//!   arbitrary per-process anchor). Wire handshakes exchange these
//!   readings to estimate per-connection clock offsets NTP-style.
//! - [`FleetProgress`]: a registry the serve client fills as it talks
//!   to workers — clock offset + RTT per connection at handshake time,
//!   then each worker's remote stats, step totals and span timeline
//!   when the assignment completes.
//! - [`FleetDocument`] / [`fleet_json`]: the stable `presto.fleet.v1`
//!   document served at `/fleet.json` and written by
//!   `train-client --fleet-out`; [`ChaosLog`] is the chaos proxy's
//!   companion `presto.chaos.v1` event log.
//! - [`merge_chrome_trace`]: one Chrome `trace_event` document for the
//!   whole fleet — client spans on pid 1, each worker on its own pid
//!   with span timestamps corrected onto the client's clock (and
//!   clamped into the client-side envelope of that connection, keeping
//!   the raw timestamp in `args`), chaos-proxy events on pid 99.
//!
//! Offset convention: `clock_offset_ns = worker_mono − client_mono`,
//! estimated from a PING/PONG exchange as
//! `t_worker − (t_send + t_recv) / 2` and taken from the
//! minimum-RTT sample. To move a worker-clock reading onto the client
//! clock, *subtract* the offset.

use crate::doc::{self, Document, Record, Scalar, Visitor};
use crate::export::{json_escape, JsonValue};
use crate::{ServeSnapshot, SpanEvent, TelemetrySnapshot};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Schema identifier of the fleet document.
pub const FLEET_SCHEMA: &str = "presto.fleet.v1";
/// Schema identifier of the chaos-proxy event document.
pub const CHAOS_SCHEMA: &str = "presto.chaos.v1";

/// Nanoseconds since this process's (arbitrary) monotonic anchor.
/// Every process has a different anchor; the ping handshake measures
/// the difference so readings can be moved between processes.
pub fn mono_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One worker's contribution to the fleet picture, as recorded by the
/// serve client: connection metadata from the handshake, remote totals
/// and the remote span timeline from the end-of-assignment STATS frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetWorkerEntry {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Index of this worker in the client's candidate list — the
    /// `worker` field of client-side spans for this connection.
    pub conn: u32,
    /// Wire protocol version the peer's HELLO carried (one version
    /// exists; the handshake refuses any other).
    pub peer_version: u32,
    /// Estimated `worker_mono − client_mono`, nanoseconds (min-RTT
    /// ping sample). 0 until the handshake completes.
    pub clock_offset_ns: i64,
    /// Round-trip time of the offset sample, nanoseconds.
    pub rtt_ns: u64,
    /// Worker-clock [`mono_ns`] reading at the start of its
    /// assignment epoch — the origin of its relative span timestamps.
    pub assign_start_mono_ns: u64,
    /// Assignment wall time on the worker, nanoseconds.
    pub elapsed_ns: u64,
    /// Samples the worker produced for this client.
    pub samples: u64,
    /// BATCH frames the worker sent.
    pub batches: u64,
    /// Time the worker spent producing samples (processing + pacing),
    /// nanoseconds.
    pub produce_ns: u64,
    /// Time the worker spent stalled waiting for credit, nanoseconds.
    pub credit_wait_ns: u64,
    /// Remote span events dropped (budget or wire cap).
    pub dropped_spans: u64,
    /// Remote step totals: `(name, kind label, busy_ns)`.
    pub steps: Vec<(String, String, u64)>,
    /// Remote span timeline, relative to `assign_start_mono_ns`.
    pub spans: Vec<SpanEvent>,
}

#[derive(Debug, Default)]
struct FleetState {
    active: bool,
    trace_id: u64,
    epoch_start_mono_ns: u64,
    workers: Vec<FleetWorkerEntry>,
}

/// Live fleet registry attached to a [`Telemetry`](crate::Telemetry)
/// handle. The serve client writes to it; `/fleet.json`, the merged
/// `/metrics` and `presto trace` read it. Updates are rare
/// (one per handshake, one per finished assignment), so a mutex is
/// fine — nothing on the per-sample hot path touches this.
#[derive(Debug, Default)]
pub struct FleetProgress {
    state: Mutex<FleetState>,
}

impl FleetProgress {
    /// Start (or restart) a fleet session. Clears all worker entries,
    /// stamps the client-clock epoch origin and stores the trace id.
    pub fn begin(&self, trace_id: u64) {
        let mut state = self.state.lock();
        state.active = true;
        state.trace_id = trace_id;
        state.epoch_start_mono_ns = mono_ns();
        state.workers.clear();
    }

    /// Record (or refresh) a connection handshake: the peer's version
    /// plus the clock-offset estimate. Creates the entry if the
    /// address is new; keeps any stats already recorded otherwise.
    pub fn record_handshake(
        &self,
        addr: &str,
        conn: u32,
        peer_version: u32,
        clock_offset_ns: i64,
        rtt_ns: u64,
    ) {
        let mut state = self.state.lock();
        let entry = match state.workers.iter_mut().find(|w| w.addr == addr) {
            Some(entry) => entry,
            None => {
                state.workers.push(FleetWorkerEntry {
                    addr: addr.to_string(),
                    ..FleetWorkerEntry::default()
                });
                state.workers.last_mut().expect("just pushed")
            }
        };
        entry.conn = conn;
        entry.peer_version = peer_version;
        entry.clock_offset_ns = clock_offset_ns;
        entry.rtt_ns = rtt_ns;
    }

    /// Record a worker's end-of-assignment stats, replacing any
    /// previous stats for the same address but keeping the handshake
    /// fields already stored there.
    pub fn record_stats(&self, entry: FleetWorkerEntry) {
        let mut state = self.state.lock();
        match state.workers.iter_mut().find(|w| w.addr == entry.addr) {
            Some(existing) => {
                let (offset, rtt, version, conn) = (
                    existing.clock_offset_ns,
                    existing.rtt_ns,
                    existing.peer_version,
                    existing.conn,
                );
                *existing = entry;
                existing.clock_offset_ns = offset;
                existing.rtt_ns = rtt;
                existing.peer_version = version;
                existing.conn = conn;
            }
            None => state.workers.push(entry),
        }
    }

    /// True once [`FleetProgress::begin`] has been called.
    pub fn is_active(&self) -> bool {
        self.state.lock().active
    }

    /// A point-in-time copy for rendering/export.
    pub fn snapshot(&self) -> FleetSnapshot {
        let state = self.state.lock();
        FleetSnapshot {
            active: state.active,
            trace_id: state.trace_id,
            epoch_start_mono_ns: state.epoch_start_mono_ns,
            workers: state.workers.clone(),
        }
    }
}

/// Point-in-time copy of [`FleetProgress`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetSnapshot {
    /// True once a fleet session has begun.
    pub active: bool,
    /// Trace id propagated to every worker over the wire.
    pub trace_id: u64,
    /// Client-clock [`mono_ns`] reading at epoch start — the origin of
    /// client-side relative span timestamps.
    pub epoch_start_mono_ns: u64,
    /// Per-worker entries, in first-contact order.
    pub workers: Vec<FleetWorkerEntry>,
}

/// One process's epoch as the fleet document carries it: totals, step
/// triples `(name, kind label, busy_ns)` and the span timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetProcess {
    /// Epoch wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// Threads (connections, on the client) the spans are spread over.
    pub threads: usize,
    /// Samples delivered.
    pub samples: u64,
    /// Span events dropped past the budget.
    pub dropped_spans: u64,
    /// Step totals: `(name, kind label, busy_ns)`.
    pub steps: Vec<(String, String, u64)>,
    /// Span timeline, relative to the process's epoch start.
    pub spans: Vec<SpanEvent>,
}

/// The stable `presto.fleet.v1` document: the client's epoch (with
/// spans), the serve gauge set, and every worker's handshake + remote
/// stats (with spans). Served at `/fleet.json`, written by
/// [`fleet_json`], read back with [`doc::read`] and consumed by
/// [`merge_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetDocument {
    /// Trace id propagated to every worker over the wire.
    pub trace_id: u64,
    /// Client-clock [`mono_ns`] reading at epoch start.
    pub epoch_start_mono_ns: u64,
    /// The client's epoch.
    pub client: FleetProcess,
    /// The serve gauge set (the members the document carries).
    pub serve: ServeSnapshot,
    /// Per-worker entries, in first-contact order.
    pub workers: Vec<FleetWorkerEntry>,
}

/// A 64-bit id as a `"0x…"` string: a JSON number cannot carry 64 bits
/// through an f64 parser. Bare numbers are tolerated on read, for
/// hand-written documents.
#[derive(Default)]
struct HexId(u64);

impl Scalar for HexId {
    const KIND: &'static str = "a hex string";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{:#018x}\"", self.0);
    }
    fn read(value: &JsonValue) -> Option<Self> {
        match value.as_str() {
            Some(text) => u64::from_str_radix(text.strip_prefix("0x").unwrap_or(text), 16).ok(),
            None => u64::read(value),
        }
        .map(HexId)
    }
}

impl Record for SpanEvent {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("worker", &mut self.worker);
        v.req("phase", &mut self.phase);
        v.req("start_ns", &mut self.start_ns);
        v.req("dur_ns", &mut self.dur_ns);
    }
}

impl Record for (String, String, u64) {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.0);
        v.req("kind", &mut self.1);
        v.req("busy_ns", &mut self.2);
    }
}

/// The per-process members the client and every worker share; spans
/// travel as compact `[worker, phase, start_ns, dur_ns]` rows.
fn process_fields<V: Visitor>(
    v: &mut V,
    elapsed_ns: &mut u64,
    threads: &mut usize,
    samples: &mut u64,
    dropped_spans: &mut u64,
    steps: &mut Vec<(String, String, u64)>,
    spans: &mut Vec<SpanEvent>,
) {
    v.req("elapsed_ns", elapsed_ns);
    v.req("threads", threads);
    v.req("samples", samples);
    v.req("dropped_spans", dropped_spans);
    v.records("steps", steps);
    v.rows("spans", spans);
}

impl Record for FleetProcess {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        process_fields(
            v,
            &mut self.elapsed_ns,
            &mut self.threads,
            &mut self.samples,
            &mut self.dropped_spans,
            &mut self.steps,
            &mut self.spans,
        );
    }
}

/// The serve gauges as `presto.fleet.v1` carries them (`credit_wakes`,
/// `reconnect_attempts` and `done` are `/metrics`-only).
impl Record for ServeSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("workers", &mut self.workers);
        v.req("batches_sent", &mut self.batches_sent);
        v.req("bytes_sent", &mut self.bytes_sent);
        v.req("credit_stalls", &mut self.credit_stalls);
        v.req("credit_wait_ns", &mut self.credit_wait_ns);
        v.req("reassignments", &mut self.reassignments);
        v.req("preemptions", &mut self.preemptions);
        v.req("rejoins", &mut self.rejoins);
        v.req("gap_wait_ns", &mut self.gap_wait_ns);
        v.req("stream_read_ns", &mut self.stream_read_ns);
        v.req("consume_ns", &mut self.consume_ns);
        v.req("produce_ns", &mut self.produce_ns);
    }
}

impl Record for FleetWorkerEntry {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("addr", &mut self.addr);
        v.req("conn", &mut self.conn);
        v.req("peer_version", &mut self.peer_version);
        v.req("clock_offset_ns", &mut self.clock_offset_ns);
        v.req("rtt_ns", &mut self.rtt_ns);
        v.req("assign_start_mono_ns", &mut self.assign_start_mono_ns);
        v.req("batches", &mut self.batches);
        v.req("produce_ns", &mut self.produce_ns);
        v.req("credit_wait_ns", &mut self.credit_wait_ns);
        // A serve worker produces on one thread.
        process_fields(
            v,
            &mut self.elapsed_ns,
            &mut 1,
            &mut self.samples,
            &mut self.dropped_spans,
            &mut self.steps,
            &mut self.spans,
        );
    }
}

impl Record for FleetDocument {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        let mut trace_id = HexId(self.trace_id);
        v.req("trace_id", &mut trace_id);
        self.trace_id = trace_id.0;
        v.req("epoch_start_mono_ns", &mut self.epoch_start_mono_ns);
        v.record("client", &mut self.client);
        v.record("serve", &mut self.serve);
        v.records("workers", &mut self.workers);
    }
}

impl Document for FleetDocument {
    const SCHEMA: &'static str = FLEET_SCHEMA;
}

/// Render the fleet as its `presto.fleet.v1` document from the three
/// snapshots a serve client holds.
pub fn fleet_json(
    client: &TelemetrySnapshot,
    serve: &ServeSnapshot,
    fleet: &FleetSnapshot,
) -> String {
    doc::write(FleetDocument {
        trace_id: fleet.trace_id,
        epoch_start_mono_ns: fleet.epoch_start_mono_ns,
        client: FleetProcess {
            elapsed_ns: client.elapsed_ns,
            threads: client.threads,
            samples: client.samples,
            dropped_spans: client.dropped_spans,
            steps: client
                .steps
                .iter()
                .map(|s| (s.name.clone(), s.kind.label().to_string(), s.busy_ns))
                .collect(),
            spans: client.spans.clone(),
        },
        serve: *serve,
        workers: fleet.workers.clone(),
    })
}

/// One fault a chaos proxy injected, timestamped on the proxy's own
/// monotonic clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosEvent {
    /// Fault kind: `delay`, `throttle`, `partition`, `corrupt`,
    /// or `disconnect`.
    pub kind: String,
    /// Proxied connection the fault landed on.
    pub conn: u64,
    /// Stream direction: `up` (client → worker) or `down`.
    pub dir: String,
    /// Window index within that direction's byte stream.
    pub window: u64,
    /// [`mono_ns`] when the fault fired.
    pub t_ns: u64,
    /// How long the fault held the stream (0 for corrupt/disconnect).
    pub dur_ns: u64,
}

/// The `presto.chaos.v1` document: a chaos proxy's bounded event log,
/// the optional second input of [`merge_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosLog {
    /// Events that overflowed the proxy's log cap.
    pub dropped_events: u64,
    /// Injected faults, in firing order.
    pub events: Vec<ChaosEvent>,
}

impl Record for ChaosEvent {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("kind", &mut self.kind);
        v.req("conn", &mut self.conn);
        v.opt("dir", &mut self.dir);
        v.opt("window", &mut self.window);
        v.req("t_ns", &mut self.t_ns);
        v.opt("dur_ns", &mut self.dur_ns);
    }
}

impl Record for ChaosLog {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.opt("dropped_events", &mut self.dropped_events);
        v.records("events", &mut self.events);
    }
}

impl Document for ChaosLog {
    const SCHEMA: &'static str = CHAOS_SCHEMA;
}

fn step_name(steps: &[(String, String, u64)], phase: u32) -> (String, String) {
    steps
        .get(phase as usize)
        .map(|(name, kind, _)| (json_escape(name), json_escape(kind)))
        .unwrap_or_else(|| (format!("phase-{phase}"), "step".to_string()))
}

#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    name: &str,
    cat: &str,
    ts_ns: i128,
    dur_ns: u64,
    pid: u64,
    tid: u64,
    args: Option<&str>,
) {
    let _ = write!(
        out,
        ",\n{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {tid}",
        ts_ns as f64 / 1e3,
        dur_ns as f64 / 1e3
    );
    if let Some(args) = args {
        let _ = write!(out, ", \"args\": {args}");
    }
    out.push('}');
}

fn push_meta(out: &mut String, kind: &str, pid: u64, tid: u64, name: &str, first: bool) {
    let _ = write!(
        out,
        "{}{{\"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{}\"}}}}",
        if first { "" } else { ",\n" },
        json_escape(name)
    );
}

/// Merge a `presto.fleet.v1` document (and optionally a
/// `presto.chaos.v1` event document) into one Chrome `trace_event`
/// array covering the whole fleet:
///
/// - **pid 1** — the client: one track per connection, spans as
///   recorded (timestamps are already client-epoch-relative),
/// - **pid 2+i** — worker *i*: remote spans moved onto the client
///   clock (`assign_start_mono − clock_offset − epoch_start_mono +
///   span.start`) and clamped into the client-side span envelope of
///   that connection; a clamped event keeps its raw corrected start in
///   `args.raw_ts_ns`,
/// - **pid 99** — the chaos proxy: fault events on one track per
///   proxied connection, timestamps normalized to the first event
///   (the proxy's clock is never exchanged, so it gets its own
///   timeline rather than a fake correction).
///
/// The output is a pure function of the input documents — merging the
/// same bundle twice yields byte-identical output.
pub fn merge_chrome_trace(fleet_doc: &str, chaos_doc: Option<&str>) -> Result<String, String> {
    let fleet: FleetDocument = doc::read(fleet_doc)?;
    let epoch_start = fleet.epoch_start_mono_ns as i128;

    let mut out = String::with_capacity(4096);
    out.push_str("[\n");
    push_meta(&mut out, "process_name", 1, 0, "train-client", true);
    for w in &fleet.workers {
        let name = format!("conn-{} {}", w.conn, w.addr);
        push_meta(&mut out, "thread_name", 1, w.conn.into(), &name, false);
    }
    for (pid, w) in (2..).zip(&fleet.workers) {
        let name = format!("serve-worker {}", w.addr);
        push_meta(&mut out, "process_name", pid, 0, &name, false);
    }

    // Client spans: already relative to the client epoch start.
    for span in &fleet.client.spans {
        let (name, cat) = step_name(&fleet.client.steps, span.phase);
        push_event(
            &mut out,
            &name,
            &cat,
            span.start_ns as i128,
            span.dur_ns,
            1,
            span.worker.into(),
            None,
        );
    }

    // Worker spans: correct onto the client clock, then clamp into the
    // client-side envelope of that connection (clock-offset estimation
    // error must not break visual nesting; the raw value is kept).
    for (pid, w) in (2..).zip(&fleet.workers) {
        let mine = || fleet.client.spans.iter().filter(|s| s.worker == w.conn);
        let envelope = mine().map(|s| s.start_ns).min().map(|lo| {
            let hi = mine().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(lo);
            (lo as i128, hi as i128)
        });
        let base = w.assign_start_mono_ns as i128 - w.clock_offset_ns as i128 - epoch_start;
        for span in &w.spans {
            let (name, cat) = step_name(&w.steps, span.phase);
            let raw_start = base + span.start_ns as i128;
            let raw_end = raw_start + span.dur_ns as i128;
            let (start, end) = match envelope {
                Some((lo, hi)) => {
                    let s = raw_start.clamp(lo, hi);
                    (s, raw_end.clamp(s, hi))
                }
                None => (raw_start.max(0), raw_end.max(0)),
            };
            let args = if start != raw_start || end != raw_end {
                Some(format!("{{\"raw_ts_ns\": {raw_start}}}"))
            } else {
                None
            };
            push_event(
                &mut out,
                &name,
                &cat,
                start,
                (end - start).max(0) as u64,
                pid,
                span.worker.into(),
                args.as_deref(),
            );
        }
    }

    // Chaos events: separate clock domain, normalized to first event.
    if let Some(chaos) = chaos_doc {
        let chaos: ChaosLog = doc::read(chaos)?;
        push_meta(&mut out, "process_name", 99, 0, "chaos-proxy", false);
        let t0 = chaos.events.iter().map(|e| e.t_ns).min().unwrap_or(0);
        for event in &chaos.events {
            let dir = if event.dir.is_empty() {
                "?"
            } else {
                &event.dir
            };
            push_event(
                &mut out,
                &json_escape(&event.kind),
                "chaos",
                event.t_ns as i128 - t0 as i128,
                event.dur_ns,
                99,
                event.conn,
                Some(&format!(
                    "{{\"dir\": \"{}\", \"window\": {}}}",
                    json_escape(dir),
                    event.window
                )),
            );
        }
    }

    out.push_str("\n]\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{parse_json, validate_chrome_trace};
    use crate::{Telemetry, PHASE_READ};

    fn parse_fleet_json(input: &str) -> Result<FleetDocument, String> {
        doc::read(input)
    }

    fn client_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&["shard-0000".into(), "shard-0001".into()], 2, 0);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, PHASE_READ, t0);
        let t1 = rec.begin().unwrap();
        rec.phase_done(0, crate::BUILTIN_PHASES, t1);
        rec.snapshot()
    }

    fn worker_entry(addr: &str, conn: u32, offset: i64) -> FleetWorkerEntry {
        FleetWorkerEntry {
            addr: addr.to_string(),
            conn,
            peer_version: 2,
            clock_offset_ns: offset,
            rtt_ns: 5_000,
            assign_start_mono_ns: 1_000_000,
            elapsed_ns: 900_000,
            samples: 8,
            batches: 2,
            produce_ns: 700_000,
            credit_wait_ns: 50_000,
            dropped_spans: 0,
            steps: vec![
                ("read".into(), "io".into(), 100),
                ("decompress".into(), "cpu".into(), 200),
            ],
            spans: vec![
                SpanEvent {
                    worker: 0,
                    phase: 0,
                    start_ns: 10_000,
                    dur_ns: 40_000,
                },
                SpanEvent {
                    worker: 0,
                    phase: 1,
                    start_ns: 60_000,
                    dur_ns: 0, // zero-duration span must survive the merge
                },
            ],
        }
    }

    #[test]
    fn fleet_json_round_trips_and_validates() {
        let progress = FleetProgress::default();
        progress.begin(0xDEAD_BEEF);
        progress.record_handshake("127.0.0.1:9000", 0, 2, -1234, 5_000);
        progress.record_stats(worker_entry("127.0.0.1:9000", 0, -1234));
        progress.record_handshake("127.0.0.1:9001", 1, 2, 777, 9_000);
        let fleet = progress.snapshot();
        assert!(fleet.active);
        assert_eq!(fleet.trace_id, 0xDEAD_BEEF);
        assert_eq!(fleet.workers.len(), 2);
        // Stats merge keeps the handshake's offset.
        assert_eq!(fleet.workers[0].clock_offset_ns, -1234);
        assert_eq!(fleet.workers[0].samples, 8);

        let doc = fleet_json(&client_snapshot(), &ServeSnapshot::default(), &fleet);
        let parsed = parse_fleet_json(&doc).expect("fleet doc round-trips");
        assert_eq!(parsed.trace_id, fleet.trace_id);
        assert_eq!(parsed.workers.len(), 2);
        assert_eq!(parsed.workers[0].spans.len(), 2);
        assert_eq!(parsed.workers[1].rtt_ns, 9_000);
    }

    #[test]
    fn merge_with_zero_worker_spans_still_yields_a_valid_trace() {
        // A worker that handshook and reported stats but recorded no
        // spans (span ring disabled, or everything dropped) must not
        // break the merge: its process metadata appears, the client
        // tracks render, and the trace stays valid.
        let progress = FleetProgress::default();
        progress.begin(11);
        progress.record_handshake("quiet:1", 0, 2, 0, 1_000);
        let mut entry = worker_entry("quiet:1", 0, 0);
        entry.spans.clear();
        progress.record_stats(entry);
        let doc = fleet_json(
            &client_snapshot(),
            &ServeSnapshot::default(),
            &progress.snapshot(),
        );
        let merged = merge_chrome_trace(&doc, None).expect("merge with spanless worker");
        let complete = validate_chrome_trace(&merged).expect("trace validates");
        assert_eq!(complete, 2, "only the client's two spans remain");
        assert!(merged.contains("serve-worker quiet:1"), "{merged}");
    }

    #[test]
    fn merge_and_parse_reject_an_empty_fleet_document() {
        assert!(merge_chrome_trace("{}", None).is_err());
        assert!(parse_fleet_json("{}").is_err());
        assert!(parse_fleet_json("").is_err());
    }

    #[test]
    fn validator_rejects_broken_fleet_documents() {
        assert!(parse_fleet_json("{}").is_err());
        assert!(parse_fleet_json("{\"schema\": \"presto.fleet.v2\"}").is_err());
        let progress = FleetProgress::default();
        progress.begin(1);
        let good = fleet_json(
            &client_snapshot(),
            &ServeSnapshot::default(),
            &progress.snapshot(),
        );
        assert!(parse_fleet_json(&good).is_ok());
        let bad = good.replace("\"serve\"", "\"swerve\"");
        assert!(parse_fleet_json(&bad).is_err());
    }

    #[test]
    fn merge_is_deterministic_and_contains_every_track() {
        let progress = FleetProgress::default();
        progress.begin(7);
        progress.record_handshake("a:1", 0, 2, 0, 1_000);
        progress.record_stats(worker_entry("a:1", 0, 0));
        progress.record_handshake("b:2", 1, 2, 250_000, 1_000);
        progress.record_stats(worker_entry("b:2", 1, 250_000));
        let doc = fleet_json(
            &client_snapshot(),
            &ServeSnapshot::default(),
            &progress.snapshot(),
        );
        let chaos = format!(
            "{{\"schema\": \"{CHAOS_SCHEMA}\", \"seed\": 1, \"dropped\": 0, \"events\": [
              {{\"t_ns\": 5000, \"conn\": 1, \"dir\": \"down\", \"kind\": \"throttle\", \"window\": 3, \"dur_ns\": 100}},
              {{\"t_ns\": 9000, \"conn\": 1, \"dir\": \"up\", \"kind\": \"delay\", \"window\": 4, \"dur_ns\": 50}}
            ]}}"
        );
        let merged = merge_chrome_trace(&doc, Some(&chaos)).expect("merge succeeds");
        let again = merge_chrome_trace(&doc, Some(&chaos)).expect("merge succeeds twice");
        assert_eq!(merged, again, "merge must be byte-deterministic");
        let complete = validate_chrome_trace(&merged).expect("merged trace validates");
        // 2 client spans + 2 spans per worker + 2 chaos events.
        assert_eq!(complete, 2 + 4 + 2);
        // All three process families are present.
        for needle in [
            "train-client",
            "serve-worker a:1",
            "serve-worker b:2",
            "chaos-proxy",
        ] {
            assert!(merged.contains(needle), "missing track {needle}");
        }
        // Chaos events are normalized to their first event.
        assert!(merged
            .contains("\"name\": \"throttle\", \"cat\": \"chaos\", \"ph\": \"X\", \"ts\": 0.000"));
    }

    #[test]
    fn merge_clamps_worker_spans_into_the_client_envelope() {
        // Client span for conn 0 covers [0, elapsed of the read phase].
        let client = client_snapshot();
        let envelope_hi = client
            .spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap();
        let progress = FleetProgress::default();
        progress.begin(9);
        // A wildly wrong offset pushes raw corrected timestamps far
        // outside the client window.
        progress.record_handshake("a:1", 0, 2, -5_000_000_000, 1_000);
        progress.record_stats(worker_entry("a:1", 0, -5_000_000_000));
        let mut fleet = progress.snapshot();
        fleet.epoch_start_mono_ns = 0;
        let doc = fleet_json(&client, &ServeSnapshot::default(), &fleet);
        let merged = merge_chrome_trace(&doc, None).expect("merge succeeds");
        let parsed = parse_json(&merged).expect("parses");
        let events = parsed.as_array().unwrap();
        let hi_us = envelope_hi as f64 / 1e3;
        for event in events {
            if event.get("ph").and_then(JsonValue::as_str) != Some("X") {
                continue;
            }
            let pid = event.require_f64("pid").unwrap();
            if pid < 1.5 {
                continue; // client events define the envelope
            }
            let ts = event.require_f64("ts").unwrap();
            let dur = event.require_f64("dur").unwrap();
            assert!(
                ts >= 0.0 && ts + dur <= hi_us + 1e-6,
                "worker span [{ts}, {}] escaped the client envelope [0, {hi_us}]",
                ts + dur
            );
            // Clamped events keep the raw corrected timestamp.
            assert!(
                event.get("args").and_then(|a| a.get("raw_ts_ns")).is_some(),
                "clamped event should carry args.raw_ts_ns"
            );
        }
    }

    #[test]
    fn dropped_spans_survive_the_fleet_document() {
        let mut entry = worker_entry("a:1", 0, 0);
        entry.dropped_spans = 17;
        let progress = FleetProgress::default();
        progress.begin(3);
        progress.record_stats(entry);
        let doc = fleet_json(
            &client_snapshot(),
            &ServeSnapshot::default(),
            &progress.snapshot(),
        );
        let parsed = parse_fleet_json(&doc).expect("round-trips");
        assert_eq!(parsed.workers[0].dropped_spans, 17);
        // And the merge still succeeds on a lossy timeline.
        assert!(merge_chrome_trace(&doc, None).is_ok());
    }

    #[test]
    fn mono_ns_is_monotonic() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
    }
}
