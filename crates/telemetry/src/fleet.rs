//! Cross-process ("fleet") tracing for the disaggregated serve layer.
//!
//! A serve session spans one `train-client` and N `serve-worker`
//! processes, each with its own monotonic clock and its own
//! [`EpochRecorder`](crate::EpochRecorder). This module grafts the
//! workers onto the client's [`Snapshot`] as its fleet section:
//!
//! - [`mono_ns`]: a process-wide monotonic clock (nanoseconds since an
//!   arbitrary per-process anchor). Wire handshakes exchange these
//!   readings to estimate per-connection clock offsets NTP-style.
//! - [`FleetProgress`]: the registry the serve client fills as it talks
//!   to workers — clock offset + RTT per connection at handshake time,
//!   then each assignment's remote stats, step totals and span
//!   timeline, accumulated into one [`RemoteWorker`] node per address.
//! - [`FleetDocument`] / [`fleet_json`]: the stable `presto.fleet.v1`
//!   projection of a tree, served at `/fleet.json` and written by
//!   `train-client --fleet-out`; [`ChaosLog`] is the chaos proxy's
//!   companion `presto.chaos.v1` event log.
//! - [`merge_chrome_trace`]: one Chrome `trace_event` document for the
//!   whole fleet, through the same writer as a local run's
//!   ([`crate::export::chrome_trace`]) — client spans on pid 1, each
//!   worker on its own pid with span timestamps corrected onto the
//!   client's clock (and clamped into the client-side envelope of that
//!   connection, keeping the raw timestamp in `args`), chaos-proxy
//!   events on pid 99.
//!
//! Offset convention: `clock_offset_ns = worker_mono − client_mono`,
//! estimated from a PING/PONG exchange as
//! `t_worker − (t_send + t_recv) / 2` and taken from the
//! minimum-RTT sample. To move a worker-clock reading onto the client
//! clock, *subtract* the offset.

use crate::doc::{self, Document, Record, Scalar, Visitor};
use crate::export::JsonValue;
use crate::{ServeSnapshot, Snapshot, SpanEvent, StepSnapshot, TelemetrySnapshot};
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

/// One remote worker in a client's fleet section: a labelled node
/// holding the worker's epoch as its STATS frames reported it. The
/// labels come from the client's handshake; the wire carries the rest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RemoteWorker {
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
    /// Worker-clock [`mono_ns`] reading at the start of its first
    /// assignment — the origin of its relative span timestamps.
    pub assign_start_mono_ns: u64,
    /// The worker's epoch: assignment wall time, samples produced,
    /// dropped spans, per-step busy time and the span timeline.
    pub epoch: TelemetrySnapshot,
    /// The worker's serve counters: BATCH frames sent, time producing
    /// samples and time stalled waiting for credit.
    pub serve: ServeSnapshot,
}

impl RemoteWorker {
    /// Add one more assignment's STATS: counters, elapsed time and
    /// per-step busy time sum, spans are appended rebased onto the
    /// first assignment's origin, and the handshake labels stay.
    fn add(&mut self, stats: RemoteWorker) {
        // A node with no elapsed time holds only its handshake.
        if self.epoch.elapsed_ns == 0 {
            self.assign_start_mono_ns = stats.assign_start_mono_ns;
        }
        // Both origins are on the worker's clock, unless the address
        // was respawned in between; then the spans land at the origin.
        let shift = stats
            .assign_start_mono_ns
            .saturating_sub(self.assign_start_mono_ns);
        let (mine, theirs) = (&mut self.epoch, stats.epoch);
        mine.elapsed_ns += theirs.elapsed_ns;
        mine.samples += theirs.samples;
        mine.dropped_spans += theirs.dropped_spans;
        for step in theirs.steps {
            match mine.steps.iter_mut().find(|s| s.name == step.name) {
                Some(same) => same.busy_ns += step.busy_ns,
                None => mine.steps.push(step),
            }
        }
        mine.spans
            .extend(theirs.spans.into_iter().map(|span| SpanEvent {
                start_ns: span.start_ns + shift,
                ..span
            }));
        self.serve.batches_sent += stats.serve.batches_sent;
        self.serve.produce_ns += stats.serve.produce_ns;
        self.serve.credit_wait_ns += stats.serve.credit_wait_ns;
    }
}

/// The fleet section of a client's [`Snapshot`]: the trace it
/// propagated and every worker it reached.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fleet {
    /// Trace id propagated to every worker over the wire.
    pub trace_id: u64,
    /// Client-clock [`mono_ns`] reading at epoch start — the origin of
    /// client-side relative span timestamps.
    pub epoch_start_mono_ns: u64,
    /// One node per worker address, in first-contact order.
    pub workers: Vec<RemoteWorker>,
}

/// Live fleet registry attached to a [`Telemetry`](crate::Telemetry)
/// handle, `None` until a traced serve epoch begins. The serve client
/// writes to it; [`crate::Telemetry::snapshot`] reads it as the tree's
/// fleet section. Updates are rare (one per handshake, one per
/// finished assignment), so a mutex is fine — nothing on the
/// per-sample hot path touches this.
#[derive(Debug, Default)]
pub struct FleetProgress {
    state: Mutex<Option<Fleet>>,
}

impl FleetProgress {
    /// Start (or restart) a fleet session. Clears all worker nodes,
    /// stamps the client-clock epoch origin and stores the trace id.
    pub fn begin(&self, trace_id: u64) {
        *self.state.lock() = Some(Fleet {
            trace_id,
            epoch_start_mono_ns: mono_ns(),
            workers: Vec::new(),
        });
    }

    /// Record (or refresh) a connection handshake: the peer's version
    /// plus the clock-offset estimate. Creates the node if the address
    /// is new; keeps any stats already recorded otherwise.
    pub fn record_handshake(
        &self,
        addr: &str,
        conn: u32,
        peer_version: u32,
        clock_offset_ns: i64,
        rtt_ns: u64,
    ) {
        let mut state = self.state.lock();
        let Some(fleet) = state.as_mut() else { return };
        let node = match fleet.workers.iter().position(|w| w.addr == addr) {
            Some(at) => &mut fleet.workers[at],
            None => {
                fleet.workers.push(RemoteWorker {
                    addr: addr.to_string(),
                    ..RemoteWorker::default()
                });
                fleet.workers.last_mut().expect("just pushed")
            }
        };
        node.conn = conn;
        node.peer_version = peer_version;
        node.clock_offset_ns = clock_offset_ns;
        node.rtt_ns = rtt_ns;
    }

    /// Record one assignment's end-of-assignment stats for
    /// `stats.addr`. A worker that serves several assignments in an
    /// epoch (a surviving link pulls requeued shards as a new ASSIGN)
    /// accumulates them into its one node.
    pub fn record_stats(&self, stats: RemoteWorker) {
        let mut state = self.state.lock();
        let Some(fleet) = state.as_mut() else { return };
        match fleet.workers.iter_mut().find(|w| w.addr == stats.addr) {
            Some(node) => node.add(stats),
            None => fleet.workers.push(stats),
        }
    }

    /// The tree's fleet section: `None` until [`FleetProgress::begin`].
    pub(crate) fn section(&self) -> Option<Fleet> {
        self.state.lock().clone()
    }
}

/// The stable `presto.fleet.v1` document, a client tree's projection:
/// the client's epoch (with spans), its serve gauges, and every
/// worker's node (with spans). Served at `/fleet.json`, written by
/// [`fleet_json`], read back with [`doc::read`] and consumed by
/// [`merge_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetDocument {
    /// Trace id propagated to every worker over the wire.
    pub trace_id: u64,
    /// Client-clock [`mono_ns`] reading at epoch start.
    pub epoch_start_mono_ns: u64,
    /// The client's epoch: the members [`process_fields`] lists.
    pub client: TelemetrySnapshot,
    /// The serve gauge set (the members the document carries).
    pub serve: ServeSnapshot,
    /// Per-worker nodes, in first-contact order.
    pub workers: Vec<RemoteWorker>,
}

impl From<FleetDocument> for Snapshot {
    /// The client tree the document was written from, to the depth
    /// the document carries.
    fn from(doc: FleetDocument) -> Snapshot {
        Snapshot {
            epoch: Some(doc.client),
            serve: Some(doc.serve),
            fleet: Some(Fleet {
                trace_id: doc.trace_id,
                epoch_start_mono_ns: doc.epoch_start_mono_ns,
                workers: doc.workers,
            }),
            ..Snapshot::default()
        }
    }
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

/// A step as the fleet document carries it: its busy-time total.
#[derive(Default)]
struct StepTotal(StepSnapshot);

impl Record for StepTotal {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.0.name);
        v.req("kind", &mut self.0.kind);
        v.req("busy_ns", &mut self.0.busy_ns);
    }
}

/// The per-process members the client and every worker share; spans
/// travel as compact `[worker, phase, start_ns, dur_ns]` rows.
fn process_fields<V: Visitor>(v: &mut V, epoch: &mut TelemetrySnapshot) {
    v.req("elapsed_ns", &mut epoch.elapsed_ns);
    v.req("threads", &mut epoch.threads);
    v.req("samples", &mut epoch.samples);
    v.req("dropped_spans", &mut epoch.dropped_spans);
    let mut steps: Vec<StepTotal> = std::mem::take(&mut epoch.steps)
        .into_iter()
        .map(StepTotal)
        .collect();
    v.records("steps", &mut steps);
    epoch.steps = steps.into_iter().map(|step| step.0).collect();
    v.rows("spans", &mut epoch.spans);
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

impl Record for RemoteWorker {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("addr", &mut self.addr);
        v.req("conn", &mut self.conn);
        v.req("peer_version", &mut self.peer_version);
        v.req("clock_offset_ns", &mut self.clock_offset_ns);
        v.req("rtt_ns", &mut self.rtt_ns);
        v.req("assign_start_mono_ns", &mut self.assign_start_mono_ns);
        v.req("batches", &mut self.serve.batches_sent);
        v.req("produce_ns", &mut self.serve.produce_ns);
        v.req("credit_wait_ns", &mut self.serve.credit_wait_ns);
        // A serve worker produces on one thread: written as 1, not kept.
        let threads = std::mem::replace(&mut self.epoch.threads, 1);
        process_fields(v, &mut self.epoch);
        self.epoch.threads = threads;
    }
}

impl Record for FleetDocument {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        let mut trace_id = HexId(self.trace_id);
        v.req("trace_id", &mut trace_id);
        self.trace_id = trace_id.0;
        v.req("epoch_start_mono_ns", &mut self.epoch_start_mono_ns);
        v.object("client", false, |v| process_fields(v, &mut self.client));
        v.record("serve", &mut self.serve);
        v.records("workers", &mut self.workers);
    }
}

impl Document for FleetDocument {
    const SCHEMA: &'static str = FLEET_SCHEMA;
}

/// Render a client tree as its `presto.fleet.v1` document; a section
/// the tree lacks is written empty.
pub fn fleet_json(tree: &Snapshot) -> String {
    let fleet = tree.fleet.clone().unwrap_or_default();
    doc::write(FleetDocument {
        trace_id: fleet.trace_id,
        epoch_start_mono_ns: fleet.epoch_start_mono_ns,
        client: tree.epoch.clone().unwrap_or_default(),
        serve: tree.serve.unwrap_or_default(),
        workers: fleet.workers,
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
/// The document is read back into the client tree it was written from
/// and rendered by the one trace writer. The output is a pure function
/// of the input documents — merging the same bundle twice yields
/// byte-identical output.
pub fn merge_chrome_trace(fleet_doc: &str, chaos_doc: Option<&str>) -> Result<String, String> {
    let fleet: FleetDocument = doc::read(fleet_doc)?;
    let chaos: Option<ChaosLog> = chaos_doc.map(doc::read).transpose()?;
    Ok(crate::export::trace_events(&fleet.into(), chaos.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{parse_json, validate_chrome_trace};
    use crate::{PhaseKind, Telemetry, PHASE_READ};

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

    /// The client tree: `client`'s epoch and the registry's fleet.
    fn tree_of(client: TelemetrySnapshot, progress: &FleetProgress) -> Snapshot {
        Snapshot {
            fleet: progress.section(),
            ..Snapshot::from(client)
        }
    }

    fn fleet_doc(progress: &FleetProgress) -> String {
        fleet_json(&tree_of(client_snapshot(), progress))
    }

    fn step(name: &str, kind: PhaseKind, busy_ns: u64) -> StepSnapshot {
        StepSnapshot {
            name: name.into(),
            kind,
            busy_ns,
            ..StepSnapshot::default()
        }
    }

    fn span(phase: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            worker: 0,
            phase,
            start_ns,
            dur_ns,
        }
    }

    fn worker_entry(addr: &str, conn: u32, offset: i64) -> RemoteWorker {
        RemoteWorker {
            addr: addr.to_string(),
            conn,
            peer_version: 2,
            clock_offset_ns: offset,
            rtt_ns: 5_000,
            assign_start_mono_ns: 1_000_000,
            epoch: TelemetrySnapshot {
                elapsed_ns: 900_000,
                samples: 8,
                steps: vec![
                    step("read", PhaseKind::Io, 100),
                    step("decompress", PhaseKind::Cpu, 200),
                ],
                spans: vec![
                    span(0, 10_000, 40_000),
                    span(1, 60_000, 0), // zero-duration span must survive the merge
                ],
                ..TelemetrySnapshot::default()
            },
            serve: ServeSnapshot {
                batches_sent: 2,
                produce_ns: 700_000,
                credit_wait_ns: 50_000,
                ..ServeSnapshot::default()
            },
        }
    }

    #[test]
    fn fleet_json_round_trips_and_validates() {
        let progress = FleetProgress::default();
        progress.begin(0xDEAD_BEEF);
        progress.record_handshake("127.0.0.1:9000", 0, 2, -1234, 5_000);
        progress.record_stats(worker_entry("127.0.0.1:9000", 0, -1234));
        progress.record_handshake("127.0.0.1:9001", 1, 2, 777, 9_000);
        let fleet = progress.section().expect("begun");
        assert_eq!(fleet.trace_id, 0xDEAD_BEEF);
        assert_eq!(fleet.workers.len(), 2);
        // Stats merge keeps the handshake's offset.
        assert_eq!(fleet.workers[0].clock_offset_ns, -1234);
        assert_eq!(fleet.workers[0].epoch.samples, 8);

        let doc = fleet_doc(&progress);
        let parsed = parse_fleet_json(&doc).expect("fleet doc round-trips");
        assert_eq!(parsed.trace_id, fleet.trace_id);
        assert_eq!(parsed.workers.len(), 2);
        assert_eq!(parsed.workers[0].epoch.spans.len(), 2);
        assert_eq!(parsed.workers[1].rtt_ns, 9_000);
    }

    #[test]
    fn a_workers_assignments_accumulate_into_one_node() {
        let progress = FleetProgress::default();
        progress.begin(5);
        progress.record_handshake("a:1", 3, 2, -70, 900);
        progress.record_stats(worker_entry("a:1", 0, 0));
        // A requeued shard pulled as a second ASSIGN, 2 ms later on the
        // worker's clock, with a step the first did not run.
        let mut second = worker_entry("a:1", 0, 0);
        second.assign_start_mono_ns = 3_000_000;
        second.epoch.steps.push(step("resize", PhaseKind::Step, 5));
        second.epoch.dropped_spans = 4;
        progress.record_stats(second);
        let node = &progress.section().expect("begun").workers[0];
        assert_eq!(
            (node.conn, node.clock_offset_ns, node.rtt_ns),
            (3, -70, 900),
            "the handshake labels stay"
        );
        assert_eq!(node.assign_start_mono_ns, 1_000_000);
        assert_eq!(node.epoch.elapsed_ns, 1_800_000);
        assert_eq!(node.epoch.samples, 16);
        assert_eq!(node.epoch.dropped_spans, 4);
        assert_eq!(
            (node.serve.batches_sent, node.serve.produce_ns),
            (4, 1_400_000)
        );
        assert_eq!(node.serve.credit_wait_ns, 100_000);
        assert_eq!(
            node.epoch.steps,
            vec![
                step("read", PhaseKind::Io, 200),
                step("decompress", PhaseKind::Cpu, 400),
                step("resize", PhaseKind::Step, 5),
            ]
        );
        assert_eq!(
            node.epoch.spans,
            vec![
                span(0, 10_000, 40_000),
                span(1, 60_000, 0),
                span(0, 2_010_000, 40_000),
                span(1, 2_060_000, 0),
            ],
            "the second assignment's spans are rebased onto the first's origin"
        );
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
        entry.epoch.spans.clear();
        progress.record_stats(entry);
        let doc = fleet_doc(&progress);
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
        let good = fleet_doc(&progress);
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
        let doc = fleet_doc(&progress);
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
        let mut tree = tree_of(client, &progress);
        tree.fleet.as_mut().unwrap().epoch_start_mono_ns = 0;
        let doc = fleet_json(&tree);
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
        entry.epoch.dropped_spans = 17;
        let progress = FleetProgress::default();
        progress.begin(3);
        progress.record_stats(entry);
        let doc = fleet_doc(&progress);
        let parsed = parse_fleet_json(&doc).expect("round-trips");
        assert_eq!(parsed.workers[0].epoch.dropped_spans, 17);
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
