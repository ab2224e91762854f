//! Exporters: the Prometheus text exposition and the Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) of a
//! process tree ([`Snapshot`]), and the stable `presto.telemetry.v1`
//! JSON schema of one epoch ([`TelemetrySnapshot`]).
//!
//! The schemas are documented in `docs/observability.md`. The JSON
//! document's members are listed once, in the [`Record`] impls here,
//! and written and read through [`crate::doc`]; the minimal JSON
//! reader underneath lives here too, so no JSON dependency is needed.

use crate::doc::{self, Document, Record, Scalar, Visitor};
use crate::fleet::{ChaosLog, Fleet, RemoteWorker};
use crate::tenants::{TenantEntry, TenantsSnapshot};
use crate::{
    DataPlaneSnapshot, PhaseKind, QueueSnapshot, SearchSnapshot, ServeSnapshot, Snapshot,
    SpanEvent, StepSnapshot, TelemetrySnapshot, WorkerSnapshot,
};
use std::fmt::Write as _;

/// Current JSON schema identifier.
pub const JSON_SCHEMA: &str = "presto.telemetry.v1";

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Escape a string for inclusion in a JSON string literal (also valid
/// for Prometheus label values, which use the same escapes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The one Prometheus text-exposition writer (format 0.0.4): every
/// `/metrics` series in the crate goes through these two methods.
struct Exposition(String);

impl Exposition {
    /// `# HELP`/`# TYPE` headers, then one sample line per `(suffix,
    /// value)`. The suffix is whatever follows the family name on the
    /// sample line: nothing, a `{label="…"}` set, or a summary's
    /// `_count{…}`/`_sum{…}` companions.
    fn family<V: std::fmt::Display>(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        samples: impl IntoIterator<Item = (String, V)>,
    ) {
        let _ = writeln!(self.0, "# HELP {name} {help}");
        let _ = writeln!(self.0, "# TYPE {name} {kind}");
        for (suffix, value) in samples {
            let _ = writeln!(self.0, "{name}{suffix} {value}");
        }
    }

    /// A family of one unlabelled sample.
    fn metric(&mut self, name: &str, help: &str, kind: &str, value: impl std::fmt::Display) {
        self.family(name, help, kind, [(String::new(), value)]);
    }
}

/// Render a process tree in the Prometheus text exposition format
/// (version 0.0.4), the body `/metrics` serves: the epoch's counters,
/// gauges and per-step latency summaries (or `# no epoch recorded
/// yet`), then each section the tree holds — search, serve, fleet,
/// tenants, in that order.
pub fn prometheus(tree: &Snapshot) -> String {
    let mut x = Exposition(String::with_capacity(4096));
    match &tree.epoch {
        Some(epoch) => epoch_series(&mut x, epoch),
        None => x.0.push_str("# no epoch recorded yet\n"),
    }
    if let Some(search) = &tree.search {
        search_series(&mut x, search);
    }
    if let Some(serve) = &tree.serve {
        serve_series(&mut x, serve);
    }
    if let Some(fleet) = &tree.fleet {
        fleet_series(&mut x, fleet);
    }
    if let Some(tenants) = &tree.tenants {
        tenant_series(&mut x, tenants);
    }
    x.0
}

/// Counters and gauges of one epoch, and per-step latency quantiles
/// as summary-style series.
fn epoch_series(x: &mut Exposition, snapshot: &TelemetrySnapshot) {
    for (name, help, value) in [
        (
            "presto_epoch_samples_total",
            "Samples delivered this epoch.",
            snapshot.samples,
        ),
        (
            "presto_epoch_bytes_read_total",
            "Compressed bytes read from the store.",
            snapshot.bytes_read,
        ),
        (
            "presto_epoch_bytes_decoded_total",
            "Decompressed bytes produced.",
            snapshot.bytes_decoded,
        ),
        (
            "presto_epoch_cache_hits_total",
            "Samples served from the application cache.",
            snapshot.cache_hits,
        ),
        (
            "presto_epoch_cache_misses_total",
            "Samples produced while filling the cache.",
            snapshot.cache_misses,
        ),
        (
            "presto_epoch_retries_total",
            "Storage retries performed.",
            snapshot.retries,
        ),
        (
            "presto_epoch_skipped_samples_total",
            "Samples skipped under a degrade policy.",
            snapshot.skipped_samples,
        ),
        (
            "presto_epoch_lost_shards_total",
            "Shards lost under a degrade policy.",
            snapshot.lost_shards,
        ),
        (
            "presto_epoch_dropped_spans_total",
            "Span events dropped past the budget.",
            snapshot.dropped_spans,
        ),
    ] {
        x.metric(name, help, "counter", value);
    }
    // Alias without the epoch_ prefix: the name monitoring rules key
    // on for span-loss alerts (same value, stable going forward).
    x.metric(
        "presto_dropped_spans_total",
        "Span events dropped past the budget (alias).",
        "counter",
        snapshot.dropped_spans,
    );
    x.metric(
        "presto_epoch_duration_seconds",
        "Epoch wall time.",
        "gauge",
        secs(snapshot.elapsed_ns),
    );
    x.metric(
        "presto_epoch_degraded",
        "Whether any fault was absorbed (0/1).",
        "gauge",
        u8::from(snapshot.degraded),
    );

    let step = |s: &StepSnapshot| {
        format!(
            "{{step=\"{}\",kind=\"{}\"}}",
            json_escape(&s.name),
            s.kind.label()
        )
    };
    x.family(
        "presto_step_invocations_total",
        "Invocations per phase/step.",
        "counter",
        snapshot.steps.iter().map(|s| (step(s), s.count)),
    );
    x.family(
        "presto_step_busy_seconds_total",
        "Wall time per phase/step across workers.",
        "counter",
        snapshot.steps.iter().map(|s| (step(s), secs(s.busy_ns))),
    );
    x.family(
        "presto_step_latency_seconds",
        "Per-invocation latency quantiles.",
        "summary",
        snapshot.steps.iter().flat_map(|s| {
            let name = json_escape(&s.name);
            let quantile = |q: &str, ns: u64| {
                (
                    format!("{{step=\"{name}\",quantile=\"{q}\"}}"),
                    secs(ns).to_string(),
                )
            };
            [
                quantile("0.5", s.p50_ns),
                quantile("0.95", s.p95_ns),
                quantile("0.99", s.p99_ns),
                (format!("_count{{step=\"{name}\"}}"), s.count.to_string()),
                (
                    format!("_sum{{step=\"{name}\"}}"),
                    secs(s.busy_ns).to_string(),
                ),
            ]
        }),
    );

    let worker = |w: &WorkerSnapshot| format!("{{worker=\"{}\"}}", w.worker);
    x.family(
        "presto_worker_busy_seconds_total",
        "Measured busy time per worker.",
        "counter",
        snapshot
            .workers
            .iter()
            .map(|w| (worker(w), secs(w.busy_ns))),
    );
    x.family(
        "presto_worker_idle_seconds_total",
        "Unmeasured (idle) time per worker.",
        "counter",
        snapshot
            .workers
            .iter()
            .map(|w| (worker(w), secs(w.idle_ns))),
    );
    x.family(
        "presto_worker_samples_total",
        "Samples delivered per worker.",
        "counter",
        snapshot.workers.iter().map(|w| (worker(w), w.samples)),
    );

    let queue = &snapshot.queue;
    x.metric(
        "presto_queue_depth_max",
        "Deepest observed prefetch queue.",
        "gauge",
        queue.max_depth,
    );
    x.metric(
        "presto_queue_depth_mean",
        "Mean observed prefetch-queue depth.",
        "gauge",
        queue.mean_depth,
    );
    x.metric(
        "presto_queue_capacity",
        "Prefetch channel capacity.",
        "gauge",
        queue.capacity,
    );
    let plane = &snapshot.data_plane;
    for (name, help, value) in [
        (
            "presto_bundles_total",
            "Sample bundles handed to the prefetch ring.",
            plane.bundles,
        ),
        (
            "presto_pool_hits_total",
            "Scratch buffers served from the buffer pool.",
            plane.pool_hits,
        ),
        (
            "presto_pool_misses_total",
            "Buffer-pool requests that allocated fresh.",
            plane.pool_misses,
        ),
    ] {
        x.metric(name, help, "counter", value);
    }
}

/// The strategy-search progress gauges.
fn search_series(x: &mut Exposition, search: &SearchSnapshot) {
    for (name, help, value) in [
        (
            "presto_search_strategies_total",
            "Grid points the search will profile.",
            search.total,
        ),
        (
            "presto_search_strategies_completed",
            "Strategies fully profiled so far.",
            search.completed,
        ),
        (
            "presto_search_strategies_pruned",
            "Strategies eliminated by the pruned mode.",
            search.pruned,
        ),
        (
            "presto_search_memo_hits",
            "Offline simulations served from the shared memo.",
            search.memo_hits,
        ),
        (
            "presto_search_memo_misses",
            "Offline simulations actually run (unique offline phases).",
            search.memo_misses,
        ),
        (
            "presto_search_jobs",
            "Worker threads in the profiling pool.",
            search.jobs,
        ),
        (
            "presto_search_done",
            "Whether the search has finished (0/1).",
            u64::from(search.done),
        ),
    ] {
        x.metric(name, help, "gauge", value);
    }
}

/// The serve-session progress gauges.
fn serve_series(x: &mut Exposition, serve: &ServeSnapshot) {
    for (name, help, value) in [
        (
            "presto_serve_workers",
            "Peers in the serve session (connections or workers).",
            serve.workers,
        ),
        (
            "presto_serve_batches_sent_total",
            "BATCH frames sent over the wire.",
            serve.batches_sent,
        ),
        (
            "presto_serve_bytes_sent_total",
            "Wire bytes in BATCH frames.",
            serve.bytes_sent,
        ),
        (
            "presto_serve_credit_stalls_total",
            "Stalls waiting for flow-control credit.",
            serve.credit_stalls,
        ),
        (
            "presto_serve_credit_wait_ns_total",
            "Time spent stalled waiting for credit, nanoseconds.",
            serve.credit_wait_ns,
        ),
        (
            "presto_serve_credit_wakes_total",
            "Condvar wakeups while stalled on credit.",
            serve.credit_wakes,
        ),
        (
            "presto_serve_reassignments_total",
            "Shards reassigned after worker failures.",
            serve.reassignments,
        ),
        (
            "presto_serve_preemptions_total",
            "Worker connections lost mid-epoch (presumed preemptions).",
            serve.preemptions,
        ),
        (
            "presto_serve_reconnect_attempts_total",
            "Reconnect attempts to previously failed workers.",
            serve.reconnect_attempts,
        ),
        (
            "presto_serve_rejoins_total",
            "Workers re-admitted mid-epoch after a failure.",
            serve.rejoins,
        ),
        (
            "presto_serve_gap_wait_ns_total",
            "Client time blocked waiting for the first byte of a frame, ns.",
            serve.gap_wait_ns,
        ),
        (
            "presto_serve_stream_read_ns_total",
            "Client time reading frame bytes after the first byte, ns.",
            serve.stream_read_ns,
        ),
        (
            "presto_serve_consume_ns_total",
            "Client time the caller spent between pulls, ns.",
            serve.consume_ns,
        ),
        (
            "presto_serve_produce_ns_total",
            "Worker time producing samples (processing + pacing), ns.",
            serve.produce_ns,
        ),
        (
            "presto_serve_done",
            "Whether the serve session has finished (0/1).",
            u64::from(serve.done),
        ),
    ] {
        x.metric(name, help, "gauge", value);
    }
}

/// The fleet section, with a per-worker `worker="addr"` breakout.
fn fleet_series(x: &mut Exposition, fleet: &Fleet) {
    x.metric(
        "presto_fleet_trace_id",
        "Trace id of the fleet session.",
        "gauge",
        fleet.trace_id,
    );
    x.metric(
        "presto_fleet_workers",
        "Workers the fleet has contacted.",
        "gauge",
        fleet.workers.len(),
    );
    type Reading = fn(&RemoteWorker) -> i128;
    let families: [(&str, &str, Reading); 5] = [
        (
            "presto_fleet_worker_clock_offset_ns",
            "Estimated worker_mono - client_mono per connection, ns.",
            |w| w.clock_offset_ns.into(),
        ),
        (
            "presto_fleet_worker_rtt_ns",
            "Round-trip time of the clock-offset sample, ns.",
            |w| w.rtt_ns.into(),
        ),
        (
            "presto_fleet_worker_samples_total",
            "Samples produced per worker.",
            |w| w.epoch.samples.into(),
        ),
        (
            "presto_fleet_worker_produce_ns_total",
            "Time producing samples per worker, ns.",
            |w| w.serve.produce_ns.into(),
        ),
        (
            "presto_fleet_worker_credit_wait_ns_total",
            "Time stalled waiting for credit per worker, ns.",
            |w| w.serve.credit_wait_ns.into(),
        ),
    ];
    for (name, help, reading) in families {
        x.family(
            name,
            help,
            "gauge",
            fleet.workers.iter().map(|w| {
                (
                    format!("{{worker=\"{}\"}}", json_escape(&w.addr)),
                    reading(w),
                )
            }),
        );
    }
}

/// Per-tenant labeled series plus unlabeled sums.
///
/// The serve-layer counter families (`presto_serve_batches_total`,
/// `presto_serve_samples_total`, `presto_serve_bytes_total`) are
/// emitted once per tenant with a `tenant="…"` label *and* once
/// unlabeled carrying the sum — existing single-tenant dashboards
/// keep scraping the same name, multi-tenant ones select the label.
fn tenant_series(x: &mut Exposition, snapshot: &TenantsSnapshot) {
    x.metric(
        "presto_tenants_max_jobs",
        "Admission policy: max concurrently admitted jobs.",
        "gauge",
        snapshot.max_jobs,
    );
    x.metric(
        "presto_tenants_shard_quota",
        "Admission policy: per-tenant shard quota.",
        "gauge",
        snapshot.shard_quota,
    );
    x.metric(
        "presto_tenants_rejected_total",
        "Registrations refused by the admission controller.",
        "gauge",
        snapshot.rejected,
    );
    type Reading = fn(&TenantEntry) -> u64;
    let families: [(&str, &str, Reading); 6] = [
        (
            "presto_tenant_weight",
            "Deficit-round-robin weight from REGISTER.",
            |t| t.weight.into(),
        ),
        (
            "presto_tenant_requeues_total",
            "Shards requeued after backend failures, charged per tenant.",
            |t| t.requeues,
        ),
        (
            "presto_tenant_window_samples",
            "Samples delivered inside the fair-share window.",
            |t| t.window_samples,
        ),
        (
            "presto_serve_samples_total",
            "Samples delivered to clients.",
            |t| t.samples,
        ),
        (
            "presto_serve_batches_total",
            "BATCH frames delivered to clients.",
            |t| t.batches,
        ),
        (
            "presto_serve_bytes_total",
            "Compressed block bytes delivered to clients.",
            |t| t.bytes,
        ),
    ];
    for (name, help, reading) in families {
        let labeled = snapshot.tenants.iter().map(|t| {
            (
                format!("{{tenant=\"{}\"}}", json_escape(&t.name)),
                reading(t),
            )
        });
        // Back-compat unlabeled sum: single-tenant dashboards scrape
        // the bare name.
        let sum = snapshot.tenants.iter().map(reading).sum();
        x.family(name, help, "gauge", labeled.chain([(String::new(), sum)]));
    }
}

impl Scalar for PhaseKind {
    const KIND: &'static str = "a string";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
    /// A label this build does not know reads as a pipeline step.
    fn read(value: &JsonValue) -> Option<Self> {
        let label = value.as_str()?;
        let known = [PhaseKind::Io, PhaseKind::Cpu, PhaseKind::Deliver];
        Some(
            known
                .into_iter()
                .find(|kind| kind.label() == label)
                .unwrap_or_default(),
        )
    }
}

impl Record for StepSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.opt("kind", &mut self.kind);
        v.req("count", &mut self.count);
        v.req("busy_ns", &mut self.busy_ns);
        v.req("p50_ns", &mut self.p50_ns);
        v.req("p95_ns", &mut self.p95_ns);
        v.req("p99_ns", &mut self.p99_ns);
        v.req("max_ns", &mut self.max_ns);
    }
}

impl Record for WorkerSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("worker", &mut self.worker);
        v.req("busy_ns", &mut self.busy_ns);
        v.opt("deliver_ns", &mut self.deliver_ns);
        v.req("idle_ns", &mut self.idle_ns);
        v.req("samples", &mut self.samples);
        v.req("bytes_read", &mut self.bytes_read);
        v.req("retries", &mut self.retries);
    }
}

impl Record for QueueSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("capacity", &mut self.capacity);
        v.opt("observations", &mut self.observations);
        v.req("max_depth", &mut self.max_depth);
        v.fixed("mean_depth", &mut self.mean_depth, 3);
    }
}

impl Record for DataPlaneSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.opt("bundles", &mut self.bundles);
        v.opt("pool_hits", &mut self.pool_hits);
        v.opt("pool_misses", &mut self.pool_misses);
    }
}

/// The members of a `presto.telemetry.v1` document below its `mode`
/// tag. Spans are *not* part of the schema (use [`chrome_trace`]) and
/// read back empty.
impl Record for TelemetrySnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        let sps = self.samples_per_second();
        v.object("epoch", false, |v| {
            v.req("elapsed_ns", &mut self.elapsed_ns);
            v.req("threads", &mut self.threads);
            v.req("samples", &mut self.samples);
            v.derived("samples_per_second", sps, 3);
            v.req("bytes_read", &mut self.bytes_read);
            v.req("bytes_decoded", &mut self.bytes_decoded);
            v.opt("seed", &mut self.epoch_seed);
        });
        v.object("faults", false, |v| {
            v.req("retries", &mut self.retries);
            v.req("skipped_samples", &mut self.skipped_samples);
            v.req("lost_shards", &mut self.lost_shards);
            v.req("degraded", &mut self.degraded);
        });
        v.object("cache", false, |v| {
            v.req("hits", &mut self.cache_hits);
            v.req("misses", &mut self.cache_misses);
        });
        v.records("steps", &mut self.steps);
        v.records("workers", &mut self.workers);
        v.record("queue", &mut self.queue);
        v.object("data_plane", true, |v| self.data_plane.fields(v));
        v.opt("dropped_spans", &mut self.dropped_spans);
    }
}

/// The stable `presto.telemetry.v1` document: one epoch's snapshot
/// under an optional delivery-mode tag. Written by [`json`] /
/// [`json_with_mode`], read back with [`doc::read`]; the shape is
/// documented in `docs/observability.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDocument {
    /// Delivery mode (`"serve"` for epochs delivered by the
    /// disaggregated service); `None` is the plain single-process
    /// document, which omits the member.
    pub mode: Option<String>,
    /// The epoch.
    pub snapshot: TelemetrySnapshot,
}

impl Record for RunDocument {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.opt("mode", &mut self.mode);
        self.snapshot.fields(v);
    }
}

impl Document for RunDocument {
    const SCHEMA: &'static str = JSON_SCHEMA;
}

/// Render `snapshot` as an untagged `presto.telemetry.v1` document.
pub fn json(snapshot: &TelemetrySnapshot) -> String {
    json_with_mode(snapshot, None)
}

/// [`json`] with an explicit top-level `"mode"` tag.
pub fn json_with_mode(snapshot: &TelemetrySnapshot, mode: Option<&str>) -> String {
    doc::write(RunDocument {
        mode: mode.map(str::to_string),
        snapshot: snapshot.clone(),
    })
}

/// Render a process tree's span timelines as Chrome `trace_event`
/// JSON (the "JSON array format"): complete events (`ph: "X"`) with
/// microsecond `ts`/`dur`, plus `M` metadata events naming processes
/// and threads. A local run is one process, `presto realrun`, with one
/// track per worker; a tree with a fleet section is `train-client` with
/// one track per connection and each remote worker as its own process
/// (see [`crate::fleet::merge_chrome_trace`]). Load in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(tree: &Snapshot) -> String {
    trace_events(tree, None)
}

/// The one Chrome trace writer, behind [`chrome_trace`] and
/// [`crate::fleet::merge_chrome_trace`]: the tree's own spans on pid 1,
/// remote worker *i*'s on pid 2+i, and a chaos proxy's faults on pid 99.
pub(crate) fn trace_events(tree: &Snapshot, chaos: Option<&ChaosLog>) -> String {
    let none = TelemetrySnapshot::default();
    let epoch = tree.epoch.as_ref().unwrap_or(&none);
    let mut t = Trace(String::with_capacity(4096 + epoch.spans.len() * 96));
    t.0.push('[');
    match &tree.fleet {
        None => {
            t.meta("process_name", 1, 0, "presto realrun");
            for w in &epoch.workers {
                let name = format!("worker-{}", w.worker);
                t.meta("thread_name", 1, w.worker as u64, &name);
            }
        }
        Some(fleet) => {
            t.meta("process_name", 1, 0, "train-client");
            for w in &fleet.workers {
                let name = format!("conn-{} {}", w.conn, w.addr);
                t.meta("thread_name", 1, w.conn.into(), &name);
            }
            for (pid, w) in (2..).zip(&fleet.workers) {
                t.meta("process_name", pid, 0, &format!("serve-worker {}", w.addr));
            }
        }
    }
    // The tree's own spans: already relative to its epoch start.
    for span in &epoch.spans {
        t.span(epoch, span, span.start_ns as i128, span.dur_ns, 1, None);
    }
    // Remote spans: correct onto the client clock, then clamp into the
    // client-side envelope of that connection (clock-offset estimation
    // error must not break visual nesting; the raw value is kept).
    let fleet = tree.fleet.as_ref();
    let epoch_start = fleet.map_or(0, |f| f.epoch_start_mono_ns as i128);
    let workers = fleet.map_or(&[][..], |f| &f.workers);
    for (pid, w) in (2..).zip(workers) {
        let mine = || epoch.spans.iter().filter(|s| s.worker == w.conn);
        let envelope = mine().map(|s| s.start_ns).min().map(|lo| {
            let hi = mine().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(lo);
            (lo as i128, hi as i128)
        });
        let base = w.assign_start_mono_ns as i128 - w.clock_offset_ns as i128 - epoch_start;
        for span in &w.epoch.spans {
            let raw_start = base + span.start_ns as i128;
            let raw_end = raw_start + span.dur_ns as i128;
            let (start, end) = match envelope {
                Some((lo, hi)) => {
                    let s = raw_start.clamp(lo, hi);
                    (s, raw_end.clamp(s, hi))
                }
                None => (raw_start.max(0), raw_end.max(0)),
            };
            let args = (start != raw_start || end != raw_end)
                .then(|| format!("{{\"raw_ts_ns\": {raw_start}}}"));
            let dur = (end - start).max(0) as u64;
            t.span(&w.epoch, span, start, dur, pid, args.as_deref());
        }
    }
    // Chaos events: separate clock domain, normalized to first event.
    if let Some(chaos) = chaos {
        t.meta("process_name", 99, 0, "chaos-proxy");
        let t0 = chaos.events.iter().map(|e| e.t_ns).min().unwrap_or(0);
        for event in &chaos.events {
            let dir = if event.dir.is_empty() {
                "?"
            } else {
                &event.dir
            };
            let args = format!(
                "{{\"dir\": \"{}\", \"window\": {}}}",
                json_escape(dir),
                event.window
            );
            let ts_ns = event.t_ns as i128 - t0 as i128;
            let name = json_escape(&event.kind);
            t.event(
                &name,
                "chaos",
                ts_ns,
                event.dur_ns,
                99,
                event.conn,
                Some(&args),
            );
        }
    }
    t.0.push_str("\n]\n");
    t.0
}

/// A Chrome trace being written: one event per line after the `[`.
struct Trace(String);

impl Trace {
    fn open(&mut self) {
        self.0
            .push_str(if self.0.len() == 1 { "\n" } else { ",\n" });
    }

    fn meta(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        self.open();
        let name = json_escape(name);
        let _ = write!(
            self.0,
            "{{\"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}}"
        );
    }

    /// A span of `epoch`, named after its phase.
    fn span(
        &mut self,
        epoch: &TelemetrySnapshot,
        span: &SpanEvent,
        ts_ns: i128,
        dur_ns: u64,
        pid: u64,
        args: Option<&str>,
    ) {
        let (name, cat) = match epoch.steps.get(span.phase as usize) {
            Some(step) => (json_escape(&step.name), step.kind.label()),
            None => (format!("phase-{}", span.phase), "step"),
        };
        self.event(&name, cat, ts_ns, dur_ns, pid, span.worker.into(), args);
    }

    #[allow(clippy::too_many_arguments)]
    fn event(
        &mut self,
        name: &str,
        cat: &str,
        ts_ns: i128,
        dur_ns: u64,
        pid: u64,
        tid: u64,
        args: Option<&str>,
    ) {
        self.open();
        let _ = write!(
            self.0,
            "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {tid}",
            ts_ns as f64 / 1e3,
            dur_ns as f64 / 1e3
        );
        if let Some(args) = args {
            let _ = write!(self.0, ", \"args\": {args}");
        }
        self.0.push('}');
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to validate exporter output without
// pulling a JSON dependency into the workspace.
// ---------------------------------------------------------------------------

/// A parsed JSON value (minimal model: numbers are `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member of an object by key, or an error naming the missing
    /// field. Prefer this over `get(..).unwrap()` anywhere a malformed
    /// document must produce a diagnosable message instead of a panic.
    pub fn require(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required field '{key}'"))
    }

    /// Required numeric member by key.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.require(key)?
            .as_f64()
            .ok_or_else(|| format!("field '{key}' must be a number"))
    }

    /// Required string member by key.
    pub fn require_str(&self, key: &str) -> Result<&str, String> {
        self.require(key)?
            .as_str()
            .ok_or_else(|| format!("field '{key}' must be a string"))
    }
}

/// Look up a series by exact name in [`parse_prometheus`] output, or
/// an error naming the missing series.
pub fn series_value(series: &[(String, f64)], name: &str) -> Result<f64, String> {
    series
        .iter()
        .find(|(s, _)| s == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing series '{name}'"))
}

/// Deepest container nesting [`parse_json`] follows. The parser
/// recurses once per level, so input decides its stack depth; our
/// deepest document nests 5.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let container = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Bytes, not chars: a multi-byte character arrives one byte at
        // a time and is whole again once the closing quote is reached.
        let mut out = Vec::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                c => return Err(format!("expected ',' or ']' got '{}'", c as char)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                c => return Err(format!("expected ',' or '}}' got '{}'", c as char)),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// Validate a Chrome trace document: a JSON array whose `ph: "X"`
/// events all carry `name`/`ts`/`dur`/`pid`/`tid`. Returns the number
/// of complete (`X`) events.
pub fn validate_chrome_trace(input: &str) -> Result<usize, String> {
    let doc = parse_json(input)?;
    let events = doc
        .as_array()
        .ok_or_else(|| "trace must be a JSON array".to_string())?;
    let mut complete = 0;
    for event in events {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "every event needs a string 'ph'".to_string())?;
        if event.get("name").and_then(JsonValue::as_str).is_none() {
            return Err("every event needs a string 'name'".into());
        }
        for field in ["pid", "tid"] {
            if event.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("every event needs numeric '{field}'"));
            }
        }
        if ph == "X" {
            for field in ["ts", "dur"] {
                if event.get(field).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("complete events need numeric '{field}'"));
                }
            }
            complete += 1;
        }
    }
    Ok(complete)
}

/// Parse Prometheus text exposition: returns `(name{labels}, value)`
/// pairs for every sample line, or an error on malformed lines. Used
/// by tests to round-trip [`prometheus`] output.
pub fn parse_prometheus(input: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: '{line}'", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value '{value}'", lineno + 1))?;
        let series = series.trim();
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: invalid metric name '{name}'", lineno + 1));
        }
        if name_end < series.len() && !series.ends_with('}') {
            return Err(format!("line {}: unterminated labels", lineno + 1));
        }
        out.push((series.to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, PHASE_READ};
    use std::time::Duration;

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&["resize\"odd".into(), "crop".into()], 2, 8);
        for worker in 0..2 {
            for _ in 0..5 {
                let t0 = rec.begin().unwrap();
                rec.phase_done(worker, PHASE_READ, t0);
                let t1 = rec.begin().unwrap();
                rec.phase_done(worker, crate::BUILTIN_PHASES, t1);
                rec.samples_done(worker, 1);
                rec.bytes_read(worker, 128);
                rec.queue_depth(worker + 1);
            }
        }
        rec.retries(0, 2);
        rec.cache_hits(1);
        rec.cache_misses(9);
        rec.finish(Duration::from_millis(100), 10, 1280, 2, 0, 0, false);
        rec.snapshot()
    }

    fn read_run(input: &str) -> Result<RunDocument, String> {
        doc::read(input)
    }

    #[test]
    fn json_roundtrips_and_validates() -> Result<(), String> {
        let mut snap = sample_snapshot();
        let written = json(&snap);
        // Spans are not part of the schema; everything else reads back.
        snap.spans.clear();
        assert_eq!(read_run(&written)?.snapshot, snap);
        let doc = parse_json(&written)?;
        assert_eq!(doc.require("epoch")?.require_f64("samples")?, 10.0);
        assert_eq!(doc.require("faults")?.require_f64("retries")?, 2.0);
        // The new optional seed field round-trips too.
        assert_eq!(doc.require("epoch")?.require_f64("seed")?, 0.0);
        let steps = doc
            .require("steps")?
            .as_array()
            .ok_or("'steps' must be an array")?;
        assert_eq!(steps.len(), snap.steps.len());
        // The escaped step name survives the round trip.
        assert!(steps
            .iter()
            .any(|s| s.get("name").and_then(JsonValue::as_str) == Some("resize\"odd")));
        Ok(())
    }

    #[test]
    fn prometheus_parses_and_carries_totals() -> Result<(), String> {
        let snap = sample_snapshot();
        let series = parse_prometheus(&prometheus(&snap.into()))?;
        assert_eq!(series_value(&series, "presto_epoch_samples_total")?, 10.0);
        assert_eq!(
            series_value(&series, "presto_epoch_bytes_read_total")?,
            1280.0
        );
        assert_eq!(series_value(&series, "presto_epoch_retries_total")?, 2.0);
        assert_eq!(series_value(&series, "presto_queue_depth_max")?, 2.0);
        assert_eq!(
            series_value(&series, "presto_dropped_spans_total")?,
            series_value(&series, "presto_epoch_dropped_spans_total")?,
            "alias must mirror the epoch counter"
        );
        assert!(series
            .iter()
            .any(|(s, _)| s.starts_with("presto_step_latency_seconds{")));
        series_value(&series, "presto_worker_busy_seconds_total{worker=\"1\"}")?;
        Ok(())
    }

    #[test]
    fn chrome_trace_loads_as_trace_event_array() {
        let snap = sample_snapshot();
        let trace = chrome_trace(&snap.clone().into());
        let complete = validate_chrome_trace(&trace).expect("valid trace_event JSON");
        assert_eq!(complete, snap.spans.len());
        let doc = parse_json(&trace).expect("trace parses");
        let events = doc.as_array().expect("trace is an array");
        // Metadata events name the process and both workers.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M")));
        // Spans are sorted by ts.
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| e.require_f64("ts").expect("X events carry ts"))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(read_run("{").is_err());
        assert!(read_run("{}").is_err());
        assert!(read_run("{\"schema\": \"presto.telemetry.v2\"}").is_err());
        let mut good = json(&sample_snapshot());
        good = good.replace("\"faults\"", "\"falts\"");
        assert!(read_run(&good).unwrap_err().contains("'faults'"));
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"ph\": \"X\"}]").is_err());
        assert!(parse_prometheus("presto bad value").is_err());
        // Non-numeric optional seed is still rejected.
        let seeded = json(&sample_snapshot()).replace("\"seed\": 0", "\"seed\": \"x\"");
        assert!(read_run(&seeded).unwrap_err().contains("epoch.seed"));
    }

    #[test]
    fn mode_tag_round_trips_and_is_type_checked() {
        let snap = sample_snapshot();
        let tagged = json_with_mode(&snap, Some("serve"));
        let run = read_run(&tagged).expect("mode-tagged document validates");
        assert_eq!(run.mode.as_deref(), Some("serve"));
        // Untagged documents still omit and still validate.
        let plain = json(&snap);
        assert!(!plain.contains("\"mode\""));
        assert_eq!(
            read_run(&plain).expect("plain document validates").mode,
            None
        );
        // A non-string mode is rejected.
        let bad = tagged.replace("\"mode\": \"serve\"", "\"mode\": 3");
        assert!(read_run(&bad).unwrap_err().contains("mode"));
    }

    #[test]
    fn prometheus_serve_gauges_parse() -> Result<(), String> {
        let progress = crate::ServeProgress::default();
        progress.begin(2);
        progress.batch_sent(4096);
        progress.batch_sent(1024);
        progress.credit_stall();
        progress.credit_wait(7_000, 2);
        progress.record_reassignments(3);
        progress.record_preemption();
        progress.record_reconnect_attempt();
        progress.record_reconnect_attempt();
        progress.record_rejoin();
        progress.finish();
        let tree = Snapshot {
            serve: Some(progress.snapshot()),
            ..Snapshot::default()
        };
        let series = parse_prometheus(&prometheus(&tree))?;
        assert_eq!(series_value(&series, "presto_serve_workers")?, 2.0);
        assert_eq!(
            series_value(&series, "presto_serve_batches_sent_total")?,
            2.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_bytes_sent_total")?,
            5120.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_credit_stalls_total")?,
            1.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_reassignments_total")?,
            3.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_credit_wait_ns_total")?,
            7000.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_credit_wakes_total")?,
            2.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_preemptions_total")?,
            1.0
        );
        assert_eq!(
            series_value(&series, "presto_serve_reconnect_attempts_total")?,
            2.0
        );
        assert_eq!(series_value(&series, "presto_serve_rejoins_total")?, 1.0);
        assert_eq!(series_value(&series, "presto_serve_done")?, 1.0);
        Ok(())
    }

    #[test]
    fn require_helpers_name_the_missing_field() {
        let doc = parse_json("{\"epoch\": {\"samples\": 3, \"label\": \"cv\"}}").expect("parses");
        let err = doc.require("steps").unwrap_err();
        assert!(err.contains("steps"), "error should name the field: {err}");
        let epoch = doc.require("epoch").expect("present");
        assert_eq!(epoch.require_f64("samples"), Ok(3.0));
        assert_eq!(epoch.require_str("label"), Ok("cv"));
        // Wrong-type errors name the field and the expected type.
        let err = epoch.require_f64("label").unwrap_err();
        assert!(err.contains("label") && err.contains("number"), "{err}");
        let err = epoch.require_str("samples").unwrap_err();
        assert!(err.contains("samples") && err.contains("string"), "{err}");
        // Series lookup on parsed Prometheus text names the series.
        let series = parse_prometheus("a_total 1\nb_total 2\n").expect("parses");
        assert_eq!(series_value(&series, "b_total"), Ok(2.0));
        let err = series_value(&series, "c_total").unwrap_err();
        assert!(err.contains("c_total"), "{err}");
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let round = parse_json(&format!("\"{}\"", json_escape("a\"b\\c\nd\t\u{1}"))).unwrap();
        assert_eq!(round.as_str(), Some("a\"b\\c\nd\t\u{1}"));
    }
}
