#![warn(missing_docs)]

//! # presto-telemetry
//!
//! Lock-cheap observability for the real execution engine: the answer
//! to the paper's title question — *where is my training bottleneck?* —
//! measured on an actual run instead of read off a simulation.
//!
//! The design splits into three layers:
//!
//! - a **metrics registry** ([`EpochRecorder`]): atomic counters and
//!   gauges plus log-bucketed latency [`Histogram`]s (p50/p95/p99)
//!   recording per-step wall time, per-worker busy time, prefetch-queue
//!   depth, bytes read/decoded, cache hits/misses and fault counts.
//!   The hot-path cost is one `Instant::now()` pair and a handful of
//!   relaxed atomic adds per sample; a disabled recorder reduces every
//!   call to a single branch (see `benches/telemetry_overhead.rs`),
//! - a **span recorder**: a bounded per-worker timeline of
//!   worker × step activity ([`SpanEvent`]), exportable as Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto,
//! - **exporters** ([`export`]): Prometheus text exposition, a stable
//!   JSON schema (`presto.telemetry.v1`), and the Chrome trace,
//! - a **continuous layer**: a [`timeseries`] sampler thread turning
//!   the registry into a ring buffer of mid-epoch observations, an
//!   embedded dependency-free [`http`] server exposing `/metrics`,
//!   `/timeseries.json` and `/healthz`, and a [`history`] store that
//!   appends sealed run snapshots under `.presto/runs/` for
//!   cross-run regression tracking.
//!
//! See `docs/observability.md` for the schemas and how to read traces.

pub mod alloc;
pub mod causal;
pub mod doc;
pub mod export;
pub mod fleet;
pub mod history;
pub mod http;
pub mod tenants;
pub mod timeseries;

pub use fleet::{FleetProgress, FleetSnapshot, FleetWorkerEntry};
pub use tenants::{TenantEntry, TenantsProgress, TenantsSnapshot};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of log2 buckets: values are bucketed by bit length, so
/// bucket `b` holds durations in `[2^(b-1), 2^b)` nanoseconds.
const BUCKETS: usize = 65;

/// Default cap on recorded span events per epoch (~1.5 MB of timeline).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A concurrent log2-bucketed latency histogram over nanosecond
/// durations. Recording is two relaxed atomic adds plus an atomic max;
/// quantiles are estimated at the recorded bucket's midpoint, so the
/// relative error is bounded by the bucket width (< 2×, and in
/// practice well under 50% for the microsecond-to-millisecond range
/// the engine lives in).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(value_ns: u64) -> usize {
        (64 - value_ns.leading_zeros()) as usize
    }

    /// Midpoint of bucket `b` (its representative value).
    fn bucket_mid(b: usize) -> u64 {
        if b == 0 {
            return 0;
        }
        let lo = 1u64 << (b - 1);
        let hi = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        lo / 2 + hi / 2 + 1
    }

    /// Record one duration.
    pub fn record(&self, value_ns: u64) {
        self.buckets[Self::bucket_of(value_ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_ns, Ordering::Relaxed);
        self.max.fetch_max(value_ns, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded duration, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) in nanoseconds.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_mid(b).min(self.max_ns());
            }
        }
        self.max_ns()
    }
}

/// What a timed phase spends its wall time on — the signal the
/// bottleneck attribution keys off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhaseKind {
    /// Storage I/O (shard fetches).
    Io,
    /// Fixed per-shard CPU work (decompression, record framing).
    Cpu,
    /// Handing finished samples to the consumer: the `consume`
    /// callback, or blocking on the bounded prefetch channel.
    Deliver,
    /// A pipeline step proper.
    #[default]
    Step,
}

impl PhaseKind {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Io => "io",
            PhaseKind::Cpu => "cpu",
            PhaseKind::Deliver => "deliver",
            PhaseKind::Step => "step",
        }
    }
}

/// Built-in engine phases, always present before the pipeline's own
/// steps in [`TelemetrySnapshot::steps`].
pub const PHASE_READ: usize = 0;
/// Shard decompression phase index.
pub const PHASE_DECOMPRESS: usize = 1;
/// Record parsing + sample decoding phase index.
pub const PHASE_DECODE: usize = 2;
/// Delivery sub-phase: blocking until the consumer side has room
/// (bounded prefetch channel full, flow-control credit exhausted).
/// High time here means the run is backpressure-bound.
pub const PHASE_QUEUE_WAIT: usize = 3;
/// Delivery sub-phase: the actual transfer of a finished sample to
/// the consumer (consume callback, non-blocking channel send, wire
/// write). High time here means delivery itself is the compute cost.
pub const PHASE_HANDOFF: usize = 4;
/// Number of built-in phases; pipeline steps start at this index.
pub const BUILTIN_PHASES: usize = 5;

fn phase_kind(index: usize) -> PhaseKind {
    match index {
        PHASE_READ => PhaseKind::Io,
        PHASE_DECOMPRESS | PHASE_DECODE => PhaseKind::Cpu,
        PHASE_QUEUE_WAIT | PHASE_HANDOFF => PhaseKind::Deliver,
        _ => PhaseKind::Step,
    }
}

/// One timed interval of one worker, relative to the epoch start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanEvent {
    /// Worker (thread) index.
    pub worker: u32,
    /// Index into [`TelemetrySnapshot::steps`].
    pub phase: u32,
    /// Start offset from the epoch start, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Per-phase allocation totals (fed by [`EpochRecorder::alloc_done`];
/// all zeros unless a counting allocator is installed — see
/// [`alloc`]).
#[derive(Debug, Default)]
struct AllocSlot {
    bytes: AtomicU64,
    count: AtomicU64,
    peak_live: AtomicU64,
}

/// Per-worker mutable state. Spans live in a per-worker buffer so
/// workers never contend on a shared lock for the timeline.
#[derive(Debug, Default)]
struct WorkerSlot {
    busy_ns: AtomicU64,
    deliver_ns: AtomicU64,
    samples: AtomicU64,
    bytes_read: AtomicU64,
    retries: AtomicU64,
    spans: Mutex<Vec<SpanEvent>>,
}

/// The per-epoch metrics registry: every counter, gauge, histogram and
/// span buffer for one epoch of the real engine. Obtain one from
/// [`Telemetry::begin_epoch`]; the engine records into it and the
/// caller reads it back as a [`TelemetrySnapshot`].
#[derive(Debug)]
pub struct EpochRecorder {
    enabled: bool,
    started: Instant,
    names: Vec<String>,
    phase_times: Vec<Histogram>,
    alloc_slots: Vec<AllocSlot>,
    buffer_allocs: AtomicU64,
    buffer_reuses: AtomicU64,
    bundles: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    workers: Vec<WorkerSlot>,
    queue_capacity: u64,
    queue_observations: AtomicU64,
    queue_depth_sum: AtomicU64,
    queue_depth_max: AtomicU64,
    span_capacity: usize,
    spans_recorded: AtomicU64,
    spans_dropped: AtomicU64,
    samples: AtomicU64,
    bytes_read: AtomicU64,
    bytes_decoded: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    retries: AtomicU64,
    skipped_samples: AtomicU64,
    lost_shards: AtomicU64,
    degraded: AtomicBool,
    elapsed_ns: AtomicU64,
    epoch_seed: AtomicU64,
}

impl EpochRecorder {
    fn new(
        step_names: &[String],
        workers: usize,
        queue_capacity: usize,
        span_capacity: usize,
    ) -> Self {
        let mut names = vec![
            "read".to_string(),
            "decompress".to_string(),
            "decode".to_string(),
            "queue-wait".to_string(),
            "hand-off".to_string(),
        ];
        names.extend(step_names.iter().cloned());
        let phase_times = names.iter().map(|_| Histogram::new()).collect();
        let alloc_slots = names.iter().map(|_| AllocSlot::default()).collect();
        EpochRecorder {
            enabled: true,
            started: Instant::now(),
            names,
            phase_times,
            alloc_slots,
            buffer_allocs: AtomicU64::new(0),
            buffer_reuses: AtomicU64::new(0),
            bundles: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
            queue_capacity: queue_capacity as u64,
            queue_observations: AtomicU64::new(0),
            queue_depth_sum: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            span_capacity,
            spans_recorded: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_decoded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            skipped_samples: AtomicU64::new(0),
            lost_shards: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            elapsed_ns: AtomicU64::new(0),
            epoch_seed: AtomicU64::new(0),
        }
    }

    /// A recorder whose every method is a single-branch no-op — the
    /// "no-op registry" an un-instrumented run pays for.
    pub fn noop() -> Arc<Self> {
        Arc::new(EpochRecorder {
            enabled: false,
            ..EpochRecorder::new(&[], 0, 0, 0)
        })
    }

    /// True when this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A timestamp for a phase about to run, or `None` when disabled
    /// (so the hot path skips the clock read entirely).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a completed phase of `worker` that started at `t0`
    /// (from [`EpochRecorder::begin`]): latency histogram, worker busy
    /// time, and — budget permitting — a span event.
    pub fn phase_done(&self, worker: usize, phase: usize, t0: Instant) {
        if !self.enabled {
            return;
        }
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.phase_times[phase].record(dur_ns);
        let slot = &self.workers[worker];
        slot.busy_ns.fetch_add(dur_ns, Ordering::Relaxed);
        if phase_kind(phase) == PhaseKind::Deliver {
            slot.deliver_ns.fetch_add(dur_ns, Ordering::Relaxed);
        }
        if self.spans_recorded.fetch_add(1, Ordering::Relaxed) < self.span_capacity as u64 {
            let start_ns = t0.duration_since(self.started).as_nanos() as u64;
            slot.spans.lock().push(SpanEvent {
                worker: worker as u32,
                phase: phase as u32,
                start_ns,
                dur_ns,
            });
        } else {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Open an allocation-attribution scope for a phase about to run,
    /// or `None` when disabled. Pair with [`EpochRecorder::alloc_done`]
    /// at the same site that calls [`EpochRecorder::phase_done`].
    #[inline]
    pub fn alloc_begin(&self) -> Option<alloc::ScopeState> {
        if self.enabled {
            Some(alloc::scope_begin())
        } else {
            None
        }
    }

    /// Close an allocation scope and charge the observed delta to
    /// `phase`. Zeros flow through (and are skipped) when no counting
    /// allocator is installed.
    pub fn alloc_done(&self, phase: usize, state: alloc::ScopeState) {
        if !self.enabled {
            return;
        }
        let delta = alloc::scope_end(state);
        if delta.count == 0 && delta.bytes == 0 {
            return;
        }
        let slot = &self.alloc_slots[phase];
        slot.bytes.fetch_add(delta.bytes, Ordering::Relaxed);
        slot.count.fetch_add(delta.count, Ordering::Relaxed);
        slot.peak_live.fetch_max(delta.peak_live, Ordering::Relaxed);
    }

    /// Count `n` fresh sample/frame buffers materialized (shard
    /// decompression, sample decode).
    #[inline]
    pub fn buffer_allocs(&self, n: u64) {
        if self.enabled && n > 0 {
            self.buffer_allocs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` buffers served again without re-materializing
    /// (application-cache replays).
    #[inline]
    pub fn buffer_reuses(&self, n: u64) {
        if self.enabled && n > 0 {
            self.buffer_reuses.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` sample bundles handed to the prefetch ring (each one
    /// hand-off covering up to the engine's bundle size of samples).
    #[inline]
    pub fn bundles(&self, n: u64) {
        if self.enabled && n > 0 {
            self.bundles.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` scratch buffers served from the engine's buffer pool.
    #[inline]
    pub fn pool_hits(&self, n: u64) {
        if self.enabled && n > 0 {
            self.pool_hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` pool requests that had to allocate fresh (cold pool
    /// or all shelves checked out).
    #[inline]
    pub fn pool_misses(&self, n: u64) {
        if self.enabled && n > 0 {
            self.pool_misses.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The allocation attribution recorded so far: one entry per
    /// phase/step (same order as [`TelemetrySnapshot::steps`]) plus
    /// the buffer-reuse counters.
    pub fn alloc_profile(&self) -> alloc::AllocProfile {
        alloc::AllocProfile {
            steps: self
                .names
                .iter()
                .zip(&self.alloc_slots)
                .map(|(name, slot)| alloc::AllocStepReport {
                    name: name.clone(),
                    bytes: slot.bytes.load(Ordering::Relaxed),
                    allocations: slot.count.load(Ordering::Relaxed),
                    peak_live: slot.peak_live.load(Ordering::Relaxed),
                })
                .collect(),
            buffer_allocs: self.buffer_allocs.load(Ordering::Relaxed),
            buffer_reuses: self.buffer_reuses.load(Ordering::Relaxed),
        }
    }

    /// Count `n` delivered samples for `worker`.
    #[inline]
    pub fn samples_done(&self, worker: usize, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        self.workers[worker].samples.fetch_add(n, Ordering::Relaxed);
        self.samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Count compressed bytes fetched from the store by `worker`.
    #[inline]
    pub fn bytes_read(&self, worker: usize, n: u64) {
        if !self.enabled {
            return;
        }
        self.workers[worker]
            .bytes_read
            .fetch_add(n, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Count decompressed (framed) bytes produced by `worker`.
    #[inline]
    pub fn bytes_decoded(&self, n: u64) {
        if !self.enabled {
            return;
        }
        self.bytes_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Count storage retries performed by `worker`.
    #[inline]
    pub fn retries(&self, worker: usize, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        self.workers[worker].retries.fetch_add(n, Ordering::Relaxed);
        self.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Count samples served from the application cache.
    #[inline]
    pub fn cache_hits(&self, n: u64) {
        if self.enabled {
            self.cache_hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count samples that had to be produced despite a cache being
    /// attached (the fill epoch).
    #[inline]
    pub fn cache_misses(&self, n: u64) {
        if self.enabled {
            self.cache_misses.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record an observation of the prefetch channel's depth.
    #[inline]
    pub fn queue_depth(&self, depth: usize) {
        if !self.enabled {
            return;
        }
        self.queue_observations.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_sum
            .fetch_add(depth as u64, Ordering::Relaxed);
        self.queue_depth_max
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Seal the epoch: store the authoritative end-of-epoch totals
    /// (the same numbers the engine returns in its `EpochStats`) and
    /// the wall time. Safe to call more than once; the last call wins.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        elapsed: Duration,
        samples: u64,
        bytes_read: u64,
        retries: u64,
        skipped_samples: u64,
        lost_shards: u64,
        degraded: bool,
    ) {
        if !self.enabled {
            return;
        }
        self.elapsed_ns
            .store(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.samples.store(samples, Ordering::Relaxed);
        self.bytes_read.store(bytes_read, Ordering::Relaxed);
        self.retries.store(retries, Ordering::Relaxed);
        self.skipped_samples
            .store(skipped_samples, Ordering::Relaxed);
        self.lost_shards.store(lost_shards, Ordering::Relaxed);
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Label this epoch with the engine's epoch seed, so mid-run
    /// observers ([`timeseries::Sampler`], `presto watch`) can tell
    /// which epoch a sample belongs to.
    #[inline]
    pub fn set_epoch_seed(&self, seed: u64) {
        if self.enabled {
            self.epoch_seed.store(seed, Ordering::Relaxed);
        }
    }

    /// The epoch seed set via [`EpochRecorder::set_epoch_seed`].
    pub fn epoch_seed(&self) -> u64 {
        self.epoch_seed.load(Ordering::Relaxed)
    }

    /// Materialize everything recorded so far into a plain snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_inner(true)
    }

    /// A metrics-only snapshot: identical to [`EpochRecorder::snapshot`]
    /// but without cloning the span timeline, so it never touches a
    /// worker's span mutex. This is what the [`timeseries::Sampler`]
    /// thread and the [`http`] endpoints read mid-epoch — the hot path
    /// only ever sees relaxed atomic loads from another core.
    pub fn light_snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_inner(false)
    }

    fn snapshot_inner(&self, with_spans: bool) -> TelemetrySnapshot {
        let elapsed_ns = {
            let sealed = self.elapsed_ns.load(Ordering::Relaxed);
            if sealed > 0 {
                sealed
            } else {
                self.started.elapsed().as_nanos() as u64
            }
        };
        let steps = self
            .names
            .iter()
            .zip(&self.phase_times)
            .enumerate()
            .map(|(i, (name, hist))| StepSnapshot {
                name: name.clone(),
                kind: phase_kind(i),
                count: hist.count(),
                busy_ns: hist.sum_ns(),
                p50_ns: hist.quantile(0.50),
                p95_ns: hist.quantile(0.95),
                p99_ns: hist.quantile(0.99),
                max_ns: hist.max_ns(),
            })
            .collect();
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let busy_ns = slot.busy_ns.load(Ordering::Relaxed);
                WorkerSnapshot {
                    worker: i,
                    busy_ns,
                    deliver_ns: slot.deliver_ns.load(Ordering::Relaxed),
                    idle_ns: elapsed_ns.saturating_sub(busy_ns),
                    samples: slot.samples.load(Ordering::Relaxed),
                    bytes_read: slot.bytes_read.load(Ordering::Relaxed),
                    retries: slot.retries.load(Ordering::Relaxed),
                }
            })
            .collect();
        let mut spans: Vec<SpanEvent> = if with_spans {
            self.workers
                .iter()
                .flat_map(|slot| slot.spans.lock().clone())
                .collect()
        } else {
            Vec::new()
        };
        spans.sort_by_key(|s| (s.start_ns, s.worker));
        let observations = self.queue_observations.load(Ordering::Relaxed);
        let queue = QueueSnapshot {
            capacity: self.queue_capacity,
            observations,
            max_depth: self.queue_depth_max.load(Ordering::Relaxed),
            mean_depth: if observations == 0 {
                0.0
            } else {
                self.queue_depth_sum.load(Ordering::Relaxed) as f64 / observations as f64
            },
        };
        let data_plane = DataPlaneSnapshot {
            bundles: self.bundles.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
        };
        TelemetrySnapshot {
            elapsed_ns,
            epoch_seed: self.epoch_seed.load(Ordering::Relaxed),
            threads: self.workers.len(),
            samples: self.samples.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_decoded: self.bytes_decoded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            skipped_samples: self.skipped_samples.load(Ordering::Relaxed),
            lost_shards: self.lost_shards.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            steps,
            workers,
            queue,
            data_plane,
            spans,
            dropped_spans: self.spans_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Handle attaching observability to an executor. Cloneable via `Arc`;
/// one epoch at a time is recorded, and the most recent epoch's
/// recorder stays readable until the next one begins.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    span_capacity: usize,
    last: Mutex<Option<Arc<EpochRecorder>>>,
    search: Arc<SearchProgress>,
    serve: Arc<ServeProgress>,
    fleet: Arc<FleetProgress>,
    tenants: Arc<TenantsProgress>,
}

impl Telemetry {
    /// An enabled telemetry handle with the default span budget.
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry {
            enabled: true,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            last: Mutex::new(None),
            search: Arc::new(SearchProgress::default()),
            serve: Arc::new(ServeProgress::default()),
            fleet: Arc::new(FleetProgress::default()),
            tenants: Arc::new(TenantsProgress::default()),
        })
    }

    /// A no-op handle: every recorder it hands out is disabled. Used
    /// by the instrumentation-overhead benchmark as the control arm.
    pub fn disabled() -> Arc<Self> {
        Arc::new(Telemetry {
            enabled: false,
            span_capacity: 0,
            last: Mutex::new(None),
            search: Arc::new(SearchProgress::default()),
            serve: Arc::new(ServeProgress::default()),
            fleet: Arc::new(FleetProgress::default()),
            tenants: Arc::new(TenantsProgress::default()),
        })
    }

    /// An enabled handle with a custom span-event budget per epoch
    /// (0 disables the timeline but keeps the metrics).
    pub fn with_span_capacity(span_capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            enabled: true,
            span_capacity,
            last: Mutex::new(None),
            search: Arc::new(SearchProgress::default()),
            serve: Arc::new(ServeProgress::default()),
            fleet: Arc::new(FleetProgress::default()),
            tenants: Arc::new(TenantsProgress::default()),
        })
    }

    /// True when recorders from this handle record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start recording an epoch over `step_names` (online pipeline
    /// steps, in order) on `workers` threads with a prefetch channel
    /// of `queue_capacity` (0 for the callback engine).
    pub fn begin_epoch(
        &self,
        step_names: &[String],
        workers: usize,
        queue_capacity: usize,
    ) -> Arc<EpochRecorder> {
        let recorder = if self.enabled {
            Arc::new(EpochRecorder::new(
                step_names,
                workers,
                queue_capacity,
                self.span_capacity,
            ))
        } else {
            EpochRecorder::noop()
        };
        *self.last.lock() = Some(Arc::clone(&recorder));
        recorder
    }

    /// Snapshot of the most recently recorded epoch, if any.
    pub fn last_epoch(&self) -> Option<TelemetrySnapshot> {
        self.last.lock().as_ref().map(|r| r.snapshot())
    }

    /// The recorder of the epoch currently (or most recently)
    /// recording — the handle a [`timeseries::Sampler`] or [`http`]
    /// endpoint polls mid-run. `Arc` identity changes at every
    /// [`Telemetry::begin_epoch`], which is how observers detect epoch
    /// boundaries.
    pub fn current_recorder(&self) -> Option<Arc<EpochRecorder>> {
        self.last.lock().clone()
    }

    /// The strategy-search progress gauge set attached to this handle.
    /// A search engine writes to it; `/metrics` and `presto watch
    /// --search` read it.
    pub fn search(&self) -> Arc<SearchProgress> {
        Arc::clone(&self.search)
    }

    /// The serve-session progress gauge set attached to this handle.
    /// A `presto-serve` worker writes to it; `/metrics` reads it.
    pub fn serve(&self) -> Arc<ServeProgress> {
        Arc::clone(&self.serve)
    }

    /// The fleet registry attached to this handle: per-worker clock
    /// offsets, remote stats and remote span timelines collected by a
    /// serve client. `/fleet.json` and `presto trace` read it.
    pub fn fleet(&self) -> Arc<FleetProgress> {
        Arc::clone(&self.fleet)
    }

    /// The multi-tenant registry attached to this handle: admission
    /// decisions, per-tenant delivery counters and the fair-share
    /// window (see [`tenants`]). `fleetd` writes to it; `/tenants.json`
    /// and the labeled `/metrics` series read it.
    pub fn tenants(&self) -> Arc<TenantsProgress> {
        Arc::clone(&self.tenants)
    }
}

/// Live progress of a strategy search: monotonic gauges written with
/// relaxed atomics by the profiling pool and read lock-free by
/// exporters. All counts reset on [`SearchProgress::begin`].
#[derive(Debug, Default)]
pub struct SearchProgress {
    total: AtomicU64,
    completed: AtomicU64,
    pruned: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    jobs: AtomicU64,
    done: AtomicU64,
}

impl SearchProgress {
    /// Start (or restart) a search over `total` grid points on `jobs`
    /// worker threads. Resets every counter.
    pub fn begin(&self, total: u64, jobs: u64) {
        self.total.store(total, Ordering::Relaxed);
        self.jobs.store(jobs, Ordering::Relaxed);
        self.completed.store(0, Ordering::Relaxed);
        self.pruned.store(0, Ordering::Relaxed);
        self.memo_hits.store(0, Ordering::Relaxed);
        self.memo_misses.store(0, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
    }

    /// Grow the grid mid-search (the pruned mode adds the full-fidelity
    /// re-profiling rung once survivors are known).
    pub fn add_total(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one finished strategy profile.
    pub fn strategy_done(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` strategies eliminated by pruning.
    pub fn record_pruned(&self, n: u64) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Publish the offline-memo hit/miss counters.
    pub fn set_memo(&self, hits: u64, misses: u64) {
        self.memo_hits.store(hits, Ordering::Relaxed);
        self.memo_misses.store(misses, Ordering::Relaxed);
    }

    /// Mark the search finished.
    pub fn finish(&self) {
        self.done.store(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy for rendering/export.
    pub fn snapshot(&self) -> SearchSnapshot {
        SearchSnapshot {
            total: self.total.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed) != 0,
        }
    }
}

/// Point-in-time copy of [`SearchProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchSnapshot {
    /// Grid points the search will profile in total.
    pub total: u64,
    /// Strategies fully profiled so far.
    pub completed: u64,
    /// Strategies eliminated by the pruned mode.
    pub pruned: u64,
    /// Offline simulations served from the memo.
    pub memo_hits: u64,
    /// Offline simulations actually run (== unique offline phases).
    pub memo_misses: u64,
    /// Worker threads in the profiling pool.
    pub jobs: u64,
    /// True once the search has finished.
    pub done: bool,
}

/// Live progress of a disaggregated serve session (worker or client
/// side): monotonic gauges written with relaxed atomics by the serve
/// threads and read lock-free by `/metrics`. All counts reset on
/// [`ServeProgress::begin`].
#[derive(Debug, Default)]
pub struct ServeProgress {
    workers: AtomicU64,
    batches_sent: AtomicU64,
    bytes_sent: AtomicU64,
    credit_stalls: AtomicU64,
    credit_wait_ns: AtomicU64,
    credit_wakes: AtomicU64,
    reassignments: AtomicU64,
    preemptions: AtomicU64,
    reconnect_attempts: AtomicU64,
    rejoins: AtomicU64,
    gap_wait_ns: AtomicU64,
    stream_read_ns: AtomicU64,
    consume_ns: AtomicU64,
    produce_ns: AtomicU64,
    done: AtomicU64,
}

impl ServeProgress {
    /// Start (or restart) a serve session over `workers` peers.
    /// Resets every counter.
    pub fn begin(&self, workers: u64) {
        self.workers.store(workers, Ordering::Relaxed);
        self.batches_sent.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.credit_stalls.store(0, Ordering::Relaxed);
        self.credit_wait_ns.store(0, Ordering::Relaxed);
        self.credit_wakes.store(0, Ordering::Relaxed);
        self.reassignments.store(0, Ordering::Relaxed);
        self.preemptions.store(0, Ordering::Relaxed);
        self.reconnect_attempts.store(0, Ordering::Relaxed);
        self.rejoins.store(0, Ordering::Relaxed);
        self.gap_wait_ns.store(0, Ordering::Relaxed);
        self.stream_read_ns.store(0, Ordering::Relaxed);
        self.consume_ns.store(0, Ordering::Relaxed);
        self.produce_ns.store(0, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
    }

    /// Record one BATCH frame of `bytes` wire bytes sent (worker) or
    /// received (client).
    pub fn batch_sent(&self, bytes: u64) {
        self.batches_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one stall waiting for flow-control credit.
    pub fn credit_stall(&self) {
        self.credit_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the end of one credit stall: how long the sender slept
    /// and how many times the condvar woke it before a credit (or
    /// close) arrived. A notify-driven gate wakes O(1) times per
    /// stall; a polling gate wakes once per poll interval — the ratio
    /// of these two gauges is the busy-wait detector used in tests.
    pub fn credit_wait(&self, ns: u64, wakes: u64) {
        self.credit_wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.credit_wakes.fetch_add(wakes, Ordering::Relaxed);
    }

    /// Record `n` shards reassigned after a worker failure.
    pub fn record_reassignments(&self, n: u64) {
        if n > 0 {
            self.reassignments.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one worker connection lost mid-epoch (presumed
    /// preempted or partitioned away).
    pub fn record_preemption(&self) {
        self.preemptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one reconnect attempt to a previously failed worker.
    pub fn record_reconnect_attempt(&self) {
        self.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one worker re-admitted mid-epoch after a failure.
    pub fn record_rejoin(&self) {
        self.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    /// Client side: time spent blocked waiting for the *first* byte of
    /// a frame — idle time attributable to the producer (worker busy,
    /// or worker itself starved of credit), not to the wire.
    pub fn gap_wait(&self, ns: u64) {
        self.gap_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Client side: time spent reading the *rest* of a frame after its
    /// first byte arrived — wire-bandwidth time.
    pub fn stream_read(&self, ns: u64) {
        self.stream_read_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Client side: time spent inside the consume callback.
    pub fn consume_time(&self, ns: u64) {
        self.consume_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Worker side: time spent producing samples (shard processing
    /// plus any configured pacing), excluding credit stalls and wire
    /// writes.
    pub fn produce_time(&self, ns: u64) {
        self.produce_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Mark the serve session finished.
    pub fn finish(&self) {
        self.done.store(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy for rendering/export.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            batches_sent: self.batches_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
            credit_wait_ns: self.credit_wait_ns.load(Ordering::Relaxed),
            credit_wakes: self.credit_wakes.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            reconnect_attempts: self.reconnect_attempts.load(Ordering::Relaxed),
            rejoins: self.rejoins.load(Ordering::Relaxed),
            gap_wait_ns: self.gap_wait_ns.load(Ordering::Relaxed),
            stream_read_ns: self.stream_read_ns.load(Ordering::Relaxed),
            consume_ns: self.consume_ns.load(Ordering::Relaxed),
            produce_ns: self.produce_ns.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed) != 0,
        }
    }
}

/// Point-in-time copy of [`ServeProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSnapshot {
    /// Peers in the session (connections for a worker, workers for a
    /// client).
    pub workers: u64,
    /// BATCH frames sent (or consumed, on the client side).
    pub batches_sent: u64,
    /// Wire bytes in those BATCH frames.
    pub bytes_sent: u64,
    /// Stalls waiting for flow-control credit.
    pub credit_stalls: u64,
    /// Total time spent stalled waiting for credit, nanoseconds.
    pub credit_wait_ns: u64,
    /// Condvar wakeups while stalled (≈ stalls for a notify-driven
    /// gate, ≫ stalls for a polling one).
    pub credit_wakes: u64,
    /// Shards reassigned after worker failures.
    pub reassignments: u64,
    /// Worker connections lost mid-epoch (presumed preemptions).
    pub preemptions: u64,
    /// Reconnect attempts to previously failed workers.
    pub reconnect_attempts: u64,
    /// Workers re-admitted mid-epoch after a failure.
    pub rejoins: u64,
    /// Client: time blocked waiting for the first byte of a frame, ns.
    pub gap_wait_ns: u64,
    /// Client: time reading the rest of a frame after its first byte, ns.
    pub stream_read_ns: u64,
    /// Client: time inside the consume callback, ns.
    pub consume_ns: u64,
    /// Worker: time producing samples (processing + pacing), ns.
    pub produce_ns: u64,
    /// True once the session has finished.
    pub done: bool,
}

/// Aggregated latency of one phase or pipeline step over an epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepSnapshot {
    /// Phase or step name (`read`/`decompress`/`decode`/`queue-wait`/
    /// `hand-off` are engine phases; the rest are the pipeline's
    /// online steps).
    pub name: String,
    /// What the phase's wall time is spent on.
    pub kind: PhaseKind,
    /// Invocations.
    pub count: u64,
    /// Total wall time across invocations and workers, nanoseconds.
    pub busy_ns: u64,
    /// Median latency per invocation, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
}

/// One worker's activity over an epoch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Worker index.
    pub worker: usize,
    /// Time spent in measured phases, nanoseconds.
    pub busy_ns: u64,
    /// Portion of `busy_ns` spent delivering samples (consume
    /// callback or blocking on the prefetch channel).
    pub deliver_ns: u64,
    /// Epoch wall time not covered by measured phases, nanoseconds.
    pub idle_ns: u64,
    /// Samples this worker delivered.
    pub samples: u64,
    /// Compressed bytes this worker read.
    pub bytes_read: u64,
    /// Storage retries this worker performed.
    pub retries: u64,
}

/// Prefetch-channel depth statistics over an epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueSnapshot {
    /// Channel capacity (0 = no channel, callback delivery).
    pub capacity: u64,
    /// Depth observations taken (one per successful send).
    pub observations: u64,
    /// Deepest observed queue.
    pub max_depth: u64,
    /// Mean observed depth.
    pub mean_depth: f64,
}

/// Batched data-plane activity over an epoch: how many sample bundles
/// crossed the prefetch ring and how the engine's buffer pool fared.
/// All-zero on engines that deliver unbatched (callback epochs, cache
/// replays) or predate pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPlaneSnapshot {
    /// Sample bundles handed to the prefetch ring.
    pub bundles: u64,
    /// Scratch buffers served from the pool without allocating.
    pub pool_hits: u64,
    /// Pool requests that allocated fresh.
    pub pool_misses: u64,
}

impl DataPlaneSnapshot {
    /// Fraction of pool requests served without allocating, in
    /// `[0, 1]` (0 when the pool was never asked).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }
}

/// Everything one epoch recorded, as plain data — the input to every
/// exporter and to real-run bottleneck diagnosis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Epoch wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// Epoch seed the engine labelled this epoch with (0 when unset).
    pub epoch_seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Samples delivered.
    pub samples: u64,
    /// Compressed bytes read from the store.
    pub bytes_read: u64,
    /// Decompressed (framed) bytes produced.
    pub bytes_decoded: u64,
    /// Samples served from the application cache.
    pub cache_hits: u64,
    /// Samples produced while filling an attached cache.
    pub cache_misses: u64,
    /// Storage retries performed.
    pub retries: u64,
    /// Samples skipped under a degrade policy.
    pub skipped_samples: u64,
    /// Shards lost under a degrade policy.
    pub lost_shards: u64,
    /// True when any fault was absorbed instead of delivered.
    pub degraded: bool,
    /// Per-phase / per-step latency aggregates. Indices
    /// [`PHASE_READ`]..[`BUILTIN_PHASES`] are engine phases, the rest
    /// are pipeline steps in order.
    pub steps: Vec<StepSnapshot>,
    /// Per-worker activity.
    pub workers: Vec<WorkerSnapshot>,
    /// Prefetch-queue depth statistics.
    pub queue: QueueSnapshot,
    /// Batched-delivery and buffer-pool statistics.
    pub data_plane: DataPlaneSnapshot,
    /// Timeline of worker × phase activity, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Span events dropped after the per-epoch budget filled up.
    pub dropped_spans: u64,
}

impl TelemetrySnapshot {
    /// Epoch wall time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_ns)
    }

    /// Samples per second.
    pub fn samples_per_second(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.samples as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// The pipeline steps proper (engine phases excluded).
    pub fn pipeline_steps(&self) -> &[StepSnapshot] {
        &self.steps[BUILTIN_PHASES.min(self.steps.len())..]
    }

    /// Total busy nanoseconds across workers attributable to `kind`.
    pub fn busy_ns_of(&self, kind: PhaseKind) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Fraction of aggregate worker wall time (`threads × elapsed`)
    /// spent in phases of `kind`, in `[0, 1]`.
    pub fn fraction_of(&self, kind: PhaseKind) -> f64 {
        let total = self.elapsed_ns.saturating_mul(self.threads.max(1) as u64);
        if total == 0 {
            return 0.0;
        }
        (self.busy_ns_of(kind) as f64 / total as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000); // 1µs..1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Log buckets: within 2x of the true quantile.
        assert!((250_000..=1_000_000).contains(&p50), "p50 = {p50}");
        assert!((495_000..=1_980_000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) <= h.max_ns());
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_empty_quantiles_are_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn histogram_zero_only_records_stay_in_bucket_zero() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn histogram_saturating_bucket_64_does_not_panic_or_overshoot() {
        // u64::MAX has bit length 64 — the last bucket. bucket_mid(64)
        // must not overflow and the quantile must stay <= max.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
        let p50 = h.quantile(0.5);
        assert!(p50 >= 1 << 62, "p50 = {p50} fell out of the top buckets");
        assert!(p50 <= h.max_ns());
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert!(Histogram::bucket_mid(BUCKETS - 1) >= 1 << 62);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let h = Histogram::new();
        // Mixed magnitudes, including 0 and a huge outlier.
        h.record(0);
        for v in [
            100u64,
            1_000,
            1_000,
            50_000,
            50_000,
            50_000,
            1_000_000,
            u64::MAX >> 1,
        ] {
            h.record(v);
        }
        let quantiles: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for pair in quantiles.windows(2) {
            assert!(pair[0] <= pair[1], "non-monotone quantiles: {quantiles:?}");
        }
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
    }

    #[test]
    fn recorder_aggregates_per_worker_and_per_phase() {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&["resize".into()], 2, 8);
        let t0 = rec.begin().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        rec.phase_done(0, PHASE_READ, t0);
        rec.bytes_read(0, 100);
        let t1 = rec.begin().unwrap();
        rec.phase_done(1, BUILTIN_PHASES, t1); // the "resize" step
        rec.samples_done(1, 1);
        rec.retries(0, 2);
        rec.queue_depth(3);
        rec.queue_depth(5);
        let snap = rec.snapshot();
        assert_eq!(snap.threads, 2);
        assert_eq!(snap.steps.len(), BUILTIN_PHASES + 1);
        assert_eq!(snap.steps[PHASE_READ].count, 1);
        assert!(snap.steps[PHASE_READ].busy_ns >= 1_000_000);
        assert_eq!(snap.steps[BUILTIN_PHASES].name, "resize");
        assert_eq!(snap.steps[BUILTIN_PHASES].kind, PhaseKind::Step);
        assert_eq!(snap.workers[0].bytes_read, 100);
        assert_eq!(snap.workers[0].retries, 2);
        assert_eq!(snap.workers[1].samples, 1);
        assert_eq!(snap.queue.max_depth, 5);
        assert_eq!(snap.queue.observations, 2);
        assert!((snap.queue.mean_depth - 4.0).abs() < 1e-9);
        assert_eq!(snap.spans.len(), 2);
        assert!(t.last_epoch().is_some());
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let t = Telemetry::disabled();
        let rec = t.begin_epoch(&["x".into()], 4, 8);
        assert!(!rec.is_enabled());
        assert!(rec.begin().is_none());
        rec.bytes_read(3, 100); // out-of-range worker: must not panic
        rec.samples_done(3, 1);
        rec.queue_depth(9);
        let snap = rec.snapshot();
        assert_eq!(snap.samples, 0);
        assert_eq!(snap.bytes_read, 0);
        assert!(snap.workers.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn span_budget_is_enforced() {
        let t = Telemetry::with_span_capacity(4);
        let rec = t.begin_epoch(&[], 1, 0);
        for _ in 0..10 {
            let t0 = rec.begin().unwrap();
            rec.phase_done(0, PHASE_READ, t0);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped_spans, 6);
        assert_eq!(
            snap.steps[PHASE_READ].count, 10,
            "metrics keep counting past the span budget"
        );
    }

    #[test]
    fn light_snapshot_skips_spans_but_keeps_metrics() {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&[], 1, 0);
        rec.set_epoch_seed(7);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, PHASE_READ, t0);
        rec.samples_done(0, 3);
        let light = rec.light_snapshot();
        assert!(light.spans.is_empty());
        assert_eq!(light.samples, 3);
        assert_eq!(light.epoch_seed, 7);
        assert_eq!(light.steps[PHASE_READ].count, 1);
        let full = rec.snapshot();
        assert_eq!(full.spans.len(), 1);
        assert!(t.current_recorder().is_some());
        assert!(Arc::ptr_eq(&t.current_recorder().unwrap(), &rec));
    }

    #[test]
    fn alloc_scopes_charge_the_right_phase() {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&["resize".into()], 1, 0);
        let scope = rec.alloc_begin().unwrap();
        alloc::note_alloc(2048);
        rec.alloc_done(PHASE_DECODE, scope);
        let scope = rec.alloc_begin().unwrap();
        rec.alloc_done(PHASE_READ, scope); // empty scope: stays zero
        rec.buffer_allocs(3);
        rec.buffer_reuses(1);
        let profile = rec.alloc_profile();
        assert_eq!(profile.steps.len(), BUILTIN_PHASES + 1);
        assert_eq!(profile.steps[PHASE_DECODE].bytes, 2048);
        assert_eq!(profile.steps[PHASE_DECODE].allocations, 1);
        assert_eq!(profile.steps[PHASE_READ].bytes, 0);
        assert_eq!(profile.buffer_allocs, 3);
        assert_eq!(profile.buffer_reuses, 1);
        alloc::note_dealloc(2048);
    }

    #[test]
    fn disabled_recorder_skips_alloc_scopes() {
        let t = Telemetry::disabled();
        let rec = t.begin_epoch(&[], 1, 0);
        assert!(rec.alloc_begin().is_none());
        rec.buffer_allocs(5);
        assert_eq!(rec.alloc_profile().buffer_allocs, 0);
    }

    #[test]
    fn finish_seals_authoritative_totals() {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&[], 1, 0);
        rec.samples_done(0, 1);
        rec.finish(Duration::from_secs(2), 50, 1234, 3, 1, 0, true);
        let snap = rec.snapshot();
        assert_eq!(snap.samples, 50);
        assert_eq!(snap.bytes_read, 1234);
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.skipped_samples, 1);
        assert!(snap.degraded);
        assert_eq!(snap.elapsed_ns, 2_000_000_000);
        assert!((snap.samples_per_second() - 25.0).abs() < 1e-9);
    }
}
