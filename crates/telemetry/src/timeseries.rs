//! Continuous mid-epoch telemetry: a sampler thread periodically reads
//! the live [`EpochRecorder`] (relaxed atomic loads only — the engine's
//! hot path is never touched) and appends interval deltas to a bounded
//! ring buffer. The ring is what `presto watch`, the embedded
//! [`crate::http`] server's `/timeseries.json` endpoint, and windowed
//! trend diagnosis consume.
//!
//! Each [`TimePoint`] covers one sampling interval: instantaneous
//! samples/s, per-step busy shares (fraction of aggregate worker time
//! spent in that phase during the interval), prefetch-queue depth,
//! cache hit rate and cumulative fault counters. Epoch boundaries are
//! detected by recorder identity ([`crate::Telemetry::begin_epoch`]
//! allocates a fresh recorder), so a ring can span many epochs.

use crate::doc::{Document, Record, Visitor};
use crate::{EpochRecorder, PhaseKind, Telemetry, TelemetrySnapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Current time-series JSON schema identifier.
pub const TIMESERIES_SCHEMA: &str = "presto.timeseries.v1";

/// Default ring capacity (~2 minutes at the default 200 ms period).
pub const DEFAULT_RING_CAPACITY: usize = 600;

/// Default sampling period.
pub const DEFAULT_PERIOD: Duration = Duration::from_millis(200);

/// One phase/step's activity during a sampling interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepActivity {
    /// Phase or step name (matches [`crate::StepSnapshot::name`]).
    pub name: String,
    /// What the phase's wall time is spent on.
    pub kind: PhaseKind,
    /// Invocations during the interval.
    pub invocations: u64,
    /// Fraction of aggregate worker time (`threads × interval`) spent
    /// in this phase during the interval, in `[0, 1]`.
    pub busy_share: f64,
}

/// One periodic observation of a running (or just-finished) epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimePoint {
    /// Offset from the sampler's start, nanoseconds.
    pub t_ns: u64,
    /// Wall time this point's deltas cover, nanoseconds.
    pub interval_ns: u64,
    /// Epoch seed the engine labelled the epoch with.
    pub epoch_seed: u64,
    /// Samples delivered so far in the current epoch (cumulative).
    pub samples: u64,
    /// Samples per second over the interval.
    pub sps: f64,
    /// Mean prefetch-queue depth over the interval (0 when the epoch
    /// took no queue observations in the interval).
    pub queue_depth: f64,
    /// Cumulative cache hit rate `hits / (hits + misses)` (0 when the
    /// epoch has no cache attached).
    pub cache_hit_rate: f64,
    /// Cumulative storage retries in the current epoch.
    pub retries: u64,
    /// Cumulative skipped samples in the current epoch.
    pub skipped_samples: u64,
    /// Cumulative lost shards in the current epoch.
    pub lost_shards: u64,
    /// Cumulative span events dropped past the budget in the current
    /// epoch — nonzero means the trace timeline is incomplete.
    pub dropped_spans: u64,
    /// Per-phase/step interval activity, engine phases first.
    pub steps: Vec<StepActivity>,
    /// Interval share of worker time in [`PhaseKind::Io`] phases.
    pub io_share: f64,
    /// Interval share in [`PhaseKind::Cpu`] + [`PhaseKind::Step`].
    pub cpu_share: f64,
    /// Interval share in [`PhaseKind::Deliver`].
    pub deliver_share: f64,
}

/// Compute the [`TimePoint`] covering the interval between two metric
/// snapshots of the *same* epoch (`prev = None` means "since the epoch
/// began" — used for the first sample of each epoch).
///
/// Pure and deterministic: the sampler thread is a thin loop around
/// this, so tests can drive it directly with synthetic snapshots.
pub fn point_between(
    prev: Option<&TelemetrySnapshot>,
    curr: &TelemetrySnapshot,
    t_ns: u64,
    interval_ns: u64,
) -> TimePoint {
    let interval = interval_ns.max(1);
    let worker_time = (interval as u128 * curr.threads.max(1) as u128) as f64;
    let share =
        |now: u64, before: u64| ((now.saturating_sub(before)) as f64 / worker_time).clamp(0.0, 1.0);
    let prev_step = |i: usize| prev.and_then(|p| p.steps.get(i));
    let steps: Vec<StepActivity> = curr
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| StepActivity {
            name: s.name.clone(),
            kind: s.kind,
            invocations: s.count.saturating_sub(prev_step(i).map_or(0, |p| p.count)),
            busy_share: share(s.busy_ns, prev_step(i).map_or(0, |p| p.busy_ns)),
        })
        .collect();
    let kind_share = |want: &[PhaseKind]| {
        steps
            .iter()
            .filter(|s| want.contains(&s.kind))
            .map(|s| s.busy_share)
            .sum::<f64>()
            .min(1.0)
    };
    let prev_samples = prev.map_or(0, |p| p.samples);
    let sample_delta = curr.samples.saturating_sub(prev_samples);
    let queue_sum = |s: &TelemetrySnapshot| s.queue.mean_depth * s.queue.observations as f64;
    let obs_delta = curr
        .queue
        .observations
        .saturating_sub(prev.map_or(0, |p| p.queue.observations));
    let queue_depth = if obs_delta > 0 {
        ((queue_sum(curr) - prev.map_or(0.0, queue_sum)) / obs_delta as f64).max(0.0)
    } else {
        0.0
    };
    let cache_total = curr.cache_hits + curr.cache_misses;
    TimePoint {
        t_ns,
        interval_ns: interval,
        epoch_seed: curr.epoch_seed,
        samples: curr.samples,
        sps: sample_delta as f64 / (interval as f64 / 1e9),
        queue_depth,
        cache_hit_rate: if cache_total == 0 {
            0.0
        } else {
            curr.cache_hits as f64 / cache_total as f64
        },
        retries: curr.retries,
        skipped_samples: curr.skipped_samples,
        lost_shards: curr.lost_shards,
        dropped_spans: curr.dropped_spans,
        io_share: kind_share(&[PhaseKind::Io]),
        cpu_share: kind_share(&[PhaseKind::Cpu, PhaseKind::Step]),
        deliver_share: kind_share(&[PhaseKind::Deliver]),
        steps,
    }
}

/// A bounded, thread-safe ring of [`TimePoint`]s. One writer (the
/// sampler) and any number of readers (`watch`, HTTP handlers); the
/// lock is held for a push or a clone, never across I/O.
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    points: Mutex<VecDeque<TimePoint>>,
    evicted: AtomicU64,
}

impl TimeSeries {
    /// An empty ring holding at most `capacity` points.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(TimeSeries {
            capacity: capacity.max(1),
            points: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        })
    }

    /// Append a point, evicting the oldest when full.
    pub fn push(&self, point: TimePoint) {
        let mut points = self.points.lock();
        if points.len() == self.capacity {
            points.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        points.push_back(point);
    }

    /// All retained points, oldest first.
    pub fn points(&self) -> Vec<TimePoint> {
        self.points.lock().iter().cloned().collect()
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<TimePoint> {
        self.points.lock().back().cloned()
    }

    /// Retained point count.
    pub fn len(&self) -> usize {
        self.points.lock().len()
    }

    /// True when no point has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.lock().is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points evicted after the ring filled up.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

impl Record for StepActivity {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.req("kind", &mut self.kind);
        v.req("invocations", &mut self.invocations);
        v.fixed("busy_share", &mut self.busy_share, 4);
    }
}

impl Record for TimePoint {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("t_ns", &mut self.t_ns);
        v.req("interval_ns", &mut self.interval_ns);
        v.req("epoch_seed", &mut self.epoch_seed);
        v.req("samples", &mut self.samples);
        v.fixed("sps", &mut self.sps, 3);
        v.fixed("queue_depth", &mut self.queue_depth, 3);
        v.fixed("cache_hit_rate", &mut self.cache_hit_rate, 4);
        v.req("retries", &mut self.retries);
        v.req("skipped_samples", &mut self.skipped_samples);
        v.req("lost_shards", &mut self.lost_shards);
        // Newer than the schema's first writer; every other member
        // has been written since the first.
        v.opt("dropped_spans", &mut self.dropped_spans);
        v.fixed("io_share", &mut self.io_share, 4);
        v.fixed("cpu_share", &mut self.cpu_share, 4);
        v.fixed("deliver_share", &mut self.deliver_share, 4);
        v.records("steps", &mut self.steps);
    }
}

/// The stable `presto.timeseries.v1` document served at
/// `/timeseries.json`: a dump of a [`TimeSeries`] ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeriesDocument {
    /// Points evicted after the ring filled up.
    pub evicted: u64,
    /// Retained points, oldest first.
    pub points: Vec<TimePoint>,
}

impl Record for TimeSeriesDocument {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("evicted", &mut self.evicted);
        v.records("points", &mut self.points);
    }
}

impl Document for TimeSeriesDocument {
    const SCHEMA: &'static str = TIMESERIES_SCHEMA;
}

/// A background thread sampling the telemetry registry every `period`
/// into a [`TimeSeries`] ring. The sampled side pays nothing: the
/// sampler takes [`EpochRecorder::light_snapshot`]s (relaxed atomic
/// loads, no span mutex) from its own thread.
#[derive(Debug)]
pub struct Sampler {
    series: Arc<TimeSeries>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn a sampler over `telemetry` with the given period and ring
    /// capacity.
    pub fn spawn(telemetry: Arc<Telemetry>, period: Duration, capacity: usize) -> Sampler {
        let series = TimeSeries::new(capacity);
        let stop = Arc::new(AtomicBool::new(false));
        let ring = Arc::clone(&series);
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("presto-sampler".into())
            .spawn(move || run_sampler(&telemetry, &ring, period, &stopped))
            .expect("spawn sampler thread");
        Sampler {
            series,
            stop,
            handle: Some(handle),
        }
    }

    /// The ring this sampler fills.
    pub fn series(&self) -> Arc<TimeSeries> {
        Arc::clone(&self.series)
    }

    /// Stop the sampler thread and wait for it to exit.
    pub fn stop(mut self) -> Arc<TimeSeries> {
        self.shutdown();
        self.series()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_sampler(telemetry: &Telemetry, ring: &TimeSeries, period: Duration, stop: &AtomicBool) {
    let started = Instant::now();
    // Previous tick's recorder identity + light snapshot + time, used
    // to compute interval deltas and detect epoch boundaries.
    let mut prev: Option<(*const EpochRecorder, TelemetrySnapshot, Instant)> = None;
    while !stop.load(Ordering::Acquire) {
        // Sleep in short slices so stop() returns promptly even with a
        // long period.
        let mut slept = Duration::ZERO;
        while slept < period && !stop.load(Ordering::Acquire) {
            let slice = (period - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Some(rec) = telemetry.current_recorder() else {
            continue;
        };
        if !rec.is_enabled() {
            continue;
        }
        let now = Instant::now();
        let snap = rec.light_snapshot();
        let identity = Arc::as_ptr(&rec);
        let (base, base_at) = match &prev {
            Some((p, base, at)) if *p == identity => (Some(base), *at),
            // New epoch (or first tick): deltas count from the epoch's
            // own start, bounded by one period of wall time.
            _ => (None, now.checked_sub(period).unwrap_or(now)),
        };
        let interval_ns = now.duration_since(base_at).as_nanos() as u64;
        let t_ns = now.duration_since(started).as_nanos() as u64;
        ring.push(point_between(base, &snap, t_ns, interval_ns));
        prev = Some((identity, snap, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::{QueueSnapshot, StepSnapshot};

    fn json(points: &[TimePoint], evicted: u64) -> String {
        doc::write(TimeSeriesDocument {
            evicted,
            points: points.to_vec(),
        })
    }

    fn validate_json(input: &str) -> Result<usize, String> {
        doc::read::<TimeSeriesDocument>(input).map(|series| series.points.len())
    }

    fn snapshot(samples: u64, busy: &[(&str, PhaseKind, u64, u64)]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            elapsed_ns: 1_000_000,
            epoch_seed: 3,
            threads: 2,
            samples,
            bytes_read: 0,
            bytes_decoded: 0,
            cache_hits: samples / 2,
            cache_misses: samples - samples / 2,
            retries: 1,
            skipped_samples: 0,
            lost_shards: 0,
            degraded: false,
            steps: busy
                .iter()
                .map(|(name, kind, count, busy_ns)| StepSnapshot {
                    name: name.to_string(),
                    kind: *kind,
                    count: *count,
                    busy_ns: *busy_ns,
                    p50_ns: 0,
                    p95_ns: 0,
                    p99_ns: 0,
                    max_ns: 0,
                })
                .collect(),
            workers: Vec::new(),
            queue: QueueSnapshot {
                capacity: 8,
                observations: samples,
                max_depth: 4,
                mean_depth: 2.0,
            },
            data_plane: Default::default(),
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    #[test]
    fn point_between_computes_interval_deltas() {
        let before = snapshot(10, &[("read", PhaseKind::Io, 5, 100_000)]);
        let after = snapshot(30, &[("read", PhaseKind::Io, 9, 500_000)]);
        // 1 ms interval on 2 threads → 2 ms of worker time.
        let p = point_between(Some(&before), &after, 5_000_000, 1_000_000);
        assert_eq!(p.samples, 30);
        // 20 samples over 1 ms → 20k SPS.
        assert!((p.sps - 20_000.0).abs() < 1e-6, "sps = {}", p.sps);
        assert_eq!(p.steps[0].invocations, 4);
        // 400 µs busy over 2 ms worker time.
        assert!((p.steps[0].busy_share - 0.2).abs() < 1e-9);
        assert!((p.io_share - 0.2).abs() < 1e-9);
        assert_eq!(p.cpu_share, 0.0);
        assert_eq!(p.epoch_seed, 3);
        assert!(
            (p.queue_depth - 2.0).abs() < 1e-9,
            "constant mean depth survives the delta"
        );
        assert!((p.cache_hit_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn point_without_baseline_counts_from_epoch_start() {
        let curr = snapshot(8, &[("resize", PhaseKind::Step, 8, 1_000_000)]);
        let p = point_between(None, &curr, 0, 1_000_000);
        assert_eq!(p.steps[0].invocations, 8);
        assert!((p.steps[0].busy_share - 0.5).abs() < 1e-9);
        assert!((p.cpu_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shares_are_clamped_to_unit_range() {
        // Busy time exceeding worker wall time (clock skew across
        // cores) must clamp, not explode.
        let curr = snapshot(1, &[("read", PhaseKind::Io, 1, u64::MAX / 2)]);
        let p = point_between(None, &curr, 0, 1_000);
        assert!(p.io_share <= 1.0);
        assert!(p.steps[0].busy_share <= 1.0);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let ring = TimeSeries::new(3);
        for i in 0..5u64 {
            let curr = snapshot(i, &[]);
            ring.push(point_between(None, &curr, i * 1_000, 1_000));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
        let points = ring.points();
        assert_eq!(points[0].t_ns, 2_000);
        assert_eq!(ring.last().unwrap().t_ns, 4_000);
    }

    #[test]
    fn timeseries_json_roundtrips_the_validator() {
        let ring = TimeSeries::new(8);
        for i in 0..3u64 {
            let prev = snapshot(i * 10, &[("read", PhaseKind::Io, i, i * 1_000)]);
            let curr = snapshot(
                (i + 1) * 10,
                &[("read", PhaseKind::Io, i + 1, (i + 1) * 1_000)],
            );
            ring.push(point_between(Some(&prev), &curr, i * 1_000_000, 1_000_000));
        }
        let doc = json(&ring.points(), ring.evicted());
        assert_eq!(validate_json(&doc).expect("valid timeseries doc"), 3);
        assert!(validate_json("{\"schema\": \"presto.timeseries.v2\", \"points\": []}").is_err());
        assert!(validate_json("{\"points\": []}")
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn dropped_spans_ride_the_point_and_stay_optional() {
        let mut curr = snapshot(10, &[("read", PhaseKind::Io, 5, 100_000)]);
        curr.dropped_spans = 7;
        let ring = TimeSeries::new(4);
        ring.push(point_between(None, &curr, 0, 1_000_000));
        assert_eq!(ring.last().unwrap().dropped_spans, 7);
        let doc = json(&ring.points(), ring.evicted());
        assert!(doc.contains("\"dropped_spans\": 7"));
        assert_eq!(validate_json(&doc).expect("valid doc"), 1);
        // Pre-v8 documents without the field must still validate.
        let legacy = doc.replace("\"dropped_spans\": 7, ", "");
        assert_eq!(validate_json(&legacy).expect("legacy doc"), 1);
        let bad = doc.replace("\"dropped_spans\": 7", "\"dropped_spans\": \"x\"");
        assert!(validate_json(&bad).unwrap_err().contains("dropped_spans"));
    }

    #[test]
    fn sampler_fills_the_ring_and_stops_cleanly() {
        let telemetry = Telemetry::new();
        let rec = telemetry.begin_epoch(&["step".into()], 1, 0);
        rec.set_epoch_seed(11);
        let sampler = Sampler::spawn(Arc::clone(&telemetry), Duration::from_millis(5), 64);
        for _ in 0..20 {
            let t0 = rec.begin().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            rec.phase_done(0, crate::BUILTIN_PHASES, t0);
            rec.samples_done(0, 1);
        }
        // Give the sampler a few periods to observe the epoch.
        std::thread::sleep(Duration::from_millis(40));
        let series = sampler.stop();
        assert!(!series.is_empty(), "sampler recorded nothing");
        let last = series.last().unwrap();
        assert_eq!(last.epoch_seed, 11);
        assert!(last.samples > 0);
        assert!(last.steps.iter().any(|s| s.name == "step"));
    }
}
