//! End-to-end telemetry over the real engine: exporter round-trips,
//! exact per-worker accounting (concurrent totals must match a
//! single-threaded run), fault visibility, and queue/span capture.

use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{
    AppCache, BlobStore, EpochStats, FaultSpec, FaultStore, Materialized, MemStore, RealExecutor,
};
use presto_pipeline::telemetry::{export, TelemetrySnapshot};
use presto_pipeline::{Resilience, Sample, Strategy, Telemetry};
use std::sync::Arc;

fn cv_source(n: u64) -> Vec<Sample> {
    (0..n)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect()
}

/// Materialize the CV workload and run one telemetered epoch on
/// `threads` workers against `store` (defaults to the backing store).
fn run_epoch(
    threads: usize,
    resilience: &Resilience,
    store_of: impl Fn(Arc<MemStore>, &Materialized) -> Arc<dyn BlobStore>,
) -> (TelemetrySnapshot, EpochStats) {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(24);
    let strategy = Strategy::at_split(pipeline.max_split())
        .with_threads(threads)
        .with_shards(8);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(threads).with_telemetry(Arc::clone(&telemetry));
    let base = Arc::new(MemStore::new());
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, base.as_ref())
        .unwrap();
    let store = store_of(base, &dataset);
    let stats = exec
        .epoch_with(
            &pipeline,
            &dataset,
            store.as_ref(),
            None,
            1,
            resilience,
            |_| {},
        )
        .unwrap();
    (telemetry.last_epoch().unwrap(), stats)
}

#[test]
fn snapshot_totals_match_engine_stats_and_worker_sums() {
    let (snapshot, stats) = run_epoch(4, &Resilience::default(), |base, _| base);
    assert_eq!(snapshot.samples, stats.samples);
    assert_eq!(snapshot.bytes_read, stats.bytes_read);
    assert_eq!(snapshot.retries, stats.retries);
    assert!(!snapshot.degraded);
    assert!(
        snapshot.bytes_decoded >= snapshot.bytes_read,
        "decompression never shrinks here"
    );

    // Per-worker accounting must sum *exactly* to the epoch totals.
    let worker_samples: u64 = snapshot.workers.iter().map(|w| w.samples).sum();
    let worker_bytes: u64 = snapshot.workers.iter().map(|w| w.bytes_read).sum();
    assert_eq!(worker_samples, snapshot.samples);
    assert_eq!(worker_bytes, snapshot.bytes_read);

    // The online steps appear by name after the built-in engine
    // phases (read, decompress, decode, queue-wait, hand-off).
    let names: Vec<&str> = snapshot
        .pipeline_steps()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(!names.is_empty());
    assert!(snapshot.steps.len() == names.len() + presto_pipeline::telemetry::BUILTIN_PHASES);
    let delivered: u64 = snapshot
        .pipeline_steps()
        .iter()
        .map(|s| s.count)
        .min()
        .unwrap();
    assert_eq!(
        delivered, stats.samples,
        "every sample passes every online step"
    );
}

#[test]
fn concurrent_and_single_threaded_runs_account_identically() {
    // The injected fault schedule is a pure function of (seed, blob,
    // attempt), so a 4-worker epoch must absorb exactly the faults a
    // 1-worker epoch does — and both engines' telemetry must agree
    // with their own EpochStats down to the last byte and retry.
    let resilience = Resilience::new(
        presto_pipeline::RetryPolicy {
            max_attempts: 6,
            ..Default::default()
        },
        presto_pipeline::FaultPolicy::Degrade {
            max_skipped_samples: 24,
            max_lost_shards: 8,
        },
    );
    let faulty = |base: Arc<MemStore>, _dataset: &Materialized| {
        Arc::new(FaultStore::new(
            base,
            FaultSpec::new(47).with_get_failures(25),
        )) as Arc<dyn BlobStore>
    };
    let (snap_multi, stats_multi) = run_epoch(4, &resilience, faulty);
    let (snap_single, stats_single) = run_epoch(1, &resilience, faulty);

    assert_eq!(stats_multi.samples, stats_single.samples);
    assert_eq!(stats_multi.bytes_read, stats_single.bytes_read);
    assert_eq!(stats_multi.retries, stats_single.retries);
    assert_eq!(stats_multi.skipped_samples, stats_single.skipped_samples);
    assert_eq!(stats_multi.lost_shards, stats_single.lost_shards);
    assert!(
        stats_multi.retries > 0,
        "the 25% fault rate must trigger retries"
    );

    for (snapshot, stats) in [(&snap_multi, &stats_multi), (&snap_single, &stats_single)] {
        assert_eq!(snapshot.retries, stats.retries);
        let worker_retries: u64 = snapshot.workers.iter().map(|w| w.retries).sum();
        assert_eq!(
            worker_retries, stats.retries,
            "per-worker retries must sum exactly"
        );
        let worker_bytes: u64 = snapshot.workers.iter().map(|w| w.bytes_read).sum();
        assert_eq!(worker_bytes, stats.bytes_read);
    }
}

#[test]
fn absorbed_faults_surface_in_metrics() {
    let resilience = Resilience::degrade(0, 8);
    let (snapshot, stats) = run_epoch(2, &resilience, |base, dataset| {
        Arc::new(FaultStore::new(
            base,
            FaultSpec::new(5).with_lost_blob(dataset.shards[0].clone()),
        )) as Arc<dyn BlobStore>
    });
    assert!(stats.degraded);
    assert_eq!(snapshot.lost_shards, 1);
    assert!(snapshot.degraded);
    let prom = export::prometheus(&snapshot.clone().into());
    assert!(prom.contains("presto_epoch_lost_shards_total 1"), "{prom}");
    assert!(prom.contains("presto_epoch_degraded 1"), "{prom}");
}

#[test]
fn exporters_round_trip() {
    let (snapshot, stats) = run_epoch(4, &Resilience::default(), |base, _| base);

    let prom = export::prometheus(&snapshot.clone().into());
    let series = export::parse_prometheus(&prom).unwrap();
    let get = |name: &str| {
        series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("series '{name}' missing:\n{prom}"))
            .1
    };
    assert_eq!(get("presto_epoch_samples_total") as u64, stats.samples);
    assert_eq!(
        get("presto_epoch_bytes_read_total") as u64,
        stats.bytes_read
    );

    let doc = export::json(&snapshot);
    let run: export::RunDocument = presto_pipeline::telemetry::doc::read(&doc).unwrap();
    assert_eq!(run.snapshot.samples, stats.samples);
    let parsed = export::parse_json(&doc).unwrap();
    assert_eq!(
        parsed
            .get("epoch")
            .and_then(|e| e.get("samples"))
            .and_then(|v| v.as_f64()),
        Some(stats.samples as f64),
        "{doc}"
    );
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(export::JSON_SCHEMA)
    );

    let trace = export::chrome_trace(&snapshot.clone().into());
    let events = export::validate_chrome_trace(&trace).unwrap();
    assert_eq!(
        events,
        snapshot.spans.len(),
        "one X event per recorded span"
    );
    assert!(events > 0);
}

#[test]
fn streaming_epoch_records_queue_depth_and_spans() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(24);
    let strategy = Strategy::at_split(pipeline.max_split())
        .with_threads(3)
        .with_shards(6);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(3).with_telemetry(Arc::clone(&telemetry));
    let store = Arc::new(MemStore::new());
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, store.as_ref())
        .unwrap();
    let mut stream = exec.stream_epoch(&pipeline, &dataset, store, 4, 9).unwrap();
    for result in &mut stream {
        result.unwrap();
    }
    let stats = stream.join().unwrap();
    let snapshot = telemetry.last_epoch().unwrap();

    assert_eq!(snapshot.samples, stats.samples);
    assert_eq!(snapshot.queue.capacity, 4);
    // Hand-off is bundled: one observation per bundle send, not per
    // sample. 6 shards of 4 samples under the default bundle size
    // flush exactly once per shard boundary.
    assert_eq!(
        snapshot.data_plane.bundles, snapshot.queue.observations,
        "one observation per bundle send"
    );
    assert_eq!(snapshot.data_plane.bundles, 6, "one bundle per shard");
    assert!(
        snapshot.queue.observations < stats.samples,
        "bundling amortizes sends below one per sample"
    );
    assert!(snapshot.queue.max_depth >= 1);
    assert!(snapshot.queue.mean_depth > 0.0);
    assert!(
        snapshot.queue.max_depth <= snapshot.queue.capacity,
        "gauge {} exceeds channel capacity {}",
        snapshot.queue.max_depth,
        snapshot.queue.capacity
    );

    assert!(!snapshot.spans.is_empty());
    assert_eq!(snapshot.dropped_spans, 0);
    assert!(
        snapshot
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns),
        "sorted"
    );
    for span in &snapshot.spans {
        assert!((span.worker as usize) < 3);
        assert!((span.phase as usize) < snapshot.steps.len());
    }
}

/// Regression: with more producers than queue slots and a consumer
/// that lags, producers pile up in `send`. The raw in-flight counter
/// counts them before they block, so the *recorded* gauge used to
/// exceed the channel capacity (max_depth 19 on a capacity-16 run).
/// The gauge must clamp at capacity: a blocked producer is a full
/// queue, not a deeper one.
#[test]
fn queue_depth_gauge_never_exceeds_capacity() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(24);
    let strategy = Strategy::at_split(pipeline.max_split())
        .with_threads(6)
        .with_shards(12);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(6).with_telemetry(Arc::clone(&telemetry));
    let store = Arc::new(MemStore::new());
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, store.as_ref())
        .unwrap();
    // Capacity 2 with 6 producers: almost every send finds the queue
    // full, and the lagging consumer keeps it that way.
    let mut stream = exec.stream_epoch(&pipeline, &dataset, store, 2, 3).unwrap();
    for result in &mut stream {
        result.unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stream.join().unwrap();
    let snapshot = telemetry.last_epoch().unwrap();
    assert_eq!(snapshot.queue.capacity, 2);
    assert!(snapshot.queue.max_depth >= 1);
    assert!(
        snapshot.queue.max_depth <= 2,
        "gauge {} exceeds capacity 2",
        snapshot.queue.max_depth
    );
}

#[test]
fn cached_epochs_report_hits_and_misses() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(12);
    let strategy = Strategy::at_split(pipeline.max_split()).with_threads(2);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(2).with_telemetry(Arc::clone(&telemetry));
    let store = MemStore::new();
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();
    let cache = AppCache::new(1 << 24);

    exec.epoch(&pipeline, &dataset, &store, Some(&cache), 1, |_| {})
        .unwrap();
    let fill = telemetry.last_epoch().unwrap();
    assert_eq!(fill.cache_misses, 12, "fill epoch produces every sample");
    assert_eq!(fill.cache_hits, 0);

    exec.epoch(&pipeline, &dataset, &store, Some(&cache), 2, |_| {})
        .unwrap();
    let replay = telemetry.last_epoch().unwrap();
    assert_eq!(
        replay.cache_hits, 12,
        "replay epoch serves everything from cache"
    );
    assert_eq!(replay.cache_misses, 0);
    assert_eq!(replay.bytes_read, 0);
    let worker_samples: u64 = replay.workers.iter().map(|w| w.samples).sum();
    assert_eq!(worker_samples, replay.samples);
    let read_phase = &replay.steps[presto_pipeline::telemetry::PHASE_READ];
    assert_eq!(read_phase.count, 0, "replay never touches the store");
}

#[test]
fn untelemetered_executor_records_nothing_and_still_works() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(8);
    let strategy = Strategy::at_split(pipeline.max_split()).with_threads(2);
    let exec = RealExecutor::new(2);
    assert!(exec.telemetry().is_none());
    let store = MemStore::new();
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();
    let stats = exec
        .epoch(&pipeline, &dataset, &store, None, 1, |_| {})
        .unwrap();
    assert_eq!(stats.samples, 8);
}
