//! The batched zero-copy data plane end to end: bundle flushes at
//! shard boundaries and EOF, pool hygiene across faulted (resynced)
//! epochs, per-blocked-wait queue-wait attribution, and the invariant
//! everything else hangs off — the delivered sample multiset is
//! bit-identical across thread counts, bundle sizes and the served
//! two-worker deployment.

use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{
    BlobStore, FaultSpec, FaultStore, Materialized, MemStore, RealExecutor,
};
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeWorker, ServeWorkerConfig,
};
use presto_pipeline::{Pipeline, Resilience, Sample, Strategy, Telemetry};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const EPOCH_SEED: u64 = 7;

/// CV workload split so the online phase still draws per-shard step
/// RNG: parity failures in RNG routing, bundling, or pooling all
/// surface as checksum mismatches.
fn workload(samples: u64, shards: usize) -> (Pipeline, Materialized, Arc<MemStore>) {
    let pipeline = steps::executable_cv_pipeline(32, 28);
    let source: Vec<Sample> = (0..samples)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let store = Arc::new(MemStore::new());
    let exec = RealExecutor::new(4);
    let strategy = Strategy::at_split(2).with_threads(4).with_shards(shards);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, store.as_ref())
        .unwrap();
    (pipeline, dataset, store)
}

/// Single-process, single-thread epoch (a one-worker drain): the
/// reference multiset every data-plane configuration must reproduce.
fn reference_checksum(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &MemStore,
) -> MultisetChecksum {
    let checksum = Mutex::new(MultisetChecksum::default());
    let exec = RealExecutor::new(1);
    exec.epoch(pipeline, dataset, store, None, EPOCH_SEED, |sample| {
        checksum.lock().unwrap().add(sample)
    })
    .unwrap();
    checksum.into_inner().unwrap()
}

fn stream_checksum(
    exec: &RealExecutor,
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: Arc<dyn BlobStore>,
) -> (MultisetChecksum, u64) {
    let mut checksum = MultisetChecksum::default();
    let mut stream = exec
        .stream_epoch(pipeline, dataset, store, 4, EPOCH_SEED)
        .unwrap();
    for result in &mut stream {
        checksum.add(&result.unwrap());
    }
    let stats = stream.join().unwrap();
    (checksum, stats.samples)
}

/// The tentpole invariant: every bundle size and thread count
/// delivers the exact reference multiset — and so does a two-worker
/// served epoch consuming the same shards over TCP.
#[test]
fn bundle_sizes_thread_counts_and_serving_preserve_the_multiset() {
    let (pipeline, dataset, store) = workload(24, 8);
    let reference = reference_checksum(&pipeline, &dataset, &store);
    assert_eq!(reference.count, 24);

    for bundle in [1usize, 7, 64] {
        for threads in [1usize, 8] {
            let exec = RealExecutor::new(threads).with_bundle_size(bundle);
            let (checksum, samples) = stream_checksum(
                &exec,
                &pipeline,
                &dataset,
                Arc::clone(&store) as Arc<dyn BlobStore>,
            );
            assert_eq!(samples, 24);
            assert_eq!(
                checksum, reference,
                "multiset diverged: bundle={bundle} threads={threads}"
            );
        }
    }

    // Served twin: two workers, shards fanned out over TCP.
    let workers: Vec<ServeWorker> = (0..2)
        .map(|_| {
            ServeWorker::spawn(
                "127.0.0.1:0",
                &pipeline,
                &dataset,
                Arc::clone(&store) as Arc<dyn BlobStore>,
                Resilience::default(),
                None,
                ServeWorkerConfig {
                    batch_samples: 3,
                    ..ServeWorkerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let served = Mutex::new(MultisetChecksum::default());
    serve_epoch(
        &addrs,
        &dataset.shards,
        EPOCH_SEED,
        &ServeClientConfig::default(),
        None,
        |sample| served.lock().unwrap().add(sample),
    )
    .unwrap();
    assert_eq!(
        served.into_inner().unwrap(),
        reference,
        "served multiset diverged"
    );
    drop(workers);
}

/// Bundles flush at shard boundaries and EOF: an oversized bundle
/// capacity still produces one hand-off per shard (never a bundle
/// spanning shards, never samples stranded at EOF), and bundle
/// capacity 1 degenerates to one hand-off per sample.
#[test]
fn bundles_flush_at_shard_boundaries_and_eof() {
    let (pipeline, dataset, store) = workload(24, 6);

    for (bundle, expected_bundles) in [(64usize, 6u64), (1, 24)] {
        let telemetry = Telemetry::new();
        let exec = RealExecutor::new(2)
            .with_telemetry(Arc::clone(&telemetry))
            .with_bundle_size(bundle);
        let (_, samples) = stream_checksum(
            &exec,
            &pipeline,
            &dataset,
            Arc::clone(&store) as Arc<dyn BlobStore>,
        );
        assert_eq!(samples, 24);
        let snapshot = telemetry.last_epoch().unwrap();
        assert_eq!(
            snapshot.data_plane.bundles, expected_bundles,
            "bundle={bundle}: 6 shards x 4 samples must flush {expected_bundles} bundles"
        );
        assert_eq!(snapshot.queue.observations, expected_bundles);
    }
}

/// A degraded epoch still flushes every surviving shard's bundle: the
/// lost shard contributes nothing, the rest arrive exactly once.
#[test]
fn degraded_epochs_flush_surviving_bundles() {
    let (pipeline, dataset, store) = workload(24, 6);
    let lost = dataset.shards[2].clone();
    let faulty: Arc<dyn BlobStore> = Arc::new(FaultStore::new(
        Arc::clone(&store),
        FaultSpec::new(3).with_lost_blob(lost),
    ));
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(2)
        .with_telemetry(Arc::clone(&telemetry))
        .with_bundle_size(64);
    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            Arc::clone(&faulty),
            None,
            4,
            EPOCH_SEED,
            Resilience::degrade(24, 1),
        )
        .unwrap();
    let mut checksum = MultisetChecksum::default();
    for result in &mut stream {
        checksum.add(&result.unwrap());
    }
    let stats = stream.join().unwrap();
    assert!(stats.degraded);
    assert_eq!(stats.lost_shards, 1);
    assert_eq!(
        stats.samples, 20,
        "6 shards x 4 samples minus the lost shard"
    );
    let snapshot = telemetry.last_epoch().unwrap();
    assert_eq!(
        snapshot.data_plane.bundles, 5,
        "one bundle per surviving shard"
    );
}

/// Pool hygiene across faulted epochs: recycling bundle containers
/// and decompress scratch through an epoch that skipped corrupt
/// records (reader resync) must not leak stale samples into later
/// epochs — the streamed run reproduces the pool-free callback
/// epoch's multiset exactly, epoch after epoch, on the same executor
/// (same warm pool).
#[test]
fn pool_reuse_after_resync_never_recycles_poisoned_buffers() {
    let (pipeline, dataset, store) = workload(24, 6);
    let corrupt = dataset.shards[1].clone();
    let faulty: Arc<dyn BlobStore> = Arc::new(FaultStore::new(
        Arc::clone(&store),
        FaultSpec::new(11).with_corrupt_blob(corrupt),
    ));
    let resilience = Resilience::degrade(24, 1);

    let run = |exec: &RealExecutor| {
        let mut stream = exec
            .stream_epoch_with(
                &pipeline,
                &dataset,
                Arc::clone(&faulty),
                None,
                4,
                EPOCH_SEED,
                resilience.clone(),
            )
            .unwrap();
        let mut checksum = MultisetChecksum::default();
        for result in &mut stream {
            checksum.add(&result.unwrap());
        }
        let stats = stream.join().unwrap();
        assert!(stats.degraded, "the corrupt shard must degrade the epoch");
        (checksum, stats.samples)
    };

    // The reference is a one-worker drain of the same engine, on a
    // fresh executor: its pool shares no container with the runs below.
    let reference = Mutex::new(MultisetChecksum::default());
    let stats = RealExecutor::new(1)
        .epoch_with(
            &pipeline,
            &dataset,
            faulty.as_ref(),
            None,
            EPOCH_SEED,
            &resilience,
            |sample| reference.lock().unwrap().add(sample),
        )
        .unwrap();
    let reference = reference.into_inner().unwrap();
    let reference_samples = stats.samples;
    assert!(stats.degraded, "the corrupt shard must degrade the epoch");
    assert!(reference_samples < 24, "corruption must cost samples");

    // Same executor (and thus the same warm buffer pool) across three
    // epochs: any poisoned recycling shows up as a checksum drift.
    let pooled = RealExecutor::new(2).with_bundle_size(7);
    for epoch in 0..3 {
        let (checksum, samples) = run(&pooled);
        assert_eq!(samples, reference_samples, "epoch {epoch}");
        assert_eq!(checksum, reference, "epoch {epoch}: pooled run diverged");
    }
}

/// Regression (per-worker deliver skew): every individual blocked
/// wait on a full lane records its own queue-wait span, so a stalled
/// consumer shows up as many attributable waits instead of one
/// coalesced span (or none) per blocked send.
#[test]
fn blocked_sends_record_per_wait_queue_wait_spans() {
    let (pipeline, dataset, store) = workload(24, 6);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(2)
        .with_telemetry(Arc::clone(&telemetry))
        .with_bundle_size(1);
    // prefetch 1 over 2 workers -> lane capacity 1: with a slow
    // consumer the producers must block repeatedly.
    let mut stream = exec
        .stream_epoch(
            &pipeline,
            &dataset,
            Arc::clone(&store) as Arc<dyn BlobStore>,
            1,
            EPOCH_SEED,
        )
        .unwrap();
    let mut seen = 0u64;
    for result in &mut stream {
        result.unwrap();
        seen += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(seen, 24);
    stream.join().unwrap();
    let snapshot = telemetry.last_epoch().unwrap();
    let queue_wait = snapshot
        .steps
        .iter()
        .position(|s| s.name == "queue-wait")
        .unwrap();
    let waits = snapshot.steps[queue_wait].count;
    assert!(waits > 0, "a slow consumer must force blocked waits");
    let wait_spans = snapshot
        .spans
        .iter()
        .filter(|s| s.phase as usize == queue_wait)
        .count() as u64;
    assert_eq!(
        wait_spans, waits,
        "each blocked wait must record its own queue-wait span"
    );
}
