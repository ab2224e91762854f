//! Integration tests of the disaggregated preprocessing service
//! ([`presto_pipeline::serve`]): wire-protocol edge cases, multiset
//! equality between single-process and multi-worker epochs, and
//! seed-matrixed worker-kill failover.

use presto_codecs::checksum::Crc32;
use presto_datasets::generators;
use presto_datasets::steps;
use presto_formats::image::jpg;
use presto_pipeline::real::{
    FaultSpec, FaultStore, Materialized, MemStore, RealExecutor, RetryPolicy,
};
use presto_pipeline::serve::{
    read_frame, serve_epoch, write_frame, Frame, MultisetChecksum, ServeClientConfig, ServeError,
    ServeWorker, ServeWorkerConfig, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use presto_pipeline::telemetry::alloc::{self, CountingAllocator};
use presto_pipeline::{
    FaultPolicy, Pipeline, PipelineError, Resilience, Sample, Strategy, Telemetry,
};
use presto_tensor::RecordWriter;
use std::sync::Arc;

/// Feeds the per-thread allocation counters [`read_hostile`] reads.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::system();

/// Fault seeds under test; CI sweeps one at a time via `FAULT_SEED`.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![1, 2, 3],
    }
}

/// The CV pipeline with its random crop kept online: sample bytes then
/// depend on step RNG, so multiset equality across process/worker
/// layouts exercises the per-shard seeding guarantee, not just framing.
fn cv_workload(samples: u64, shards: usize) -> (Pipeline, Materialized, Arc<MemStore>) {
    let pipeline = steps::executable_cv_pipeline(64, 56);
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

/// Single-process reference epoch: the multiset every serve layout
/// must reproduce exactly.
fn reference_checksum(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &MemStore,
    epoch_seed: u64,
) -> MultisetChecksum {
    let checksum = std::sync::Mutex::new(MultisetChecksum::default());
    let exec = RealExecutor::new(3);
    let stats = exec
        .epoch(pipeline, dataset, store, None, epoch_seed, |sample| {
            checksum.lock().unwrap().add(sample)
        })
        .unwrap();
    let checksum = checksum.into_inner().unwrap();
    assert_eq!(stats.samples, checksum.count);
    checksum
}

fn collect_checksum() -> (
    Arc<std::sync::Mutex<MultisetChecksum>>,
    impl Fn(&Sample) + Send + Sync,
) {
    let checksum = Arc::new(std::sync::Mutex::new(MultisetChecksum::default()));
    let sink = Arc::clone(&checksum);
    (checksum, move |sample: &Sample| {
        sink.lock().unwrap().add(sample)
    })
}

#[test]
fn batch_frames_round_trip_zero_length_and_max_size() {
    // Zero-length: a batch with no samples at all.
    let empty = Frame::Batch2 {
        shard: 0,
        count: 0,
        codec: 0,
        span_id: 0,
        t_send: 0,
        block: Vec::new(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &empty).unwrap();
    assert_eq!(read_frame(&mut &wire[..]).unwrap(), Some(empty));

    // Max-size: payload exactly at MAX_FRAME_LEN passes; one byte more
    // is rejected before the allocation.
    let batch_overhead = 1 + 4 + 4 + 1 + 8 + 8; // type + shard + count + codec + span_id + t_send
    let huge = Frame::Batch2 {
        shard: 1,
        count: 1,
        codec: 0,
        span_id: 0,
        t_send: 0,
        block: vec![0x5A; MAX_FRAME_LEN as usize - batch_overhead],
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &huge).unwrap();
    assert_eq!(read_frame(&mut &wire[..]).unwrap(), Some(huge));

    let over = (MAX_FRAME_LEN + 1).to_le_bytes();
    let mut wire = over.to_vec();
    wire.extend_from_slice(&Crc32::checksum(&over).to_le_bytes());
    assert_eq!(
        read_frame(&mut &wire[..]),
        Err(ServeError::TooLarge(MAX_FRAME_LEN + 1))
    );
}

/// [`read_frame`] on hostile bytes: whatever it answers, it never held
/// more than one capped frame (payload plus its CRC) to get there.
fn read_hostile(wire: &[u8]) -> Result<Option<Frame>, ServeError> {
    let scope = alloc::scope_begin();
    let result = read_frame(&mut &wire[..]);
    let peak = alloc::scope_end(scope).peak_live;
    assert!(peak <= MAX_FRAME_LEN + 4, "{peak} bytes held");
    result
}

#[test]
fn truncated_streams_and_garbage_headers_are_rejected() {
    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        &Frame::Assign {
            epoch_seed: 42,
            credits: 2,
            shards: vec!["cv-split2-shard0000".into()],
            trace_id: 0,
            parent_span: 0,
            flags: 0,
        },
    )
    .unwrap();
    // Every possible truncation point except the frame boundary fails
    // loudly — never a silent partial frame.
    for cut in 1..wire.len() {
        let err = read_frame(&mut &wire[..cut]).unwrap_err();
        assert!(
            matches!(err, ServeError::Truncated | ServeError::BadHeader),
            "cut at {cut} gave {err:?}"
        );
    }
    // A lying length, with a header CRC that vouches for it, is refused
    // before anything is allocated for it, or runs into the end of the
    // stream; a lying shard count or name length inside the payload
    // (any u32 of it) is a protocol error. `read_hostile` bounds what
    // either may allocate on the way.
    let payload_len = wire.len() as u64 - 16;
    let relen = |len: u64| {
        let mut lying = wire.clone();
        lying[..8].copy_from_slice(&len.to_le_bytes());
        let crc = Crc32::checksum(&lying[..8]);
        lying[8..12].copy_from_slice(&crc.to_le_bytes());
        lying
    };
    for len in [MAX_FRAME_LEN + 1, u64::MAX] {
        assert_eq!(read_hostile(&relen(len)), Err(ServeError::TooLarge(len)));
    }
    for len in [MAX_FRAME_LEN, payload_len + 1] {
        assert_eq!(read_hostile(&relen(len)), Err(ServeError::Truncated));
    }
    assert_eq!(
        read_hostile(&relen(payload_len - 1)),
        Err(ServeError::BadPayload)
    );
    for at in 13..wire.len() - 7 {
        let mut rec = RecordWriter::new();
        rec.write(&[&wire[12..at], &[0xFF; 4], &wire[at + 4..wire.len() - 4]].concat());
        let got = read_hostile(&rec.finish());
        assert!(
            matches!(got, Ok(Some(_)) | Err(ServeError::Protocol(_))),
            "lie at payload byte {}: {got:?}",
            at - 12
        );
    }
    // Garbage where the header should be: length CRC cannot match.
    let garbage = [0x5Cu8; 64];
    assert_eq!(read_frame(&mut &garbage[..]), Err(ServeError::BadHeader));
    // Valid header, corrupted payload: payload CRC catches it.
    let last = wire.len() - 5; // inside the payload, before its CRC
    wire[last] ^= 0xFF;
    assert_eq!(read_frame(&mut &wire[..]), Err(ServeError::BadPayload));
}

#[test]
fn worker_takes_hello_once_and_first_or_answers_err_and_closes() {
    let (pipeline, dataset, store) = cv_workload(8, 2);
    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        store.clone() as Arc<dyn presto_pipeline::BlobStore>,
        Resilience::default(),
        None,
        ServeWorkerConfig::default(),
    )
    .unwrap();
    presto_integration_tests::assert_hello_is_required_once_and_first(worker.addr());

    // The dialing side of the same rule: a worker of another version
    // fails the epoch, with the healthy worker right beside it — and
    // is told why before the client hangs up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stranger = listener.local_addr().unwrap().to_string();
    let heard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION + 1,
            trace_id: 0,
        };
        write_frame(&mut stream, &hello).unwrap();
        let mut heard = Vec::new();
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            heard.push(frame);
        }
        heard
    });
    let err = serve_epoch(
        &[stranger, worker.addr().to_string()],
        &dataset.shards,
        3,
        &ServeClientConfig::default(),
        None,
        |_| {},
    )
    .unwrap_err();
    let version = PROTOCOL_VERSION + 1;
    assert!(
        err.to_string()
            .contains(&format!("protocol version {version}")),
        "{err}"
    );
    let heard = heard.join().unwrap();
    assert!(
        matches!(heard[..], [Frame::Hello { .. }, Frame::Err { .. }]),
        "{heard:?}"
    );
}

#[test]
fn two_workers_deliver_the_single_process_multiset() {
    let (pipeline, dataset, store) = cv_workload(32, 8);
    let reference = reference_checksum(&pipeline, &dataset, &store, 11);

    let workers: Vec<ServeWorker> = (0..2)
        .map(|_| {
            ServeWorker::spawn(
                "127.0.0.1:0",
                &pipeline,
                &dataset,
                store.clone() as Arc<dyn presto_pipeline::BlobStore>,
                Resilience::default(),
                None,
                ServeWorkerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let (checksum, consume) = collect_checksum();
    let report = serve_epoch(
        &addrs,
        &dataset.shards,
        11,
        &ServeClientConfig::default(),
        None,
        consume,
    )
    .unwrap();
    assert_eq!(report.samples, 32);
    assert_eq!(report.rounds, 1);
    assert_eq!(report.reassignments, 0);
    assert!(!report.degraded);
    assert_eq!(report.checksum, reference);
    assert_eq!(checksum.lock().unwrap().digest(), reference.digest());
    // A different epoch seed must change the multiset (random crop).
    let other = reference_checksum(&pipeline, &dataset, &store, 12);
    assert_ne!(other, reference);
}

#[test]
fn killed_worker_fails_over_with_identical_multiset() {
    let (pipeline, dataset, store) = cv_workload(32, 8);
    for seed in fault_seeds() {
        let epoch_seed = 100 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        // Victim dies after a seed-dependent number of batches;
        // batch_samples 1 makes every sample its own frame so the kill
        // lands mid-shard. It is assigned 16 samples (4 shards of 4), so
        // the kill point wraps there: a later one would never fire.
        let victim = ServeWorker::spawn(
            "127.0.0.1:0",
            &pipeline,
            &dataset,
            store.clone() as Arc<dyn presto_pipeline::BlobStore>,
            Resilience::default(),
            None,
            ServeWorkerConfig {
                batch_samples: 1,
                fail_after_batches: Some(1 + seed % 16),
                ..ServeWorkerConfig::default()
            },
        )
        .unwrap();
        let survivor = ServeWorker::spawn(
            "127.0.0.1:0",
            &pipeline,
            &dataset,
            store.clone() as Arc<dyn presto_pipeline::BlobStore>,
            Resilience::default(),
            None,
            ServeWorkerConfig::default(),
        )
        .unwrap();
        let addrs = vec![victim.addr().to_string(), survivor.addr().to_string()];
        let telemetry = Telemetry::new();
        let (_checksum, consume) = collect_checksum();
        let report = serve_epoch(
            &addrs,
            &dataset.shards,
            epoch_seed,
            &ServeClientConfig::default(),
            Some(&telemetry),
            consume,
        )
        .unwrap();
        assert_eq!(report.samples, 32, "seed {seed}");
        assert!(report.reassignments > 0, "seed {seed}: kill must reassign");
        assert!(report.rounds > 1, "seed {seed}");
        assert!(!report.degraded, "seed {seed}: failover is not degradation");
        assert_eq!(report.checksum, reference, "seed {seed}");
        assert!(victim.is_stopped(), "seed {seed}: kill switch fired");
        let snapshot = telemetry.serve().snapshot();
        assert_eq!(snapshot.reassignments, report.reassignments);
        assert!(snapshot.done);
        survivor.stop();
    }
}

#[test]
fn idle_and_killed_workers_stop_and_drop() {
    use presto_integration_tests::returns;
    let (pipeline, dataset, store) = cv_workload(8, 2);
    let spawn = |config| {
        ServeWorker::spawn(
            "127.0.0.1:0",
            &pipeline,
            &dataset,
            store.clone() as Arc<dyn presto_pipeline::BlobStore>,
            Resilience::default(),
            None,
            config,
        )
        .unwrap()
    };
    // Never saw a client: nothing but the blocked accept to undo.
    let idle = spawn(ServeWorkerConfig::default());
    returns("stop() of an idle worker", move || idle.stop());
    let idle = spawn(ServeWorkerConfig::default());
    returns("drop of an idle worker", move || drop(idle));

    // The kill switch fires on the first batch. That a dial racing it is
    // never served is checked where the listener's lifetime is known
    // (`serve.rs`'s unit tests): once the listener is gone its port may
    // already be another test's.
    let killed = spawn(ServeWorkerConfig {
        batch_samples: 1,
        fail_after_batches: Some(1),
        ..ServeWorkerConfig::default()
    });
    let addr = killed.addr();
    let epoch = serve_epoch(
        &[addr.to_string()],
        &dataset.shards,
        5,
        &ServeClientConfig::default(),
        None,
        |_| {},
    );
    assert!(epoch.is_err());
    assert!(killed.is_stopped());
    returns("drop of a killed worker", move || drop(killed));
}

#[test]
fn all_workers_dead_is_policy_controlled() {
    let (pipeline, dataset, store) = cv_workload(16, 4);
    let spawn_doomed = || {
        ServeWorker::spawn(
            "127.0.0.1:0",
            &pipeline,
            &dataset,
            store.clone() as Arc<dyn presto_pipeline::BlobStore>,
            Resilience::default(),
            None,
            ServeWorkerConfig {
                batch_samples: 1,
                fail_after_batches: Some(2),
                ..ServeWorkerConfig::default()
            },
        )
        .unwrap()
    };
    // Fail-fast: the epoch errors once no worker survives.
    let doomed = spawn_doomed();
    let err = serve_epoch(
        &[doomed.addr().to_string()],
        &dataset.shards,
        5,
        &ServeClientConfig::default(),
        None,
        |_| {},
    )
    .unwrap_err();
    assert!(
        matches!(err, PipelineError::LostShard { .. }),
        "got {err:?}"
    );

    // Degrade with budget: the epoch completes, reporting lost shards.
    let doomed = spawn_doomed();
    let report = serve_epoch(
        &[doomed.addr().to_string()],
        &dataset.shards,
        5,
        &ServeClientConfig {
            policy: FaultPolicy::degrade_unbounded(),
            ..ServeClientConfig::default()
        },
        None,
        |_| {},
    )
    .unwrap();
    assert!(report.degraded);
    assert!(report.lost_shards > 0);
    assert!(report.samples < 16);

    // Degrade with too small a budget: typed budget error.
    let doomed = spawn_doomed();
    let err = serve_epoch(
        &[doomed.addr().to_string()],
        &dataset.shards,
        5,
        &ServeClientConfig {
            policy: FaultPolicy::Degrade {
                max_skipped_samples: 0,
                max_lost_shards: 0,
            },
            ..ServeClientConfig::default()
        },
        None,
        |_| {},
    )
    .unwrap_err();
    assert!(
        matches!(err, PipelineError::FaultBudgetExceeded { .. }),
        "got {err:?}"
    );
}

#[test]
fn injected_store_faults_apply_end_to_end() {
    // A worker over a store with transient get failures still serves
    // the exact reference multiset: retries absorb the faults before
    // the wire ever sees them.
    let (pipeline, dataset, store) = cv_workload(24, 6);
    let reference = reference_checksum(&pipeline, &dataset, &store, 21);
    let spec = FaultSpec::new(fault_seeds()[0]).with_get_failures(25);
    let faulty = Arc::new(FaultStore::new(store, spec));
    let telemetry = Telemetry::new();
    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        faulty.clone() as Arc<dyn presto_pipeline::BlobStore>,
        Resilience::new(RetryPolicy::quick(8), FaultPolicy::FailFast),
        Some(Arc::clone(&telemetry)),
        ServeWorkerConfig::default(),
    )
    .unwrap();
    // The injection RNG is seed-driven: a given seed may roll no
    // failures in one epoch's handful of gets, so serve the same epoch
    // until a fault lands (its multiset must match every single time).
    let mut injected = 0;
    for _ in 0..8 {
        let (_checksum, consume) = collect_checksum();
        let report = serve_epoch(
            &[worker.addr().to_string()],
            &dataset.shards,
            21,
            &ServeClientConfig::default(),
            None,
            consume,
        )
        .unwrap();
        assert_eq!(report.checksum, reference);
        injected = faulty.injected().get_failures;
        if injected > 0 {
            break;
        }
    }
    assert!(injected > 0, "faults were injected");
    // The worker's own telemetry recorded the retries and the serve
    // gauges saw the traffic.
    let epoch = telemetry.last_epoch().expect("worker recorded the epoch");
    assert!(epoch.retries > 0);
    let serve = telemetry.serve().snapshot();
    assert!(serve.batches_sent > 0);
    assert!(serve.bytes_sent > 0);
    worker.stop();
}

#[test]
fn a_consumer_that_keeps_every_sample_past_commit_gets_the_reference_multiset() {
    // The client recycles a shard's receive buffers at its commit, once
    // nothing aliases them. A consumer that keeps a clone of every
    // sample keeps every buffer alive instead: the samples it holds
    // after the epoch are still the ones delivered.
    let (pipeline, dataset, store) = cv_workload(32, 4);
    let reference = reference_checksum(&pipeline, &dataset, &store, 17);
    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        store.clone() as Arc<dyn presto_pipeline::BlobStore>,
        Resilience::default(),
        None,
        ServeWorkerConfig {
            batch_samples: 3,
            ..ServeWorkerConfig::default()
        },
    )
    .unwrap();
    let kept = std::sync::Mutex::new(Vec::new());
    let report = serve_epoch(
        &[worker.addr().to_string()],
        &dataset.shards,
        17,
        &ServeClientConfig {
            credits: 2,
            ..ServeClientConfig::default()
        },
        None,
        |sample| kept.lock().unwrap().push(sample.clone()),
    )
    .unwrap();
    worker.stop();
    let mut after = MultisetChecksum::default();
    for sample in kept.into_inner().unwrap() {
        after.add(&sample);
    }
    assert_eq!(report.checksum, reference);
    assert_eq!(after, reference);
}

#[test]
fn compressed_wire_batches_round_trip() {
    use presto_codecs::{Codec, Level};
    let (pipeline, dataset, store) = cv_workload(16, 4);
    let reference = reference_checksum(&pipeline, &dataset, &store, 31);
    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        store.clone() as Arc<dyn presto_pipeline::BlobStore>,
        Resilience::default(),
        None,
        ServeWorkerConfig {
            wire_codec: Codec::Gzip(Level::FAST),
            ..ServeWorkerConfig::default()
        },
    )
    .unwrap();
    let (_checksum, consume) = collect_checksum();
    let report = serve_epoch(
        &[worker.addr().to_string()],
        &dataset.shards,
        31,
        &ServeClientConfig::default(),
        None,
        consume,
    )
    .unwrap();
    assert_eq!(report.checksum, reference);
    worker.stop();
}
