//! Fault-tolerance integration tests: epochs over a deliberately
//! unreliable [`FaultStore`] must either degrade gracefully within the
//! configured error budget (with exact, seed-reproducible accounting)
//! or fail fast with a typed error naming the damaged shard.
//!
//! The fault schedule is a pure function of the fault seed, so every
//! assertion here is deterministic. CI runs this file under several
//! seeds via the `FAULT_SEED` environment variable.

use presto_pipeline::real::{
    BlobStore, FaultSpec, FaultStore, MemStore, RealExecutor, RetryPolicy,
};
use presto_pipeline::step::{CostModel, SizeModel, Step, StepSpec};
use presto_pipeline::{
    FaultPolicy, Payload, Pipeline, PipelineError, Resilience, Sample, Strategy,
};
use presto_tensor::Tensor;
use rand::rngs::SmallRng;
use std::sync::Arc;

/// Fault seed under test; CI sweeps this via `FAULT_SEED`.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

/// Doubles every f32 element — a cheap, verifiable online step.
struct DoubleStep;

impl Step for DoubleStep {
    fn spec(&self) -> StepSpec {
        StepSpec::native(
            "double",
            CostModel::new(100.0, 1.0, 0.0),
            SizeModel::IDENTITY,
        )
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        let Payload::Tensors(tensors) = &sample.payload else {
            return Err(PipelineError::PayloadMismatch {
                step: "double".into(),
                expected: "tensors",
            });
        };
        let doubled = tensors
            .iter()
            .map(|t| {
                let values: Vec<f32> = t.to_vec::<f32>().unwrap().iter().map(|x| x * 2.0).collect();
                Tensor::from_vec(t.shape().to_vec(), values).unwrap()
            })
            .collect();
        Ok(Sample::from_tensors(sample.key, doubled))
    }
}

/// Panics when it sees `poison_key` — a poisoned sample.
struct PanicStep {
    poison_key: u64,
}

impl Step for PanicStep {
    fn spec(&self) -> StepSpec {
        StepSpec::native("boom", CostModel::new(1.0, 0.0, 0.0), SizeModel::IDENTITY)
    }

    fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
        assert_ne!(sample.key, self.poison_key, "poisoned sample");
        Ok(sample)
    }
}

fn source(n: u64) -> Vec<Sample> {
    (0..n)
        .map(|key| {
            Sample::from_tensors(
                key,
                vec![Tensor::from_vec(vec![4], vec![key as f32; 4]).unwrap()],
            )
        })
        .collect()
}

fn pipeline() -> Pipeline {
    Pipeline::new("fault-test").push_step(Arc::new(DoubleStep))
}

/// Materialize `samples` samples into `shards` shards of a fresh
/// MemStore, all steps online.
fn materialized(
    samples: u64,
    shards: usize,
    threads: usize,
) -> (
    Pipeline,
    presto_pipeline::real::Materialized,
    Arc<MemStore>,
    RealExecutor,
) {
    let pipeline = pipeline();
    let store = Arc::new(MemStore::new());
    let exec = RealExecutor::new(threads);
    let strategy = Strategy::at_split(0)
        .with_threads(threads)
        .with_shards(shards);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source(samples), store.as_ref())
        .unwrap();
    assert_eq!(dataset.shards.len(), shards);
    (pipeline, dataset, store, exec)
}

/// Drain a stream, collecting delivered keys; panics on stream errors.
fn drain_keys(stream: &mut presto_pipeline::real::EpochStream) -> Vec<u64> {
    let mut keys = Vec::new();
    for result in stream {
        keys.push(result.expect("degraded epoch must not surface errors").key);
    }
    keys.sort_unstable();
    keys
}

/// The ISSUE's acceptance scenario: a streaming epoch over a store with
/// 20% transient get failures plus one bit-flipped shard completes
/// under `Degrade` with exact, reproducible stats.
#[test]
fn degraded_stream_epoch_survives_transient_faults_and_corruption() {
    let seed = fault_seed();
    let (pipeline, dataset, store, exec) = materialized(48, 8, 3);
    let spec = FaultSpec::new(seed)
        .with_get_failures(20)
        .with_corrupt_blob(dataset.shards[0].clone());
    let resilience = Resilience::new(
        RetryPolicy::quick(8),
        FaultPolicy::Degrade {
            max_skipped_samples: 4,
            max_lost_shards: 0,
        },
    );

    let mut runs = Vec::new();
    for epoch_seed in [9, 9] {
        // A fresh FaultStore each run: the schedule restarts from
        // attempt zero, so both runs must be bit-identical.
        let faulty = Arc::new(FaultStore::new(Arc::clone(&store), spec.clone()));
        let mut stream = exec
            .stream_epoch_with(
                &pipeline,
                &dataset,
                Arc::clone(&faulty) as Arc<dyn BlobStore>,
                None,
                16,
                epoch_seed,
                resilience.clone(),
            )
            .unwrap();
        let keys = drain_keys(&mut stream);
        let stats = stream.join().unwrap();
        assert!(
            stats.retries > 0,
            "20% failures must force retries (seed {seed})"
        );
        assert_eq!(
            stats.skipped_samples, 1,
            "one bit flip costs exactly one record"
        );
        assert_eq!(stats.lost_shards, 0);
        assert_eq!(stats.samples, 47);
        assert!(stats.degraded);
        assert_eq!(keys.len(), 47, "every uncorrupted sample exactly once");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "no duplicates");
        let injected = faulty.injected();
        assert!(injected.get_failures > 0);
        assert_eq!(injected.corrupted_gets, 1);
        runs.push((
            stats.samples,
            stats.retries,
            stats.skipped_samples,
            stats.lost_shards,
            keys,
        ));
    }
    assert_eq!(runs[0], runs[1], "stats must be seed-reproducible");
}

/// The FailFast twin: the same corruption aborts the epoch with a typed
/// error naming the damaged shard.
#[test]
fn failfast_stream_epoch_names_the_corrupt_shard() {
    let (pipeline, dataset, store, _) = materialized(48, 8, 3);
    let exec = RealExecutor::new(1);
    let spec = FaultSpec::new(fault_seed()).with_corrupt_blob(dataset.shards[0].clone());
    let faulty = Arc::new(FaultStore::new(store, spec));
    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            faulty as Arc<dyn BlobStore>,
            None,
            16,
            1,
            Resilience::default(),
        )
        .unwrap();
    let error = stream
        .find_map(|r| r.err())
        .expect("fail-fast epoch must surface the corruption");
    match &error {
        PipelineError::CorruptShard { shard, .. } => assert_eq!(shard, &dataset.shards[0]),
        other => panic!("expected CorruptShard, got {other}"),
    }
    assert_eq!(
        stream.join().unwrap_err(),
        error,
        "join reports the same failure"
    );
}

/// Satellite (d): flip one bit mid-shard directly in the MemStore blob;
/// Degrade completes with `skipped_samples == 1` and every uncorrupted
/// sample delivered exactly once, FailFast reports the precise error.
#[test]
fn manual_bit_flip_recovery_and_failfast() {
    let (pipeline, dataset, store, exec) = materialized(32, 4, 2);
    // Byte 13 is the second payload byte of the shard's first record —
    // bit 1 of that record's sample key (key 1 in shard 1).
    let shard = &dataset.shards[1];
    let mut blob = store.get(shard).unwrap().to_vec();
    blob[13] ^= 0x04;
    store.put(shard, &blob).unwrap();

    let consumed = std::sync::Mutex::new(Vec::new());
    let resilience = Resilience::degrade(1, 0);
    let stats = exec
        .epoch_with(
            &pipeline,
            &dataset,
            store.as_ref(),
            None,
            1,
            &resilience,
            |s| {
                consumed.lock().unwrap().push(s.key);
            },
        )
        .unwrap();
    assert_eq!(stats.skipped_samples, 1);
    assert_eq!(stats.samples, 31);
    assert!(stats.degraded);
    let mut keys = consumed.into_inner().unwrap();
    keys.sort_unstable();
    let expected: Vec<u64> = (0..32).filter(|k| *k != 1).collect();
    assert_eq!(
        keys, expected,
        "all uncorrupted samples exactly once, key 1 lost"
    );

    let error = exec
        .epoch(&pipeline, &dataset, store.as_ref(), None, 1, |_| {})
        .unwrap_err();
    match error {
        PipelineError::CorruptShard { shard: s, why } => {
            assert_eq!(&s, shard);
            assert!(why.contains("CRC"), "cause must name the CRC check: {why}");
        }
        other => panic!("expected CorruptShard, got {other}"),
    }
}

#[test]
fn lost_shard_within_budget_is_absorbed() {
    let (pipeline, dataset, store, exec) = materialized(48, 8, 3);
    let spec = FaultSpec::new(fault_seed()).with_lost_blob(dataset.shards[2].clone());
    let faulty = Arc::new(FaultStore::new(store, spec));
    let resilience = Resilience::degrade(0, 1);
    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            Arc::clone(&faulty) as Arc<dyn BlobStore>,
            None,
            16,
            1,
            resilience,
        )
        .unwrap();
    let keys = drain_keys(&mut stream);
    let stats = stream.join().unwrap();
    assert_eq!(stats.lost_shards, 1);
    assert_eq!(stats.samples, 42, "48 samples minus one 6-sample shard");
    assert_eq!(keys.len(), 42);
    assert!(stats.degraded);
    assert_eq!(faulty.injected().lost_gets, 1);
}

#[test]
fn lost_shard_fails_fast_by_default_and_exceeds_zero_budget() {
    let (pipeline, dataset, store, exec) = materialized(48, 8, 3);
    let spec = FaultSpec::new(fault_seed()).with_lost_blob(dataset.shards[2].clone());
    let faulty: Arc<dyn BlobStore> = Arc::new(FaultStore::new(store, spec));

    let error = exec
        .epoch_with(
            &pipeline,
            &dataset,
            &faulty,
            None,
            1,
            &Resilience::default(),
            |_| {},
        )
        .unwrap_err();
    assert_eq!(
        error,
        PipelineError::LostShard {
            shard: dataset.shards[2].clone()
        }
    );

    let error = exec
        .epoch_with(
            &pipeline,
            &dataset,
            &faulty,
            None,
            1,
            &Resilience::degrade(4, 0), // shard budget exhausted
            |_| {},
        )
        .unwrap_err();
    assert!(
        matches!(
            error,
            PipelineError::FaultBudgetExceeded { lost_shards: 1, .. }
        ),
        "got {error}"
    );
}

#[test]
fn worker_panic_is_contained_in_streaming_epochs() {
    let pipeline = Pipeline::new("poisoned")
        .push_step(Arc::new(DoubleStep))
        .push_step(Arc::new(PanicStep { poison_key: 7 }));
    let store = Arc::new(MemStore::new());
    let exec = RealExecutor::new(2);
    let strategy = Strategy::at_split(0).with_threads(2).with_shards(4);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source(24), store.as_ref())
        .unwrap();

    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            Arc::clone(&store) as Arc<dyn BlobStore>,
            None,
            8,
            1,
            Resilience::default(),
        )
        .unwrap();
    let error = stream.find_map(|r| r.err()).expect("panic must surface");
    assert_eq!(
        error,
        PipelineError::WorkerPanicked {
            step: "boom".into()
        }
    );
    assert!(stream.join().is_err());

    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            store as Arc<dyn BlobStore>,
            None,
            8,
            1,
            Resilience::degrade(1, 0),
        )
        .unwrap();
    let keys = drain_keys(&mut stream);
    let stats = stream.join().unwrap();
    assert_eq!(stats.samples, 23);
    assert_eq!(stats.skipped_samples, 1);
    assert_eq!(keys, (0..24).filter(|k| *k != 7).collect::<Vec<u64>>());
}

#[test]
fn materialize_retries_transient_put_failures() {
    let pipeline = pipeline();
    let exec = RealExecutor::new(2);
    let strategy = Strategy::at_split(0).with_threads(2).with_shards(8);
    let spec = FaultSpec::new(fault_seed()).with_put_failures(50);
    let faulty = FaultStore::new(MemStore::new(), spec);
    let resilience = Resilience::new(RetryPolicy::quick(8), FaultPolicy::FailFast);
    let (dataset, _) = exec
        .materialize_with(&pipeline, &strategy, &source(48), &faulty, &resilience)
        .unwrap();
    assert_eq!(dataset.sample_count, 48);
    assert!(
        faulty.injected().put_failures > 0,
        "50% put failures must fire"
    );
    // The materialized dataset must be fully readable afterwards.
    let stats = exec
        .epoch(&pipeline, &dataset, &faulty.into_inner(), None, 1, |_| {})
        .unwrap();
    assert_eq!(stats.samples, 48);
}

/// Without retry (`RetryPolicy::none`), a guaranteed-transient store
/// surfaces a typed `Transient` error carrying the attempt count.
#[test]
fn exhausted_retries_surface_attempt_count() {
    let (pipeline, dataset, store, exec) = materialized(8, 2, 1);
    let spec = FaultSpec::new(fault_seed()).with_get_failures(100);
    let faulty: Arc<dyn BlobStore> = Arc::new(FaultStore::new(store, spec));
    let resilience = Resilience::new(RetryPolicy::quick(3), FaultPolicy::FailFast);
    let error = exec
        .epoch_with(&pipeline, &dataset, &faulty, None, 1, &resilience, |_| {})
        .unwrap_err();
    match error {
        PipelineError::Transient { blob, attempts } => {
            assert!(dataset.shards.contains(&blob));
            assert_eq!(attempts, 3);
        }
        other => panic!("expected Transient, got {other}"),
    }
}
