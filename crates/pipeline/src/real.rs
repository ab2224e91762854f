//! The real execution engine: actual worker threads over actual data.
//!
//! This is the usable data-loading library: samples are materialized to
//! sharded, CRC-framed record streams (optionally GZIP/ZLIB-compressed)
//! in a [`BlobStore`], and online epochs stream them through the
//! remaining pipeline steps on `threads` workers. An optional
//! application-level cache keeps decoded samples in memory after the
//! first epoch, exactly like `tf.data.Dataset.cache`.
//!
//! Execution is fault-tolerant: storage operations are retried per a
//! [`RetryPolicy`], and a [`FaultPolicy`] decides whether faults that
//! survive retry (corrupt records, lost shards, panicking steps) abort
//! the epoch or are absorbed within an error budget — see
//! [`crate::fault`] and `docs/robustness.md`.

use crate::dataplane::{self, BufferPool, SampleBundle, DEFAULT_BUNDLE_SIZE};
use crate::error::PipelineError;
use crate::fault::{FaultCounters, RetryError};
use crate::pipeline::Pipeline;
use crate::sample::Sample;
use crate::strategy::Strategy;
use bytes::Bytes;
use parking_lot::Mutex;
use presto_codecs::Codec;
use presto_telemetry::{
    EpochRecorder, Telemetry, BUILTIN_PHASES, PHASE_DECODE, PHASE_DECOMPRESS, PHASE_HANDOFF,
    PHASE_QUEUE_WAIT, PHASE_READ,
};
use presto_tensor::{RecordReader, RecordWriter};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::fault::{FaultPolicy, Resilience, RetryPolicy};
pub use crate::store::{
    BlobStore, DirStore, FaultSpec, FaultStore, InjectedFaults, MemStore, StoreError,
};

/// Handle to a materialized (offline-preprocessed) dataset.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// Shard blob names, in order.
    pub shards: Vec<String>,
    /// Codec the shards were compressed with.
    pub codec: Codec,
    /// Samples across all shards.
    pub sample_count: u64,
    /// Stored bytes across all shards (after compression).
    pub stored_bytes: u64,
    /// Pipeline split position the shards were materialized at.
    pub split: usize,
}

/// Application-level sample cache (`tf.data.Dataset.cache` equivalent).
#[derive(Debug)]
pub struct AppCache {
    capacity_bytes: u64,
    used_bytes: AtomicU64,
    samples: Mutex<Vec<Sample>>,
    complete: std::sync::atomic::AtomicBool,
}

impl AppCache {
    /// A cache bounded at `capacity_bytes` of decoded sample payload.
    pub fn new(capacity_bytes: u64) -> Self {
        AppCache {
            capacity_bytes,
            used_bytes: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
            complete: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// True once a full epoch has been inserted.
    pub fn is_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    fn insert(&self, sample: Sample) -> Result<(), PipelineError> {
        let bytes = sample.nbytes() as u64;
        let used = self.used_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if used > self.capacity_bytes {
            return Err(PipelineError::CacheOverflow {
                needed: used,
                available: self.capacity_bytes,
            });
        }
        self.samples.lock().push(sample);
        Ok(())
    }

    fn snapshot(&self) -> Vec<Sample> {
        self.samples.lock().clone()
    }
}

/// Counters from one online epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Samples delivered to the consumer.
    pub samples: u64,
    /// Compressed bytes read from the store.
    pub bytes_read: u64,
    /// Wall-clock time of the epoch.
    pub elapsed: Duration,
    /// Storage retries performed (attempts beyond each operation's first).
    pub retries: u64,
    /// Corrupt or undecodable samples skipped under [`FaultPolicy::Degrade`].
    pub skipped_samples: u64,
    /// Shards dropped as unreadable/missing under [`FaultPolicy::Degrade`].
    pub lost_shards: u64,
    /// True when any fault was absorbed instead of delivered.
    pub degraded: bool,
}

impl EpochStats {
    /// Samples per second.
    pub fn samples_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.samples as f64 / self.elapsed.as_secs_f64()
    }

    fn finish(mut self, counters: &FaultCounters, elapsed: Duration) -> Self {
        let (retries, skipped_samples, lost_shards) = counters.snapshot();
        self.elapsed = elapsed;
        self.retries = retries;
        self.skipped_samples = skipped_samples;
        self.lost_shards = lost_shards;
        self.degraded = skipped_samples > 0 || lost_shards > 0;
        self
    }
}

/// Map an exhausted retry loop to a typed pipeline error naming the shard.
fn retry_failure(error: RetryError) -> PipelineError {
    match error.error {
        StoreError::Io(why) => PipelineError::Io(why),
        StoreError::NotFound { blob } => PipelineError::LostShard { shard: blob },
        StoreError::Transient { blob } => PipelineError::Transient {
            blob,
            attempts: error.attempts,
        },
    }
}

/// True for shard-level faults [`FaultPolicy::Degrade`] may absorb
/// (the shard's data is unreachable, but the medium itself works).
fn shard_fault_is_degradable(error: &PipelineError) -> bool {
    matches!(
        error,
        PipelineError::LostShard { .. } | PipelineError::Transient { .. }
    )
}

/// Fetch one shard, retrying transient failures per the policy.
/// Retries are double-booked: into the epoch's [`FaultCounters`]
/// (authoritative totals) and into `worker`'s telemetry slot.
fn fetch_shard(
    store: &dyn BlobStore,
    shard: &str,
    resilience: &Resilience,
    counters: &FaultCounters,
    rec: &EpochRecorder,
    worker: usize,
) -> Result<Bytes, PipelineError> {
    let seed = fnv64(shard);
    match resilience.retry.run(seed, || store.get(shard)) {
        Ok((blob, retries)) => {
            counters.add_retries(u64::from(retries));
            rec.retries(worker, u64::from(retries));
            Ok(blob)
        }
        Err(error) => {
            let retries = u64::from(error.attempts.saturating_sub(1));
            counters.add_retries(retries);
            rec.retries(worker, retries);
            Err(retry_failure(error))
        }
    }
}

/// Apply one step, containing panics: a poisoned sample reports the
/// failing step by name instead of tearing down the worker pool.
fn apply_step(
    step: &dyn crate::step::Step,
    name: &str,
    sample: Sample,
    rng: &mut SmallRng,
) -> Result<Sample, PipelineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step.apply(sample, rng)))
        .unwrap_or_else(|_| {
            Err(PipelineError::WorkerPanicked {
                step: name.to_string(),
            })
        })
}

/// FNV-1a over a shard name: the deterministic per-shard seed basis
/// shared by retry jitter and online-step RNG streams.
pub(crate) fn fnv64(name: &str) -> u64 {
    name.bytes().fold(0xCBF29CE484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001B3)
    })
}

/// RNG seed for the online steps of one shard: a pure function of the
/// epoch seed and the shard *name*, never of the worker that happens to
/// process it. Any thread count — or any remote serve worker, including
/// one picking up a shard after a failover reassignment — therefore
/// produces bit-identical samples for the same epoch seed. This is what
/// makes the multiset checksum of a distributed epoch comparable to a
/// single-process run (see [`crate::serve`]), and it mirrors the
/// offline phase's per-shard seeding.
/// Public because the multi-tenant scheduler ([`crate::tenant`])
/// leans on this contract: cache-affinity routing may place a
/// tenant's shard on *any* backend (including a different one after a
/// requeue) and the delivered multiset stays bit-identical per tenant.
pub fn shard_rng_seed(epoch_seed: u64, shard_name: &str) -> u64 {
    epoch_seed ^ fnv64(shard_name)
}

/// Calibrated delay injection for causal (virtual-speedup) profiling.
///
/// A Coz-style virtual speedup of activity X by `k` (so X takes
/// `1 − k` of its time) is realized by slowing everything *else*
/// down: after every timed phase except X, the worker spins for
/// `(dilation − 1) ×` the phase's measured duration, with
/// `dilation = 1 / (1 − k)`. The experiment epoch then runs entirely
/// in dilated time, and dividing its wall clock by `dilation`
/// recovers the virtual epoch in which X alone got faster. See
/// `presto_core::causal` for the runner that turns this into
/// predicted SPS gains.
///
/// `queue-wait` is never dilated — blocking on a full prefetch buffer
/// is idleness, not work. Injection piggybacks on the telemetry phase
/// timers, so the executor must have telemetry attached for a plan to
/// take effect.
#[derive(Debug)]
pub struct DelayPlan {
    dilation: f64,
    exempt: Vec<usize>,
    exempt_consumer: bool,
    injected_ns: AtomicU64,
}

impl DelayPlan {
    /// A plan dilating every phase except the indices in `exempt`
    /// (`PHASE_*` constants for engine phases, `BUILTIN_PHASES + i`
    /// for online step `i`). `dilation` must be ≥ 1.
    pub fn new(dilation: f64, exempt: Vec<usize>) -> DelayPlan {
        assert!(
            dilation >= 1.0 && dilation.is_finite(),
            "dilation must be a finite factor >= 1, got {dilation}"
        );
        DelayPlan {
            dilation,
            exempt,
            exempt_consumer: false,
            injected_ns: AtomicU64::new(0),
        }
    }

    /// A plan that injects nothing: the instrumentation-overhead
    /// baseline arm.
    pub fn noop() -> DelayPlan {
        DelayPlan::new(1.0, Vec::new())
    }

    /// Mark the *consumer* as the virtually-sped-up activity:
    /// [`DelayPlan::after_consume`] becomes a no-op while worker-side
    /// phases keep dilating.
    pub fn with_exempt_consumer(mut self) -> DelayPlan {
        self.exempt_consumer = true;
        self
    }

    /// The dilation factor.
    pub fn dilation(&self) -> f64 {
        self.dilation
    }

    /// Total spin time injected so far, nanoseconds.
    pub fn injected_ns(&self) -> u64 {
        self.injected_ns.load(Ordering::Relaxed)
    }

    /// Dilate one worker-side phase that just took `took`: spin
    /// `(dilation − 1) × took` unless `phase` is exempt. Queue-wait is
    /// unconditionally exempt.
    pub fn after_phase(&self, phase: usize, took: Duration) {
        if phase == PHASE_QUEUE_WAIT || self.exempt.contains(&phase) {
            return;
        }
        self.spin(took);
    }

    /// Dilate consumer-side work (the training step draining the
    /// queue), unless the consumer itself is the sped-up activity.
    pub fn after_consume(&self, took: Duration) {
        if !self.exempt_consumer {
            self.spin(took);
        }
    }

    fn spin(&self, took: Duration) {
        if self.dilation <= 1.0 {
            return;
        }
        let extra = took.mul_f64(self.dilation - 1.0);
        if extra.is_zero() {
            return;
        }
        // Busy-wait: the injected delay must consume the worker the
        // way real work would, not yield the core like sleep would.
        let t0 = Instant::now();
        while t0.elapsed() < extra {
            std::hint::spin_loop();
        }
        self.injected_ns
            .fetch_add(extra.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The online step chain: `(step name, executable implementation)`.
pub(crate) type ExecutableSteps = Vec<(String, Arc<dyn crate::step::Step>)>;

/// Collect the online steps after `split` as `(name, exec)` pairs,
/// failing up front if any step has no executable implementation.
pub(crate) fn executable_steps(
    pipeline: &Pipeline,
    split: usize,
) -> Result<ExecutableSteps, PipelineError> {
    pipeline.steps()[split..]
        .iter()
        .map(|s| {
            s.exec
                .clone()
                .map(|exec| (s.spec.name.clone(), exec))
                .ok_or_else(|| {
                    PipelineError::Other(format!(
                        "step '{}' has no executable implementation",
                        s.spec.name
                    ))
                })
        })
        .collect()
}

/// What a [`process_shard`] delivery callback wants next.
pub(crate) enum Deliver {
    /// Sample accepted; keep going.
    Delivered,
    /// Stop silently (the consumer hung up).
    Stop,
    /// Abort the epoch with this error.
    Fail(PipelineError),
}

/// Run one shard through the online phase: fetch (with retries),
/// decompress, iterate records, decode samples, apply the online steps,
/// and hand each finished sample to `deliver`. This is the single
/// engine body behind [`RealExecutor::epoch_with`],
/// [`RealExecutor::stream_epoch_with`] and the TCP serve worker
/// ([`crate::serve`]); all of them share its fault-absorption semantics.
///
/// Delivery timing is owned by the `deliver` callback itself (each
/// engine splits it into the `queue-wait` and `hand-off` sub-phases
/// with the attribution only it knows), so `process_shard` does not
/// time the callback.
///
/// Returns `Ok(true)` when the shard completed (possibly degraded),
/// `Ok(false)` when `deliver` asked to stop, and `Err` on a fault the
/// policy would not absorb.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_shard(
    store: &dyn BlobStore,
    shard_name: &str,
    codec: Codec,
    steps: &[(String, Arc<dyn crate::step::Step>)],
    resilience: &Resilience,
    counters: &FaultCounters,
    rec: &EpochRecorder,
    worker: usize,
    epoch_seed: u64,
    bytes_read: &AtomicU64,
    delay: Option<&DelayPlan>,
    deliver: &mut dyn FnMut(Sample) -> Deliver,
) -> Result<bool, PipelineError> {
    let mut rng = SmallRng::seed_from_u64(shard_rng_seed(epoch_seed, shard_name));
    // Close a phase opened by `(rec.begin(), rec.alloc_begin())`: book
    // its allocations and time, then let a causal plan dilate it.
    let end_phase = |phase: usize, (t0, scope): (Option<Instant>, Option<_>)| {
        if let Some(scope) = scope {
            rec.alloc_done(phase, scope);
        }
        if let Some(t0) = t0 {
            rec.phase_done(worker, phase, t0);
            if let Some(plan) = delay {
                plan.after_phase(phase, t0.elapsed());
            }
        }
    };
    let in_read = (rec.begin(), rec.alloc_begin());
    let fetched = fetch_shard(store, shard_name, resilience, counters, rec, worker);
    end_phase(PHASE_READ, in_read);
    let blob = match fetched {
        Ok(blob) => blob,
        Err(e) if shard_fault_is_degradable(&e) => {
            counters.absorb_shard(&resilience.policy, e)?;
            return Ok(true);
        }
        Err(e) => return Err(e),
    };
    bytes_read.fetch_add(blob.len() as u64, Ordering::Relaxed);
    rec.bytes_read(worker, blob.len() as u64);
    let in_decompress = (rec.begin(), rec.alloc_begin());
    // Uncompressed shards skip materialization entirely: the store
    // blob *is* the frame, and samples decoded from it alias its
    // refcounted allocation. Compressed shards inflate into one vector
    // sized from the container's trailer, which then *becomes* the
    // shared frame.
    let decompressed: Result<Bytes, presto_codecs::CodecError> = match codec {
        Codec::None => Ok(blob),
        _ => codec.decompress(&blob).map(Bytes::from),
    };
    end_phase(PHASE_DECOMPRESS, in_decompress);
    let framed = match decompressed {
        Ok(f) => f,
        Err(e) => {
            let fault = PipelineError::CorruptShard {
                shard: shard_name.to_string(),
                why: e.to_string(),
            };
            counters.absorb_shard(&resilience.policy, fault)?;
            return Ok(true);
        }
    };
    rec.bytes_decoded(framed.len() as u64);
    match codec {
        Codec::None => rec.buffer_reuses(1), // store blob reused as the frame
        _ => rec.buffer_allocs(1),           // one fresh frame buffer per shard
    }
    let mut reader = RecordReader::new(&framed);
    loop {
        // The decode phase is record parsing + sample decoding, so its
        // clock starts before the record's CRC pass, not after it.
        let in_decode = (rec.begin(), rec.alloc_begin());
        let Some(record) = reader.next() else { break };
        let record = match record {
            Ok(r) => r,
            Err(e) => {
                let fault = PipelineError::CorruptShard {
                    shard: shard_name.to_string(),
                    why: e.to_string(),
                };
                counters.absorb_sample(&resilience.policy, fault)?;
                reader.resync();
                end_phase(PHASE_DECODE, in_decode);
                continue;
            }
        };
        // Zero-copy decode: Bytes/Tensors payloads become views into
        // the shared frame instead of per-sample heap copies.
        let decoded = Sample::decode_shared(&framed, record);
        end_phase(PHASE_DECODE, in_decode);
        let processed = decoded.and_then(|(mut sample, shared)| {
            if shared {
                rec.buffer_reuses(1); // payload aliases the frame
            } else {
                rec.buffer_allocs(1); // in-memory-only payload: copied
            }
            for (idx, (name, step)) in steps.iter().enumerate() {
                let in_step = (rec.begin(), rec.alloc_begin());
                sample = apply_step(step.as_ref(), name, sample, &mut rng)?;
                end_phase(BUILTIN_PHASES + idx, in_step);
            }
            Ok(sample)
        });
        let sample = match processed {
            Ok(sample) => sample,
            Err(e) => {
                counters.absorb_sample(&resilience.policy, e)?;
                continue;
            }
        };
        match deliver(sample) {
            Deliver::Delivered => {
                rec.samples_done(worker, 1);
            }
            Deliver::Stop => return Ok(false),
            Deliver::Fail(e) => return Err(e),
        }
    }
    Ok(true)
}

/// The real multi-threaded executor.
#[derive(Debug, Clone)]
pub struct RealExecutor {
    /// Worker thread count.
    pub threads: usize,
    telemetry: Option<Arc<Telemetry>>,
    delay: Option<Arc<DelayPlan>>,
    bundle_size: usize,
    pool: Arc<BufferPool>,
}

impl RealExecutor {
    /// An executor with `threads` workers and no telemetry.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0);
        RealExecutor {
            threads,
            telemetry: None,
            delay: None,
            bundle_size: DEFAULT_BUNDLE_SIZE,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// Set the streaming hand-off batch size: how many finished
    /// samples ride in one [`SampleBundle`] through the prefetch ring
    /// (default [`DEFAULT_BUNDLE_SIZE`]; 1 is per-sample hand-off).
    /// Only the flush-boundary tests set it.
    pub fn with_bundle_size(mut self, samples: usize) -> Self {
        self.bundle_size = samples.max(1);
        self
    }

    /// Attach a [`Telemetry`] handle: every subsequent epoch records
    /// per-step latency, per-worker busy time, queue depth and fault
    /// counts into it (readable via [`Telemetry::last_epoch`]).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attach a [`DelayPlan`]: every subsequent epoch injects the
    /// plan's calibrated per-phase delays. Requires telemetry to be
    /// attached too — the injection rides on the phase timers.
    pub fn with_delay_plan(mut self, plan: Arc<DelayPlan>) -> Self {
        self.delay = Some(plan);
        self
    }

    /// The attached delay plan, if any.
    pub fn delay_plan(&self) -> Option<&Arc<DelayPlan>> {
        self.delay.as_ref()
    }

    /// A recorder for one epoch over the online steps of `pipeline`
    /// past `split` — the real recorder when telemetry is attached, the
    /// single-branch no-op otherwise.
    fn epoch_recorder(
        &self,
        pipeline: &Pipeline,
        split: usize,
        queue_capacity: usize,
    ) -> Arc<EpochRecorder> {
        match &self.telemetry {
            Some(telemetry) => {
                let names: Vec<String> = pipeline.steps()[split..]
                    .iter()
                    .map(|s| s.spec.name.clone())
                    .collect();
                telemetry.begin_epoch(&names, self.threads, queue_capacity)
            }
            None => EpochRecorder::noop(),
        }
    }

    /// Offline phase with default [`Resilience`] (retry transient put
    /// failures, fail fast on everything else).
    pub fn materialize(
        &self,
        pipeline: &Pipeline,
        strategy: &Strategy,
        source: &[Sample],
        store: &dyn BlobStore,
    ) -> Result<(Materialized, Duration), PipelineError> {
        self.materialize_with(pipeline, strategy, source, store, &Resilience::default())
    }

    /// Offline phase: run steps `[0, strategy.split)` over `source`
    /// samples and materialize the results as `strategy.shards` record
    /// shards in `store`. Returns the handle and the preprocessing time.
    ///
    /// Shard writes are retried per `resilience.retry`; a write that
    /// still fails aborts the materialization (an incomplete dataset is
    /// never degraded into silently).
    pub fn materialize_with(
        &self,
        pipeline: &Pipeline,
        strategy: &Strategy,
        source: &[Sample],
        store: &dyn BlobStore,
        resilience: &Resilience,
    ) -> Result<(Materialized, Duration), PipelineError> {
        pipeline.check()?;
        strategy.validate(pipeline)?;
        let split = strategy.split;
        let steps = &pipeline.steps()[..split];
        for step in steps {
            if step.exec.is_none() {
                return Err(PipelineError::Other(format!(
                    "step '{}' has no executable implementation",
                    step.spec.name
                )));
            }
        }
        let start = Instant::now();
        let shards = strategy.shards.max(1).min(source.len().max(1));
        let shard_names: Vec<String> = (0..shards)
            .map(|i| format!("{}-split{}-shard{:04}", pipeline.name, split, i))
            .collect();
        let errors: Mutex<Vec<PipelineError>> = Mutex::new(Vec::new());
        let stored = AtomicU64::new(0);
        let counters = FaultCounters::default();

        std::thread::scope(|scope| {
            for (shard_idx, shard_name) in shard_names.iter().enumerate() {
                let errors = &errors;
                let stored = &stored;
                let counters = &counters;
                scope.spawn(move || {
                    let mine = source.iter().skip(shard_idx).step_by(shards);
                    let mut writer: Option<RecordWriter> = None;
                    let mut rng = SmallRng::seed_from_u64(0xFEED ^ shard_idx as u64);
                    for sample in mine.clone() {
                        let mut current = sample.clone();
                        for step in steps {
                            let exec = step.exec.as_deref().unwrap();
                            match apply_step(exec, &step.spec.name, current, &mut rng) {
                                Ok(next) => current = next,
                                Err(e) => {
                                    errors.lock().push(e);
                                    return;
                                }
                            }
                        }
                        // One allocation for the shard, sized by its first
                        // record: samples leave the same steps alike.
                        let record = current.nbytes() + 64;
                        writer
                            .get_or_insert_with(|| RecordWriter::with_capacity(mine.len() * record))
                            .write_pieces(record, |sink| current.encode_to(sink));
                    }
                    let framed = writer.unwrap_or_default().finish();
                    let compressed = strategy.compression.compress(&framed);
                    stored.fetch_add(compressed.len() as u64, Ordering::Relaxed);
                    let seed = shard_idx as u64 ^ 0x5B07;
                    match resilience
                        .retry
                        .run(seed, || store.put(shard_name, &compressed))
                    {
                        Ok((_, retries)) => counters.add_retries(u64::from(retries)),
                        Err(error) => {
                            counters.add_retries(u64::from(error.attempts.saturating_sub(1)));
                            errors.lock().push(retry_failure(error));
                        }
                    }
                });
            }
        });
        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(e);
        }
        Ok((
            Materialized {
                shards: shard_names,
                codec: strategy.compression,
                sample_count: source.len() as u64,
                stored_bytes: stored.into_inner(),
                split,
            },
            start.elapsed(),
        ))
    }

    /// Online phase with default [`Resilience`] (fail fast).
    pub fn epoch<F>(
        &self,
        pipeline: &Pipeline,
        dataset: &Materialized,
        store: &dyn BlobStore,
        cache: Option<&AppCache>,
        epoch_seed: u64,
        consume: F,
    ) -> Result<EpochStats, PipelineError>
    where
        F: Fn(&Sample) + Send + Sync,
    {
        self.epoch_with(
            pipeline,
            dataset,
            store,
            cache,
            epoch_seed,
            &Resilience::default(),
            consume,
        )
    }

    /// Online phase: stream one epoch of `dataset` through the steps
    /// after the split, delivering each finished sample to `consume`.
    /// With an [`AppCache`], the first epoch fills it and later epochs
    /// replay from it (skipping read + decode entirely).
    ///
    /// Shard fetches are retried per `resilience.retry`; faults that
    /// survive retry are handled per `resilience.policy` — fail fast,
    /// or skip within the degrade budget (reported in [`EpochStats`]).
    #[allow(clippy::too_many_arguments)]
    pub fn epoch_with<F>(
        &self,
        pipeline: &Pipeline,
        dataset: &Materialized,
        store: &dyn BlobStore,
        cache: Option<&AppCache>,
        epoch_seed: u64,
        resilience: &Resilience,
        consume: F,
    ) -> Result<EpochStats, PipelineError>
    where
        F: Fn(&Sample) + Send + Sync,
    {
        let steps = executable_steps(pipeline, dataset.split)?;
        let start = Instant::now();
        let rec = self.epoch_recorder(pipeline, dataset.split, 0);
        rec.set_epoch_seed(epoch_seed);
        let delay = self.delay.as_deref();
        let samples_done = AtomicU64::new(0);
        let bytes_read = AtomicU64::new(0);
        let errors: Mutex<Vec<PipelineError>> = Mutex::new(Vec::new());
        let counters = FaultCounters::default();

        if let Some(cache) = cache {
            if cache.is_complete() {
                // Replay epoch from the cache: only the online steps
                // after the cache point (none — we cache final samples).
                let cached = cache.snapshot();
                std::thread::scope(|scope| {
                    for chunk_idx in 0..self.threads {
                        let cached = &cached;
                        let samples_done = &samples_done;
                        let consume = &consume;
                        let rec = &rec;
                        scope.spawn(move || {
                            for sample in cached.iter().skip(chunk_idx).step_by(self.threads) {
                                let t0 = rec.begin();
                                consume(sample);
                                if let Some(t0) = t0 {
                                    rec.phase_done(chunk_idx, PHASE_HANDOFF, t0);
                                    if let Some(plan) = delay {
                                        plan.after_phase(PHASE_HANDOFF, t0.elapsed());
                                    }
                                }
                                rec.samples_done(chunk_idx, 1);
                                samples_done.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
                let samples = samples_done.into_inner();
                rec.cache_hits(samples);
                rec.buffer_reuses(samples);
                let elapsed = start.elapsed();
                rec.finish(elapsed, samples, 0, 0, 0, 0, false);
                return Ok(EpochStats {
                    samples,
                    bytes_read: 0,
                    elapsed,
                    ..EpochStats::default()
                });
            }
        }

        std::thread::scope(|scope| {
            for worker in 0..self.threads {
                let errors = &errors;
                let samples_done = &samples_done;
                let bytes_read = &bytes_read;
                let consume = &consume;
                let shards = &dataset.shards;
                let counters = &counters;
                let rec = &rec;
                let steps = &steps;
                scope.spawn(move || {
                    let mut deliver = |sample: Sample| {
                        // Callback delivery never queues: the whole
                        // callback (plus cache insert) is hand-off.
                        let t0 = rec.begin();
                        let scope = rec.alloc_begin();
                        consume(&sample);
                        samples_done.fetch_add(1, Ordering::Relaxed);
                        if let Some(cache) = cache {
                            rec.cache_misses(1);
                            // Cache overflow is a capacity bug, never
                            // a data fault: always fatal.
                            if let Err(e) = cache.insert(sample) {
                                return Deliver::Fail(e);
                            }
                        }
                        if let Some(scope) = scope {
                            rec.alloc_done(PHASE_HANDOFF, scope);
                        }
                        if let Some(t0) = t0 {
                            rec.phase_done(worker, PHASE_HANDOFF, t0);
                            if let Some(plan) = delay {
                                plan.after_phase(PHASE_HANDOFF, t0.elapsed());
                            }
                        }
                        Deliver::Delivered
                    };
                    for shard_name in shards.iter().skip(worker).step_by(self.threads) {
                        match process_shard(
                            store,
                            shard_name,
                            dataset.codec,
                            steps,
                            resilience,
                            counters,
                            rec,
                            worker,
                            epoch_seed,
                            bytes_read,
                            delay,
                            &mut deliver,
                        ) {
                            Ok(true) => {}
                            Ok(false) => return,
                            Err(e) => {
                                errors.lock().push(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(e);
        }
        let stats = EpochStats {
            samples: samples_done.into_inner(),
            bytes_read: bytes_read.into_inner(),
            ..EpochStats::default()
        }
        .finish(&counters, start.elapsed());
        rec.finish(
            stats.elapsed,
            stats.samples,
            stats.bytes_read,
            stats.retries,
            stats.skipped_samples,
            stats.lost_shards,
            stats.degraded,
        );
        if let Some(cache) = cache {
            // A degraded epoch is incomplete; replaying it from the
            // cache would silently shrink every later epoch.
            if !stats.degraded {
                cache.complete.store(true, Ordering::Release);
            }
        }
        Ok(stats)
    }
}

/// A running, prefetching epoch: worker threads decode shards into a
/// bounded sharded ring (the `tf.data` prefetch buffer) while the
/// caller consumes at its own pace; back-pressure applies when a
/// worker's lane fills. Hand-off is batched: workers deliver
/// [`SampleBundle`]s, the iterator unpacks them one sample at a time.
/// Iterate to receive samples; [`EpochStream::join`] afterwards for
/// the stats.
pub struct EpochStream {
    receiver: dataplane::RingReceiver<Result<SampleBundle, PipelineError>>,
    /// Samples of the bundle being drained, in reverse order so `pop`
    /// yields them FIFO.
    pending: Vec<Sample>,
    pool: Arc<BufferPool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    bytes_read: Arc<AtomicU64>,
    counters: Arc<FaultCounters>,
    samples: u64,
    started: Instant,
    failed: Option<PipelineError>,
    recorder: Arc<EpochRecorder>,
    /// Bundles sent but not yet received — the observed prefetch-ring
    /// depth, in hand-off units. Tracked here (not via the ring) so
    /// the gauge works with any queue implementation.
    in_flight: Arc<AtomicU64>,
}

impl Iterator for EpochStream {
    type Item = Result<Sample, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(sample) = self.pending.pop() {
                self.samples += 1;
                return Some(Ok(sample));
            }
            match self.receiver.recv() {
                Some(Ok(bundle)) => {
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                    // Swap the drained container for the fresh bundle
                    // and recycle it back to the producers' pool.
                    let drained = std::mem::replace(&mut self.pending, bundle.samples);
                    self.pool.put_bundle(drained);
                    self.pending.reverse();
                    // Workers never send empty bundles, so this loops
                    // at most once per received bundle.
                }
                Some(Err(e)) => {
                    if self.failed.is_none() {
                        self.failed = Some(e.clone());
                    }
                    return Some(Err(e));
                }
                None => return None, // all workers done
            }
        }
    }
}

impl EpochStream {
    /// Wait for the workers and return the epoch stats.
    pub fn join(self) -> Result<EpochStats, PipelineError> {
        // Drain remaining items so workers are not blocked on send.
        drop(self.receiver);
        for handle in self.handles {
            handle.join().map_err(|_| PipelineError::WorkerPanicked {
                step: "epoch-stream worker".into(),
            })?;
        }
        if let Some(e) = self.failed {
            return Err(e);
        }
        let stats = EpochStats {
            samples: self.samples,
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            ..EpochStats::default()
        }
        .finish(&self.counters, self.started.elapsed());
        self.recorder.finish(
            stats.elapsed,
            stats.samples,
            stats.bytes_read,
            stats.retries,
            stats.skipped_samples,
            stats.lost_shards,
            stats.degraded,
        );
        Ok(stats)
    }

    /// Wrap the stream in a windowed shuffle buffer of `capacity`
    /// samples (tf.data's `.shuffle(buffer_size)`), propagating errors.
    pub fn shuffled(
        self,
        capacity: usize,
        seed: u64,
    ) -> impl Iterator<Item = Result<Sample, PipelineError>> {
        crate::shuffle::ShuffleBuffer::new(self, capacity, seed)
    }
}

/// Per-worker bundling state for the streaming engine: accumulates
/// finished samples and flushes them as one [`SampleBundle`] hand-off
/// when the bundle fills, at shard boundaries, and before a fatal
/// error — so a bundle never spans shards and nothing produced is
/// lost.
struct BundleFlusher<'a> {
    sender: dataplane::RingSender<Result<SampleBundle, PipelineError>>,
    bundle: Vec<Sample>,
    bundle_cap: usize,
    pool: &'a BufferPool,
    rec: &'a EpochRecorder,
    in_flight: &'a AtomicU64,
    capacity: usize,
    worker: usize,
    delay: Option<&'a DelayPlan>,
}

impl BundleFlusher<'_> {
    /// A pool-recycled bundle container.
    fn acquire(pool: &BufferPool, cap: usize, rec: &EpochRecorder) -> Vec<Sample> {
        let (container, hit) = pool.get_bundle(cap);
        if hit {
            rec.pool_hits(1);
        } else {
            rec.pool_misses(1);
        }
        container
    }

    fn push(&mut self, sample: Sample) -> Deliver {
        self.bundle.push(sample);
        if self.bundle.len() >= self.bundle_cap {
            self.flush()
        } else {
            Deliver::Delivered
        }
    }

    fn flush(&mut self) -> Deliver {
        if self.bundle.is_empty() {
            return Deliver::Delivered;
        }
        let fresh = Self::acquire(self.pool, self.bundle_cap, self.rec);
        let full = std::mem::replace(&mut self.bundle, fresh);
        // Count before sending so the consumer's decrement can never
        // observe a counted bundle it has not been charged for.
        // Producers blocked in `send` still increment first, so the
        // raw counter can transiently exceed the ring bound; clamp
        // the *recorded* depth at capacity — a blocked producer is a
        // full queue, not a deeper one.
        let depth = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.rec.queue_depth((depth as usize).min(self.capacity));
        self.rec.bundles(1);
        // A send that finds lane room is pure hand-off; one that has
        // to block is queue-wait — and every individual blocked wait
        // becomes its own span, so skew diagnosis sees each
        // backpressure episode instead of one coalesced wait.
        let t0 = self.rec.begin();
        match self.sender.try_send(Ok(SampleBundle::from_container(full))) {
            Ok(()) => {
                if let Some(t0) = t0 {
                    self.rec.phase_done(self.worker, PHASE_HANDOFF, t0);
                    if let Some(plan) = self.delay {
                        plan.after_phase(PHASE_HANDOFF, t0.elapsed());
                    }
                }
                Deliver::Delivered
            }
            Err(dataplane::TrySendError::Full(item)) => {
                let rec = self.rec;
                let worker = self.worker;
                match self.sender.send(item, &mut |wait_started| {
                    rec.phase_done(worker, PHASE_QUEUE_WAIT, wait_started);
                }) {
                    Ok(()) => Deliver::Delivered,
                    Err(dataplane::RingClosed(_)) => Deliver::Stop, // consumer hung up
                }
            }
            Err(dataplane::TrySendError::Closed(_)) => Deliver::Stop, // consumer hung up
        }
    }

    /// Deliver whatever was already produced, then the fatal error.
    fn fail(&mut self, fatal: PipelineError) {
        let _ = self.flush();
        let _ = self.sender.send(Err(fatal), &mut |_| {});
    }
}

impl RealExecutor {
    /// Streaming epoch with default [`Resilience`] (fail fast).
    pub fn stream_epoch(
        &self,
        pipeline: &Pipeline,
        dataset: &Materialized,
        store: Arc<dyn BlobStore>,
        prefetch: usize,
        epoch_seed: u64,
    ) -> Result<EpochStream, PipelineError> {
        self.stream_epoch_with(
            pipeline,
            dataset,
            store,
            prefetch,
            epoch_seed,
            Resilience::default(),
        )
    }

    /// Start a streaming epoch with a prefetch buffer of `prefetch`
    /// samples. Unlike [`RealExecutor::epoch`], the caller pulls
    /// samples (training-loop style) instead of passing a callback.
    ///
    /// Fault handling matches [`RealExecutor::epoch_with`]: absorbed
    /// faults never surface as stream items, they only show up in the
    /// [`EpochStats`] returned by [`EpochStream::join`].
    pub fn stream_epoch_with(
        &self,
        pipeline: &Pipeline,
        dataset: &Materialized,
        store: Arc<dyn BlobStore>,
        prefetch: usize,
        epoch_seed: u64,
        resilience: Resilience,
    ) -> Result<EpochStream, PipelineError> {
        let steps = executable_steps(pipeline, dataset.split)?;
        let capacity = prefetch.max(1);
        // One single-producer lane per worker; total ring capacity
        // rounds `prefetch` up to a lane multiple so no worker gets a
        // zero-capacity lane.
        let lane_capacity = capacity.div_ceil(self.threads.max(1)).max(1);
        let (senders, receiver) = dataplane::ring(self.threads, lane_capacity);
        let bytes_read = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(FaultCounters::default());
        let rec = self.epoch_recorder(pipeline, dataset.split, capacity);
        rec.set_epoch_seed(epoch_seed);
        let in_flight = Arc::new(AtomicU64::new(0));
        let bundle_cap = self.bundle_size.max(1);
        let mut handles = Vec::with_capacity(self.threads);
        for (worker, sender) in senders.into_iter().enumerate() {
            let steps = steps.clone();
            let store = Arc::clone(&store);
            let bytes_read = Arc::clone(&bytes_read);
            let counters = Arc::clone(&counters);
            let resilience = resilience.clone();
            let rec = Arc::clone(&rec);
            let in_flight = Arc::clone(&in_flight);
            let delay = self.delay.clone();
            let pool = Arc::clone(&self.pool);
            let shards: Vec<String> = dataset
                .shards
                .iter()
                .skip(worker)
                .step_by(self.threads)
                .cloned()
                .collect();
            let codec = dataset.codec;
            handles.push(std::thread::spawn(move || {
                let mut flusher = BundleFlusher {
                    bundle: BundleFlusher::acquire(&pool, bundle_cap, &rec),
                    sender,
                    bundle_cap,
                    pool: &pool,
                    rec: &rec,
                    in_flight: &in_flight,
                    capacity,
                    worker,
                    delay: delay.as_deref(),
                };
                for shard_name in shards {
                    let mut deliver = |sample: Sample| flusher.push(sample);
                    match process_shard(
                        store.as_ref(),
                        &shard_name,
                        codec,
                        &steps,
                        &resilience,
                        &counters,
                        &rec,
                        worker,
                        epoch_seed,
                        &bytes_read,
                        delay.as_deref(),
                        &mut deliver,
                    ) {
                        Ok(true) => {
                            // Bundles never span shards: flush at the
                            // boundary so consumers see whole-shard
                            // sample runs regardless of bundle size.
                            if matches!(flusher.flush(), Deliver::Stop) {
                                return;
                            }
                        }
                        Ok(false) => return,
                        Err(fatal) => {
                            flusher.fail(fatal);
                            return;
                        }
                    }
                }
            }));
        }
        Ok(EpochStream {
            receiver,
            pending: Vec::new(),
            pool: Arc::clone(&self.pool),
            handles,
            bytes_read,
            counters,
            samples: 0,
            started: Instant::now(),
            failed: None,
            recorder: rec,
            in_flight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{CostModel, SizeModel, Step, StepSpec};
    use presto_tensor::Tensor;
    use std::sync::Arc;

    /// Doubles every f32 element.
    struct DoubleStep(&'static str);

    impl Step for DoubleStep {
        fn spec(&self) -> StepSpec {
            StepSpec::native(self.0, CostModel::new(100.0, 1.0, 0.0), SizeModel::IDENTITY)
        }

        fn apply(&self, sample: Sample, _rng: &mut SmallRng) -> Result<Sample, PipelineError> {
            let crate::sample::Payload::Tensors(tensors) = &sample.payload else {
                return Err(PipelineError::PayloadMismatch {
                    step: self.0.into(),
                    expected: "tensors",
                });
            };
            let doubled = tensors
                .iter()
                .map(|t| {
                    let values: Vec<f32> =
                        t.to_vec::<f32>().unwrap().iter().map(|x| x * 2.0).collect();
                    Tensor::from_vec(t.shape().to_vec(), values).unwrap()
                })
                .collect();
            Ok(Sample::from_tensors(sample.key, doubled))
        }
    }

    /// Panics on a specific sample key (a poisoned sample).
    struct PanicStep {
        poison_key: u64,
    }

    impl Step for PanicStep {
        fn spec(&self) -> StepSpec {
            StepSpec::native("poison", CostModel::new(1.0, 0.0, 0.0), SizeModel::IDENTITY)
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
        Pipeline::new("real-test")
            .push_step(Arc::new(DoubleStep("double-a")))
            .push_step(Arc::new(DoubleStep("double-b")))
    }

    #[test]
    fn materialize_then_epoch_applies_remaining_steps() {
        let pipeline = pipeline();
        let store = MemStore::new();
        let exec = RealExecutor::new(4);
        // Split after the first step: one doubling offline, one online.
        let strategy = Strategy::at_split(1).with_threads(4);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(100), &store)
            .unwrap();
        assert_eq!(dataset.sample_count, 100);
        assert!(dataset.stored_bytes > 0);

        let seen = Mutex::new(Vec::new());
        let stats = exec
            .epoch(&pipeline, &dataset, &store, None, 1, |s| {
                let crate::sample::Payload::Tensors(ts) = &s.payload else {
                    panic!()
                };
                seen.lock().push((s.key, ts[0].to_vec::<f32>().unwrap()[0]));
            })
            .unwrap();
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.skipped_samples, 0);
        assert!(!stats.degraded);
        let mut seen = seen.into_inner();
        seen.sort_by_key(|(k, _)| *k);
        for (key, value) in seen {
            assert_eq!(value, key as f32 * 4.0, "both doublings applied");
        }
    }

    #[test]
    fn compression_roundtrips_through_store() {
        use presto_codecs::Level;
        let pipeline = pipeline();
        let store = MemStore::new();
        let exec = RealExecutor::new(2);
        let plain = Strategy::at_split(2).with_threads(2);
        let gz = plain.clone().with_compression(Codec::Gzip(Level::FAST));
        let (d_plain, _) = exec
            .materialize(&pipeline, &plain, &source(64), &store)
            .unwrap();
        let (d_gz, _) = exec
            .materialize(&pipeline, &gz, &source(64), &store)
            .unwrap();
        // Constant-ish tensors compress well.
        assert!(d_gz.stored_bytes < d_plain.stored_bytes);
        let count = AtomicU64::new(0);
        exec.epoch(&pipeline, &d_gz, &store, None, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.into_inner(), 64);
    }

    #[test]
    fn app_cache_replays_second_epoch_without_reads() {
        let pipeline = pipeline();
        let store = MemStore::new();
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(50), &store)
            .unwrap();
        let cache = AppCache::new(1 << 20);
        let e1 = exec
            .epoch(&pipeline, &dataset, &store, Some(&cache), 1, |_| {})
            .unwrap();
        assert!(e1.bytes_read > 0);
        assert!(cache.is_complete());
        let e2 = exec
            .epoch(&pipeline, &dataset, &store, Some(&cache), 2, |_| {})
            .unwrap();
        assert_eq!(e2.bytes_read, 0, "cached epoch must not read the store");
        assert_eq!(e2.samples, 50);
    }

    #[test]
    fn app_cache_overflow_is_reported() {
        let pipeline = pipeline();
        let store = MemStore::new();
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(50), &store)
            .unwrap();
        let cache = AppCache::new(64); // far too small
        let result = exec.epoch(&pipeline, &dataset, &store, Some(&cache), 1, |_| {});
        assert!(matches!(result, Err(PipelineError::CacheOverflow { .. })));
    }

    #[test]
    fn degraded_epoch_does_not_mark_cache_complete() {
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2).with_shards(4);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(40), &store)
            .unwrap();
        let faulty: Arc<dyn BlobStore> = Arc::new(FaultStore::new(
            Arc::clone(&store),
            FaultSpec::new(5).with_lost_blob(dataset.shards[0].clone()),
        ));
        let cache = AppCache::new(1 << 20);
        let resilience = Resilience::degrade(0, 4);
        let stats = exec
            .epoch_with(
                &pipeline,
                &dataset,
                &faulty,
                Some(&cache),
                1,
                &resilience,
                |_| {},
            )
            .unwrap();
        assert!(stats.degraded);
        assert_eq!(stats.lost_shards, 1);
        assert!(
            !cache.is_complete(),
            "incomplete epoch must not seal the cache"
        );
    }

    #[test]
    fn stream_epoch_delivers_all_samples() {
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(3);
        let strategy = Strategy::at_split(1).with_threads(3);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(80), store.as_ref())
            .unwrap();
        let mut stream = exec
            .stream_epoch(&pipeline, &dataset, store, 8, 42)
            .unwrap();
        let mut keys = Vec::new();
        for result in &mut stream {
            keys.push(result.unwrap().key);
        }
        keys.sort_unstable();
        assert_eq!(keys, (0..80).collect::<Vec<u64>>());
        let stats = stream.join().unwrap();
        assert_eq!(stats.samples, 80);
        assert!(stats.bytes_read > 0);
        assert!(!stats.degraded);
    }

    #[test]
    fn stream_epoch_backpressure_does_not_deadlock() {
        // Tiny prefetch buffer with a slow consumer: workers must block
        // on send, not drop or deadlock.
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(30), store.as_ref())
            .unwrap();
        let mut stream = exec.stream_epoch(&pipeline, &dataset, store, 1, 1).unwrap();
        let mut count = 0;
        for result in &mut stream {
            result.unwrap();
            count += 1;
        }
        assert_eq!(count, 30);
        stream.join().unwrap();
    }

    #[test]
    fn shuffled_stream_permutes_but_preserves_the_set() {
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(1); // single thread: deterministic base order
        let strategy = Strategy::at_split(0).with_threads(1);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(200), store.as_ref())
            .unwrap();
        let ordered: Vec<u64> = exec
            .stream_epoch(
                &pipeline,
                &dataset,
                Arc::clone(&store) as Arc<dyn BlobStore>,
                8,
                1,
            )
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        let shuffled: Vec<u64> = exec
            .stream_epoch(&pipeline, &dataset, store, 8, 1)
            .unwrap()
            .shuffled(64, 7)
            .map(|r| r.unwrap().key)
            .collect();
        assert_ne!(ordered, shuffled);
        let mut a = ordered;
        let mut b = shuffled;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_epoch_early_drop_stops_workers() {
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(100), store.as_ref())
            .unwrap();
        let mut stream = exec.stream_epoch(&pipeline, &dataset, store, 4, 1).unwrap();
        // Consume only a few samples, then drop: join must not hang.
        for _ in 0..3 {
            stream.next().unwrap().unwrap();
        }
        let _ = stream.join(); // workers unblock when the channel closes
    }

    #[test]
    fn stream_epoch_reports_missing_shard() {
        let pipeline = pipeline();
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(1);
        let dataset = Materialized {
            shards: vec!["gone".into()],
            codec: Codec::None,
            sample_count: 1,
            stored_bytes: 0,
            split: 0,
        };
        let mut stream = exec.stream_epoch(&pipeline, &dataset, store, 2, 1).unwrap();
        let error = stream.next().unwrap().unwrap_err();
        assert_eq!(
            error,
            PipelineError::LostShard {
                shard: "gone".into()
            }
        );
        assert!(stream.join().is_err());
    }

    #[test]
    fn dir_store_roundtrips() {
        let dir = std::env::temp_dir().join(format!("presto-dirstore-{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        store.put("shard-0", &[1, 2, 3]).unwrap();
        assert_eq!(store.get("shard-0").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(store.list(), vec!["shard-0"]);
        assert_eq!(store.total_bytes(), 3);
        assert!(matches!(
            store.get("missing"),
            Err(StoreError::NotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_is_an_error() {
        let pipeline = pipeline();
        let exec = RealExecutor::new(1);
        let dataset = Materialized {
            shards: vec!["nope".into()],
            codec: Codec::None,
            sample_count: 1,
            stored_bytes: 0,
            split: 0,
        };
        let store = MemStore::new();
        let err = exec
            .epoch(&pipeline, &dataset, &store, None, 1, |_| {})
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::LostShard {
                shard: "nope".into()
            }
        );
    }

    #[test]
    fn worker_panic_is_contained_and_names_the_step() {
        let pipeline = Pipeline::new("poisoned").push_step(Arc::new(PanicStep { poison_key: 13 }));
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(2);
        let strategy = Strategy::at_split(0).with_threads(2).with_shards(4);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source(30), store.as_ref())
            .unwrap();

        // Fail fast: the panic surfaces as a typed error naming the step.
        let err = exec
            .epoch(&pipeline, &dataset, store.as_ref(), None, 1, |_| {})
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::WorkerPanicked {
                step: "poison".into()
            }
        );

        // Degrade: the poisoned sample is skipped, the epoch completes.
        let resilience = Resilience::degrade(4, 0);
        let stats = exec
            .epoch_with(
                &pipeline,
                &dataset,
                store.as_ref(),
                None,
                1,
                &resilience,
                |_| {},
            )
            .unwrap();
        assert_eq!(stats.samples, 29);
        assert_eq!(stats.skipped_samples, 1);
        assert!(stats.degraded);
    }

    #[test]
    fn delay_plan_exempts_queue_wait_and_named_phases() {
        let plan = DelayPlan::new(1.5, vec![PHASE_DECODE]);
        plan.after_phase(PHASE_DECODE, Duration::from_millis(2));
        plan.after_phase(PHASE_QUEUE_WAIT, Duration::from_millis(2));
        assert_eq!(plan.injected_ns(), 0, "exempt phases never dilate");
        plan.after_phase(PHASE_READ, Duration::from_millis(2));
        assert!(
            plan.injected_ns() >= 900_000,
            "0.5 x 2ms spin expected, got {}ns",
            plan.injected_ns()
        );
        let consumer = DelayPlan::new(2.0, Vec::new()).with_exempt_consumer();
        consumer.after_consume(Duration::from_millis(1));
        assert_eq!(consumer.injected_ns(), 0, "exempt consumer never dilates");
        let noop = DelayPlan::noop();
        noop.after_phase(PHASE_READ, Duration::from_millis(1));
        noop.after_consume(Duration::from_millis(1));
        assert_eq!(noop.injected_ns(), 0, "dilation 1.0 injects nothing");
    }

    #[test]
    fn delay_plan_injects_during_a_real_epoch() {
        let telemetry = Arc::new(Telemetry::new());
        let pipeline = pipeline();
        let store = MemStore::new();
        let strategy = Strategy::at_split(1).with_threads(2).with_shards(4);
        let base = RealExecutor::new(2).with_telemetry(Arc::clone(&telemetry));
        let (dataset, _) = base
            .materialize(&pipeline, &strategy, &source(64), &store)
            .unwrap();
        // Dilate everything except the online step: the injected spin
        // shows up both in the plan's counter and in the epoch time.
        let plan = Arc::new(DelayPlan::new(2.0, vec![BUILTIN_PHASES]));
        let exec = base.clone().with_delay_plan(Arc::clone(&plan));
        let stats = exec
            .epoch(&pipeline, &dataset, &store, None, 1, |_| {})
            .unwrap();
        assert_eq!(stats.samples, 64);
        assert!(plan.injected_ns() > 0, "delays were injected");
        // The no-op plan is the overhead baseline: nothing injected.
        let noop = Arc::new(DelayPlan::noop());
        let exec = base.with_delay_plan(Arc::clone(&noop));
        exec.epoch(&pipeline, &dataset, &store, None, 1, |_| {})
            .unwrap();
        assert_eq!(noop.injected_ns(), 0);
    }

    #[test]
    fn sim_only_pipeline_rejected_by_real_engine() {
        let sim_only = Pipeline::new("sim").push_spec(StepSpec::native(
            "x",
            CostModel::FREE,
            SizeModel::IDENTITY,
        ));
        let exec = RealExecutor::new(1);
        let store = MemStore::new();
        let result = exec.materialize(&sim_only, &Strategy::at_split(1), &source(1), &store);
        assert!(result.is_err());
    }
}
