//! The six workloads: seeded inputs, program set-up, one epoch, and the
//! reference every epoch is checked against.
//!
//! Everything here goes through the public API of the workspace crates;
//! the program only ever receives the generated inputs. All load is
//! closed-loop: a consumer takes the next sample when the previous one
//! has returned, the way a training loop does.

use bytes::Bytes;
use presto_codecs::{Codec, Level};
use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeWorker, ServeWorkerConfig, TenantSpec,
};
use presto_pipeline::{
    BlobStore, FleetDaemon, FleetDaemonConfig, Materialized, MemStore, Pipeline, PipelineError,
    RealExecutor, Resilience, Sample, Strategy, Telemetry,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Executor threads and serve backends: the box has two cores, and the
/// load never asks for more than that.
pub const THREADS: usize = 2;
/// Distinct images per seed; samples cycle through them with unique keys.
pub const IMAGES: usize = 64;
/// Epoch seeds the timed epochs cycle through (random-crop offsets differ).
pub const EPOCH_SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0xC4A7, 0xD06];
/// Samples per consumer batch: the unit a training step waits for.
pub const CONSUMER_BATCH: u64 = 32;
/// Prefetch (bundles in flight) of a streaming epoch.
pub const PREFETCH: usize = 16;
/// The two tenants of `fleetd-2tenant`, with their fair-share weights.
pub const TENANTS: [(&str, u32); 2] = [("a", 2), ("b", 1)];

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `RealExecutor::stream_epoch`, pulled by one consumer.
    Stream,
    /// Timed calls to `RealExecutor::materialize` (the offline phase).
    Materialize,
    /// `serve_epoch` against two in-process `ServeWorker`s.
    Serve,
    /// Two concurrent `serve_epoch` tenants through a `FleetDaemon`.
    Fleet,
}

/// One workload: what is stored, and how it is read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// How the program is driven.
    pub kind: Kind,
    /// Pipeline split: steps before it run offline, the rest every epoch.
    pub split: usize,
    /// Compression of the materialized shards.
    pub codec: Codec,
    /// Samples per epoch and consumer (per `materialize` call for
    /// [`Kind::Materialize`]).
    pub samples: usize,
}

/// Workload names, in the order a full run visits them.
pub const NAMES: [&str; 6] = [
    "cv-online",
    "cv-offline",
    "cv-offline-gzip",
    "cv-materialize-gzip",
    "serve-direct",
    "fleetd-2tenant",
];

impl Workload {
    /// The workload called `name`. `tiny` shrinks it to a smoke-test size
    /// that still has every shard and both tenants.
    pub fn named(name: &str, tiny: bool) -> Option<Workload> {
        let gzip = Codec::Gzip(Level::DEFAULT);
        let (name, kind, split, codec, samples) = match name {
            "cv-online" => (NAMES[0], Kind::Stream, 0, Codec::None, 256),
            "cv-offline" => (NAMES[1], Kind::Stream, 3, Codec::None, 1024),
            "cv-offline-gzip" => (NAMES[2], Kind::Stream, 3, gzip, 256),
            "cv-materialize-gzip" => (NAMES[3], Kind::Materialize, 3, gzip, 64),
            "serve-direct" => (NAMES[4], Kind::Serve, 3, Codec::None, 512),
            "fleetd-2tenant" => (NAMES[5], Kind::Fleet, 3, Codec::None, 512),
            _ => return None,
        };
        Some(Workload {
            name,
            kind,
            split,
            codec,
            samples: if tiny { 24 } else { samples },
        })
    }

    /// Consumers that each receive a full epoch.
    pub fn consumers(&self) -> usize {
        match self.kind {
            Kind::Fleet => TENANTS.len(),
            _ => 1,
        }
    }

    /// The preprocessing strategy: eight shards read by two threads;
    /// the timed offline phase writes one shard per thread instead, as
    /// `materialize` runs one thread per shard.
    pub fn strategy(&self) -> Strategy {
        let strategy = Strategy::at_split(self.split)
            .with_threads(THREADS)
            .with_compression(self.codec);
        match self.kind {
            Kind::Materialize => strategy.with_shards(THREADS),
            _ => strategy,
        }
    }
}

/// SplitMix64 step: spreads `--seed` over the image seeds. Kept here, not
/// taken from the vendored `rand` stand-in, so the inputs of a seed stay
/// the same when that stand-in changes.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The inputs of one run: [`IMAGES`] distinct 96×80 JPEG q85 natural
/// images made from `seed`, cycled to `samples` samples with unique keys.
pub fn sources(seed: u64, samples: usize) -> Vec<Sample> {
    let jpegs: Vec<Bytes> = (0..IMAGES.min(samples) as u64)
        .map(|i| {
            let image = generators::natural_image(96, 80, mix(seed, i));
            Bytes::from(jpg::encode(&image, 85))
        })
        .collect();
    (0..samples)
        .map(|key| Sample::from_bytes(key as u64, jpegs[key % jpegs.len()].clone()))
        .collect()
}

/// The CV pipeline: decode-image → resize 64 → pixel-center → random-crop 56.
pub fn pipeline() -> Pipeline {
    steps::executable_cv_pipeline(64, 56)
}

/// Telemetry handles of a traced run. Untraced runs attach none.
#[derive(Debug, Clone)]
pub struct Probes {
    /// Attached to the program side: executor, serve workers, daemon.
    pub engine: Arc<Telemetry>,
    /// Attached to the first consumer's `serve_epoch` client.
    pub client: Arc<Telemetry>,
}

impl Probes {
    /// Fresh handles.
    pub fn new() -> Self {
        Probes {
            engine: Telemetry::new(),
            client: Telemetry::new(),
        }
    }
}

/// What one consumer received in one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Samples received.
    pub samples: u64,
    /// Payload bytes received (stored bytes for a `materialize` call).
    pub nbytes: u64,
    /// Multiset checksum, where one was taken.
    pub checksum: Option<MultisetChecksum>,
    /// When every [`CONSUMER_BATCH`]-th sample arrived (marked epochs only).
    pub marks: Vec<Instant>,
}

/// One epoch as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct EpochOut {
    /// When the epoch was started.
    pub started: Instant,
    /// Wall time until the last consumer had everything.
    pub elapsed: Duration,
    /// One entry per consumer, in [`TENANTS`] order.
    pub delivered: Vec<Delivered>,
    /// BATCH frames drained by the clients (serve kinds).
    pub batches: u64,
    /// Block bytes the clients received (serve kinds).
    pub wire_bytes: u64,
    /// The first tenant's share of all samples delivered at the moment
    /// it finished (`Kind::Fleet`; 0 elsewhere).
    pub lead_share: f64,
}

/// What an epoch must deliver to each consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Samples.
    pub samples: u64,
    /// Payload bytes (stored bytes for a `materialize` call).
    pub nbytes: u64,
    /// Multiset checksum of a single-thread reference epoch.
    pub checksum: MultisetChecksum,
}

/// What the consumer records besides counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Count samples and bytes only (timed epochs).
    Plain,
    /// Also fold every sample into a multiset checksum.
    Checked,
    /// Also note when each consumer batch completed, and turn the
    /// program's own telemetry and wire tracing on.
    Traced,
}

/// The closed-loop consumer. Serve clients call it from one thread per
/// connection, hence the atomics.
struct Consumer {
    samples: AtomicU64,
    nbytes: AtomicU64,
    checksum: Option<Mutex<MultisetChecksum>>,
    marks: Option<Mutex<Vec<Instant>>>,
}

impl Consumer {
    fn new(probe: Probe) -> Self {
        Consumer {
            samples: AtomicU64::new(0),
            nbytes: AtomicU64::new(0),
            checksum: (probe == Probe::Checked).then(Mutex::default),
            marks: (probe == Probe::Traced).then(Mutex::default),
        }
    }

    fn take(&self, sample: &Sample) {
        self.nbytes
            .fetch_add(sample.nbytes() as u64, Ordering::Relaxed);
        let seen = self.samples.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(checksum) = &self.checksum {
            checksum.lock().expect("consumer checksum lock").add(sample);
        }
        if let Some(marks) = &self.marks {
            if seen.is_multiple_of(CONSUMER_BATCH) {
                marks
                    .lock()
                    .expect("consumer marks lock")
                    .push(Instant::now());
            }
        }
    }

    fn seen(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    fn finish(self) -> Delivered {
        Delivered {
            samples: self.samples.into_inner(),
            nbytes: self.nbytes.into_inner(),
            checksum: self
                .checksum
                .map(|c| c.into_inner().expect("consumer checksum lock")),
            marks: self
                .marks
                .map(|m| m.into_inner().expect("consumer marks lock"))
                .unwrap_or_default(),
        }
    }
}

/// A set-up program: materialized dataset, executor, and (serve kinds)
/// running workers and daemon. Dropping it stops everything it started.
pub struct Env {
    /// The workload this was set up for.
    pub workload: Workload,
    /// The CV pipeline.
    pub pipeline: Pipeline,
    /// Two-thread executor (with telemetry in a traced run).
    pub exec: RealExecutor,
    /// Where the shards live.
    pub store: Arc<MemStore>,
    /// The materialized dataset.
    pub dataset: Materialized,
    source: Vec<Sample>,
    probes: Option<Probes>,
    // Field order is drop order: the daemon goes before its backends.
    daemon: Option<FleetDaemon>,
    workers: Vec<ServeWorker>,
}

impl Env {
    /// Run the program's set-up calls: materialize the dataset, then
    /// (serve kinds) spawn the workers and the daemon.
    pub fn setup(
        workload: &Workload,
        source: &[Sample],
        probes: Option<&Probes>,
    ) -> Result<Env, PipelineError> {
        let pipeline = pipeline();
        let mut exec = RealExecutor::new(THREADS);
        if let Some(probes) = probes {
            exec = exec.with_telemetry(Arc::clone(&probes.engine));
        }
        let store = Arc::new(MemStore::new());
        let (dataset, _) =
            exec.materialize(&pipeline, &workload.strategy(), source, store.as_ref())?;
        let mut workers = Vec::new();
        if matches!(workload.kind, Kind::Serve | Kind::Fleet) {
            for _ in 0..THREADS {
                workers.push(ServeWorker::spawn(
                    "127.0.0.1:0",
                    &pipeline,
                    &dataset,
                    Arc::clone(&store) as Arc<dyn BlobStore>,
                    Resilience::default(),
                    probes.map(|p| Arc::clone(&p.engine)),
                    ServeWorkerConfig::default(),
                )?);
            }
        }
        let daemon = match workload.kind {
            Kind::Fleet => Some(FleetDaemon::spawn(
                "127.0.0.1:0",
                &workers
                    .iter()
                    .map(|w| w.addr().to_string())
                    .collect::<Vec<_>>(),
                FleetDaemonConfig::default(),
                probes.map(|p| Arc::clone(&p.engine)),
            )?),
            _ => None,
        };
        Ok(Env {
            workload: workload.clone(),
            pipeline,
            exec,
            store,
            dataset,
            source: source.to_vec(),
            probes: probes.cloned(),
            daemon,
            workers,
        })
    }

    /// Samples all consumers together receive in one epoch.
    pub fn samples_per_epoch(&self) -> u64 {
        (self.workload.samples * self.workload.consumers()) as u64
    }

    /// The inputs this was set up from.
    pub fn source(&self) -> &[Sample] {
        &self.source
    }

    /// Addresses of the serve workers.
    pub fn backends(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// The workload's own epoch.
    pub fn epoch(&self, seed: u64, probe: Probe) -> Result<EpochOut, PipelineError> {
        match self.workload.kind {
            Kind::Stream => self.stream_epoch(seed, probe),
            Kind::Materialize => self.materialize_call(seed, probe),
            Kind::Serve => self.serve(&self.backends(), &[None], seed, probe),
            Kind::Fleet => {
                let tenants: Vec<_> = TENANTS
                    .iter()
                    .map(|&(name, weight)| Some(TenantSpec::new(name, weight)))
                    .collect();
                self.serve(&self.daemon_addr(), &tenants, seed, probe)
            }
        }
    }

    /// One tenant alone through the daemon (`Kind::Fleet` only): with
    /// [`Env::direct_epoch`], the two sides of the relay differential.
    pub fn relayed_epoch(&self, seed: u64) -> Result<EpochOut, PipelineError> {
        let (name, weight) = TENANTS[0];
        let tenant = Some(TenantSpec::new(name, weight));
        self.serve(&self.daemon_addr(), &[tenant], seed, Probe::Plain)
    }

    /// One client straight to the backends, bypassing the daemon.
    pub fn direct_epoch(&self, seed: u64) -> Result<EpochOut, PipelineError> {
        self.serve(&self.backends(), &[None], seed, Probe::Plain)
    }

    /// A callback epoch over the same shards: what `stream_epoch` costs
    /// beyond this is the hand-off through bundles and the ring.
    pub fn callback_epoch(&self, seed: u64) -> Result<EpochOut, PipelineError> {
        let consumer = Consumer::new(Probe::Plain);
        let started = Instant::now();
        self.exec.epoch(
            &self.pipeline,
            &self.dataset,
            self.store.as_ref(),
            None,
            seed,
            |sample| consumer.take(sample),
        )?;
        Ok(EpochOut::local(
            started,
            started.elapsed(),
            consumer.finish(),
        ))
    }

    fn daemon_addr(&self) -> Vec<String> {
        self.daemon.iter().map(|d| d.addr().to_string()).collect()
    }

    fn stream_epoch(&self, seed: u64, probe: Probe) -> Result<EpochOut, PipelineError> {
        let consumer = Consumer::new(probe);
        let started = Instant::now();
        let mut stream = self.exec.stream_epoch(
            &self.pipeline,
            &self.dataset,
            Arc::clone(&self.store) as Arc<dyn BlobStore>,
            PREFETCH,
            seed,
        )?;
        for sample in &mut stream {
            consumer.take(&sample?);
        }
        stream.join()?;
        Ok(EpochOut::local(
            started,
            started.elapsed(),
            consumer.finish(),
        ))
    }

    /// One timed offline phase into a fresh store. A checked call also
    /// reads the new dataset back through a single-thread epoch.
    fn materialize_call(&self, seed: u64, probe: Probe) -> Result<EpochOut, PipelineError> {
        let store = MemStore::new();
        let started = Instant::now();
        let (dataset, _) = self.exec.materialize(
            &self.pipeline,
            &self.workload.strategy(),
            &self.source,
            &store,
        )?;
        let elapsed = started.elapsed();
        let checksum = match probe {
            Probe::Checked => Some(reference_epoch(&self.pipeline, &dataset, &store, seed)?.1),
            _ => None,
        };
        let written = Delivered {
            samples: dataset.sample_count,
            nbytes: dataset.stored_bytes,
            checksum,
            marks: Vec::new(),
        };
        Ok(EpochOut::local(started, elapsed, written))
    }

    /// One `serve_epoch` client per entry of `tenants`, all started
    /// together against `targets`; the epoch ends when the last is done.
    fn serve(
        &self,
        targets: &[String],
        tenants: &[Option<TenantSpec>],
        seed: u64,
        probe: Probe,
    ) -> Result<EpochOut, PipelineError> {
        let consumers: Vec<Consumer> = tenants.iter().map(|_| Consumer::new(probe)).collect();
        let total_at_lead_finish = AtomicU64::new(0);
        let started = Instant::now();
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .zip(&consumers)
                .enumerate()
                .map(|(index, (tenant, consumer))| {
                    let consumers = &consumers;
                    let total_at_lead_finish = &total_at_lead_finish;
                    scope.spawn(move || {
                        let traced = probe == Probe::Traced;
                        let config = ServeClientConfig {
                            tracing: traced,
                            tenant: tenant.clone(),
                            ..ServeClientConfig::default()
                        };
                        // One client handle: a second client on the same
                        // handle would reset the first one's gauges.
                        let telemetry = self
                            .probes
                            .as_ref()
                            .filter(|_| traced && index == 0)
                            .map(|p| p.client.as_ref());
                        let report = serve_epoch(
                            targets,
                            &self.dataset.shards,
                            seed,
                            &config,
                            telemetry,
                            |sample| consumer.take(sample),
                        );
                        if index == 0 {
                            let total = consumers.iter().map(Consumer::seen).sum();
                            total_at_lead_finish.store(total, Ordering::Relaxed);
                        }
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let elapsed = started.elapsed();
        let lead_samples = reports[0].samples;
        let delivered = consumers
            .into_iter()
            .zip(&reports)
            .map(|(consumer, report)| {
                let mut delivered = consumer.finish();
                // The client's own checksum comes for free on every epoch.
                delivered.checksum = Some(report.checksum);
                delivered
            })
            .collect();
        let total = total_at_lead_finish.into_inner();
        Ok(EpochOut {
            started,
            elapsed,
            delivered,
            batches: reports.iter().map(|r| r.batches).sum(),
            wire_bytes: reports.iter().map(|r| r.bytes_received).sum(),
            lead_share: match total {
                0 => 0.0,
                total => lead_samples as f64 / total as f64,
            },
        })
    }

    /// What every epoch seed must deliver, from single-thread reference
    /// epochs. For [`Kind::Materialize`] the reference dataset is written
    /// uncompressed, so the compressed write path is checked against it.
    pub fn references(&self) -> Result<Vec<Reference>, PipelineError> {
        let reference_store;
        let (dataset, store, stored) = match self.workload.kind {
            Kind::Materialize => {
                reference_store = MemStore::new();
                let plain = self.workload.strategy().with_compression(Codec::None);
                let (dataset, _) = RealExecutor::new(1).materialize(
                    &self.pipeline,
                    &plain,
                    &self.source,
                    &reference_store,
                )?;
                (dataset, &reference_store, Some(self.dataset.stored_bytes))
            }
            _ => (self.dataset.clone(), self.store.as_ref(), None),
        };
        EPOCH_SEEDS
            .iter()
            .map(|&seed| {
                let (nbytes, checksum) = reference_epoch(&self.pipeline, &dataset, store, seed)?;
                Ok(Reference {
                    samples: checksum.count,
                    nbytes: stored.unwrap_or(nbytes),
                    checksum,
                })
            })
            .collect()
    }
}

impl EpochOut {
    /// An epoch with one consumer and no wire.
    fn local(started: Instant, elapsed: Duration, delivered: Delivered) -> EpochOut {
        EpochOut {
            started,
            elapsed,
            delivered: vec![delivered],
            batches: 0,
            wire_bytes: 0,
            lead_share: 0.0,
        }
    }

    /// Samples this epoch failed to deliver correctly: missing or extra
    /// ones by count, or every sample of a consumer whose bytes or
    /// checksum differ from the reference.
    pub fn failed(&self, reference: &Reference) -> u64 {
        self.delivered
            .iter()
            .map(|d| {
                if d.samples != reference.samples {
                    d.samples.abs_diff(reference.samples)
                } else if d.nbytes != reference.nbytes
                    || d.checksum.is_some_and(|c| c != reference.checksum)
                {
                    reference.samples
                } else {
                    0
                }
            })
            .sum()
    }
}

/// Payload bytes and multiset checksum of a single-thread callback epoch.
fn reference_epoch(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &MemStore,
    seed: u64,
) -> Result<(u64, MultisetChecksum), PipelineError> {
    let consumer = Consumer::new(Probe::Checked);
    RealExecutor::new(1).epoch(pipeline, dataset, store, None, seed, |sample| {
        consumer.take(sample)
    })?;
    let delivered = consumer.finish();
    Ok((
        delivered.nbytes,
        delivered.checksum.expect("checked consumer has a checksum"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_blobs(seed: u64) -> Vec<Vec<u8>> {
        let workload = Workload::named("cv-offline-gzip", true).unwrap();
        let env = Env::setup(&workload, &sources(seed, workload.samples), None).unwrap();
        env.dataset
            .shards
            .iter()
            .map(|name| env.store.get(name).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_sources_and_shards() {
        let encode =
            |seed| -> Vec<Vec<u8>> { sources(seed, 40).iter().map(Sample::encode).collect() };
        assert_eq!(encode(7), encode(7));
        assert_ne!(encode(7), encode(8));
        assert_eq!(shard_blobs(7), shard_blobs(7));
        assert_ne!(shard_blobs(7), shard_blobs(8));
    }

    #[test]
    fn sources_have_unique_keys_and_cycle_the_images() {
        let source = sources(3, IMAGES + 5);
        let keys: Vec<u64> = source.iter().map(|s| s.key).collect();
        assert_eq!(keys, (0..(IMAGES + 5) as u64).collect::<Vec<_>>());
        assert_eq!(source[0].payload, source[IMAGES].payload);
        assert_ne!(source[0].payload, source[1].payload);
    }

    #[test]
    fn every_declared_workload_exists() {
        for name in NAMES {
            let workload = Workload::named(name, false).unwrap();
            assert_eq!(workload.name, name);
        }
        assert!(Workload::named("no-such", false).is_none());
    }

    #[test]
    fn a_wrong_delivery_counts_as_failed() {
        let reference = Reference {
            samples: 10,
            nbytes: 100,
            checksum: MultisetChecksum { count: 10, sum: 5 },
        };
        let out = |samples, nbytes, sum: Option<u64>| EpochOut {
            started: Instant::now(),
            elapsed: Duration::ZERO,
            delivered: vec![Delivered {
                samples,
                nbytes,
                checksum: sum.map(|sum| MultisetChecksum {
                    count: samples,
                    sum,
                }),
                marks: Vec::new(),
            }],
            batches: 0,
            wire_bytes: 0,
            lead_share: 0.0,
        };
        assert_eq!(out(10, 100, Some(5)).failed(&reference), 0);
        assert_eq!(out(10, 100, None).failed(&reference), 0);
        assert_eq!(out(8, 80, None).failed(&reference), 2);
        assert_eq!(out(12, 120, None).failed(&reference), 2);
        assert_eq!(out(10, 99, None).failed(&reference), 10);
        assert_eq!(out(10, 100, Some(6)).failed(&reference), 10);
    }
}
