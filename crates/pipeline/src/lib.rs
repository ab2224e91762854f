#![warn(missing_docs)]

//! # presto-pipeline
//!
//! The pipeline model at the center of the paper, plus two execution
//! engines.
//!
//! A preprocessing pipeline is an ordered list of steps `S_1..S_n`. A
//! **strategy** splits it at position *m*: steps up to *m* run once
//! (**offline**) and their output is materialized to storage as a
//! record stream (optionally compressed); the remaining steps run
//! **online** in every training epoch. Strategies further choose thread
//! count, compression codec, caching level and shard count.
//!
//! Two engines execute the same `Pipeline`/`Strategy` types:
//!
//! - [`real`]: actual worker threads applying real step
//!   implementations to real data, with in-memory or on-disk shard
//!   storage — a usable data-loading library,
//! - [`sim`]: a discrete-event simulation on virtual time over
//!   calibrated per-step cost models and the simulated Ceph cluster of
//!   [`presto_storage`] — deterministic, machine-independent, used to
//!   regenerate the paper's experiments.

pub mod batch;
pub mod chaos;
pub mod dataplane;
pub mod distributed;
pub mod error;
pub mod fault;
mod link;
pub mod pipeline;
pub mod real;
pub mod sample;
pub mod serve;
pub mod shuffle;
pub mod sim;
pub mod step;
pub mod store;
pub mod strategy;
pub mod tenant;

pub use dataplane::{BufferPool, SampleBundle, DEFAULT_BUNDLE_SIZE};
pub use error::PipelineError;
pub use fault::{FaultPolicy, Resilience, RetryPolicy};
pub use pipeline::Pipeline;
pub use real::{
    shard_rng_seed, AppCache, DelayPlan, EpochStats, EpochStream, Materialized, RealExecutor,
};
pub use sample::{Payload, Sample};
pub use step::{CostModel, Parallelism, SizeModel, Step, StepSpec};
pub use store::{BlobStore, DirStore, FaultSpec, FaultStore, MemStore, StoreError};
pub use strategy::{CacheLevel, Strategy};
pub use tenant::{AdmissionPolicy, FleetDaemon, FleetDaemonConfig};

/// Observability for the real engine, re-exported from
/// [`presto_telemetry`]: attach a [`telemetry::Telemetry`] handle via
/// [`real::RealExecutor::with_telemetry`] and read back per-step
/// latency, per-worker utilization, queue depth and fault counts.
pub use presto_telemetry as telemetry;
pub use presto_telemetry::{
    EpochRecorder, FleetProgress, FleetSnapshot, FleetWorkerEntry, SearchProgress, SearchSnapshot,
    ServeProgress, ServeSnapshot, Telemetry, TelemetrySnapshot,
};
