//! Bottleneck attribution — the question in the paper's title: *where
//! is my training bottleneck?*
//!
//! Given a strategy profile and the environment it ran under, compute
//! each shared facility's utilization over the epoch and name the
//! dominant one:
//!
//! - **storage**: bytes moved vs the cluster's aggregate bandwidth,
//! - **cpu**: single-core work vs `cores × span`,
//! - **dispatch**: serialized per-sample scheduling vs the span,
//! - **lock**: GIL-style serialized step time vs the span
//!   (approximated by worker lock-wait time).
//!
//! The paper reads these off dstat/trace logs by hand (Section 4.1:
//! "if transformation steps are too long, such that the maximum read
//! cannot be reached, we can assume a CPU bottleneck"); this module
//! automates the attribution.

use presto_pipeline::sim::{SimEnv, StrategyProfile};
use presto_pipeline::telemetry::causal::{CausalRank, CausalVerdicts};
use presto_pipeline::telemetry::timeseries::TimePoint;
use presto_pipeline::telemetry::{FleetSnapshot, PhaseKind, ServeSnapshot, TelemetrySnapshot};
use std::fmt;

/// The facility limiting a strategy's throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Storage/network bandwidth or IOPS.
    Storage,
    /// CPU cores.
    Cpu,
    /// The serialized per-sample dispatcher (small-sample collapse).
    Dispatch,
    /// A serialized (GIL-held) step.
    Lock,
    /// Nothing saturated (idle/imbalanced run).
    None,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Bottleneck::Storage => "storage I/O",
            Bottleneck::Cpu => "CPU",
            Bottleneck::Dispatch => "sample dispatch (serialized)",
            Bottleneck::Lock => "serialized (GIL) step",
            Bottleneck::None => "none (under-utilized)",
        };
        f.write_str(name)
    }
}

/// Utilization breakdown of one online epoch.
#[derive(Debug, Clone, Copy)]
pub struct Diagnosis {
    /// Storage bandwidth utilization in `[0, 1]`.
    pub storage_util: f64,
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Dispatcher utilization in `[0, 1]` (1 = fully serialized).
    pub dispatch_util: f64,
    /// Fraction of total worker time spent waiting on locks.
    pub lock_wait_fraction: f64,
    /// The dominant facility.
    pub bottleneck: Bottleneck,
}

/// Diagnose the last epoch of `profile` under `env`.
pub fn diagnose(profile: &StrategyProfile, env: &SimEnv) -> Option<Diagnosis> {
    let epoch = profile.epochs.last()?;
    let span = epoch.stats.span.as_secs_f64();
    if span <= 0.0 {
        return None;
    }
    let moved = (epoch.stats.storage_read_bytes + epoch.stats.storage_write_bytes) as f64;
    let storage_util = (moved / env.device.aggregate_bw / span).min(1.0);
    let cpu_util = (epoch.stats.cpu_work.as_secs_f64() / (env.cores as f64 * span)).min(1.0);
    let dispatch_util = (epoch.stats.dispatches as f64 * env.dispatch_ns / 1e9 / span).min(1.0);
    let worker_time = span * profile.strategy.threads as f64;
    let lock_wait_fraction = (epoch.stats.lock_wait.as_secs_f64() / worker_time).min(1.0);

    let bottleneck = dominant(&[
        (Bottleneck::Storage, storage_util),
        (Bottleneck::Cpu, cpu_util),
        (Bottleneck::Dispatch, dispatch_util),
        (Bottleneck::Lock, lock_wait_fraction),
    ]);
    Some(Diagnosis {
        storage_util,
        cpu_util,
        dispatch_util,
        lock_wait_fraction,
        bottleneck,
    })
}

/// The shared ≥0.5-of-the-maximum rule: below half-utilization on
/// everything, nothing is really binding. Both engines' diagnoses go
/// through here so their verdicts stay comparable.
fn dominant(candidates: &[(Bottleneck, f64)]) -> Bottleneck {
    let (kind, value) = candidates
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    if value < 0.5 {
        Bottleneck::None
    } else {
        kind
    }
}

/// The pipeline step dominating a real epoch's measured busy time.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Step name.
    pub step: String,
    /// The step's share of all measured busy time (engine phases
    /// included), in `[0, 1]`.
    pub busy_share: f64,
    /// The step's 99th-percentile per-invocation latency, nanoseconds.
    pub p99_ns: u64,
}

/// A [`Diagnosis`] measured off a real run instead of simulated, plus
/// the straggler step the aggregate verdict hides.
#[derive(Debug, Clone)]
pub struct RealDiagnosis {
    /// The utilization breakdown and verdict, comparable with
    /// [`diagnose`]'s output for the simulated twin of the same run.
    pub diagnosis: Diagnosis,
    /// The slowest pipeline step, when any step ran.
    pub straggler: Option<Straggler>,
}

/// Diagnose one real epoch from its telemetry.
///
/// Where the simulator knows each facility's capacity and computes
/// utilizations against it, a real run only knows where its workers'
/// wall time went — so each facility's "utilization" is the fraction
/// of aggregate worker time (`threads × elapsed`) spent in phases of
/// that kind:
///
/// - **storage**: shard fetches ([`PhaseKind::Io`]),
/// - **cpu**: decompression, record decoding and the pipeline steps
///   ([`PhaseKind::Cpu`] + [`PhaseKind::Step`]),
/// - **dispatch**: handing samples to the consumer — the consume
///   callback, or blocking on a full prefetch channel
///   ([`PhaseKind::Deliver`]).
///
/// Lock waiting is not a real-engine phase (there is no GIL), so
/// `lock_wait_fraction` is 0. The verdict uses the same
/// ≥0.5-of-the-maximum rule as [`diagnose`], which is what makes
/// sim-vs-real cross-checks meaningful (`tests/cross_engine.rs`).
pub fn diagnose_real(snapshot: &TelemetrySnapshot) -> Option<RealDiagnosis> {
    if snapshot.elapsed_ns == 0 || snapshot.steps.is_empty() {
        return None;
    }
    let storage_util = snapshot.fraction_of(PhaseKind::Io);
    let cpu_util =
        (snapshot.fraction_of(PhaseKind::Cpu) + snapshot.fraction_of(PhaseKind::Step)).min(1.0);
    let dispatch_util = snapshot.fraction_of(PhaseKind::Deliver);
    let bottleneck = dominant(&[
        (Bottleneck::Storage, storage_util),
        (Bottleneck::Cpu, cpu_util),
        (Bottleneck::Dispatch, dispatch_util),
    ]);
    let total_busy: u64 = snapshot.steps.iter().map(|s| s.busy_ns).sum();
    let straggler = snapshot
        .pipeline_steps()
        .iter()
        .max_by_key(|s| s.busy_ns)
        .filter(|s| s.busy_ns > 0)
        .map(|s| Straggler {
            step: s.name.clone(),
            busy_share: s.busy_ns as f64 / total_busy as f64,
            p99_ns: s.p99_ns,
        });
    Some(RealDiagnosis {
        diagnosis: Diagnosis {
            storage_util,
            cpu_util,
            dispatch_util,
            lock_wait_fraction: 0.0,
            bottleneck,
        },
        straggler,
    })
}

/// Cross-validate a causal ranking against the busy-time profile and
/// the simulator verdict.
///
/// Three independent observers name a bottleneck: the causal profile
/// (top of `ranking`, mapped to its facility), the busy-time profile
/// (the argmax of the snapshot's io/cpu/deliver shares — argmax, not
/// the thresholded [`diagnose_real`] verdict, because a pipelined
/// epoch can be causally deliver-bound while no single facility
/// clears the 0.5-of-max dominance bar), and the virtual-replay
/// simulator (`simulated`). Agreement between the causal and observed
/// facilities is the headline `agree` bit; every pairwise mismatch
/// becomes a human-readable line in `disagreements`.
pub fn cross_validate_causal(
    snapshot: &TelemetrySnapshot,
    ranking: &[CausalRank],
    simulated: Bottleneck,
) -> CausalVerdicts {
    let Some(top) = ranking.first() else {
        return CausalVerdicts::default();
    };
    let causal_facility = match top.kind.as_str() {
        "io" => Bottleneck::Storage,
        "deliver" => Bottleneck::Dispatch,
        _ => Bottleneck::Cpu,
    };
    let shares = [
        (Bottleneck::Storage, snapshot.fraction_of(PhaseKind::Io)),
        (
            Bottleneck::Cpu,
            snapshot.fraction_of(PhaseKind::Cpu) + snapshot.fraction_of(PhaseKind::Step),
        ),
        (
            Bottleneck::Dispatch,
            snapshot.fraction_of(PhaseKind::Deliver),
        ),
    ];
    let observed = shares
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(b, _)| *b)
        .unwrap_or(Bottleneck::None);
    let mut disagreements = Vec::new();
    if causal_facility != observed {
        disagreements.push(format!(
            "causal profile blames {causal_facility} (top step '{}') but the busy-time profile \
             points at {observed}",
            top.step
        ));
    }
    if causal_facility != simulated {
        disagreements.push(format!(
            "causal profile blames {causal_facility} but the virtual-replay simulator predicts \
             {simulated} binds"
        ));
    }
    CausalVerdicts {
        causal_top: top.step.clone(),
        causal_kind: top.kind.clone(),
        observed: observed.to_string(),
        simulated: simulated.to_string(),
        agree: causal_facility == observed,
        disagreements,
    }
}

/// The facility limiting a disaggregated serve fleet's throughput.
///
/// Where [`Bottleneck`] names a facility inside one process,
/// `FleetBottleneck` names the binding constraint of a whole serve
/// session: one `train-client` consuming batches produced by N
/// `serve-worker` processes over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetBottleneck {
    /// Workers cannot produce fast enough (CPU/storage on the workers).
    WorkerCompute,
    /// The wire is the constraint: batches exist but arrive slowly.
    Network,
    /// Flow control is the constraint: workers stall waiting for
    /// credit the client is slow to return.
    Credit,
    /// The caller consuming the served stream is the constraint.
    Consumer,
    /// Nothing dominates (idle or well-balanced fleet).
    None,
}

impl fmt::Display for FleetBottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FleetBottleneck::WorkerCompute => "worker compute",
            FleetBottleneck::Network => "network transfer",
            FleetBottleneck::Credit => "credit/backpressure",
            FleetBottleneck::Consumer => "consumer (training step)",
            FleetBottleneck::None => "none (under-utilized)",
        };
        f.write_str(name)
    }
}

/// Wait-state breakdown of one serve session, client-side shares plus
/// the aggregate worker-side shares that disambiguate idle-wire time.
#[derive(Debug, Clone, Copy)]
pub struct FleetDiagnosis {
    /// Share of per-connection client time blocked waiting for the
    /// first byte of a frame (the wire was idle).
    pub gap_share: f64,
    /// Share of per-connection client time reading frame bodies (the
    /// wire was busy).
    pub stream_share: f64,
    /// Share of per-connection client time the caller spent between pulls.
    pub consume_share: f64,
    /// Aggregate worker share of time stalled on flow-control credit.
    pub credit_share: f64,
    /// Aggregate worker share of time producing samples.
    pub produce_share: f64,
    /// The binding constraint.
    pub bottleneck: FleetBottleneck,
}

/// Threshold below which no client-side wait state is considered
/// binding: under 15% of per-connection time on every wait bucket, the
/// fleet is balanced and the verdict is [`FleetBottleneck::None`].
const FLEET_IDLE_SHARE: f64 = 0.15;

/// Diagnose one serve session from the three telemetry surfaces the
/// client holds at the end of an epoch: its own [`TelemetrySnapshot`]
/// (for elapsed time), its [`ServeSnapshot`] (client-side wait-state
/// gauges) and the [`FleetSnapshot`] (per-worker remote stats).
///
/// The attribution reads the client's per-connection wait buckets
/// first — `consume` (the caller), `stream` (wire busy) and `gap` (wire
/// idle) — normalized by `elapsed × connections`. A dominant `gap`
/// share is ambiguous on its own: the wire is idle either because
/// workers can't produce (compute-bound) or because they're stalled
/// waiting for credit the client won't return (backpressure-bound).
/// The worker-side aggregates from the fleet stats break the tie:
/// more aggregate credit-wait than produce time means the fleet is
/// credit-bound, otherwise worker-compute-bound.
///
/// Returns `None` when the client epoch has no elapsed time.
pub fn diagnose_fleet(
    client: &TelemetrySnapshot,
    serve: &ServeSnapshot,
    fleet: &FleetSnapshot,
) -> Option<FleetDiagnosis> {
    if client.elapsed_ns == 0 {
        return None;
    }
    let denom = client.elapsed_ns as f64 * serve.workers.max(1) as f64;
    let gap_share = (serve.gap_wait_ns as f64 / denom).min(1.0);
    let stream_share = (serve.stream_read_ns as f64 / denom).min(1.0);
    let consume_share = (serve.consume_ns as f64 / denom).min(1.0);

    let worker_elapsed: u64 = fleet.workers.iter().map(|w| w.elapsed_ns).sum();
    let worker_produce: u64 = fleet.workers.iter().map(|w| w.produce_ns).sum();
    let worker_credit: u64 = fleet.workers.iter().map(|w| w.credit_wait_ns).sum();
    let (credit_share, produce_share) = if worker_elapsed == 0 {
        (0.0, 0.0)
    } else {
        (
            (worker_credit as f64 / worker_elapsed as f64).min(1.0),
            (worker_produce as f64 / worker_elapsed as f64).min(1.0),
        )
    };

    let bottleneck = if gap_share.max(stream_share).max(consume_share) < FLEET_IDLE_SHARE {
        FleetBottleneck::None
    } else if consume_share >= gap_share && consume_share >= stream_share {
        FleetBottleneck::Consumer
    } else if stream_share >= gap_share {
        FleetBottleneck::Network
    } else if credit_share > produce_share {
        FleetBottleneck::Credit
    } else {
        FleetBottleneck::WorkerCompute
    };
    Some(FleetDiagnosis {
        gap_share,
        stream_share,
        consume_share,
        credit_share,
        produce_share,
        bottleneck,
    })
}

/// One time-series sample's verdict within a [`TrendDiagnosis`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Sample time, nanoseconds from the sampler's start.
    pub t_ns: u64,
    /// The interval's dominant facility.
    pub bottleneck: Bottleneck,
    /// The interval's samples/s.
    pub sps: f64,
}

/// Bottleneck attribution over a window of mid-epoch samples: the
/// per-interval verdicts, the current one, and every shift — the
/// "bottlenecks move as caches warm" effect the paper's post-hoc
/// analysis can't see.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendDiagnosis {
    /// Per-interval verdicts, oldest first.
    pub points: Vec<TrendPoint>,
    /// The newest interval's verdict.
    pub current: Bottleneck,
    /// `(t_ns, from, to)` for every change of verdict in the window.
    pub shifts: Vec<(u64, Bottleneck, Bottleneck)>,
}

/// Diagnose a single sampling interval: [`diagnose_real`]'s phase-kind
/// attribution applied to one interval's worker-time shares instead of
/// a whole sealed epoch.
pub fn diagnose_point(point: &TimePoint) -> Bottleneck {
    dominant(&[
        (Bottleneck::Storage, point.io_share),
        (Bottleneck::Cpu, point.cpu_share),
        (Bottleneck::Dispatch, point.deliver_share),
    ])
}

/// Diagnose a window of time-series samples (e.g. the sampler ring
/// from `presto watch`), tracking how the verdict moves over time.
/// Returns `None` on an empty window.
pub fn diagnose_window(window: &[TimePoint]) -> Option<TrendDiagnosis> {
    let points: Vec<TrendPoint> = window
        .iter()
        .map(|p| TrendPoint {
            t_ns: p.t_ns,
            bottleneck: diagnose_point(p),
            sps: p.sps,
        })
        .collect();
    let current = points.last()?.bottleneck;
    let shifts = points
        .windows(2)
        .filter(|w| w[0].bottleneck != w[1].bottleneck)
        .map(|w| (w[1].t_ns, w[0].bottleneck, w[1].bottleneck))
        .collect();
    Some(TrendDiagnosis {
        points,
        current,
        shifts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Presto;
    use presto_pipeline::sim::{SimDataset, SourceLayout};
    use presto_pipeline::{CostModel, Pipeline, SizeModel, StepSpec, Strategy};
    use presto_storage::Nanos;

    fn dataset(bytes: f64, count: u64) -> SimDataset {
        SimDataset {
            name: "diag".into(),
            sample_count: count,
            unprocessed_sample_bytes: bytes,
            layout: SourceLayout::LargeFiles {
                file_bytes: 1 << 30,
            },
        }
    }

    fn env() -> SimEnv {
        SimEnv {
            subset_samples: 3_000,
            ..SimEnv::paper_vm()
        }
    }

    #[test]
    fn big_cheap_reads_diagnose_as_storage_bound() {
        let pipeline = Pipeline::new("io").push_spec(StepSpec::native(
            "concatenated",
            CostModel::new(500.0, 0.0, 0.0),
            SizeModel::IDENTITY,
        ));
        let presto = Presto::new(pipeline, dataset(5_000_000.0, 3_000), env());
        let profile = presto.profile_strategy(&Strategy::at_split(1), 1);
        let diagnosis = diagnose(&profile, &env()).unwrap();
        assert_eq!(diagnosis.bottleneck, Bottleneck::Storage, "{diagnosis:?}");
        assert!(diagnosis.storage_util > 0.9);
    }

    #[test]
    fn heavy_native_compute_diagnoses_as_cpu_bound() {
        let pipeline = Pipeline::new("cpu")
            .push_spec(StepSpec::native(
                "concatenated",
                CostModel::new(500.0, 0.0, 0.0),
                SizeModel::IDENTITY,
            ))
            .push_spec(StepSpec::native(
                "crunch",
                CostModel::new(8_000_000.0, 0.0, 0.0),
                SizeModel::IDENTITY,
            ));
        let presto = Presto::new(pipeline, dataset(50_000.0, 3_000), env());
        let profile = presto.profile_strategy(&Strategy::at_split(1), 1);
        let diagnosis = diagnose(&profile, &env()).unwrap();
        assert_eq!(diagnosis.bottleneck, Bottleneck::Cpu, "{diagnosis:?}");
        assert!(diagnosis.cpu_util > 0.9);
    }

    #[test]
    fn tiny_samples_diagnose_as_dispatch_bound() {
        let pipeline = Pipeline::new("tiny").push_spec(StepSpec::native(
            "concatenated",
            CostModel::new(200.0, 0.0, 0.0),
            SizeModel::IDENTITY,
        ));
        let presto = Presto::new(pipeline, dataset(8_000.0, 3_000), env());
        let profile = presto.profile_strategy(&Strategy::at_split(1), 1);
        let diagnosis = diagnose(&profile, &env()).unwrap();
        assert_eq!(diagnosis.bottleneck, Bottleneck::Dispatch, "{diagnosis:?}");
    }

    #[test]
    fn gil_steps_diagnose_as_lock_bound() {
        let pipeline = Pipeline::new("gil")
            .push_spec(StepSpec::native(
                "concatenated",
                CostModel::new(200.0, 0.0, 0.0),
                SizeModel::IDENTITY,
            ))
            .push_spec(StepSpec::global_locked(
                "py-step",
                CostModel::new(3_000_000.0, 0.0, 0.0),
                SizeModel::IDENTITY,
                Nanos::from_micros(200),
            ));
        let presto = Presto::new(pipeline, dataset(50_000.0, 3_000), env());
        let profile = presto.profile_strategy(&Strategy::at_split(1), 1);
        let diagnosis = diagnose(&profile, &env()).unwrap();
        assert_eq!(diagnosis.bottleneck, Bottleneck::Lock, "{diagnosis:?}");
        assert!(diagnosis.lock_wait_fraction > 0.5);
    }

    use presto_pipeline::telemetry::{
        PhaseKind, QueueSnapshot, StepSnapshot, TelemetrySnapshot, BUILTIN_PHASES,
    };

    /// A synthetic real-run snapshot: 5 engine phases + named steps,
    /// with the given busy times on 2 workers over `elapsed_ns`. The
    /// deliver budget is split across its two sub-phases to mirror the
    /// real engine's queue-wait/hand-off attribution.
    fn real_snapshot(
        io_ns: u64,
        deliver_ns: u64,
        steps: &[(&str, u64)],
        elapsed_ns: u64,
    ) -> TelemetrySnapshot {
        let phase = |name: &str, kind: PhaseKind, busy_ns: u64| StepSnapshot {
            name: name.into(),
            kind,
            count: 10,
            busy_ns,
            p50_ns: busy_ns / 10,
            p95_ns: busy_ns / 10,
            p99_ns: busy_ns / 10,
            max_ns: busy_ns / 10,
        };
        let mut all = vec![
            phase("read", PhaseKind::Io, io_ns),
            phase("decompress", PhaseKind::Cpu, 0),
            phase("decode", PhaseKind::Cpu, 0),
            phase("queue-wait", PhaseKind::Deliver, deliver_ns / 2),
            phase("hand-off", PhaseKind::Deliver, deliver_ns - deliver_ns / 2),
        ];
        assert_eq!(all.len(), BUILTIN_PHASES);
        all.extend(
            steps
                .iter()
                .map(|(name, ns)| phase(name, PhaseKind::Step, *ns)),
        );
        TelemetrySnapshot {
            elapsed_ns,
            epoch_seed: 0,
            threads: 2,
            samples: 10,
            bytes_read: 1,
            bytes_decoded: 1,
            cache_hits: 0,
            cache_misses: 0,
            retries: 0,
            skipped_samples: 0,
            lost_shards: 0,
            degraded: false,
            steps: all,
            workers: Vec::new(),
            queue: QueueSnapshot {
                capacity: 0,
                observations: 0,
                max_depth: 0,
                mean_depth: 0.0,
            },
            data_plane: Default::default(),
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    #[test]
    fn real_run_dominated_by_reads_is_storage_bound() {
        let snap = real_snapshot(1_800, 50, &[("resize", 100)], 1_000);
        let real = diagnose_real(&snap).unwrap();
        assert_eq!(real.diagnosis.bottleneck, Bottleneck::Storage, "{real:?}");
        assert!(real.diagnosis.storage_util > 0.8);
    }

    #[test]
    fn real_run_with_a_skewed_step_is_cpu_bound_and_names_the_straggler() {
        let snap = real_snapshot(100, 50, &[("resize", 150), ("augment", 1_500)], 1_000);
        let real = diagnose_real(&snap).unwrap();
        assert_eq!(real.diagnosis.bottleneck, Bottleneck::Cpu, "{real:?}");
        let straggler = real.straggler.unwrap();
        assert_eq!(straggler.step, "augment");
        assert!(straggler.busy_share > 0.5, "{straggler:?}");
    }

    #[test]
    fn idle_real_run_diagnoses_as_none() {
        let snap = real_snapshot(100, 50, &[("resize", 100)], 1_000_000);
        let real = diagnose_real(&snap).unwrap();
        assert_eq!(real.diagnosis.bottleneck, Bottleneck::None, "{real:?}");
    }

    #[test]
    fn delivery_blocked_real_run_is_dispatch_bound() {
        let snap = real_snapshot(100, 1_700, &[("resize", 100)], 1_000);
        let real = diagnose_real(&snap).unwrap();
        assert_eq!(real.diagnosis.bottleneck, Bottleneck::Dispatch, "{real:?}");
    }

    #[test]
    fn empty_real_snapshots_yield_no_diagnosis() {
        let mut snap = real_snapshot(1, 1, &[], 1_000);
        snap.elapsed_ns = 0;
        assert!(diagnose_real(&snap).is_none());
        let mut snap = real_snapshot(1, 1, &[], 1_000);
        snap.steps.clear();
        assert!(diagnose_real(&snap).is_none());
    }

    fn time_point(t_ns: u64, io: f64, cpu: f64, deliver: f64) -> TimePoint {
        TimePoint {
            t_ns,
            interval_ns: 1_000_000,
            epoch_seed: 0,
            samples: 10,
            sps: 100.0,
            queue_depth: 1.0,
            cache_hit_rate: 0.0,
            retries: 0,
            skipped_samples: 0,
            lost_shards: 0,
            dropped_spans: 0,
            steps: Vec::new(),
            io_share: io,
            cpu_share: cpu,
            deliver_share: deliver,
        }
    }

    #[test]
    fn trend_diagnosis_tracks_the_bottleneck_shifting() {
        // Cold cache: storage-bound; cache warms: CPU takes over.
        let window = [
            time_point(1_000, 0.9, 0.2, 0.0),
            time_point(2_000, 0.8, 0.3, 0.0),
            time_point(3_000, 0.2, 0.9, 0.0),
            time_point(4_000, 0.1, 0.9, 0.1),
        ];
        let trend = diagnose_window(&window).unwrap();
        assert_eq!(trend.current, Bottleneck::Cpu);
        assert_eq!(trend.points.len(), 4);
        assert_eq!(
            trend.shifts,
            vec![(3_000, Bottleneck::Storage, Bottleneck::Cpu)]
        );
    }

    #[test]
    fn idle_intervals_diagnose_as_none_and_empty_windows_as_nothing() {
        assert!(diagnose_window(&[]).is_none());
        let trend = diagnose_window(&[time_point(1, 0.1, 0.2, 0.1)]).unwrap();
        assert_eq!(trend.current, Bottleneck::None);
        assert!(trend.shifts.is_empty());
    }

    use presto_pipeline::telemetry::{FleetSnapshot, FleetWorkerEntry, ServeSnapshot};

    /// A serve snapshot with the three client wait-state gauges set
    /// for a 2-worker fleet.
    fn serve_gauges(gap: u64, stream: u64, consume: u64) -> ServeSnapshot {
        ServeSnapshot {
            workers: 2,
            gap_wait_ns: gap,
            stream_read_ns: stream,
            consume_ns: consume,
            ..ServeSnapshot::default()
        }
    }

    /// A fleet snapshot whose two workers spent `produce`/`credit` out
    /// of 1_000 ns each.
    fn fleet_stats(produce: u64, credit: u64) -> FleetSnapshot {
        let worker = |addr: &str| FleetWorkerEntry {
            addr: addr.into(),
            elapsed_ns: 1_000,
            produce_ns: produce,
            credit_wait_ns: credit,
            ..FleetWorkerEntry::default()
        };
        FleetSnapshot {
            active: true,
            trace_id: 7,
            workers: vec![worker("a:1"), worker("b:2")],
            ..FleetSnapshot::default()
        }
    }

    /// Client snapshot with just enough for fleet attribution: 1_000 ns
    /// elapsed (shares are per-connection over elapsed × workers).
    fn fleet_client() -> TelemetrySnapshot {
        real_snapshot(10, 10, &[("serve", 10)], 1_000)
    }

    #[test]
    fn slow_workers_diagnose_as_worker_compute_bound() {
        // Wire idle (gap dominates), workers busy producing.
        let d = diagnose_fleet(
            &fleet_client(),
            &serve_gauges(1_600, 100, 100),
            &fleet_stats(900, 50),
        )
        .unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::WorkerCompute, "{d:?}");
        assert!(d.gap_share > d.stream_share && d.gap_share > d.consume_share);
    }

    #[test]
    fn starved_credits_diagnose_as_credit_bound() {
        // Wire idle, but workers were mostly stalled on credit.
        let d = diagnose_fleet(
            &fleet_client(),
            &serve_gauges(1_600, 100, 100),
            &fleet_stats(200, 700),
        )
        .unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::Credit, "{d:?}");
        assert!(d.credit_share > d.produce_share);
    }

    #[test]
    fn throttled_wire_diagnoses_as_network_bound() {
        // Client mostly mid-frame: bytes trickling in.
        let d = diagnose_fleet(
            &fleet_client(),
            &serve_gauges(200, 1_500, 100),
            &fleet_stats(500, 50),
        )
        .unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::Network, "{d:?}");
    }

    #[test]
    fn slow_consume_callback_diagnoses_as_consumer_bound() {
        let d = diagnose_fleet(
            &fleet_client(),
            &serve_gauges(200, 100, 1_500),
            &fleet_stats(500, 50),
        )
        .unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::Consumer, "{d:?}");
    }

    #[test]
    fn balanced_fleets_diagnose_as_none_and_empty_epochs_as_nothing() {
        // All wait shares under the 15% idle threshold.
        let d = diagnose_fleet(
            &fleet_client(),
            &serve_gauges(100, 100, 100),
            &fleet_stats(900, 50),
        )
        .unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::None, "{d:?}");

        let mut client = fleet_client();
        client.elapsed_ns = 0;
        assert!(diagnose_fleet(&client, &serve_gauges(0, 0, 0), &fleet_stats(0, 0)).is_none());
    }

    #[test]
    fn missing_worker_stats_fall_back_to_worker_compute() {
        // No STATS frame arrived (tracing off, or a worker that died
        // after its last EOF): fleet entries have zero elapsed. An idle
        // wire still blames worker compute (we cannot see credit stalls
        // without remote stats).
        let fleet = FleetSnapshot {
            active: true,
            ..FleetSnapshot::default()
        };
        let d = diagnose_fleet(&fleet_client(), &serve_gauges(1_600, 100, 100), &fleet).unwrap();
        assert_eq!(d.bottleneck, FleetBottleneck::WorkerCompute, "{d:?}");
        assert_eq!(d.credit_share, 0.0);
        assert_eq!(d.produce_share, 0.0);
    }

    #[test]
    fn failed_profiles_yield_no_diagnosis() {
        let pipeline = Pipeline::new("x").push_spec(StepSpec::native(
            "s",
            CostModel::FREE,
            SizeModel::IDENTITY,
        ));
        let presto = Presto::new(pipeline, dataset(1_000.0, 10), env());
        let mut profile = presto.profile_strategy(&Strategy::at_split(1), 1);
        profile.epochs.clear();
        assert!(diagnose(&profile, &env()).is_none());
    }
}
