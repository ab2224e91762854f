//! One populated value of every document struct. `fixtures/` holds
//! what the last hand-written writers (the commit before the document
//! model) printed for exactly these values, so this file must not
//! change without regenerating those from that commit.

use presto_telemetry::alloc::{AllocProfile, AllocStepReport};
use presto_telemetry::causal::{
    CausalCalibration, CausalExperiment, CausalKnob, CausalProfile, CausalRank, CausalVerdicts,
    MeasuredPoint,
};
use presto_telemetry::tenants::TenantState;
use presto_telemetry::timeseries::{StepActivity, TimePoint};
use presto_telemetry::{
    DataPlaneSnapshot, Fleet, PhaseKind, QueueSnapshot, RemoteWorker, SearchSnapshot,
    ServeSnapshot, SpanEvent, StepSnapshot, TelemetrySnapshot, TenantEntry, TenantsSnapshot,
    WorkerSnapshot,
};

fn step(name: &str, kind: PhaseKind, count: u64, busy_ns: u64) -> StepSnapshot {
    StepSnapshot {
        name: name.to_string(),
        kind,
        count,
        busy_ns,
        p50_ns: busy_ns / count.max(1),
        p95_ns: 2 * busy_ns / count.max(1),
        p99_ns: 3 * busy_ns / count.max(1),
        max_ns: 4 * busy_ns / count.max(1),
    }
}

fn span(worker: u32, phase: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
    SpanEvent {
        worker,
        phase,
        start_ns,
        dur_ns,
    }
}

/// A sealed two-worker epoch; the client side of the fleet document.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        elapsed_ns: 48_000_000,
        epoch_seed: 41,
        threads: 2,
        samples: 96,
        bytes_read: 4_718_592,
        bytes_decoded: 9_437_184,
        cache_hits: 32,
        cache_misses: 64,
        retries: 3,
        skipped_samples: 1,
        lost_shards: 0,
        degraded: true,
        steps: vec![
            step("read", PhaseKind::Io, 12, 1_200_000),
            step("decompress", PhaseKind::Cpu, 12, 2_400_000),
            step("decode", PhaseKind::Cpu, 96, 9_600_000),
            step("queue-wait", PhaseKind::Deliver, 0, 0),
            step("hand-off", PhaseKind::Deliver, 12, 360_000),
            step("resize \"odd\"\\8x8", PhaseKind::Step, 96, 19_200_000),
        ],
        workers: vec![
            WorkerSnapshot {
                worker: 0,
                busy_ns: 16_000_000,
                deliver_ns: 180_000,
                idle_ns: 32_000_000,
                samples: 48,
                bytes_read: 2_359_296,
                retries: 3,
            },
            WorkerSnapshot {
                worker: 1,
                busy_ns: 16_760_000,
                deliver_ns: 180_000,
                idle_ns: 31_240_000,
                samples: 48,
                bytes_read: 2_359_296,
                retries: 0,
            },
        ],
        queue: QueueSnapshot {
            capacity: 16,
            observations: 12,
            max_depth: 5,
            mean_depth: 2.125,
        },
        data_plane: DataPlaneSnapshot {
            bundles: 12,
            pool_hits: 20,
            pool_misses: 4,
        },
        spans: vec![
            span(0, 0, 1_000, 100_000),
            span(1, 0, 1_500, 100_000),
            span(0, 5, 200_000, 0),
        ],
        dropped_spans: 7,
    }
}

pub fn points() -> Vec<TimePoint> {
    (0..3u64)
        .map(|i| TimePoint {
            t_ns: 200_000_000 * (i + 1),
            interval_ns: 200_000_000,
            epoch_seed: 41,
            samples: 32 * (i + 1),
            sps: 160.0 + i as f64 * 0.125,
            queue_depth: 2.5,
            cache_hit_rate: 0.3125,
            retries: i,
            skipped_samples: i / 2,
            lost_shards: 0,
            dropped_spans: 7 * i,
            steps: vec![
                StepActivity {
                    name: "read".to_string(),
                    kind: PhaseKind::Io,
                    invocations: 4,
                    busy_share: 0.0625,
                },
                StepActivity {
                    name: "resize \"odd\"".to_string(),
                    kind: PhaseKind::Step,
                    invocations: 32,
                    busy_share: 0.5,
                },
            ],
            io_share: 0.0625,
            cpu_share: 0.5,
            deliver_share: 0.0,
        })
        .collect()
}

pub fn serve() -> ServeSnapshot {
    ServeSnapshot {
        workers: 2,
        batches_sent: 24,
        bytes_sent: 4_800_000,
        credit_stalls: 3,
        credit_wait_ns: 70_000,
        credit_wakes: 4,
        reassignments: 1,
        preemptions: 1,
        reconnect_attempts: 2,
        rejoins: 1,
        gap_wait_ns: 9_000_000,
        stream_read_ns: 6_000_000,
        consume_ns: 2_000_000,
        produce_ns: 30_000_000,
        done: true,
    }
}

pub fn fleet() -> Fleet {
    // The fleet document carries a remote step's name, kind and busy time.
    let total = |name: &str, kind, busy_ns| StepSnapshot {
        busy_ns,
        ..step(name, kind, 0, 0)
    };
    let worker = |addr: &str, conn: u32, clock_offset_ns: i64| RemoteWorker {
        addr: addr.to_string(),
        conn,
        peer_version: 2,
        clock_offset_ns,
        rtt_ns: 5_000 + u64::from(conn),
        assign_start_mono_ns: 1_000_000,
        epoch: TelemetrySnapshot {
            elapsed_ns: 900_000,
            samples: 48,
            dropped_spans: u64::from(conn) * 17,
            steps: vec![
                total("read", PhaseKind::Io, 100),
                total("decompress", PhaseKind::Cpu, 200),
            ],
            spans: vec![span(0, 0, 10_000, 40_000), span(0, 1, 60_000, 0)],
            ..TelemetrySnapshot::default()
        },
        serve: ServeSnapshot {
            batches_sent: 12,
            produce_ns: 700_000,
            credit_wait_ns: 50_000,
            ..ServeSnapshot::default()
        },
    };
    Fleet {
        trace_id: 0xDEAD_BEEF_F1EE_7001,
        epoch_start_mono_ns: 123_456_789,
        workers: vec![
            worker("127.0.0.1:9000", 0, -1_234),
            worker("worker-\"b\":9001", 1, 250_000),
        ],
    }
}

pub fn tenants() -> TenantsSnapshot {
    let tenant = |name: &str, weight: u32, state, samples: u64, window_samples: u64| TenantEntry {
        name: name.to_string(),
        weight,
        state,
        shards_total: 8,
        shards_done: samples / 16,
        requeues: u64::from(weight) - 1,
        samples,
        batches: samples / 4,
        bytes: samples * 1_000,
        in_window: window_samples > 0,
        window_samples,
        elapsed_ns: 40_000_000 + samples,
    };
    TenantsSnapshot {
        max_jobs: 4,
        shard_quota: 64,
        rejected: 2,
        window_open: true,
        window_closed: true,
        tenants: vec![
            tenant("alpha", 1, TenantState::Done, 128, 10),
            tenant("beta \"b\"", 2, TenantState::Failed, 64, 20),
            tenant("gamma", 4, TenantState::Serving, 48, 40),
            tenant("late", 1, TenantState::Serving, 0, 0),
        ],
    }
}

pub fn causal() -> CausalProfile {
    let experiment = |step: &str, kind: &str, speedup_pct: u32, mean_gain: f64| CausalExperiment {
        step: step.to_string(),
        kind: kind.to_string(),
        speedup_pct,
        mean_gain,
        stddev: 0.0125,
        trials: 3,
    };
    CausalProfile {
        source: "file:tests/fixtures/realrun-epoch.json".into(),
        seed: 42,
        trials: 3,
        threads: 4,
        queue_capacity: 16,
        samples: 64,
        observed_sps: 4384.5,
        baseline_sps: 4400.0,
        calibration: CausalCalibration {
            consumer_ns_per_sample: 180_000.5,
            queue_wait_target_ns: 7_566_493,
            queue_wait_sim_ns: 7_500_000.0,
            sps_error: 0.0036,
        },
        experiments: vec![
            experiment("random-crop", "step", 50, 0.95),
            experiment("random-crop", "step", 75, 1.5),
            experiment("decode", "cpu", 10, 0.0025),
        ],
        ranking: vec![
            CausalRank {
                step: "random-crop".into(),
                kind: "step".into(),
                score: 0.95,
            },
            CausalRank {
                step: "decode".into(),
                kind: "cpu".into(),
                score: 0.0025,
            },
        ],
        knobs: vec![CausalKnob {
            knob: "threads".into(),
            value: 8,
            predicted_sps: 8600.125,
            predicted_gain: 0.9617,
        }],
        measured: vec![MeasuredPoint {
            step: "random-crop".into(),
            speedup_pct: 50,
            baseline_sps: 4384.0,
            experiment_sps: 4300.0,
            virtual_sps: 8600.0,
            measured_gain: 0.9617,
        }],
        verdicts: CausalVerdicts {
            causal_top: "random-crop".into(),
            causal_kind: "step".into(),
            observed: "cpu".into(),
            simulated: "deliver".into(),
            agree: false,
            disagreements: vec![
                "observed cpu vs simulated deliver".into(),
                "a \"quoted\" one".into(),
            ],
        },
        alloc: AllocProfile {
            steps: vec![
                AllocStepReport {
                    name: "decode".into(),
                    bytes: 1024,
                    allocations: 4,
                    peak_live: 512,
                },
                AllocStepReport {
                    name: "random-crop".into(),
                    bytes: 0,
                    allocations: 0,
                    peak_live: 0,
                },
            ],
            buffer_allocs: 64,
            buffer_reuses: 8,
        },
    }
}

pub fn search() -> SearchSnapshot {
    SearchSnapshot {
        total: 90,
        completed: 60,
        pruned: 12,
        memo_hits: 50,
        memo_misses: 10,
        jobs: 4,
        done: true,
    }
}
