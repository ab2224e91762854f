//! Integration tests of fleet tracing end to end: the clock-offset
//! handshake, the `presto.fleet.v1` bundle, the merged Chrome trace,
//! and — the acceptance bar — [`presto::diagnose_fleet`] naming the
//! injected bottleneck on four seed-matrixed scenarios (paced workers,
//! a throttled wire, starved credits, a slow consumer).

use presto::{diagnose_fleet, FleetBottleneck};
use presto_integration_tests::{cv_workload, fault_seeds, reference_checksum, FAULT_SEEDS};
use presto_pipeline::chaos::{ChaosFault, ChaosProxy};
use presto_pipeline::real::{Materialized, MemStore};
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeWorker, ServeWorkerConfig,
};
use presto_pipeline::telemetry::doc;
use presto_pipeline::telemetry::export::validate_chrome_trace;
use presto_pipeline::telemetry::fleet::{fleet_json, merge_chrome_trace, FleetDocument};
use presto_pipeline::{
    Fleet, Pipeline, Resilience, Sample, Snapshot, Telemetry, TelemetrySnapshot,
};
use std::sync::Arc;
use std::time::Duration;

/// Everything one traced serve epoch leaves behind.
struct FleetRun {
    checksum: MultisetChecksum,
    /// The client's telemetry tree.
    tree: Snapshot,
    /// `presto.chaos.v1` event log, when the run went through proxies.
    chaos_doc: Option<String>,
}

impl FleetRun {
    fn client(&self) -> &TelemetrySnapshot {
        self.tree
            .epoch
            .as_ref()
            .expect("serve_epoch records an epoch")
    }

    fn fleet(&self) -> &Fleet {
        let fleet = self.tree.fleet.as_ref();
        fleet.expect("tracing must populate the fleet registry")
    }
}

/// Run one traced epoch: `worker_count` workers (each with its own
/// telemetry so STATS carry a remote span timeline), optionally each
/// behind its own chaos proxy, a consume callback that sleeps
/// `consume_pause` per sample, and the default tracing client config
/// unless overridden.
#[allow(clippy::too_many_arguments)]
fn run_fleet(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &Arc<MemStore>,
    worker_count: usize,
    worker_config: &ServeWorkerConfig,
    client_config: &ServeClientConfig,
    epoch_seed: u64,
    faults: Option<(u64, Vec<ChaosFault>)>,
    consume_pause: Duration,
) -> FleetRun {
    let workers: Vec<ServeWorker> = (0..worker_count)
        .map(|_| {
            ServeWorker::spawn(
                "127.0.0.1:0",
                pipeline,
                dataset,
                store.clone() as Arc<dyn presto_pipeline::BlobStore>,
                Resilience::default(),
                Some(Telemetry::new()),
                worker_config.clone(),
            )
            .expect("spawn worker")
        })
        .collect();
    let proxies: Vec<ChaosProxy> = match &faults {
        Some((seed, plan)) => workers
            .iter()
            .map(|w| {
                ChaosProxy::start(&w.addr().to_string(), *seed, plan.clone())
                    .expect("start chaos proxy")
            })
            .collect(),
        None => Vec::new(),
    };
    let addrs: Vec<String> = if proxies.is_empty() {
        workers.iter().map(|w| w.addr().to_string()).collect()
    } else {
        proxies.iter().map(|p| p.addr().to_string()).collect()
    };
    let telemetry = Telemetry::new();
    let checksum = Arc::new(std::sync::Mutex::new(MultisetChecksum::default()));
    let sink = Arc::clone(&checksum);
    let report = serve_epoch(
        &addrs,
        &dataset.shards,
        epoch_seed,
        client_config,
        Some(&telemetry),
        move |sample: &Sample| {
            if !consume_pause.is_zero() {
                std::thread::sleep(consume_pause);
            }
            sink.lock().unwrap().add(sample)
        },
    )
    .expect("traced epoch completes");
    assert_eq!(report.samples, dataset.sample_count);
    let chaos_doc = (!proxies.is_empty()).then(|| proxies[0].events_json());
    for proxy in proxies {
        proxy.stop();
    }
    for worker in workers {
        worker.stop();
    }
    FleetRun {
        checksum: report.checksum,
        tree: telemetry.snapshot(),
        chaos_doc,
    }
}

fn diagnose(run: &FleetRun) -> presto::FleetDiagnosis {
    assert!(
        run.tree.fleet.is_some(),
        "tracing must populate the fleet registry"
    );
    diagnose_fleet(&run.tree).expect("non-empty epoch")
}

#[test]
fn paced_workers_diagnose_as_worker_compute_bound() {
    let (pipeline, dataset, store) = cv_workload((64, 56), 32, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let epoch_seed = 7_000 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        let run = run_fleet(
            &pipeline,
            &dataset,
            &store,
            2,
            &ServeWorkerConfig {
                batch_pace: Duration::from_millis(10),
                ..ServeWorkerConfig::default()
            },
            &ServeClientConfig::default(),
            epoch_seed,
            None,
            Duration::ZERO,
        );
        assert_eq!(run.checksum, reference, "seed {seed}");
        let diag = diagnose(&run);
        assert_eq!(
            diag.bottleneck,
            FleetBottleneck::WorkerCompute,
            "seed {seed}: {diag:?}"
        );
        // The tie-breaker must have seen the pacing as produce time,
        // not credit stall.
        assert!(
            diag.produce_share > diag.credit_share,
            "seed {seed}: {diag:?}"
        );
    }
}

#[test]
fn throttled_wire_diagnoses_as_network_bound() {
    let (pipeline, dataset, store) = cv_workload((64, 56), 32, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let epoch_seed = 7_100 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        // ~9.4 KiB per sample, 4-sample batches: every BATCH spans
        // many 4 KiB chaos windows, each throttled to ~500 KB/s, so
        // the client's wait time lands in `stream` (wire busy), not
        // `gap`.
        let run = run_fleet(
            &pipeline,
            &dataset,
            &store,
            2,
            &ServeWorkerConfig::default(),
            &ServeClientConfig::default(),
            epoch_seed,
            Some((
                seed,
                vec![ChaosFault::Throttle {
                    bytes_per_sec: 500_000,
                }],
            )),
            Duration::ZERO,
        );
        assert_eq!(run.checksum, reference, "seed {seed}");
        let diag = diagnose(&run);
        assert_eq!(
            diag.bottleneck,
            FleetBottleneck::Network,
            "seed {seed}: {diag:?}"
        );
    }
}

#[test]
fn starved_credits_diagnose_as_credit_bound() {
    // Tiny tensors (16x16x3 < one 4 KiB chaos window) keep each BATCH
    // in a single window, and the online phase is nearly free — so
    // with one credit and 2 ms of injected per-window latency, every
    // batch costs a full credit round trip: the worker stalls on the
    // gate (credit_wait >> produce) while the client sees an idle
    // wire (gap >> stream).
    let (pipeline, dataset, store) = cv_workload((24, 16), 24, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let epoch_seed = 7_200 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        let run = run_fleet(
            &pipeline,
            &dataset,
            &store,
            2,
            &ServeWorkerConfig {
                batch_samples: 1,
                ..ServeWorkerConfig::default()
            },
            &ServeClientConfig {
                credits: 1,
                ..ServeClientConfig::default()
            },
            epoch_seed,
            Some((
                seed,
                vec![ChaosFault::Delay {
                    probability: 1.0,
                    hold: Duration::from_millis(2),
                }],
            )),
            Duration::ZERO,
        );
        assert_eq!(run.checksum, reference, "seed {seed}");
        let diag = diagnose(&run);
        assert_eq!(
            diag.bottleneck,
            FleetBottleneck::Credit,
            "seed {seed}: {diag:?}"
        );
    }
}

#[test]
fn slow_consumer_diagnoses_as_consumer_bound() {
    let (pipeline, dataset, store) = cv_workload((64, 56), 32, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let epoch_seed = 7_300 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        let run = run_fleet(
            &pipeline,
            &dataset,
            &store,
            2,
            &ServeWorkerConfig::default(),
            &ServeClientConfig::default(),
            epoch_seed,
            None,
            Duration::from_millis(3),
        );
        assert_eq!(run.checksum, reference, "seed {seed}");
        let diag = diagnose(&run);
        assert_eq!(
            diag.bottleneck,
            FleetBottleneck::Consumer,
            "seed {seed}: {diag:?}"
        );
    }
}

#[test]
fn merged_chrome_trace_nests_offset_corrected_worker_spans() {
    let (pipeline, dataset, store) = cv_workload((64, 56), 24, 6);
    let run = run_fleet(
        &pipeline,
        &dataset,
        &store,
        2,
        &ServeWorkerConfig::default(),
        &ServeClientConfig::default(),
        42,
        None,
        Duration::ZERO,
    );
    // Every worker entry's assignment start, corrected onto the
    // client clock via the handshake offset, must land inside the
    // client's epoch (with slack for connect/handshake jitter) — the
    // invariant that makes the merged trace nest without clamping
    // doing all the work.
    let slack = 250_000_000i128; // 250ms
    for w in &run.fleet().workers {
        assert_eq!(w.peer_version, 2);
        assert!(!w.epoch.spans.is_empty(), "worker {} sent spans", w.addr);
        let corrected = w.assign_start_mono_ns as i128
            - w.clock_offset_ns as i128
            - run.fleet().epoch_start_mono_ns as i128;
        assert!(
            corrected >= -slack && corrected <= run.client().elapsed_ns as i128 + slack,
            "worker {}: corrected assign start {corrected}ns outside epoch of {}ns",
            w.addr,
            run.client().elapsed_ns
        );
    }

    let doc = fleet_json(&run.tree);
    let parsed: FleetDocument = doc::read(&doc).expect("fleet doc round-trips");
    assert_eq!(parsed.trace_id, run.fleet().trace_id);
    assert_eq!(parsed.workers, run.fleet().workers);

    let merged = merge_chrome_trace(&doc, None).expect("merge");
    let events = validate_chrome_trace(&merged).expect("valid Chrome trace");
    assert!(events > 0);
    // One track per process: the client plus both workers by address.
    assert!(merged.contains("train-client"), "client track");
    for w in &run.fleet().workers {
        assert!(
            merged.contains(&format!("serve-worker {}", w.addr)),
            "worker track for {}",
            w.addr
        );
    }
    // Deterministic: merging the same document twice is byte-identical.
    assert_eq!(merged, merge_chrome_trace(&doc, None).expect("re-merge"));
}

#[test]
fn chaos_events_ride_along_on_their_own_track() {
    let (pipeline, dataset, store) = cv_workload((24, 16), 12, 4);
    let run = run_fleet(
        &pipeline,
        &dataset,
        &store,
        1,
        &ServeWorkerConfig::default(),
        &ServeClientConfig::default(),
        42,
        Some((
            1,
            vec![ChaosFault::Delay {
                probability: 1.0,
                hold: Duration::from_millis(1),
            }],
        )),
        Duration::ZERO,
    );
    let chaos = run.chaos_doc.as_deref().expect("proxied run logs events");
    let doc = fleet_json(&run.tree);
    let merged = merge_chrome_trace(&doc, Some(chaos)).expect("merge with chaos");
    validate_chrome_trace(&merged).expect("valid Chrome trace");
    assert!(merged.contains("chaos-proxy"), "chaos track present");
    assert!(merged.contains("\"delay\""), "delay events present");
}
