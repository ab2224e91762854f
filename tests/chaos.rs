//! Seed-matrixed chaos suite: the deterministic chaos proxy
//! ([`presto_pipeline::chaos`]) sits between a serve client and real
//! workers while faults — latency spikes, mid-frame disconnects, byte
//! corruption, partitions, and full preemption storms — are injected
//! from a replayable seed. The invariant under test is always the
//! same: the epoch either completes with a multiset checksum equal to
//! the single-process baseline, or degrades exactly as the fault
//! policy (and, for storms, the fleet simulator) predicts. Wrong data
//! is never an outcome.

use presto::fleet::{simulate, FleetConfig, FleetPolicy, FleetVerdict};
use presto_datasets::generators;
use presto_datasets::steps;
use presto_formats::image::jpg;
use presto_pipeline::chaos::{ChaosFault, ChaosProxy, ChaosStats};
use presto_pipeline::real::{Materialized, MemStore, RealExecutor, RetryPolicy};
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeReport, ServeWorker, ServeWorkerConfig,
};
use presto_pipeline::{FaultPolicy, Pipeline, Resilience, Sample, Strategy};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Chaos seeds under test; CI sweeps one at a time via `FAULT_SEED`.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![1, 2, 3, 4, 5],
    }
}

/// Seeds for the tests that assert "some seed injected the fault": a
/// 4–8 % per-window draw over one epoch's few dozen windows can come
/// up empty for a single seed (`FAULT_SEED=2` never disconnects), so a
/// pinned seed stands for a family of five derived from it and the
/// aggregate is taken over the family. Checksum parity is still
/// asserted on every member.
fn chaos_seed_family() -> Vec<u64> {
    match chaos_seeds()[..] {
        [seed] => (0..5).map(|member| seed + 1_000 * member).collect(),
        _ => chaos_seeds(),
    }
}

/// The CV pipeline with its random crop kept online (sample bytes
/// depend on per-shard step RNG), materialized small enough that a
/// whole chaos matrix stays fast. The 32×32 resize keeps each shard a
/// handful of 4 KiB chaos windows on the wire, so per-window fault
/// probabilities translate into survivable — not certain — cuts
/// between consecutive shard commits.
fn cv_workload(samples: u64, shards: usize) -> (Pipeline, Materialized, Arc<MemStore>) {
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

/// Single-process reference epoch: the multiset every chaotic epoch
/// must reproduce whenever it completes.
fn reference_checksum(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &MemStore,
    epoch_seed: u64,
) -> MultisetChecksum {
    let checksum = Mutex::new(MultisetChecksum::default());
    let exec = RealExecutor::new(3);
    exec.epoch(pipeline, dataset, store, None, epoch_seed, |sample| {
        checksum.lock().unwrap().add(sample)
    })
    .unwrap();
    checksum.into_inner().unwrap()
}

/// Run one epoch through chaos proxies: two workers, each fronted by
/// a proxy injecting `faults` deterministically from `seed`, consumed
/// by a client with the given reconnect budget and read timeout.
/// Returns the report, the delivered checksum, and per-proxy stats.
fn chaotic_epoch(
    seed: u64,
    faults: Vec<ChaosFault>,
    reconnect_attempts: u32,
    read_timeout: Duration,
) -> (ServeReport, MultisetChecksum, Vec<ChaosStats>) {
    let (pipeline, dataset, store) = cv_workload(24, 8);
    let workers: Vec<ServeWorker> = (0..2)
        .map(|_| {
            ServeWorker::spawn(
                "127.0.0.1:0",
                &pipeline,
                &dataset,
                Arc::clone(&store) as Arc<dyn presto_pipeline::real::BlobStore>,
                Resilience::default(),
                None,
                ServeWorkerConfig {
                    batch_samples: 2,
                    ..ServeWorkerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    // One proxy per worker; decision streams differ per proxy via the
    // mixed-in index, all still derived from the single test seed.
    let proxies: Vec<ChaosProxy> = workers
        .iter()
        .enumerate()
        .map(|(i, worker)| {
            ChaosProxy::start(
                &worker.addr().to_string(),
                seed ^ ((i as u64 + 1) << 32),
                faults.clone(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let config = ServeClientConfig {
        credits: 4,
        policy: FaultPolicy::FailFast,
        read_timeout,
        connect_timeout: Duration::from_millis(1_000),
        reconnect: RetryPolicy {
            max_attempts: reconnect_attempts,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
            jitter: true,
            deadline: None,
        },
        ..ServeClientConfig::default()
    };
    let checksum = Mutex::new(MultisetChecksum::default());
    let report = serve_epoch(&addrs, &dataset.shards, seed, &config, None, |sample| {
        checksum.lock().unwrap().add(sample)
    })
    .unwrap_or_else(|e| panic!("seed {seed}: chaotic epoch failed: {e}"));
    let stats = proxies.iter().map(|p| p.injected()).collect();
    let reference = reference_checksum(&pipeline, &dataset, &store, seed);
    let delivered = checksum.into_inner().unwrap();
    assert_eq!(
        delivered, reference,
        "seed {seed}: chaotic epoch delivered a different multiset"
    );
    (report, delivered, stats)
}

#[test]
fn latency_spikes_never_change_the_multiset() {
    for seed in chaos_seeds() {
        let (report, _, stats) = chaotic_epoch(
            seed,
            vec![ChaosFault::Delay {
                probability: 0.3,
                hold: Duration::from_millis(15),
            }],
            2,
            Duration::from_secs(5),
        );
        assert!(!report.degraded, "seed {seed}: delay must not degrade");
        assert!(
            stats.iter().map(|s| s.delays).sum::<u64>() > 0,
            "seed {seed}: no delay actually injected"
        );
    }
}

#[test]
fn mid_frame_disconnects_fail_over_and_complete() {
    let mut total_disconnects = 0u64;
    let mut total_preemptions = 0u64;
    for seed in chaos_seed_family() {
        let (report, _, stats) = chaotic_epoch(
            seed,
            vec![ChaosFault::Disconnect { probability: 0.04 }],
            8,
            Duration::from_secs(5),
        );
        total_disconnects += stats.iter().map(|s| s.disconnects).sum::<u64>();
        total_preemptions += report.preemptions;
        assert_eq!(report.lost_shards, 0, "seed {seed}");
    }
    assert!(
        total_disconnects > 0,
        "no seed produced a mid-frame disconnect"
    );
    assert!(
        total_preemptions > 0,
        "disconnects never surfaced as client-side preemptions"
    );
}

#[test]
fn corruption_is_detected_and_retried_never_delivered() {
    let mut total_corruptions = 0u64;
    for seed in chaos_seed_family() {
        // Checksum parity inside chaotic_epoch is the real assertion:
        // a flipped byte must become a CRC failure and a retry, never
        // a silently different sample.
        let (_, _, stats) = chaotic_epoch(
            seed,
            vec![ChaosFault::Corrupt { probability: 0.08 }],
            8,
            Duration::from_secs(5),
        );
        total_corruptions += stats.iter().map(|s| s.corruptions).sum::<u64>();
    }
    assert!(total_corruptions > 0, "no seed corrupted a byte");
}

#[test]
fn partitions_stall_then_fail_over() {
    let mut total_partitions = 0u64;
    for seed in chaos_seed_family() {
        let (_, _, stats) = chaotic_epoch(
            seed,
            vec![ChaosFault::Partition {
                probability: 0.05,
                hold: Duration::from_millis(700),
            }],
            8,
            // Shorter than the partition hold: a partitioned window
            // must surface as a read timeout and a failover.
            Duration::from_millis(200),
        );
        total_partitions += stats.iter().map(|s| s.partitions).sum::<u64>();
    }
    assert!(total_partitions > 0, "no seed partitioned a window");
}

/// Live preemption-storm drill, the in-test twin of `train-client
/// --preempt-storm`: simulate the storm, replay its kill schedule
/// against real workers on a scaled clock, and return predicted vs
/// measured outcomes plus the checksums.
struct StormResult {
    predicted: FleetVerdict,
    measured: FleetVerdict,
    kills: u64,
    report: ServeReport,
    delivered: MultisetChecksum,
    baseline: MultisetChecksum,
}

fn live_storm(seed: u64, policy: FleetPolicy) -> StormResult {
    const MS_PER_HOUR: u64 = 1_200;
    let mut config = FleetConfig::storm(3);
    config.reconnect_budget = 3;
    let outcome = simulate(&config, policy, seed);

    let (pipeline, dataset, store) = cv_workload(24, 8);
    let baseline = reference_checksum(&pipeline, &dataset, &store, seed);
    let epoch_ms = (config.epoch_hours * MS_PER_HOUR as f64) as u64;
    let total_batches = 24 / 2 + dataset.shards.len() as u64;
    let pace_ms = (epoch_ms * u64::from(config.workers) / total_batches).clamp(1, 1_000);
    let worker_config = ServeWorkerConfig {
        batch_samples: 2,
        batch_pace: Duration::from_millis(pace_ms),
        ..ServeWorkerConfig::default()
    };
    let spawn = |bind: &str| {
        ServeWorker::spawn(
            bind,
            &pipeline,
            &dataset,
            Arc::clone(&store) as Arc<dyn presto_pipeline::real::BlobStore>,
            Resilience::default(),
            None,
            worker_config.clone(),
        )
    };
    let mut initial: Vec<Option<ServeWorker>> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for _ in 0..config.workers {
        let worker = spawn("127.0.0.1:0").unwrap();
        addrs.push(worker.addr().to_string());
        initial.push(Some(worker));
    }

    // Kill/respawn schedule scaled from simulated hours to millis.
    let mut schedule: Vec<(u64, usize, bool)> = Vec::new();
    for kill in &outcome.kill_log {
        let at = (kill.at_hours * MS_PER_HOUR as f64) as u64;
        schedule.push((at, kill.worker as usize, true));
        if !kill.permanent {
            let back = ((kill.at_hours + config.rejoin_hours) * MS_PER_HOUR as f64) as u64;
            schedule.push((back, kill.worker as usize, false));
        }
    }
    schedule.sort_by_key(|(at, _, _)| *at);

    let fleet = Arc::new(Mutex::new(initial));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm = {
        use std::sync::atomic::Ordering;
        let fleet = Arc::clone(&fleet);
        let done = Arc::clone(&done);
        let addrs = addrs.clone();
        let pipeline = pipeline.clone();
        let dataset = dataset.clone();
        let store = Arc::clone(&store);
        let worker_config = worker_config.clone();
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let mut kills = 0u64;
            for (at_ms, w, is_kill) in schedule {
                loop {
                    if done.load(Ordering::Acquire) {
                        return kills;
                    }
                    let elapsed = started.elapsed().as_millis() as u64;
                    if elapsed >= at_ms {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis((at_ms - elapsed).min(20)));
                }
                if is_kill {
                    if let Some(worker) = fleet.lock().unwrap()[w].take() {
                        worker.stop();
                        kills += 1;
                    }
                } else {
                    for _ in 0..40 {
                        match ServeWorker::spawn(
                            &addrs[w],
                            &pipeline,
                            &dataset,
                            Arc::clone(&store) as Arc<dyn presto_pipeline::real::BlobStore>,
                            Resilience::default(),
                            None,
                            worker_config.clone(),
                        ) {
                            Ok(worker) => {
                                fleet.lock().unwrap()[w] = Some(worker);
                                break;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(25)),
                        }
                    }
                }
            }
            kills
        })
    };

    let client_config = ServeClientConfig {
        credits: 4,
        policy: match policy {
            FleetPolicy::GreedySpot => FaultPolicy::Degrade {
                max_skipped_samples: 0,
                max_lost_shards: dataset.shards.len() as u64,
            },
            _ => FaultPolicy::FailFast,
        },
        read_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_millis(1_000),
        reconnect: RetryPolicy {
            max_attempts: config.reconnect_budget,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(2),
            jitter: true,
            deadline: None,
        },
        ..ServeClientConfig::default()
    };
    let checksum = Mutex::new(MultisetChecksum::default());
    let report = serve_epoch(
        &addrs,
        &dataset.shards,
        seed,
        &client_config,
        None,
        |sample| checksum.lock().unwrap().add(sample),
    )
    .unwrap_or_else(|e| panic!("seed {seed} {}: stormed epoch failed: {e}", policy.name()));
    done.store(true, std::sync::atomic::Ordering::Release);
    let kills = storm.join().unwrap();
    for worker in fleet.lock().unwrap().drain(..).flatten() {
        worker.stop();
    }
    StormResult {
        predicted: outcome.verdict,
        measured: if report.degraded {
            FleetVerdict::Degraded
        } else {
            FleetVerdict::Completed
        },
        kills,
        report,
        delivered: checksum.into_inner().unwrap(),
        baseline,
    }
}

#[test]
fn preempt_storm_fallback_completes_with_checksum_parity() {
    for seed in chaos_seeds() {
        let result = live_storm(seed, FleetPolicy::OnDemandFallback { fallback_after: 2 });
        assert_eq!(
            result.predicted,
            FleetVerdict::Completed,
            "seed {seed}: promotion below the budget must predict survival"
        );
        assert_eq!(
            result.measured,
            FleetVerdict::Completed,
            "seed {seed}: live fallback epoch degraded"
        );
        assert_eq!(
            result.delivered, result.baseline,
            "seed {seed}: stormed epoch delivered a different multiset"
        );
        assert_eq!(result.report.lost_shards, 0, "seed {seed}");
    }
}

#[test]
fn preempt_storm_survives_three_kills_with_rejoins() {
    // The canonical drill: a storm with at least three worker kills,
    // every one rejoining, and a byte-identical epoch at the end.
    let result = live_storm(1, FleetPolicy::OnDemandFallback { fallback_after: 2 });
    assert!(
        result.kills >= 3,
        "seed 1 storm only produced {} kills",
        result.kills
    );
    assert!(
        result.report.rejoins > 0,
        "no worker was re-admitted mid-epoch"
    );
    assert_eq!(result.delivered, result.baseline);
}

#[test]
fn preempt_storm_greedy_degrades_exactly_as_predicted() {
    // Seed 1 on the 3-worker storm market writes off the whole fleet
    // under greedy-spot (see the fleet simulator's unit tests); the
    // live run must reach the same verdict through real sockets.
    let result = live_storm(1, FleetPolicy::GreedySpot);
    assert_eq!(result.predicted, FleetVerdict::Degraded);
    assert_eq!(
        result.measured,
        FleetVerdict::Degraded,
        "live greedy-spot run did not degrade as the simulator predicted"
    );
    assert!(result.report.lost_shards > 0);
    assert!(result.kills >= 3);
}

#[test]
fn greedy_completes_on_calm_seeds_and_matches_baseline() {
    // Seed 9 is calm enough that even greedy-spot survives: verdict
    // agreement has to hold in the completing direction too.
    let result = live_storm(9, FleetPolicy::GreedySpot);
    assert_eq!(result.predicted, FleetVerdict::Completed);
    assert_eq!(result.measured, FleetVerdict::Completed);
    assert_eq!(result.delivered, result.baseline);
}
