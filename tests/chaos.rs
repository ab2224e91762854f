//! Seed-matrixed chaos suite: the deterministic chaos proxy
//! ([`presto_pipeline::chaos`]) sits between a serve client and real
//! workers while faults — latency spikes, mid-frame disconnects, byte
//! corruption and partitions — are injected from a replayable seed.
//! The invariant under test is always the same: the epoch either
//! completes with a multiset checksum equal to the single-process
//! baseline, or degrades exactly as the fault policy allows. Wrong
//! data is never an outcome.

use presto_integration_tests::{cv_workload, fault_seeds, reference_checksum};
use presto_pipeline::chaos::{ChaosFault, ChaosProxy, ChaosStats};
use presto_pipeline::real::RetryPolicy;
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeReport, ServeWorker, ServeWorkerConfig,
};
use presto_pipeline::{FaultPolicy, Resilience};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Chaos seeds under test; CI sweeps one at a time via `FAULT_SEED`.
const CHAOS_SEEDS: &[u64] = &[1, 2, 3, 4, 5];

/// Small enough that a whole chaos matrix stays fast: the 32×32 resize
/// keeps each shard a handful of 4 KiB chaos windows on the wire, so
/// per-window fault probabilities translate into survivable — not
/// certain — cuts between consecutive shard commits.
const RESIZE: (usize, usize) = (32, 28);

/// Seeds for the tests that assert "some seed injected the fault": a
/// 4–8 % per-window draw over one epoch's few dozen windows can come
/// up empty for a single seed (`FAULT_SEED=2` never disconnects), so a
/// pinned seed stands for a family of five derived from it and the
/// aggregate is taken over the family. Checksum parity is still
/// asserted on every member.
fn chaos_seed_family() -> Vec<u64> {
    match fault_seeds(CHAOS_SEEDS)[..] {
        [seed] => (0..5).map(|member| seed + 1_000 * member).collect(),
        _ => fault_seeds(CHAOS_SEEDS),
    }
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
    let (pipeline, dataset, store) = cv_workload(RESIZE, 24, 8);
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
    for seed in fault_seeds(CHAOS_SEEDS) {
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
