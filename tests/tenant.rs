//! Integration tests of the multi-tenant fleet daemon
//! ([`presto_pipeline::tenant`]): admission control (quota, capacity,
//! latest-wins rejoin), implicit tenants and sequential ASSIGNs,
//! weighted fair sharing with per-tenant bitwise parity, seed-matrixed
//! backend-death requeues, fault-budget isolation between tenants,
//! corruption on a daemon–backend link, and tenants that wait or stall.

use presto_integration_tests::{cv_workload, fault_seeds, reference_checksum, FAULT_SEEDS};
use presto_pipeline::chaos::{ChaosFault, ChaosProxy};
use presto_pipeline::real::{Materialized, MemStore};
use presto_pipeline::serve::{
    read_frame, serve_epoch, write_frame, Frame, MultisetChecksum, ServeClientConfig, ServeWorker,
    ServeWorkerConfig, TenantSpec, ASSIGN_WANT_STATS, PROTOCOL_VERSION,
};
use presto_pipeline::tenant::{AdmissionPolicy, FleetDaemon, FleetDaemonConfig};
use presto_pipeline::{Pipeline, Resilience, Sample, Telemetry};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Images resized to 64×64 and cropped to 56×56 online.
const RESIZE: (usize, usize) = (64, 56);

fn spawn_worker(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &Arc<MemStore>,
    config: ServeWorkerConfig,
) -> ServeWorker {
    ServeWorker::spawn(
        "127.0.0.1:0",
        pipeline,
        dataset,
        store.clone() as Arc<dyn presto_pipeline::BlobStore>,
        Resilience::default(),
        None,
        config,
    )
    .unwrap()
}

fn tenant_config(name: &str, weight: u32) -> ServeClientConfig {
    ServeClientConfig {
        tenant: Some(TenantSpec::new(name, weight)),
        ..ServeClientConfig::default()
    }
}

/// Speak the wire protocol by hand up through REGISTER and return the
/// open connection plus the daemon's admission verdict.
fn raw_register(addr: SocketAddr, name: &str, shards: u32) -> (TcpStream, Frame) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    write_frame(
        &mut writer,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            trace_id: 0,
        },
    )
    .unwrap();
    match read_frame(&mut reader).unwrap() {
        Some(Frame::Hello { version, .. }) => assert!(version >= 2, "fleetd must speak v2"),
        other => panic!("expected HELLO from fleetd, got {other:?}"),
    }
    write_frame(
        &mut writer,
        &Frame::Register {
            tenant: name.to_string(),
            weight: 1,
            shards,
        },
    )
    .unwrap();
    let verdict = read_frame(&mut reader).unwrap().expect("admission verdict");
    (stream, verdict)
}

#[test]
fn fleetd_takes_hello_once_and_first_or_answers_err_and_closes() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 8, 2);
    let worker = spawn_worker(&pipeline, &dataset, &store, ServeWorkerConfig::default());
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[worker.addr().to_string()],
        FleetDaemonConfig::default(),
        None,
    )
    .unwrap();
    presto_integration_tests::assert_hello_is_required_once_and_first(daemon.addr());
}

#[test]
fn an_idle_daemon_stops_and_drops() {
    use presto_integration_tests::returns;
    // Never saw a client, and never dials its backend.
    let backends = ["127.0.0.1:9".to_string()];
    let spawn = || FleetDaemon::spawn("127.0.0.1:0", &backends, FleetDaemonConfig::default(), None);
    let daemon = spawn().unwrap();
    returns("stop() and drop of an idle daemon", move || {
        daemon.stop();
        drop(daemon);
    });
    let daemon = spawn().unwrap();
    returns("drop of an idle daemon", move || drop(daemon));
}

#[test]
fn stopping_the_daemon_severs_a_link_blocked_on_a_silent_backend() {
    use presto_integration_tests::returns;
    // A backend that answers HELLO, takes the ASSIGN and then sends
    // nothing, its socket open: the relay waits on it for the whole read
    // timeout, an hour here, unless stopping the daemon cuts the link.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let backend = listener.local_addr().unwrap().to_string();
    let (assigned_tx, assigned) = std::sync::mpsc::channel();
    let silent = std::thread::spawn(move || {
        let (mut writer, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(writer.try_clone().unwrap());
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            trace_id: 0,
        };
        write_frame(&mut writer, &hello).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), Some(hello));
        let assign = read_frame(&mut reader).unwrap();
        assert!(matches!(assign, Some(Frame::Assign { .. })), "{assign:?}");
        assigned_tx.send(()).unwrap();
        // Silent until the daemon hangs up.
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    });
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[backend],
        FleetDaemonConfig {
            read_timeout: Duration::from_secs(3600),
            ..FleetDaemonConfig::default()
        },
        None,
    )
    .unwrap();
    let (mut client, _reader) = raw_connection(daemon.addr());
    let assign = Frame::Assign {
        epoch_seed: 1,
        credits: 1,
        shards: vec!["shard-0".into()],
        trace_id: 0,
        parent_span: 0,
        flags: 0,
    };
    write_frame(&mut client, &assign).unwrap();
    assigned
        .recv_timeout(Duration::from_secs(30))
        .expect("the relay assigned the shard to the backend");
    returns("drop of a daemon whose backend is silent", move || {
        drop(daemon)
    });
    silent.join().unwrap();
}

#[test]
fn admission_enforces_quota_capacity_and_latest_wins_rejoin() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 16, 8);
    let worker = spawn_worker(&pipeline, &dataset, &store, ServeWorkerConfig::default());
    let backend = vec![worker.addr().to_string()];

    // Shard quota: an 8-shard assignment against a 4-shard quota is
    // rejected at REGISTER, before any shard is scheduled.
    {
        let daemon = FleetDaemon::spawn(
            "127.0.0.1:0",
            &backend,
            FleetDaemonConfig {
                policy: AdmissionPolicy {
                    shard_quota: 4,
                    ..AdmissionPolicy::default()
                },
                ..FleetDaemonConfig::default()
            },
            None,
        )
        .unwrap();
        let err = serve_epoch(
            &[daemon.addr().to_string()],
            &dataset.shards,
            7,
            &tenant_config("greedy", 1),
            None,
            |_| {},
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rejected"), "not an admission error: {msg}");
        assert!(msg.contains("over quota 4"), "wrong reason: {msg}");
    }

    // Capacity: with max_jobs 1 a second tenant is rejected while the
    // first merely *occupies* its slot (registered, never assigned) —
    // admission must count admitted jobs, not only assigned ones.
    let telemetry = Arc::new(Telemetry::new());
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &backend,
        FleetDaemonConfig {
            policy: AdmissionPolicy {
                max_jobs: 1,
                ..AdmissionPolicy::default()
            },
            ..FleetDaemonConfig::default()
        },
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    let (hog, verdict) = raw_register(daemon.addr(), "hog", 2);
    assert!(
        matches!(&verdict, Frame::Admit { tenant, .. } if tenant == "hog"),
        "hog should be admitted, got {verdict:?}"
    );
    let err = serve_epoch(
        &[daemon.addr().to_string()],
        &dataset.shards,
        7,
        &tenant_config("late", 1),
        None,
        |_| {},
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("max concurrent jobs (1) reached"),
        "wrong reason: {msg}"
    );

    // Rejoin: a same-name REGISTER is a reconnect, not a duplicate —
    // latest wins and is admitted even at capacity, so a half-dead
    // connection can never lock its own tenant out.
    let (hog2, verdict) = raw_register(daemon.addr(), "hog", 2);
    assert!(
        matches!(&verdict, Frame::Admit { tenant, .. } if tenant == "hog"),
        "rejoining hog should evict its stale self, got {verdict:?}"
    );
    drop(hog);
    drop(hog2);
    // Both hog connections are gone; once the daemon reaps them the
    // slot frees up and a real epoch runs end to end.
    let reference = reference_checksum(&pipeline, &dataset, &store, 7);
    let mut report = None;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(100));
        match serve_epoch(
            &[daemon.addr().to_string()],
            &dataset.shards,
            7,
            &tenant_config("late", 1),
            None,
            |_| {},
        ) {
            Ok(r) => {
                report = Some(r);
                break;
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("max concurrent jobs"), "unexpected: {msg}");
            }
        }
    }
    let report = report.expect("slot never freed after both hog connections closed");
    assert_eq!(report.samples, 16);
    assert_eq!(report.checksum, reference);
    let snapshot = telemetry.tenants().snapshot();
    assert!(snapshot.rejected >= 1, "late's rejection should be counted");
    let late = snapshot
        .tenants
        .iter()
        .find(|t| t.name == "late")
        .expect("late in registry");
    assert_eq!(late.state.label(), "done");
    assert_eq!(late.samples, 16);
    assert_eq!(late.shards_done, 8);
}

#[test]
fn weighted_tenants_get_proportional_service_with_bitwise_parity() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 32, 8);
    // Paced backends so scheduling (not raw decode speed) dominates
    // the epoch and the DRR window sees many interleaved batches.
    let worker_config = ServeWorkerConfig {
        batch_samples: 2,
        batch_pace: Duration::from_millis(2),
        ..ServeWorkerConfig::default()
    };
    let workers: Vec<ServeWorker> = (0..2)
        .map(|_| spawn_worker(&pipeline, &dataset, &store, worker_config.clone()))
        .collect();
    let backends: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let telemetry = Arc::new(Telemetry::new());
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &backends,
        FleetDaemonConfig {
            quantum: 8,
            ..FleetDaemonConfig::default()
        },
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    let fleet = vec![daemon.addr().to_string()];

    // Three jobs, three seeds, weights 1/2/4. Each must get *its own*
    // single-process multiset back, bit for bit, no matter how the
    // daemon interleaves them across the two backends.
    let jobs: Vec<(&str, u32, u64)> = vec![("small", 1, 21), ("medium", 2, 22), ("large", 4, 23)];
    let references: Vec<MultisetChecksum> = jobs
        .iter()
        .map(|(_, _, seed)| reference_checksum(&pipeline, &dataset, &store, *seed))
        .collect();
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(name, weight, seed)| {
                let fleet = &fleet;
                let dataset = &dataset;
                scope.spawn(move || {
                    serve_epoch(
                        fleet,
                        &dataset.shards,
                        *seed,
                        &tenant_config(name, *weight),
                        None,
                        |_| {},
                    )
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (report, reference) in reports.iter().zip(&references) {
        assert_eq!(report.samples, 32);
        assert_eq!(&report.checksum, reference);
    }
    // Distinct seeds produced distinct multisets (the parity above is
    // per-tenant, not one shared stream).
    assert_ne!(references[0], references[1]);
    assert_ne!(references[1], references[2]);

    let snapshot = telemetry.tenants().snapshot();
    assert!(
        snapshot.window_closed,
        "three concurrent tenants must open and close a fairness window"
    );
    let entry = |name: &str| {
        snapshot
            .tenants
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} in registry"))
            .clone()
    };
    let (small, large) = (entry("small"), entry("large"));
    assert_eq!(small.state.label(), "done");
    assert_eq!(large.state.label(), "done");
    // DRR grants the weight-4 job 4x the scheduling headroom of the
    // weight-1 job; inside the all-active window that must show up as
    // at least as many delivered samples.
    assert!(
        large.window_samples >= small.window_samples,
        "weight 4 ({}) out-served by weight 1 ({})",
        large.window_samples,
        small.window_samples
    );
    assert!(snapshot.fair_share("large").unwrap() > snapshot.fair_share("small").unwrap());
}

#[test]
fn backend_death_requeues_only_the_owning_tenants_shards() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 32, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let seed_a = 300 + seed;
        let seed_b = 400 + seed;
        let reference_a = reference_checksum(&pipeline, &dataset, &store, seed_a);
        let reference_b = reference_checksum(&pipeline, &dataset, &store, seed_b);
        // The victim backend crashes after a seed-dependent number of
        // single-sample batches — always mid-shard, before that
        // shard's EOF — and stops accepting; the healthy backend must
        // absorb the requeued work. The kill point wraps at 16 batches
        // (4 of the 16 shards): a later one fires only when the victim
        // happens to be handed more of them.
        let victim = spawn_worker(
            &pipeline,
            &dataset,
            &store,
            ServeWorkerConfig {
                batch_samples: 1,
                fail_after_batches: Some(1 + seed % 16),
                ..ServeWorkerConfig::default()
            },
        );
        let healthy = spawn_worker(
            &pipeline,
            &dataset,
            &store,
            ServeWorkerConfig {
                batch_samples: 1,
                ..ServeWorkerConfig::default()
            },
        );
        let backends = vec![victim.addr().to_string(), healthy.addr().to_string()];
        let telemetry = Arc::new(Telemetry::new());
        let daemon = FleetDaemon::spawn("127.0.0.1:0", &backends, FleetDaemonConfig::default(), {
            Some(Arc::clone(&telemetry))
        })
        .unwrap();
        let fleet = vec![daemon.addr().to_string()];
        let (report_a, report_b) = std::thread::scope(|scope| {
            let fleet_a = &fleet;
            let dataset_a = &dataset;
            let a = scope.spawn(move || {
                serve_epoch(
                    fleet_a,
                    &dataset_a.shards,
                    seed_a,
                    &tenant_config("alpha", 1),
                    None,
                    |_| {},
                )
                .unwrap()
            });
            let fleet_b = &fleet;
            let dataset_b = &dataset;
            let b = scope.spawn(move || {
                serve_epoch(
                    fleet_b,
                    &dataset_b.shards,
                    seed_b,
                    &tenant_config("beta", 2),
                    None,
                    |_| {},
                )
                .unwrap()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        // Bitwise parity per tenant proves the requeued shard landed
        // back in *its* tenant's stream exactly once: a duplicated or
        // cross-delivered shard breaks the multiset.
        assert_eq!(report_a.samples, 32, "seed {seed}");
        assert_eq!(report_a.checksum, reference_a, "seed {seed}");
        assert_eq!(report_b.samples, 32, "seed {seed}");
        assert_eq!(report_b.checksum, reference_b, "seed {seed}");
        let snapshot = telemetry.tenants().snapshot();
        let requeues: u64 = snapshot.tenants.iter().map(|t| t.requeues).sum();
        assert!(
            requeues >= 1,
            "seed {seed}: the crash interrupts a started shard, so someone was charged"
        );
        for t in &snapshot.tenants {
            assert_eq!(t.state.label(), "done", "seed {seed}: tenant {}", t.name);
            assert_eq!(t.shards_done, 8, "seed {seed}: tenant {}", t.name);
        }
    }
}

#[test]
fn fault_budget_exhaustion_fails_one_tenant_and_spares_the_next() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 16, 4);
    // Zero fault budget: the first charged requeue fails the tenant.
    let victim = spawn_worker(
        &pipeline,
        &dataset,
        &store,
        ServeWorkerConfig {
            batch_samples: 1,
            fail_after_batches: Some(1),
            ..ServeWorkerConfig::default()
        },
    );
    let healthy = spawn_worker(
        &pipeline,
        &dataset,
        &store,
        ServeWorkerConfig {
            batch_samples: 1,
            ..ServeWorkerConfig::default()
        },
    );
    let backends = vec![victim.addr().to_string(), healthy.addr().to_string()];
    let telemetry = Arc::new(Telemetry::new());
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &backends,
        FleetDaemonConfig {
            policy: AdmissionPolicy {
                max_requeues: 0,
                ..AdmissionPolicy::default()
            },
            ..FleetDaemonConfig::default()
        },
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    let fleet = vec![daemon.addr().to_string()];

    // Tenant alpha runs alone, so the crashing backend's mid-shard
    // death is charged to alpha — and with a zero budget that is
    // fatal for alpha's epoch.
    let err = serve_epoch(
        &fleet,
        &dataset.shards,
        51,
        &tenant_config("alpha", 1),
        None,
        |_| {},
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("exhausted its fault budget (0 requeues)"),
        "unexpected: {msg}"
    );

    // Tenant beta arrives after the crash. The dead backend now only
    // produces *connection* failures, which requeue for free — they
    // are a fleet problem, not beta's — so beta completes on the
    // healthy backend with a clean budget and exact parity.
    let reference = reference_checksum(&pipeline, &dataset, &store, 52);
    let report = serve_epoch(
        &fleet,
        &dataset.shards,
        52,
        &tenant_config("beta", 1),
        None,
        |_| {},
    )
    .unwrap();
    assert_eq!(report.samples, 16);
    assert_eq!(report.checksum, reference);

    let snapshot = telemetry.tenants().snapshot();
    let alpha = snapshot.tenants.iter().find(|t| t.name == "alpha").unwrap();
    let beta = snapshot.tenants.iter().find(|t| t.name == "beta").unwrap();
    assert_eq!(alpha.state.label(), "failed");
    assert_eq!(alpha.requeues, 1, "exactly the one charged requeue");
    assert_eq!(beta.state.label(), "done");
    assert_eq!(
        beta.requeues, 0,
        "alpha's crash and the dead backend must not consume beta's budget"
    );
}

#[test]
fn a_corrupted_backend_link_requeues_and_the_tenant_still_gets_its_multiset() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 32, 8);
    for seed in fault_seeds(FAULT_SEEDS) {
        let epoch_seed = 600 + seed;
        let reference = reference_checksum(&pipeline, &dataset, &store, epoch_seed);
        let config = ServeWorkerConfig {
            batch_samples: 2,
            ..ServeWorkerConfig::default()
        };
        let corrupted = spawn_worker(&pipeline, &dataset, &store, config.clone());
        // Paced, so the corrupted backend keeps being handed shards
        // instead of the healthy one draining the queue alone.
        let healthy = spawn_worker(
            &pipeline,
            &dataset,
            &store,
            ServeWorkerConfig {
                batch_pace: Duration::from_millis(10),
                ..config
            },
        );
        // Flips between the daemon and one backend, in both directions:
        // the relay's one check on arrival (or the backend's on an
        // ASSIGN or CREDIT) must catch each, and the shard requeue.
        let proxy = ChaosProxy::start(
            &corrupted.addr().to_string(),
            seed,
            vec![ChaosFault::Corrupt { probability: 0.1 }],
        )
        .unwrap();
        let backends = vec![proxy.addr().to_string(), healthy.addr().to_string()];
        let telemetry = Arc::new(Telemetry::new());
        let daemon = FleetDaemon::spawn(
            "127.0.0.1:0",
            &backends,
            FleetDaemonConfig {
                policy: AdmissionPolicy {
                    max_requeues: 1_000,
                    ..AdmissionPolicy::default()
                },
                ..FleetDaemonConfig::default()
            },
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let report = serve_epoch(
            &[daemon.addr().to_string()],
            &dataset.shards,
            epoch_seed,
            &tenant_config("alpha", 1),
            None,
            |_| {},
        )
        .unwrap();
        assert_eq!(report.samples, 32, "seed {seed}");
        assert_eq!(report.checksum, reference, "seed {seed}");
        assert!(
            proxy.injected().corruptions > 0,
            "seed {seed}: nothing corrupted"
        );
        let snapshot = telemetry.tenants().snapshot();
        let alpha = snapshot.tenants.iter().find(|t| t.name == "alpha").unwrap();
        assert!(
            alpha.requeues >= 1,
            "seed {seed}: no corruption cost a shard"
        );
        assert_eq!(alpha.state.label(), "done", "seed {seed}");
        drop(daemon);
        proxy.stop();
    }
}

#[test]
fn plain_clients_are_implicit_tenants_and_a_worker_takes_sequential_assigns() {
    let (pipeline, dataset, store) = cv_workload(RESIZE, 16, 4);
    let reference = reference_checksum(&pipeline, &dataset, &store, 81);
    let worker = spawn_worker(&pipeline, &dataset, &store, ServeWorkerConfig::default());
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[worker.addr().to_string()],
        FleetDaemonConfig::default(),
        None,
    )
    .unwrap();
    // No REGISTER: the ASSIGN opens an implicit tenant.
    let report = serve_epoch(
        &[daemon.addr().to_string()],
        &dataset.shards,
        81,
        &ServeClientConfig::default(),
        None,
        |_| {},
    )
    .unwrap();
    assert_eq!(report.samples, 16);
    assert_eq!(report.checksum, reference);

    // Two ASSIGNs, one after the other, on one connection to a worker:
    // each is answered with its own shard indices and EOFs, the second
    // with the STATS it asked for, counting its own samples only.
    let (mut writer, mut reader) = raw_connection(worker.addr());
    let mut checksum = MultisetChecksum::default();
    for (shards, flags) in [
        (&dataset.shards[..2], 0),
        (&dataset.shards[2..], ASSIGN_WANT_STATS),
    ] {
        let assign = Frame::Assign {
            epoch_seed: 81,
            credits: 64,
            shards: shards.to_vec(),
            trace_id: 0,
            parent_span: 0,
            flags,
        };
        write_frame(&mut writer, &assign).unwrap();
        let (mut eofs, mut samples) = (Vec::new(), 0);
        while eofs.len() < shards.len() {
            match read_frame(&mut reader).unwrap() {
                Some(Frame::Batch2 { shard, block, .. }) => {
                    assert!((shard as usize) < shards.len(), "shard index {shard}");
                    for record in presto_tensor::RecordReader::new(&block) {
                        checksum.add(&Sample::decode(record.unwrap()).unwrap());
                        samples += 1;
                    }
                }
                Some(Frame::Eof { shard }) => eofs.push(shard),
                other => panic!("expected BATCH2 or EOF, got {other:?}"),
            }
        }
        eofs.sort_unstable();
        assert_eq!(eofs, [0, 1]);
        if flags == ASSIGN_WANT_STATS {
            match read_frame(&mut reader).unwrap() {
                Some(Frame::Stats { entry }) => assert_eq!(entry.epoch.samples, samples),
                other => panic!("expected STATS, got {other:?}"),
            }
        }
    }
    assert_eq!(checksum, reference);
}

/// A connection with the HELLO exchange done: its write side, and its
/// read side buffered.
fn raw_connection(addr: SocketAddr) -> (TcpStream, std::io::BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        trace_id: 0,
    };
    write_frame(&mut writer, &hello).unwrap();
    assert_eq!(read_frame(&mut reader).unwrap(), Some(hello));
    (writer, reader)
}

#[test]
fn fleetd_does_not_cut_a_tenant_that_waits_for_work() {
    // Each shard takes its backend 8 × 40 ms, and the relay hands a
    // shard on only at its EOF: the client sends nothing for far
    // longer than the daemon's read timeout, which covers backend links
    // — where a frame arrives every 40 ms — and not clients.
    let (pipeline, dataset, store) = cv_workload(RESIZE, 16, 2);
    let reference = reference_checksum(&pipeline, &dataset, &store, 61);
    let worker = spawn_worker(
        &pipeline,
        &dataset,
        &store,
        ServeWorkerConfig {
            batch_samples: 1,
            batch_pace: Duration::from_millis(40),
            ..ServeWorkerConfig::default()
        },
    );
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[worker.addr().to_string()],
        FleetDaemonConfig {
            read_timeout: Duration::from_millis(150),
            ..FleetDaemonConfig::default()
        },
        None,
    )
    .unwrap();
    let report = serve_epoch(
        &[daemon.addr().to_string()],
        &dataset.shards,
        61,
        &tenant_config("patient", 1),
        None,
        |_| {},
    )
    .unwrap();
    assert_eq!(report.samples, 16);
    assert_eq!(report.checksum, reference);
}

#[test]
fn a_stalled_tenant_holds_at_most_max_inflight_shards() {
    // Two samples a shard, one a batch: the stalled tenant's one credit
    // is spent inside its first shard.
    let (pipeline, dataset, store) = cv_workload(RESIZE, 32, 16);
    let worker = spawn_worker(
        &pipeline,
        &dataset,
        &store,
        ServeWorkerConfig {
            batch_samples: 1,
            ..ServeWorkerConfig::default()
        },
    );
    let telemetry = Arc::new(Telemetry::new());
    let config = FleetDaemonConfig::default();
    let max_inflight = config.max_inflight as u64;
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[worker.addr().to_string()],
        config,
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    let (mut stalled, verdict) = raw_register(daemon.addr(), "stalled", 16);
    assert!(matches!(verdict, Frame::Admit { .. }), "{verdict:?}");
    let assign = Frame::Assign {
        epoch_seed: 71,
        credits: 1,
        shards: dataset.shards.clone(),
        trace_id: 0,
        parent_span: 0,
        flags: 0,
    };
    write_frame(&mut stalled, &assign).unwrap();
    // Meanwhile another tenant's whole epoch goes through the daemon.
    let reference = reference_checksum(&pipeline, &dataset, &store, 72);
    let report = serve_epoch(
        &[daemon.addr().to_string()],
        &dataset.shards,
        72,
        &tenant_config("busy", 1),
        None,
        |_| {},
    )
    .unwrap();
    assert_eq!(report.checksum, reference);
    let stalled_done = || {
        let snapshot = telemetry.tenants().snapshot();
        let entry = snapshot.tenants.iter().find(|t| t.name == "stalled");
        entry.expect("stalled in registry").shards_done
    };
    // The stalled tenant fills its slots (waited for, not slept on)...
    let started = std::time::Instant::now();
    while stalled_done() < max_inflight {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "slots never filled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...and no more of its shards leave the queue: none of them can
    // reach its client while it reads nothing.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(stalled_done(), max_inflight);
    assert_eq!(worker.batches_sent(), 32 + 2 * max_inflight);
    drop(stalled);
}
