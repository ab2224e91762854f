//! Shared helpers for the cross-crate integration tests.

use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{Materialized, MemStore, RealExecutor};
use presto_pipeline::serve::MultisetChecksum;
use presto_pipeline::sim::SimEnv;
use presto_pipeline::{Pipeline, Sample, Strategy};
use std::sync::{Arc, Mutex};

/// A fast-profiling environment: the paper's VM with a smaller
/// simulated subset so the full test suite stays quick.
pub fn fast_env() -> SimEnv {
    SimEnv {
        subset_samples: 4_000,
        ..SimEnv::paper_vm()
    }
}

/// Same against the SSD cluster.
pub fn fast_env_ssd() -> SimEnv {
    SimEnv {
        subset_samples: 4_000,
        ..SimEnv::paper_vm_ssd()
    }
}

/// Run `f` on a thread of its own and return its result, failing with
/// `what` if it has not returned within a minute: for checks that a
/// stop or a drop returns at all, which a bug would turn into a hung
/// suite instead of a failed test.
pub fn returns<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    result
        .recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} did not return"))
}

/// Speak to an accepting serve peer (`serve-worker` or `fleetd`) by
/// hand and check the one handshake rule: the peer sends its own HELLO
/// first, takes exactly one HELLO of its own version as the client's
/// first frame, and answers anything else — a frame before HELLO,
/// another version, a second HELLO — with ERR and a close.
pub fn assert_hello_is_required_once_and_first(addr: std::net::SocketAddr) {
    use presto_pipeline::serve::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
    let hello = |version| Frame::Hello {
        version,
        trace_id: 0,
    };
    let ours = hello(PROTOCOL_VERSION);
    let assign = Frame::Assign {
        epoch_seed: 1,
        credits: 1,
        shards: vec!["no-such-shard".into()],
        trace_id: 0,
        parent_span: 0,
        flags: 0,
    };
    let register = Frame::Register {
        tenant: "early".into(),
        weight: 1,
        shards: 1,
    };
    let scripts = [
        vec![Frame::Ping { t0: 1, seq: 0 }],
        vec![assign],
        vec![register],
        vec![hello(PROTOCOL_VERSION - 1)],
        vec![hello(PROTOCOL_VERSION + 1)],
        vec![ours.clone(), ours.clone()],
    ];
    for script in scripts {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        for frame in &script {
            write_frame(&mut stream, frame).unwrap();
        }
        assert_eq!(
            read_frame(&mut stream).unwrap(),
            Some(ours.clone()),
            "{script:?}"
        );
        let reply = read_frame(&mut stream).unwrap();
        assert!(
            matches!(reply, Some(Frame::Err { .. })),
            "{script:?} was answered with {reply:?}"
        );
        let after = read_frame(&mut stream);
        assert!(
            matches!(after, Ok(None)),
            "{script:?}: connection still open after ERR: {after:?}"
        );
    }
}

/// The fault seeds a wire suite runs: `defaults`, or the one seed
/// `FAULT_SEED` names (CI sweeps them one at a time).
pub fn fault_seeds(defaults: &[u64]) -> Vec<u64> {
    match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => defaults.to_vec(),
    }
}

/// The seeds the serve, tenant and fleet-trace suites run by default.
pub const FAULT_SEEDS: &[u64] = &[1, 2, 3];

/// The CV pipeline resized to `resize.0` and cropped to `resize.1`,
/// split after resize so that pixel centering and the random crop run
/// online: sample bytes depend on the per-shard step RNG, and multiset
/// equality across process and worker layouts exercises per-shard
/// seeding, not just framing. `samples` natural images, materialized
/// into `shards` shards.
pub fn cv_workload(
    resize: (usize, usize),
    samples: u64,
    shards: usize,
) -> (Pipeline, Materialized, Arc<MemStore>) {
    let pipeline = steps::executable_cv_pipeline(resize.0, resize.1);
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

/// Single-process reference epoch: the multiset every served, relayed
/// or chaotic epoch of `dataset` under `epoch_seed` must reproduce
/// exactly, whatever the placement.
pub fn reference_checksum(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &MemStore,
    epoch_seed: u64,
) -> MultisetChecksum {
    let checksum = Mutex::new(MultisetChecksum::default());
    let exec = RealExecutor::new(3);
    let stats = exec
        .epoch(pipeline, dataset, store, None, epoch_seed, |sample| {
            checksum.lock().unwrap().add(sample)
        })
        .unwrap();
    let checksum = checksum.into_inner().unwrap();
    assert_eq!(stats.samples, checksum.count);
    checksum
}
