//! The byte-touch ledger ([`presto_codecs::touch`]) on every path a
//! sample takes: how many user-space passes each path makes over the
//! payload bytes, pinned per kind of pass. The serve hop is what a
//! served epoch adds to the local one over the same dataset: 3 passes
//! per payload byte on a direct connection (the worker's record CRC, the
//! client's record CRC and its multiset hash) and 4 through `fleetd`
//! (the relay's CRC).
//!
//! One test runs the paths one after another: the counters are global
//! to the process, and this binary runs nothing else.

use presto_codecs::touch::{self, Ledger};
use presto_codecs::{Codec, Level};
use presto_datasets::generators;
use presto_datasets::steps;
use presto_formats::image::jpg;
use presto_pipeline::real::{Materialized, MemStore, RealExecutor};
use presto_pipeline::serve::{serve_epoch, ServeClientConfig, ServeWorker, ServeWorkerConfig};
use presto_pipeline::{
    BlobStore, FleetDaemon, FleetDaemonConfig, Pipeline, Resilience, Sample, Strategy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SAMPLES: u64 = 32;
const SEED: u64 = 7;

/// The benchmark's CV workload at split 3: 64×64×3 f32 tensors stored,
/// a random 56×56 crop online.
fn materialize(pipeline: &Pipeline, codec: Codec) -> (Materialized, Arc<MemStore>) {
    let source: Vec<Sample> = (0..SAMPLES)
        .map(|key| {
            let image = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&image, 85))
        })
        .collect();
    let store = Arc::new(MemStore::new());
    let strategy = Strategy::at_split(3)
        .with_threads(2)
        .with_shards(4)
        .with_compression(codec);
    let (dataset, _) = RealExecutor::new(2)
        .materialize(pipeline, &strategy, &source, store.as_ref())
        .unwrap();
    (dataset, store)
}

/// What `run` counted, and the encoded bytes of the samples it returned
/// as delivered.
fn measure(run: impl FnOnce(&AtomicU64)) -> (Ledger, f64) {
    let delivered = AtomicU64::new(0);
    let before = touch::snapshot();
    run(&delivered);
    (
        touch::snapshot().since(&before),
        delivered.into_inner() as f64,
    )
}

/// Count a delivered sample's encoded bytes, touching none of them.
fn deliver(delivered: &AtomicU64, sample: &Sample) {
    delivered.fetch_add(sample.encoded_len() as u64, Ordering::Relaxed);
}

/// One local epoch of `dataset` through the two-thread stream.
fn local_epoch(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &Arc<MemStore>,
) -> (Ledger, f64) {
    measure(|delivered| {
        let store = Arc::clone(store) as Arc<dyn BlobStore>;
        let mut stream = RealExecutor::new(2)
            .stream_epoch(pipeline, dataset, store, 4, SEED)
            .unwrap();
        for sample in &mut stream {
            deliver(delivered, &sample.unwrap());
        }
        stream.join().unwrap();
    })
}

/// One served epoch of `dataset` from `addr`, untraced; the ledger, the
/// delivered bytes and the block bytes that crossed the wire.
fn served_epoch(addr: &str, dataset: &Materialized) -> (Ledger, f64, f64) {
    let mut wire = 0;
    let (ledger, delivered) = measure(|delivered| {
        let config = ServeClientConfig {
            tracing: false,
            ..ServeClientConfig::default()
        };
        let report = serve_epoch(
            &[addr.to_string()],
            &dataset.shards,
            SEED,
            &config,
            None,
            |sample| deliver(delivered, sample),
        )
        .unwrap();
        assert_eq!(report.samples, SAMPLES);
        wire = report.bytes_received;
    });
    (ledger, delivered, wire as f64)
}

fn worker(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &Arc<MemStore>,
    wire_codec: Codec,
) -> ServeWorker {
    ServeWorker::spawn(
        "127.0.0.1:0",
        pipeline,
        dataset,
        Arc::clone(store) as Arc<dyn BlobStore>,
        Resilience::default(),
        None,
        ServeWorkerConfig {
            wire_codec,
            ..ServeWorkerConfig::default()
        },
    )
    .unwrap()
}

/// Passes of each kind per payload byte, `got` against `want` (both in
/// bytes), over `per` payload bytes. A miss names the path, the kind of
/// pass and what a change of that kind means.
fn assert_passes(path: &str, got: Ledger, want: Ledger, per: f64) {
    let kinds = [
        (
            "copy",
            got.copy,
            want.copy,
            "a copy of the payload was added",
        ),
        (
            "zero_fill",
            got.zero_fill,
            want.zero_fill,
            "a buffer is zero-filled before it is read into",
        ),
        ("crc", got.crc, want.crc, "a CRC pass was added"),
        ("hash", got.hash, want.hash, "a hash pass was added"),
    ];
    for (kind, got, want, means) in kinds {
        let (got, want) = (got as f64 / per, want as f64 / per);
        assert!(
            (got - want).abs() < 0.01,
            "{path}: {kind} passes per payload byte: want {want:.3}, got {got:.3} \
             (more: {means})"
        );
    }
}

/// A ledger of `copy`, `zero_fill`, `crc` and `hash` bytes.
fn ledger(copy: f64, zero_fill: f64, crc: f64, hash: f64) -> Ledger {
    Ledger {
        copy: copy as u64,
        zero_fill: zero_fill as u64,
        crc: crc as u64,
        hash: hash as u64,
    }
}

/// `served − local`: the passes the serve hop adds.
fn hop(served: Ledger, local: Ledger) -> Ledger {
    served.since(&local)
}

#[test]
fn every_path_makes_its_pinned_passes_over_the_payload() {
    const { assert!(touch::ENABLED, "this binary needs the touch-ledger feature") };
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let (plain, plain_store) = materialize(&pipeline, Codec::None);
    let (packed, packed_store) = materialize(&pipeline, Codec::Gzip(Level::DEFAULT));
    // `stored`: the records as stored, uncompressed (framing included,
    // 16 bytes a record); `packed_bytes`: the gzip shards.
    let stored = plain.stored_bytes as f64;
    let packed_bytes = packed.stored_bytes as f64;

    // Local cv-offline: the record CRC over what is stored, the crop's
    // copy of what is delivered. The store read and the sample decode
    // alias the stored blob.
    let (local, delivered) = local_epoch(&pipeline, &plain, &plain_store);
    assert_eq!(delivered as u64, SAMPLES * (56 * 56 * 3 * 4 + 24));
    let d = delivered;
    assert_passes("local cv-offline", local, ledger(d, 0.0, stored, 0.0), d);

    // Local gzip: inflate in and out, the zero-fill ahead of its
    // output, the gzip CRC and the record CRC, then the crop.
    let (local_gzip, _) = local_epoch(&pipeline, &packed, &packed_store);
    assert_passes(
        "local cv-offline-gzip",
        local_gzip,
        ledger(packed_bytes + stored + d, stored, 2.0 * stored, 0.0),
        d,
    );

    // Serve direct, no wire codec: the worker's record CRC as it
    // gathers the frame, the client's record CRC and its multiset hash.
    let direct = worker(&pipeline, &plain, &plain_store, Codec::None);
    let (served, _, _) = served_epoch(&direct.addr().to_string(), &plain);
    let serve_hop = hop(served, local);
    assert_passes(
        "serve hop, direct",
        serve_hop,
        ledger(0.0, 0.0, 2.0 * d, d),
        d,
    );
    assert!((serve_hop.total() as f64 / d - 3.0).abs() < 0.01);

    // Through fleetd: the relay checks each frame once more.
    let daemon = FleetDaemon::spawn(
        "127.0.0.1:0",
        &[direct.addr().to_string()],
        FleetDaemonConfig::default(),
        None,
    )
    .unwrap();
    let (relayed, _, _) = served_epoch(&daemon.addr().to_string(), &plain);
    let relay_hop = hop(relayed, local);
    assert_passes(
        "serve hop, fleetd",
        relay_hop,
        ledger(0.0, 0.0, 3.0 * d, d),
        d,
    );
    assert!((relay_hop.total() as f64 / d - 4.0).abs() < 0.01);
    drop(daemon);
    drop(direct);

    // A gzip wire: the worker copies the records into a block, deflates
    // it (in, out), CRCs the records, the gzip member and the packed
    // block; the client CRCs the packed frame, inflates it (in, out,
    // and the zero-fill ahead of the output), checks the gzip CRC and
    // the record CRCs, and hashes.
    let gzip = worker(&pipeline, &plain, &plain_store, Codec::Gzip(Level::FAST));
    let (served_gzip, _, wire) = served_epoch(&gzip.addr().to_string(), &plain);
    assert_passes(
        "serve hop, gzip wire",
        hop(served_gzip, local),
        ledger(3.0 * d + 2.0 * wire, d, 4.0 * d + 2.0 * wire, d),
        d,
    );
}
