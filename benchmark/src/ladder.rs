//! The per-module ladder: a single-threaded replay of a workload's own
//! shards through the program's public functions, one span per call.
//!
//! The replay does, in order, what the engine does to a shard — store
//! read, inflate, record framing, sample decode, each pipeline step,
//! then either the bundle/ring hand-off (local workloads) or batch
//! encode → loopback → client decode (serve workloads); the offline
//! phase is replayed in the write direction. The first replay of a run
//! is checked against the engine's own output, so the ladder is known to
//! do the same work. Records are handled one at a time, as in the engine,
//! so a sample is stepped while its bytes are warm from the CRC pass;
//! every call has its own span, which puts a floor of two clock reads
//! (some 50 ns) under the smallest layers.

use crate::trace::{LayerTotal, SpanId, Tracer};
use crate::workloads::{Env, Kind, PREFETCH, THREADS};
use bytes::Bytes;
use presto_codecs::checksum::Crc32;
use presto_codecs::Codec;
use presto_pipeline::dataplane::{ring, RingReceiver, RingSender};
use presto_pipeline::serve::{read_frame, wire_codec_tag, write_frame, Frame, MultisetChecksum};
use presto_pipeline::{
    shard_rng_seed, BlobStore, BufferPool, MemStore, Sample, SampleBundle, DEFAULT_BUNDLE_SIZE,
};
use presto_tensor::{RecordReader, RecordWriter};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};

/// Spans that time a sub-cost of another layer a second time, on the
/// same bytes. They are reported, and left out of the ladder's sum.
const PROBES: [&str; 3] = ["codecs.crc32", "serve.frame_encode", "serve.frame_decode"];
/// Spans that only give the trace its epoch → shard → layer nesting.
const NESTING: [&str; 3] = ["epoch", "shard", "consumer.batch"];

/// The span name of a CV pipeline step.
fn step_span(step: &str) -> &'static str {
    match step {
        "decoded" => "steps.decode-image",
        "resized" => "steps.resize",
        "pixel-centered" => "steps.pixel-center",
        "random-crop" => "steps.random-crop",
        other => panic!("the CV pipeline has no step '{other}'"),
    }
}

/// A 127.0.0.1 connection whose far end acknowledges every BATCH with a
/// CREDIT, the way a serve client does.
pub struct Loopback {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    peer: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    /// Connect a stream pair and start the acknowledging peer.
    pub fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        writer.set_nodelay(true)?;
        far.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut far_writer = far.try_clone()?;
        let peer = std::thread::spawn(move || {
            let mut far_reader = BufReader::new(far);
            while let Ok(Some(_)) = read_frame(&mut far_reader) {
                if write_frame(&mut far_writer, &Frame::Credit { n: 1 }).is_err() {
                    break;
                }
            }
        });
        Ok(Loopback {
            writer,
            reader,
            peer: Some(peer),
        })
    }

    /// Send one frame and wait for its CREDIT; returns the bytes written.
    fn round_trip(&mut self, frame: &Frame) -> Result<u64, String> {
        let sent = write_frame(&mut self.writer, frame).map_err(|e| e.to_string())?;
        match read_frame(&mut self.reader) {
            Ok(Some(Frame::Credit { .. })) => Ok(sent),
            other => Err(format!("loopback peer answered {other:?}")),
        }
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // The peer's read sees the close and its loop ends.
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// What a replay needs besides the program: the hand-off it ends in.
pub struct Replayer {
    pool: BufferPool,
    senders: Vec<RingSender<SampleBundle>>,
    receiver: RingReceiver<SampleBundle>,
    wire: Option<Loopback>,
    scratch: Vec<u8>,
}

impl Replayer {
    /// A replayer for `kind`: serve kinds end in a loopback connection,
    /// local kinds in a two-lane ring like `stream_epoch`'s.
    pub fn new(kind: Kind) -> Result<Replayer, String> {
        let (senders, receiver) = ring(THREADS, PREFETCH.div_ceil(THREADS));
        let wire = match kind {
            Kind::Serve | Kind::Fleet => Some(Loopback::open().map_err(|e| e.to_string())?),
            _ => None,
        };
        Ok(Replayer {
            pool: BufferPool::new(),
            senders,
            receiver,
            wire,
            scratch: Vec::new(),
        })
    }

    /// Replay one epoch of `env`'s workload under a new `epoch` span.
    /// With `check`, the output is compared with the engine's: the
    /// multiset checksum of the delivered samples, or the stored blobs.
    /// Returns the samples replayed.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        env: &Env,
        trace: u32,
        epoch_seed: u64,
        check: Option<&MultisetChecksum>,
    ) -> Result<u64, String> {
        let epoch = tracer.begin("epoch", None, trace);
        let samples = match env.workload.kind {
            Kind::Materialize => self.replay_write(tracer, env, epoch, check.is_some()),
            _ => self.replay_read(tracer, env, epoch, epoch_seed, check),
        }?;
        tracer.end(epoch, samples, 0);
        Ok(samples)
    }

    /// The online phase, shard by shard.
    fn replay_read(
        &mut self,
        tracer: &mut Tracer,
        env: &Env,
        epoch: SpanId,
        epoch_seed: u64,
        check: Option<&MultisetChecksum>,
    ) -> Result<u64, String> {
        let steps = &env.pipeline.steps()[env.dataset.split..];
        let codec = env.dataset.codec;
        let mut seen = MultisetChecksum::default();
        let mut replayed = 0u64;
        for (index, shard_name) in env.dataset.shards.iter().enumerate() {
            let shard = tracer.begin_child("shard", epoch);
            let blob = tracer
                .time("store.get", shard, || {
                    let blob = env.store.get(shard_name);
                    let bytes = blob.as_ref().map_or(0, |b| b.len() as u64);
                    (blob, 1, bytes)
                })
                .map_err(|e| e.to_string())?;
            // As the engine: uncompressed blobs are the frame; compressed
            // ones inflate into reused scratch and are sealed by one copy.
            let framed: Bytes = match codec {
                Codec::None => blob,
                codec => {
                    let scratch = &mut self.scratch;
                    tracer
                        .time("codecs.inflate", shard, || {
                            let sealed = codec
                                .decompress_into(&blob, scratch)
                                .map(|()| Bytes::copy_from_slice(scratch));
                            let bytes = sealed.as_ref().map_or(0, |b| b.len() as u64);
                            // Units are the compressed bytes: with the
                            // span's bytes they give the space saving.
                            (sealed, blob.len() as u64, bytes)
                        })
                        .map_err(|e| e.to_string())?
                }
            };
            if index == 0 {
                tracer.time("codecs.crc32", shard, || {
                    black_box(Crc32::checksum(black_box(&framed)));
                    ((), 1, framed.len() as u64)
                });
            }
            // Record by record, as the engine does: a sample is decoded
            // and stepped while its bytes are still warm from the CRC pass.
            let mut rng = SmallRng::seed_from_u64(shard_rng_seed(epoch_seed, shard_name));
            let mut reader = RecordReader::new(&framed);
            let mut produced = Vec::new();
            let mut delivered = Vec::new();
            loop {
                let record = tracer.time("record.read", shard, || {
                    let record = reader.next();
                    // The end-of-shard probe reads no record.
                    let (units, bytes) = match &record {
                        Some(Ok(record)) => (1, record.len() as u64),
                        _ => (0, 0),
                    };
                    (record, units, bytes)
                });
                let Some(record) = record else { break };
                let record = record.map_err(|e| e.to_string())?;
                let mut sample = tracer
                    .time("sample.decode", shard, || {
                        let decoded = Sample::decode_shared(&framed, record).map(|(s, _)| s);
                        (decoded, 1, 0)
                    })
                    .map_err(|e| e.to_string())?;
                for step in steps {
                    let exec = step.exec.as_deref().ok_or("step is not executable")?;
                    sample = tracer
                        .time(step_span(&step.spec.name), shard, || {
                            (exec.apply(sample, &mut rng), 1, 0)
                        })
                        .map_err(|e| e.to_string())?;
                }
                produced.push(sample);
                // Local engines hand a bundle over as soon as it is full;
                // a serve worker finishes the shard first.
                if self.wire.is_none() && produced.len() == DEFAULT_BUNDLE_SIZE {
                    self.through_the_ring(tracer, shard, index, &mut produced, &mut delivered)?;
                }
            }
            match self.wire.as_mut() {
                Some(wire) => {
                    over_the_wire(tracer, shard, wire, index as u32, &produced, &mut delivered)?
                }
                None => {
                    self.through_the_ring(tracer, shard, index, &mut produced, &mut delivered)?
                }
            }
            replayed += delivered.len() as u64;
            if check.is_some() {
                delivered.iter().for_each(|sample| seen.add(sample));
            }
            tracer.end(shard, delivered.len() as u64, 0);
        }
        match check {
            Some(expected) if *expected != seen => Err(format!(
                "ladder replay delivered {seen:?}, the engine {expected:?}"
            )),
            _ => Ok(replayed),
        }
    }

    /// The local hand-off of one bundle: a pooled container through the
    /// worker's ring lane, received and unpacked by the consumer.
    /// Uncontended — producer and consumer are this one thread.
    fn through_the_ring(
        &mut self,
        tracer: &mut Tracer,
        shard: SpanId,
        shard_index: usize,
        produced: &mut Vec<Sample>,
        delivered: &mut Vec<Sample>,
    ) -> Result<(), String> {
        if produced.is_empty() {
            return Ok(());
        }
        let sender = &self.senders[shard_index % self.senders.len()];
        let bundle = tracer.time("dataplane.ring", shard, || {
            let (mut container, _) = self.pool.get_bundle(DEFAULT_BUNDLE_SIZE);
            container.append(produced);
            let sent = sender.try_send(SampleBundle::from_container(container));
            let received = self.receiver.recv();
            ((sent.is_ok(), received), 1, 0)
        });
        let (true, Some(bundle)) = bundle else {
            return Err("ring refused a bundle".into());
        };
        let mut samples = bundle.samples;
        delivered.append(&mut samples);
        self.pool.put_bundle(samples);
        Ok(())
    }

    /// The offline phase, shard by shard, in the write direction.
    fn replay_write(
        &mut self,
        tracer: &mut Tracer,
        env: &Env,
        epoch: SpanId,
        check: bool,
    ) -> Result<u64, String> {
        let steps = &env.pipeline.steps()[..env.dataset.split];
        let shards = env.dataset.shards.len();
        let store = MemStore::new();
        let mut replayed = 0u64;
        for (index, shard_name) in env.dataset.shards.iter().enumerate() {
            let shard = tracer.begin_child("shard", epoch);
            // Offline steps are deterministic, so the seed is never drawn from.
            let mut rng = SmallRng::seed_from_u64(0);
            let mut writer = RecordWriter::new();
            for source in env.source().iter().skip(index).step_by(shards) {
                let mut sample = source.clone();
                for step in steps {
                    let exec = step.exec.as_deref().ok_or("step is not executable")?;
                    sample = tracer
                        .time(step_span(&step.spec.name), shard, || {
                            (exec.apply(sample, &mut rng), 1, 0)
                        })
                        .map_err(|e| e.to_string())?;
                }
                let encoded = tracer.time("sample.encode", shard, || {
                    let encoded = sample.encode();
                    let bytes = encoded.len() as u64;
                    (encoded, 1, bytes)
                });
                tracer.time("record.write", shard, || {
                    writer.write(&encoded);
                    ((), 1, encoded.len() as u64)
                });
                replayed += 1;
            }
            let framed = writer.finish();
            if index == 0 {
                tracer.time("codecs.crc32", shard, || {
                    black_box(Crc32::checksum(black_box(&framed)));
                    ((), 1, framed.len() as u64)
                });
            }
            let compressed = tracer.time("codecs.deflate", shard, || {
                let compressed = env.dataset.codec.compress(&framed);
                // Units are the compressed bytes, as for `codecs.inflate`.
                let units = compressed.len() as u64;
                (compressed, units, framed.len() as u64)
            });
            tracer
                .time("store.put", shard, || {
                    (
                        store.put(shard_name, &compressed),
                        1,
                        compressed.len() as u64,
                    )
                })
                .map_err(|e| e.to_string())?;
            if check && env.store.get(shard_name).ok().as_deref() != Some(&compressed[..]) {
                return Err(format!(
                    "ladder replay wrote a different {shard_name} than the engine"
                ));
            }
            tracer.end(shard, 0, 0);
        }
        Ok(replayed)
    }
}

/// The serve hand-off of one shard: 16-sample BATCH frames, as a worker
/// builds them, each sent over the loopback and acknowledged, then
/// unpacked as the client does (copy out of the block, record framing,
/// owning sample decode).
fn over_the_wire(
    tracer: &mut Tracer,
    shard: SpanId,
    wire: &mut Loopback,
    shard_index: u32,
    produced: &[Sample],
    delivered: &mut Vec<Sample>,
) -> Result<(), String> {
    for chunk in produced.chunks(DEFAULT_BUNDLE_SIZE) {
        let count = chunk.len() as u64;
        let encoded: Vec<Vec<u8>> = tracer.time("sample.encode", shard, || {
            let encoded: Vec<Vec<u8>> = chunk.iter().map(Sample::encode).collect();
            let bytes = encoded.iter().map(|e| e.len() as u64).sum();
            (encoded, count, bytes)
        });
        let block = tracer.time("record.write", shard, || {
            let mut writer = RecordWriter::new();
            encoded.iter().for_each(|e| writer.write(e));
            let block = writer.finish();
            let bytes = block.len() as u64;
            (block, count, bytes)
        });
        let frame = Frame::Batch2 {
            shard: shard_index,
            count: count as u32,
            codec: wire_codec_tag(Codec::None),
            span_id: 0,
            t_send: 0,
            block,
        };
        let payload = tracer.time("serve.frame_encode", shard, || {
            let payload = frame.encode_payload();
            let bytes = payload.len() as u64;
            (payload, 1, bytes)
        });
        let sent = tracer.time("serve.loopback", shard, || {
            let sent = wire.round_trip(&frame);
            let bytes = *sent.as_ref().unwrap_or(&0);
            (sent, 1, bytes)
        });
        sent?;
        let decoded = tracer.time("serve.frame_decode", shard, || {
            (Frame::decode_payload(&payload), 1, payload.len() as u64)
        });
        let Ok(Frame::Batch2 { block, .. }) = decoded else {
            return Err("a BATCH frame did not decode back to itself".into());
        };
        let unpacked = tracer.time("serve.client_decode", shard, || {
            let framed = Codec::None.decompress(&block).map_err(|e| e.to_string());
            let unpacked = framed.and_then(|framed| {
                let mut reader = RecordReader::new(&framed);
                let mut samples = Vec::with_capacity(chunk.len());
                while let Some(record) = reader.next() {
                    let record = record.map_err(|e| e.to_string())?;
                    samples.push(Sample::decode(record).map_err(|e| e.to_string())?);
                }
                Ok(samples)
            });
            (unpacked, 1, block.len() as u64)
        });
        delivered.extend(unpacked?);
    }
    Ok(())
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn mib_per_s(bytes: u64, ns: f64) -> f64 {
    if ns <= 0.0 {
        0.0
    } else {
        bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
    }
}

/// The ladder metrics of a run, from the self times of its replay spans
/// over `samples` replayed samples.
pub fn metrics(
    totals: &BTreeMap<&'static str, LayerTotal>,
    samples: u64,
) -> Vec<(&'static str, f64)> {
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ns = |name: &str| layer(name).self_ns as f64;
    let per_span = |name: &str| per(ns(name), layer(name).spans);
    let per_unit = |name: &str| per(ns(name), layer(name).units);
    let per_byte = |name: &str| per(ns(name), layer(name).bytes);
    let (inflate, deflate) = (layer("codecs.inflate"), layer("codecs.deflate"));
    let raw = inflate.bytes + deflate.bytes;
    let space_saving = match raw {
        0 => 0.0,
        raw => 1.0 - (inflate.units + deflate.units) as f64 / raw as f64,
    };
    // One encode and one decode happen inside every loopback round trip;
    // the probes time them again on the same frames. What is left is the
    // wire itself.
    let wire_ns =
        (ns("serve.loopback") - ns("serve.frame_encode") - ns("serve.frame_decode")).max(0.0);
    let serial_ns: u64 = totals
        .iter()
        .filter(|(name, _)| !PROBES.contains(name) && !NESTING.contains(name))
        .map(|(_, total)| total.self_ns)
        .sum();
    vec![
        ("store.get_ns_per_shard", per_span("store.get")),
        (
            "store.get_mib_s",
            mib_per_s(layer("store.get").bytes, ns("store.get")),
        ),
        ("store.put_ns_per_shard", per_span("store.put")),
        ("codecs.inflate_ns_per_byte", per_byte("codecs.inflate")),
        ("codecs.deflate_ns_per_byte", per_byte("codecs.deflate")),
        ("codecs.space_saving", space_saving),
        ("codecs.crc32_ns_per_byte", per_byte("codecs.crc32")),
        ("record.read_ns_per_record", per_unit("record.read")),
        (
            "record.read_mib_s",
            mib_per_s(layer("record.read").bytes, ns("record.read")),
        ),
        ("record.write_ns_per_record", per_unit("record.write")),
        ("sample.decode_ns", per_unit("sample.decode")),
        ("sample.encode_ns", per_unit("sample.encode")),
        ("steps.decode-image_ns", per_span("steps.decode-image")),
        ("steps.resize_ns", per_span("steps.resize")),
        ("steps.pixel-center_ns", per_span("steps.pixel-center")),
        ("steps.random-crop_ns", per_span("steps.random-crop")),
        ("dataplane.ring_ns_per_bundle", per_span("dataplane.ring")),
        (
            "serve.frame_encode_ns_per_batch",
            per_span("serve.frame_encode"),
        ),
        (
            "serve.frame_decode_ns_per_batch",
            per_span("serve.frame_decode"),
        ),
        (
            "serve.loopback_ns_per_batch",
            per(wire_ns, layer("serve.loopback").spans),
        ),
        (
            "serve.loopback_mib_s",
            mib_per_s(layer("serve.loopback").bytes, wire_ns),
        ),
        (
            "serve.client_decode_ns_per_batch",
            per_span("serve.client_decode"),
        ),
        (
            "ladder.serial_ns_per_sample",
            per(serial_ns as f64, samples),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{sources, Workload, EPOCH_SEEDS, NAMES};

    fn total(spans: u64, units: u64, bytes: u64, self_ns: u64) -> LayerTotal {
        LayerTotal {
            spans,
            units,
            bytes,
            self_ns,
        }
    }

    #[test]
    fn metrics_divide_self_time_by_the_right_count() {
        let totals = BTreeMap::from([
            ("epoch", total(1, 0, 0, 77)),
            ("shard", total(2, 0, 0, 33)),
            ("store.get", total(2, 2, 2 << 20, 1_000)),
            ("codecs.inflate", total(2, 250, 1_000, 4_000)),
            ("codecs.crc32", total(1, 1, 500, 250)),
            ("record.read", total(2, 20, 1_000, 3_000)),
            ("steps.random-crop", total(20, 20, 0, 2_000)),
            ("serve.loopback", total(4, 4, 4 << 20, 10_000)),
            ("serve.frame_encode", total(4, 4, 0, 1_000)),
            ("serve.frame_decode", total(4, 4, 0, 1_000)),
        ]);
        let metrics: BTreeMap<_, _> = metrics(&totals, 20).into_iter().collect();
        assert_eq!(metrics["store.get_ns_per_shard"], 500.0);
        assert_eq!(metrics["store.get_mib_s"], 2.0 / 1e-6);
        assert_eq!(metrics["codecs.inflate_ns_per_byte"], 4.0);
        assert_eq!(metrics["codecs.space_saving"], 0.75);
        assert_eq!(metrics["codecs.crc32_ns_per_byte"], 0.5);
        assert_eq!(metrics["record.read_ns_per_record"], 150.0);
        assert_eq!(metrics["steps.random-crop_ns"], 100.0);
        assert_eq!(metrics["steps.resize_ns"], 0.0);
        assert_eq!(metrics["serve.loopback_ns_per_batch"], 2_000.0);
        // Probes and nesting spans stay out of the sum.
        assert_eq!(
            metrics["ladder.serial_ns_per_sample"],
            (1_000 + 4_000 + 3_000 + 2_000 + 10_000) as f64 / 20.0
        );
    }

    #[test]
    fn replay_matches_the_engine_on_every_workload() {
        for name in NAMES {
            let workload = Workload::named(name, true).unwrap();
            let env = Env::setup(&workload, &sources(5, workload.samples), None).unwrap();
            let reference = &env.references().unwrap()[0];
            let mut tracer = Tracer::new();
            let mut replayer = Replayer::new(workload.kind).unwrap();
            let replayed = replayer
                .replay(
                    &mut tracer,
                    &env,
                    0,
                    EPOCH_SEEDS[0],
                    Some(&reference.checksum),
                )
                .unwrap();
            assert_eq!(replayed, workload.samples as u64, "{name}");
            // Epoch → shard → layer nesting.
            let spans = tracer.spans();
            assert_eq!(spans[0].name, "epoch");
            assert_eq!(spans[1].name, "shard");
            assert_eq!(spans[1].parent, Some(0));
            assert_eq!(spans[2].parent, Some(1));
            // A wrong expectation is caught.
            let wrong = MultisetChecksum { count: 1, sum: 1 };
            if workload.kind != Kind::Materialize {
                assert!(replayer
                    .replay(&mut tracer, &env, 1, EPOCH_SEEDS[0], Some(&wrong))
                    .is_err());
            }
        }
    }
}
