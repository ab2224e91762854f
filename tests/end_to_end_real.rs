//! End-to-end tests of the *real* engine: generate synthetic raw data,
//! materialize strategies with real codecs, stream online epochs on
//! real threads, and check the outputs and the paper's qualitative
//! claims on actual measurements.

use presto_codecs::{Codec, Level};
use presto_datasets::generators;
use presto_datasets::steps::{self, AudioCodec, ImageCodec};
use presto_formats::audio::{adpcm, flac};
use presto_formats::container::ContainerWriter;
use presto_formats::image::jpg;
use presto_pipeline::real::{
    AppCache, BlobStore, EpochStats, Materialized, MemStore, RealExecutor,
};
use presto_pipeline::{Payload, Pipeline, PipelineError, Resilience, Sample, Strategy, Telemetry};
use presto_tensor::Tensor;
use presto_text::{BpeTokenizer, EmbeddingTable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn consume_count(count: &AtomicU64) -> impl Fn(&Sample) + Send + Sync + '_ {
    move |sample| {
        // Simulate the training process "accessing the tensor's shape
        // member" (the paper's trick to avoid training a model).
        if let Payload::Tensors(ts) = &sample.payload {
            assert!(!ts.is_empty() && !ts[0].shape().is_empty());
        }
        count.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn cv_pipeline_end_to_end_over_all_strategies() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source: Vec<Sample> = (0..40u64)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let exec = RealExecutor::new(4);
    let store = MemStore::new();
    // Every legal split (random-crop must stay online → max split 3).
    assert_eq!(pipeline.max_split(), 3);
    for split in 0..=pipeline.max_split() {
        let strategy = Strategy::at_split(split).with_threads(4);
        let (dataset, _prep) = exec
            .materialize(&pipeline, &strategy, &source, &store)
            .unwrap();
        let delivered = AtomicU64::new(0);
        let stats = exec
            .epoch(
                &pipeline,
                &dataset,
                &store,
                None,
                7,
                consume_count(&delivered),
            )
            .unwrap();
        assert_eq!(stats.samples, 40, "split {split}");
        assert_eq!(delivered.into_inner(), 40);
    }
}

#[test]
fn cv_storage_consumption_tradeoff_is_real() {
    // The paper's central size trade-off, on actual bytes: materialized
    // size dips at `resized` and explodes at `pixel-centered`.
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source: Vec<Sample> = (0..30u64)
        .map(|key| {
            let img = generators::natural_image(128, 128, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let exec = RealExecutor::new(2);
    let store = MemStore::new();
    let mut sizes = Vec::new();
    for split in 0..=3 {
        let strategy = Strategy::at_split(split).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source, &store)
            .unwrap();
        sizes.push(dataset.stored_bytes);
    }
    // decoded (split 1) > unprocessed (split 0): decode inflates JPG.
    assert!(sizes[1] > 2 * sizes[0], "decode must inflate: {sizes:?}");
    // resized (split 2) < decoded: resize shrinks.
    assert!(sizes[2] < sizes[1], "resize must shrink: {sizes:?}");
    // pixel-centered (split 3) = 4× resized (u8 → f32).
    let ratio = sizes[3] as f64 / sizes[2] as f64;
    assert!((ratio - 4.0).abs() < 0.2, "centering must 4x: {sizes:?}");
}

#[test]
fn nlp_pipeline_end_to_end_with_compression() {
    let corpus: String = (0..40)
        .map(|i| generators::html_document(3, i))
        .collect::<Vec<_>>()
        .join(" ");
    let text = presto_text::html::extract_text(&corpus);
    let tokenizer = Arc::new(BpeTokenizer::train(&text, 300));
    let table = Arc::new(EmbeddingTable::new(tokenizer.vocab_size(), 64, 42));
    let pipeline = steps::executable_nlp_pipeline(tokenizer, table);

    let source: Vec<Sample> = (0..24u64)
        .map(|key| Sample::from_bytes(key, generators::html_document(4, key).into_bytes()))
        .collect();
    let exec = RealExecutor::new(3);
    let store = MemStore::new();
    // bpe-encoded materialization with ZLIB: token streams compress.
    let plain = Strategy::at_split(2).with_threads(3);
    let compressed = plain.clone().with_compression(Codec::Zlib(Level::DEFAULT));
    let (d_plain, _) = exec
        .materialize(&pipeline, &plain, &source, &store)
        .unwrap();
    let (d_zlib, _) = exec
        .materialize(&pipeline, &compressed, &source, &store)
        .unwrap();
    assert!(
        d_zlib.stored_bytes < d_plain.stored_bytes,
        "tokens must compress"
    );

    let delivered = AtomicU64::new(0);
    let stats = exec
        .epoch(
            &pipeline,
            &d_zlib,
            &store,
            None,
            3,
            consume_count(&delivered),
        )
        .unwrap();
    assert_eq!(stats.samples, 24);
    // Embedded output inflates enormously vs stored tokens (the 64×
    // effect): check on real tensor bytes.
    let embedded_bytes = AtomicU64::new(0);
    exec.epoch(&pipeline, &d_zlib, &store, None, 3, |s| {
        embedded_bytes.fetch_add(s.nbytes() as u64, Ordering::Relaxed);
    })
    .unwrap();
    assert!(embedded_bytes.into_inner() > 10 * d_plain.stored_bytes);
}

#[test]
fn audio_pipelines_end_to_end_both_codecs() {
    for codec in [AudioCodec::Adpcm, AudioCodec::Flac] {
        let pipeline = steps::executable_audio_pipeline(codec, 40);
        let source: Vec<Sample> = (0..16u64)
            .map(|key| {
                let pcm = generators::speech_like(0.8, 16_000, key);
                let bytes = match codec {
                    AudioCodec::Adpcm => adpcm::encode(&pcm, 16_000),
                    AudioCodec::Flac => flac::encode(&pcm, 16_000),
                };
                Sample::from_bytes(key, bytes)
            })
            .collect();
        let exec = RealExecutor::new(2);
        let store = MemStore::new();
        let strategy = Strategy::at_split(2).with_threads(2); // spectrogram offline
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source, &store)
            .unwrap();
        let shapes = std::sync::Mutex::new(Vec::new());
        exec.epoch(&pipeline, &dataset, &store, None, 5, |s| {
            let Payload::Tensors(ts) = &s.payload else {
                panic!()
            };
            shapes.lock().unwrap().push(ts[0].shape().to_vec());
        })
        .unwrap();
        let shapes = shapes.into_inner().unwrap();
        assert_eq!(shapes.len(), 16);
        for shape in shapes {
            assert_eq!(shape[1], 40, "{codec:?} mel bins");
            assert!(shape[0] > 50, "{codec:?} frames");
        }
    }
}

#[test]
fn nilm_pipeline_end_to_end() {
    let pipeline = steps::executable_nilm_pipeline(128);
    let source: Vec<Sample> = (0..10u64)
        .map(|key| {
            let (v, i) = generators::electrical_window(2.0, 6_400, key);
            let mut writer = ContainerWriter::new();
            writer.append_chunk("voltage", &Tensor::from_vec(vec![v.len()], v).unwrap());
            writer.append_chunk("current", &Tensor::from_vec(vec![i.len()], i).unwrap());
            Sample::from_bytes(key, writer.finish())
        })
        .collect();
    let exec = RealExecutor::new(2);
    let store = MemStore::new();
    let strategy = Strategy::at_split(2).with_threads(2);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();
    // The aggregated dataset shrinks dramatically (paper: 12×).
    let raw_bytes: usize = source.iter().map(Sample::nbytes).sum();
    assert!(dataset.stored_bytes < raw_bytes as u64 / 5);
    let delivered = AtomicU64::new(0);
    exec.epoch(
        &pipeline,
        &dataset,
        &store,
        None,
        2,
        consume_count(&delivered),
    )
    .unwrap();
    assert_eq!(delivered.into_inner(), 10);
}

#[test]
fn app_cache_second_epoch_reads_nothing_and_matches() {
    let source: Vec<Sample> = (0..60u64)
        .map(|key| {
            let img = generators::natural_image(64, 64, key);
            Sample::from_bytes(key, jpg::encode(&img, 80))
        })
        .collect();
    let exec = RealExecutor::new(4);
    let store = MemStore::new();
    // Crop-free pipeline so cached tensors are deterministic.
    let pipeline = presto_pipeline::Pipeline::new("CV-nocrop")
        .push_step(Arc::new(steps::DecodeImage(ImageCodec::Jpg)))
        .push_step(Arc::new(steps::Resize {
            width: 48,
            height: 48,
        }))
        .push_step(Arc::new(steps::PixelCenter));
    let strategy = Strategy::at_split(1).with_threads(4);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();
    let cache = AppCache::new(256 << 20);
    let keys1 = std::sync::Mutex::new(Vec::new());
    exec.epoch(&pipeline, &dataset, &store, Some(&cache), 9, |s| {
        keys1.lock().unwrap().push(s.key);
    })
    .unwrap();
    assert!(cache.is_complete());
    let keys2 = std::sync::Mutex::new(Vec::new());
    let stats2 = exec
        .epoch(&pipeline, &dataset, &store, Some(&cache), 9, |s| {
            keys2.lock().unwrap().push(s.key);
        })
        .unwrap();
    assert_eq!(stats2.bytes_read, 0);
    let mut k1 = keys1.into_inner().unwrap();
    let mut k2 = keys2.into_inner().unwrap();
    k1.sort_unstable();
    k2.sort_unstable();
    assert_eq!(k1, k2, "cached epoch must deliver the same samples");
}

/// The crop-free CV workload above, with its store shareable by a
/// stream's workers.
fn nocrop_workload(samples: u64) -> (Pipeline, Materialized, Arc<dyn BlobStore>) {
    let source: Vec<Sample> = (0..samples)
        .map(|key| {
            let img = generators::natural_image(64, 64, key);
            Sample::from_bytes(key, jpg::encode(&img, 80))
        })
        .collect();
    let pipeline = Pipeline::new("CV-nocrop")
        .push_step(Arc::new(steps::DecodeImage(ImageCodec::Jpg)))
        .push_step(Arc::new(steps::Resize {
            width: 48,
            height: 48,
        }))
        .push_step(Arc::new(steps::PixelCenter));
    let store = Arc::new(MemStore::new());
    let (dataset, _) = RealExecutor::new(4)
        .materialize(
            &pipeline,
            &Strategy::at_split(1).with_threads(4),
            &source,
            store.as_ref(),
        )
        .unwrap();
    (pipeline, dataset, store)
}

/// Sorted keys of a whole streamed epoch, and its stats.
fn stream_keys(
    exec: &RealExecutor,
    (pipeline, dataset, store): &(Pipeline, Materialized, Arc<dyn BlobStore>),
    cache: &AppCache,
) -> (Vec<u64>, EpochStats) {
    let mut stream = exec
        .stream_epoch_with(
            pipeline,
            dataset,
            Arc::clone(store),
            Some(cache),
            8,
            9,
            Resilience::default(),
        )
        .unwrap();
    let mut keys: Vec<u64> = (&mut stream).map(|s| s.unwrap().key).collect();
    keys.sort_unstable();
    (keys, stream.join().unwrap())
}

#[test]
fn app_cache_fills_and_replays_through_the_stream() {
    let workload = nocrop_workload(40);
    let exec = RealExecutor::new(4);
    let cache = AppCache::new(256 << 20);
    let (filled, fill) = stream_keys(&exec, &workload, &cache);
    assert!(fill.bytes_read > 0);
    assert!(cache.is_complete());
    let (replayed, replay) = stream_keys(&exec, &workload, &cache);
    assert_eq!(replay.bytes_read, 0, "a replay never reads the store");
    assert_eq!(replay.samples, 40);
    assert_eq!(filled, replayed);
    assert_eq!(filled, (0..40).collect::<Vec<u64>>());
}

#[test]
fn dropped_stream_leaves_the_cache_unsealed() {
    let workload = nocrop_workload(40);
    let (pipeline, dataset, store) = &workload;
    let exec = RealExecutor::new(4);
    let cache = AppCache::new(256 << 20);
    let mut stream = exec
        .stream_epoch_with(
            pipeline,
            dataset,
            Arc::clone(store),
            Some(&cache),
            8,
            9,
            Resilience::default(),
        )
        .unwrap();
    for _ in 0..5 {
        stream.next().unwrap().unwrap();
    }
    let stats = stream.join().unwrap();
    assert_eq!(stats.samples, 5);
    assert!(!cache.is_complete(), "a dropped stream is no whole epoch");
    assert_eq!(cache.used_bytes(), 0, "its partial fill is discarded");

    let (keys, _) = stream_keys(&exec, &workload, &cache);
    assert!(cache.is_complete());
    let (replayed, _) = stream_keys(&exec, &workload, &cache);
    assert_eq!(keys, (0..40).collect::<Vec<u64>>());
    assert_eq!(replayed, keys, "each key once");
}

#[test]
fn a_shuffled_epoch_joins_records_and_seals_its_cache() {
    let workload = nocrop_workload(40);
    let (pipeline, dataset, store) = &workload;
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(4).with_telemetry(Arc::clone(&telemetry));
    let cache = AppCache::new(256 << 20);
    let mut stream = exec
        .stream_epoch_with(
            pipeline,
            dataset,
            Arc::clone(store),
            Some(&cache),
            8,
            9,
            Resilience::default(),
        )
        .unwrap()
        .shuffled(64, 7);
    let mut keys: Vec<u64> = (&mut stream).map(|s| s.unwrap().key).collect();
    let stats = stream.join().unwrap();
    assert_eq!(stats.samples, keys.len() as u64);
    let epoch = telemetry
        .last_epoch()
        .expect("the joined epoch is recorded");
    assert_eq!(epoch.samples, stats.samples);
    assert!(epoch.elapsed_ns > 0, "the recorder was finished");
    assert!(cache.is_complete(), "a whole shuffled epoch seals its fill");
    keys.sort_unstable();
    assert_eq!(keys, (0..40).collect::<Vec<u64>>());
}

#[test]
fn cache_overflow_is_a_stream_item() {
    let (pipeline, dataset, store) = nocrop_workload(12);
    let exec = RealExecutor::new(2);
    let cache = AppCache::new(1 << 10); // far below one 48x48 f32 sample
    let mut stream = exec
        .stream_epoch_with(
            &pipeline,
            &dataset,
            store,
            Some(&cache),
            8,
            9,
            Resilience::default(),
        )
        .unwrap();
    let first_error = stream.find_map(Result::err);
    assert!(
        matches!(first_error, Some(PipelineError::CacheOverflow { .. })),
        "{first_error:?}"
    );
    assert!(matches!(
        stream.join(),
        Err(PipelineError::CacheOverflow { .. })
    ));
    assert!(!cache.is_complete());
}

#[test]
fn shuffle_buffer_permutes_without_loss() {
    use presto_pipeline::shuffle::ShuffleBuffer;
    let keys: Vec<u64> = (0..500).collect();
    let shuffled: Vec<u64> = ShuffleBuffer::new(keys.clone().into_iter(), 128, 99).collect();
    assert_eq!(shuffled.len(), keys.len());
    assert_ne!(shuffled, keys);
    let mut sorted = shuffled;
    sorted.sort_unstable();
    assert_eq!(sorted, keys);
}
