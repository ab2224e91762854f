//! Criterion micro-benchmarks of the core primitives: the compression
//! substrate, the record codec, the DSP kernels and the tokenizer —
//! the building blocks whose cost models the simulator uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use presto_codecs::container::zlib_decompress;
use presto_codecs::deflate::deflate;
use presto_codecs::inflate::inflate;
use presto_codecs::Level;
use presto_datasets::generators;
use presto_dsp::fft::{fft_inplace, Complex};
use presto_dsp::stft::mel_spectrogram;
use presto_formats::image::jpg;
use presto_tensor::{RecordReader, RecordWriter, Tensor};
use presto_text::BpeTokenizer;
use std::time::Duration;

fn corpus(bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes);
    let mut i = 0u32;
    while out.len() < bytes {
        out.extend_from_slice(format!("record {:06} field value {} ", i, i % 97).as_bytes());
        i += 1;
    }
    out.truncate(bytes);
    out
}

/// `bytes` of payload: `piece(0)`, `piece(1)`, ... end to end.
fn concatenated(bytes: usize, piece: impl Fn(u64) -> Vec<u8>) -> Vec<u8> {
    let mut out = Vec::new();
    for seed in 0.. {
        if out.len() >= bytes {
            break;
        }
        out.extend(piece(seed));
    }
    out.truncate(bytes);
    out
}

/// Pixel-centred 64x64 RGB images as f32, the tensors `cv-offline` stores.
fn f32_tensors(bytes: usize) -> Vec<u8> {
    concatenated(bytes, |seed| {
        let image = generators::natural_image(64, 64, seed);
        image
            .pixel_center()
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect()
    })
}

/// Quantized DCT coefficients as i16, the payload `jpg::decode` inflates.
fn dct_coefficients(bytes: usize) -> Vec<u8> {
    concatenated(bytes, |seed| {
        let encoded = jpg::encode(&generators::natural_image(96, 80, seed), 85);
        zlib_decompress(&encoded[22..]).unwrap()
    })
}

type Generator = fn(usize) -> Vec<u8>;
/// The three kinds of payload the pipelines store.
const KINDS: [(&str, Generator); 3] = [
    ("text", corpus),
    ("f32-tensor", f32_tensors),
    ("dct-i16", dct_coefficients),
];

/// Deflate as a curve over content, payload size (one sample, half a
/// shard, a shard) and level; the ratio achieved is printed beside each
/// point's MiB/s.
fn bench_deflate(c: &mut Criterion) {
    let mut group = c.benchmark_group("deflate");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (kind, generate) in KINDS {
        for kib in [48, 768, 1536] {
            let data = generate(kib * 1024);
            group.throughput(Throughput::Bytes(data.len() as u64));
            for level in [Level::FAST, Level::DEFAULT, Level::BEST] {
                let point = format!("{kib}@L{}", level.0);
                let compressed = deflate(&data, level);
                assert_eq!(inflate(&compressed).unwrap(), data);
                let ratio = compressed.len() as f64 / data.len() as f64;
                println!("deflate/{kind}/{point}: ratio {ratio:.4}");
                group.bench_with_input(BenchmarkId::new(kind, point), &data, |b, data| {
                    b.iter(|| deflate(data, level))
                });
            }
        }
    }
    group.finish();
}

/// Inflate as a curve over payload size and content: one point hides
/// what table construction costs on a one-block 4 KiB payload and what
/// the match-copy loop gains on a 1.5 MiB shard.
fn bench_inflate(c: &mut Criterion) {
    let mut group = c.benchmark_group("inflate");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (kind, generate) in KINDS {
        for kib in [4, 48, 768, 1536] {
            let data = generate(kib * 1024);
            let compressed = deflate(&data, Level::DEFAULT);
            assert_eq!(inflate(&compressed).unwrap(), data);
            group.throughput(Throughput::Bytes(data.len() as u64));
            group.bench_with_input(BenchmarkId::new(kind, kib), &compressed, |b, compressed| {
                b.iter(|| inflate(compressed).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_records(c: &mut Criterion) {
    let mut group = c.benchmark_group("records");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let tensor = Tensor::zeros(presto_tensor::DType::F32, vec![64, 1024]);
    let payload = tensor.encode();
    group.throughput(Throughput::Bytes(payload.len() as u64 * 16));
    group.bench_function("write-16", |b| {
        b.iter(|| {
            let mut writer = RecordWriter::new();
            for _ in 0..16 {
                writer.write(&payload);
            }
            writer.finish()
        })
    });
    let stream = {
        let mut writer = RecordWriter::new();
        for _ in 0..16 {
            writer.write(&payload);
        }
        writer.finish()
    };
    group.bench_function("read+decode-16", |b| {
        b.iter(|| {
            let mut reader = RecordReader::new(&stream);
            let mut total = 0usize;
            while let Some(record) = reader.next() {
                let (t, _) = Tensor::decode(record.unwrap()).unwrap();
                total += t.nbytes();
            }
            total
        })
    });
    group.finish();
}

fn bench_dsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let mut buf: Vec<Complex> = (0..4096)
        .map(|i| Complex::new((i as f64).sin(), 0.0))
        .collect();
    group.bench_function("fft-4096", |b| {
        b.iter(|| {
            fft_inplace(&mut buf);
        })
    });
    let audio: Vec<f64> = generators::speech_like(1.0, 16_000, 1)
        .iter()
        .map(|&s| f64::from(s) / 32_768.0)
        .collect();
    group.bench_function("mel-spectrogram-1s", |b| {
        b.iter(|| mel_spectrogram(&audio, 16_000, 80))
    });
    group.finish();
}

fn bench_image(c: &mut Criterion) {
    let mut group = c.benchmark_group("image");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let img = generators::natural_image(256, 256, 1);
    group.throughput(Throughput::Bytes(img.nbytes() as u64));
    group.bench_function("jpg-encode-256", |b| b.iter(|| jpg::encode(&img, 80)));
    let encoded = jpg::encode(&img, 80);
    group.bench_function("jpg-decode-256", |b| {
        b.iter(|| jpg::decode(&encoded).unwrap())
    });
    group.bench_function("resize-256-to-224", |b| b.iter(|| img.resize(224, 224)));
    group.bench_function("pixel-center-256", |b| b.iter(|| img.pixel_center()));
    group.finish();
}

fn bench_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("text");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let html = generators::html_document(20, 2);
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("html-extract", |b| {
        b.iter(|| presto_text::html::extract_text(&html))
    });
    let text = presto_text::html::extract_text(&html);
    let tokenizer = BpeTokenizer::train(&text, 200);
    group.bench_function("bpe-encode", |b| b.iter(|| tokenizer.encode(&text)));
    group.finish();
}

criterion_group!(
    benches,
    bench_inflate,
    bench_deflate,
    bench_records,
    bench_dsp,
    bench_image,
    bench_text
);
criterion_main!(benches);
