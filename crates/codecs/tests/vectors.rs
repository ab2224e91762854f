//! Interop vectors: streams written by a real zlib (and one assembled by
//! hand) that our own one-block `deflate` never produces. The streams
//! are committed under `tests/vectors/`; `scripts/gen_inflate_vectors.py`
//! makes them, and the inputs below are that script's, rebuilt byte for
//! byte.

mod oracle;

use presto_codecs::container::{gzip_decompress, zlib_decompress};
use presto_codecs::inflate::{inflate, inflate_stream};

/// Knuth's MMIX generator, as in the script.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn text(size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0.. {
        if out.len() >= size {
            break;
        }
        out.extend_from_slice(format!("record {:06} field value {} ", i, i % 97).as_bytes());
    }
    out.truncate(size);
    out
}

fn noise_f32(count: usize) -> Vec<u8> {
    let mut rng = Lcg(1);
    (0..count)
        .flat_map(|_| ((rng.next() % 64) as f32 / 32.0 - 1.0).to_le_bytes())
        .collect()
}

fn fibonacci(symbols: u8) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut a, mut b) = (1usize, 2usize);
    for k in 0..symbols {
        out.extend(std::iter::repeat(k).take(a));
        (a, b) = (b, a + b);
    }
    let mut rng = Lcg(2);
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    out
}

fn noise_bytes(size: usize) -> Vec<u8> {
    let mut rng = Lcg(3);
    (0..size).map(|_| (rng.next() % 256) as u8).collect()
}

/// What `window.raw` spells out: "abc" repeated by 127 matches of length
/// 258 at distance 3, then length 258 at distance 32768, length 3 at
/// distance 1, and a literal.
fn window() -> Vec<u8> {
    let mut out = b"abc".to_vec();
    for (len, distance) in std::iter::repeat((258, 3))
        .take(127)
        .chain([(258, 32768), (3, 1)])
    {
        for _ in 0..len {
            out.push(out[out.len() - distance]);
        }
    }
    out.push(0xFF);
    out
}

macro_rules! vector {
    ($name:literal) => {
        include_bytes!(concat!("vectors/", $name)).as_slice()
    };
}

/// A raw stream through the fast loop, the careful loop and the
/// bit-serial oracle; returns what the oracle saw in it.
fn check_raw(stream: &[u8], expected: &[u8]) -> oracle::Seen {
    assert!(inflate(stream).unwrap() == expected);
    let mut careful = Vec::new();
    inflate_stream(stream, &mut careful, None, false).unwrap();
    assert!(careful == expected);
    let (out, seen) = oracle::inflate_seen(stream).unwrap();
    assert!(out == expected);
    seen
}

#[test]
fn text_at_three_levels_and_framings() {
    let words = text(64 * 1024);
    check_raw(vector!("text-l1.raw"), &words);
    assert!(gzip_decompress(vector!("text-l6.gzip")).unwrap() == words);
    assert!(zlib_decompress(vector!("text-l9.zlib")).unwrap() == words);
}

#[test]
fn f32_noise_spans_several_dynamic_blocks() {
    let stream = vector!("noise-f32-l6.gzip");
    let floats = noise_f32(52_000);
    assert!(floats.len() >= 200_000);
    assert!(gzip_decompress(stream).unwrap() == floats);
    let seen = check_raw(&stream[10..stream.len() - 8], &floats);
    assert!(seen.dynamic_blocks >= 3, "{seen:?}");
}

#[test]
fn fibonacci_frequencies_reach_fifteen_bit_codes() {
    let stream = vector!("fibonacci-l9.zlib");
    let deep = fibonacci(18);
    assert!(zlib_decompress(stream).unwrap() == deep);
    let seen = check_raw(&stream[2..stream.len() - 4], &deep);
    assert_eq!(seen.longest_code, 15, "{seen:?}");
}

#[test]
fn fixed_and_stored_blocks() {
    let seen = check_raw(vector!("fixed-l6.raw"), &text(64 * 1024)[..2048]);
    assert_eq!((seen.fixed_blocks, seen.dynamic_blocks), (1, 0));
    let seen = check_raw(vector!("stored-l0.raw"), &noise_bytes(1000));
    assert_eq!((seen.stored_blocks, seen.dynamic_blocks), (1, 0));
}

#[test]
fn longest_matches_and_extreme_distances() {
    let seen = check_raw(vector!("zeros-l6.raw"), &[0; 70_000]);
    assert_eq!((seen.longest_match, seen.longest_distance), (258, 1));
    let seen = check_raw(vector!("window.raw"), &window());
    assert_eq!(seen.longest_match, 258);
    assert_eq!((seen.shortest_distance, seen.longest_distance), (1, 32768));
}
