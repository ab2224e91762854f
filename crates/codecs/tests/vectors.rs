//! Interop vectors: streams written by a real zlib (and one assembled by
//! hand) that our own `deflate` does not produce. The streams
//! are committed under `tests/vectors/`; `scripts/gen_inflate_vectors.py`
//! makes them, and `payloads` rebuilds that script's inputs byte for
//! byte.

mod oracle;
mod payloads;

use payloads::{fibonacci, noise_bytes, noise_f32, text};
use presto_codecs::container::{gzip_decompress, zlib_decompress};
use presto_codecs::inflate::{inflate, inflate_stream};

/// What `window.raw` spells out: "abc" repeated by 127 matches of length
/// 258 at distance 3, then length 258 at distance 32768, length 3 at
/// distance 1, and a literal.
fn window() -> Vec<u8> {
    let mut out = b"abc".to_vec();
    for (len, distance) in std::iter::repeat_n((258, 3), 127).chain([(258, 32768), (3, 1)]) {
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
