//! Property tests: compression invariants over arbitrary inputs.

use presto_codecs::checksum::{Adler32, Crc32};
use presto_codecs::deflate::deflate;
use presto_codecs::inflate::inflate;
use presto_codecs::{Codec, Level};
use proptest::prelude::*;

/// CRC-32 by the slicing-by-8 tables alone: the oracle for the
/// carry-less-multiply kernel `Crc32::update` dispatches to.
fn crc32_tables(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update_tables(data);
    crc.finish()
}

/// Deterministic filler with no short period.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// Every length 0..=1024 at every start offset 0..16 of one buffer, so
/// each 64-byte block count, each tail length and each load alignment
/// of the kernel is compared with the table path.
#[test]
fn crc32_kernel_matches_tables_on_every_length_and_offset() {
    let buffer = noise(1024 + 16, 1);
    for offset in 0..16 {
        for len in 0..=1024 {
            let data = &buffer[offset..offset + len];
            assert_eq!(
                Crc32::checksum(data),
                crc32_tables(data),
                "len {len} at offset {offset}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// deflate ∘ inflate is the identity at every level.
    #[test]
    fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192),
                         level in 0u8..=9) {
        let compressed = deflate(&data, Level(level));
        let decompressed = inflate(&compressed).unwrap();
        prop_assert_eq!(decompressed, data);
    }

    /// Highly structured inputs round-trip too (these exercise the
    /// match-heavy paths far more than uniform random bytes).
    #[test]
    fn deflate_roundtrip_structured(seed in any::<u16>(), reps in 1usize..200,
                                    level in 1u8..=9) {
        let unit: Vec<u8> = (0..16).map(|i| (seed >> (i % 16)) as u8).collect();
        let mut data = Vec::new();
        for _ in 0..reps {
            data.extend_from_slice(&unit);
        }
        let compressed = deflate(&data, Level(level));
        prop_assert_eq!(inflate(&compressed).unwrap(), data);
    }

    /// GZIP and ZLIB containers round-trip and verify checksums.
    #[test]
    fn container_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in [Codec::Gzip(Level::DEFAULT), Codec::Zlib(Level::FAST)] {
            let framed = codec.compress(&data);
            prop_assert_eq!(codec.decompress(&framed).unwrap(), data.clone());
        }
    }

    /// Decompressing arbitrary garbage must error, never panic.
    #[test]
    fn inflate_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = inflate(&data);
        let _ = Codec::Gzip(Level::DEFAULT).decompress(&data);
        let _ = Codec::Zlib(Level::DEFAULT).decompress(&data);
    }

    /// Checksums are deterministic and chunking-independent.
    #[test]
    fn checksums_chunking_independent(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                      split in 0usize..2048) {
        let split = split.min(data.len());
        let (a, b) = data.split_at(split);
        let mut crc = Crc32::new();
        crc.update(a);
        crc.update(b);
        prop_assert_eq!(crc.finish(), Crc32::checksum(&data));
        let mut adler = Adler32::new();
        adler.update(a);
        adler.update(b);
        prop_assert_eq!(adler.finish(), Adler32::checksum(&data));
    }

    /// The kernel and the table path agree on inputs up to 256 KiB,
    /// from any running state.
    #[test]
    fn crc32_kernel_matches_tables_on_long_inputs(len in 0usize..=256 * 1024,
                                                  seed in any::<u64>(),
                                                  prefix in proptest::collection::vec(any::<u8>(), 0..40)) {
        let data = noise(len, seed);
        prop_assert_eq!(Crc32::checksum(&data), crc32_tables(&data));
        let mut fast = Crc32::new();
        let mut slow = Crc32::new();
        fast.update(&prefix);
        slow.update_tables(&prefix);
        fast.update(&data);
        slow.update_tables(&data);
        prop_assert_eq!(fast.finish(), slow.finish());
    }

    /// Any two- or three-way split of the input across `update` calls
    /// gives the one-shot table value, whichever path each piece takes.
    #[test]
    fn crc32_update_splits_match_tables(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                        cut_a in 0usize..4096, cut_b in 0usize..4096) {
        let a = cut_a.min(data.len());
        let b = cut_b.min(data.len());
        let (lo, hi) = (a.min(b), a.max(b));
        let expected = crc32_tables(&data);
        let mut two = Crc32::new();
        two.update(&data[..lo]);
        two.update(&data[lo..]);
        prop_assert_eq!(two.finish(), expected);
        let mut three = Crc32::new();
        three.update(&data[..lo]);
        three.update(&data[lo..hi]);
        three.update(&data[hi..]);
        prop_assert_eq!(three.finish(), expected);
    }

    /// A single-bit flip in the gzip trailer (CRC-32 or ISIZE) is always
    /// detected. (Flips elsewhere may land in ignored header fields or
    /// bit-alignment padding, so only the trailer gives a strict
    /// guarantee.)
    #[test]
    fn gzip_trailer_bitflip_detected(data in proptest::collection::vec(any::<u8>(), 64..512),
                                     flip_byte in 0usize..8, flip_bit in 0u8..8) {
        let mut framed = Codec::Gzip(Level::DEFAULT).compress(&data);
        let idx = framed.len() - 8 + flip_byte;
        framed[idx] ^= 1 << flip_bit;
        prop_assert!(Codec::Gzip(Level::DEFAULT).decompress(&framed).is_err());
    }

    /// Any corruption of a gzip member never yields wrong bytes
    /// silently claiming to be the original: it either errors or decodes
    /// to the original (flip hit dead bits like padding).
    #[test]
    fn gzip_bitflip_never_wrong_silently(data in proptest::collection::vec(any::<u8>(), 64..512),
                                         flip_byte in 10usize..64, flip_bit in 0u8..8) {
        let mut framed = Codec::Gzip(Level::DEFAULT).compress(&data);
        let idx = flip_byte % framed.len();
        if (4..10).contains(&idx) {
            return Ok(()); // ignored header fields
        }
        framed[idx] ^= 1 << flip_bit;
        if let Ok(out) = Codec::Gzip(Level::DEFAULT).decompress(&framed) {
            // The CRC-32 trailer catches any payload change, so a
            // successful decode must reproduce the original bytes.
            prop_assert_eq!(out, data);
        }
    }
}
