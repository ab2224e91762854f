//! Property tests: compression invariants over arbitrary inputs.

mod oracle;

use presto_codecs::bitio::BitReader;
use presto_codecs::checksum::{Adler32, Crc32};
use presto_codecs::deflate::deflate;
use presto_codecs::huffman::{code_lengths, entry, entry_value, Decoder};
use presto_codecs::inflate::{inflate, inflate_into, inflate_stream};
use presto_codecs::{Codec, CodecError, Level};
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

    /// Decompressing arbitrary garbage must error, never panic. The
    /// first three bits are BFINAL and a BTYPE that is not the reserved
    /// one, so the garbage reaches the block decoders.
    #[test]
    fn inflate_never_panics(mut data in proptest::collection::vec(any::<u8>(), 0..8192),
                            header in 0u8..6) {
        if let Some(first) = data.first_mut() {
            *first = (*first & !0b111) | header;
        }
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

/// A decoder over plain symbols: each entry's value is its index.
fn symbol_decoder<const SIZE: usize>(lengths: &[u8]) -> Result<Decoder<SIZE>, CodecError> {
    Decoder::from_lengths(lengths, |sym| entry(sym as u16, 0, 0))
}

/// Decode `stream` to its end with a table decoder and with the
/// bit-serial oracle: the same symbols and the same final error. A few
/// "extra" bits are read after every symbol, as inflate does, so a
/// decoder that consumed a different number of bits reads other values.
fn decoders_agree<const SIZE: usize>(lengths: &[u8], stream: &[u8]) {
    let oracle = oracle::Decoder::from_lengths(lengths);
    let table = symbol_decoder::<SIZE>(lengths);
    let (oracle, table) = match (oracle, table) {
        (Ok(oracle), Ok(table)) => (oracle, table),
        (oracle, table) => {
            assert_eq!(oracle.err(), table.err());
            return;
        }
    };
    let (mut slow, mut fast) = (BitReader::new(stream), BitReader::new(stream));
    loop {
        let expected = oracle.decode(&mut slow).map(usize::from);
        assert_eq!(table.decode(&mut fast).map(entry_value), expected);
        let Ok(symbol) = expected else { return };
        let extra = symbol as u32 % 14;
        assert_eq!(fast.read_bits(extra), slow.read_bits(extra));
    }
}

/// The three decoders on one raw stream: the fast loop, the careful
/// loop and the bit-serial oracle return the same bytes or the same
/// error, and the output buffer stays under DEFLATE's maximum expansion.
fn inflates_agree(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let result = inflate_into(stream, &mut out).map(|()| out.clone());
    assert!(out.capacity() <= 1032 * stream.len() + 64 * 1024);
    let mut careful = Vec::new();
    let by_careful_loop = inflate_stream(stream, &mut careful, None, false).map(|()| careful);
    assert_eq!(by_careful_loop, result);
    assert_eq!(oracle::inflate(stream), result);
    result
}

macro_rules! vector {
    ($name:literal) => {
        include_bytes!(concat!("vectors/", $name)).as_slice()
    };
}

/// Every truncation and every single-bit flip of `framed`: a typed
/// error, or the original bytes (the flip hit padding or a header field
/// nothing reads) — never a panic, other bytes, or a buffer past the cap.
fn survives_mutation(codec: Codec, framed: &[u8]) -> usize {
    let original = codec.decompress(framed).unwrap();
    let mut out = Vec::new();
    let mut check = |mutated: &[u8]| {
        if codec.decompress_into(mutated, &mut out).is_ok() {
            assert!(out == original);
        }
        assert!(out.capacity() <= 1032 * mutated.len() + 64 * 1024);
    };
    for cut in 0..framed.len() {
        check(&framed[..cut]);
    }
    let mut mutated = framed.to_vec();
    for bit in 0..framed.len() * 8 {
        mutated[bit / 8] ^= 1 << (bit % 8);
        check(&mutated);
        mutated[bit / 8] ^= 1 << (bit % 8);
    }
    framed.len() * 9
}

/// Three representative streams, mutated exhaustively: zlib's own text
/// (matches, a dynamic block), its 15-bit-code stream, and our gzip
/// writer's output.
#[test]
fn mutated_containers_error_or_decode_to_the_original() {
    let ours = Codec::Gzip(Level::DEFAULT).compress(&noise(1500, 7)[..].repeat(2));
    let cases = survives_mutation(Codec::Zlib(Level::DEFAULT), vector!("fibonacci-l9.zlib"))
        + survives_mutation(Codec::Gzip(Level::DEFAULT), vector!("text-l6.gzip"))
        + survives_mutation(Codec::Gzip(Level::DEFAULT), &ours);
    assert!(cases >= 4096);
}

/// The same for raw streams, where there is no trailer to reject a
/// changed output: all three decoders must then agree on it.
#[test]
fn mutated_raw_streams_decode_alike() {
    for stream in [
        vector!("window.raw"),
        vector!("fixed-l6.raw"),
        vector!("zeros-l6.raw"),
    ] {
        for cut in 0..stream.len() {
            let _ = inflates_agree(&stream[..cut]);
        }
        let mut mutated = stream.to_vec();
        for bit in 0..stream.len() * 8 {
            mutated[bit / 8] ^= 1 << (bit % 8);
            let _ = inflates_agree(&mutated);
            mutated[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// A gzip trailer that lies about the size fails without reserving
/// what it claims.
#[test]
fn lying_isize_errors_within_the_cap() {
    let data = noise(3000, 9)[..].repeat(3);
    let framed = Codec::Gzip(Level::DEFAULT).compress(&data);
    let len = data.len() as u32;
    for isize in [0, len - 1, len + 1, u32::MAX] {
        let mut lying = framed.clone();
        let at = lying.len() - 4;
        lying[at..].copy_from_slice(&isize.to_le_bytes());
        let mut out = Vec::new();
        let result = Codec::Gzip(Level::DEFAULT).decompress_into(&lying, &mut out);
        assert!(
            matches!(result, Err(CodecError::Corrupt(_))),
            "{isize}: {result:?}"
        );
        assert!(out.capacity() <= 1032 * lying.len() + 64 * 1024);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The table decoder and the bit-serial walk agree symbol for symbol
    /// on any code — complete, incomplete or invalid — and any stream,
    /// whether a code resolves in the table (2048 entries) or almost
    /// always in the walk behind it (16 entries).
    #[test]
    fn table_decoder_matches_bit_serial_oracle(
        freqs in proptest::collection::vec(0u64..1000, 1..288),
        max_len in 9usize..=15,
        dropped in proptest::collection::vec(0usize..288, 0..3),
        raw_lengths in any::<bool>(),
        stream in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut lengths = if raw_lengths {
            // Mostly over-subscribed: both constructors must say so.
            freqs.iter().map(|&f| (f % 16) as u8).collect()
        } else {
            code_lengths(&freqs, max_len)
        };
        for index in dropped {
            // An incomplete code: some bit patterns start no symbol.
            let index = index % lengths.len();
            lengths[index] = 0;
        }
        decoders_agree::<2048>(&lengths, &stream);
        decoders_agree::<16>(&lengths, &stream);
    }

    /// Fast loop, careful loop and oracle agree on what our own deflate
    /// writes, at every level, for noise and for match-heavy input.
    #[test]
    fn inflate_loops_match_oracle_on_valid_streams(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        unit in 1usize..48,
        reps in 0usize..40,
        level in 0u8..=9,
    ) {
        let mut input = data;
        let start = input.len().saturating_sub(unit);
        let repeated = input[start..].repeat(reps);
        input.extend_from_slice(&repeated);
        let compressed = deflate(&input, Level(level));
        prop_assert_eq!(inflates_agree(&compressed), Ok(input));
    }

    /// ... and on garbage behind a valid block header, where the result
    /// is nearly always an error: the same error from all three.
    #[test]
    fn inflate_loops_match_oracle_on_garbage(
        mut data in proptest::collection::vec(any::<u8>(), 0..2048),
        header in 0u8..6,
    ) {
        if let Some(first) = data.first_mut() {
            *first = (*first & !0b111) | header;
        }
        let _ = inflates_agree(&data);
    }
}
