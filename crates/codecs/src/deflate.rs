//! DEFLATE (RFC 1951) compressor: stored, fixed-Huffman and
//! dynamic-Huffman blocks over the LZ77 token stream.
//!
//! A stream is cut into blocks of [`BLOCK_TOKENS`] tokens. Each block's
//! symbol frequencies are counted as the matcher hands its tokens over;
//! from them come the block's own code lengths, once, and from those
//! both the exact cost of the three block types and the codes the
//! cheapest one is written with. Counting, choosing and writing take
//! ~2 ns per input byte at level 6, a tenth of what the matcher takes.

use crate::bitio::{reverse_bits, BitWriter};
use crate::huffman::{canonical_codes, code_lengths, MAX_BITS};
use crate::lz77::{Matcher, Token, MIN_MATCH};
use crate::Level;

/// Number of literal/length symbols (0..=287; 286/287 never used).
pub const NUM_LITLEN: usize = 288;
/// Number of distance symbols.
pub const NUM_DIST: usize = 30;
/// Number of code-length-alphabet symbols.
pub const NUM_CLEN: usize = 19;

/// Order in which code-length code lengths are transmitted (RFC 1951 §3.2.7).
pub const CLEN_ORDER: [usize; NUM_CLEN] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// `(base_length, extra_bits)` for length codes 257..=285.
pub const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
pub const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Index of the last entry of `table` whose base is at most `value`.
const fn code_index(table: &[(u16, u8)], value: usize) -> u8 {
    let mut index = table.len() - 1;
    while table[index].0 as usize > value {
        index -= 1;
    }
    index as u8
}

/// `LENGTH_CODE[len - 3]`: the [`LENGTH_TABLE`] index of a match length.
const LENGTH_CODE: [u8; 256] = {
    let mut codes = [0; 256];
    let mut i = 0;
    while i < codes.len() {
        codes[i] = code_index(&LENGTH_TABLE, i + MIN_MATCH);
        i += 1;
    }
    codes
};

/// The [`DIST_TABLE`] index of distance `d + 1`, at `d` up to 255 and
/// at `256 + (d >> 7)` beyond: from code 16 on, every code covers a
/// multiple of 128 distances.
const DIST_CODE: [u8; 512] = {
    let mut codes = [0; 512];
    let mut i = 0;
    while i < codes.len() {
        let d = if i < 256 { i } else { (i - 256) << 7 };
        codes[i] = code_index(&DIST_TABLE, d + 1);
        i += 1;
    }
    codes
};

#[inline]
fn length_code(len: u16) -> usize {
    LENGTH_CODE[len as usize - MIN_MATCH] as usize
}

#[inline]
fn distance_code(dist: u16) -> usize {
    let d = dist as usize - 1;
    DIST_CODE[if d < 256 { d } else { 256 + (d >> 7) }] as usize
}

/// Map a match length (3..=258) to `(symbol, extra_bits_value, extra_bits)`.
pub fn length_symbol(len: u16) -> (u16, u32, u8) {
    debug_assert!((3..=258).contains(&len));
    let code = length_code(len);
    let (base, extra) = LENGTH_TABLE[code];
    (257 + code as u16, u32::from(len - base), extra)
}

/// Map a distance (1..=32768) to `(symbol, extra_bits_value, extra_bits)`.
pub fn distance_symbol(dist: u16) -> (u16, u32, u8) {
    debug_assert!((1..=32768).contains(&dist));
    let code = distance_code(dist);
    let (base, extra) = DIST_TABLE[code];
    (code as u16, u32::from(dist - base), extra)
}

/// Fixed-Huffman literal/length code lengths (RFC 1951 §3.2.6).
pub fn fixed_litlen_lengths() -> Vec<u8> {
    let mut lengths = vec![0u8; NUM_LITLEN];
    for (sym, len) in lengths.iter_mut().enumerate() {
        *len = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lengths
}

/// Fixed-Huffman distance code lengths: all 5 bits (32 symbols).
pub fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 32]
}

/// Tokens per block. A block's codes fit its own symbol statistics and
/// its header costs about a hundred bytes, so on drifting content
/// smaller blocks code tighter until the headers outweigh that.
pub const BLOCK_TOKENS: usize = 1 << 15;

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], level: Level) -> Vec<u8> {
    deflate_onto(Vec::new(), data, level)
}

/// [`deflate`] appended to `out` (a container's header), with its pass
/// in and its pass out on the byte-touch ledger.
pub(crate) fn deflate_onto(out: Vec<u8>, data: &[u8], level: Level) -> Vec<u8> {
    let start = out.len();
    let out = deflate_blocks(out, data, level);
    crate::touch::copy(data.len());
    crate::touch::copy(out.len() - start);
    out
}

/// The blocks of [`deflate_onto`]. Room for the whole stream is reserved
/// at once: no block is written larger than stored, so it never
/// outgrows the input by more than the framing.
fn deflate_blocks(out: Vec<u8>, data: &[u8], level: Level) -> Vec<u8> {
    let mut writer = BitWriter::appending(out, data.len() + data.len() / 1000 + 64);
    if level.0 == 0 {
        write_stored(&mut writer, data, true);
        return writer.finish();
    }
    let mut matcher = Matcher::new(data, level);
    let mut block = Block::new();
    let mut start = 0;
    loop {
        let end = matcher.next_block(BLOCK_TOKENS, |token| block.push(token));
        let last = end == data.len();
        block.write(&mut writer, &data[start..end], last);
        if last {
            return writer.finish();
        }
        start = end;
    }
}

/// Stored blocks of at most 65 535 bytes; `last` sets BFINAL on the
/// final one.
fn write_stored(writer: &mut BitWriter, data: &[u8], last: bool) {
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        writer.write_bits(last as u32, 1);
        writer.write_bits(0b00, 2); // stored
        writer.align_to_byte();
        writer.write_bytes(&[0, 0, 0xFF, 0xFF]);
        return;
    }
    while let Some(chunk) = chunks.next() {
        let final_block = last && chunks.peek().is_none();
        writer.write_bits(final_block as u32, 1);
        writer.write_bits(0b00, 2);
        writer.align_to_byte();
        let len = chunk.len() as u16;
        writer.write_bytes(&len.to_le_bytes());
        writer.write_bytes(&(!len).to_le_bytes());
        writer.write_bytes(chunk);
    }
}

/// The tokens of one block and how often each symbol occurs in them.
struct Block {
    tokens: Vec<Token>,
    litlen_freq: [u64; NUM_LITLEN],
    dist_freq: [u64; NUM_DIST],
}

impl Block {
    fn new() -> Self {
        Block {
            // The matcher may end the stream one held-back match over.
            tokens: Vec::with_capacity(BLOCK_TOKENS + 1),
            litlen_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
        }
    }

    #[inline]
    fn push(&mut self, token: Token) {
        match token {
            Token::Literal(b) => self.litlen_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                self.litlen_freq[257 + length_code(len)] += 1;
                self.dist_freq[distance_code(dist)] += 1;
            }
        }
        self.tokens.push(token);
    }

    /// Bits the tokens and the end-of-block symbol take under the given
    /// code lengths, extra bits included.
    fn coded_bits(&self, litlen_lengths: &[u8], dist_lengths: &[u8]) -> u64 {
        fn weighted<'a>(freqs: &[u64], bits: impl Iterator<Item = &'a u8>) -> u64 {
            (freqs.iter().zip(bits))
                .map(|(&freq, &bits)| freq * u64::from(bits))
                .sum()
        }
        weighted(&self.litlen_freq, litlen_lengths.iter())
            + weighted(&self.dist_freq, dist_lengths.iter())
            + weighted(
                &self.litlen_freq[257..],
                LENGTH_TABLE.iter().map(|(_, extra)| extra),
            )
            + weighted(&self.dist_freq, DIST_TABLE.iter().map(|(_, extra)| extra))
    }

    /// Write the block over `raw` in the cheapest of the three block
    /// types (incompressible data falls back to stored) and empty it.
    fn write(&mut self, writer: &mut BitWriter, raw: &[u8], last: bool) {
        self.litlen_freq[256] = 1; // end of block
        let litlen_lengths = code_lengths(&self.litlen_freq, MAX_BITS);
        let mut dist_lengths = code_lengths(&self.dist_freq, MAX_BITS);
        // At least one distance code length must be transmitted.
        if dist_lengths.iter().all(|&l| l == 0) {
            dist_lengths[0] = 1;
        }
        let header = DynamicHeader::new(&litlen_lengths, &dist_lengths);
        let (fixed_litlen, fixed_dist) = (fixed_litlen_lengths(), fixed_dist_lengths());
        let dynamic_bits = header.bits + self.coded_bits(&litlen_lengths, &dist_lengths);
        let fixed_bits = self.coded_bits(&fixed_litlen, &fixed_dist);
        let stored_bits = 8 * (raw.len() + 5 * raw.len().div_ceil(65_535).max(1)) as u64;

        if stored_bits < fixed_bits && stored_bits < dynamic_bits {
            write_stored(writer, raw, last);
        } else {
            writer.write_bits(last as u32, 1);
            if fixed_bits <= dynamic_bits {
                writer.write_bits(0b01, 2);
                self.write_tokens(writer, &fixed_litlen, &fixed_dist);
            } else {
                writer.write_bits(0b10, 2);
                header.write(writer);
                self.write_tokens(writer, &litlen_lengths, &dist_lengths);
            }
        }
        self.tokens.clear();
        self.litlen_freq.fill(0);
        self.dist_freq.fill(0);
    }

    fn write_tokens(&self, writer: &mut BitWriter, litlen_lengths: &[u8], dist_lengths: &[u8]) {
        let litlen = stream_codes(litlen_lengths);
        let dist = stream_codes(dist_lengths);
        for token in &self.tokens {
            match *token {
                Token::Literal(b) => {
                    let (code, len) = litlen[b as usize];
                    writer.write_bits(code, len);
                }
                Token::Match { len, dist: d } => {
                    // A code and its extra bits go out together: at most
                    // 15 + 5 bits for a length, 15 + 13 for a distance.
                    let index = length_code(len);
                    let (base, extra) = LENGTH_TABLE[index];
                    let (code, bits) = litlen[257 + index];
                    writer.write_bits(
                        code | u32::from(len - base) << bits,
                        bits + u32::from(extra),
                    );
                    let index = distance_code(d);
                    let (base, extra) = DIST_TABLE[index];
                    let (code, bits) = dist[index];
                    writer.write_bits(code | u32::from(d - base) << bits, bits + u32::from(extra));
                }
            }
        }
        let (code, len) = litlen[256];
        writer.write_bits(code, len); // end of block
    }
}

/// Canonical codes as [`BitWriter::write_bits`] takes them: bit-reversed
/// (a Huffman code goes out MSB first), with their lengths.
fn stream_codes(lengths: &[u8]) -> Vec<(u32, u32)> {
    canonical_codes(lengths)
        .into_iter()
        .map(|(code, len)| (reverse_bits(code, len.into()), len.into()))
        .collect()
}

/// Run-length encode code lengths with symbols 16/17/18 (RFC 1951 §3.2.7).
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u8)> {
    // Output: (symbol, extra_bits_value)
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let len = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == len {
            run += 1;
        }
        if len == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let take = remaining.min(138);
                out.push((18, (take - 11) as u8));
                remaining -= take;
            }
            if remaining >= 3 {
                out.push((17, (remaining - 3) as u8));
                remaining = 0;
            }
            for _ in 0..remaining {
                out.push((0, 0));
            }
        } else {
            out.push((len, 0));
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                out.push((16, (take - 3) as u8));
                remaining -= take;
            }
            for _ in 0..remaining {
                out.push((len, 0));
            }
        }
        i += run;
    }
    out
}

/// Extra bits behind the code-length symbols 16, 17 and 18.
const fn clen_extra_bits(symbol: u8) -> u32 {
    match symbol {
        16 => 2,
        17 => 3,
        18 => 7,
        _ => 0,
    }
}

/// A dynamic block's description of its two codes (RFC 1951 §3.2.7),
/// worked out before the block type is chosen so that its size counts.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    rle: Vec<(u8, u8)>,
    clen_lengths: Vec<u8>,
    /// Size of all of it, the three block-header bits included.
    bits: u64,
}

impl DynamicHeader {
    fn new(litlen_lengths: &[u8], dist_lengths: &[u8]) -> Self {
        let used = |lengths: &[u8], least: usize| {
            lengths.len()
                - lengths[least..]
                    .iter()
                    .rev()
                    .take_while(|&&l| l == 0)
                    .count()
        };
        let hlit = used(litlen_lengths, 257);
        let hdist = used(dist_lengths, 1);
        let rle = rle_code_lengths(&[&litlen_lengths[..hlit], &dist_lengths[..hdist]].concat());

        let mut clen_freq = [0u64; NUM_CLEN];
        for &(sym, _) in &rle {
            clen_freq[sym as usize] += 1;
        }
        let clen_lengths = code_lengths(&clen_freq, 7);
        let unsent = (CLEN_ORDER[4..].iter().rev())
            .take_while(|&&sym| clen_lengths[sym] == 0)
            .count();
        let hclen = NUM_CLEN - unsent;
        let coded: u32 = (rle.iter())
            .map(|&(sym, _)| u32::from(clen_lengths[sym as usize]) + clen_extra_bits(sym))
            .sum();
        DynamicHeader {
            hlit,
            hdist,
            hclen,
            bits: 3 + 14 + 3 * hclen as u64 + u64::from(coded),
            rle,
            clen_lengths,
        }
    }

    /// Everything after the block's three header bits.
    fn write(&self, writer: &mut BitWriter) {
        writer.write_bits((self.hlit - 257) as u32, 5);
        writer.write_bits((self.hdist - 1) as u32, 5);
        writer.write_bits((self.hclen - 4) as u32, 4);
        for &order in CLEN_ORDER.iter().take(self.hclen) {
            writer.write_bits(u32::from(self.clen_lengths[order]), 3);
        }
        let clen_codes = stream_codes(&self.clen_lengths);
        for &(sym, extra) in &self.rle {
            let (code, len) = clen_codes[sym as usize];
            writer.write_bits(code, len);
            writer.write_bits(u32::from(extra), clen_extra_bits(sym));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8], level: Level) {
        let compressed = deflate(data, level);
        let decompressed = inflate(&compressed).unwrap();
        assert_eq!(decompressed, data);
    }

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 0, 1));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(257), (284, 30, 5));
        assert_eq!(length_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_boundaries() {
        assert_eq!(distance_symbol(1), (0, 0, 0));
        assert_eq!(distance_symbol(4), (3, 0, 0));
        assert_eq!(distance_symbol(5), (4, 0, 1));
        assert_eq!(distance_symbol(24577), (29, 0, 13));
        assert_eq!(distance_symbol(32768), (29, 8191, 13));
    }

    #[test]
    fn empty_input() {
        roundtrip(&[], Level::DEFAULT);
        roundtrip(&[], Level(0));
    }

    #[test]
    fn stored_blocks() {
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(0x9E3779B9) >> 24) as u8)
            .collect();
        roundtrip(&data, Level(0));
    }

    #[test]
    fn text_roundtrips_all_levels() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("line {} of some log output\n", i % 97).as_bytes());
        }
        for level in [Level(0), Level::FAST, Level::DEFAULT, Level::BEST] {
            roundtrip(&data, level);
        }
    }

    #[test]
    fn compresses_redundant_data_well() {
        let data = vec![0u8; 100_000];
        let compressed = deflate(&data, Level::DEFAULT);
        assert!(
            compressed.len() < data.len() / 50,
            "got {}",
            compressed.len()
        );
        roundtrip(&data, Level::DEFAULT);
    }

    #[test]
    fn incompressible_data_stays_near_original_size() {
        // xorshift noise: deflate should choose stored blocks and add
        // only framing overhead.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 16) as u8
            })
            .collect();
        let compressed = deflate(&data, Level::DEFAULT);
        assert!(compressed.len() <= data.len() + data.len() / 100 + 64);
        roundtrip(&data, Level::DEFAULT);
    }

    #[test]
    fn rle_code_lengths_reconstruct() {
        let lengths = [
            0u8, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3,
        ];
        let rle = rle_code_lengths(&lengths);
        // Reconstruct.
        let mut rebuilt: Vec<u8> = Vec::new();
        for &(sym, extra) in &rle {
            match sym {
                16 => {
                    let prev = *rebuilt.last().unwrap();
                    for _ in 0..(extra + 3) {
                        rebuilt.push(prev);
                    }
                }
                17 => rebuilt.extend(std::iter::repeat(0).take(extra as usize + 3)),
                18 => rebuilt.extend(std::iter::repeat(0).take(extra as usize + 11)),
                l => rebuilt.push(l),
            }
        }
        assert_eq!(rebuilt, lengths);
    }
}
