//! Canonical Huffman coding: length-limited code construction
//! (package-merge), canonical code assignment (RFC 1951 §3.2.2) and a
//! table-driven canonical decoder.

use crate::bitio::{reverse_bits, BitReader};
use crate::CodecError;

/// Maximum code length permitted by DEFLATE.
pub const MAX_BITS: usize = 15;

/// Compute length-limited Huffman code lengths for `freqs` using the
/// package-merge algorithm. Symbols with zero frequency get length 0.
///
/// Returns one length per symbol, each `<= max_len`.
pub fn code_lengths(freqs: &[u64], max_len: usize) -> Vec<u8> {
    assert!(max_len <= MAX_BITS);
    let mut leaves: Vec<(u64, usize)> = freqs
        .iter()
        .copied()
        .zip(0..)
        .filter(|&(weight, _)| weight > 0)
        .collect();
    let mut lengths = vec![0u8; freqs.len()];
    match leaves[..] {
        [] => return lengths,
        [(_, only)] => {
            // A single symbol still needs a 1-bit code so the decoder
            // has something to read.
            lengths[only] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= leaves.len(),
        "cannot fit {} symbols in {}-bit codes",
        leaves.len(),
        max_len
    );
    leaves.sort_by_key(|&(weight, _)| weight);

    // Package-merge: each of the `max_len` lists is the leaves merged,
    // in weight order, with the packages that pair up the list before.
    // A list's items are a prefix of its leaves and a prefix of its
    // packages, so all that is kept of one is which items are leaves.
    let mut weights: Vec<u64> = leaves.iter().map(|&(weight, _)| weight).collect();
    let mut lists = vec![vec![true; leaves.len()]];
    for _ in 1..max_len {
        let mut packages = weights
            .chunks_exact(2)
            .map(|pair| pair[0] + pair[1])
            .peekable();
        let mut leaf_weights = leaves.iter().map(|&(weight, _)| weight).peekable();
        let mut merged = Vec::with_capacity(leaves.len() + weights.len() / 2);
        let mut is_leaf = Vec::with_capacity(merged.capacity());
        loop {
            let leaf_next = match (packages.peek(), leaf_weights.peek()) {
                (Some(package), Some(leaf)) => leaf < package,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            let next = if leaf_next {
                leaf_weights.next()
            } else {
                packages.next()
            };
            merged.extend(next);
            is_leaf.push(leaf_next);
        }
        weights = merged;
        lists.push(is_leaf);
    }

    // The first 2n-2 items of the last list are taken, and of each list
    // before it the items that the packages taken after it pair up.
    // Each time a leaf is taken its code grows by one bit.
    let mut take = 2 * leaves.len() - 2;
    for is_leaf in lists.iter().rev() {
        let taken_leaves = is_leaf[..take].iter().filter(|&&leaf| leaf).count();
        for &(_, symbol) in &leaves[..taken_leaves] {
            lengths[symbol] += 1;
        }
        take = 2 * (take - taken_leaves);
    }
    lengths
}

/// Assign canonical codes to symbols given their code lengths
/// (RFC 1951 §3.2.2). Returns `(code, length)` pairs; zero-length
/// symbols get `(0, 0)`.
pub fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let max = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u32; max + 1];
    for &len in lengths {
        if len > 0 {
            bl_count[len as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max + 2];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&len| {
            if len == 0 {
                (0, 0)
            } else {
                let c = next_code[len as usize];
                next_code[len as usize] += 1;
                (c, len)
            }
        })
        .collect()
}

/// Validates that the lengths describe a full (or under-full) prefix code.
/// DEFLATE requires complete codes except for single-code special cases.
pub fn kraft_sum(lengths: &[u8]) -> f64 {
    lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 1.0 / f64::from(1u32 << l))
        .sum()
}

/// Largest alphabet a [`Decoder`] holds (DEFLATE's literal/length one).
pub const MAX_SYMBOLS: usize = 288;

/// Entry flag: the value is an output byte.
pub const LITERAL: u32 = 1 << 12;
/// Entry flag: nothing a match-copy loop handles — end of block, a
/// reserved symbol, or (with length 0) no code at all.
pub const STOP: u32 = 1 << 13;
const NO_CODE: u32 = STOP;

/// Pack what a decoder needs to know about one symbol: its `value` (a
/// literal byte, a base length or distance, or the symbol itself), how
/// many `extra_bits` follow its code, and [`LITERAL`] / [`STOP`].
/// [`Decoder::from_lengths`] adds the code length twice: to the low
/// byte, which then counts every bit the symbol takes from the stream
/// (one shift consumes code and extra bits together), and on its own in
/// bits 8..=11.
pub const fn entry(value: u16, extra_bits: u8, flags: u32) -> u32 {
    (value as u32) << 16 | flags | extra_bits as u32
}

/// The `value` an entry was packed with.
pub const fn entry_value(entry: u32) -> usize {
    (entry >> 16) as usize
}

/// The length in bits of the code an entry was decoded from.
pub const fn entry_code_len(entry: u32) -> u32 {
    (entry >> 8) & 0xF
}

/// Code length plus extra bits: all the input a decoded symbol takes.
pub const fn entry_total_bits(entry: u32) -> u32 {
    entry & 0xFF
}

/// Canonical Huffman decoder: one packed lookup table per code.
///
/// `table` is indexed by the next `log2(SIZE)` bits of input and holds,
/// for every code no longer than that, the symbol's [`entry`] and code
/// length: one load decodes a symbol and says how far to advance. Longer
/// codes (each rarer than one symbol in `SIZE`) leave [`STOP`] with
/// length 0 there and are resolved by the canonical first-code walk,
/// seeded with the bits already looked at. Everything is a fixed array:
/// building a decoder allocates nothing.
#[derive(Debug, Clone)]
pub struct Decoder<const SIZE: usize> {
    table: [u32; SIZE],
    /// `first_code[len]`: smallest canonical code of length `len`.
    first_code: [u32; MAX_BITS + 1],
    /// `first_index[len]`: index into `sorted` of that smallest code.
    first_index: [u32; MAX_BITS + 1],
    /// Count of codes per length.
    count: [u32; MAX_BITS + 1],
    /// Entries ordered by (length, symbol).
    sorted: [u32; MAX_SYMBOLS],
}

impl<const SIZE: usize> Decoder<SIZE> {
    const INDEX_BITS: u32 = SIZE.trailing_zeros();

    /// Build a decoder from per-symbol code lengths; `entry_of(symbol)`
    /// is the [`entry`] a decoded symbol yields.
    pub fn from_lengths(
        lengths: &[u8],
        entry_of: impl Fn(usize) -> u32,
    ) -> Result<Self, CodecError> {
        assert!(SIZE.is_power_of_two() && lengths.len() <= MAX_SYMBOLS);
        let mut count = [0u32; MAX_BITS + 1];
        for &len in lengths {
            if len as usize > MAX_BITS {
                return Err(CodecError::Corrupt("code length exceeds 15 bits"));
            }
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let total: u32 = count.iter().sum();
        if total == 0 {
            return Err(CodecError::Corrupt("empty Huffman code"));
        }
        // Over-subscribed codes are invalid bitstreams.
        let mut left = 1i64;
        for &n in &count[1..=MAX_BITS] {
            left <<= 1;
            left -= i64::from(n);
            if left < 0 {
                return Err(CodecError::Corrupt("over-subscribed Huffman code"));
            }
        }

        let mut first_code = [0u32; MAX_BITS + 1];
        let mut first_index = [0u32; MAX_BITS + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_BITS {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }

        let mut table = [NO_CODE; SIZE];
        let mut sorted = [NO_CODE; MAX_SYMBOLS];
        let mut next = first_index;
        for (symbol, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let slot = &mut next[len as usize];
            let code = first_code[len as usize] + (*slot - first_index[len as usize]);
            let packed = entry_of(symbol) + u32::from(len) * 0x101;
            sorted[*slot as usize] = packed;
            *slot += 1;
            // Codes arrive MSB first, so a table index is the reversed
            // code followed by any combination of the bits after it; a
            // code longer than the index is left to `lookup_long`.
            if u32::from(len) <= Self::INDEX_BITS {
                for i in (reverse_bits(code, len.into()) as usize..SIZE).step_by(1 << len) {
                    table[i] = packed;
                }
            }
        }
        Ok(Decoder {
            table,
            first_code,
            first_index,
            count,
            sorted,
        })
    }

    /// The entry of the code that the low 15 of `bits` (LSB first) start
    /// with, its length included; [`STOP`] with length 0 if they start none.
    #[inline(always)]
    pub(crate) fn lookup(&self, bits: u64) -> u32 {
        match self.table[bits as usize & (SIZE - 1)] {
            NO_CODE => self.lookup_long(bits),
            packed => packed,
        }
    }

    #[cold]
    fn lookup_long(&self, bits: u64) -> u32 {
        let mut code = reverse_bits(bits as u32 & (SIZE as u32 - 1), Self::INDEX_BITS);
        for len in Self::INDEX_BITS as usize + 1..=MAX_BITS {
            code = (code << 1) | (bits >> (len - 1)) as u32 & 1;
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                return self.sorted[(self.first_index[len] + offset) as usize];
            }
        }
        NO_CODE
    }

    /// Decode one symbol from `reader`, returning its entry.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let (bits, available) = reader.peek();
        let packed = self.lookup(bits);
        let len = entry_code_len(packed);
        // Bits past the end of the input peek as zeros, so a code only
        // counts when all of it was really there.
        if len == 0 || len > available {
            return Err(if available < MAX_BITS as u32 {
                CodecError::UnexpectedEof
            } else {
                CodecError::Corrupt("Huffman code longer than 15 bits")
            });
        }
        reader.consume(len);
        Ok(packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    /// A decoder over plain symbols: each entry's value is its index.
    fn symbol_decoder(lengths: &[u8]) -> Result<Decoder<256>, CodecError> {
        Decoder::from_lengths(lengths, |sym| entry(sym as u16, 0, 0))
    }

    fn roundtrip(freqs: &[u64], max_len: usize) {
        let lengths = code_lengths(freqs, max_len);
        for &l in &lengths {
            assert!(l as usize <= max_len);
        }
        let active = freqs.iter().filter(|&&f| f > 0).count();
        if active >= 2 {
            assert!(
                (kraft_sum(&lengths) - 1.0).abs() < 1e-9,
                "code must be complete"
            );
        }
        let codes = canonical_codes(&lengths);
        let decoder = symbol_decoder(&lengths).unwrap();
        // Encode every active symbol once and decode it back.
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len > 0 {
                w.write_code(code, len as u32);
                expected.push(sym as u16);
            }
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &sym in &expected {
            assert_eq!(entry_value(decoder.decode(&mut r).unwrap()), sym as usize);
        }
    }

    #[test]
    fn basic_code_shapes() {
        // Textbook example: skewed frequencies produce skewed lengths.
        let lengths = code_lengths(&[45, 13, 12, 16, 9, 5], 15);
        assert_eq!(lengths[0], 1);
        assert!(lengths[5] >= 3);
        roundtrip(&[45, 13, 12, 16, 9, 5], 15);
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-like frequencies force deep trees without a limit.
        let freqs: Vec<u64> = {
            let mut v = vec![1u64, 1];
            for i in 2..30 {
                let next = v[i - 1] + v[i - 2];
                v.push(next);
            }
            v
        };
        let lengths = code_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l <= 15 && l > 0));
        assert!((kraft_sum(&lengths) - 1.0).abs() < 1e-9);
        roundtrip(&freqs, 15);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lengths = code_lengths(&[0, 7, 0], 15);
        assert_eq!(lengths, vec![0, 1, 0]);
        let decoder = symbol_decoder(&lengths).unwrap();
        let mut w = BitWriter::new();
        w.write_code(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(entry_value(decoder.decode(&mut r).unwrap()), 1);
    }

    #[test]
    fn uniform_frequencies() {
        roundtrip(&[10; 8], 15);
        roundtrip(&[10; 7], 15);
    }

    #[test]
    fn oversubscribed_code_rejected() {
        // Three 1-bit codes cannot exist.
        assert!(symbol_decoder(&[1, 1, 1]).is_err());
    }

    #[test]
    fn empty_code_rejected() {
        assert!(symbol_decoder(&[0, 0, 0]).is_err());
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4)
        let codes = canonical_codes(&[3, 3, 3, 3, 3, 2, 4, 4]);
        let expected = [
            (0b010, 3),
            (0b011, 3),
            (0b100, 3),
            (0b101, 3),
            (0b110, 3),
            (0b00, 2),
            (0b1110, 4),
            (0b1111, 4),
        ];
        for (got, want) in codes.iter().zip(expected.iter()) {
            assert_eq!(got, want);
        }
    }
}
