//! DEFLATE decompressor (RFC 1951): stored, fixed-Huffman and
//! dynamic-Huffman blocks.
//!
//! Compressed blocks are decoded by two loops over the same [`Decoder`]
//! tables. The **fast loop** runs while [`FAST_INPUT`] bytes of input
//! and [`FAST_OUTPUT`] bytes of output room remain, so that no symbol
//! can run out of either: it keeps the bit buffer in locals, refills it
//! eight bytes at a time and copies matches in eight-byte words. What it
//! cannot finish — the tail of the stream, the end of a block, any
//! malformed symbol — it leaves unconsumed for the **careful loop**,
//! which checks every symbol and is the only place an error is raised.

use std::sync::OnceLock;

use crate::bitio::BitReader;
use crate::deflate::{
    fixed_dist_lengths, fixed_litlen_lengths, CLEN_ORDER, DIST_TABLE, LENGTH_TABLE, NUM_CLEN,
};
use crate::huffman::{
    entry, entry_code_len, entry_total_bits, entry_value, Decoder, LITERAL, STOP,
};
use crate::CodecError;

/// Literal/length codes resolve up to 11 bits in one lookup.
type LitLenDecoder = Decoder<2048>;
/// Distance and code-length codes resolve up to 8 bits in one lookup.
type DistDecoder = Decoder<256>;

const END_OF_BLOCK: usize = 256;

fn litlen_entry(symbol: usize) -> u32 {
    match symbol {
        0..=255 => entry(symbol as u16, 0, LITERAL),
        257..=285 => entry(
            LENGTH_TABLE[symbol - 257].0,
            LENGTH_TABLE[symbol - 257].1,
            0,
        ),
        // End of block, and the reserved 286 and 287.
        _ => entry(symbol as u16, 0, STOP),
    }
}

fn dist_entry(symbol: usize) -> u32 {
    match DIST_TABLE.get(symbol) {
        Some(&(base, extra)) => entry(base, extra, 0),
        None => entry(0, 0, STOP), // the reserved 30 and 31
    }
}

/// No DEFLATE stream expands further: a 258-byte match costs two bits.
pub(crate) const MAX_EXPANSION: usize = 1032;
/// Input the fast loop needs ahead of it: two eight-byte refills.
const FAST_INPUT: usize = 16;
/// Output room the fast loop needs ahead of it: two literals, a
/// 258-byte match and the fifteen bytes its last two words may overshoot.
const FAST_OUTPUT: usize = 2 + 258 + 15;
/// Output is zero-filled at most this far ahead of the write position,
/// so the fill stays in cache until the decoder overwrites it.
const OUTPUT_CHUNK: usize = 64 * 1024;

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    inflate_into(data, &mut out)?;
    Ok(out)
}

/// Decompress a raw DEFLATE stream, appending to `out`. Lets callers
/// recycle a scratch buffer across shards instead of allocating one
/// per decompression.
pub fn inflate_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    inflate_stream(data, out, None, true)
}

/// [`inflate_into`] with the container's knowledge of the stream. With a
/// `declared` output size the buffer is reserved once and decoding fails
/// as soon as it would pass that size; without one it starts from a
/// guess and doubles. Either way `out` never grows past
/// [`MAX_EXPANSION`] times the input. `fast: false` decodes through the
/// careful loop alone, the reference the fast loop is tested against.
#[doc(hidden)]
pub fn inflate_stream(
    data: &[u8],
    out: &mut Vec<u8>,
    declared: Option<usize>,
    fast: bool,
) -> Result<(), CodecError> {
    let most = data.len().saturating_mul(MAX_EXPANSION);
    let size = declared.map_or(most, |size| size.min(most));
    match declared {
        Some(_) => out.reserve_exact(size),
        None => out.reserve(size.min(data.len() * 3)),
    }
    let mut output = Output {
        pos: out.len(),
        limit: out.len().saturating_add(size),
        buf: out,
    };
    let start = output.pos;
    let result = inflate_blocks(&mut BitReader::new(data), &mut output, fast);
    let end = output.pos;
    out.truncate(end);
    crate::touch::copy(data.len());
    crate::touch::copy(end - start);
    result
}

fn inflate_blocks(
    reader: &mut BitReader<'_>,
    out: &mut Output<'_>,
    fast: bool,
) -> Result<(), CodecError> {
    loop {
        let bfinal = reader.read_bit()?;
        let btype = reader.read_bits(2)?;
        match btype {
            0b00 => inflate_stored(reader, out)?,
            0b01 => {
                let (litlen, dist) = fixed_decoders();
                inflate_block(reader, out, litlen, dist, fast)?;
            }
            0b10 => {
                let (litlen, dist) = read_dynamic_tables(reader)?;
                inflate_block(reader, out, &litlen, &dist, fast)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

/// The output buffer while a stream is decoded: `buf[..pos]` is output,
/// `buf[pos..]` is zero-filled room, and `pos` may not pass `limit`.
struct Output<'a> {
    buf: &'a mut Vec<u8>,
    pos: usize,
    limit: usize,
}

impl Output<'_> {
    /// Make `buf[pos..pos + need]` writable.
    fn room(&mut self, need: usize) -> Result<(), CodecError> {
        let end = self.pos + need;
        if end <= self.buf.len() {
            return Ok(());
        }
        if end > self.limit {
            return Err(CodecError::Corrupt("output exceeds its declared size"));
        }
        let ahead = end.clamp(FAST_OUTPUT, OUTPUT_CHUNK);
        let target = end.saturating_add(ahead).min(self.limit);
        if target > self.buf.capacity() {
            let grown = target.max(self.buf.capacity() * 2).min(self.limit);
            self.buf.reserve_exact(grown - self.buf.len());
        }
        crate::touch::zero_fill(target - self.buf.len());
        self.buf.resize(target, 0);
        Ok(())
    }

    fn extend(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.room(bytes.len())?;
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
        Ok(())
    }

    /// Append `len` bytes starting `distance` back from the end.
    fn copy_match(&mut self, distance: usize, len: usize) -> Result<(), CodecError> {
        if distance > self.pos {
            return Err(CodecError::Corrupt("distance beyond output start"));
        }
        self.room(len)?;
        copy_overlapping(self.buf, self.pos, distance, len);
        self.pos += len;
        Ok(())
    }
}

/// Copy `len` bytes to `buf[pos..]` from `distance` before it. When the
/// source run is shorter than `len` (an overlapping, RLE-style match)
/// the materialized run doubles every pass, so this stays O(log len)
/// block copies while reproducing the byte-at-a-time semantics exactly.
fn copy_overlapping(buf: &mut [u8], pos: usize, distance: usize, len: usize) {
    let start = pos - distance;
    let mut done = 0;
    while done < len {
        let n = (distance + done).min(len - done);
        buf.copy_within(start..start + n, pos + done);
        done += n;
    }
}

fn inflate_stored(reader: &mut BitReader<'_>, out: &mut Output<'_>) -> Result<(), CodecError> {
    reader.align_to_byte();
    let header = reader.read_bytes(4)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    out.extend(reader.read_bytes(len as usize)?)
}

/// The two fixed-Huffman decoders (RFC 1951 §3.2.6), built once.
fn fixed_decoders() -> &'static (LitLenDecoder, DistDecoder) {
    static FIXED: OnceLock<(LitLenDecoder, DistDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let litlen = Decoder::from_lengths(&fixed_litlen_lengths(), litlen_entry);
        let dist = Decoder::from_lengths(&fixed_dist_lengths(), dist_entry);
        (
            litlen.expect("the fixed literal/length code is complete"),
            dist.expect("the fixed distance code is complete"),
        )
    })
}

fn read_dynamic_tables(
    reader: &mut BitReader<'_>,
) -> Result<(LitLenDecoder, DistDecoder), CodecError> {
    let hlit = reader.read_bits(5)? as usize + 257;
    let hdist = reader.read_bits(5)? as usize + 1;
    let hclen = reader.read_bits(4)? as usize + 4;
    if hlit > 286 {
        return Err(CodecError::Corrupt("HLIT too large"));
    }

    let mut clen_lengths = [0u8; NUM_CLEN];
    for &order in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[order] = reader.read_bits(3)? as u8;
    }
    let clen_decoder = DistDecoder::from_lengths(&clen_lengths, |sym| entry(sym as u16, 0, 0))?;

    let total = hlit + hdist;
    let mut lengths = [0u8; 286 + 32];
    let mut filled = 0;
    while filled < total {
        let sym = entry_value(clen_decoder.decode(reader)?);
        let (value, count) = match sym {
            0..=15 => (sym as u8, 1),
            16 => {
                let prev = *lengths[..filled]
                    .last()
                    .ok_or(CodecError::Corrupt("repeat with no previous length"))?;
                (prev, reader.read_bits(2)? as usize + 3)
            }
            17 => (0, reader.read_bits(3)? as usize + 3),
            _ => (0, reader.read_bits(7)? as usize + 11),
        };
        if filled + count > total {
            return Err(CodecError::Corrupt("code length repeat overflow"));
        }
        lengths[filled..filled + count].fill(value);
        filled += count;
    }

    let litlen = Decoder::from_lengths(&lengths[..hlit], litlen_entry)?;
    // A block with no distance codes transmits a single dummy length;
    // Decoder handles the 1-symbol case.
    let dist = Decoder::from_lengths(&lengths[hlit..total], dist_entry)?;
    Ok((litlen, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Output<'_>,
    litlen: &LitLenDecoder,
    dist: &DistDecoder,
    fast: bool,
) -> Result<(), CodecError> {
    loop {
        if fast {
            inflate_fast(reader, out, litlen, dist);
        }
        // One symbol, every step checked; the fast loop takes over
        // again as soon as its two conditions hold.
        let packed = litlen.decode(reader)?;
        if packed & LITERAL != 0 {
            out.extend(&[entry_value(packed) as u8])?;
            continue;
        }
        if packed & STOP != 0 {
            return if entry_value(packed) == END_OF_BLOCK {
                Ok(())
            } else {
                Err(CodecError::Corrupt("invalid literal/length symbol"))
            };
        }
        let len = entry_value(packed) + read_extra(reader, packed)?;
        let packed = dist.decode(reader)?;
        if packed & STOP != 0 {
            return Err(CodecError::Corrupt("invalid distance symbol"));
        }
        let distance = entry_value(packed) + read_extra(reader, packed)?;
        out.copy_match(distance, len)?;
    }
}

/// Read the extra bits of a symbol [`Decoder::decode`] just returned.
fn read_extra(reader: &mut BitReader<'_>, packed: u32) -> Result<usize, CodecError> {
    let extra = entry_total_bits(packed) - entry_code_len(packed);
    Ok(reader.read_bits(extra)? as usize)
}

/// Decode literals and matches while [`FAST_INPUT`] bytes of input and
/// [`FAST_OUTPUT`] bytes of room remain, and stop in front of the first
/// symbol that is neither (or that is malformed) with none of it
/// consumed.
fn inflate_fast(
    reader: &mut BitReader<'_>,
    out: &mut Output<'_>,
    litlen: &LitLenDecoder,
    dist: &DistDecoder,
) {
    let data = reader.data;
    let (mut pos, mut bit_buf, mut bit_count) = (reader.pos, reader.bit_buf, reader.bit_count);
    let buf = out.buf.as_mut_slice();
    let mut out_pos = out.pos;

    // Top the buffer up to 56..=63 bits with one unaligned load. The
    // bits above `bit_count` it leaves behind are the stream's own next
    // bits, so the next refill ORs the same values over them.
    macro_rules! refill {
        () => {
            let word = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("eight bytes"));
            bit_buf |= word << bit_count;
            let bytes = (63 - bit_count) >> 3;
            pos += bytes as usize;
            bit_count += bytes * 8;
        };
    }
    macro_rules! consume {
        ($count:expr) => {
            let count = $count;
            bit_buf >>= count;
            bit_count -= count;
        };
    }
    // The extra bits that follow the code `bit_buf` starts with.
    macro_rules! extra_value {
        ($packed:expr) => {
            ((bit_buf & ((1 << entry_total_bits($packed)) - 1)) >> entry_code_len($packed)) as usize
        };
    }
    macro_rules! literal {
        ($packed:expr) => {
            buf[out_pos] = entry_value($packed) as u8;
            out_pos += 1;
            consume!(entry_total_bits($packed));
        };
    }

    while data.len() - pos >= FAST_INPUT && buf.len() - out_pos >= FAST_OUTPUT {
        refill!();
        // 56 bits hold three literals, or one match: a 15-bit code and
        // 5 extra bits for the length, 15 and 13 for the distance.
        let mut packed = litlen.lookup(bit_buf);
        if packed & LITERAL != 0 {
            literal!(packed);
            packed = litlen.lookup(bit_buf);
            if packed & LITERAL != 0 {
                literal!(packed);
                packed = litlen.lookup(bit_buf);
                if packed & LITERAL != 0 {
                    literal!(packed);
                    continue;
                }
            }
            if bit_count < 48 {
                refill!();
            }
        }
        if packed & STOP != 0 {
            break;
        }
        let before = (pos, bit_buf, bit_count);
        let len = entry_value(packed) + extra_value!(packed);
        consume!(entry_total_bits(packed));
        let packed = dist.lookup(bit_buf);
        let distance = entry_value(packed) + extra_value!(packed);
        consume!(entry_total_bits(packed));
        if packed & STOP != 0 || distance > out_pos {
            (pos, bit_buf, bit_count) = before;
            break;
        }
        if distance >= 8 {
            // Whole words, two at a time so that the common short match
            // takes no data-dependent branch; the last pair may
            // overshoot `len`.
            let start = out_pos - distance;
            let mut done = 0;
            loop {
                buf.copy_within(start + done..start + done + 8, out_pos + done);
                buf.copy_within(start + done + 8..start + done + 16, out_pos + done + 8);
                done += 16;
                if done >= len {
                    break;
                }
            }
        } else {
            copy_overlapping(buf, out_pos, distance, len);
        }
        out_pos += len;
    }

    reader.pos = pos;
    reader.bit_buf = bit_buf & ((1 << bit_count) - 1);
    reader.bit_count = bit_count;
    out.pos = out_pos;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::deflate;
    use crate::Level;

    #[test]
    fn rejects_reserved_block_type() {
        // bits: BFINAL=1, BTYPE=11
        let data = [0b0000_0111u8];
        assert!(matches!(inflate(&data), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn rejects_len_nlen_mismatch() {
        // BFINAL=1, BTYPE=00, aligned, LEN=1, NLEN=0 (should be !1)
        let data = [0b0000_0001u8, 1, 0, 0, 0, 42];
        assert!(matches!(inflate(&data), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn rejects_truncated_stream() {
        let compressed = deflate(b"hello hello hello hello", Level::DEFAULT);
        for cut in 1..compressed.len().saturating_sub(1) {
            // Truncations must error, never panic. (Some cuts may still
            // decode if they only remove padding, so only check no-panic
            // plus wrong-output-or-error.)
            let result = inflate(&compressed[..cut]);
            if let Ok(out) = result {
                assert_ne!(out, b"hello hello hello hello");
            }
        }
    }

    #[test]
    fn known_fixed_huffman_stream() {
        // "abc" encoded with fixed Huffman by zlib (raw deflate):
        // 4b 4c 4a 06 00
        let data = [0x4B, 0x4C, 0x4A, 0x06, 0x00];
        assert_eq!(inflate(&data).unwrap(), b"abc");
    }

    #[test]
    fn known_stored_stream() {
        // BFINAL=1 BTYPE=00, LEN=3 NLEN=~3, "abc"
        let data = [0x01, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&data).unwrap(), b"abc");
    }

    #[test]
    fn multi_block_stored_stream() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let compressed = deflate(&data, Level(0));
        assert_eq!(inflate(&compressed).unwrap(), data);
    }
}
