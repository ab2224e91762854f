//! LSB-first bit-level I/O as required by DEFLATE (RFC 1951 §3.1.1).
//!
//! Data elements other than Huffman codes are packed starting at the
//! least-significant bit of each byte; Huffman codes are packed
//! most-significant-bit first, which callers achieve by reversing the
//! code bits before calling [`BitWriter::write_bits`].

use crate::CodecError;

/// Accumulates bits LSB-first into a byte vector, a 32-bit word at a
/// time: `bit_buf` holds `bit_count` (at most 31) bits not yet in `out`.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `out`, with room for `additional` bytes
    /// reserved up front.
    pub fn appending(mut out: Vec<u8>, additional: usize) -> Self {
        out.reserve(additional);
        BitWriter {
            out,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Write the low `count` bits of `bits` (LSB first). `count <= 32`.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count));
        self.bit_buf |= (bits as u64) << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.out
                .extend_from_slice(&(self.bit_buf as u32).to_le_bytes());
            self.bit_buf >>= 32;
            self.bit_count -= 32;
        }
    }

    /// Write a Huffman `code` of `len` bits, MSB of the code first.
    pub fn write_code(&mut self, code: u32, len: u32) {
        self.write_bits(reverse_bits(code, len), len);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let bytes = self.bit_count.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bit_buf.to_le_bytes()[..bytes]);
        self.bit_buf = 0;
        self.bit_count = 0;
    }

    /// Append raw bytes; the writer must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.bit_count % 8, 0, "write_bytes requires byte alignment");
        self.align_to_byte();
        self.out.extend_from_slice(bytes);
    }

    /// Flush any partial byte and return the accumulated buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }

    /// Bytes written so far (excluding a partial trailing byte).
    pub fn byte_len(&self) -> usize {
        self.out.len() + (self.bit_count / 8) as usize
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// `bit_buf` holds `bit_count` (at most 63) unread bits starting at its
/// least significant bit and zeros above them; `pos` is the next input byte
/// not yet in `bit_buf`. The fields are crate-visible so inflate's fast
/// loop can keep them in locals and store them back.
#[derive(Debug)]
pub struct BitReader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) bit_buf: u64,
    pub(crate) bit_count: u32,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    fn refill(&mut self) {
        while self.bit_count < 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Buffer as many whole bytes as fit (at least 56 bits unless the
    /// input ends first) and return the bits with their count, consuming
    /// nothing. Bits past the end of the input read as zero.
    pub fn peek(&mut self) -> (u64, u32) {
        self.refill();
        (self.bit_buf, self.bit_count)
    }

    /// Drop `count` bits that a [`BitReader::peek`] reported as buffered.
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.bit_count);
        self.bit_buf >>= count;
        self.bit_count -= count;
    }

    /// Read `count` bits (LSB first). `count <= 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
            if self.bit_count < count {
                return Err(CodecError::UnexpectedEof);
            }
        }
        let value = (self.bit_buf & ((1u64 << count) - 1)) as u32;
        self.consume(count);
        Ok(value)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<u32, CodecError> {
        self.read_bits(1)
    }

    /// Drop buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.consume(self.bit_count % 8);
    }

    /// Borrow the next `len` raw bytes of the input; must be
    /// byte-aligned.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        debug_assert_eq!(self.bit_count % 8, 0);
        // Un-read the buffered whole bytes, then slice the input.
        let start = self.bytes_consumed();
        let end = start
            .checked_add(len)
            .filter(|&end| end <= self.data.len())
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        self.bit_buf = 0;
        self.bit_count = 0;
        Ok(&self.data[start..end])
    }

    /// Bytes of input consumed, counting buffered-but-unread bits as consumed.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.bit_count as usize).div_ceil(8)
    }
}

/// Reverse the low `len` bits of `value`.
pub fn reverse_bits(value: u32, len: u32) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        return 0;
    }
    value.reverse_bits() >> (32 - len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0b10110, 5);
        w.write_bits(0xBEEF, 16);
        w.write_bits(0x1FFFF, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
        assert_eq!(r.read_bits(5).unwrap(), 0b10110);
        assert_eq!(r.read_bits(16).unwrap(), 0xBEEF);
        assert_eq!(r.read_bits(17).unwrap(), 0x1FFFF);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.align_to_byte();
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_to_byte();
        assert_eq!(r.read_bytes(3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b1011, 4), 0b1101);
        assert_eq!(reverse_bits(0, 0), 0);
        assert_eq!(reverse_bits(1, 1), 1);
    }

    #[test]
    fn read_bytes_straddling_bitbuffer() {
        let mut w = BitWriter::new();
        w.write_bytes(&(0u8..64).collect::<Vec<_>>());
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // Force the internal 64-bit buffer to fill, then read raw bytes
        // that must come partly from the buffer and partly from input.
        assert_eq!(r.read_bits(8).unwrap(), 0);
        r.align_to_byte();
        let rest = r.read_bytes(63).unwrap();
        assert_eq!(rest, (1u8..64).collect::<Vec<_>>());
    }
}
