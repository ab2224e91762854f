//! The bit-serial inflate this crate shipped before its table decoder,
//! kept as the reference the new loops are tested against: one
//! `read_bit` per code bit, one `Vec::push` per literal, no lookup
//! table. It also reports what a stream contains, so that a vector can
//! prove it reaches the code paths it was made for.

#![allow(dead_code)]

pub mod deflate;

use presto_codecs::bitio::BitReader;
use presto_codecs::deflate::{
    fixed_dist_lengths, fixed_litlen_lengths, CLEN_ORDER, DIST_TABLE, LENGTH_TABLE,
};
use presto_codecs::huffman::MAX_BITS;
use presto_codecs::CodecError;

/// Canonical Huffman decoder walking the code one bit at a time.
pub struct Decoder {
    first_code: [u32; MAX_BITS + 1],
    first_index: [u32; MAX_BITS + 1],
    count: [u32; MAX_BITS + 1],
    symbols: Vec<u16>,
}

impl Decoder {
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
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
        let mut symbols = vec![0u16; total as usize];
        let mut next = first_index;
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                symbols[next[len as usize] as usize] = sym as u16;
                next[len as usize] += 1;
            }
        }
        Ok(Decoder {
            first_code,
            first_index,
            count,
            symbols,
        })
    }

    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let mut code = 0u32;
        for len in 1..=MAX_BITS {
            code = (code << 1) | reader.read_bit()?;
            let n = self.count[len];
            if n > 0 {
                let first = self.first_code[len];
                if code < first + n {
                    if code < first {
                        return Err(CodecError::Corrupt("invalid Huffman code"));
                    }
                    let idx = self.first_index[len] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(CodecError::Corrupt("Huffman code longer than 15 bits"))
    }
}

/// What a stream was seen to contain.
#[derive(Debug, Default)]
pub struct Seen {
    pub stored_blocks: usize,
    pub fixed_blocks: usize,
    pub dynamic_blocks: usize,
    pub longest_code: u8,
    pub longest_match: usize,
    pub shortest_distance: usize,
    pub longest_distance: usize,
}

pub fn inflate(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    inflate_seen(data).map(|(out, _)| out)
}

pub fn inflate_seen(data: &[u8]) -> Result<(Vec<u8>, Seen), CodecError> {
    let mut reader = BitReader::new(data);
    let mut out = Vec::new();
    let mut seen = Seen {
        shortest_distance: usize::MAX,
        ..Seen::default()
    };
    loop {
        let bfinal = reader.read_bit()?;
        match reader.read_bits(2)? {
            0b00 => {
                seen.stored_blocks += 1;
                reader.align_to_byte();
                let header = reader.read_bytes(4)?;
                let len = u16::from_le_bytes([header[0], header[1]]);
                let nlen = u16::from_le_bytes([header[2], header[3]]);
                if len != !nlen {
                    return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
                }
                out.extend_from_slice(reader.read_bytes(len as usize)?);
            }
            0b01 => {
                seen.fixed_blocks += 1;
                let litlen = Decoder::from_lengths(&fixed_litlen_lengths())?;
                let dist = Decoder::from_lengths(&fixed_dist_lengths())?;
                inflate_block(&mut reader, &mut out, &litlen, &dist, &mut seen)?;
            }
            0b10 => {
                seen.dynamic_blocks += 1;
                let (litlen, dist) = read_dynamic_tables(&mut reader, &mut seen)?;
                inflate_block(&mut reader, &mut out, &litlen, &dist, &mut seen)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if bfinal == 1 {
            return Ok((out, seen));
        }
    }
}

fn read_dynamic_tables(
    reader: &mut BitReader<'_>,
    seen: &mut Seen,
) -> Result<(Decoder, Decoder), CodecError> {
    let hlit = reader.read_bits(5)? as usize + 257;
    let hdist = reader.read_bits(5)? as usize + 1;
    let hclen = reader.read_bits(4)? as usize + 4;
    if hlit > 286 {
        return Err(CodecError::Corrupt("HLIT too large"));
    }
    let mut clen_lengths = [0u8; 19];
    for &order in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[order] = reader.read_bits(3)? as u8;
    }
    let clen_decoder = Decoder::from_lengths(&clen_lengths)?;
    let total = hlit + hdist;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let sym = clen_decoder.decode(reader)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or(CodecError::Corrupt("repeat with no previous length"))?;
                let count = reader.read_bits(2)? + 3;
                lengths.extend(std::iter::repeat_n(prev, count as usize));
            }
            17 => {
                let count = reader.read_bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0u8, count as usize));
            }
            18 => {
                let count = reader.read_bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0u8, count as usize));
            }
            _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
        }
    }
    if lengths.len() != total {
        return Err(CodecError::Corrupt("code length repeat overflow"));
    }
    let litlen = Decoder::from_lengths(&lengths[..hlit])?;
    let dist = Decoder::from_lengths(&lengths[hlit..])?;
    seen.longest_code = lengths.iter().copied().fold(seen.longest_code, u8::max);
    Ok((litlen, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    litlen: &Decoder,
    dist: &Decoder,
    seen: &mut Seen,
) -> Result<(), CodecError> {
    loop {
        let sym = litlen.decode(reader)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LENGTH_TABLE[(sym - 257) as usize];
                let len = base as usize + reader.read_bits(u32::from(extra))? as usize;
                let dsym = dist.decode(reader)?;
                if dsym as usize >= DIST_TABLE.len() {
                    return Err(CodecError::Corrupt("invalid distance symbol"));
                }
                let (dbase, dextra) = DIST_TABLE[dsym as usize];
                let distance = dbase as usize + reader.read_bits(u32::from(dextra))? as usize;
                if distance > out.len() {
                    return Err(CodecError::Corrupt("distance beyond output start"));
                }
                seen.longest_match = seen.longest_match.max(len);
                seen.shortest_distance = seen.shortest_distance.min(distance);
                seen.longest_distance = seen.longest_distance.max(distance);
                for _ in 0..len {
                    out.push(out[out.len() - distance]);
                }
            }
            _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
        }
    }
}
