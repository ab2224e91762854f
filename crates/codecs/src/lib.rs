#![warn(missing_docs)]

//! # presto-codecs
//!
//! Pure-Rust compression substrate for the presto-rs workspace.
//!
//! The SIGMOD '22 paper profiles every preprocessing strategy with the
//! GZIP and ZLIB compression formats. Both wrap the same DEFLATE
//! (RFC 1951) payload in different containers (RFC 1952 / RFC 1950), so
//! this crate implements:
//!
//! - [`deflate`]: an LZ77 + Huffman compressor with stored, fixed-Huffman
//!   and dynamic-Huffman blocks and tunable effort levels,
//! - [`inflate`]: the matching decompressor,
//! - [`container`]: GZIP (CRC-32 trailer) and ZLIB (Adler-32 trailer)
//!   framings,
//! - [`checksum`]: CRC-32 (IEEE) and Adler-32,
//! - [`Codec`]: the user-facing enum used by pipeline strategies.
//!
//! It is a real, self-inverse compressor: `decompress(compress(x)) == x`
//! for arbitrary input (verified by property tests), and [`inflate`]
//! also decodes what zlib writes (`tests/vectors.rs`), as zlib decodes
//! what [`deflate`] writes (`scripts/gen_inflate_vectors.py --check`).
//! Inflate is table-driven and runs at memory-adjacent speed; deflate
//! searches two bounded hash chains and at level 6 compresses a shard of
//! f32 tensors at ~30 ns per byte (zlib -6: 56, for an output 0.6 %
//! larger), some 25 times what inflate takes.

pub mod bitio;
pub mod checksum;
pub mod container;
pub mod deflate;
pub mod huffman;
pub mod inflate;
pub mod lz77;

use std::fmt;

/// Errors produced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the stream was complete.
    UnexpectedEof,
    /// A structural problem in the compressed bitstream.
    Corrupt(&'static str),
    /// A checksum stored in the container did not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the container.
        expected: u32,
        /// Checksum computed over the decoded payload.
        actual: u32,
    },
    /// The container header identified an unsupported format.
    BadHeader(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            CodecError::BadHeader(what) => write!(f, "bad container header: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Compression effort, mirroring zlib's 1..=9 scale.
///
/// Levels control how hard the LZ77 matcher searches; level 0 emits
/// stored (uncompressed) blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Level(pub u8);

impl Level {
    /// Fastest compressing level that still performs matching.
    pub const FAST: Level = Level(1);
    /// The zlib-compatible default.
    pub const DEFAULT: Level = Level(6);
    /// Maximum effort.
    pub const BEST: Level = Level(9);

    /// Maximum hash-chain traversal for this level.
    pub(crate) fn max_chain(self) -> usize {
        match self.0 {
            0 => 0,
            1 => 4,
            2 => 8,
            3 => 16,
            4 => 32,
            5 => 64,
            6 => 128,
            7 => 256,
            8 => 512,
            _ => 1024,
        }
    }

    /// Stop searching once a match at least this long is found.
    pub(crate) fn good_enough(self) -> usize {
        match self.0 {
            0..=3 => 16,
            4..=6 => 64,
            7..=8 => 128,
            _ => lz77::MAX_MATCH,
        }
    }

    /// A held-back match at least this long gets a quarter of the chain
    /// for its lazy probe (zlib's `good_length`).
    pub(crate) fn good_length(self) -> usize {
        match self.0 {
            0..=4 => 4,
            5..=7 => 8,
            _ => 32,
        }
    }

    /// A held-back match at least this long gets no lazy probe at all
    /// (zlib's `max_lazy`).
    pub(crate) fn max_lazy(self) -> usize {
        match self.0 {
            0..=1 => 4,
            2 => 5,
            3 => 6,
            4 => 8,
            5..=6 => 16,
            7 => 32,
            8 => 128,
            _ => lz77::MAX_MATCH,
        }
    }
}

impl Default for Level {
    fn default() -> Self {
        Level::DEFAULT
    }
}

/// A compression codec selectable per preprocessing strategy.
///
/// `None` stores data raw; `Gzip` and `Zlib` share the DEFLATE payload
/// and differ only in framing and checksum, exactly like the formats
/// the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// No compression.
    #[default]
    None,
    /// RFC 1952 container around DEFLATE, CRC-32 checksum.
    Gzip(Level),
    /// RFC 1950 container around DEFLATE, Adler-32 checksum.
    Zlib(Level),
}

impl Codec {
    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Gzip(_) => "GZIP",
            Codec::Zlib(_) => "ZLIB",
        }
    }

    /// Compress `data`, returning the framed stream.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Gzip(level) => container::gzip_compress(data, *level),
            Codec::Zlib(level) => container::zlib_compress(data, *level),
        }
    }

    /// Decompress a stream previously produced by [`Codec::compress`].
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Gzip(_) => container::gzip_decompress(data),
            Codec::Zlib(_) => container::zlib_decompress(data),
        }
    }

    /// Decompress into a caller-provided buffer (cleared first),
    /// letting hot paths recycle scratch instead of allocating per
    /// call.
    pub fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        match self {
            Codec::None => {
                out.clear();
                out.extend_from_slice(data);
                Ok(())
            }
            Codec::Gzip(_) => container::gzip_decompress_into(data, out),
            Codec::Zlib(_) => container::zlib_decompress_into(data, out),
        }
    }

    /// Space saving fraction in `[0, 1)` achieved on `data`
    /// (the paper's headline compression metric).
    pub fn space_saving(&self, data: &[u8]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let compressed = self.compress(data).len() as f64;
        (1.0 - compressed / data.len() as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_none_roundtrip_is_identity() {
        let data = b"hello world".to_vec();
        assert_eq!(Codec::None.compress(&data), data);
        assert_eq!(Codec::None.decompress(&data).unwrap(), data);
    }

    #[test]
    fn codec_names_match_paper() {
        assert_eq!(Codec::Gzip(Level::DEFAULT).name(), "GZIP");
        assert_eq!(Codec::Zlib(Level::DEFAULT).name(), "ZLIB");
    }

    #[test]
    fn space_saving_on_redundant_data_is_high() {
        let data = vec![42u8; 64 * 1024];
        let saving = Codec::Gzip(Level::DEFAULT).space_saving(&data);
        assert!(saving > 0.95, "saving was {saving}");
    }

    #[test]
    fn space_saving_empty_input_is_zero() {
        assert_eq!(Codec::Zlib(Level::DEFAULT).space_saving(&[]), 0.0);
    }

    #[test]
    fn levels_order_effort() {
        assert!(Level::FAST.max_chain() < Level::DEFAULT.max_chain());
        assert!(Level::DEFAULT.max_chain() < Level::BEST.max_chain());
    }
}
