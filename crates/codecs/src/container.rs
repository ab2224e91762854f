//! GZIP (RFC 1952) and ZLIB (RFC 1950) container framings around
//! DEFLATE payloads. These are the two formats the paper profiles.

use crate::checksum::{Adler32, Crc32};
use crate::deflate::deflate_onto;
use crate::inflate::{inflate_into, inflate_stream, MAX_EXPANSION};
use crate::{CodecError, Level};

const GZIP_MAGIC: [u8; 2] = [0x1F, 0x8B];
const GZIP_METHOD_DEFLATE: u8 = 8;

/// Compress into a GZIP member: 10-byte header, DEFLATE payload,
/// CRC-32 + ISIZE trailer.
pub fn gzip_compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&GZIP_MAGIC);
    out.push(GZIP_METHOD_DEFLATE);
    out.push(0); // FLG: no extra fields
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME: unset
                                          // XFL: 2 = max compression, 4 = fastest; approximate from level.
    out.push(if level >= Level::BEST {
        2
    } else if level <= Level::FAST {
        4
    } else {
        0
    });
    out.push(255); // OS: unknown
    let mut out = deflate_onto(out, data, level);
    out.extend_from_slice(&Crc32::checksum(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompress a GZIP member, verifying CRC-32 and ISIZE.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    gzip_decompress_into(data, &mut out)?;
    Ok(out)
}

/// Like [`gzip_decompress`], but decompresses into a caller-provided
/// buffer (cleared first) so scratch can be recycled across calls.
pub fn gzip_decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if data.len() < 18 {
        return Err(CodecError::UnexpectedEof);
    }
    if data[0..2] != GZIP_MAGIC {
        return Err(CodecError::BadHeader("missing gzip magic"));
    }
    if data[2] != GZIP_METHOD_DEFLATE {
        return Err(CodecError::BadHeader("unsupported compression method"));
    }
    let flg = data[3];
    if flg != 0 {
        return Err(CodecError::BadHeader(
            "optional gzip header fields unsupported",
        ));
    }
    let payload = &data[10..data.len() - 8];
    let trailer = &data[data.len() - 8..];
    let expected_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let expected_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    // ISIZE is the length modulo 2^32, so it sizes and bounds the output
    // only of a payload too short to inflate to 4 GiB.
    let wraps = payload.len() > u32::MAX as usize / MAX_EXPANSION;
    let declared = (!wraps).then_some(expected_len as usize);
    out.clear();
    inflate_stream(payload, out, declared, true)?;
    let actual_crc = Crc32::checksum(out);
    if actual_crc != expected_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    if out.len() as u32 != expected_len {
        return Err(CodecError::Corrupt("ISIZE mismatch"));
    }
    Ok(())
}

/// Compress into a ZLIB stream: 2-byte header, DEFLATE payload,
/// Adler-32 trailer.
pub fn zlib_compress(data: &[u8], level: Level) -> Vec<u8> {
    let cmf = 0x78u8; // deflate, 32K window
    let flevel: u8 = if level >= Level::BEST {
        3
    } else if level >= Level::DEFAULT {
        2
    } else if level.0 >= 2 {
        1
    } else {
        0
    };
    let mut flg = flevel << 6;
    // FCHECK: make (CMF*256 + FLG) a multiple of 31.
    let rem = ((u16::from(cmf) << 8) | u16::from(flg)) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    let mut out = deflate_onto(vec![cmf, flg], data, level);
    out.extend_from_slice(&Adler32::checksum(data).to_be_bytes());
    out
}

/// Decompress a ZLIB stream, verifying the header check and Adler-32.
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    zlib_decompress_into(data, &mut out)?;
    Ok(out)
}

/// Like [`zlib_decompress`], but decompresses into a caller-provided
/// buffer (cleared first) so scratch can be recycled across calls.
pub fn zlib_decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if data.len() < 6 {
        return Err(CodecError::UnexpectedEof);
    }
    let cmf = data[0];
    let flg = data[1];
    if cmf & 0x0F != 8 {
        return Err(CodecError::BadHeader("unsupported zlib compression method"));
    }
    if ((u16::from(cmf) << 8) | u16::from(flg)) % 31 != 0 {
        return Err(CodecError::BadHeader("zlib FCHECK failed"));
    }
    if flg & 0x20 != 0 {
        return Err(CodecError::BadHeader("preset dictionaries unsupported"));
    }
    let payload = &data[2..data.len() - 4];
    out.clear();
    inflate_into(payload, out)?;
    let trailer = &data[data.len() - 4..];
    let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = Adler32::checksum(out);
    if actual != expected {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(format!("sample record {:05} :: ", i).as_bytes());
        }
        data
    }

    #[test]
    fn gzip_roundtrip() {
        let data = sample_data();
        let framed = gzip_compress(&data, Level::DEFAULT);
        assert_eq!(gzip_decompress(&framed).unwrap(), data);
        assert!(framed.len() < data.len() / 2);
    }

    #[test]
    fn zlib_roundtrip() {
        let data = sample_data();
        let framed = zlib_compress(&data, Level::DEFAULT);
        assert_eq!(zlib_decompress(&framed).unwrap(), data);
    }

    #[test]
    fn zlib_header_is_valid() {
        for level in [Level(1), Level::DEFAULT, Level::BEST] {
            let framed = zlib_compress(b"x", level);
            let check = (u16::from(framed[0]) << 8) | u16::from(framed[1]);
            assert_eq!(check % 31, 0);
            assert_eq!(framed[0], 0x78);
        }
    }

    #[test]
    fn gzip_detects_corruption() {
        let data = sample_data();
        let mut framed = gzip_compress(&data, Level::DEFAULT);
        // Flip a bit in the CRC.
        let n = framed.len();
        framed[n - 5] ^= 0x01;
        assert!(matches!(
            gzip_decompress(&framed),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn zlib_detects_corruption() {
        let data = sample_data();
        let mut framed = zlib_compress(&data, Level::DEFAULT);
        let n = framed.len();
        framed[n - 1] ^= 0xFF;
        assert!(matches!(
            zlib_decompress(&framed),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(matches!(
            gzip_decompress(&[0u8; 32]),
            Err(CodecError::BadHeader(_))
        ));
        assert!(matches!(
            zlib_decompress(&[0u8; 32]),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn gzip_and_zlib_share_payload_size_shape() {
        // Same DEFLATE payload, different framing: sizes differ by the
        // fixed container overhead only (18 vs 6 bytes).
        let data = sample_data();
        let g = gzip_compress(&data, Level::DEFAULT);
        let z = zlib_compress(&data, Level::DEFAULT);
        assert_eq!(g.len() - 18, z.len() - 6);
    }

    #[test]
    fn empty_payload_roundtrips() {
        assert_eq!(
            gzip_decompress(&gzip_compress(&[], Level::DEFAULT)).unwrap(),
            Vec::<u8>::new()
        );
        assert_eq!(
            zlib_decompress(&zlib_compress(&[], Level::DEFAULT)).unwrap(),
            Vec::<u8>::new()
        );
    }
}
