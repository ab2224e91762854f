//! Lossless filtered image codec (PNG stand-in).
//!
//! Exactly PNG's core pipeline: per-scanline predictive filtering
//! (None/Sub/Up/Average/Paeth, chosen per row by the minimum-sum-of-
//! absolute-differences heuristic) followed by DEFLATE. Supports 8- and
//! 16-bit channels — the paper's Cube++ dataset ships 16-bit PNGs.
//!
//! Container layout:
//! `"PPN1" | width u32 | height u32 | channels u8 | bit_depth u8 |
//!  payload_len u64 | zlib(filter_id + filtered_scanline per row)`

use crate::FormatError;
use presto_codecs::{container, Level};
use presto_dsp::image::{ImageBuf, PixelData};

const MAGIC: &[u8; 4] = b"PPN1";

/// Paeth predictor (RFC 2083 §6.6).
fn paeth(a: i32, b: i32, c: i32) -> i32 {
    let p = a + b - c;
    let (pa, pb, pc) = ((p - a).abs(), (p - b).abs(), (p - c).abs());
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

fn filter_row(filter: u8, row: &[u8], prev: &[u8], bpp: usize, out: &mut Vec<u8>) {
    for (i, &x) in row.iter().enumerate() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = prev.get(i).copied().unwrap_or(0);
        let c = if i >= bpp {
            prev.get(i - bpp).copied().unwrap_or(0)
        } else {
            0
        };
        let predicted = match filter {
            0 => 0,
            1 => i32::from(a),
            2 => i32::from(b),
            3 => (i32::from(a) + i32::from(b)) / 2,
            4 => paeth(i32::from(a), i32::from(b), i32::from(c)),
            _ => unreachable!(),
        };
        out.push(x.wrapping_sub(predicted as u8));
    }
}

fn unfilter_row(filter: u8, row: &mut [u8], prev: &[u8], bpp: usize) -> Result<(), FormatError> {
    if filter > 4 {
        return Err(FormatError::Corrupt("unknown filter id"));
    }
    for i in 0..row.len() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = prev.get(i).copied().unwrap_or(0);
        let c = if i >= bpp {
            prev.get(i - bpp).copied().unwrap_or(0)
        } else {
            0
        };
        let predicted = match filter {
            0 => 0,
            1 => i32::from(a),
            2 => i32::from(b),
            3 => (i32::from(a) + i32::from(b)) / 2,
            4 => paeth(i32::from(a), i32::from(b), i32::from(c)),
            _ => unreachable!(),
        };
        row[i] = row[i].wrapping_add(predicted as u8);
    }
    Ok(())
}

/// Raw big-endian sample bytes per scanline (PNG stores 16-bit as BE).
fn scanlines(image: &ImageBuf) -> (Vec<u8>, usize) {
    let row_bytes = image.width * image.channels * (image.bit_depth() as usize / 8);
    let mut raw = Vec::with_capacity(row_bytes * image.height);
    match &image.data {
        PixelData::U8(v) => raw.extend_from_slice(v),
        PixelData::U16(v) => {
            for &sample in v {
                raw.extend_from_slice(&sample.to_be_bytes());
            }
        }
    }
    (raw, row_bytes)
}

/// Encode an image losslessly.
pub fn encode(image: &ImageBuf, level: Level) -> Vec<u8> {
    let (raw, row_bytes) = scanlines(image);
    let bpp = image.channels * (image.bit_depth() as usize / 8);

    let mut filtered = Vec::with_capacity(raw.len() + image.height);
    let mut scratch: Vec<u8> = Vec::with_capacity(row_bytes);
    let empty = vec![0u8; 0];
    for y in 0..image.height {
        let row = &raw[y * row_bytes..(y + 1) * row_bytes];
        let prev: &[u8] = if y == 0 {
            &empty
        } else {
            &raw[(y - 1) * row_bytes..y * row_bytes]
        };
        // Pick the filter minimizing the sum of absolute (signed) residuals.
        let mut best_filter = 0u8;
        let mut best_cost = u64::MAX;
        let mut best: Vec<u8> = Vec::new();
        for filter in 0..=4u8 {
            scratch.clear();
            filter_row(filter, row, prev, bpp, &mut scratch);
            let cost: u64 = scratch
                .iter()
                .map(|&b| u64::from((b as i8).unsigned_abs()))
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_filter = filter;
                best = scratch.clone();
            }
        }
        filtered.push(best_filter);
        filtered.extend_from_slice(&best);
    }
    let compressed = container::zlib_compress(&filtered, level);

    let mut out = Vec::with_capacity(compressed.len() + 22);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(image.width as u32).to_le_bytes());
    out.extend_from_slice(&(image.height as u32).to_le_bytes());
    out.push(image.channels as u8);
    out.push(image.bit_depth());
    out.extend_from_slice(&(compressed.len() as u64).to_le_bytes());
    out.extend_from_slice(&compressed);
    out
}

/// Decode an encoded image.
pub fn decode(data: &[u8]) -> Result<ImageBuf, FormatError> {
    if data.len() < 22 {
        return Err(FormatError::UnexpectedEof);
    }
    if &data[0..4] != MAGIC {
        return Err(FormatError::BadHeader("missing PPN1 magic"));
    }
    let w = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let h = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let c = data[12] as usize;
    let depth = data[13];
    let payload_len = u64::from_le_bytes(data[14..22].try_into().unwrap()) as usize;
    if w == 0 || h == 0 || !(1..=4).contains(&c) || !(depth == 8 || depth == 16) {
        return Err(FormatError::BadHeader("bad dimensions"));
    }
    let filtered = container::zlib_decompress(super::payload(data, payload_len)?)?;

    let bpp = c * (depth as usize / 8);
    let row_bytes = w * bpp;
    if filtered.len() != h * (row_bytes + 1) {
        return Err(FormatError::Corrupt("scanline payload length mismatch"));
    }

    let mut raw = vec![0u8; h * row_bytes];
    for y in 0..h {
        let src = &filtered[y * (row_bytes + 1)..(y + 1) * (row_bytes + 1)];
        let filter = src[0];
        let (done, rest) = raw.split_at_mut(y * row_bytes);
        let row = &mut rest[..row_bytes];
        row.copy_from_slice(&src[1..]);
        let prev: &[u8] = if y == 0 {
            &[]
        } else {
            &done[(y - 1) * row_bytes..y * row_bytes]
        };
        unfilter_row(filter, row, prev, bpp)?;
    }

    Ok(if depth == 8 {
        ImageBuf::from_u8(w, h, c, raw)
    } else {
        let samples: Vec<u16> = raw
            .chunks_exact(2)
            .map(|pair| u16::from_be_bytes([pair[0], pair[1]]))
            .collect();
        ImageBuf::from_u16(w, h, c, samples)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient8(w: usize, h: usize) -> ImageBuf {
        let mut data = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                data.push((x % 256) as u8);
                data.push((y % 256) as u8);
                data.push(((x + y) % 256) as u8);
            }
        }
        ImageBuf::from_u8(w, h, 3, data)
    }

    fn gradient16(w: usize, h: usize) -> ImageBuf {
        let mut data = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                data.push((x * 257 % 65_536) as u16);
                data.push((y * 512 % 65_536) as u16);
                data.push(((x * y) % 65_536) as u16);
            }
        }
        ImageBuf::from_u16(w, h, 3, data)
    }

    #[test]
    fn eight_bit_roundtrip_is_exact() {
        let img = gradient8(97, 41);
        let decoded = decode(&encode(&img, Level::DEFAULT)).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn sixteen_bit_roundtrip_is_exact() {
        let img = gradient16(64, 32);
        let decoded = decode(&encode(&img, Level::DEFAULT)).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn gradients_compress_well() {
        let img = gradient8(256, 256);
        let encoded = encode(&img, Level::DEFAULT);
        assert!(
            encoded.len() < img.nbytes() / 4,
            "{} vs {}",
            encoded.len(),
            img.nbytes()
        );
    }

    #[test]
    fn png_like_is_larger_than_jpg_like_on_natural_content() {
        // The paper's Cube++ comparison: PNG ~33× larger than JPG.
        // Our codecs preserve the ordering (lossless > lossy).
        let mut data = Vec::new();
        for y in 0..128usize {
            for x in 0..128usize {
                let v = (128.0
                    + 60.0 * ((x as f32) * 0.1).sin()
                    + 40.0 * ((y as f32) * 0.07).cos()
                    + 10.0 * (((x * 31 + y * 17) % 13) as f32 / 13.0))
                    as u8;
                data.extend_from_slice(&[v, v.wrapping_add(10), v.wrapping_sub(10)]);
            }
        }
        let img = ImageBuf::from_u8(128, 128, 3, data);
        let png = encode(&img, Level::DEFAULT);
        let jpg = super::super::jpg::encode(&img, 75);
        assert!(
            png.len() > jpg.len(),
            "png {} <= jpg {}",
            png.len(),
            jpg.len()
        );
    }

    #[test]
    fn random_noise_still_roundtrips() {
        let mut state = 7u32;
        let data: Vec<u8> = (0..64 * 64 * 3)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        let img = ImageBuf::from_u8(64, 64, 3, data);
        assert_eq!(decode(&encode(&img, Level::FAST)).unwrap(), img);
    }

    #[test]
    fn truncation_detected() {
        let encoded = encode(&gradient8(16, 16), Level::DEFAULT);
        assert!(decode(&encoded[..encoded.len() - 5]).is_err());
        assert!(decode(&encoded[..10]).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode(&[0xAAu8; 64]),
            Err(FormatError::BadHeader(_))
        ));
    }
}
