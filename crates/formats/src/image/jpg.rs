//! Lossy block-DCT image codec (JPG stand-in).
//!
//! Pipeline per channel: pad to 8×8 blocks → 2-D DCT-II → quantize with
//! a quality-scaled table → zigzag scan → DC delta coding → DEFLATE
//! entropy stage. Exactly the structure (and decode cost profile) of
//! baseline JPEG; the entropy stage uses this workspace's DEFLATE
//! instead of JPEG's bespoke Huffman tables.
//!
//! Container layout:
//! `"PJG1" | width u32 | height u32 | channels u8 | quality u8 |
//!  payload_len u64 | zlib(payload)`
//! where payload is the i16-LE coefficient stream.

use crate::FormatError;
use presto_codecs::{container, Level};
use presto_dsp::image::{ImageBuf, PixelData};

const MAGIC: &[u8; 4] = b"PJG1";

/// Base luminance quantization table (ITU-T T.81 Annex K).
#[rustfmt::skip]
const BASE_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68,109,103, 77,
    24, 35, 55, 64, 81,104,113, 92,
    49, 64, 78, 87,103,121,120,101,
    72, 92, 95, 98,112,100,103, 99,
];

/// Zigzag scan order for an 8×8 block.
#[rustfmt::skip]
const ZIGZAG: [usize; 64] = [
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
];

fn quant_table(quality: u8) -> [u16; 64] {
    // libjpeg quality scaling.
    let q = quality.clamp(1, 100) as u32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut table = [0u16; 64];
    for (out, &base) in table.iter_mut().zip(BASE_QUANT.iter()) {
        *out = (((base as u32 * scale + 50) / 100).clamp(1, 32_767)) as u16;
    }
    table
}

/// Precomputed DCT basis: `cos[(2x+1) u π / 16]` scaled.
fn dct_cos() -> [[f32; 8]; 8] {
    let mut table = [[0f32; 8]; 8];
    for (u, row) in table.iter_mut().enumerate() {
        for (x, value) in row.iter_mut().enumerate() {
            *value = ((2.0 * x as f32 + 1.0) * u as f32 * std::f32::consts::PI / 16.0).cos();
        }
    }
    table
}

fn alpha(u: usize) -> f32 {
    if u == 0 {
        1.0 / 2f32.sqrt()
    } else {
        1.0
    }
}

/// Dot product of two 8-lane rows. Fixed width with no bounds checks
/// in the loop body, so the multiply unrolls into a single vector op;
/// the summation order matches the scalar reference exactly.
#[inline]
fn dot8(a: &[f32; 8], b: &[f32; 8]) -> f32 {
    let mut sum = 0.0;
    for i in 0..8 {
        sum += a[i] * b[i];
    }
    sum
}

/// Gather column `u` of an 8×8 block into a contiguous 8-lane row, so
/// the column pass of the separable DCT runs over unit-stride data.
#[inline]
fn column8(block: &[f32; 64], u: usize) -> [f32; 8] {
    let mut col = [0f32; 8];
    for (lane, row) in col.iter_mut().zip(block.chunks_exact(8)) {
        *lane = row[u];
    }
    col
}

/// Forward 8×8 DCT-II (separable). Both passes reduce over contiguous
/// 8-lane rows — the column pass gathers each column once instead of
/// striding through the block per coefficient.
fn fdct(block: &[f32; 64], cos: &[[f32; 8]; 8]) -> [f32; 64] {
    let mut out = [0f32; 64];
    // Rows then columns.
    let mut tmp = [0f32; 64];
    for (y, row) in block.chunks_exact(8).enumerate() {
        let row: &[f32; 8] = row.try_into().unwrap();
        for u in 0..8 {
            tmp[y * 8 + u] = dot8(row, &cos[u]) * alpha(u) * 0.5;
        }
    }
    for u in 0..8 {
        let col = column8(&tmp, u);
        for v in 0..8 {
            out[v * 8 + u] = dot8(&col, &cos[v]) * alpha(v) * 0.5;
        }
    }
    out
}

/// Inverse 8×8 DCT.
fn idct(block: &[f32; 64], cos: &[[f32; 8]; 8]) -> [f32; 64] {
    // Fold alpha into the basis rows once so the inner reductions are
    // plain dot products.
    let mut acos = [[0f32; 8]; 8];
    for (v, row) in acos.iter_mut().enumerate() {
        for (y, value) in row.iter_mut().enumerate() {
            *value = alpha(v) * cos[v][y];
        }
    }
    let mut tmp = [0f32; 64];
    for u in 0..8 {
        let col = column8(block, u);
        for y in 0..8 {
            let mut sum = 0.0;
            for v in 0..8 {
                sum += col[v] * acos[v][y];
            }
            tmp[y * 8 + u] = sum * 0.5;
        }
    }
    let mut out = [0f32; 64];
    for (y, row) in tmp.chunks_exact(8).enumerate() {
        let row: &[f32; 8] = row.try_into().unwrap();
        for x in 0..8 {
            let mut sum = 0.0;
            for u in 0..8 {
                sum += row[u] * acos[u][x];
            }
            out[y * 8 + x] = sum * 0.5;
        }
    }
    out
}

/// Encode an 8-bit image. Panics if the image is not 8-bit.
pub fn encode(image: &ImageBuf, quality: u8) -> Vec<u8> {
    let pixels = match &image.data {
        PixelData::U8(v) => v,
        PixelData::U16(_) => panic!("jpg codec expects 8-bit input"),
    };
    let quant = quant_table(quality);
    let cos = dct_cos();
    let (w, h, c) = (image.width, image.height, image.channels);
    let blocks_x = w.div_ceil(8);
    let blocks_y = h.div_ceil(8);

    let mut coeffs: Vec<i16> = Vec::with_capacity(blocks_x * blocks_y * 64 * c);
    for channel in 0..c {
        let mut prev_dc = 0i16;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                // Gather the block, clamping at edges (pixel replication).
                let mut block = [0f32; 64];
                for y in 0..8 {
                    let sy = (by * 8 + y).min(h - 1);
                    for x in 0..8 {
                        let sx = (bx * 8 + x).min(w - 1);
                        block[y * 8 + x] = f32::from(pixels[(sy * w + sx) * c + channel]) - 128.0;
                    }
                }
                let freq = fdct(&block, &cos);
                let mut quantized = [0i16; 64];
                for (i, &z) in ZIGZAG.iter().enumerate() {
                    quantized[i] = (freq[z] / f32::from(quant[z])).round() as i16;
                }
                // Delta-code DC for better entropy coding.
                let dc = quantized[0];
                quantized[0] = dc.wrapping_sub(prev_dc);
                prev_dc = dc;
                coeffs.extend_from_slice(&quantized);
            }
        }
    }

    let mut payload = Vec::with_capacity(coeffs.len() * 2);
    for coefficient in &coeffs {
        payload.extend_from_slice(&coefficient.to_le_bytes());
    }
    let compressed = container::zlib_compress(&payload, Level::DEFAULT);

    let mut out = Vec::with_capacity(compressed.len() + 22);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    out.push(c as u8);
    out.push(quality);
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
        return Err(FormatError::BadHeader("missing PJG1 magic"));
    }
    let w = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let h = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let c = data[12] as usize;
    let quality = data[13];
    let payload_len = u64::from_le_bytes(data[14..22].try_into().unwrap()) as usize;
    if w == 0 || h == 0 || !(1..=4).contains(&c) {
        return Err(FormatError::BadHeader("bad dimensions"));
    }
    let payload = container::zlib_decompress(super::payload(data, payload_len)?)?;

    let blocks_x = w.div_ceil(8);
    let blocks_y = h.div_ceil(8);
    let expected = blocks_x * blocks_y * 64 * c * 2;
    if payload.len() != expected {
        return Err(FormatError::Corrupt("coefficient stream length mismatch"));
    }

    let quant = quant_table(quality);
    let cos = dct_cos();
    let mut pixels = vec![0u8; w * h * c];
    let mut offset = 0usize;
    for channel in 0..c {
        let mut prev_dc = 0i16;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let mut freq = [0f32; 64];
                for (i, &z) in ZIGZAG.iter().enumerate() {
                    let raw = i16::from_le_bytes([payload[offset], payload[offset + 1]]);
                    offset += 2;
                    let value = if i == 0 {
                        prev_dc = prev_dc.wrapping_add(raw);
                        prev_dc
                    } else {
                        raw
                    };
                    freq[z] = f32::from(value) * f32::from(quant[z]);
                }
                let block = idct(&freq, &cos);
                for y in 0..8 {
                    let sy = by * 8 + y;
                    if sy >= h {
                        break;
                    }
                    for x in 0..8 {
                        let sx = bx * 8 + x;
                        if sx >= w {
                            break;
                        }
                        pixels[(sy * w + sx) * c + channel] =
                            (block[y * 8 + x] + 128.0).round().clamp(0.0, 255.0) as u8;
                    }
                }
            }
        }
    }
    Ok(ImageBuf::from_u8(w, h, c, pixels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn natural_image(w: usize, h: usize) -> ImageBuf {
        // Smooth gradients + low-frequency texture: JPEG-friendly content.
        let mut data = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                let fx = x as f32 / w as f32;
                let fy = y as f32 / h as f32;
                data.push((120.0 + 100.0 * (fx * 3.1).sin()) as u8);
                data.push((128.0 + 80.0 * (fy * 2.7).cos()) as u8);
                data.push((128.0 + 60.0 * ((fx + fy) * 4.0).sin()) as u8);
            }
        }
        ImageBuf::from_u8(w, h, 3, data)
    }

    #[test]
    fn roundtrip_dimensions_preserved() {
        for (w, h) in [(8, 8), (64, 48), (33, 17), (1, 1)] {
            let img = natural_image(w, h);
            let encoded = encode(&img, 90);
            let decoded = decode(&encoded).unwrap();
            assert_eq!((decoded.width, decoded.height, decoded.channels), (w, h, 3));
        }
    }

    #[test]
    fn high_quality_is_nearly_lossless_on_smooth_content() {
        let img = natural_image(64, 64);
        let decoded = decode(&encode(&img, 95)).unwrap();
        let (PixelData::U8(a), PixelData::U8(b)) = (&img.data, &decoded.data) else {
            panic!("depth changed")
        };
        let max_err = a
            .iter()
            .zip(b)
            .map(|(x, y)| (i16::from(*x) - i16::from(*y)).abs())
            .max()
            .unwrap();
        assert!(max_err <= 12, "max error {max_err}");
    }

    #[test]
    fn compresses_natural_content_substantially() {
        let img = natural_image(256, 256);
        let encoded = encode(&img, 75);
        let ratio = img.nbytes() as f64 / encoded.len() as f64;
        assert!(ratio > 4.0, "compression ratio only {ratio:.1}");
    }

    #[test]
    fn lower_quality_means_smaller_files() {
        let img = natural_image(128, 128);
        let hi = encode(&img, 95).len();
        let lo = encode(&img, 30).len();
        assert!(lo < hi, "q30 {lo} should be < q95 {hi}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[0u8; 10]).is_err());
        assert!(decode(b"NOPE____________________").is_err());
        let mut valid = encode(&natural_image(16, 16), 80);
        valid.truncate(valid.len() / 2);
        assert!(decode(&valid).is_err());
    }

    #[test]
    fn single_channel_supported() {
        let grey = natural_image(32, 32).greyscale();
        let decoded = decode(&encode(&grey, 85)).unwrap();
        assert_eq!(decoded.channels, 1);
    }
}
