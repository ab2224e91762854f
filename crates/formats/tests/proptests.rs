//! Property tests for the media codecs: lossless round-trips, bounded
//! lossy error, and decoder robustness against arbitrary input.

use presto_dsp::image::ImageBuf;
use presto_formats::audio::{adpcm, flac};
use presto_formats::container::{ContainerReader, ContainerWriter};
use presto_formats::image::{jpg, png};
use presto_formats::FormatError;
use presto_tensor::Tensor;
use proptest::prelude::*;

fn arb_image8() -> impl Strategy<Value = ImageBuf> {
    (
        1usize..40,
        1usize..40,
        prop_oneof![Just(1usize), Just(3usize)],
    )
        .prop_flat_map(|(w, h, c)| {
            proptest::collection::vec(any::<u8>(), w * h * c)
                .prop_map(move |data| ImageBuf::from_u8(w, h, c, data))
        })
}

fn arb_image16() -> impl Strategy<Value = ImageBuf> {
    (
        1usize..24,
        1usize..24,
        prop_oneof![Just(1usize), Just(3usize)],
    )
        .prop_flat_map(|(w, h, c)| {
            proptest::collection::vec(any::<u16>(), w * h * c)
                .prop_map(move |data| ImageBuf::from_u16(w, h, c, data))
        })
}

/// A header whose payload length points past the input — or, added to
/// the header size, past `usize::MAX` — is a short read, not a panic.
#[test]
fn image_payload_len_is_checked() {
    type Decode = fn(&[u8]) -> Result<ImageBuf, FormatError>;
    let image = ImageBuf::from_u8(4, 4, 3, vec![9; 48]);
    let cases: [(Vec<u8>, Decode); 2] = [
        (jpg::encode(&image, 85), jpg::decode),
        (png::encode(&image, presto_codecs::Level::FAST), png::decode),
    ];
    for (encoded, decode) in cases {
        assert!(decode(&encoded).is_ok());
        for payload_len in [u64::MAX, u64::MAX - 21, encoded.len() as u64 + 1] {
            let mut lying = encoded.clone();
            lying[14..22].copy_from_slice(&payload_len.to_le_bytes());
            assert_eq!(decode(&lying).err(), Some(FormatError::UnexpectedEof));
        }
    }
}

/// A chunk whose `offset + len` wraps around is rejected when the index
/// is parsed.
#[test]
fn container_chunk_range_is_checked() {
    let mut writer = ContainerWriter::new();
    writer.append_chunk(
        "signal",
        &Tensor::from_vec(vec![3], vec![1.0f64, 2.0, 3.0]).unwrap(),
    );
    let mut bytes = writer.finish();
    // The single index entry sits just before the 8-byte trailer.
    let entry = bytes.len() - 8 - 16;
    bytes[entry + 8..entry + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        ContainerReader::open(&bytes),
        Err(FormatError::Corrupt("chunk extends into index"))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lossless image codec round-trips any 8-bit image exactly.
    #[test]
    fn png_like_roundtrips_8bit(img in arb_image8()) {
        let encoded = png::encode(&img, presto_codecs::Level::FAST);
        prop_assert_eq!(png::decode(&encoded).unwrap(), img);
    }

    /// …and any 16-bit image.
    #[test]
    fn png_like_roundtrips_16bit(img in arb_image16()) {
        let encoded = png::encode(&img, presto_codecs::Level::FAST);
        prop_assert_eq!(png::decode(&encoded).unwrap(), img);
    }

    /// The lossy image codec preserves dimensions and bounds per-pixel
    /// error at high quality.
    #[test]
    fn jpg_like_dimension_and_error_bounds(img in arb_image8()) {
        let encoded = jpg::encode(&img, 95);
        let decoded = jpg::decode(&encoded).unwrap();
        prop_assert_eq!(decoded.width, img.width);
        prop_assert_eq!(decoded.height, img.height);
        prop_assert_eq!(decoded.channels, img.channels);
        // Random noise is the worst case for a DCT codec; error stays
        // bounded (quantization table max at q95 is small).
        let (presto_dsp::image::PixelData::U8(a), presto_dsp::image::PixelData::U8(b)) =
            (&img.data, &decoded.data) else { panic!() };
        let max_err = a.iter().zip(b).map(|(x, y)| (i16::from(*x) - i16::from(*y)).abs()).max().unwrap_or(0);
        prop_assert!(max_err <= 160, "max error {max_err}");
    }

    /// The lossless audio codec round-trips any i16 signal exactly.
    #[test]
    fn flac_like_roundtrips(samples in proptest::collection::vec(any::<i16>(), 0..6000),
                            rate in 1_000u32..96_000) {
        let encoded = flac::encode(&samples, rate);
        let (decoded, out_rate) = flac::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, samples);
        prop_assert_eq!(out_rate, rate);
    }

    /// ADPCM preserves length and rate; output stays in range.
    #[test]
    fn adpcm_shape_is_stable(samples in proptest::collection::vec(any::<i16>(), 0..4000)) {
        let encoded = adpcm::encode(&samples, 16_000);
        let (decoded, rate) = adpcm::decode(&encoded).unwrap();
        prop_assert_eq!(decoded.len(), samples.len());
        prop_assert_eq!(rate, 16_000);
    }

    /// All decoders reject or survive arbitrary garbage without panics.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = jpg::decode(&bytes);
        let _ = png::decode(&bytes);
        let _ = flac::decode(&bytes);
        let _ = adpcm::decode(&bytes);
        let _ = ContainerReader::open(&bytes);
    }

    /// The chunked container round-trips arbitrary dataset layouts.
    #[test]
    fn container_roundtrips(chunks in proptest::collection::vec(
        (proptest::collection::vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), 1..50), 0usize..3),
        0..12,
    )) {
        let names = ["alpha", "beta", "gamma"];
        let mut writer = ContainerWriter::new();
        let mut expected: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for (values, name_idx) in &chunks {
            let name = names[*name_idx];
            let tensor = Tensor::from_vec(vec![values.len()], values.clone()).unwrap();
            writer.append_chunk(name, &tensor);
            expected.entry(name).or_default().extend(values);
        }
        let bytes = writer.finish();
        let reader = ContainerReader::open(&bytes).unwrap();
        for (name, values) in expected {
            prop_assert_eq!(reader.read_all_f64(name).unwrap(), values);
        }
    }
}
