//! Property tests: tensor and record-stream invariants.

use presto_tensor::{DType, RecordReader, RecordWriter, Tensor};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop_oneof![
        Just(DType::U8),
        Just(DType::I16),
        Just(DType::I32),
        Just(DType::F32),
        Just(DType::F64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode ∘ decode is the identity for any dtype/shape.
    #[test]
    fn tensor_encode_roundtrip(dtype in arb_dtype(),
                               dims in proptest::collection::vec(1usize..8, 0..4)) {
        let tensor = Tensor::zeros(dtype, dims.clone());
        let encoded = tensor.encode();
        let (decoded, used) = Tensor::decode(&encoded).unwrap();
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(decoded.dtype(), dtype);
        prop_assert_eq!(decoded.shape(), dims.as_slice());
    }

    /// Typed values survive encode/decode bit-exactly.
    #[test]
    fn f32_values_roundtrip(values in proptest::collection::vec(any::<f32>(), 1..256)) {
        let tensor = Tensor::from_vec(vec![values.len()], values.clone()).unwrap();
        let encoded = tensor.encode();
        let (decoded, _) = Tensor::decode(&encoded).unwrap();
        let out = decoded.to_vec::<f32>().unwrap();
        for (a, b) in out.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// nbytes is always len * element size.
    #[test]
    fn nbytes_invariant(dtype in arb_dtype(),
                        dims in proptest::collection::vec(1usize..16, 1..3)) {
        let tensor = Tensor::zeros(dtype, dims);
        prop_assert_eq!(tensor.nbytes(), tensor.len() * tensor.dtype().size_bytes());
    }

    /// Record streams round-trip arbitrary payload sequences.
    #[test]
    fn record_stream_roundtrip(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..512), 0..32)) {
        let mut writer = RecordWriter::new();
        for p in &payloads {
            writer.write(p);
        }
        let stream = writer.finish();
        let records = RecordReader::new(&stream).read_all().unwrap();
        prop_assert_eq!(records.len(), payloads.len());
        for (got, want) in records.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn tensor_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Tensor::decode(&bytes);
    }

    /// Reading arbitrary bytes as a record stream never panics, and
    /// resync always reaches a clean end.
    #[test]
    fn record_read_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut reader = RecordReader::new(&bytes);
        while let Some(record) = reader.next() {
            if record.is_err() {
                prop_assert!(reader.resync() > 0);
            }
        }
    }
}
