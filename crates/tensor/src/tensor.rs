//! Dense n-dimensional tensors over raw little-endian byte storage.

use crate::dtype::{DType, Element};
use bytes::Bytes;
use std::fmt;

/// Errors from tensor construction and serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Element count implied by the shape disagrees with the data length.
    ShapeMismatch {
        /// Elements (or bytes) the shape requires.
        expected: usize,
        /// Elements (or bytes) provided.
        actual: usize,
    },
    /// Serialized form is malformed.
    Corrupt(&'static str),
    /// Requested element type differs from the stored dtype.
    DTypeMismatch {
        /// Element type requested by the caller.
        expected: DType,
        /// Element type actually stored.
        actual: DType,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements, data has {actual}")
            }
            TensorError::Corrupt(what) => write!(f, "corrupt tensor encoding: {what}"),
            TensorError::DTypeMismatch { expected, actual } => {
                write!(f, "dtype mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Where a canonical encoder ([`Tensor::encode_pieces`], and the
/// pipeline's `Sample::encode_pieces`) hands its bytes, in order: slices
/// of the encoded value's own storage, borrowed for as long as the value
/// is, and small temporaries (a tag, a length, an element made
/// little-endian) that live only for the call. A gather-write sends the
/// borrowed pieces from where they lie and copies only the temporaries;
/// any `FnMut(&[u8])` takes both kinds alike.
pub trait Pieces<'a> {
    /// A slice of the encoded value's own storage.
    fn borrowed(&mut self, piece: &'a [u8]);
    /// A small piece made for this call.
    fn temporary(&mut self, piece: &[u8]);
}

impl<'a, F: FnMut(&[u8])> Pieces<'a> for F {
    fn borrowed(&mut self, piece: &'a [u8]) {
        self(piece);
    }

    fn temporary(&mut self, piece: &[u8]) {
        self(piece);
    }
}

/// A dense tensor: dtype + shape + contiguous little-endian bytes.
///
/// Storage is a [`Bytes`] buffer so clones are cheap (reference counted)
/// — important because pipeline caches hold millions of samples.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    dtype: DType,
    shape: Vec<usize>,
    data: Bytes,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor<{}>{:?} ({} B)",
            self.dtype,
            self.shape,
            self.data.len()
        )
    }
}

impl Tensor {
    /// Build a tensor from typed elements.
    pub fn from_vec<T: Element>(shape: Vec<usize>, values: Vec<T>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if values.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: values.len(),
            });
        }
        let mut data = Vec::with_capacity(values.len() * T::DTYPE.size_bytes());
        for value in values {
            value.write_le(&mut data);
        }
        presto_codecs::touch::copy(data.len());
        Ok(Tensor {
            dtype: T::DTYPE,
            shape,
            data: Bytes::from(data),
        })
    }

    /// Build a tensor directly from raw little-endian bytes.
    pub fn from_raw(dtype: DType, shape: Vec<usize>, data: Vec<u8>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product::<usize>() * dtype.size_bytes();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            dtype,
            shape,
            data: Bytes::from(data),
        })
    }

    /// A zero-filled tensor.
    pub fn zeros(dtype: DType, shape: Vec<usize>) -> Self {
        let len: usize = shape.iter().product::<usize>() * dtype.size_bytes();
        Tensor {
            dtype,
            shape,
            data: Bytes::from(vec![0u8; len]),
        }
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage footprint in bytes — the quantity the paper's
    /// storage-consumption analysis is about.
    pub fn nbytes(&self) -> usize {
        self.data.len()
    }

    /// Raw little-endian storage.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Decode the storage into typed elements.
    pub fn to_vec<T: Element>(&self) -> Result<Vec<T>, TensorError> {
        if T::DTYPE != self.dtype {
            return Err(TensorError::DTypeMismatch {
                expected: T::DTYPE,
                actual: self.dtype,
            });
        }
        let size = self.dtype.size_bytes();
        Ok(self.data.chunks_exact(size).map(T::read_le).collect())
    }

    /// Iterate elements as f64 without materializing a typed vector.
    pub fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        let size = self.dtype.size_bytes();
        let dtype = self.dtype;
        self.data.chunks_exact(size).map(move |chunk| match dtype {
            DType::U8 => f64::from(chunk[0]),
            DType::I16 => f64::from(i16::read_le(chunk)),
            DType::I32 => f64::from(i32::read_le(chunk)),
            DType::F32 => f64::from(f32::read_le(chunk)),
            DType::F64 => f64::read_le(chunk),
        })
    }

    /// Reinterpret with a new shape holding the same element count.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: self.len(),
            });
        }
        Ok(Tensor {
            dtype: self.dtype,
            shape,
            data: self.data.clone(),
        })
    }

    /// Serialize into a self-describing byte message:
    /// `[dtype:u8][ndim:u8][dim:u32-le]*[data]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.shape.len() * 4 + self.data.len());
        self.encode_to(|piece| out.extend_from_slice(piece));
        presto_codecs::touch::copy(out.len());
        out
    }

    /// Hand the bytes of [`Tensor::encode`] to `sink` piece by piece, in
    /// order, without assembling them: the data goes out as the one
    /// slice it already is.
    pub fn encode_to(&self, mut sink: impl FnMut(&[u8])) {
        self.encode_pieces(&mut sink);
    }

    /// The canonical encoder behind [`Tensor::encode_to`]: the header
    /// goes to `sink` as small temporaries, the data as a slice borrowed
    /// from the tensor's own storage.
    pub fn encode_pieces<'a>(&'a self, sink: &mut impl Pieces<'a>) {
        sink.temporary(&[self.dtype.tag(), self.shape.len() as u8]);
        for &dim in &self.shape {
            sink.temporary(&(dim as u32).to_le_bytes());
        }
        sink.borrowed(&self.data);
    }

    /// Inverse of [`Tensor::encode`]; returns the tensor and the bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Tensor, usize), TensorError> {
        Self::decode_inner(bytes, None)
    }

    /// Zero-copy variant of [`Tensor::decode`]: `bytes` must be a
    /// subslice of `frame`, and the decoded tensor's storage becomes a
    /// reference-counted view into `frame` instead of a fresh copy.
    /// This is what makes steady-state per-sample decode allocations
    /// ~0 on the streaming hot path — the shard frame is materialized
    /// once and every tensor payload aliases it.
    pub fn decode_shared(frame: &Bytes, bytes: &[u8]) -> Result<(Tensor, usize), TensorError> {
        Self::decode_inner(bytes, Some(frame))
    }

    fn decode_inner(bytes: &[u8], frame: Option<&Bytes>) -> Result<(Tensor, usize), TensorError> {
        if bytes.len() < 2 {
            return Err(TensorError::Corrupt("short header"));
        }
        let dtype = DType::from_tag(bytes[0]).ok_or(TensorError::Corrupt("unknown dtype tag"))?;
        let ndim = bytes[1] as usize;
        let header = 2 + ndim * 4;
        if bytes.len() < header {
            return Err(TensorError::Corrupt("truncated shape"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for i in 0..ndim {
            let offset = 2 + i * 4;
            let dim = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            shape.push(dim as usize);
        }
        // Dims come from untrusted input: use checked arithmetic.
        let elems = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(TensorError::Corrupt("shape element count overflow"))?;
        let data_len = elems
            .checked_mul(dtype.size_bytes())
            .ok_or(TensorError::Corrupt("shape byte count overflow"))?;
        if bytes.len() < header + data_len {
            return Err(TensorError::Corrupt("truncated data"));
        }
        let payload = &bytes[header..header + data_len];
        let data = match frame {
            Some(frame) => frame.slice_ref(payload),
            None => {
                presto_codecs::touch::copy(payload.len());
                Bytes::from(payload.to_vec())
            }
        };
        Ok((Tensor { dtype, shape, data }, header + data_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![2, 3], vec![1.0f32; 6]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![2, 3], vec![1.0f32; 5]),
            Err(TensorError::ShapeMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn nbytes_matches_dtype() {
        let t = Tensor::zeros(DType::F64, vec![3, 500]);
        assert_eq!(t.nbytes(), 3 * 500 * 8);
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn typed_roundtrip() {
        let values = vec![-1.5f32, 0.0, 2.25, 1e10];
        let t = Tensor::from_vec(vec![4], values.clone()).unwrap();
        assert_eq!(t.to_vec::<f32>().unwrap(), values);
        assert!(matches!(
            t.to_vec::<u8>(),
            Err(TensorError::DTypeMismatch { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = Tensor::from_vec(vec![2, 2], vec![1i32, -2, 3, -4]).unwrap();
        let encoded = t.encode();
        let (decoded, used) = Tensor::decode(&encoded).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(decoded, t);
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = Tensor::from_vec(vec![8], vec![7u8; 8]).unwrap();
        let encoded = t.encode();
        for cut in 0..encoded.len() {
            assert!(Tensor::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn decode_rejects_bad_dtype() {
        assert!(matches!(
            Tensor::decode(&[99, 0]),
            Err(TensorError::Corrupt(_))
        ));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![6], vec![0u8, 1, 2, 3, 4, 5]).unwrap();
        let r = t.reshape(vec![2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.bytes(), t.bytes());
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn iter_f64_covers_all_dtypes() {
        let cases: Vec<(Tensor, Vec<f64>)> = vec![
            (
                Tensor::from_vec(vec![2], vec![1u8, 255]).unwrap(),
                vec![1.0, 255.0],
            ),
            (
                Tensor::from_vec(vec![2], vec![-5i16, 7]).unwrap(),
                vec![-5.0, 7.0],
            ),
            (Tensor::from_vec(vec![1], vec![-9i32]).unwrap(), vec![-9.0]),
            (Tensor::from_vec(vec![1], vec![0.5f32]).unwrap(), vec![0.5]),
            (
                Tensor::from_vec(vec![1], vec![-0.25f64]).unwrap(),
                vec![-0.25],
            ),
        ];
        for (tensor, expected) in cases {
            assert_eq!(tensor.iter_f64().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn decode_shared_aliases_the_frame() {
        let t = Tensor::from_vec(vec![4], vec![1.5f32, -2.0, 0.25, 9.0]).unwrap();
        let frame = Bytes::from(t.encode());
        let (decoded, used) = Tensor::decode_shared(&frame, &frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(decoded, t);
        // Zero-copy: the tensor's storage points into the frame buffer.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(decoded.bytes().as_ptr() as usize)));
    }

    #[test]
    fn clone_is_cheap_shared_storage() {
        let t = Tensor::zeros(DType::U8, vec![1024 * 1024]);
        let c = t.clone();
        // Bytes clones share the same allocation.
        assert_eq!(t.bytes().as_ptr(), c.bytes().as_ptr());
    }
}
