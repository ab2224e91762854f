//! The data unit flowing through the real execution engine.

use bytes::Bytes;
use presto_dsp::image::ImageBuf;
use presto_tensor::{Pieces, Tensor};

/// The content of a sample at some point in a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Raw encoded bytes (file contents, record payloads).
    Bytes(Bytes),
    /// A decoded image.
    Image(ImageBuf),
    /// Extracted text.
    Text(String),
    /// Token ids.
    Tokens(Vec<i32>),
    /// PCM audio: samples + sample rate.
    Audio(Vec<i16>, u32),
    /// One or more tensors (the final model-input form).
    Tensors(Vec<Tensor>),
}

impl Payload {
    /// Storage footprint of the payload in bytes — the quantity the
    /// paper's per-strategy storage-consumption analysis tracks.
    pub fn nbytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Image(img) => img.nbytes(),
            Payload::Text(s) => s.len(),
            Payload::Tokens(t) => t.len() * 4,
            Payload::Audio(a, _) => a.len() * 2,
            Payload::Tensors(ts) => ts.iter().map(Tensor::nbytes).sum(),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Bytes(_) => "bytes",
            Payload::Image(_) => "image",
            Payload::Text(_) => "text",
            Payload::Tokens(_) => "tokens",
            Payload::Audio(..) => "audio",
            Payload::Tensors(_) => "tensors",
        }
    }
}

/// A sample: stable key + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Stable identity across the pipeline (ordering, sharding, RNG).
    pub key: u64,
    /// Current content.
    pub payload: Payload,
}

impl Sample {
    /// Construct from raw bytes.
    pub fn from_bytes(key: u64, bytes: impl Into<Bytes>) -> Self {
        Sample {
            key,
            payload: Payload::Bytes(bytes.into()),
        }
    }

    /// Construct from tensors.
    pub fn from_tensors(key: u64, tensors: Vec<Tensor>) -> Self {
        Sample {
            key,
            payload: Payload::Tensors(tensors),
        }
    }

    /// Storage footprint in bytes.
    pub fn nbytes(&self) -> usize {
        self.payload.nbytes()
    }

    /// Serialize for materialization: `[key u64][payload tag u8][body]`.
    /// Only `Bytes` and `Tensors` are materializable — intermediate
    /// in-memory forms are converted by the save step before this.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nbytes() + 16);
        self.encode_to(|piece| out.extend_from_slice(piece));
        presto_codecs::touch::copy(out.len());
        out
    }

    /// Hand the bytes of [`Sample::encode`] to `sink` piece by piece, in
    /// order, without assembling them: byte and tensor payloads go out
    /// as the slices they already are. This is the sample's canonical
    /// byte stream; [`crate::serve::MultisetChecksum`] hashes it in place.
    pub fn encode_to(&self, mut sink: impl FnMut(&[u8])) {
        self.encode_pieces(&mut sink);
    }

    /// Length of [`Sample::encode`]'s output, from the pieces' lengths
    /// alone.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.encode_to(|piece| len += piece.len());
        len
    }

    /// The canonical encoder behind [`Sample::encode_to`]: bytes the
    /// sample owns (a byte payload, tensor data, text, 8-bit pixels) go
    /// to `sink` borrowed from where they lie, everything else (the key,
    /// tags, dimensions, elements made little-endian) as small
    /// temporaries.
    pub fn encode_pieces<'a>(&'a self, sink: &mut impl Pieces<'a>) {
        sink.temporary(&self.key.to_le_bytes());
        match &self.payload {
            Payload::Bytes(b) => {
                sink.temporary(&[0]);
                sink.borrowed(b);
            }
            Payload::Tensors(ts) => {
                sink.temporary(&[1, ts.len() as u8]);
                for t in ts {
                    t.encode_pieces(sink);
                }
            }
            Payload::Text(s) => {
                sink.temporary(&[2]);
                sink.borrowed(s.as_bytes());
            }
            Payload::Tokens(tokens) => {
                sink.temporary(&[3]);
                for t in tokens {
                    sink.temporary(&t.to_le_bytes());
                }
            }
            Payload::Audio(samples, rate) => {
                sink.temporary(&[4]);
                sink.temporary(&rate.to_le_bytes());
                for s in samples {
                    sink.temporary(&s.to_le_bytes());
                }
            }
            Payload::Image(img) => {
                // Images are materialized as a raw tensor for
                // simplicity: HWC u8/u16.
                sink.temporary(&[5]);
                sink.temporary(&(img.width as u32).to_le_bytes());
                sink.temporary(&(img.height as u32).to_le_bytes());
                sink.temporary(&[img.channels as u8, img.bit_depth()]);
                match &img.data {
                    presto_dsp::image::PixelData::U8(v) => sink.borrowed(v),
                    presto_dsp::image::PixelData::U16(v) => {
                        for s in v {
                            sink.temporary(&s.to_le_bytes());
                        }
                    }
                }
            }
        }
    }

    /// Inverse of [`Sample::encode`].
    pub fn decode(data: &[u8]) -> Result<Sample, crate::PipelineError> {
        Self::decode_inner(data, None).map(|(sample, _)| sample)
    }

    /// Zero-copy variant of [`Sample::decode`] for the streaming hot
    /// path: `record` must be a subslice of `frame` (a shard's framed
    /// bytes), and `Bytes`/`Tensors` payloads become reference-counted
    /// views into `frame` instead of fresh copies. Returns the sample
    /// and whether its payload aliases the frame (`true`) or had to be
    /// copied anyway (the in-memory-only payload kinds).
    pub fn decode_shared(
        frame: &Bytes,
        record: &[u8],
    ) -> Result<(Sample, bool), crate::PipelineError> {
        Self::decode_inner(record, Some(frame))
    }

    fn decode_inner(
        data: &[u8],
        frame: Option<&Bytes>,
    ) -> Result<(Sample, bool), crate::PipelineError> {
        use crate::PipelineError as E;
        if data.len() < 9 {
            return Err(E::Decode("sample too short".into()));
        }
        let key = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let tag = data[8];
        let body = &data[9..];
        let mut shared = false;
        if (tag == 0 && frame.is_none()) || tag > 1 {
            // An owning decode of a byte payload, or a kind that lives
            // only in memory (tensors count their own, in `Tensor`).
            presto_codecs::touch::copy(body.len());
        }
        let payload = match tag {
            0 => Payload::Bytes(match frame {
                Some(frame) => {
                    shared = true;
                    frame.slice_ref(body)
                }
                None => Bytes::copy_from_slice(body),
            }),
            1 => {
                if body.is_empty() {
                    return Err(E::Decode("missing tensor count".into()));
                }
                let count = body[0] as usize;
                let mut tensors = Vec::with_capacity(count);
                let mut pos = 1;
                for _ in 0..count {
                    let (tensor, used) = match frame {
                        Some(frame) => Tensor::decode_shared(frame, &body[pos..])
                            .map_err(|e| E::Decode(e.to_string()))?,
                        None => {
                            Tensor::decode(&body[pos..]).map_err(|e| E::Decode(e.to_string()))?
                        }
                    };
                    tensors.push(tensor);
                    pos += used;
                }
                shared = frame.is_some();
                Payload::Tensors(tensors)
            }
            2 => Payload::Text(
                String::from_utf8(body.to_vec()).map_err(|_| E::Decode("bad utf8".into()))?,
            ),
            3 => {
                if !body.len().is_multiple_of(4) {
                    return Err(E::Decode("token bytes not multiple of 4".into()));
                }
                Payload::Tokens(
                    body.chunks_exact(4)
                        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            4 => {
                if body.len() < 4 || !(body.len() - 4).is_multiple_of(2) {
                    return Err(E::Decode("bad audio body".into()));
                }
                let rate = u32::from_le_bytes(body[0..4].try_into().unwrap());
                let samples = body[4..]
                    .chunks_exact(2)
                    .map(|c| i16::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Payload::Audio(samples, rate)
            }
            5 => {
                if body.len() < 10 {
                    return Err(E::Decode("bad image header".into()));
                }
                let w = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                let h = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
                let c = body[8] as usize;
                let depth = body[9];
                let pixels = &body[10..];
                let expected = w
                    .checked_mul(h)
                    .and_then(|x| x.checked_mul(c))
                    .and_then(|x| x.checked_mul(depth as usize / 8))
                    .ok_or_else(|| E::Decode("image dims overflow".into()))?;
                if pixels.len() != expected {
                    return Err(E::Decode("image pixel length mismatch".into()));
                }
                let img = if depth == 8 {
                    ImageBuf::from_u8(w, h, c, pixels.to_vec())
                } else if depth == 16 {
                    let v: Vec<u16> = pixels
                        .chunks_exact(2)
                        .map(|p| u16::from_le_bytes(p.try_into().unwrap()))
                        .collect();
                    ImageBuf::from_u16(w, h, c, v)
                } else {
                    return Err(E::Decode("bad bit depth".into()));
                };
                Payload::Image(img)
            }
            _ => return Err(E::Decode(format!("unknown payload tag {tag}"))),
        };
        Ok((Sample { key, payload }, shared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_tensor::DType;

    #[test]
    fn nbytes_per_payload_kind() {
        assert_eq!(Sample::from_bytes(0, vec![0u8; 10]).nbytes(), 10);
        assert_eq!(
            Sample {
                key: 0,
                payload: Payload::Tokens(vec![1, 2, 3])
            }
            .nbytes(),
            12
        );
        assert_eq!(
            Sample {
                key: 0,
                payload: Payload::Audio(vec![0i16; 5], 8000)
            }
            .nbytes(),
            10
        );
        let t = Tensor::zeros(DType::F64, vec![3, 500]);
        assert_eq!(Sample::from_tensors(0, vec![t]).nbytes(), 12_000);
    }

    #[test]
    fn encode_decode_all_payloads() {
        let img = ImageBuf::from_u8(4, 2, 3, vec![9u8; 24]);
        let img16 = ImageBuf::from_u16(2, 2, 1, vec![60_000u16; 4]);
        let samples = vec![
            Sample::from_bytes(1, vec![1u8, 2, 3]),
            Sample::from_tensors(
                2,
                vec![
                    Tensor::from_vec(vec![2], vec![1.5f32, -2.5]).unwrap(),
                    Tensor::from_vec(vec![3], vec![1u8, 2, 3]).unwrap(),
                ],
            ),
            Sample {
                key: 3,
                payload: Payload::Text("héllo".into()),
            },
            Sample {
                key: 4,
                payload: Payload::Tokens(vec![-1, 0, 65_536]),
            },
            Sample {
                key: 5,
                payload: Payload::Audio(vec![-100i16, 200], 16_000),
            },
            Sample {
                key: 6,
                payload: Payload::Image(img),
            },
            Sample {
                key: 7,
                payload: Payload::Image(img16),
            },
        ];
        for sample in samples {
            let encoded = sample.encode();
            let decoded = Sample::decode(&encoded).unwrap();
            assert_eq!(decoded, sample);
        }
    }

    #[test]
    fn decode_shared_aliases_frame_for_bytes_and_tensors() {
        let samples = vec![
            Sample::from_bytes(1, vec![7u8; 32]),
            Sample::from_tensors(
                2,
                vec![Tensor::from_vec(vec![4], vec![1.0f32, 2.0, 3.0, 4.0]).unwrap()],
            ),
        ];
        for sample in samples {
            let frame = Bytes::from(sample.encode());
            let (decoded, shared) = Sample::decode_shared(&frame, &frame).unwrap();
            assert_eq!(decoded, sample);
            assert!(shared, "bytes/tensor payloads must alias the frame");
        }
        // In-memory-only kinds still decode, just not zero-copy.
        let text = Sample {
            key: 3,
            payload: Payload::Text("hi".into()),
        };
        let frame = Bytes::from(text.encode());
        let (decoded, shared) = Sample::decode_shared(&frame, &frame).unwrap();
        assert_eq!(decoded, text);
        assert!(!shared);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Sample::decode(&[]).is_err());
        assert!(Sample::decode(&[0u8; 8]).is_err());
        let mut bad = Sample::from_bytes(1, vec![1u8]).encode();
        bad[8] = 99; // unknown tag
        assert!(Sample::decode(&bad).is_err());
    }
}
