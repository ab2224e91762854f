//! Chunked tensor container (HDF5 stand-in).
//!
//! The paper's NILM dataset (CREAM) ships hour-long HDF5 files holding
//! named float64 signals read in chunks. This container reproduces that
//! access pattern: named datasets, each split into fixed-size chunks
//! that can be located and decoded independently, with a trailing index
//! so readers can seek without scanning.
//!
//! Layout:
//! ```text
//! "PH5F"
//! [chunk data…]                    (flag byte + payload, concatenated)
//! index:
//!   dataset_count u32
//!   per dataset: name_len u16 | name | chunk_count u32 |
//!                per chunk: offset u64 | len u64
//! index_offset u64                 (fixed trailer)
//! ```
//!
//! Each chunk starts with a flag byte: `0` = raw tensor encoding, `1` =
//! ZLIB-compressed tensor encoding (HDF5's gzip chunk filter
//! equivalent — this is how the real CREAM files keep 10 s float64
//! windows at ~0.15 MB).

use crate::FormatError;
use presto_codecs::{container as codec_container, Level};
use presto_tensor::Tensor;
use std::collections::BTreeMap;

const CHUNK_RAW: u8 = 0;
const CHUNK_ZLIB: u8 = 1;

const MAGIC: &[u8; 4] = b"PH5F";

/// Builds a container file in memory.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    data: Vec<u8>,
    index: BTreeMap<String, Vec<(u64, u64)>>,
}

impl ContainerWriter {
    /// Start a new container.
    pub fn new() -> Self {
        ContainerWriter {
            data: MAGIC.to_vec(),
            index: BTreeMap::new(),
        }
    }

    /// Append one raw (uncompressed) chunk to the named dataset.
    pub fn append_chunk(&mut self, dataset: &str, chunk: &Tensor) {
        let mut payload = Vec::with_capacity(chunk.nbytes() + 16);
        payload.push(CHUNK_RAW);
        payload.extend_from_slice(&chunk.encode());
        self.push_payload(dataset, payload);
    }

    /// Append a ZLIB-compressed chunk (HDF5's gzip chunk filter).
    pub fn append_chunk_compressed(&mut self, dataset: &str, chunk: &Tensor, level: Level) {
        let mut payload = Vec::with_capacity(chunk.nbytes() / 2 + 16);
        payload.push(CHUNK_ZLIB);
        payload.extend_from_slice(&codec_container::zlib_compress(&chunk.encode(), level));
        self.push_payload(dataset, payload);
    }

    fn push_payload(&mut self, dataset: &str, payload: Vec<u8>) {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(&payload);
        self.index
            .entry(dataset.to_string())
            .or_default()
            .push((offset, payload.len() as u64));
    }

    /// Finish: write the index and trailer, returning the container bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let index_offset = self.data.len() as u64;
        self.data
            .extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (name, chunks) in &self.index {
            self.data
                .extend_from_slice(&(name.len() as u16).to_le_bytes());
            self.data.extend_from_slice(name.as_bytes());
            self.data
                .extend_from_slice(&(chunks.len() as u32).to_le_bytes());
            for &(offset, len) in chunks {
                self.data.extend_from_slice(&offset.to_le_bytes());
                self.data.extend_from_slice(&len.to_le_bytes());
            }
        }
        self.data.extend_from_slice(&index_offset.to_le_bytes());
        self.data
    }
}

/// Reads a container, exposing random chunk access.
#[derive(Debug)]
pub struct ContainerReader<'a> {
    data: &'a [u8],
    index: BTreeMap<String, Vec<(u64, u64)>>,
}

impl<'a> ContainerReader<'a> {
    /// Parse the index of a container.
    pub fn open(data: &'a [u8]) -> Result<Self, FormatError> {
        if data.len() < 12 {
            return Err(FormatError::UnexpectedEof);
        }
        if &data[0..4] != MAGIC {
            return Err(FormatError::BadHeader("missing PH5F magic"));
        }
        let index_offset = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap()) as usize;
        if index_offset < 4 || index_offset >= data.len() - 8 {
            return Err(FormatError::Corrupt("index offset out of range"));
        }
        let mut pos = index_offset;
        let take = |pos: &mut usize, n: usize| -> Result<&'a [u8], FormatError> {
            if *pos + n > data.len() - 8 {
                return Err(FormatError::UnexpectedEof);
            }
            let slice = &data[*pos..*pos + n];
            *pos += n;
            Ok(slice)
        };
        let dataset_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut index = BTreeMap::new();
        for _ in 0..dataset_count {
            let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| FormatError::Corrupt("dataset name not UTF-8"))?;
            let chunk_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let mut chunks = Vec::with_capacity(chunk_count as usize);
            for _ in 0..chunk_count {
                let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
                if offset
                    .checked_add(len)
                    .is_none_or(|end| end > index_offset as u64)
                {
                    return Err(FormatError::Corrupt("chunk extends into index"));
                }
                chunks.push((offset, len));
            }
            index.insert(name, chunks);
        }
        Ok(ContainerReader { data, index })
    }

    /// Dataset names in the container.
    pub fn datasets(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Number of chunks in a dataset, or 0 if absent.
    pub fn chunk_count(&self, dataset: &str) -> usize {
        self.index.get(dataset).map_or(0, Vec::len)
    }

    /// Decode one chunk of a dataset (transparently decompressing).
    pub fn read_chunk(&self, dataset: &str, chunk: usize) -> Result<Tensor, FormatError> {
        let chunks = self
            .index
            .get(dataset)
            .ok_or(FormatError::Corrupt("no such dataset"))?;
        let &(offset, len) = chunks
            .get(chunk)
            .ok_or(FormatError::Corrupt("no such chunk"))?;
        // `open` checked that the chunk ends inside `data`.
        let bytes = &self.data[offset as usize..][..len as usize];
        let (&flag, body) = bytes
            .split_first()
            .ok_or(FormatError::Corrupt("empty chunk"))?;
        let decoded_storage;
        let tensor_bytes: &[u8] = match flag {
            CHUNK_RAW => body,
            CHUNK_ZLIB => {
                decoded_storage = codec_container::zlib_decompress(body)?;
                &decoded_storage
            }
            _ => return Err(FormatError::Corrupt("unknown chunk flag")),
        };
        let (tensor, used) = Tensor::decode(tensor_bytes)
            .map_err(|_| FormatError::Corrupt("chunk tensor decode"))?;
        if used != tensor_bytes.len() {
            return Err(FormatError::Corrupt("chunk length mismatch"));
        }
        Ok(tensor)
    }

    /// Decode and concatenate every chunk of a dataset (element-wise
    /// append; all chunks must share dtype).
    pub fn read_all_f64(&self, dataset: &str) -> Result<Vec<f64>, FormatError> {
        let mut out = Vec::new();
        for i in 0..self.chunk_count(dataset) {
            let tensor = self.read_chunk(dataset, i)?;
            out.extend(tensor.iter_f64());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_tensor::DType;

    fn build_sample() -> Vec<u8> {
        let mut writer = ContainerWriter::new();
        for i in 0..4 {
            let chunk = Tensor::from_vec(
                vec![100],
                (0..100).map(|x| f64::from(x + i * 100)).collect(),
            )
            .unwrap();
            writer.append_chunk("voltage", &chunk);
        }
        let current = Tensor::from_vec(vec![50], vec![1.5f64; 50]).unwrap();
        writer.append_chunk("current", &current);
        writer.finish()
    }

    #[test]
    fn roundtrip_datasets_and_chunks() {
        let bytes = build_sample();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert_eq!(
            reader.datasets().collect::<Vec<_>>(),
            vec!["current", "voltage"]
        );
        assert_eq!(reader.chunk_count("voltage"), 4);
        assert_eq!(reader.chunk_count("current"), 1);
        assert_eq!(reader.chunk_count("absent"), 0);
        let chunk = reader.read_chunk("voltage", 2).unwrap();
        assert_eq!(chunk.dtype(), DType::F64);
        assert_eq!(chunk.iter_f64().next().unwrap(), 200.0);
    }

    #[test]
    fn read_all_concatenates_in_order() {
        let bytes = build_sample();
        let reader = ContainerReader::open(&bytes).unwrap();
        let voltage = reader.read_all_f64("voltage").unwrap();
        assert_eq!(voltage.len(), 400);
        assert_eq!(voltage[399], 399.0);
    }

    #[test]
    fn missing_dataset_and_chunk_error() {
        let bytes = build_sample();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(reader.read_chunk("nope", 0).is_err());
        assert!(reader.read_chunk("voltage", 99).is_err());
    }

    #[test]
    fn corrupt_containers_rejected() {
        assert!(ContainerReader::open(&[]).is_err());
        assert!(ContainerReader::open(&[0u8; 16]).is_err());
        let mut bytes = build_sample();
        // Break the trailer offset.
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert!(ContainerReader::open(&bytes).is_err());
    }

    #[test]
    fn compressed_chunks_roundtrip_and_shrink() {
        // A mains-style signal: smooth, compresses well.
        let signal: Vec<f64> = (0..8_000)
            .map(|i| (230.0 * (i as f64 * 0.05).sin() * 100.0).round() / 100.0)
            .collect();
        let tensor = Tensor::from_vec(vec![signal.len()], signal.clone()).unwrap();
        let mut raw_writer = ContainerWriter::new();
        raw_writer.append_chunk("v", &tensor);
        let raw = raw_writer.finish();
        let mut z_writer = ContainerWriter::new();
        z_writer.append_chunk_compressed("v", &tensor, presto_codecs::Level::DEFAULT);
        let compressed = z_writer.finish();
        assert!(
            compressed.len() < raw.len() * 3 / 4,
            "{} vs {}",
            compressed.len(),
            raw.len()
        );
        let reader = ContainerReader::open(&compressed).unwrap();
        assert_eq!(reader.read_all_f64("v").unwrap(), signal);
    }

    #[test]
    fn mixed_raw_and_compressed_chunks_coexist() {
        let a = Tensor::from_vec(vec![4], vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![9.0f64, 9.0]).unwrap();
        let mut writer = ContainerWriter::new();
        writer.append_chunk("x", &a);
        writer.append_chunk_compressed("x", &b, presto_codecs::Level::FAST);
        let bytes = writer.finish();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert_eq!(
            reader.read_all_f64("x").unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 9.0, 9.0]
        );
    }

    #[test]
    fn unknown_chunk_flag_rejected() {
        let tensor = Tensor::from_vec(vec![1], vec![1.0f64]).unwrap();
        let mut writer = ContainerWriter::new();
        writer.append_chunk("v", &tensor);
        let mut bytes = writer.finish();
        bytes[4] = 99; // first chunk's flag byte (right after magic)
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(reader.read_chunk("v", 0).is_err());
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = ContainerWriter::new().finish();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert_eq!(reader.datasets().count(), 0);
    }
}
