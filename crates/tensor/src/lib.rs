#![warn(missing_docs)]

//! # presto-tensor
//!
//! Minimal tensor representation and serialization substrate for the
//! presto-rs workspace.
//!
//! The paper's pipelines move *tensors* between steps and serialize
//! them with the TFRecord container (a length-prefixed, CRC-protected
//! record stream wrapping Protobuf payloads). This crate provides the
//! equivalents:
//!
//! - [`DType`] / [`Tensor`]: dense n-dimensional arrays over the five
//!   element types that appear in the paper's pipelines
//!   (`u8` images, `i16` waveforms, `i32` token ids, `f32` features,
//!   `f64` electrical signals),
//! - [`record`]: `RecordBundle`, a TFRecord-like framed stream with
//!   per-record CRC-32 integrity, used to materialize offline
//!   preprocessing results.
//!
//! Decoding a record has a fixed per-record overhead plus a per-byte
//! cost — the property behind the paper's Figures 7, 9 and 11.

pub mod dtype;
pub mod record;
pub mod tensor;

pub use dtype::{DType, Element};
pub use record::{RecordReader, RecordWriter};
pub use tensor::{Pieces, Tensor, TensorError};
