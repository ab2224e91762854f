//! Image storage formats: a lossy block-DCT codec (JPG stand-in) and a
//! lossless filter+DEFLATE codec (PNG stand-in).

pub mod jpg;
pub mod png;

use crate::FormatError;

/// The compressed payload behind the 22-byte header both codecs write.
/// `len` is that header's claim: it may point past the input, or past
/// the end of the address space.
fn payload(data: &[u8], len: usize) -> Result<&[u8], FormatError> {
    len.checked_add(22)
        .and_then(|end| data.get(22..end))
        .ok_or(FormatError::UnexpectedEof)
}
