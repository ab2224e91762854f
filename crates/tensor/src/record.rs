//! `RecordBundle`: a TFRecord-like framed record stream.
//!
//! Layout per record (all integers little-endian):
//!
//! ```text
//! [len: u64][len_crc: u32][payload: len bytes][payload_crc: u32]
//! ```
//!
//! This mirrors TFRecord's structure (which uses masked CRC-32C); the
//! integrity and framing properties — and crucially the *fixed
//! per-record decode overhead* — are the same. The paper concatenates
//! datasets into such streams to convert random file access into
//! sequential reads (its "concatenated" strategy).

use presto_codecs::checksum::Crc32;
use std::fmt;

/// Framing overhead added to every record, in bytes.
pub const RECORD_OVERHEAD: usize = 8 + 4 + 4;

/// The 12 bytes that open a record of `len` payload bytes: the length
/// and its CRC.
pub fn record_header(len: u64) -> [u8; 12] {
    let len = len.to_le_bytes();
    let mut header = [0; 12];
    header[..8].copy_from_slice(&len);
    header[8..].copy_from_slice(&Crc32::checksum(&len).to_le_bytes());
    header
}

/// The 4 bytes that close a record whose payload CRC is `crc`.
pub fn record_trailer(crc: u32) -> [u8; 4] {
    crc.to_le_bytes()
}

/// The CRC of a stream whose CRC was `crc` once one record of `len`
/// payload bytes with payload CRC `payload_crc` is appended: the header
/// and trailer go through the CRC, the payload costs one
/// [`Crc32::combine`] and no pass over its bytes.
pub fn fold_record(crc: u32, len: u64, payload_crc: u32) -> u32 {
    let mut state = Crc32::resume(crc);
    state.update(&record_header(len));
    let mut state = Crc32::resume(Crc32::combine(state.finish(), payload_crc, len));
    state.update(&record_trailer(payload_crc));
    state.finish()
}

/// Errors from reading a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Stream ended mid-record.
    UnexpectedEof,
    /// The length header failed its CRC.
    BadLengthCrc,
    /// The payload failed its CRC.
    BadPayloadCrc,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::UnexpectedEof => write!(f, "record stream truncated"),
            RecordError::BadLengthCrc => write!(f, "record length CRC mismatch"),
            RecordError::BadPayloadCrc => write!(f, "record payload CRC mismatch"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Appends framed records to a byte buffer.
#[derive(Debug, Default)]
pub struct RecordWriter {
    buf: Vec<u8>,
    records: usize,
}

impl RecordWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate for an expected total size.
    pub fn with_capacity(bytes: usize) -> Self {
        RecordWriter {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Reuse an existing allocation (cleared first) instead of
    /// growing a fresh one — the buffer-pool path for hot encode
    /// loops.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        RecordWriter {
            buf,
            ..Self::default()
        }
    }

    /// Append one record.
    pub fn write(&mut self, payload: &[u8]) {
        self.write_pieces(payload.len(), |sink| sink(payload));
    }

    /// Append one record whose payload `fill` hands to its sink piece by
    /// piece, in order, so that it is assembled here and nowhere else.
    /// `size_hint` is the expected payload size, reserved up front; the
    /// header is written from the size that arrived.
    pub fn write_pieces(&mut self, size_hint: usize, fill: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        self.buf.reserve(size_hint + RECORD_OVERHEAD);
        let header = self.buf.len();
        self.buf.extend_from_slice(&[0; 12]);
        fill(&mut |piece| self.buf.extend_from_slice(piece));
        let payload = header + 12;
        let len = (self.buf.len() - payload) as u64;
        presto_codecs::touch::copy(len as usize);
        self.buf[header..payload].copy_from_slice(&record_header(len));
        let payload_crc = Crc32::checksum(&self.buf[payload..]);
        self.buf.extend_from_slice(&record_trailer(payload_crc));
        self.records += 1;
    }

    /// Number of records written.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total bytes including framing.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Consume the writer, returning the framed stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Iterates over the records of a framed stream, verifying CRCs.
#[derive(Debug)]
pub struct RecordReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Wrap a framed stream.
    pub fn new(data: &'a [u8]) -> Self {
        RecordReader { data, pos: 0 }
    }

    /// Read the next record, or `None` at a clean end of stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<&'a [u8], RecordError>> {
        Some(self.next_with_crc()?.map(|(payload, _)| payload))
    }

    /// [`RecordReader::next`], with the payload CRC the record was
    /// verified against — what [`fold_record`] needs to extend the CRC
    /// of the whole stream past it.
    pub fn next_with_crc(&mut self) -> Option<Result<(&'a [u8], u32), RecordError>> {
        if self.pos == self.data.len() {
            return None;
        }
        Some(self.read_one())
    }

    fn read_one(&mut self) -> Result<(&'a [u8], u32), RecordError> {
        if self.data.len() - self.pos < 12 {
            return Err(RecordError::UnexpectedEof);
        }
        let len = self
            .intact_header_at(self.pos)
            .ok_or(RecordError::BadLengthCrc)?;
        let end = self
            .record_end(self.pos, len)
            .ok_or(RecordError::UnexpectedEof)?;
        let (payload, trailer) = self.data[self.pos + 12..end].split_at(len as usize);
        let crc = Crc32::checksum(payload);
        if trailer != record_trailer(crc) {
            return Err(RecordError::BadPayloadCrc);
        }
        self.pos = end;
        Ok((payload, crc))
    }

    /// Resynchronize after an error from [`RecordReader::next`]: skip
    /// the corrupt record and position the reader at the next intact
    /// frame boundary. Returns the number of bytes discarded.
    ///
    /// When the length header is intact (payload CRC failure) the frame
    /// boundary is still trustworthy, so exactly one record is skipped.
    /// When the header itself is damaged, the reader scans forward for
    /// the next offset that parses as a valid, in-bounds length header.
    /// Reaching the end of the stream discards the remaining bytes.
    pub fn resync(&mut self) -> usize {
        let start = self.pos;
        let intact_record_end = |pos| {
            let len = self.intact_header_at(pos)?;
            self.record_end(pos, len)
        };
        if let Some(end) = intact_record_end(start) {
            self.pos = end;
            return end - start;
        }
        self.pos = (start + 1..self.data.len())
            .find(|&pos| intact_record_end(pos).is_some())
            .unwrap_or(self.data.len());
        self.pos - start
    }

    /// The record length at `pos`, when a CRC-valid length header
    /// starts there.
    fn intact_header_at(&self, pos: usize) -> Option<u64> {
        let header = self.data.get(pos..)?.get(..12)?;
        let len = u64::from_le_bytes(header[..8].try_into().unwrap());
        (header == record_header(len)).then_some(len)
    }

    /// One past the last byte of a record at `pos` declaring `len`
    /// payload bytes, when all of it lies inside the stream. `len` is
    /// whatever eight bytes on the medium say, up to `u64::MAX`.
    fn record_end(&self, pos: usize, len: u64) -> Option<usize> {
        let end = usize::try_from(len)
            .ok()?
            .checked_add(RECORD_OVERHEAD)?
            .checked_add(pos)?;
        (end <= self.data.len()).then_some(end)
    }

    /// Collect all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<&'a [u8]>, RecordError> {
        let mut out = Vec::new();
        while let Some(record) = self.next() {
            out.push(record?);
        }
        Ok(out)
    }
}

impl<'a> Iterator for RecordReader<'a> {
    type Item = Result<&'a [u8], RecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        RecordReader::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut writer = RecordWriter::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 100], (0..255).collect()];
        for p in &payloads {
            writer.write(p);
        }
        assert_eq!(writer.record_count(), 4);
        let stream = writer.finish();
        let mut reader = RecordReader::new(&stream);
        let records = reader.read_all().unwrap();
        assert_eq!(records.len(), payloads.len());
        for (got, want) in records.iter().zip(&payloads) {
            assert_eq!(got, &want.as_slice());
        }
    }

    #[test]
    fn overhead_constant_matches_layout() {
        let mut writer = RecordWriter::new();
        writer.write(&[0u8; 10]);
        assert_eq!(writer.byte_len(), 10 + RECORD_OVERHEAD);
    }

    /// Pieces frame exactly as the one slice they add up to, and the
    /// bytes are those the writer produced before it took pieces.
    #[test]
    fn pieces_frame_like_one_slice_and_the_bytes_are_pinned() {
        let mut whole = RecordWriter::new();
        whole.write(b"presto-rs");
        whole.write(b"");
        let mut pieces = RecordWriter::new();
        pieces.write_pieces(0, |sink| {
            sink(b"pre");
            sink(b"");
            sink(b"sto-rs");
        });
        pieces.write_pieces(7, |_| {});
        assert_eq!(pieces.record_count(), 2);
        let stream = pieces.finish();
        assert_eq!(stream, whole.finish());
        #[rustfmt::skip]
        let pinned = [
            0x09, 0, 0, 0, 0, 0, 0, 0, 0x42, 0xC4, 0x6D, 0x7A,
            b'p', b'r', b'e', b's', b't', b'o', b'-', b'r', b's', 0xA0, 0x12, 0x60, 0x27,
            0x00, 0, 0, 0, 0, 0, 0, 0, 0x69, 0xDF, 0x22, 0x65,
            0, 0, 0, 0,
        ];
        assert_eq!(stream, pinned);
    }

    /// The reader hands back each record's payload CRC, from which the
    /// stream's CRC folds.
    #[test]
    fn folded_crcs_are_the_crcs_of_the_bytes() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], (0..=255).collect(), vec![9; 4099]];
        let mut writer = RecordWriter::with_buffer(vec![0xEE; 32]);
        for payload in &payloads {
            writer.write(payload);
        }
        let stream = writer.finish();
        let crc = Crc32::checksum(&stream);
        let mut reader = RecordReader::new(&stream);
        let mut folded = 0;
        for payload in &payloads {
            let (record, record_crc) = reader.next_with_crc().unwrap().unwrap();
            assert_eq!(record, &payload[..]);
            assert_eq!(record_crc, Crc32::checksum(payload));
            folded = fold_record(folded, record.len() as u64, record_crc);
        }
        assert!(reader.next_with_crc().is_none());
        assert_eq!(folded, crc);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut reader = RecordReader::new(&[]);
        assert!(reader.next().is_none());
    }

    #[test]
    fn corrupt_length_crc_detected() {
        let mut writer = RecordWriter::new();
        writer.write(b"payload");
        let mut stream = writer.finish();
        stream[9] ^= 0xFF; // inside the length CRC
        let mut reader = RecordReader::new(&stream);
        assert_eq!(reader.next().unwrap(), Err(RecordError::BadLengthCrc));
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut writer = RecordWriter::new();
        writer.write(b"payload");
        let mut stream = writer.finish();
        stream[12] ^= 0xFF; // first payload byte
        let mut reader = RecordReader::new(&stream);
        assert_eq!(reader.next().unwrap(), Err(RecordError::BadPayloadCrc));
    }

    #[test]
    fn truncation_detected() {
        let mut writer = RecordWriter::new();
        writer.write(&[7u8; 64]);
        let stream = writer.finish();
        for cut in 1..stream.len() {
            let mut reader = RecordReader::new(&stream[..cut]);
            let result = reader.next().unwrap();
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    /// A stream of n records with payloads [0], [1], ...
    fn stream(n: u8) -> Vec<u8> {
        let mut writer = RecordWriter::new();
        for i in 0..n {
            writer.write(&[i; 24]);
        }
        writer.finish()
    }

    #[test]
    fn resync_after_payload_corruption_skips_exactly_one_record() {
        let mut data = stream(5);
        let record_size = 24 + RECORD_OVERHEAD;
        data[2 * record_size + 15] ^= 0x10; // payload of record 2
        let mut reader = RecordReader::new(&data);
        let mut recovered = Vec::new();
        let mut skipped = 0;
        while let Some(record) = reader.next() {
            match record {
                Ok(payload) => recovered.push(payload[0]),
                Err(RecordError::BadPayloadCrc) => {
                    assert_eq!(reader.resync(), record_size);
                    skipped += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(skipped, 1);
        assert_eq!(recovered, vec![0, 1, 3, 4]);
    }

    #[test]
    fn resync_after_header_corruption_scans_to_next_record() {
        let mut data = stream(5);
        let record_size = 24 + RECORD_OVERHEAD;
        data[record_size + 3] ^= 0xFF; // length field of record 1
        let mut reader = RecordReader::new(&data);
        let mut recovered = Vec::new();
        let mut skipped = 0;
        while let Some(record) = reader.next() {
            match record {
                Ok(payload) => recovered.push(payload[0]),
                Err(RecordError::BadLengthCrc) => {
                    assert_eq!(reader.resync(), record_size);
                    skipped += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(skipped, 1);
        assert_eq!(recovered, vec![0, 2, 3, 4]);
    }

    #[test]
    fn resync_on_truncated_tail_consumes_the_rest() {
        let data = stream(3);
        let cut = data.len() - 5;
        let mut reader = RecordReader::new(&data[..cut]);
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_ok());
        assert_eq!(reader.next().unwrap(), Err(RecordError::UnexpectedEof));
        let discarded = reader.resync();
        assert!(discarded > 0);
        assert!(reader.next().is_none(), "reader must reach a clean end");
    }

    #[test]
    fn resync_any_single_bit_flip_loses_at_most_one_record() {
        // Robustness sweep: flip every bit position in a 4-record
        // stream; recovery must always retain ≥ 3 records.
        let data = stream(4);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                let mut reader = RecordReader::new(&corrupted);
                let mut ok = 0;
                while let Some(record) = reader.next() {
                    match record {
                        Ok(_) => ok += 1,
                        Err(_) => {
                            reader.resync();
                        }
                    }
                }
                assert!(ok >= 3, "flip at byte {byte} bit {bit} lost too much: {ok}");
            }
        }
    }

    /// A record header declaring `len` payload bytes, with a valid
    /// length CRC, followed by `body`.
    fn lying_record(len: u64, body: &[u8]) -> Vec<u8> {
        let mut data = len.to_le_bytes().to_vec();
        data.extend_from_slice(&Crc32::checksum(&len.to_le_bytes()).to_le_bytes());
        data.extend_from_slice(body);
        data
    }

    #[test]
    fn crc_valid_length_past_the_end_is_eof_not_a_panic() {
        // `12 + len + 4` and `pos + RECORD_OVERHEAD + len` used to be
        // computed unchecked: add-overflow in the test profile, a
        // slice index past the end in release.
        let intact = stream(1);
        let body = [0xABu8; 40];
        let past_the_end = (12 + body.len() + intact.len() + 1) as u64;
        for len in [u64::MAX, u64::MAX - 15, past_the_end] {
            let mut data = lying_record(len, &body);
            let lie_len = data.len();
            data.extend_from_slice(&intact);
            let mut reader = RecordReader::new(&data);
            assert_eq!(reader.next().unwrap(), Err(RecordError::UnexpectedEof));
            // The header is intact but its record is not in bounds, so
            // resync scans to the next real record.
            assert_eq!(reader.resync(), lie_len, "len {len:#x}");
            assert_eq!(reader.next().unwrap(), Ok(&[0u8; 24][..]));
            assert!(reader.next().is_none());
            let mut alone = RecordReader::new(&data[..lie_len]);
            assert_eq!(alone.next().unwrap(), Err(RecordError::UnexpectedEof));
            assert_eq!(alone.resync(), lie_len);
            assert!(alone.next().is_none());
        }
    }

    #[test]
    fn iterator_interface() {
        let mut writer = RecordWriter::new();
        for i in 0..10u8 {
            writer.write(&[i]);
        }
        let stream = writer.finish();
        let sum: u32 = RecordReader::new(&stream)
            .map(|r| u32::from(r.unwrap()[0]))
            .sum();
        assert_eq!(sum, 45);
    }
}
