//! `RecordReader::{next, resync}` under mutation, the way the engine
//! drives them (`resync` after every `Err`): a seeded 16-record stream
//! of random payloads, cut at every byte, flipped at every bit, and
//! spliced 10^5 times (10^6 under the CI fault matrix, which sets
//! `FAULT_SEED`). Every input must:
//!
//! - never panic, and end within `len + 1` calls to `next`, with
//!   `resync() > 0` after every `Err`;
//! - yield only `Ok` payloads byte-equal to an original one;
//! - when it is a truncation, yield exactly the records wholly before
//!   the cut, in order; when it is one bit flip, lose at most one.

use presto_codecs::checksum::Crc32;
use presto_tensor::record::{RecordReader, RecordWriter, RECORD_OVERHEAD};

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Sixteen records of 9..=48 random bytes, and the framed stream.
/// Longer than 8 bytes because a header is itself a valid frame of an
/// 8-byte payload (`len` then `crc(len)`), and `[ff; 4]` is its own
/// CRC: a spliced header after a genuine length of 4 or 8 would be a
/// real record that was never written.
fn corpus(rng: &mut Rng) -> (Vec<Vec<u8>>, Vec<u8>) {
    let payloads: Vec<Vec<u8>> = (0..16)
        .map(|_| (0..9 + rng.below(40)).map(|_| rng.next() as u8).collect())
        .collect();
    let mut writer = RecordWriter::new();
    for payload in &payloads {
        writer.write(payload);
    }
    (payloads, writer.finish())
}

/// Read `bytes` to the end, resyncing after every error, and return
/// the `Ok` payloads in order.
fn drain<'a>(bytes: &'a [u8], originals: &[Vec<u8>]) -> Vec<&'a [u8]> {
    let mut reader = RecordReader::new(bytes);
    let mut delivered = Vec::new();
    for _ in 0..=bytes.len() {
        match reader.next() {
            None => return delivered,
            Some(Ok(payload)) => {
                assert!(
                    originals.iter().any(|o| o == payload),
                    "delivered a payload that was never written: {payload:?}"
                );
                delivered.push(payload);
            }
            Some(Err(e)) => assert!(reader.resync() > 0, "resync after {e:?} made no progress"),
        }
    }
    panic!("{} bytes took more than len + 1 calls", bytes.len());
}

/// A CRC-valid length header declaring `len` payload bytes.
fn header(len: u64) -> Vec<u8> {
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.extend_from_slice(&Crc32::checksum(&len.to_le_bytes()).to_le_bytes());
    bytes
}

#[test]
fn mutated() {
    let (seed, splices) = match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => (seed, 1_000_000),
        None => (1, 100_000),
    };
    let mut rng = Rng(seed);
    let (payloads, original) = corpus(&mut rng);
    let originals = payloads.as_slice();
    assert_eq!(drain(&original, originals).len(), 16);

    let mut whole = 0;
    let mut record_end = RECORD_OVERHEAD + payloads[0].len();
    for cut in 0..=original.len() {
        if cut == record_end {
            whole += 1;
            record_end += payloads.get(whole).map_or(0, |p| p.len() + RECORD_OVERHEAD);
        }
        let expected: Vec<&[u8]> = payloads[..whole].iter().map(Vec::as_slice).collect();
        assert_eq!(drain(&original[..cut], originals), expected, "cut {cut}");
    }

    let mut flipped = original.clone();
    for bit in 0..original.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let kept = drain(&flipped, originals).len();
        assert!(kept >= 15, "flipping bit {bit} lost {} records", 16 - kept);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }

    for _ in 0..splices {
        let at = rng.below(original.len() as u64) as usize;
        let end = (at + rng.below(17) as usize).min(original.len());
        let mut spliced = original[..at].to_vec();
        match rng.below(3) {
            0 => spliced.extend((0..rng.below(9)).map(|_| rng.next() as u8)),
            1 => {
                let from = rng.below(original.len() as u64) as usize;
                let len = rng.below(65) as usize;
                spliced.extend_from_slice(&original[from..(from + len).min(original.len())]);
            }
            _ => {
                // A header that passes its CRC but claims a record
                // running past the end. (A short length could frame
                // the bytes after it: `[0; 8][crc]` then four zero
                // bytes is a valid empty record.)
                let past_end = (original.len() as u64) + rng.below(1 << 12);
                let lies = [u64::MAX, u64::MAX - 15, past_end, rng.next() | 1 << 63];
                spliced.extend(header(lies[rng.below(4) as usize]));
            }
        }
        spliced.extend_from_slice(&original[end..]);
        drain(&spliced, originals);
    }
}
