//! `Crc32::combine` against the one-pass CRC: for buffers of the sizes
//! the serve path frames (record headers, single samples, BATCH2
//! blocks), split at seeded random points, the CRC of the whole follows
//! from the CRCs of the parts and their lengths.

use presto_codecs::checksum::Crc32;

/// SplitMix64: a seeded stream of test bytes and split points.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A point in `0..=len`.
    fn cut(&mut self, len: usize) -> usize {
        (self.next() % (len as u64 + 1)) as usize
    }
}

/// Lengths from the empty buffer through the 64-byte fold block and
/// its neighbours to a 37 672-byte record and a 16-record block.
const LENGTHS: [usize; 9] = [0, 1, 4, 63, 64, 65, 4096, 37_672, 602_752];

#[test]
fn combining_the_crcs_of_two_parts_gives_the_crc_of_the_whole() {
    let mut rng = SplitMix(0xC0FF_EE00);
    for len in LENGTHS {
        let data = rng.bytes(len);
        let whole = Crc32::checksum(&data);
        let mut cuts = vec![0, len, len / 2];
        cuts.extend((0..8).map(|_| rng.cut(len)));
        for cut in cuts {
            let (a, b) = data.split_at(cut);
            let combined = Crc32::combine(Crc32::checksum(a), Crc32::checksum(b), b.len() as u64);
            assert_eq!(combined, whole, "len {len}, cut at {cut}");
        }
    }
}

#[test]
fn combine_is_associative_over_three_parts() {
    let mut rng = SplitMix(0xA550_C1A7);
    for len in LENGTHS {
        let data = rng.bytes(len);
        for _ in 0..4 {
            let (i, j) = {
                let (x, y) = (rng.cut(len), rng.cut(len));
                (x.min(y), x.max(y))
            };
            let (a, b, c) = (&data[..i], &data[i..j], &data[j..]);
            let [ca, cb, cc] = [a, b, c].map(Crc32::checksum);
            let (lb, lc) = (b.len() as u64, c.len() as u64);
            let left = Crc32::combine(Crc32::combine(ca, cb, lb), cc, lc);
            let right = Crc32::combine(ca, Crc32::combine(cb, cc, lc), lb + lc);
            assert_eq!(left, right, "len {len}, cuts {i}, {j}");
            assert_eq!(left, Crc32::checksum(&data), "len {len}, cuts {i}, {j}");
        }
    }
}

#[test]
fn combining_with_the_empty_buffer_changes_nothing() {
    for crc in [0, 1, 0xCBF4_3926, 0xFFFF_FFFF, Crc32::checksum(b"presto")] {
        assert_eq!(Crc32::combine(crc, Crc32::checksum(b""), 0), crc);
        assert_eq!(Crc32::combine(Crc32::checksum(b""), crc, 0), crc);
    }
}

#[test]
fn hello_world_combines_to_the_known_vector() {
    let combined = Crc32::combine(Crc32::checksum(b"hello "), Crc32::checksum(b"world"), 5);
    assert_eq!(combined, 0x0D4A_1185);
    assert_eq!(combined, Crc32::checksum(b"hello world"));
}

#[test]
fn a_resumed_stream_continues_where_the_finished_one_stopped() {
    let mut rng = SplitMix(0x5EED);
    let data = rng.bytes(4096 + 17);
    for cut in [0, 1, 12, 64, 100, 4096, data.len()] {
        let (a, b) = data.split_at(cut);
        let mut resumed = Crc32::resume(Crc32::checksum(a));
        resumed.update(b);
        assert_eq!(resumed.finish(), Crc32::checksum(&data), "cut at {cut}");
    }
}
