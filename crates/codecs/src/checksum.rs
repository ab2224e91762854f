//! CRC-32 (IEEE 802.3, as used by GZIP) and Adler-32 (as used by ZLIB).
//!
//! CRC-32 has one kernel and one fallback. On x86_64 with PCLMULQDQ,
//! [`Crc32::update`] folds inputs of 64 bytes or more by carry-less
//! multiplication (the private `clmul` module); the slicing-by-8
//! tables take everything else: the tail the kernel leaves, inputs
//! under 64 bytes, CPUs without the instruction, and other
//! architectures. The table path is also the oracle the property
//! tests hold the kernel to, bit for bit.
//!
//! CRC-32 is linear, so the CRC of `A‖B` follows from `crc(A)`,
//! `crc(B)` and `len(B)` alone: [`Crc32::combine`] computes it in
//! O(log len) with no pass over the bytes, and [`Crc32::resume`]
//! continues a stream from a finished value.

/// Table-driven CRC-32 with the reflected IEEE polynomial `0xEDB88320`.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// Slicing-by-8 table set: `TABLES[0]` is the classic Sarwate table,
/// `TABLES[k][n]` advances the CRC of byte `n` by `k` further zero
/// bytes, letting the table path consume 8 input bytes per iteration
/// instead of one.
const fn crc_tables() -> [[u32; 256]; 8] {
    let base = crc_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = base[(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// `a · b mod P` for two polynomials in the reflected representation
/// of the CRC state (bit 31 is x^0), after zlib's `multmodp`.
const fn multmodp(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & 0x8000_0000 != 0 {
            product ^= b;
        }
        a <<= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    product
}

/// `X2N_TABLE[k]` is `x^(2^k) mod P`, reflected: the factors that
/// shift a CRC past `2^k` zero bits (zlib's `x2n_table`).
const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
}

static X2N_TABLE: [u32; 32] = x2n_table();

/// `x^(n · 2^k) mod P`, reflected: one table factor per set bit of `n`.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N_TABLE[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Continue the checksum of a stream whose CRC so far is `crc`, as
    /// if the bytes behind it had gone through [`Crc32::update`].
    pub fn resume(crc: u32) -> Self {
        Crc32 {
            state: crc ^ 0xFFFF_FFFF,
        }
    }

    /// The CRC of `A‖B` from `crc_a = crc(A)`, `crc_b = crc(B)` and
    /// `len_b = len(B)` in bytes, without touching either (zlib's
    /// `crc32_combine`): `crc_a` is carried past `len_b` zero bytes by
    /// one multiplication mod P, O(log len_b), and `crc_b` added.
    pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
    }

    /// Feed bytes into the checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        crate::touch::crc(data.len());
        #[cfg(target_arch = "x86_64")]
        let data = {
            let (state, tail) = clmul::fold(self.state, data);
            self.state = state;
            tail
        };
        self.update_tables(data);
    }

    /// The slicing-by-8 path on its own: what `update` runs where the
    /// carry-less-multiply kernel does not apply, and the reference
    /// the property tests compare that kernel against.
    #[doc(hidden)]
    pub fn update_tables(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            c ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            c = t[7][(c & 0xFF) as usize]
                ^ t[6][((c >> 8) & 0xFF) as usize]
                ^ t[5][((c >> 16) & 0xFF) as usize]
                ^ t[4][(c >> 24) as usize]
                ^ t[3][chunk[4] as usize]
                ^ t[2][chunk[5] as usize]
                ^ t[1][chunk[6] as usize]
                ^ t[0][chunk[7] as usize];
        }
        for &byte in chunks.remainder() {
            c = t[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(data);
        crc.finish()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 by carry-less multiplication, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), in the bit-reflected form zlib's `crc32_simd` uses.
///
/// A 128-bit accumulator `a` stands for the polynomial the CRC state
/// would be after the bytes folded so far; moving it `d` bits further
/// down the message is `a.lo · (x^(d+32) mod P) ⊕ a.hi · (x^(d−32) mod P)`,
/// two carry-less multiplies, xored onto the 16 bytes that sit there.
/// Four accumulators 64 bytes apart keep four such chains in flight.
/// Each constant is `x^n mod P` bit-reflected and shifted left once
/// (the reflected product of two 64-bit values lands one bit low);
/// `fold_constants_follow_from_the_polynomial` derives them.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^(512+32)`, `x^(512−32)`: fold an accumulator over 64 bytes.
    const K1K2: [u64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
    /// `x^(128+32)`, `x^(128−32)`: fold over 16 bytes.
    const K3K4: [u64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
    /// `x^64`: fold 96 bits to 64.
    const K5: u64 = 0x1_63cd_6124;
    /// Barrett reduction: the reflected polynomial `P'` and
    /// `μ = ⌊x^64 / P⌋` reflected.
    const POLY_MU: [u64; 2] = [0x1_db71_0641, 0x1_f701_1641];

    /// Fold every whole 64-byte block of `data` into `state`; returns
    /// the new state and the unconsumed tail. Inputs under 64 bytes
    /// (record length headers) return before feature detection.
    #[inline]
    pub(super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 64 || !is_x86_feature_detected!("pclmulqdq") {
            return (state, data);
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        // SAFETY: `pclmulqdq` was detected on the line above (sse2 is
        // part of the x86_64 baseline). `fold_blocks` reads `blocks`
        // only through `loadu` (no alignment requirement) on the four
        // 16-byte quarters of each `chunks_exact(64)` chunk, all
        // inside the slice.
        (unsafe { fold_blocks(state, blocks) }, tail)
    }

    /// One fold step: `acc` carried past `next` by the constant pair `k`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn step(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// # Safety
    /// The CPU must support `pclmulqdq`; `blocks.len()` must be a
    /// non-zero multiple of 64.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_blocks(state: u32, blocks: &[u8]) -> u32 {
        let load = |chunk: &[u8], i: usize| _mm_loadu_si128(chunk[16 * i..][..16].as_ptr().cast());
        let pair = |k: [u64; 2]| _mm_set_epi64x(k[1] as i64, k[0] as i64);
        let mut chunks = blocks.chunks_exact(64);
        let first = chunks.next().expect("caller passes at least one block");
        let mut x = [
            load(first, 0),
            load(first, 1),
            load(first, 2),
            load(first, 3),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k = pair(K1K2);
        for chunk in chunks {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = step(*acc, k, load(chunk, i));
            }
        }
        // Four accumulators to one, then 128 bits to 64.
        let k = pair(K3K4);
        let x1 = step(step(step(x[0], k, x[1]), k, x[2]), k, x[3]);
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
        let x1 = _mm_xor_si128(
            _mm_srli_si128(x1, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
        );
        // Barrett reduction of the remaining 64 bits to the 32-bit state.
        let pm = pair(POLY_MU);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pm, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pm, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x1, t), 4)) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The IEEE polynomial with its x^32 term, normal bit order.
        const P: u64 = 0x1_04C1_1DB7;

        /// `x^n mod P`, bit-reflected and shifted left once.
        fn fold_constant(n: u32) -> u64 {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            u64::from((r as u32).reverse_bits()) << 1
        }

        #[test]
        fn fold_constants_follow_from_the_polynomial() {
            assert_eq!(K1K2, [fold_constant(512 + 32), fold_constant(512 - 32)]);
            assert_eq!(K3K4, [fold_constant(128 + 32), fold_constant(128 - 32)]);
            assert_eq!(K5, fold_constant(64));
            // μ = ⌊x^64 / P⌋ by long division; both 33-bit values are
            // stored bit-reflected.
            let (mut rem, mut mu) = (1u128 << 64, 0u64);
            for shift in (0..=32).rev() {
                if rem >> (shift + 32) & 1 != 0 {
                    rem ^= u128::from(P) << shift;
                    mu |= 1 << shift;
                }
            }
            let reflect33 = |v: u64| v.reverse_bits() >> 31;
            assert_eq!(POLY_MU, [reflect33(P), reflect33(mu)]);
        }
    }
}

/// Adler-32 running checksum (RFC 1950 §8.2).
#[derive(Debug, Clone)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

const ADLER_MOD: u32 = 65_521;
/// Largest n such that 255*n*(n+1)/2 + (n+1)*(MOD-1) fits in u32.
const ADLER_NMAX: usize = 5552;

impl Adler32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Adler32 { a: 1, b: 0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        crate::touch::crc(data.len());
        for chunk in data.chunks(ADLER_NMAX) {
            for &byte in chunk {
                self.a += byte as u32;
                self.b += self.a;
            }
            self.a %= ADLER_MOD;
            self.b %= ADLER_MOD;
        }
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut adler = Adler32::new();
        adler.update(data);
        adler.finish()
    }
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors computed with zlib's crc32()/adler32().
    #[test]
    fn crc32_known_vectors() {
        assert_eq!(Crc32::checksum(b""), 0x0000_0000);
        assert_eq!(Crc32::checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(Crc32::checksum(b"abc"), 0x3524_41C2);
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            Crc32::checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(Adler32::checksum(b""), 0x0000_0001);
        assert_eq!(Adler32::checksum(b"a"), 0x0062_0062);
        assert_eq!(Adler32::checksum(b"abc"), 0x024d_0127);
        assert_eq!(Adler32::checksum(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 13) as u8).collect();
        let mut crc = Crc32::new();
        let mut adler = Adler32::new();
        for chunk in data.chunks(97) {
            crc.update(chunk);
            adler.update(chunk);
        }
        assert_eq!(crc.finish(), Crc32::checksum(&data));
        assert_eq!(adler.finish(), Adler32::checksum(&data));
    }

    #[test]
    fn adler32_long_input_does_not_overflow() {
        let data = vec![0xFFu8; 1 << 20];
        // Must not panic in debug (overflow checks) and must be stable.
        let c1 = Adler32::checksum(&data);
        let c2 = Adler32::checksum(&data);
        assert_eq!(c1, c2);
    }
}
