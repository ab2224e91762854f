//! CRC-32 (IEEE 802.3, as used by GZIP) and Adler-32 (as used by ZLIB).
//!
//! CRC-32 has two kernels and one fallback, chosen per call from what
//! the CPU reports. On x86_64 with VPCLMULQDQ and AVX-512F,
//! [`Crc32::update`] folds every whole 256-byte block by 512-bit
//! carry-less multiplication; with PCLMULQDQ it folds 64-byte blocks
//! 128 bits at a time, which also takes the 64–255-byte remainder the
//! wide kernel leaves (both in the private `clmul` module). The
//! slicing-by-8 tables take everything else: the last tail, inputs
//! under 64 bytes, CPUs without the instructions, and other
//! architectures. The table path is also the oracle the tests hold
//! each kernel to, bit for bit.
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

    /// The slicing-by-8 path on its own: what `update` runs where no
    /// carry-less-multiply kernel applies, and the reference the tests
    /// compare each kernel against.
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
/// The narrow kernel keeps four accumulators 64 bytes apart in flight.
/// The wide kernel does the same with four 512-bit accumulators 256
/// bytes apart, each four 128-bit lanes folded at once, then folds them
/// to one lane. Both end in the same 128→32-bit reduction.
/// Each constant is `x^n mod P` bit-reflected and shifted left once
/// (the reflected product of two 64-bit values lands one bit low);
/// `fold_constants_follow_from_the_polynomial` derives them.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^(2048+32)`, `x^(2048−32)`: fold an accumulator over 256 bytes.
    const K_256B: [u64; 2] = [0x1_1542_778a, 0x1_322d_1430];
    /// `x^(512+32)`, `x^(512−32)`: fold an accumulator over 64 bytes.
    const K1K2: [u64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
    /// `x^(384+32)`, `x^(384−32)`: fold a lane over 48 bytes.
    const K_48B: [u64; 2] = [0x0_3db1_ecdc, 0x1_7435_9406];
    /// `x^(256+32)`, `x^(256−32)`: fold a lane over 32 bytes.
    const K_32B: [u64; 2] = [0x0_f1da_05aa, 0x1_5a54_6366];
    /// `x^(128+32)`, `x^(128−32)`: fold over 16 bytes.
    const K3K4: [u64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
    /// `x^64`: fold 96 bits to 64.
    const K5: u64 = 0x1_63cd_6124;
    /// Barrett reduction: the reflected polynomial `P'` and
    /// `μ = ⌊x^64 / P⌋` reflected.
    const POLY_MU: [u64; 2] = [0x1_db71_0641, 0x1_f701_1641];

    /// Fold every whole block of `data` into `state` with the widest
    /// kernel the CPU has; returns the new state and the bytes no kernel
    /// took, for the tables. Inputs of 256 bytes or more go 256 at a time
    /// through the wide kernel where VPCLMULQDQ and AVX-512F are
    /// present, and what is left 64 at a time through the narrow one.
    /// Inputs under 64 bytes (record length headers) return before
    /// feature detection.
    #[inline]
    pub(super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 64 || !is_x86_feature_detected!("pclmulqdq") {
            return (state, data);
        }
        let (state, data) = if data.len() >= 256 && has_wide() {
            let (blocks, rest) = data.split_at(data.len() & !255);
            // SAFETY: `pclmulqdq` was detected above and `has_wide`
            // detected `vpclmulqdq` and `avx512f`. `fold_wide` reads
            // `blocks` only through `loadu` (no alignment requirement)
            // on the four 64-byte quarters of each `chunks_exact(256)`
            // chunk, all inside the slice.
            (unsafe { fold_wide(state, blocks) }, rest)
        } else {
            (state, data)
        };
        if data.len() < 64 {
            return (state, data);
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        // SAFETY: `pclmulqdq` was detected above (sse2 is part of the
        // x86_64 baseline). `fold_blocks` reads `blocks` only through
        // `loadu` (no alignment requirement) on the four 16-byte
        // quarters of each `chunks_exact(64)` chunk, all inside the
        // slice.
        (unsafe { fold_blocks(state, blocks) }, tail)
    }

    /// Whether the CPU has the wide kernel's instructions.
    fn has_wide() -> bool {
        is_x86_feature_detected!("vpclmulqdq") && is_x86_feature_detected!("avx512f")
    }

    /// A constant pair as one 128-bit operand, `k[0]` in the low half.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn pair(k: [u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
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

    /// [`step`] on the four 128-bit lanes of `acc` at once.
    ///
    /// # Safety
    /// The CPU must support `vpclmulqdq` and `avx512f`.
    #[inline]
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    unsafe fn wide_step(acc: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, k, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, k, 0x11);
        _mm512_ternarylogic_epi64(lo, hi, next, 0x96) // lo ^ hi ^ next
    }

    /// # Safety
    /// The CPU must support `pclmulqdq`; `blocks.len()` must be a
    /// non-zero multiple of 64.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_blocks(state: u32, blocks: &[u8]) -> u32 {
        let load = |chunk: &[u8], i: usize| _mm_loadu_si128(chunk[16 * i..][..16].as_ptr().cast());
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
        // Four accumulators to one.
        let k = pair(K3K4);
        reduce(step(step(step(x[0], k, x[1]), k, x[2]), k, x[3]))
    }

    /// # Safety
    /// The CPU must support `pclmulqdq`, `vpclmulqdq` and `avx512f`;
    /// `blocks.len()` must be a non-zero multiple of 256.
    #[target_feature(enable = "pclmulqdq,vpclmulqdq,avx512f")]
    unsafe fn fold_wide(state: u32, blocks: &[u8]) -> u32 {
        let load =
            |chunk: &[u8], i: usize| _mm512_loadu_si512(chunk[64 * i..][..64].as_ptr().cast());
        let wide_pair = |k: [u64; 2]| _mm512_broadcast_i32x4(pair(k));
        let mut chunks = blocks.chunks_exact(256);
        let first = chunks.next().expect("caller passes at least one block");
        let mut z = [
            load(first, 0),
            load(first, 1),
            load(first, 2),
            load(first, 3),
        ];
        z[0] = _mm512_xor_si512(
            z[0],
            _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
        );
        let k = wide_pair(K_256B);
        for chunk in chunks {
            for (i, acc) in z.iter_mut().enumerate() {
                *acc = wide_step(*acc, k, load(chunk, i));
            }
        }
        // Four accumulators to one, 64 bytes at a time ...
        let k = wide_pair(K1K2);
        let z = wide_step(wide_step(wide_step(z[0], k, z[1]), k, z[2]), k, z[3]);
        // ... then its four lanes to one: lanes 0, 1 and 2 sit 48, 32
        // and 16 bytes before lane 3.
        let x = step(
            _mm512_extracti32x4_epi32(z, 2),
            pair(K3K4),
            _mm512_extracti32x4_epi32(z, 3),
        );
        let x = step(_mm512_extracti32x4_epi32(z, 1), pair(K_32B), x);
        reduce(step(_mm512_extracti32x4_epi32(z, 0), pair(K_48B), x))
    }

    /// The CRC state a 128-bit accumulator stands for: 128 bits to 64
    /// by `K3K4` and `K5`, then Barrett reduction to 32.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 8),
            _mm_clmulepi64_si128(x, pair(K3K4), 0x10),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
        );
        let pm = pair(POLY_MU);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pm, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pm, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4)) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::super::Crc32;
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
            let pair = |d: u32| [fold_constant(d + 32), fold_constant(d - 32)];
            assert_eq!(K_256B, pair(2048));
            assert_eq!(K1K2, pair(512));
            assert_eq!(K_48B, pair(384));
            assert_eq!(K_32B, pair(256));
            assert_eq!(K3K4, pair(128));
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

        /// A kernel: the state carried over a non-zero multiple of its
        /// block size.
        type Kernel = unsafe fn(u32, &[u8]) -> u32;

        /// Each tier this CPU has, with its block size. A tier it lacks
        /// is left out, with a line saying so.
        fn tiers() -> Vec<(&'static str, usize, Kernel)> {
            let mut tiers: Vec<(&'static str, usize, Kernel)> = Vec::new();
            if !is_x86_feature_detected!("pclmulqdq") {
                println!("skipped: no pclmulqdq, so neither clmul tier is tested");
                return tiers;
            }
            tiers.push(("128-bit", 64, fold_blocks));
            if has_wide() {
                tiers.push(("512-bit", 256, fold_wide));
            } else {
                println!("skipped: no vpclmulqdq + avx512f, so the 512-bit tier is not tested");
            }
            tiers
        }

        /// `state` carried over `data` by `kernel` on its whole blocks,
        /// then by the tables.
        fn by_tier(kernel: Kernel, block: usize, state: u32, data: &[u8]) -> u32 {
            let (blocks, tail) = data.split_at(data.len() / block * block);
            let mut crc = Crc32 { state };
            if !blocks.is_empty() {
                // SAFETY: `tiers` lists a kernel only where its features
                // were detected, and `blocks` is a non-zero multiple of
                // its block size.
                crc.state = unsafe { kernel(state, blocks) };
            }
            crc.update_tables(tail);
            crc.state
        }

        fn by_tables(state: u32, data: &[u8]) -> u32 {
            let mut crc = Crc32 { state };
            crc.update_tables(data);
            crc.state
        }

        /// `len` bytes of xorshift noise.
        fn noise(len: usize, mut seed: u64) -> Vec<u8> {
            (0..len)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed >> 32) as u8
                })
                .collect()
        }

        #[test]
        fn every_tier_matches_the_tables_at_every_length_and_offset() {
            let data = noise(1024 + 16, 0x5EED);
            for (name, block, kernel) in tiers() {
                for offset in 0..16 {
                    for len in 0..=1024 {
                        let bytes = &data[offset..offset + len];
                        assert_eq!(
                            by_tier(kernel, block, !0, bytes),
                            by_tables(!0, bytes),
                            "{name} tier, offset {offset}, {len} B"
                        );
                    }
                }
            }
        }

        #[test]
        fn every_tier_matches_the_tables_on_long_inputs_from_a_running_state() {
            let data = noise((1 << 20) + 77, 0xC0FFEE);
            for (name, block, kernel) in tiers() {
                for len in [2_048, 37_632, 49_192, 65_600, data.len()] {
                    let state = by_tables(!0, &data[len / 3..][..97]);
                    assert_ne!(state, !0);
                    assert_eq!(
                        by_tier(kernel, block, state, &data[..len]),
                        by_tables(state, &data[..len]),
                        "{name} tier, {len} B"
                    );
                }
            }
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
