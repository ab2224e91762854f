//! Test payloads, rebuilt byte for byte from a seed. The first four are
//! `scripts/gen_inflate_vectors.py`'s inputs; the last three stand in
//! for what the pipelines store (the workspace's generators live above
//! this crate): prose, pixel-centred image tensors and quantized DCT
//! coefficients.

#![allow(dead_code)]

/// Knuth's MMIX generator, as in the script.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Roughly normal noise in `-amplitude..=amplitude`.
    fn noise(&mut self, amplitude: i64) -> i64 {
        let span = 2 * amplitude as u64 + 1;
        ((self.next() % span + self.next() % span) / 2) as i64 - amplitude
    }
}

pub fn text(size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0.. {
        if out.len() >= size {
            break;
        }
        out.extend_from_slice(format!("record {:06} field value {} ", i, i % 97).as_bytes());
    }
    out.truncate(size);
    out
}

pub fn noise_f32(count: usize) -> Vec<u8> {
    let mut rng = Lcg(1);
    (0..count)
        .flat_map(|_| ((rng.next() % 64) as f32 / 32.0 - 1.0).to_le_bytes())
        .collect()
}

pub fn fibonacci(symbols: u8) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut a, mut b) = (1usize, 2usize);
    for k in 0..symbols {
        out.extend(std::iter::repeat_n(k, a));
        (a, b) = (b, a + b);
    }
    let mut rng = Lcg(2);
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    out
}

pub fn noise_bytes(size: usize) -> Vec<u8> {
    let mut rng = Lcg(3);
    (0..size).map(|_| (rng.next() % 256) as u8).collect()
}

/// Sentences over a 256-word vocabulary, short words the most frequent,
/// in which three words out of four are one of the four usual
/// successors of the word before: repeated phrases, as in real text.
pub fn prose(size: usize) -> Vec<u8> {
    let mut rng = Lcg(4);
    let vocabulary: Vec<String> = (0..256)
        .map(|rank| {
            let letters = 2 + rank / 32 + (rng.next() % 4) as usize;
            (0..letters)
                .map(|_| (b'a' + (rng.next() % 26) as u8) as char)
                .collect()
        })
        .collect();
    // The product of two uniform draws leans towards rank 0.
    let any_word = |rng: &mut Lcg| ((rng.next() % 256) * (rng.next() % 256) / 256) as usize;
    let successors: Vec<[usize; 4]> = (0..256)
        .map(|_| [(); 4].map(|()| any_word(&mut rng)))
        .collect();
    let mut out = Vec::new();
    let mut word = 0;
    while out.len() < size {
        for _ in 0..5 + rng.next() % 12 {
            word = match rng.next() % 16 {
                pick @ 0..=11 => successors[word][pick as usize % 4],
                _ => any_word(&mut rng),
            };
            out.extend_from_slice(vocabulary[word].as_bytes());
            out.push(b' ');
        }
        out.pop();
        out.extend_from_slice(b".\n");
    }
    out.truncate(size);
    out
}

/// One 64x64 RGB image per 48 KiB: smooth gradients under a little
/// noise, each channel mapped from 0..=255 to an f32 in [-1, 1] — the
/// ~256 distinct words the `cv-offline` tensors are made of.
pub fn f32_tensor(size: usize) -> Vec<u8> {
    let mut rng = Lcg(5);
    let mut out = Vec::new();
    while out.len() < size {
        let (fx, fy) = (
            1.5 + (rng.next() % 25) as f32 / 10.0,
            1.5 + (rng.next() % 25) as f32 / 10.0,
        );
        let phase = (rng.next() % 628) as f32 / 100.0;
        for y in 0..64 {
            for x in 0..64 {
                let (u, v) = (x as f32 / 64.0, y as f32 / 64.0);
                let base = 110.0 + 70.0 * (u * fx + phase).sin() + 45.0 * (v * fy).cos();
                let noise = rng.noise(6) as f32;
                for channel in [
                    base + noise,
                    base * 0.9 + 20.0 + noise,
                    base * 0.8 + 10.0 - noise,
                ] {
                    let pixel = channel.clamp(0.0, 255.0) as u8;
                    out.extend_from_slice(&((f32::from(pixel) - 127.5) / 127.5).to_le_bytes());
                }
            }
        }
    }
    out.truncate(size);
    out
}

/// 8x8 blocks of i16 coefficients, quantized harder the higher the
/// frequency: a wandering DC term, a few small low-frequency values,
/// then runs of zeros.
pub fn dct_i16(size: usize) -> Vec<u8> {
    let mut rng = Lcg(6);
    let mut out = Vec::new();
    let mut dc = 0i64;
    while out.len() < size {
        dc = (dc + rng.noise(24)).clamp(-1000, 1000);
        out.extend_from_slice(&(dc as i16).to_le_bytes());
        for index in 1..64i64 {
            let value = rng.noise(40) / (index * index / 2 + 2);
            out.extend_from_slice(&(value as i16).to_le_bytes());
        }
    }
    out.truncate(size);
    out
}
