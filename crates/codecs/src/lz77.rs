//! LZ77 matching over a 32 KiB sliding window, producing the
//! literal/match token stream consumed by the DEFLATE encoder.
//!
//! Every position is entered into two hash chains. The chain over an
//! 8-byte hash is short even on data with few distinct words (pixel-centred
//! f32 tensors repeat ~256 four-byte values, so a 3- or 4-byte hash
//! chains a hundred real candidates) and holds every match of 8 bytes or
//! more; it is searched first. The chain over a 4-byte hash is consulted
//! only when that found nothing of 7 bytes, and left as soon as it has
//! one. Where neither has anything, the most recent place the next 3
//! bytes were seen is tried, if it is near. Matches are taken lazily as
//! zlib does: a match is held back one position to see whether a longer
//! one starts there, with less effort the longer the held match already
//! is.
//!
//! At level 6 that is ~30 ns per byte on a 1.5 MiB shard of f32 tensors
//! (zlib -6: 56) for an output within 0.3 % of what walking a 3-byte
//! chain to its end at every position gave, at a third of the time.

use crate::Level;

/// DEFLATE window size.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum useful match length.
pub const MIN_MATCH: usize = 3;
/// Maximum match length encodable by DEFLATE.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// The 4-byte chain stops at a match this long: one byte more and the
/// 8-byte chain would have had it.
const SHORT_MATCH: usize = 7;
const RECENT_BITS: u32 = 12;
/// A 3-byte match is taken from at most this far back (zlib's TOO_FAR).
const NEAR: usize = 4096;

/// A single LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length, `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance, `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

/// Length of the common prefix of two slices of one length. Compares
/// 8-byte words and locates the first differing byte with
/// `trailing_zeros` on the XOR, so the hot loop is a single word load +
/// compare per 8 bytes instead of a per-byte branch; the tail goes byte
/// by byte.
#[inline]
fn match_length(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut len = 0;
    for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let wa = u64::from_le_bytes(wa.try_into().unwrap());
        let wb = u64::from_le_bytes(wb.try_into().unwrap());
        let diff = wa ^ wb;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + (a[len..].iter().zip(&b[len..]))
        .take_while(|(a, b)| a == b)
        .count()
}

/// One hash chain: `head[h]` is the most recent position with hash `h`,
/// plus one so that 0 is none, and `prev[pos % WINDOW_SIZE]` how far
/// before `pos` the one before it in its chain lies, 0 for none within
/// the window.
struct Chain {
    head: Box<[u32]>,
    prev: Box<[u16]>,
}

impl Chain {
    fn new() -> Self {
        Chain {
            head: vec![0; HASH_SIZE].into_boxed_slice(),
            prev: vec![0; WINDOW_SIZE].into_boxed_slice(),
        }
    }

    #[inline]
    fn insert(&mut self, hash: usize, pos: usize) {
        let back = match self.head[hash] as usize {
            0 => 0,
            before => pos + 1 - before,
        };
        self.prev[pos % WINDOW_SIZE] = if back <= WINDOW_SIZE { back as u16 } else { 0 };
        self.head[hash] = (pos as u32).wrapping_add(1);
    }

    /// Walk at most `budget` candidates for the `max_len` bytes at
    /// `pos`, improving on `best = (len, dist)` and stopping at a match
    /// of `enough` bytes. Needs `best.0 < enough <= max_len`.
    #[inline]
    fn search(
        &self,
        data: &[u8],
        (hash, pos, max_len): (usize, usize, usize),
        (budget, enough): (usize, usize),
        best: &mut (usize, usize),
    ) {
        let here = &data[pos..pos + max_len];
        let candidate = self.head[hash] as usize;
        if candidate == 0 {
            return;
        }
        let mut at = candidate - 1;
        for _ in 0..budget {
            if pos - at > WINDOW_SIZE {
                return;
            }
            // Quick reject: the byte that would extend the best match.
            if data[at + best.0] == here[best.0] {
                let len = match_length(&data[at..at + max_len], here);
                if len > best.0 {
                    *best = (len, pos - at);
                    if len >= enough {
                        return;
                    }
                }
            }
            let back = self.prev[at % WINDOW_SIZE] as usize;
            if back == 0 {
                return;
            }
            at -= back;
        }
    }
}

/// The matcher's state over one input: both chains, the search effort of
/// its [`Level`], and where [`Matcher::next_block`] stopped. Positions
/// are kept in 32 bits: past 4 GiB of input no further match is found.
pub struct Matcher<'a> {
    data: &'a [u8],
    long: Chain,
    short: Chain,
    /// The most recent position, plus one, of each hash of 3 bytes.
    recent: Box<[u32]>,
    max_chain: usize,
    good_enough: usize,
    good_length: usize,
    max_lazy: usize,
    pos: usize,
    /// A match starting at `pos - 1`, held back for the lazy probe.
    pending: Option<(usize, usize)>,
}

impl<'a> Matcher<'a> {
    /// A matcher at the start of `data`. Level 0 searches no chain and
    /// finds literals only.
    pub fn new(data: &'a [u8], level: Level) -> Self {
        Matcher {
            data,
            long: Chain::new(),
            short: Chain::new(),
            recent: vec![0; 1 << RECENT_BITS].into_boxed_slice(),
            max_chain: level.max_chain(),
            good_enough: level.good_enough(),
            good_length: level.good_length(),
            max_lazy: level.max_lazy(),
            pos: 0,
            pending: None,
        }
    }

    /// Look among `budget` candidates per chain for a match at `pos`
    /// longer than `longer_than`, then enter `pos` into both chains.
    /// The last 7 positions of the input are passed over: a match from
    /// or to them could save a few bits at most.
    #[inline]
    fn visit(&mut self, pos: usize, longer_than: usize, budget: usize) -> Option<(usize, usize)> {
        let data = self.data;
        let word = u64::from_le_bytes(data.get(pos..pos + 8)?.try_into().unwrap());
        let long = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HASH_BITS)) as usize;
        let short = ((word as u32).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize;
        let tiny = (((word as u32) << 8).wrapping_mul(0x9E37_79B1) >> (32 - RECENT_BITS)) as usize;
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best = (longer_than.max(MIN_MATCH), 0);
        if budget > 0 && best.0 < max_len {
            let enough = self.good_enough.clamp(best.0 + 1, max_len);
            self.long
                .search(data, (long, pos, max_len), (budget, enough), &mut best);
            if best.0 < SHORT_MATCH {
                let enough = (budget, SHORT_MATCH);
                self.short
                    .search(data, (short, pos, max_len), enough, &mut best);
            }
            // Nothing of 4 bytes, and no held-back match to beat: the
            // last place these 3 bytes were seen will do if it is near.
            let at = self.recent[tiny] as usize;
            if best.1 == 0
                && longer_than < MIN_MATCH
                && at != 0
                && pos + 1 - at <= NEAR
                && data[at - 1..at + 2] == data[pos..pos + 3]
            {
                best = (MIN_MATCH, pos + 1 - at);
            }
        }
        self.long.insert(long, pos);
        self.short.insert(short, pos);
        self.recent[tiny] = (pos as u32).wrapping_add(1);
        (best.1 != 0).then_some(best)
    }

    /// Tokenize on from where the last call stopped, handing each token
    /// to `emit`, until the input ends or `max_tokens` (plus a held-back
    /// match at the very end) are out. Returns how many bytes of the
    /// input all tokens so far cover.
    pub fn next_block(&mut self, max_tokens: usize, mut emit: impl FnMut(Token)) -> usize {
        let data = self.data;
        let token = |(len, dist): (usize, usize)| Token::Match {
            len: len as u16,
            dist: dist as u16,
        };
        let mut emitted = 0;
        while self.pos < data.len() && emitted < max_tokens {
            let pos = self.pos;
            // Lazy evaluation: a longer match starting here turns the
            // start of the held-back one into a literal. The longer that
            // one is, the less a probe can gain: it gets a quarter of
            // the chain from `good_length` on, nothing from `max_lazy`.
            let (held, budget) = match self.pending {
                None => (MIN_MATCH - 1, self.max_chain),
                Some((len, _)) if len >= self.max_lazy => (len, 0),
                Some((len, _)) if len >= self.good_length => (len, self.max_chain >> 2),
                Some((len, _)) => (len, self.max_chain),
            };
            let found = self.visit(pos, held, budget);
            self.pos += 1;
            match (self.pending, found) {
                (None, None) => emit(Token::Literal(data[pos])),
                (None, Some(_)) => {
                    self.pending = found;
                    continue;
                }
                (Some(_), Some(_)) => {
                    emit(Token::Literal(data[pos - 1]));
                    self.pending = found;
                }
                (Some(held), None) => {
                    emit(token(held));
                    self.pending = None;
                    let end = pos - 1 + held.0;
                    while self.pos < end {
                        self.visit(self.pos, 0, 0);
                        self.pos += 1;
                    }
                }
            }
            emitted += 1;
        }
        if self.pos == data.len() {
            if let Some(held) = self.pending.take() {
                emit(token(held));
            }
        }
        self.pos - usize::from(self.pending.is_some())
    }
}

/// Tokenize all of `data` in one go.
pub fn tokenize(data: &[u8], level: Level) -> Vec<Token> {
    let mut tokens = Vec::new();
    Matcher::new(data, level).next_block(usize::MAX, |token| tokens.push(token));
    tokens
}

/// Expand a token stream back into bytes (used by tests and as the
/// reference semantics for the inflate copy loop).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(data: &[u8], level: Level) {
        let tokens = tokenize(data, level);
        assert_eq!(expand(&tokens), data, "token stream must reproduce input");
        for t in &tokens {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(*len as usize)));
                assert!((1..=WINDOW_SIZE).contains(&(*dist as usize)));
            }
        }
    }

    #[test]
    fn all_literals_on_random_bytes() {
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        check(&data, Level::DEFAULT);
    }

    #[test]
    fn run_of_identical_bytes_compresses_to_matches() {
        let data = vec![7u8; 1000];
        let tokens = tokenize(&data, Level::DEFAULT);
        let matches = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches >= 3, "expected RLE-style matches, got {tokens:?}");
        check(&data, Level::DEFAULT);
    }

    #[test]
    fn repeated_phrase_found() {
        let data = b"the quick brown fox. the quick brown fox. the quick brown fox.".to_vec();
        let tokens = tokenize(&data, Level::DEFAULT);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        check(&data, Level::DEFAULT);
    }

    #[test]
    fn every_level_roundtrips() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("row-{} ", i % 50).as_bytes());
        }
        for level in 0..=9u8 {
            check(&data, Level(level));
        }
    }

    #[test]
    fn tiny_inputs() {
        check(&[], Level::DEFAULT);
        check(&[1], Level::DEFAULT);
        check(&[1, 2], Level::DEFAULT);
        check(&[1, 1, 1], Level::DEFAULT);
    }

    #[test]
    fn overlapping_copy_semantics() {
        // dist < len overlapping copies (classic RLE encoding).
        let tokens = vec![Token::Literal(9), Token::Match { len: 10, dist: 1 }];
        assert_eq!(expand(&tokens), vec![9u8; 11]);
    }
}
