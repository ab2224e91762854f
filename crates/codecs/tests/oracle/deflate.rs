//! The matcher and block emitter this crate shipped before its
//! two-chain matcher and table-driven emitter, kept verbatim as the
//! reference the new ones are compared against: a 3-byte-hash chain
//! walked to full depth at every position, linear scans of the
//! length/distance tables, a package-merge that clones its symbol sets,
//! and one dynamic, fixed or stored block per stream.

use presto_codecs::bitio::BitWriter;
use presto_codecs::deflate::{
    fixed_dist_lengths, fixed_litlen_lengths, CLEN_ORDER, DIST_TABLE, LENGTH_TABLE, NUM_CLEN,
    NUM_DIST, NUM_LITLEN,
};
use presto_codecs::huffman::{canonical_codes, MAX_BITS};
use presto_codecs::lz77::{Token, MAX_MATCH, MIN_MATCH, WINDOW_SIZE};
use presto_codecs::Level;

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Maximum hash-chain traversal per level.
fn max_chain(level: Level) -> usize {
    match level.0 {
        0 => 0,
        1 => 4,
        2 => 8,
        3 => 16,
        4 => 32,
        5 => 64,
        6 => 128,
        7 => 256,
        8 => 512,
        _ => 1024,
    }
}

/// Stop searching once a match at least this long is found.
fn good_enough(level: Level) -> usize {
    match level.0 {
        0..=3 => 16,
        4..=6 => 64,
        7..=8 => 128,
        _ => MAX_MATCH,
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped
/// at `max_len`. Compares 8-byte words and locates the first differing
/// byte with `trailing_zeros` on the XOR, so the hot loop is a single
/// word load + compare per 8 bytes instead of a per-byte branch (and
/// autovectorizes cleanly); `chunks_exact` handles the tail.
#[inline]
fn match_length(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    debug_assert!(a < b);
    let mut len = 0usize;
    while len + 8 <= max_len {
        let wa = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let diff = wa ^ wb;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let h = u32::from(data[pos])
        .wrapping_mul(0x9E37)
        .wrapping_add(u32::from(data[pos + 1]).wrapping_mul(0x79B9))
        .wrapping_add(u32::from(data[pos + 2]).wrapping_mul(0x1F35));
    (h as usize) & (HASH_SIZE - 1)
}

/// Tokenize `data` with greedy matching plus one-step lazy evaluation
/// (as in zlib): if the match starting at `pos + 1` is strictly longer,
/// emit a literal and take the later match.
pub fn tokenize(data: &[u8], level: Level) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    if level.0 == 0 || data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    let max_chain = max_chain(level);
    let good_enough = good_enough(level);
    // head[h] = most recent position with hash h (+1, 0 = empty);
    // prev[pos % WINDOW] = previous position in the chain (+1).
    let mut head = vec![0u32; HASH_SIZE];
    let mut prev = vec![0u32; WINDOW_SIZE];

    let insert = |head: &mut [u32], prev: &mut [u32], data: &[u8], pos: usize| {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            prev[pos % WINDOW_SIZE] = head[h];
            head[h] = pos as u32 + 1;
        }
    };

    let find_match =
        |head: &[u32], prev: &[u32], data: &[u8], pos: usize| -> Option<(usize, usize)> {
            if pos + MIN_MATCH > data.len() {
                return None;
            }
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let h = hash3(data, pos);
            let mut candidate = head[h];
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut chain = 0usize;
            while candidate != 0 && chain < max_chain {
                let cand_pos = (candidate - 1) as usize;
                if cand_pos >= pos || pos - cand_pos > WINDOW_SIZE {
                    break;
                }
                // Quick reject: check the byte that would extend the best match.
                if data[cand_pos + best_len.min(max_len - 1)]
                    == data[pos + best_len.min(max_len - 1)]
                {
                    let len = match_length(data, cand_pos, pos, max_len);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - cand_pos;
                        if len >= good_enough {
                            break;
                        }
                    }
                }
                candidate = prev[cand_pos % WINDOW_SIZE];
                chain += 1;
            }
            if best_len >= MIN_MATCH {
                Some((best_len, best_dist))
            } else {
                None
            }
        };

    let mut pos = 0usize;
    let mut pending: Option<(usize, usize)> = None; // match found at pos-1
    while pos < data.len() {
        let here = find_match(&head, &prev, data, pos);
        insert(&mut head, &mut prev, data, pos);
        match (pending.take(), here) {
            (Some((plen, _)), Some((len, _))) if len > plen => {
                // Lazy: the previous position becomes a literal; keep
                // evaluating the current match against the next one.
                tokens.push(Token::Literal(data[pos - 1]));
                pending = here;
                pos += 1;
            }
            (Some((plen, pdist)), _) => {
                // Previous match wins; it started at pos-1.
                tokens.push(Token::Match {
                    len: plen as u16,
                    dist: pdist as u16,
                });
                // Insert hash entries for the matched span (minus the two
                // positions already inserted).
                let end = pos - 1 + plen;
                pos += 1;
                while pos < end {
                    insert(&mut head, &mut prev, data, pos);
                    pos += 1;
                }
            }
            (None, Some(_)) => {
                pending = here;
                pos += 1;
            }
            (None, None) => {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    if let Some((plen, pdist)) = pending {
        tokens.push(Token::Match {
            len: plen as u16,
            dist: pdist as u16,
        });
    }
    tokens
}

/// Compute length-limited Huffman code lengths for `freqs` using the
/// package-merge algorithm. Symbols with zero frequency get length 0.
///
/// Returns one length per symbol, each `<= max_len`.
pub fn code_lengths(freqs: &[u64], max_len: usize) -> Vec<u8> {
    assert!(max_len <= MAX_BITS);
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match active.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs a 1-bit code so the decoder
            // has something to read.
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= active.len(),
        "cannot fit {} symbols in {}-bit codes",
        active.len(),
        max_len
    );

    // Package-merge: item = (weight, set of leaf symbols). At each of
    // the `max_len` levels, pair up items and merge with the leaf list.
    #[derive(Clone)]
    struct Item {
        weight: u64,
        symbols: Vec<usize>,
    }

    let mut leaves: Vec<Item> = active
        .iter()
        .map(|&s| Item {
            weight: freqs[s],
            symbols: vec![s],
        })
        .collect();
    leaves.sort_by_key(|item| item.weight);

    let mut level: Vec<Item> = leaves.clone();
    for _ in 1..max_len {
        // Package: pair adjacent items.
        let mut packages: Vec<Item> = Vec::with_capacity(level.len() / 2);
        let mut iter = level.chunks_exact(2);
        for pair in &mut iter {
            let mut symbols = pair[0].symbols.clone();
            symbols.extend_from_slice(&pair[1].symbols);
            packages.push(Item {
                weight: pair[0].weight + pair[1].weight,
                symbols,
            });
        }
        // Merge with the original leaves, keeping sorted order.
        let mut merged = Vec::with_capacity(packages.len() + leaves.len());
        let (mut i, mut j) = (0, 0);
        while i < packages.len() || j < leaves.len() {
            let take_package =
                j >= leaves.len() || (i < packages.len() && packages[i].weight <= leaves[j].weight);
            if take_package {
                merged.push(packages[i].clone());
                i += 1;
            } else {
                merged.push(leaves[j].clone());
                j += 1;
            }
        }
        level = merged;
    }

    // The first 2n-2 items of the final level determine the lengths:
    // each appearance of a leaf symbol adds one bit to its code length.
    let take = 2 * active.len() - 2;
    for item in level.iter().take(take) {
        for &s in &item.symbols {
            lengths[s] += 1;
        }
    }
    lengths
}

/// Map a match length (3..=258) to `(symbol, extra_bits_value, extra_bits)`.
pub fn length_symbol(len: u16) -> (u16, u32, u8) {
    debug_assert!((3..=258).contains(&len));
    // Binary-search-free scan: table is tiny.
    for (i, &(base, extra)) in LENGTH_TABLE.iter().enumerate().rev() {
        if len >= base {
            return (257 + i as u16, u32::from(len - base), extra);
        }
    }
    unreachable!("length out of range")
}

/// Map a distance (1..=32768) to `(symbol, extra_bits_value, extra_bits)`.
pub fn distance_symbol(dist: u16) -> (u16, u32, u8) {
    debug_assert!(dist >= 1);
    for (i, &(base, extra)) in DIST_TABLE.iter().enumerate().rev() {
        if dist >= base {
            return (i as u16, u32::from(dist - base), extra);
        }
    }
    unreachable!("distance out of range")
}

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], level: Level) -> Vec<u8> {
    let mut writer = BitWriter::new();
    if level.0 == 0 {
        write_stored(&mut writer, data);
        return writer.finish();
    }
    let tokens = tokenize(data, level);
    // Choose between fixed and dynamic Huffman by estimated cost; fall
    // back to stored if neither beats raw size (incompressible data).
    let (litlen_freq, dist_freq) = token_frequencies(&tokens);
    let dynamic_bits = estimate_dynamic_bits(&litlen_freq, &dist_freq, &tokens);
    let fixed_bits = estimate_fixed_bits(&tokens);
    let stored_bits = 8 * (data.len() + 5 * (data.len() / 65_535 + 1)) as u64;

    if stored_bits < fixed_bits && stored_bits < dynamic_bits {
        write_stored(&mut writer, data);
    } else if fixed_bits <= dynamic_bits {
        write_fixed_block(&mut writer, &tokens);
    } else {
        write_dynamic_block(&mut writer, &tokens, &litlen_freq, &dist_freq);
    }
    writer.finish()
}

fn write_stored(writer: &mut BitWriter, data: &[u8]) {
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        writer.write_bits(1, 1); // BFINAL
        writer.write_bits(0b00, 2); // stored
        writer.align_to_byte();
        writer.write_bytes(&[0, 0, 0xFF, 0xFF]);
        return;
    }
    while let Some(chunk) = chunks.next() {
        let final_block = chunks.peek().is_none();
        writer.write_bits(final_block as u32, 1);
        writer.write_bits(0b00, 2);
        writer.align_to_byte();
        let len = chunk.len() as u16;
        writer.write_bytes(&len.to_le_bytes());
        writer.write_bytes(&(!len).to_le_bytes());
        writer.write_bytes(chunk);
    }
}

fn token_frequencies(tokens: &[Token]) -> (Vec<u64>, Vec<u64>) {
    let mut litlen = vec![0u64; NUM_LITLEN];
    let mut dist = vec![0u64; NUM_DIST];
    for token in tokens {
        match *token {
            Token::Literal(b) => litlen[b as usize] += 1,
            Token::Match { len, dist: d } => {
                litlen[length_symbol(len).0 as usize] += 1;
                dist[distance_symbol(d).0 as usize] += 1;
            }
        }
    }
    litlen[256] += 1; // end of block
    (litlen, dist)
}

fn estimate_fixed_bits(tokens: &[Token]) -> u64 {
    let litlen = fixed_litlen_lengths();
    let mut bits = 3 + u64::from(litlen[256]);
    for token in tokens {
        match *token {
            Token::Literal(b) => bits += u64::from(litlen[b as usize]),
            Token::Match { len, dist } => {
                let (lsym, _, lextra) = length_symbol(len);
                let (_, _, dextra) = distance_symbol(dist);
                bits += u64::from(litlen[lsym as usize]) + u64::from(lextra);
                bits += 5 + u64::from(dextra);
            }
        }
    }
    bits
}

fn estimate_dynamic_bits(litlen_freq: &[u64], dist_freq: &[u64], tokens: &[Token]) -> u64 {
    let litlen_lengths = code_lengths(litlen_freq, 15);
    let dist_lengths = code_lengths(dist_freq, 15);
    // Header: rough upper bound — 3 + 14 + 19*3 + one 7-bit entry per
    // lit/dist length (ignores RLE gains, so the estimate is pessimistic,
    // which only makes the fixed-vs-dynamic choice conservative).
    let mut bits = 3 + 14 + 19 * 3;
    bits += 7
        * (litlen_lengths.iter().filter(|&&l| l > 0).count()
            + dist_lengths.iter().filter(|&&l| l > 0).count()) as u64;
    for token in tokens {
        match *token {
            Token::Literal(b) => bits += u64::from(litlen_lengths[b as usize]),
            Token::Match { len, dist } => {
                let (lsym, _, lextra) = length_symbol(len);
                let (dsym, _, dextra) = distance_symbol(dist);
                bits += u64::from(litlen_lengths[lsym as usize]) + u64::from(lextra);
                bits += u64::from(dist_lengths[dsym as usize]) + u64::from(dextra);
            }
        }
    }
    bits += u64::from(litlen_lengths[256]);
    bits
}

fn write_tokens(
    writer: &mut BitWriter,
    tokens: &[Token],
    litlen_codes: &[(u32, u8)],
    dist_codes: &[(u32, u8)],
) {
    for token in tokens {
        match *token {
            Token::Literal(b) => {
                let (code, len) = litlen_codes[b as usize];
                writer.write_code(code, u32::from(len));
            }
            Token::Match { len, dist } => {
                let (lsym, lval, lextra) = length_symbol(len);
                let (code, clen) = litlen_codes[lsym as usize];
                writer.write_code(code, u32::from(clen));
                if lextra > 0 {
                    writer.write_bits(lval, u32::from(lextra));
                }
                let (dsym, dval, dextra) = distance_symbol(dist);
                let (code, clen) = dist_codes[dsym as usize];
                writer.write_code(code, u32::from(clen));
                if dextra > 0 {
                    writer.write_bits(dval, u32::from(dextra));
                }
            }
        }
    }
    let (code, len) = litlen_codes[256];
    writer.write_code(code, u32::from(len)); // end of block
}

fn write_fixed_block(writer: &mut BitWriter, tokens: &[Token]) {
    writer.write_bits(1, 1); // BFINAL
    writer.write_bits(0b01, 2); // fixed
    let litlen_codes = canonical_codes(&fixed_litlen_lengths());
    let dist_codes = canonical_codes(&fixed_dist_lengths());
    write_tokens(writer, tokens, &litlen_codes, &dist_codes);
}

/// Run-length encode code lengths with symbols 16/17/18 (RFC 1951 §3.2.7).
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u8)> {
    // Output: (symbol, extra_bits_value)
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let len = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == len {
            run += 1;
        }
        if len == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let take = remaining.min(138);
                out.push((18, (take - 11) as u8));
                remaining -= take;
            }
            if remaining >= 3 {
                out.push((17, (remaining - 3) as u8));
                remaining = 0;
            }
            for _ in 0..remaining {
                out.push((0, 0));
            }
        } else {
            out.push((len, 0));
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                out.push((16, (take - 3) as u8));
                remaining -= take;
            }
            for _ in 0..remaining {
                out.push((len, 0));
            }
        }
        i += run;
    }
    out
}

fn write_dynamic_block(
    writer: &mut BitWriter,
    tokens: &[Token],
    litlen_freq: &[u64],
    dist_freq: &[u64],
) {
    let litlen_lengths = code_lengths(litlen_freq, 15);
    let mut dist_lengths = code_lengths(dist_freq, 15);
    // At least one distance code length must be transmitted.
    if dist_lengths.iter().all(|&l| l == 0) {
        dist_lengths = vec![0; NUM_DIST];
        dist_lengths[0] = 1;
    }

    let hlit = {
        let mut n = NUM_LITLEN;
        while n > 257 && litlen_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };
    let hdist = {
        let mut n = NUM_DIST;
        while n > 1 && dist_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };

    let mut combined = Vec::with_capacity(hlit + hdist);
    combined.extend_from_slice(&litlen_lengths[..hlit]);
    combined.extend_from_slice(&dist_lengths[..hdist]);
    let rle = rle_code_lengths(&combined);

    let mut clen_freq = vec![0u64; NUM_CLEN];
    for &(sym, _) in &rle {
        clen_freq[sym as usize] += 1;
    }
    let clen_lengths = code_lengths(&clen_freq, 7);
    let clen_codes = canonical_codes(&clen_lengths);

    let hclen = {
        let mut n = NUM_CLEN;
        while n > 4 && clen_lengths[CLEN_ORDER[n - 1]] == 0 {
            n -= 1;
        }
        n
    };

    writer.write_bits(1, 1); // BFINAL
    writer.write_bits(0b10, 2); // dynamic
    writer.write_bits((hlit - 257) as u32, 5);
    writer.write_bits((hdist - 1) as u32, 5);
    writer.write_bits((hclen - 4) as u32, 4);
    for &order in CLEN_ORDER.iter().take(hclen) {
        writer.write_bits(u32::from(clen_lengths[order]), 3);
    }
    for &(sym, extra) in &rle {
        let (code, len) = clen_codes[sym as usize];
        writer.write_code(code, u32::from(len));
        match sym {
            16 => writer.write_bits(u32::from(extra), 2),
            17 => writer.write_bits(u32::from(extra), 3),
            18 => writer.write_bits(u32::from(extra), 7),
            _ => {}
        }
    }

    let litlen_codes = canonical_codes(&litlen_lengths);
    let dist_codes = canonical_codes(&dist_lengths);
    write_tokens(writer, tokens, &litlen_codes, &dist_codes);
}
