//! Byte-pair encoding (Sennrich et al. 2016), as used by GPT-2-style
//! tokenization in the paper's NLP pipeline.
//!
//! Training greedily merges the most frequent adjacent symbol pair;
//! encoding applies the learned merges in rank order and maps the final
//! symbols to dense `i32` ids.

use std::collections::HashMap;

/// A trained byte-pair tokenizer.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// Merge rules in priority order: (left, right) symbol pair.
    merges: Vec<(String, String)>,
    /// Merge lookup: pair → rank.
    merge_rank: HashMap<(String, String), usize>,
    /// Symbol → token id.
    vocab: HashMap<String, i32>,
}

/// End-of-word marker appended to each word before merging, so merges
/// cannot cross word boundaries (standard BPE practice).
const EOW: &str = "</w>";

impl BpeTokenizer {
    /// Train on a corpus of text, learning at most `num_merges` merges.
    pub fn train(corpus: &str, num_merges: usize) -> Self {
        // Word frequency table; each word is a symbol sequence of
        // single characters plus the end-of-word marker.
        let mut word_freq: HashMap<Vec<String>, u64> = HashMap::new();
        for word in corpus.split_whitespace() {
            let mut symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            symbols.push(EOW.to_string());
            *word_freq.entry(symbols).or_insert(0) += 1;
        }

        let mut merges = Vec::with_capacity(num_merges);
        for _ in 0..num_merges {
            // Count adjacent pairs.
            let mut pair_freq: HashMap<(String, String), u64> = HashMap::new();
            for (symbols, &freq) in &word_freq {
                for window in symbols.windows(2) {
                    *pair_freq
                        .entry((window[0].clone(), window[1].clone()))
                        .or_insert(0) += freq;
                }
            }
            // Deterministic tie-break on the pair itself.
            let best = pair_freq
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), freq)) = best else {
                break;
            };
            if freq < 2 {
                break; // nothing left worth merging
            }
            // Apply the merge to every word.
            let merged_symbol = format!("{left}{right}");
            let mut next: HashMap<Vec<String>, u64> = HashMap::with_capacity(word_freq.len());
            for (symbols, freq) in word_freq {
                let mut out = Vec::with_capacity(symbols.len());
                let mut i = 0;
                while i < symbols.len() {
                    if i + 1 < symbols.len() && symbols[i] == left && symbols[i + 1] == right {
                        out.push(merged_symbol.clone());
                        i += 2;
                    } else {
                        out.push(symbols[i].clone());
                        i += 1;
                    }
                }
                *next.entry(out).or_insert(0) += freq;
            }
            word_freq = next;
            merges.push((left, right));
        }

        // Build the vocabulary: all symbols reachable after training,
        // plus single characters for open-vocabulary fallback.
        let mut vocab = HashMap::new();
        let add = |s: &str, vocab: &mut HashMap<String, i32>| {
            if !vocab.contains_key(s) {
                let id = vocab.len() as i32;
                vocab.insert(s.to_string(), id);
            }
        };
        add(EOW, &mut vocab);
        for symbols in word_freq.keys() {
            for s in symbols {
                add(s, &mut vocab);
            }
        }
        for (l, r) in &merges {
            add(l, &mut vocab);
            add(r, &mut vocab);
            add(&format!("{l}{r}"), &mut vocab);
        }

        let merge_rank = merges
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        BpeTokenizer {
            merges,
            merge_rank,
            vocab,
        }
    }

    /// Number of distinct token ids.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encode text into token ids. Unknown symbols (characters never
    /// seen in training) are skipped, keeping encoding total.
    pub fn encode(&self, text: &str) -> Vec<i32> {
        let mut ids = Vec::with_capacity(text.len() / 3 + 1);
        for word in text.split_whitespace() {
            let mut symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            symbols.push(EOW.to_string());
            // Repeatedly apply the lowest-rank applicable merge.
            loop {
                let mut best: Option<(usize, usize)> = None; // (rank, index)
                for i in 0..symbols.len().saturating_sub(1) {
                    let key = (symbols[i].clone(), symbols[i + 1].clone());
                    if let Some(&rank) = self.merge_rank.get(&key) {
                        if best.is_none_or(|(r, _)| rank < r) {
                            best = Some((rank, i));
                        }
                    }
                }
                let Some((_, i)) = best else { break };
                let merged = format!("{}{}", symbols[i], symbols[i + 1]);
                symbols.splice(i..i + 2, [merged]);
            }
            for symbol in &symbols {
                if let Some(&id) = self.vocab.get(symbol) {
                    ids.push(id);
                }
            }
        }
        ids
    }

    /// Mean tokens produced per whitespace word on `text` — useful for
    /// estimating the NLP pipeline's size transformation.
    pub fn tokens_per_word(&self, text: &str) -> f64 {
        let words = text.split_whitespace().count();
        if words == 0 {
            return 0.0;
        }
        self.encode(text).len() as f64 / words as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: &str = "the quick brown fox jumps over the lazy dog \
                          the quick brown fox the quick the the lazy dog dog";

    #[test]
    fn training_learns_merges() {
        let tok = BpeTokenizer::train(CORPUS, 50);
        assert!(tok.merge_count() > 0);
        assert!(tok.vocab_size() > 10);
    }

    #[test]
    fn frequent_words_compress_to_few_tokens() {
        let tok = BpeTokenizer::train(CORPUS, 200);
        // "the" appears 6 times: it should merge into one or two tokens.
        let ids = tok.encode("the");
        assert!(ids.len() <= 2, "'the' encoded as {} tokens", ids.len());
    }

    #[test]
    fn encoding_is_deterministic() {
        let tok = BpeTokenizer::train(CORPUS, 100);
        assert_eq!(tok.encode("the quick fox"), tok.encode("the quick fox"));
    }

    #[test]
    fn unseen_characters_are_skipped_not_panicking() {
        let tok = BpeTokenizer::train(CORPUS, 10);
        let ids = tok.encode("µ∆ the ≈");
        assert!(!ids.is_empty()); // "the" still encodes
    }

    #[test]
    fn zero_merges_yields_char_level_encoding() {
        let tok = BpeTokenizer::train(CORPUS, 0);
        let ids = tok.encode("dog");
        // d, o, g, </w>
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn empty_text_encodes_empty() {
        let tok = BpeTokenizer::train(CORPUS, 10);
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.tokens_per_word(""), 0.0);
    }

    #[test]
    fn more_merges_never_increase_token_count() {
        let small = BpeTokenizer::train(CORPUS, 5);
        let large = BpeTokenizer::train(CORPUS, 500);
        let text = "the quick brown fox jumps over the lazy dog";
        assert!(large.encode(text).len() <= small.encode(text).len());
    }
}
