//! Synthetic language-modeling data.
//!
//! The paper trains on WebText-style corpora we cannot ship; the
//! substitution (documented in DESIGN.md) is a seeded synthetic token
//! stream with genuine sequential structure — a sparse random Markov chain
//! plus periodic patterns — so models *can* learn it, perplexity falls
//! with training, and larger models reach lower perplexity (the property
//! Figure 5 demonstrates).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic synthetic token corpus.
pub struct SyntheticCorpus {
    tokens: Vec<u32>,
    vocab: usize,
}

impl SyntheticCorpus {
    /// Generates `len` tokens over `vocab` symbols.
    ///
    /// Each symbol has a sparse successor distribution (4 likely
    /// successors out of `vocab`) drawn from `seed`; 10% of transitions are
    /// uniform noise. This gives an entropy floor well below `ln(vocab)`
    /// that a competent LM approaches.
    pub fn generate(vocab: usize, len: usize, seed: u64) -> SyntheticCorpus {
        assert!(vocab >= 8, "vocab too small for structure");
        let mut rng = StdRng::seed_from_u64(seed);
        // Successor table: 4 preferred next-tokens per token.
        let succ: Vec<[u32; 4]> = (0..vocab)
            .map(|_| {
                [
                    rng.gen_range(0..vocab) as u32,
                    rng.gen_range(0..vocab) as u32,
                    rng.gen_range(0..vocab) as u32,
                    rng.gen_range(0..vocab) as u32,
                ]
            })
            .collect();
        let mut tokens = Vec::with_capacity(len);
        let mut cur = rng.gen_range(0..vocab) as u32;
        for _ in 0..len {
            tokens.push(cur);
            cur = if rng.gen::<f32>() < 0.1 {
                rng.gen_range(0..vocab) as u32
            } else {
                succ[cur as usize][rng.gen_range(0..4)]
            };
        }
        SyntheticCorpus { tokens, vocab }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Raw token stream.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Cuts batch `index` of `batch` sequences of length `seq` (+1 for the
    /// shifted target), wrapping around the corpus. Returns `(ids, targets)`
    /// each of `batch·seq` tokens.
    pub fn batch(&self, index: usize, batch: usize, seq: usize) -> (Vec<u32>, Vec<u32>) {
        rank_batch(&self.tokens, index, batch, seq, 1, 0)
    }

    /// Slices a *rank's* share of a global batch — see [`rank_batch`].
    /// Data-parallel equivalence tests rely on this exact split.
    ///
    /// # Panics
    /// Panics if `dp` does not divide `global_batch`.
    pub fn rank_batch(
        &self,
        index: usize,
        global_batch: usize,
        seq: usize,
        dp: usize,
        rank: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        rank_batch(&self.tokens, index, global_batch, seq, dp, rank)
    }
}

/// The one batch slicer, over any token stream. Global batch `index` is
/// `global_batch` windows of `seq + 1` tokens (inputs plus the shifted
/// targets) laid end to end from token `index·global_batch·(seq+1)`,
/// each wrapping around the stream; it is split evenly over `dp` ranks
/// and rank `r` receives windows `r·(global_batch/dp) ..
/// (r+1)·(global_batch/dp)`. Returns `(ids, targets)`, each
/// `(global_batch/dp)·seq` tokens.
///
/// # Panics
/// Panics if `dp` does not divide `global_batch`, or the stream is not
/// longer than one window.
pub fn rank_batch(
    tokens: &[u32],
    index: usize,
    global_batch: usize,
    seq: usize,
    dp: usize,
    rank: usize,
) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(global_batch % dp, 0, "batch {global_batch} not divisible by dp {dp}");
    let span = seq + 1;
    assert!(tokens.len() > span, "corpus shorter than one sequence");
    let local = global_batch / dp;
    let mut ids = Vec::with_capacity(local * seq);
    let mut targets = Vec::with_capacity(local * seq);
    for b in rank * local..(rank + 1) * local {
        let start = (index * global_batch * span + b * span) % (tokens.len() - span);
        let window = &tokens[start..start + span];
        ids.extend_from_slice(&window[..seq]);
        targets.extend_from_slice(&window[1..]);
    }
    (ids, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = SyntheticCorpus::generate(64, 1000, 9);
        let b = SyntheticCorpus::generate(64, 1000, 9);
        assert_eq!(a.tokens(), b.tokens());
        let c = SyntheticCorpus::generate(64, 1000, 10);
        assert_ne!(a.tokens(), c.tokens());
    }

    #[test]
    fn tokens_in_range_and_structured() {
        let vocab = 32;
        let c = SyntheticCorpus::generate(vocab, 20_000, 4);
        assert!(c.tokens().iter().all(|&t| (t as usize) < vocab));
        // Structure check: most transitions concentrate on each token's
        // top-4 successors (the Markov structure), far from uniform where
        // the top 4 of 32 would capture only ~12.5% of mass.
        let mut counts = vec![0u32; vocab * vocab];
        for w in c.tokens().windows(2) {
            counts[w[0] as usize * vocab + w[1] as usize] += 1;
        }
        let mut concentrated = 0u64;
        let mut total = 0u64;
        for row in counts.chunks(vocab) {
            let mut sorted: Vec<u32> = row.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            concentrated += sorted[..4].iter().map(|&c| c as u64).sum::<u64>();
            total += row.iter().map(|&c| c as u64).sum::<u64>();
        }
        let frac = concentrated as f64 / total as f64;
        assert!(frac > 0.6, "top-4 successor mass {frac} too low");
    }

    #[test]
    fn batch_shapes_and_shift() {
        let c = SyntheticCorpus::generate(64, 10_000, 4);
        let (ids, tg) = c.batch(3, 4, 16);
        assert_eq!(ids.len(), 64);
        assert_eq!(tg.len(), 64);
        // Targets are inputs shifted by one within each sequence.
        for b in 0..4 {
            for i in 0..15 {
                assert_eq!(ids[b * 16 + i + 1], tg[b * 16 + i]);
            }
        }
    }

    #[test]
    fn rank_batches_partition_global_batch() {
        let c = SyntheticCorpus::generate(64, 10_000, 4);
        let (global_ids, global_tg) = c.batch(1, 8, 16);
        let mut re_ids = Vec::new();
        let mut re_tg = Vec::new();
        for r in 0..4 {
            let (ids, tg) = c.rank_batch(1, 8, 16, 4, r);
            assert_eq!(ids.len(), 2 * 16);
            re_ids.extend(ids);
            re_tg.extend(tg);
        }
        assert_eq!(re_ids, global_ids);
        assert_eq!(re_tg, global_tg);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_rank_batch_rejected() {
        let c = SyntheticCorpus::generate(64, 1000, 4);
        let _ = c.rank_batch(0, 6, 8, 4, 0);
    }
}

/// A byte-level corpus over real text: every byte is a token (vocab 256).
///
/// Lets the training examples run on user-supplied text instead of the
/// synthetic Markov stream, with zero tokenizer machinery.
pub struct ByteCorpus {
    tokens: Vec<u32>,
}

impl ByteCorpus {
    /// Builds a corpus from UTF-8 (or any) text; each byte is one token.
    ///
    /// # Panics
    /// Panics if the text is shorter than 2 bytes (no next-token pairs).
    pub fn from_text(text: &str) -> ByteCorpus {
        assert!(text.len() >= 2, "text too short to model");
        ByteCorpus {
            tokens: text.bytes().map(u32::from).collect(),
        }
    }

    /// Token count.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The byte-level vocabulary size (always 256).
    pub fn vocab(&self) -> usize {
        256
    }

    /// The raw token stream.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Cuts batch `index` exactly like [`SyntheticCorpus::batch`].
    pub fn batch(&self, index: usize, batch: usize, seq: usize) -> (Vec<u32>, Vec<u32>) {
        rank_batch(&self.tokens, index, batch, seq, 1, 0)
    }

    /// Decodes generated tokens back to (lossy) text.
    pub fn decode(tokens: &[u32]) -> String {
        let bytes: Vec<u8> = tokens.iter().map(|&t| (t % 256) as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod byte_tests {
    use super::*;

    #[test]
    fn text_round_trips_through_tokens() {
        let c = ByteCorpus::from_text("hello zero!");
        assert_eq!(c.len(), 11);
        assert_eq!(c.vocab(), 256);
        assert_eq!(ByteCorpus::decode(&c.tokens[..5]), "hello");
    }

    #[test]
    fn batches_shift_by_one() {
        let text = "abcdefghijklmnopqrstuvwxyz".repeat(4);
        let c = ByteCorpus::from_text(&text);
        let (ids, tg) = c.batch(0, 2, 8);
        assert_eq!(ids.len(), 16);
        for i in 0..7 {
            assert_eq!(ids[i + 1], tg[i]);
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn empty_text_rejected() {
        let _ = ByteCorpus::from_text("x");
    }
}
