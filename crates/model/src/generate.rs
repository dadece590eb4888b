//! Autoregressive generation from a trained model (inference path).
//!
//! Inference needs no ZeRO: a model trained under any stage reassembles
//! into a plain flat parameter buffer (see `TrainReport::gather_master_mp1`)
//! and samples single-process. Supports greedy decoding and
//! temperature/top-k sampling with a seeded RNG.
//!
//! Bad input is a *request* problem, not a programming error: out-of-vocab
//! token ids and exhausted context windows surface as [`GenerateError`]
//! instead of panicking, so a serving rank can reject the request and keep
//! running (`zero-serve` relies on this).
//!
//! The per-token math lives in three free functions — [`embed_step`],
//! [`block_step`], [`head_step`] — each taking one *unit's* parameter
//! slice. [`IncrementalDecoder`] drives them over its private caches; the
//! shard-hosted serving engine drives the identical code over gathered
//! unit buffers and a pooled [`BlockArena`](crate::kv::BlockArena), which
//! is what makes the two paths bitwise-equal (tested).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gpt::Gpt;

/// Why a generation request was rejected. These are recoverable input
/// errors — a server returns them to the client; nothing panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenerateError {
    /// A token id is outside the model's vocabulary — previously an
    /// unchecked `token * hidden` slice straight into an out-of-bounds
    /// panic inside the embedding lookup.
    TokenOutOfVocab {
        /// The offending token id.
        token: u32,
        /// The model's vocabulary size (valid ids are `0..vocab`).
        vocab: usize,
    },
    /// The position table is exhausted: the decoder has already consumed
    /// `seq` tokens and has no position embedding left for another.
    ContextExhausted {
        /// The model's context window length.
        seq: usize,
    },
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token id {token} is outside the vocabulary (0..{vocab})")
            }
            GenerateError::ContextExhausted { seq } => {
                write!(f, "context window exhausted ({seq} positions consumed)")
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// Sampling strategy for the next-token distribution.
#[derive(Clone, Copy, Debug)]
pub enum Sampling {
    /// Always the arg-max token.
    Greedy,
    /// Softmax with a temperature, optionally truncated to the top-k
    /// logits, sampled with the given seed.
    Temperature {
        /// Softmax temperature (>0; 1.0 = untempered).
        temperature: f32,
        /// Keep only the `top_k` most likely tokens (0 = all).
        top_k: usize,
        /// RNG seed.
        seed: u64,
    },
}

// ----- the shared per-token unit steps -----

/// One token's embedding row: token embedding + position embedding, given
/// the *embed unit's* parameter slice. Validates the token id and the
/// position so no downstream slice can go out of bounds.
///
/// # Errors
/// [`GenerateError::TokenOutOfVocab`] for an id ≥ vocab,
/// [`GenerateError::ContextExhausted`] for `pos ≥ seq`.
pub fn embed_step(
    gpt: &Gpt,
    embed_params: &[f32],
    token: u32,
    pos: usize,
) -> Result<Vec<f32>, GenerateError> {
    let cfg = gpt.config();
    let h = cfg.hidden;
    if token as usize >= cfg.vocab {
        return Err(GenerateError::TokenOutOfVocab { token, vocab: cfg.vocab });
    }
    if pos >= cfg.seq {
        return Err(GenerateError::ContextExhausted { seq: cfg.seq });
    }
    let emb = gpt.layout().embed_offsets();
    let tok_row = &embed_params[emb.tok.clone()][token as usize * h..(token as usize + 1) * h];
    let pos_row = &embed_params[emb.pos.clone()][pos * h..(pos + 1) * h];
    Ok(tok_row.iter().zip(pos_row).map(|(a, b)| a + b).collect())
}

/// One token through block `l`: appends this position's K/V rows to the
/// caches (each `seq × hidden`, one layer's worth), attends over the
/// visible past, and returns the block output row. `p` is the *block
/// unit's* parameter slice.
///
/// This is the contiguous-buffer convenience wrapper over
/// [`block_step_kv`]; both execute the identical arithmetic in the
/// identical order, so slab-backed, paged, and private-cache decoding
/// stay bitwise equal (tested in `tests/serving.rs`).
///
/// # Panics
/// Panics (debug) on cache-length or position inconsistencies — the
/// callers ([`IncrementalDecoder::feed`] and the serving engine) validate
/// positions before dispatching compute.
pub fn block_step(
    gpt: &Gpt,
    l: usize,
    p: &[f32],
    x: &[f32],
    k_cache: &mut [f32],
    v_cache: &mut [f32],
    pos: usize,
) -> Vec<f32> {
    let cfg = gpt.config();
    debug_assert_eq!(k_cache.len(), cfg.seq * cfg.hidden);
    debug_assert_eq!(v_cache.len(), cfg.seq * cfg.hidden);
    let mut kv = crate::kv::ContigKv::new(k_cache, v_cache, cfg.hidden);
    block_step_kv(gpt, l, p, x, &mut kv, 0, pos)
}

/// [`block_step`] over any [`KvArena`](crate::kv::KvArena) backing
/// store: the serving engine passes its paged KV pool with `slot`
/// naming the request's page table; the incremental decoder passes a
/// contiguous adapter. The kernel reads and writes the cache strictly
/// row-at-a-time, which is what lets a paged arena with non-contiguous
/// storage produce bitwise-identical logits.
pub fn block_step_kv<A: crate::kv::KvArena>(
    gpt: &Gpt,
    l: usize,
    p: &[f32],
    x: &[f32],
    kv: &mut A,
    slot: usize,
    pos: usize,
) -> Vec<f32> {
    use zero_tensor::ops::matmul::sgemm_nt;
    use zero_tensor::ops::norm::layernorm_forward;

    let cfg = gpt.config();
    let h = cfg.hidden;
    let (nh, hd) = (cfg.heads, cfg.head_dim());
    debug_assert!(pos < cfg.seq, "cache position out of range");
    let off = gpt.layout().block_offsets(l);
    let t = pos;

    // LN1 over a single row.
    let mut h1 = vec![0.0; h];
    let (mut mean, mut rstd) = (vec![0.0; 1], vec![0.0; 1]);
    layernorm_forward(x, &p[off.ln1_g.clone()], &p[off.ln1_b.clone()], &mut h1, &mut mean, &mut rstd, 1, h, 1e-5);
    // QKV for one token.
    let mut qkv = vec![0.0; 3 * h];
    sgemm_nt(&h1, &p[off.w_qkv.clone()], &mut qkv, 1, h, 3 * h);
    for (v, b) in qkv.iter_mut().zip(&p[off.b_qkv.clone()]) {
        *v += b;
    }
    // Append K, V to the cache.
    kv.write_row(l, slot, t, &qkv[h..2 * h], &qkv[2 * h..3 * h]);
    // Attention over the cache, per head.
    let scale = 1.0 / (hd as f32).sqrt();
    let mut attn = vec![0.0; h];
    for head in 0..nh {
        let q = &qkv[head * hd..(head + 1) * hd];
        let mut weights = vec![0.0; t + 1];
        for (i, w) in weights.iter_mut().enumerate() {
            let k = &kv.k_row(l, slot, i)[head * hd..(head + 1) * hd];
            *w = zero_tensor::ops::vector::dot(q, k) * scale;
        }
        // Softmax over the visible past.
        let max = weights.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0;
        for w in &mut weights {
            *w = (*w - max).exp();
            sum += *w;
        }
        let inv = 1.0 / sum;
        let out = &mut attn[head * hd..(head + 1) * hd];
        for (i, w) in weights.iter().enumerate() {
            let v = &kv.v_row(l, slot, i)[head * hd..(head + 1) * hd];
            for (o, &vv) in out.iter_mut().zip(v) {
                *o += w * inv * vv;
            }
        }
    }
    // Projection + residual.
    let mut ao = vec![0.0; h];
    sgemm_nt(&attn, &p[off.w_o.clone()], &mut ao, 1, h, h);
    for ((v, b), xv) in ao.iter_mut().zip(&p[off.b_o.clone()]).zip(x) {
        *v += b + xv;
    }
    // LN2 + MLP + residual.
    let mut h2 = vec![0.0; h];
    layernorm_forward(&ao, &p[off.ln2_g.clone()], &p[off.ln2_b.clone()], &mut h2, &mut mean, &mut rstd, 1, h, 1e-5);
    let ffn = 4 * h;
    let mut f1 = vec![0.0; ffn];
    sgemm_nt(&h2, &p[off.w_fc1.clone()], &mut f1, 1, h, ffn);
    for (v, b) in f1.iter_mut().zip(&p[off.b_fc1.clone()]) {
        *v += b;
        *v = zero_tensor::ops::activation::gelu_scalar(*v);
    }
    let mut f2 = vec![0.0; h];
    sgemm_nt(&f1, &p[off.w_fc2.clone()], &mut f2, 1, ffn, h);
    for ((v, b), av) in f2.iter_mut().zip(&p[off.b_fc2.clone()]).zip(&ao) {
        *v += b + av;
    }
    f2
}

/// One token through the head unit: final layer-norm + LM projection,
/// returning the `vocab`-length logits row. `head_params` is the *head
/// unit's* parameter slice.
pub fn head_step(gpt: &Gpt, head_params: &[f32], x: &[f32]) -> Vec<f32> {
    use zero_tensor::ops::matmul::sgemm_nt;
    use zero_tensor::ops::norm::layernorm_forward;

    let cfg = gpt.config();
    let h = cfg.hidden;
    let hoff = gpt.layout().head_offsets();
    let mut lnf = vec![0.0; h];
    let (mut mean, mut rstd) = (vec![0.0; 1], vec![0.0; 1]);
    layernorm_forward(
        x,
        &head_params[hoff.lnf_g.clone()],
        &head_params[hoff.lnf_b.clone()],
        &mut lnf,
        &mut mean,
        &mut rstd,
        1,
        h,
        1e-5,
    );
    let mut logits = vec![0.0; cfg.vocab];
    sgemm_nt(&lnf, &head_params[hoff.w_head.clone()], &mut logits, 1, h, cfg.vocab);
    logits
}

/// Autoregressive generator holding the model and its flat parameters.
pub struct Generator<'a> {
    gpt: &'a Gpt,
    params: &'a [f32],
}

impl<'a> Generator<'a> {
    /// Wraps a model and a full flat parameter buffer.
    ///
    /// # Panics
    /// Panics if the buffer does not match the model layout.
    pub fn new(gpt: &'a Gpt, params: &'a [f32]) -> Generator<'a> {
        assert_eq!(
            params.len(),
            gpt.num_params(),
            "parameter buffer does not match the model layout"
        );
        Generator { gpt, params }
    }

    /// Next-token logits given a full context window of `seq` ids.
    ///
    /// # Errors
    /// [`GenerateError::TokenOutOfVocab`] if any context id is ≥ vocab.
    ///
    /// # Panics
    /// Panics if `context` is not exactly `seq` long (a harness
    /// programming error, not a request error).
    pub fn next_token_logits(&self, context: &[u32]) -> Result<Vec<f32>, GenerateError> {
        let cfg = self.gpt.config();
        assert_eq!(context.len(), cfg.seq, "context must fill the window");
        if let Some(&bad) = context.iter().find(|&&t| t as usize >= cfg.vocab) {
            return Err(GenerateError::TokenOutOfVocab { token: bad, vocab: cfg.vocab });
        }
        let units = self.gpt.layout().units().to_vec();
        let mut x = self
            .gpt
            .embed(&self.params[units[0].range.clone()], context, 1);
        let mut ident = |_: &mut [f32]| {};
        for l in 0..cfg.layers {
            let u = &units[1 + l];
            let (y, _) = self
                .gpt
                .block_fwd(l, &self.params[u.range.clone()], &x, 1, &mut ident);
            x = y;
        }
        let hu = units.last().unwrap();
        let logits = self
            .gpt
            .head_logits(&self.params[hu.range.clone()], &x, 1);
        // Only the last position predicts the next token.
        Ok(logits[(cfg.seq - 1) * cfg.vocab..cfg.seq * cfg.vocab].to_vec())
    }

    /// Generates `n` tokens continuing `prompt` (which seeds the rolling
    /// window; it is left-padded by repetition if shorter than `seq`).
    ///
    /// # Errors
    /// [`GenerateError::TokenOutOfVocab`] if the prompt contains an id
    /// outside the vocabulary.
    ///
    /// # Panics
    /// Panics on an empty prompt (harness programming error).
    pub fn generate(
        &self,
        prompt: &[u32],
        n: usize,
        sampling: Sampling,
    ) -> Result<Vec<u32>, GenerateError> {
        let cfg = self.gpt.config();
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let mut window: Vec<u32> = std::iter::repeat(prompt.iter().copied())
            .flatten()
            .take(cfg.seq)
            .collect();
        if window.len() < cfg.seq {
            window.resize(cfg.seq, prompt[0]);
        }
        // Keep the prompt's tail at the window's end (most recent tokens).
        let tail = prompt.len().min(cfg.seq);
        window.rotate_left(tail % cfg.seq.max(1));
        window[cfg.seq - tail..].copy_from_slice(&prompt[prompt.len() - tail..]);

        let mut rng = match sampling {
            Sampling::Temperature { seed, .. } => Some(StdRng::seed_from_u64(seed)),
            Sampling::Greedy => None,
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let logits = self.next_token_logits(&window)?;
            let next = pick(&logits, sampling, rng.as_mut());
            out.push(next);
            window.rotate_left(1);
            let len = window.len();
            window[len - 1] = next;
        }
        Ok(out)
    }
}

fn pick(logits: &[f32], sampling: Sampling, rng: Option<&mut StdRng>) -> u32 {
    match sampling {
        Sampling::Greedy => argmax(logits) as u32,
        Sampling::Temperature {
            temperature,
            top_k,
            ..
        } => {
            assert!(temperature > 0.0, "temperature must be positive");
            let rng = rng.expect("rng for temperature sampling");
            let mut idx: Vec<usize> = (0..logits.len()).collect();
            idx.sort_unstable_by(|&a, &b| logits[b].partial_cmp(&logits[a]).unwrap());
            let keep = if top_k == 0 { logits.len() } else { top_k.min(logits.len()) };
            let kept = &idx[..keep];
            let max = logits[kept[0]];
            let weights: Vec<f32> = kept
                .iter()
                .map(|&i| ((logits[i] - max) / temperature).exp())
                .collect();
            let total: f32 = weights.iter().sum();
            let mut r = rng.gen::<f32>() * total;
            for (w, &i) in weights.iter().zip(kept) {
                r -= w;
                if r <= 0.0 {
                    return i as u32;
                }
            }
            kept[keep - 1] as u32
        }
    }
}

/// Arg-max of a logits row (ties resolve to the lowest index — the
/// convention every greedy path in the workspace shares, so outputs are
/// bitwise-comparable across serving and single-process decoding).
pub fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::gpt::init_full_params;

    fn tiny() -> (ModelConfig, Vec<f32>) {
        let cfg = ModelConfig {
            vocab: 16,
            seq: 8,
            hidden: 16,
            layers: 1,
            heads: 2,
        };
        (cfg, init_full_params(&cfg, 4))
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let g = Generator::new(&gpt, &params);
        let a = g.generate(&[1, 2, 3], 6, Sampling::Greedy).unwrap();
        let b = g.generate(&[1, 2, 3], 6, Sampling::Greedy).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| (t as usize) < cfg.vocab));
    }

    #[test]
    fn temperature_sampling_is_seeded() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let g = Generator::new(&gpt, &params);
        let s = |seed| Sampling::Temperature {
            temperature: 1.0,
            top_k: 0,
            seed,
        };
        let a = g.generate(&[5], 8, s(1)).unwrap();
        let b = g.generate(&[5], 8, s(1)).unwrap();
        let c = g.generate(&[5], 8, s(2)).unwrap();
        assert_eq!(a, b, "same seed, same tokens");
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn top_k_restricts_to_likely_tokens() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let g = Generator::new(&gpt, &params);
        // With top_k = 1 every draw equals greedy.
        let greedy = g.generate(&[7, 3], 5, Sampling::Greedy).unwrap();
        let k1 = g
            .generate(
                &[7, 3],
                5,
                Sampling::Temperature {
                    temperature: 2.0,
                    top_k: 1,
                    seed: 9,
                },
            )
            .unwrap();
        assert_eq!(greedy, k1);
    }

    #[test]
    fn long_prompts_keep_their_tail() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let g = Generator::new(&gpt, &params);
        let long: Vec<u32> = (0..20).map(|i| (i % 16) as u32).collect();
        let out = g.generate(&long, 3, Sampling::Greedy).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_parameter_length_rejected() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let _ = Generator::new(&gpt, &params[..10]);
    }

    #[test]
    fn out_of_vocab_context_is_a_typed_error_not_a_panic() {
        let (cfg, params) = tiny();
        let gpt = Gpt::new(cfg);
        let g = Generator::new(&gpt, &params);
        // Regression: this used to slice `token * hidden` unchecked and
        // panic out-of-bounds inside the embedding lookup.
        let mut context = vec![0u32; cfg.seq];
        context[3] = cfg.vocab as u32 + 100;
        let err = g.next_token_logits(&context).unwrap_err();
        assert_eq!(
            err,
            GenerateError::TokenOutOfVocab { token: cfg.vocab as u32 + 100, vocab: cfg.vocab }
        );
        // The boundary id is also out of range (valid ids are 0..vocab).
        let mut boundary = vec![0u32; cfg.seq];
        boundary[0] = cfg.vocab as u32;
        assert!(matches!(
            g.next_token_logits(&boundary),
            Err(GenerateError::TokenOutOfVocab { .. })
        ));
        // And generate propagates the rejection from the prompt.
        let err = g.generate(&[1, 99], 4, Sampling::Greedy).unwrap_err();
        assert!(matches!(err, GenerateError::TokenOutOfVocab { token: 99, .. }));
    }
}

/// Incremental (KV-cached) decoder: O(context) per token instead of a
/// full-window re-forward — the standard inference optimization, exact
/// w.r.t. the full forward pass (verified in tests).
pub struct IncrementalDecoder<'a> {
    gpt: &'a Gpt,
    params: &'a [f32],
    /// Per block: cached keys and values, `[pos, attn_width]` row-major.
    k_cache: Vec<Vec<f32>>,
    v_cache: Vec<Vec<f32>>,
    /// Tokens consumed so far (bounded by the position-table length).
    pos: usize,
}

impl<'a> IncrementalDecoder<'a> {
    /// Creates an empty decoder (caches sized for one `seq` window).
    ///
    /// # Panics
    /// Panics if `params` does not match the model layout or the model is
    /// model-parallel (inference here is single-process).
    pub fn new(gpt: &'a Gpt, params: &'a [f32]) -> IncrementalDecoder<'a> {
        assert_eq!(params.len(), gpt.num_params(), "parameter buffer mismatch");
        assert_eq!(gpt.mp_degree(), 1, "incremental decode is single-process");
        let cfg = gpt.config();
        let aw = cfg.hidden;
        IncrementalDecoder {
            gpt,
            params,
            k_cache: vec![vec![0.0; cfg.seq * aw]; cfg.layers],
            v_cache: vec![vec![0.0; cfg.seq * aw]; cfg.layers],
            pos: 0,
        }
    }

    /// Tokens consumed.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Feeds one token, returns the next-token logits.
    ///
    /// # Errors
    /// [`GenerateError::ContextExhausted`] once `seq` tokens have been
    /// consumed, [`GenerateError::TokenOutOfVocab`] for an id ≥ vocab —
    /// both previously panicked (an `assert!` and an unchecked slice),
    /// which took down the whole serving rank on one bad request.
    pub fn feed(&mut self, token: u32) -> Result<Vec<f32>, GenerateError> {
        let cfg = *self.gpt.config();
        let units = self.gpt.layout().units().to_vec();
        let t = self.pos;

        let mut x = embed_step(self.gpt, &self.params[units[0].range.clone()], token, t)?;
        for l in 0..cfg.layers {
            x = block_step(
                self.gpt,
                l,
                &self.params[units[1 + l].range.clone()],
                &x,
                &mut self.k_cache[l],
                &mut self.v_cache[l],
                t,
            );
        }
        let hu = units.last().unwrap();
        let logits = head_step(self.gpt, &self.params[hu.range.clone()], &x);
        self.pos += 1;
        Ok(logits)
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::gpt::init_full_params;

    #[test]
    fn incremental_matches_full_forward_at_every_position() {
        let cfg = ModelConfig {
            vocab: 24,
            seq: 10,
            hidden: 16,
            layers: 2,
            heads: 2,
        };
        let params = init_full_params(&cfg, 6);
        let gpt = Gpt::new(cfg);
        let tokens: Vec<u32> = (0..cfg.seq as u32).map(|i| (i * 7) % 24).collect();

        // Full-window forward once.
        let units = gpt.layout().units().to_vec();
        let mut x = gpt.embed(&params[units[0].range.clone()], &tokens, 1);
        let mut ident = |_: &mut [f32]| {};
        for l in 0..cfg.layers {
            let u = &units[1 + l];
            let (y, _) = gpt.block_fwd(l, &params[u.range.clone()], &x, 1, &mut ident);
            x = y;
        }
        let hu = units.last().unwrap();
        let full_logits = gpt.head_logits(&params[hu.range.clone()], &x, 1);

        // Incremental decode, token by token.
        let mut dec = IncrementalDecoder::new(&gpt, &params);
        for (t, &tok) in tokens.iter().enumerate() {
            let logits = dec.feed(tok).unwrap();
            let want = &full_logits[t * cfg.vocab..(t + 1) * cfg.vocab];
            for (a, b) in logits.iter().zip(want) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "position {t}: incremental {a} vs full {b}"
                );
            }
        }
    }

    #[test]
    fn window_exhaustion_is_a_typed_error_not_a_panic() {
        let cfg = ModelConfig {
            vocab: 16,
            seq: 3,
            hidden: 8,
            layers: 1,
            heads: 2,
        };
        let params = init_full_params(&cfg, 1);
        let gpt = Gpt::new(cfg);
        let mut dec = IncrementalDecoder::new(&gpt, &params);
        for _ in 0..3 {
            dec.feed(0).expect("within the window");
        }
        // Regression: the fourth feed used to `assert!` the rank down.
        let err = dec.feed(0).unwrap_err();
        assert_eq!(err, GenerateError::ContextExhausted { seq: 3 });
        // A rejected feed consumes no position: the decoder stays usable.
        assert_eq!(dec.position(), 3);
    }

    #[test]
    fn out_of_vocab_feed_is_a_typed_error_and_consumes_nothing() {
        let cfg = ModelConfig {
            vocab: 16,
            seq: 4,
            hidden: 8,
            layers: 1,
            heads: 2,
        };
        let params = init_full_params(&cfg, 1);
        let gpt = Gpt::new(cfg);
        let mut dec = IncrementalDecoder::new(&gpt, &params);
        // Regression: this used to slice out of bounds in the embedding.
        let err = dec.feed(16).unwrap_err();
        assert_eq!(err, GenerateError::TokenOutOfVocab { token: 16, vocab: 16 });
        assert_eq!(dec.position(), 0, "rejected token must not advance the cache");
        // The decoder still works after a rejection.
        let logits = dec.feed(5).unwrap();
        assert_eq!(logits.len(), 16);
        assert_eq!(dec.position(), 1);
    }
}
