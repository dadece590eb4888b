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
//! The decode math lives in three free functions — [`embed_rows`],
//! [`block_rows_kv`], [`head_rows`] — each taking one *unit's* parameter
//! slice and a [`RowBatch`]: any mix of (slot, position, token) rows, a
//! whole prompt or one decode row per request. [`IncrementalDecoder`]
//! drives them one row at a time over its private cache; the shard-hosted
//! serving engine drives the identical code over gathered unit buffers, a
//! pooled [`BlockArena`](crate::kv::BlockArena) and every pending row of
//! every live request at once. A row's arithmetic does not depend on what
//! else is in its batch, which is what makes the two paths bitwise-equal
//! (tested).

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

// ----- the shared row-batch unit steps -----

/// One row of a [`RowBatch`]: `token` fed at position `pos` of cache slot
/// `slot`.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// KV slot the row's request decodes through.
    pub slot: usize,
    /// Decoder position (the K/V row this token writes).
    pub pos: usize,
    /// The token fed at that position.
    pub token: u32,
}

/// A ragged batch of decoder rows and every buffer the unit steps need
/// to push it through the model, allocated once for `max_rows` rows.
///
/// Rows of one slot must be pushed in increasing position with nothing
/// missing below them in the cache: a row attends to positions `0..=pos`
/// of its own slot, which are either already cached or written by an
/// earlier row of the same batch. Rows of different slots are independent,
/// so a batch may mix a whole prompt of one request with single decode
/// rows of others. Every row's arithmetic is that of a one-row batch —
/// layer norm is per row and each GEMM output is its products summed in
/// increasing `p` whatever `m` is (`matmul.rs`) — so how a token stream is
/// chunked into batches never changes a bit of its logits or K/V rows.
pub struct RowBatch {
    max_rows: usize,
    rows: Vec<Row>,
    /// The residual stream, `[rows × hidden]`.
    x: Vec<f32>,
    /// Layer-norm output.
    normed: Vec<f32>,
    qkv: Vec<f32>,
    attn: Vec<f32>,
    /// Attention projection + residual; the head's gathered input rows.
    mid: Vec<f32>,
    fc1: Vec<f32>,
    mean: Vec<f32>,
    rstd: Vec<f32>,
    /// One head's attention weights over a row's visible past.
    weights: Vec<f32>,
    logits: Vec<f32>,
}

impl RowBatch {
    /// An empty batch with room for `max_rows` rows of `cfg`'s shape.
    pub fn new(cfg: &crate::ModelConfig, max_rows: usize) -> RowBatch {
        let h = cfg.hidden;
        let buf = |width: usize| vec![0.0; max_rows * width];
        RowBatch {
            max_rows,
            rows: Vec::with_capacity(max_rows),
            x: buf(h),
            normed: buf(h),
            qkv: buf(3 * h),
            attn: buf(h),
            mid: buf(h),
            fc1: buf(4 * h),
            mean: buf(1),
            rstd: buf(1),
            weights: vec![0.0; cfg.seq],
            logits: buf(cfg.vocab),
        }
    }

    /// Empties the batch (the buffers stay).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the batch already holds `max_rows` rows.
    pub fn push(&mut self, slot: usize, pos: usize, token: u32) {
        assert!(self.rows.len() < self.max_rows, "row batch is full");
        self.rows.push(Row { slot, pos, token });
    }

    /// The rows pushed since the last [`clear`](Self::clear).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

/// Starts a batch's pass through the model: every row's residual becomes
/// its token embedding + position embedding, given the *embed unit's*
/// parameter slice. Validates every token id and position first, so no
/// downstream slice can go out of bounds and a rejected batch has written
/// nothing.
///
/// # Errors
/// [`GenerateError::TokenOutOfVocab`] for an id ≥ vocab,
/// [`GenerateError::ContextExhausted`] for `pos ≥ seq`.
pub fn embed_rows(gpt: &Gpt, embed_params: &[f32], b: &mut RowBatch) -> Result<(), GenerateError> {
    let cfg = gpt.config();
    let h = cfg.hidden;
    for r in &b.rows {
        if r.token as usize >= cfg.vocab {
            return Err(GenerateError::TokenOutOfVocab { token: r.token, vocab: cfg.vocab });
        }
        if r.pos >= cfg.seq {
            return Err(GenerateError::ContextExhausted { seq: cfg.seq });
        }
    }
    let emb = gpt.layout().embed_offsets();
    let (tok, pos) = (&embed_params[emb.tok.clone()], &embed_params[emb.pos.clone()]);
    for (r, x) in b.rows.iter().zip(b.x.chunks_exact_mut(h)) {
        let tok_row = &tok[r.token as usize * h..(r.token as usize + 1) * h];
        let pos_row = &pos[r.pos * h..(r.pos + 1) * h];
        for ((x, t), p) in x.iter_mut().zip(tok_row).zip(pos_row) {
            *x = t + p;
        }
    }
    Ok(())
}

/// The batch through block `l`: one layer norm and one GEMM per linear
/// layer over all rows, every row's K/V written to `kv` first, then each
/// row attends over the visible past of its own slot. `p` is the *block
/// unit's* parameter slice; the serving engine passes its paged KV pool,
/// the incremental decoder a [`ContigKv`](crate::kv::ContigKv). The cache
/// is read and written strictly row-at-a-time, which is what lets a paged
/// arena with non-contiguous storage produce bitwise-identical logits.
///
/// # Panics
/// Panics (debug) on a cache position out of range — callers validate
/// positions in [`embed_rows`] before dispatching compute.
pub fn block_rows_kv<A: crate::kv::KvArena>(gpt: &Gpt, l: usize, p: &[f32], kv: &mut A, b: &mut RowBatch) {
    use zero_tensor::ops::activation::add_bias_gelu;
    use zero_tensor::ops::matmul::sgemm;
    use zero_tensor::ops::norm::layernorm_forward;
    use zero_tensor::ops::vector::dot;

    let cfg = gpt.config();
    let (h, ffn) = (cfg.hidden, 4 * cfg.hidden);
    let (nh, hd) = (cfg.heads, cfg.head_dim());
    let off = gpt.layout().block_offsets(l);
    let n = b.rows.len();
    let rows = &b.rows;
    let x = &mut b.x[..n * h];
    let normed = &mut b.normed[..n * h];
    let qkv = &mut b.qkv[..n * 3 * h];
    let attn = &mut b.attn[..n * h];
    let mid = &mut b.mid[..n * h];
    let fc1 = &mut b.fc1[..n * ffn];
    let (mean, rstd) = (&mut b.mean[..n], &mut b.rstd[..n]);

    // LN1, then QKV for every row.
    layernorm_forward(x, &p[off.ln1_g.clone()], &p[off.ln1_b.clone()], normed, mean, rstd, n, h, 1e-5);
    sgemm(normed, &p[off.w_qkv.clone()], qkv, n, h, 3 * h);
    for row in qkv.chunks_exact_mut(3 * h) {
        for (v, bias) in row.iter_mut().zip(&p[off.b_qkv.clone()]) {
            *v += bias;
        }
    }
    // Append every row's K, V to the cache before any row attends: a
    // prompt row sees the rows of its own batch below it.
    for (r, row) in rows.iter().zip(qkv.chunks_exact(3 * h)) {
        debug_assert!(r.pos < cfg.seq, "cache position out of range");
        kv.write_row(l, r.slot, r.pos, &row[h..2 * h], &row[2 * h..]);
    }
    // Causal attention over the row's slot, per head.
    let scale = 1.0 / (hd as f32).sqrt();
    attn.fill(0.0);
    for ((r, row), attn) in rows.iter().zip(qkv.chunks_exact(3 * h)).zip(attn.chunks_exact_mut(h)) {
        let weights = &mut b.weights[..=r.pos];
        for head in 0..nh {
            let q = &row[head * hd..(head + 1) * hd];
            for (i, w) in weights.iter_mut().enumerate() {
                let k = &kv.k_row(l, r.slot, i)[head * hd..(head + 1) * hd];
                *w = dot(q, k) * scale;
            }
            // Softmax over the visible past.
            let max = weights.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for w in weights.iter_mut() {
                *w = (*w - max).exp();
                sum += *w;
            }
            let inv = 1.0 / sum;
            let out = &mut attn[head * hd..(head + 1) * hd];
            for (i, w) in weights.iter().enumerate() {
                let v = &kv.v_row(l, r.slot, i)[head * hd..(head + 1) * hd];
                for (o, &vv) in out.iter_mut().zip(v) {
                    *o += w * inv * vv;
                }
            }
        }
    }
    // Projection + residual.
    sgemm(attn, &p[off.w_o.clone()], mid, n, h, h);
    for (row, x) in mid.chunks_exact_mut(h).zip(x.chunks_exact(h)) {
        for ((v, bias), xv) in row.iter_mut().zip(&p[off.b_o.clone()]).zip(x) {
            *v += bias + xv;
        }
    }
    // LN2 + MLP + residual, back into the residual stream.
    layernorm_forward(mid, &p[off.ln2_g.clone()], &p[off.ln2_b.clone()], normed, mean, rstd, n, h, 1e-5);
    sgemm(normed, &p[off.w_fc1.clone()], fc1, n, h, ffn);
    add_bias_gelu(fc1, &p[off.b_fc1.clone()]);
    sgemm(fc1, &p[off.w_fc2.clone()], x, n, ffn, h);
    for (row, mid) in x.chunks_exact_mut(h).zip(mid.chunks_exact(h)) {
        for ((v, bias), mv) in row.iter_mut().zip(&p[off.b_fc2.clone()]).zip(mid) {
            *v += bias + mv;
        }
    }
}

/// The head unit over the rows `picks` indexes (a request's last row —
/// no other row's logits are ever read): final layer norm + LM
/// projection. Returns `picks.len()` logits rows of `vocab` each.
/// `head_params` is the *head unit's* parameter slice.
pub fn head_rows<'b>(gpt: &Gpt, head_params: &[f32], picks: &[usize], b: &'b mut RowBatch) -> &'b [f32] {
    use zero_tensor::ops::matmul::sgemm;
    use zero_tensor::ops::norm::layernorm_forward;

    let cfg = gpt.config();
    let h = cfg.hidden;
    let hoff = gpt.layout().head_offsets();
    let n = picks.len();
    for (&i, row) in picks.iter().zip(b.mid.chunks_exact_mut(h)) {
        debug_assert!(i < b.rows.len(), "pick beyond the batch");
        row.copy_from_slice(&b.x[i * h..(i + 1) * h]);
    }
    layernorm_forward(
        &b.mid[..n * h],
        &head_params[hoff.lnf_g.clone()],
        &head_params[hoff.lnf_b.clone()],
        &mut b.normed[..n * h],
        &mut b.mean[..n],
        &mut b.rstd[..n],
        n,
        h,
        1e-5,
    );
    let logits = &mut b.logits[..n * cfg.vocab];
    sgemm(&b.normed[..n * h], &head_params[hoff.w_head.clone()], logits, n, h, cfg.vocab);
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
/// w.r.t. the full forward pass (verified in tests). Each token is a
/// one-row [`RowBatch`] through the shared unit steps.
pub struct IncrementalDecoder<'a> {
    gpt: &'a Gpt,
    params: &'a [f32],
    /// Cached keys and values of every block, one slot.
    kv: crate::kv::ContigKv,
    batch: RowBatch,
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
        IncrementalDecoder {
            gpt,
            params,
            kv: crate::kv::ContigKv::new(cfg.layers, 1, cfg.seq, cfg.hidden),
            batch: RowBatch::new(cfg, 1),
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
        let units = self.gpt.layout().units();
        let unit = |u: usize| &self.params[units[u].range.clone()];
        self.batch.clear();
        self.batch.push(0, self.pos, token);
        embed_rows(self.gpt, unit(0), &mut self.batch)?;
        for l in 0..self.gpt.config().layers {
            block_rows_kv(self.gpt, l, unit(1 + l), &mut self.kv, &mut self.batch);
        }
        let logits = head_rows(self.gpt, unit(units.len() - 1), &[0], &mut self.batch).to_vec();
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

#[cfg(test)]
mod row_batch_proptests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::gpt::init_full_params;
    use crate::kv::{ContigKv, KvArena};
    use proptest::prelude::*;

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// However each slot's token stream is cut into batches — whole,
        /// token by token, at random points, sitting a batch out — and
        /// whatever other slots' rows share those batches, every batch's
        /// last-row logits and every K/V row are bit for bit what
        /// `IncrementalDecoder::feed` produces for that stream alone.
        #[test]
        fn any_chunking_of_a_token_stream_is_bitwise_the_one_row_decoder(
            streams in prop::collection::vec(prop::collection::vec(0u32..24, 1..11), 1..4),
            cuts in prop::collection::vec(0usize..64, 40..41),
            mode in 0usize..3,
        ) {
            let cfg = ModelConfig { vocab: 24, seq: 10, hidden: 16, layers: 2, heads: 2 };
            let params = init_full_params(&cfg, 6);
            let gpt = Gpt::new(cfg);
            let units = gpt.layout().units();
            let unit = |u: usize| &params[units[u].range.clone()];

            // The reference: one decoder per stream, one row at a time.
            let mut decoders = Vec::new();
            let mut want_logits: Vec<Vec<Vec<u32>>> = Vec::new();
            for stream in &streams {
                let mut dec = IncrementalDecoder::new(&gpt, &params);
                want_logits.push(stream.iter().map(|&t| bits(&dec.feed(t).unwrap())).collect());
                decoders.push(dec);
            }

            let mut kv = ContigKv::new(cfg.layers, streams.len(), cfg.seq, cfg.hidden);
            let mut batch = RowBatch::new(&cfg, streams.len() * cfg.seq);
            let mut fed = vec![0usize; streams.len()];
            let mut cuts = cuts.into_iter().cycle();
            while fed.iter().zip(&streams).any(|(f, s)| *f < s.len()) {
                batch.clear();
                let mut picks = Vec::new();
                let mut picked = Vec::new();
                for (slot, stream) in streams.iter().enumerate() {
                    let left = stream.len() - fed[slot];
                    let take = match mode {
                        0 => left,
                        1 => left.min(1),
                        // 0..=left: a slot may sit a batch out.
                        _ => cuts.next().unwrap() % (left + 1),
                    };
                    if take == 0 {
                        continue;
                    }
                    for _ in 0..take {
                        batch.push(slot, fed[slot], stream[fed[slot]]);
                        fed[slot] += 1;
                    }
                    picks.push(batch.rows().len() - 1);
                    picked.push(slot);
                }
                if picks.is_empty() {
                    // Every slot sat out: feed one row so the loop ends.
                    let slot = (0..streams.len()).find(|&s| fed[s] < streams[s].len()).unwrap();
                    batch.push(slot, fed[slot], streams[slot][fed[slot]]);
                    fed[slot] += 1;
                    picks.push(0);
                    picked.push(slot);
                }
                embed_rows(&gpt, unit(0), &mut batch).unwrap();
                for l in 0..cfg.layers {
                    block_rows_kv(&gpt, l, unit(1 + l), &mut kv, &mut batch);
                }
                let logits = head_rows(&gpt, unit(units.len() - 1), &picks, &mut batch);
                for (&slot, row) in picked.iter().zip(logits.chunks_exact(cfg.vocab)) {
                    prop_assert_eq!(&bits(row), &want_logits[slot][fed[slot] - 1], "slot {}", slot);
                }
            }
            for (slot, (stream, dec)) in streams.iter().zip(&decoders).enumerate() {
                for l in 0..cfg.layers {
                    for pos in 0..stream.len() {
                        prop_assert_eq!(bits(kv.k_row(l, slot, pos)), bits(dec.kv.k_row(l, 0, pos)));
                        prop_assert_eq!(bits(kv.v_row(l, slot, pos)), bits(dec.kv.v_row(l, 0, pos)));
                    }
                }
            }
        }
    }
}
