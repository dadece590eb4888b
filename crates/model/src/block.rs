//! One transformer block: LN → causal multi-head attention → residual →
//! LN → GELU MLP → residual, with hand-written exact backward.
//!
//! The block is written against [`BlockDims`] so the *same* kernels serve
//! the single-device model and each shard of the Megatron-style
//! model-parallel model (local heads = heads / N_m). The two places where
//! Megatron inserts its forward all-reduces (after the row-parallel
//! attention projection and the row-parallel second MLP matmul, §8 of the
//! paper) are exposed as a `reduce` callback; the two backward all-reduces
//! (the `f` operator before each layernorm backward) as `reduce_back`.
//! For a single device both callbacks are the identity.

use zero_tensor::ops::activation::{acc, add, add_bias, bias_grad, gelu_backward, gelu_forward};
use zero_tensor::ops::matmul::{gemm, sgemm, sgemm_nt, Mat, Store};
use zero_tensor::ops::norm::{layernorm_backward, layernorm_forward};
use zero_tensor::ops::softmax::{causal_softmax_forward, softmax_backward};

use crate::layout::BlockOffsets;

const LN_EPS: f32 = 1e-5;

/// Shape parameters of one block *as seen by one rank*.
#[derive(Clone, Copy, Debug)]
pub struct BlockDims {
    /// Full hidden dimension h (the block's input/output width).
    pub hidden: usize,
    /// Heads computed on this rank (= heads / N_m).
    pub local_heads: usize,
    /// Per-head dimension (global, unaffected by MP).
    pub head_dim: usize,
    /// MLP intermediate width on this rank (= 4h / N_m).
    pub ffn: usize,
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
}

impl BlockDims {
    /// Rows of the `[T, h]` activation matrices: batch · seq.
    #[inline]
    pub fn rows(&self) -> usize {
        self.batch * self.seq
    }

    /// Local attention width = local_heads · head_dim (= h / N_m).
    #[inline]
    pub fn attn_width(&self) -> usize {
        self.local_heads * self.head_dim
    }

    /// Elements of the [`BlockSaved`] a forward at these dims keeps: per
    /// row, four `h`-wide matrices, two layernorms' mean and rstd, QKV and
    /// the context (four attention widths), a probability row per local
    /// head and two `ffn`-wide ones.
    pub fn saved_elems(&self) -> usize {
        let per_row = 4 * self.hidden + 4 + 4 * self.attn_width() + self.local_heads * self.seq + 2 * self.ffn;
        self.rows() * per_row
    }
}

/// Activations saved by the forward pass for the exact backward pass.
///
/// Its size is what activation checkpointing (§6.1) trades for recompute:
/// with checkpointing only the block *input* (`x`, seq·hidden per sample)
/// is kept and everything else is rebuilt on the fly.
pub struct BlockSaved {
    /// Block input `[T, h]`.
    pub x: Vec<f32>,
    /// LN1 statistics.
    pub ln1_mean: Vec<f32>,
    pub ln1_rstd: Vec<f32>,
    /// LN1 output `[T, h]`.
    pub h1: Vec<f32>,
    /// QKV projections `[T, 3·attn_width]`.
    pub qkv: Vec<f32>,
    /// Attention probabilities, `local_heads·batch` causal maps of `[s, s]`.
    pub probs: Vec<f32>,
    /// Concatenated per-head context `[T, attn_width]`.
    pub attn_out: Vec<f32>,
    /// Post-attention residual stream `[T, h]`.
    pub x2: Vec<f32>,
    /// LN2 statistics.
    pub ln2_mean: Vec<f32>,
    pub ln2_rstd: Vec<f32>,
    /// LN2 output `[T, h]`.
    pub h2: Vec<f32>,
    /// MLP pre-activation `[T, ffn]`.
    pub fc1: Vec<f32>,
    /// GELU output `[T, ffn]`.
    pub gelu: Vec<f32>,
}

impl BlockSaved {
    /// Total saved activation elements (for memory accounting).
    pub fn elems(&self) -> usize {
        self.x.len()
            + self.ln1_mean.len()
            + self.ln1_rstd.len()
            + self.h1.len()
            + self.qkv.len()
            + self.probs.len()
            + self.attn_out.len()
            + self.x2.len()
            + self.ln2_mean.len()
            + self.ln2_rstd.len()
            + self.h2.len()
            + self.fc1.len()
            + self.gelu.len()
    }
}

/// Forward pass of one block.
///
/// * `params` — this block's flat parameter slice (see [`BlockOffsets`]).
/// * `x` — input `[T, h]`.
/// * `y` — output `[T, h]`.
/// * `reduce` — called on partial row-parallel outputs (attention
///   projection, then MLP fc2) *before* bias/residual; all-reduce across
///   the MP group, or identity when N_m = 1.
///
/// Returns the saved activations for [`block_backward`].
pub fn block_forward(
    dims: &BlockDims,
    params: &[f32],
    off: &BlockOffsets,
    x: &[f32],
    y: &mut [f32],
    reduce: &mut dyn FnMut(&mut [f32]),
) -> BlockSaved {
    let t = dims.rows();
    let h = dims.hidden;
    let aw = dims.attn_width();
    let ffn = dims.ffn;
    assert_eq!(x.len(), t * h, "block_forward: x shape");
    assert_eq!(y.len(), t * h, "block_forward: y shape");

    // LN1.
    let mut h1 = vec![0.0; t * h];
    let mut ln1_mean = vec![0.0; t];
    let mut ln1_rstd = vec![0.0; t];
    layernorm_forward(
        x,
        &params[off.ln1_g.clone()],
        &params[off.ln1_b.clone()],
        &mut h1,
        &mut ln1_mean,
        &mut ln1_rstd,
        t,
        h,
        LN_EPS,
    );

    // QKV projection (column-parallel under MP: no communication).
    let mut qkv = vec![0.0; t * 3 * aw];
    sgemm(&h1, &params[off.w_qkv.clone()], &mut qkv, t, h, 3 * aw);
    add_bias(&mut qkv, &params[off.b_qkv.clone()]);

    // Per-(batch, head) causal attention.
    let (probs, attn_out) = attention_forward(dims, &qkv);

    // Output projection (row-parallel under MP: partial sums reduced).
    let mut ao = vec![0.0; t * h];
    sgemm(&attn_out, &params[off.w_o.clone()], &mut ao, t, aw, h);
    reduce(&mut ao);
    add_bias(&mut ao, &params[off.b_o.clone()]);

    // Residual 1.
    let mut x2 = vec![0.0; t * h];
    add(x, &ao, &mut x2);

    // LN2.
    let mut h2 = vec![0.0; t * h];
    let mut ln2_mean = vec![0.0; t];
    let mut ln2_rstd = vec![0.0; t];
    layernorm_forward(
        &x2,
        &params[off.ln2_g.clone()],
        &params[off.ln2_b.clone()],
        &mut h2,
        &mut ln2_mean,
        &mut ln2_rstd,
        t,
        h,
        LN_EPS,
    );

    // MLP: fc1 (column-parallel) → GELU → fc2 (row-parallel, reduced).
    let mut fc1 = vec![0.0; t * ffn];
    sgemm(&h2, &params[off.w_fc1.clone()], &mut fc1, t, h, ffn);
    add_bias(&mut fc1, &params[off.b_fc1.clone()]);
    let mut gelu = vec![0.0; t * ffn];
    gelu_forward(&fc1, &mut gelu);
    let mut f2 = vec![0.0; t * h];
    sgemm(&gelu, &params[off.w_fc2.clone()], &mut f2, t, ffn, h);
    reduce(&mut f2);
    add_bias(&mut f2, &params[off.b_fc2.clone()]);

    // Residual 2.
    add(&x2, &f2, y);

    BlockSaved {
        x: x.to_vec(),
        ln1_mean,
        ln1_rstd,
        h1,
        qkv,
        probs,
        attn_out,
        x2,
        ln2_mean,
        ln2_rstd,
        h2,
        fc1,
        gelu,
    }
}

/// Backward pass of one block.
///
/// * `dy` — gradient w.r.t. the block output `[T, h]`.
/// * `dx` — receives the gradient w.r.t. the block input `[T, h]`.
/// * `grads` — this block's flat gradient slice; contributions are
///   **accumulated** (callers zero it when appropriate).
/// * `reduce_back` — Megatron's `f` operator: all-reduce of the partial
///   input gradients of the two column-parallel matmuls; identity for
///   N_m = 1.
#[allow(clippy::too_many_arguments)]
pub fn block_backward(
    dims: &BlockDims,
    params: &[f32],
    off: &BlockOffsets,
    saved: &BlockSaved,
    dy: &[f32],
    dx: &mut [f32],
    grads: &mut [f32],
    reduce_back: &mut dyn FnMut(&mut [f32]),
) {
    let t = dims.rows();
    let h = dims.hidden;
    let aw = dims.attn_width();
    let ffn = dims.ffn;
    assert_eq!(dy.len(), t * h, "block_backward: dy shape");
    assert_eq!(dx.len(), t * h, "block_backward: dx shape");

    // --- MLP path ---
    // y = x2 + f2: dL/d(fc2 out) = dL/dx2 = dy.
    let df2 = dy;
    let mut dgelu = vec![0.0; t * ffn];
    sgemm_nt(df2, &params[off.w_fc2.clone()], &mut dgelu, t, h, ffn);
    weight_grad(&mut grads[off.w_fc2.clone()], &saved.gelu, df2, ffn, t, h);
    bias_grad(df2, &mut grads[off.b_fc2.clone()]);

    // GELU.
    let mut dfc1 = vec![0.0; t * ffn];
    gelu_backward(&saved.fc1, &dgelu, &mut dfc1);

    // fc1: fc1 = h2 · W1 + b1.
    let mut dh2 = vec![0.0; t * h];
    sgemm_nt(&dfc1, &params[off.w_fc1.clone()], &mut dh2, t, ffn, h);
    reduce_back(&mut dh2); // f-operator: sum partial dh2 across MP shards
    weight_grad(&mut grads[off.w_fc1.clone()], &saved.h2, &dfc1, h, t, ffn);
    bias_grad(&dfc1, &mut grads[off.b_fc1.clone()]);

    // LN2 backward: accumulate into dx2.
    let mut dx2 = dy.to_vec(); // residual branch
    {
        let mut d_from_ln2 = vec![0.0; t * h];
        let (dg_range, db_range) = (off.ln2_g.clone(), off.ln2_b.clone());
        let mut dg = vec![0.0; h];
        let mut db = vec![0.0; h];
        layernorm_backward(
            &saved.x2,
            &params[off.ln2_g.clone()],
            &saved.ln2_mean,
            &saved.ln2_rstd,
            &dh2,
            &mut d_from_ln2,
            &mut dg,
            &mut db,
            t,
            h,
        );
        acc(&mut grads[dg_range], &dg);
        acc(&mut grads[db_range], &db);
        acc(&mut dx2, &d_from_ln2);
    }

    // --- Attention path ---
    // x2 = x + ao ⇒ dao = dx2; dx starts as dx2.
    // ao = attn_out · Wo + bo (bias added after MP reduce; its gradient
    // is consistent because b_o is replicated).
    let dao = &dx2;
    let mut dattn = vec![0.0; t * aw];
    sgemm_nt(dao, &params[off.w_o.clone()], &mut dattn, t, h, aw);
    weight_grad(&mut grads[off.w_o.clone()], &saved.attn_out, dao, aw, t, h);
    bias_grad(dao, &mut grads[off.b_o.clone()]);

    // Attention core backward.
    let dqkv = attention_backward(dims, &saved.qkv, &saved.probs, &dattn);

    // QKV: qkv = h1 · Wqkv + bqkv.
    let mut dh1 = vec![0.0; t * h];
    sgemm_nt(&dqkv, &params[off.w_qkv.clone()], &mut dh1, t, 3 * aw, h);
    reduce_back(&mut dh1); // f-operator
    weight_grad(&mut grads[off.w_qkv.clone()], &saved.h1, &dqkv, h, t, 3 * aw);
    bias_grad(&dqkv, &mut grads[off.b_qkv.clone()]);

    // LN1 backward.
    {
        let mut d_from_ln1 = vec![0.0; t * h];
        let mut dg = vec![0.0; h];
        let mut db = vec![0.0; h];
        layernorm_backward(
            &saved.x,
            &params[off.ln1_g.clone()],
            &saved.ln1_mean,
            &saved.ln1_rstd,
            &dh1,
            &mut d_from_ln1,
            &mut dg,
            &mut db,
            t,
            h,
        );
        acc(&mut grads[off.ln1_g.clone()], &dg);
        acc(&mut grads[off.ln1_b.clone()], &db);
        // dx = residual branch (dx2) + LN1 branch.
        add(&dx2, &d_from_ln1, dx);
    }
}

/// Weight gradient `dw += x^T · dy` of an input-major weight: `x` is the
/// layer input `[t, fan_in]` (used transposed), `dy` the output gradient
/// `[t, fan_out]` and `dw` is `[fan_in, fan_out]`. Each element sums the
/// same products over `t` as `dy^T · x` did for an `[out, in]` weight,
/// with the operands commuted, so its bits are unchanged.
pub(crate) fn weight_grad(dw: &mut [f32], x: &[f32], dy: &[f32], fan_in: usize, t: usize, fan_out: usize) {
    gemm(fan_in, t, fan_out, Mat::t(x, fan_in), Mat::n(dy, fan_out), dw, fan_out, Store::Add);
}

/// Causal multi-head attention forward over local heads.
///
/// Returns `(probs, attn_out)` where `probs` stores `batch·local_heads`
/// causal maps of `[s, s]` and `attn_out` is `[T, attn_width]`. Each head's
/// Q/K/V are read in place as strided `[s, hd]` windows of `qkv`
/// (`[T, 3·aw]`, Q | K | V side by side) and its context is written
/// straight into its columns of `attn_out`.
fn attention_forward(dims: &BlockDims, qkv: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (b, s, nh, hd) = (dims.batch, dims.seq, dims.local_heads, dims.head_dim);
    let aw = nh * hd;
    let row_w = 3 * aw;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut probs = vec![0.0; b * nh * s * s];
    let mut attn_out = vec![0.0; b * s * aw];
    let mut scores = vec![0.0; s * s];
    for (map, p) in probs.chunks_mut(s * s).enumerate() {
        let (bi, head) = (map / nh, map % nh);
        let q0 = bi * s * row_w + head * hd;
        let (q, k, v) = (&qkv[q0..], &qkv[q0 + aw..], &qkv[q0 + 2 * aw..]);
        // scores = Q · K^T, scaled.
        gemm(s, hd, s, Mat::n(q, row_w), Mat::t(k, row_w), &mut scores, s, Store::Set);
        scores.iter_mut().for_each(|x| *x *= scale);
        causal_softmax_forward(&scores, p, 1, s);
        // ctx = P · V.
        let ctx = &mut attn_out[bi * s * aw + head * hd..];
        gemm(s, s, hd, Mat::n(p, s), Mat::n(v, row_w), ctx, aw, Store::Set);
    }
    (probs, attn_out)
}

/// Backward of [`attention_forward`]; returns `dqkv` `[T, 3·attn_width]`,
/// each head's dQ/dK/dV written straight into its strided window.
fn attention_backward(dims: &BlockDims, qkv: &[f32], probs: &[f32], dattn: &[f32]) -> Vec<f32> {
    let (b, s, nh, hd) = (dims.batch, dims.seq, dims.local_heads, dims.head_dim);
    let aw = nh * hd;
    let row_w = 3 * aw;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut dqkv = vec![0.0; b * s * row_w];
    let mut dp = vec![0.0; s * s];
    let mut dscores = vec![0.0; s * s];
    for (map, p) in probs.chunks(s * s).enumerate() {
        let (bi, head) = (map / nh, map % nh);
        let q0 = bi * s * row_w + head * hd;
        let (q, k, v) = (&qkv[q0..], &qkv[q0 + aw..], &qkv[q0 + 2 * aw..]);
        let dctx = &dattn[bi * s * aw + head * hd..];
        // ctx = P·V ⇒ dP = dctx·V^T, dV = P^T·dctx.
        gemm(s, hd, s, Mat::n(dctx, aw), Mat::t(v, row_w), &mut dp, s, Store::Set);
        gemm(s, s, hd, Mat::t(p, s), Mat::n(dctx, aw), &mut dqkv[q0 + 2 * aw..], row_w, Store::Set);
        // P = softmax(scores) ⇒ dscores (masked entries have P = 0 and
        // contribute nothing).
        softmax_backward(p, &dp, &mut dscores, s, s);
        dscores.iter_mut().for_each(|x| *x *= scale);
        // scores = Q·K^T ⇒ dQ = dS·K, dK = dS^T·Q.
        gemm(s, s, hd, Mat::n(&dscores, s), Mat::n(k, row_w), &mut dqkv[q0..], row_w, Store::Set);
        gemm(s, s, hd, Mat::t(&dscores, s), Mat::n(q, row_w), &mut dqkv[q0 + aw..], row_w, Store::Set);
    }
    dqkv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::layout::Layout;
    use zero_tensor::init::normal_init;

    fn ident() -> impl FnMut(&mut [f32]) {
        |_: &mut [f32]| {}
    }

    fn setup() -> (BlockDims, Vec<f32>, BlockOffsets) {
        let cfg = ModelConfig {
            vocab: 17,
            seq: 5,
            hidden: 8,
            layers: 1,
            heads: 2,
        };
        let layout = Layout::build(&cfg);
        let dims = BlockDims {
            hidden: cfg.hidden,
            local_heads: cfg.heads,
            head_dim: cfg.head_dim(),
            ffn: 4 * cfg.hidden,
            batch: 2,
            seq: cfg.seq,
        };
        let mut params = vec![0.0; cfg.block_params()];
        normal_init(&mut params, 0.2, 11);
        let off = layout.block_offsets(0);
        // Layernorm gains start at 1.
        for v in &mut params[off.ln1_g.clone()] {
            *v = 1.0 + *v * 0.1;
        }
        for v in &mut params[off.ln2_g.clone()] {
            *v = 1.0 + *v * 0.1;
        }
        (dims, params, off)
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let (dims, params, off) = setup();
        let t = dims.rows();
        let mut x = vec![0.0; t * dims.hidden];
        normal_init(&mut x, 1.0, 3);
        let mut y1 = vec![0.0; t * dims.hidden];
        let mut y2 = vec![0.0; t * dims.hidden];
        let _ = block_forward(&dims, &params, &off, &x, &mut y1, &mut ident());
        let _ = block_forward(&dims, &params, &off, &x, &mut y2, &mut ident());
        assert_eq!(y1, y2);
        assert!(y1.iter().all(|v| v.is_finite()));
        assert!(y1.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn backward_matches_finite_difference_on_input() {
        let (dims, params, off) = setup();
        let t = dims.rows();
        let n = t * dims.hidden;
        let mut x = vec![0.0; n];
        normal_init(&mut x, 0.8, 5);
        let mut dy = vec![0.0; n];
        normal_init(&mut dy, 1.0, 6);

        let mut y = vec![0.0; n];
        let saved = block_forward(&dims, &params, &off, &x, &mut y, &mut ident());
        let mut dx = vec![0.0; n];
        let mut grads = vec![0.0; params.len()];
        block_backward(&dims, &params, &off, &saved, &dy, &mut dx, &mut grads, &mut ident());

        let loss = |x: &[f32]| -> f64 {
            let mut y = vec![0.0; n];
            let _ = block_forward(&dims, &params, &off, x, &mut y, &mut ident());
            y.iter().zip(&dy).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
        };
        let h = 1e-3;
        // Spot-check a spread of input coordinates (full sweep is slow).
        for i in (0..n).step_by(7) {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = ((loss(&xp) - loss(&xm)) / (2.0 * h as f64)) as f32;
            assert!(
                (fd - dx[i]).abs() < 5e-2 * (1.0 + fd.abs()),
                "dx[{i}]: fd={fd} analytic={}",
                dx[i]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_params() {
        let (dims, params, off) = setup();
        let t = dims.rows();
        let n = t * dims.hidden;
        let mut x = vec![0.0; n];
        normal_init(&mut x, 0.8, 5);
        let mut dy = vec![0.0; n];
        normal_init(&mut dy, 1.0, 6);

        let mut y = vec![0.0; n];
        let saved = block_forward(&dims, &params, &off, &x, &mut y, &mut ident());
        let mut dx = vec![0.0; n];
        let mut grads = vec![0.0; params.len()];
        block_backward(&dims, &params, &off, &saved, &dy, &mut dx, &mut grads, &mut ident());

        let loss = |p: &[f32]| -> f64 {
            let mut y = vec![0.0; n];
            let _ = block_forward(&dims, p, &off, &x, &mut y, &mut ident());
            y.iter().zip(&dy).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
        };
        let h = 1e-3;
        // One probe per parameter field.
        let probes = [
            off.ln1_g.start,
            off.ln1_b.start + 1,
            off.w_qkv.start + 5,
            off.b_qkv.start + 2,
            off.w_o.start + 9,
            off.b_o.start,
            off.ln2_g.start + 3,
            off.ln2_b.start,
            off.w_fc1.start + 11,
            off.b_fc1.start + 4,
            off.w_fc2.start + 7,
            off.b_fc2.start + 1,
        ];
        for &i in &probes {
            let mut pp = params.clone();
            pp[i] += h;
            let mut pm = params.clone();
            pm[i] -= h;
            let fd = ((loss(&pp) - loss(&pm)) / (2.0 * h as f64)) as f32;
            assert!(
                (fd - grads[i]).abs() < 5e-2 * (1.0 + fd.abs()),
                "grad[{i}]: fd={fd} analytic={}",
                grads[i]
            );
        }
    }

    #[test]
    fn saved_activation_size_is_accounted() {
        let (dims, params, off) = setup();
        let t = dims.rows();
        let mut x = vec![0.1; t * dims.hidden];
        normal_init(&mut x, 0.5, 9);
        let mut y = vec![0.0; t * dims.hidden];
        let saved = block_forward(&dims, &params, &off, &x, &mut y, &mut ident());
        // x, h1, x2, h2 (4·T·h) + qkv (3·T·h) + attn_out (T·h) + fc1, gelu
        // (2·T·4h) + probs (b·nh·s²) + 4 LN stat vectors (4·T).
        let t_h = t * dims.hidden;
        let want = 8 * t_h + 2 * t * dims.ffn
            + dims.batch * dims.local_heads * dims.seq * dims.seq
            + 4 * t;
        assert_eq!(saved.elems(), want);
        assert_eq!(dims.saved_elems(), want, "the size a memory walk predicts");
    }

    #[test]
    fn causal_masking_blocks_future_influence() {
        // Changing the input at position j must not affect outputs at
        // positions i < j (within the attention path; LN/MLP act per-token).
        let (dims, params, off) = setup();
        let t = dims.rows();
        let n = t * dims.hidden;
        let mut x = vec![0.0; n];
        normal_init(&mut x, 0.8, 5);
        let mut y1 = vec![0.0; n];
        let _ = block_forward(&dims, &params, &off, &x, &mut y1, &mut ident());
        // Perturb the LAST position of batch 0.
        let j = dims.seq - 1;
        for c in 0..dims.hidden {
            x[j * dims.hidden + c] += 1.0;
        }
        let mut y2 = vec![0.0; n];
        let _ = block_forward(&dims, &params, &off, &x, &mut y2, &mut ident());
        for i in 0..j {
            for c in 0..dims.hidden {
                let a = y1[i * dims.hidden + c];
                let b = y2[i * dims.hidden + c];
                assert_eq!(a, b, "future token leaked into position {i}");
            }
        }
        // And the perturbed position itself must change.
        assert_ne!(
            &y1[j * dims.hidden..(j + 1) * dims.hidden],
            &y2[j * dims.hidden..(j + 1) * dims.hidden]
        );
    }
}
