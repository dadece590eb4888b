//! The GPT-2-like model, exposed as *per-unit* forward/backward functions.
//!
//! ZeRO's dynamic communication schedule (§4.1, §7.2.2) operates at the
//! granularity of layers: stage 3 all-gathers a layer's parameters right
//! before they are used and discards them right after; stage 2 reduces a
//! layer's gradients as soon as backward produces them. To make that
//! schedule possible, the model here is not a monolithic `forward()` but a
//! set of unit functions (embedding, each block, head) that the training
//! engines in `zero-core` orchestrate.

use zero_tensor::init::{normal_init, normal_samples};
use zero_tensor::ops::embedding::{embedding_backward, embedding_forward};
use zero_tensor::ops::loss::{cross_entropy_fused, cross_entropy_loss};
use zero_tensor::ops::matmul::{sgemm, sgemm_nt};
use zero_tensor::ops::norm::{layernorm_backward, layernorm_forward};

use crate::block::{block_backward, block_forward, weight_grad, BlockDims, BlockSaved};
use crate::config::ModelConfig;
use crate::layout::Layout;

const LN_EPS: f32 = 1e-5;

/// A GPT-2-like decoder-only transformer, possibly one model-parallel shard
/// of it (`mp_degree > 1`).
pub struct Gpt {
    cfg: ModelConfig,
    layout: Layout,
    mp_degree: usize,
}

impl Gpt {
    /// Single-device model.
    pub fn new(cfg: ModelConfig) -> Gpt {
        Gpt::new_mp(cfg, 1)
    }

    /// One shard of an `mp`-way model-parallel model. The shard's flat
    /// parameter layout comes from [`Layout::build_mp`]; all shards have
    /// identical layouts but different weights (see [`shard_params`]).
    pub fn new_mp(cfg: ModelConfig, mp: usize) -> Gpt {
        cfg.validate();
        let layout = Layout::build_mp(&cfg, mp);
        Gpt {
            cfg,
            layout,
            mp_degree: mp,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// This shard's flat parameter layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Model-parallel degree this instance was built for.
    pub fn mp_degree(&self) -> usize {
        self.mp_degree
    }

    /// Total flat parameters of this shard.
    pub fn num_params(&self) -> usize {
        self.layout.total_params()
    }

    /// Block dims as seen by this shard for a given micro-batch size.
    pub fn dims(&self, batch: usize) -> BlockDims {
        self.layout.block_dims(batch)
    }

    // ----- unit functions -----

    /// Embedding unit forward: `x[t] = tok[ids[t]] + pos[position(t)]`.
    ///
    /// `ids` has `batch · seq` token ids in row-major `[batch, seq]` order.
    pub fn embed(&self, params: &[f32], ids: &[u32], batch: usize) -> Vec<f32> {
        let (s, h, v) = (self.cfg.seq, self.cfg.hidden, self.cfg.vocab);
        assert_eq!(ids.len(), batch * s, "embed: ids length");
        let off = self.layout.embed_offsets();
        assert_eq!(params.len(), self.layout.units()[0].range.len(), "embed: params length");
        let mut x = vec![0.0; batch * s * h];
        embedding_forward(&params[off.tok.clone()], ids, &mut x, v, h);
        let pos = &params[off.pos.clone()];
        for t in 0..batch * s {
            let p = t % s;
            let row = &mut x[t * h..(t + 1) * h];
            for (a, &b) in row.iter_mut().zip(&pos[p * h..(p + 1) * h]) {
                *a += b;
            }
        }
        x
    }

    /// Embedding unit backward: scatter-adds `dx` into the table gradients.
    pub fn embed_backward(&self, ids: &[u32], dx: &[f32], grads: &mut [f32], batch: usize) {
        let (s, h, v) = (self.cfg.seq, self.cfg.hidden, self.cfg.vocab);
        assert_eq!(ids.len(), batch * s, "embed_backward: ids length");
        assert_eq!(dx.len(), batch * s * h, "embed_backward: dx length");
        let off = self.layout.embed_offsets();
        embedding_backward(&mut grads[off.tok.clone()], ids, dx, v, h);
        let dpos = &mut grads[off.pos.clone()];
        for t in 0..batch * s {
            let p = t % s;
            let drow = &mut dpos[p * h..(p + 1) * h];
            for (d, &g) in drow.iter_mut().zip(&dx[t * h..(t + 1) * h]) {
                *d += g;
            }
        }
    }

    /// Block `l` forward. `reduce` is the MP all-reduce hook (identity for
    /// a single device).
    pub fn block_fwd(
        &self,
        l: usize,
        params: &[f32],
        x: &[f32],
        batch: usize,
        reduce: &mut dyn FnMut(&mut [f32]),
    ) -> (Vec<f32>, BlockSaved) {
        let dims = self.dims(batch);
        let off = self.layout.block_offsets(l);
        let mut y = vec![0.0; x.len()];
        let saved = block_forward(&dims, params, &off, x, &mut y, reduce);
        (y, saved)
    }

    /// Block `l` backward; returns `dx`. Gradients accumulate into `grads`
    /// (this unit's slice).
    #[allow(clippy::too_many_arguments)]
    pub fn block_bwd(
        &self,
        l: usize,
        params: &[f32],
        saved: &BlockSaved,
        dy: &[f32],
        grads: &mut [f32],
        batch: usize,
        reduce_back: &mut dyn FnMut(&mut [f32]),
    ) -> Vec<f32> {
        let dims = self.dims(batch);
        let off = self.layout.block_offsets(l);
        let mut dx = vec![0.0; dy.len()];
        block_backward(&dims, params, &off, saved, dy, &mut dx, grads, reduce_back);
        dx
    }

    /// Head unit forward+backward fused (the loss gradient is born here).
    /// Returns `(loss, dx)`; gradients accumulate into `grads`.
    pub fn head_fwd_bwd(
        &self,
        params: &[f32],
        x: &[f32],
        targets: &[u32],
        grads: &mut [f32],
        batch: usize,
    ) -> (f32, Vec<f32>) {
        let (s, h, v) = (self.cfg.seq, self.cfg.hidden, self.cfg.vocab);
        let t = batch * s;
        let off = self.layout.head_offsets();

        let mut lnf_out = vec![0.0; t * h];
        let mut mean = vec![0.0; t];
        let mut rstd = vec![0.0; t];
        layernorm_forward(
            x,
            &params[off.lnf_g.clone()],
            &params[off.lnf_b.clone()],
            &mut lnf_out,
            &mut mean,
            &mut rstd,
            t,
            h,
            LN_EPS,
        );
        let w_head = &params[off.w_head.clone()];
        let mut logits = vec![0.0; t * v];
        sgemm(&lnf_out, w_head, &mut logits, t, h, v);

        // Fused CE: logits buffer becomes dlogits in place.
        let mut dlogits = vec![0.0; t * v];
        let loss = cross_entropy_fused(&logits, targets, &mut dlogits, t, v);

        // dW_head += lnf_out^T · dlogits ; dlnf = dlogits · W_head^T.
        weight_grad(&mut grads[off.w_head.clone()], &lnf_out, &dlogits, h, t, v);
        let mut dlnf = vec![0.0; t * h];
        sgemm_nt(&dlogits, w_head, &mut dlnf, t, v, h);

        let mut dx = vec![0.0; t * h];
        let mut dg = vec![0.0; h];
        let mut db = vec![0.0; h];
        layernorm_backward(
            x,
            &params[off.lnf_g.clone()],
            &mean,
            &rstd,
            &dlnf,
            &mut dx,
            &mut dg,
            &mut db,
            t,
            h,
        );
        for (g, d) in grads[off.lnf_g.clone()].iter_mut().zip(&dg) {
            *g += d;
        }
        for (g, d) in grads[off.lnf_b.clone()].iter_mut().zip(&db) {
            *g += d;
        }
        (loss, dx)
    }

    /// Evaluation-only loss (no gradients), for validation perplexity.
    /// Final layernorm → LM head GEMM → mean cross-entropy against
    /// `targets`.
    pub fn head_loss(&self, params: &[f32], x: &[f32], targets: &[u32], batch: usize) -> f32 {
        let t = batch * self.cfg.seq;
        assert_eq!(targets.len(), t, "head: targets length");
        cross_entropy_loss(&self.head_logits(params, x, batch), targets, t, self.cfg.vocab)
    }

    /// Head-unit logits `[batch·seq, vocab]` (no loss, no gradients) —
    /// for inference/generation.
    pub fn head_logits(&self, params: &[f32], x: &[f32], batch: usize) -> Vec<f32> {
        let (s, h, v) = (self.cfg.seq, self.cfg.hidden, self.cfg.vocab);
        let t = batch * s;
        assert_eq!(x.len(), t * h, "head_logits: x length");
        let off = self.layout.head_offsets();
        let mut lnf_out = vec![0.0; t * h];
        let mut mean = vec![0.0; t];
        let mut rstd = vec![0.0; t];
        layernorm_forward(
            x,
            &params[off.lnf_g.clone()],
            &params[off.lnf_b.clone()],
            &mut lnf_out,
            &mut mean,
            &mut rstd,
            t,
            h,
            LN_EPS,
        );
        let mut logits = vec![0.0; t * v];
        sgemm(&lnf_out, &params[off.w_head.clone()], &mut logits, t, h, v);
        logits
    }
}

/// Initializes the full (mp = 1) flat parameter buffer for `cfg`:
/// weights ~ N(0, 0.02²), biases 0, layernorm gains 1. A linear weight is
/// drawn in `[out, in]` order and stored transposed, input-major, so
/// `W[i][o]` holds the draw for output `o`, input `i`.
pub fn init_full_params(cfg: &ModelConfig, seed: u64) -> Vec<f32> {
    let layout = Layout::build(cfg);
    let mut params = vec![0.0; layout.total_params()];
    let mut drawn = Vec::new();
    for (i, field) in layout.fields().iter().enumerate() {
        let slice = &mut params[field.range.clone()];
        let seed = seed.wrapping_add(i as u64 * 7919);
        if field.name.ends_with("_g") {
            // Layernorm gains start at identity.
            slice.iter_mut().for_each(|v| *v = 1.0);
        } else if field.name.ends_with("_b") || field.name.contains(".b_") {
            // All biases (layernorm shifts and linear biases) start at zero.
        } else if field.name.contains(".w_") {
            // 16 output rows of draws at a time, each scattered down its
            // column (`W[i][o]` is draw `o · fan_in + i`): a whole-weight
            // buffer transposed afterwards measured ≈ 1 ms slower set-up.
            let (fan_in, fan_out) = (field.shape[0], field.shape[1]);
            let mut draws = normal_samples(0.02, seed);
            for o0 in (0..fan_out).step_by(16) {
                let outs = 16.min(fan_out - o0);
                drawn.clear();
                drawn.extend(draws.by_ref().take(outs * fan_in));
                for (i, row) in slice.chunks_exact_mut(fan_out).enumerate() {
                    for (r, w) in row[o0..o0 + outs].iter_mut().enumerate() {
                        *w = drawn[r * fan_in + i];
                    }
                }
            }
        } else {
            normal_init(slice, 0.02, seed);
        }
    }
    params
}

/// Extracts model-parallel rank `rank`'s shard (layout
/// [`Layout::build_mp`]) from the full parameter buffer.
///
/// Sharding follows Megatron: QKV and fc1 are column-parallel, so every
/// input row of the shard keeps its rank's output columns (one segment per
/// Q, K and V head group); the attention projection and fc2 are
/// row-parallel, so the shard is a contiguous run of input rows.
/// Embeddings, layernorms, biases of row-parallel layers, and the LM head
/// are replicated.
pub fn shard_params(cfg: &ModelConfig, full: &[f32], mp: usize, rank: usize) -> Vec<f32> {
    assert!(rank < mp, "rank {rank} out of range for mp {mp}");
    let full_layout = Layout::build(cfg);
    let shard_layout = Layout::build_mp(cfg, mp);
    assert_eq!(full.len(), full_layout.total_params(), "full buffer length");
    let h = cfg.hidden;
    let sh = h / mp; // shard attention width
    let sf = 4 * h / mp; // shard ffn width
    let mut out = vec![0.0; shard_layout.total_params()];
    let fields = |name: &str| (full_layout.field_range(name), shard_layout.field_range(name));

    // Embedding and head units are replicated.
    let copy_field = |out: &mut [f32], name: &str| {
        let (src, dst) = fields(name);
        assert_eq!(src.len(), dst.len(), "replicated field {name}");
        out[dst].copy_from_slice(&full[src]);
    };
    // Column-parallel: a row of `name` is `segs` segments `seg_w` wide,
    // and the shard's row keeps `part` columns at `rank · part` of each.
    let columns = |out: &mut [f32], name: &str, segs: usize, seg_w: usize, part: usize| {
        let (src, dst) = fields(name);
        for (s, d) in full[src].chunks_exact(segs * seg_w).zip(out[dst].chunks_exact_mut(segs * part)) {
            for (seg, d) in d.chunks_exact_mut(part).enumerate() {
                d.copy_from_slice(&s[seg * seg_w + rank * part..][..part]);
            }
        }
    };
    // Row-parallel: input rows `rank · part..` of an `[in, h]` weight.
    let rows = |out: &mut [f32], name: &str, part: usize| {
        let (src, dst) = fields(name);
        out[dst].copy_from_slice(&full[src][rank * part * h..][..part * h]);
    };
    copy_field(&mut out, "embed.tok");
    copy_field(&mut out, "embed.pos");
    copy_field(&mut out, "head.lnf_g");
    copy_field(&mut out, "head.lnf_b");
    copy_field(&mut out, "head.w_head");

    for l in 0..cfg.layers {
        for name in ["ln1_g", "ln1_b", "ln2_g", "ln2_b", "b_o", "b_fc2"] {
            copy_field(&mut out, &format!("block{l}.{name}"));
        }
        // w_qkv [h, 3h] → [h, 3sh]; b_qkv [3h] → [3sh] as one such row.
        columns(&mut out, &format!("block{l}.w_qkv"), 3, h, sh);
        columns(&mut out, &format!("block{l}.b_qkv"), 3, h, sh);
        // w_o [h, h] → [sh, h].
        rows(&mut out, &format!("block{l}.w_o"), sh);
        // w_fc1 [h, 4h] → [h, sf]; b_fc1 [4h] → [sf].
        columns(&mut out, &format!("block{l}.w_fc1"), 1, 4 * h, sf);
        columns(&mut out, &format!("block{l}.b_fc1"), 1, 4 * h, sf);
        // w_fc2 [4h, h] → [sf, h].
        rows(&mut out, &format!("block{l}.w_fc2"), sf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelConfig {
        ModelConfig {
            vocab: 19,
            seq: 6,
            hidden: 8,
            layers: 2,
            heads: 2,
        }
    }

    #[test]
    fn init_sets_ln_gains_to_one_and_biases_to_zero() {
        let cfg = tiny();
        let layout = Layout::build(&cfg);
        let p = init_full_params(&cfg, 1);
        assert!(p[layout.field_range("block0.ln1_g")].iter().all(|&v| v == 1.0));
        assert!(p[layout.field_range("block1.ln2_b")].iter().all(|&v| v == 0.0));
        assert!(p[layout.field_range("block0.b_qkv")].iter().all(|&v| v == 0.0));
        assert!(p[layout.field_range("head.lnf_g")].iter().all(|&v| v == 1.0));
        let w = &p[layout.field_range("block0.w_qkv")];
        assert!(w.iter().any(|&v| v != 0.0), "weights initialized");
        assert!(w.iter().all(|&v| v.abs() < 0.2), "~N(0, 0.02²)");
    }

    #[test]
    fn end_to_end_loss_decreases_with_sgd() {
        // A smoke test that the full model + backward actually learn.
        let cfg = tiny();
        let gpt = Gpt::new(cfg);
        let mut params = init_full_params(&cfg, 42);
        let batch = 2;
        let ids: Vec<u32> = (0..batch * cfg.seq).map(|i| (i % 7) as u32).collect();
        let targets: Vec<u32> = ids.iter().map(|&i| (i + 1) % 7).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..30 {
            let loss = full_fwd_bwd_sgd(&gpt, &mut params, &ids, &targets, batch, 0.05);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(
            last < first * 0.7,
            "loss should drop: first={first} last={last}"
        );
    }

    fn full_fwd_bwd_sgd(
        gpt: &Gpt,
        params: &mut [f32],
        ids: &[u32],
        targets: &[u32],
        batch: usize,
        lr: f32,
    ) -> f32 {
        let layout = gpt.layout().clone();
        let units = layout.units();
        let mut grads = vec![0.0; params.len()];
        let mut ident = |_: &mut [f32]| {};
        let x = gpt.embed(&params[units[0].range.clone()], ids, batch);
        let mut acts = vec![x];
        let mut saved = Vec::new();
        for l in 0..gpt.config().layers {
            let u = &units[1 + l];
            let (y, s) = gpt.block_fwd(l, &params[u.range.clone()], acts.last().unwrap(), batch, &mut ident);
            acts.push(y);
            saved.push(s);
        }
        let hu = units.last().unwrap();
        let (loss, mut dy) = gpt.head_fwd_bwd(
            &params[hu.range.clone()],
            acts.last().unwrap(),
            targets,
            &mut grads[hu.range.clone()],
            batch,
        );
        for l in (0..gpt.config().layers).rev() {
            let u = &units[1 + l];
            dy = gpt.block_bwd(
                l,
                &params[u.range.clone()],
                &saved[l],
                &dy,
                &mut grads[u.range.clone()],
                batch,
                &mut ident,
            );
        }
        gpt.embed_backward(ids, &dy, &mut grads[units[0].range.clone()], batch);
        for (p, g) in params.iter_mut().zip(&grads) {
            *p -= lr * g;
        }
        loss
    }

    #[test]
    fn head_loss_matches_fwd_bwd_loss() {
        let cfg = tiny();
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 3);
        let batch = 2;
        let layout = gpt.layout();
        let hu = layout.units().last().unwrap().clone();
        let t = batch * cfg.seq;
        let mut x = vec![0.0; t * cfg.hidden];
        normal_init(&mut x, 0.5, 17);
        let targets: Vec<u32> = (0..t).map(|i| (i % cfg.vocab) as u32).collect();
        let mut grads = vec![0.0; hu.range.len()];
        let (a, _) = gpt.head_fwd_bwd(&params[hu.range.clone()], &x, &targets, &mut grads, batch);
        let b = gpt.head_loss(&params[hu.range.clone()], &x, &targets, batch);
        assert!((a - b).abs() < 1e-6);
        assert!(grads.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn init_stores_each_linear_weight_transposed_from_its_out_in_draw() {
        let cfg = tiny();
        let layout = Layout::build(&cfg);
        let seed = 9;
        let p = init_full_params(&cfg, seed);
        let h = cfg.hidden;
        for (name, shape) in [("block0.w_qkv", [h, 3 * h]), ("block1.w_fc2", [4 * h, h]), ("head.w_head", [h, cfg.vocab])] {
            let f = layout.fields().iter().find(|f| f.name == name).unwrap();
            assert_eq!(f.shape, shape, "{name} is [in, out]");
        }
        let mut linear = 0;
        for (idx, f) in layout.fields().iter().enumerate().filter(|(_, f)| f.name.contains(".w_")) {
            let (fan_in, fan_out) = (f.shape[0], f.shape[1]);
            let mut drawn = vec![0.0; f.numel()];
            normal_init(&mut drawn, 0.02, seed.wrapping_add(idx as u64 * 7919));
            let w = &p[f.range.clone()];
            for (o, i) in (0..fan_out).flat_map(|o| (0..fan_in).map(move |i| (o, i))) {
                assert_eq!(w[i * fan_out + o].to_bits(), drawn[o * fan_in + i].to_bits(), "{name} ({o}, {i})", name = f.name);
            }
            linear += 1;
        }
        assert_eq!(linear, 4 * cfg.layers + 1);
    }

    #[test]
    fn shard_params_partition_block_weights_exactly() {
        // Scatter every shard's fields back into a NaN-filled full buffer:
        // no element left unwritten, every one bitwise the full one.
        let cfg = ModelConfig { heads: 4, ..tiny() };
        let full = init_full_params(&cfg, 5);
        let full_layout = Layout::build(&cfg);
        for mp in [2, 4] {
            let shard_layout = Layout::build_mp(&cfg, mp);
            let mut rebuilt = vec![f32::NAN; full.len()];
            for rank in 0..mp {
                let shard = shard_params(&cfg, &full, mp, rank);
                for f in full_layout.fields() {
                    let src = &shard[shard_layout.field_range(&f.name)];
                    let dst = &mut rebuilt[f.range.clone()];
                    match f.name.rsplit('.').next().unwrap() {
                        // Column-parallel: every row holds `width / mp`
                        // columns of each of its segments (Q, K, V).
                        kind @ ("w_qkv" | "b_qkv" | "w_fc1" | "b_fc1") => {
                            let segs = if kind.ends_with("qkv") { 3 } else { 1 };
                            let width = *f.shape.last().unwrap();
                            let part = width / segs / mp;
                            for (row, shard_row) in src.chunks_exact(segs * part).enumerate() {
                                for (seg, piece) in shard_row.chunks_exact(part).enumerate() {
                                    let at = row * width + seg * width / segs + rank * part;
                                    dst[at..at + part].copy_from_slice(piece);
                                }
                            }
                        }
                        // Row-parallel: a contiguous run of input rows.
                        "w_o" | "w_fc2" => dst[rank * src.len()..][..src.len()].copy_from_slice(src),
                        _ => {
                            assert_eq!(src, &full[f.range.clone()], "replicated {} at mp {mp}", f.name);
                            dst.copy_from_slice(src);
                        }
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rebuilt), bits(&full), "mp {mp}");
        }
    }
}
