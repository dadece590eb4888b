//! Model configuration and parameter arithmetic.

/// Configuration of a GPT-2-like decoder-only transformer, matching the
/// shape family the paper evaluates (Tables 4–10 vary `layers` and
/// `hidden` to sweep 1.16 B – 170 B parameters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum (and, in this engine, fixed) sequence length.
    pub seq: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Number of attention heads; must divide `hidden`.
    pub heads: usize,
}

impl ModelConfig {
    /// A small config suitable for unit tests (sub-second steps).
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            vocab: 64,
            seq: 16,
            hidden: 32,
            layers: 2,
            heads: 4,
        }
    }

    /// Validates divisibility constraints.
    ///
    /// # Panics
    /// Panics if `heads` does not divide `hidden`.
    pub fn validate(&self) {
        assert!(self.vocab > 0 && self.seq > 0 && self.hidden > 0 && self.heads > 0);
        assert_eq!(
            self.hidden % self.heads,
            0,
            "hidden {} must be divisible by heads {}",
            self.hidden,
            self.heads
        );
    }

    /// Per-head dimension.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Parameters in one transformer block: 12·h² + 13·h
    /// (QKV h×3h + proj h×h + MLP h×4h + 4h×h, plus biases and two
    /// layernorms).
    pub fn block_params(&self) -> usize {
        let h = self.hidden;
        12 * h * h + 13 * h
    }

    /// Parameters in the embedding unit (token + position tables).
    pub fn embed_params(&self) -> usize {
        self.vocab * self.hidden + self.seq * self.hidden
    }

    /// Parameters in the output unit (final layernorm + untied LM head).
    pub fn head_params(&self) -> usize {
        2 * self.hidden + self.vocab * self.hidden
    }

    /// Total parameter count Ψ.
    pub fn total_params(&self) -> usize {
        self.embed_params() + self.layers * self.block_params() + self.head_params()
    }

    /// The paper's transformer-parameter estimate Ψ ≈ 12·L·h², used by its
    /// configuration tables (ignores embeddings and biases).
    pub fn approx_params(&self) -> usize {
        12 * self.layers * self.hidden * self.hidden
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_is_valid() {
        ModelConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn bad_heads_rejected() {
        ModelConfig {
            heads: 5,
            ..ModelConfig::tiny()
        }
        .validate();
    }

    #[test]
    fn parameter_counts_add_up() {
        let c = ModelConfig::tiny();
        let h = c.hidden;
        assert_eq!(c.block_params(), 12 * h * h + 13 * h);
        assert_eq!(
            c.total_params(),
            c.embed_params() + c.layers * c.block_params() + c.head_params()
        );
    }

    #[test]
    fn paper_scale_params_match_table4() {
        // Table 4 row "8B: 72 layers, HD 3072": 12·L·h² ≈ 8.15B.
        let c = ModelConfig {
            vocab: 50_257,
            seq: 1024,
            hidden: 3072,
            layers: 72,
            heads: 24,
        };
        let approx = c.approx_params() as f64 / 1e9;
        assert!((approx - 8.15).abs() < 0.1, "got {approx}B");
        // And "1.5B: 48 layers, HD 1600" ≈ GPT-2 XL.
        let c = ModelConfig {
            vocab: 50_257,
            seq: 1024,
            hidden: 1600,
            layers: 48,
            heads: 16,
        };
        let approx = c.approx_params() as f64 / 1e9;
        assert!((approx - 1.47).abs() < 0.1, "got {approx}B");
    }
}

/// Exact dense-GEMM FLOPs for one *forward* pass over `batch` sequences,
/// broken out per unit (embedding lookups are copies, not FLOPs; the
/// backward pass costs 2× the forward GEMMs). Feeds the throughput model
/// with implementation-true counts rather than the 6Ψ estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct FlopBreakdown {
    /// Per transformer block.
    pub per_block: f64,
    /// LM head (final GEMM over the vocabulary).
    pub head: f64,
    /// Whole-model forward total.
    pub total: f64,
}

impl ModelConfig {
    /// Exact forward-GEMM FLOP counts (2·m·k·n per GEMM).
    pub fn forward_flops(&self, batch: usize) -> FlopBreakdown {
        let t = (batch * self.seq) as f64;
        let h = self.hidden as f64;
        let s = self.seq as f64;
        let b = batch as f64;
        // QKV + proj + fc1 + fc2 GEMMs.
        let dense = 2.0 * t * h * (3.0 * h) // qkv
            + 2.0 * t * h * h // proj
            + 2.0 * t * h * (4.0 * h) // fc1
            + 2.0 * t * (4.0 * h) * h; // fc2
        // Attention score and context GEMMs: per head 2·s·hd·s twice.
        let attn = 2.0 * 2.0 * b * (self.heads as f64) * s * s * (self.head_dim() as f64);
        let per_block = dense + attn;
        let head = 2.0 * t * h * self.vocab as f64;
        FlopBreakdown {
            per_block,
            head,
            total: per_block * self.layers as f64 + head,
        }
    }
}

#[cfg(test)]
mod flop_tests {
    use super::*;

    #[test]
    fn forward_flops_track_the_6psi_estimate() {
        // For large h the exact count approaches 2Ψ·tokens per forward
        // (the "6Ψ per token" rule counts fwd+bwd = 3 GEMM passes).
        let c = ModelConfig {
            vocab: 50_257,
            seq: 1024,
            hidden: 4096,
            layers: 32,
            heads: 32,
        };
        let batch = 4;
        let exact = c.forward_flops(batch).total;
        let tokens = (batch * c.seq) as f64;
        let estimate = 2.0 * c.total_params() as f64 * tokens;
        let ratio = exact / estimate;
        assert!(
            (0.9..1.35).contains(&ratio),
            "exact/estimate ratio {ratio} out of band"
        );
    }

    #[test]
    fn flops_scale_linearly_with_batch_and_layers() {
        let c = ModelConfig {
            vocab: 64,
            seq: 32,
            hidden: 64,
            layers: 4,
            heads: 4,
        };
        let f1 = c.forward_flops(1);
        let f2 = c.forward_flops(2);
        assert!((f2.per_block / f1.per_block - 2.0).abs() < 1e-12);
        let deeper = ModelConfig { layers: 8, ..c };
        let d = deeper.forward_flops(1);
        assert!((d.total - f1.total - 4.0 * f1.per_block).abs() < 1.0);
    }
}
