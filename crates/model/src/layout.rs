//! Flat parameter layout.
//!
//! All parameters live in one contiguous buffer ("flattening into a single
//! buffer", §3.2/§6.2 — the layout DeepSpeed uses and the layout ZeRO's
//! partitioner slices). The layout maps named fields to ranges, grouped
//! into *units*: the embedding, each transformer block, and the output
//! head. Units are the granularity at which ZeRO stage 3 materializes
//! parameters and stage 2 buckets gradients.
//!
//! Every linear weight (`w_qkv`, `w_o`, `w_fc1`, `w_fc2`, `w_head`) is
//! stored input-major, `[in, out]`, so a forward GEMM `Y = X · W` reads the
//! weight as stored: a row of W is one input's weights for every output,
//! and a few-row serving GEMM streams the just-gathered unit in place.
//! The embedding tables are `[vocab, h]` and `[seq, h]`, one row per
//! token or position.

use crate::block::BlockDims;
use crate::config::ModelConfig;

/// One named parameter tensor inside the flat buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Human-readable name, e.g. `block3.w_qkv`.
    pub name: String,
    /// Shape (row-major); `[in, out]` for a linear weight.
    pub shape: Vec<usize>,
    /// Range within the flat parameter buffer.
    pub range: std::ops::Range<usize>,
}

impl Field {
    /// Element count.
    pub fn numel(&self) -> usize {
        self.range.len()
    }

    /// True if this field is *replicated* (identical on every rank) under
    /// Megatron-style model parallelism, rather than sharded: layernorm
    /// parameters, row-parallel biases, embeddings, and the LM head.
    /// Replicated fields carry identical gradients on every MP rank, which
    /// matters when composing a global gradient norm.
    pub fn replicated_under_mp(&self) -> bool {
        let n = self.name.as_str();
        n.starts_with("embed.")
            || n.starts_with("head.")
            || n.contains(".ln")
            || n.ends_with(".b_o")
            || n.ends_with(".b_fc2")
    }
}

/// A unit: a contiguous run of fields that is fetched/computed/freed
/// together (stage-3 granularity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unit {
    /// `embed`, `blockN`, or `head`.
    pub name: String,
    /// Range within the flat parameter buffer covering every field.
    pub range: std::ops::Range<usize>,
    /// Indices into [`Layout::fields`].
    pub field_indices: Vec<usize>,
}

/// The full flat layout for a model configuration.
#[derive(Clone, Debug)]
pub struct Layout {
    fields: Vec<Field>,
    units: Vec<Unit>,
    total: usize,
    /// The model this is a shard of, and the MP degree that cut it.
    cfg: ModelConfig,
    mp: usize,
}

/// Field offsets within one block's slice, in declaration order.
#[derive(Clone, Debug)]
pub struct BlockOffsets {
    pub ln1_g: std::ops::Range<usize>,
    pub ln1_b: std::ops::Range<usize>,
    pub w_qkv: std::ops::Range<usize>,
    pub b_qkv: std::ops::Range<usize>,
    pub w_o: std::ops::Range<usize>,
    pub b_o: std::ops::Range<usize>,
    pub ln2_g: std::ops::Range<usize>,
    pub ln2_b: std::ops::Range<usize>,
    pub w_fc1: std::ops::Range<usize>,
    pub b_fc1: std::ops::Range<usize>,
    pub w_fc2: std::ops::Range<usize>,
    pub b_fc2: std::ops::Range<usize>,
}

/// Field offsets within the embedding unit's slice.
#[derive(Clone, Debug)]
pub struct EmbedOffsets {
    pub tok: std::ops::Range<usize>,
    pub pos: std::ops::Range<usize>,
}

/// Field offsets within the head unit's slice.
#[derive(Clone, Debug)]
pub struct HeadOffsets {
    pub lnf_g: std::ops::Range<usize>,
    pub lnf_b: std::ops::Range<usize>,
    pub w_head: std::ops::Range<usize>,
}

struct Builder {
    fields: Vec<Field>,
    units: Vec<Unit>,
    cursor: usize,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            fields: Vec::new(),
            units: Vec::new(),
            cursor: 0,
        }
    }

    fn begin_unit(&mut self) -> (usize, usize) {
        (self.cursor, self.fields.len())
    }

    fn end_unit(&mut self, name: &str, start: (usize, usize)) {
        self.units.push(Unit {
            name: name.to_string(),
            range: start.0..self.cursor,
            field_indices: (start.1..self.fields.len()).collect(),
        });
    }

    fn field(&mut self, name: String, shape: &[usize]) -> std::ops::Range<usize> {
        let numel: usize = shape.iter().product();
        let range = self.cursor..self.cursor + numel;
        self.fields.push(Field {
            name,
            shape: shape.to_vec(),
            range: range.clone(),
        });
        self.cursor += numel;
        range
    }
}

impl Layout {
    /// Builds the single-device layout for `cfg`.
    pub fn build(cfg: &ModelConfig) -> Layout {
        Layout::build_mp(cfg, 1)
    }

    /// Builds the layout of *one model-parallel rank's shard* when the
    /// model is split `mp`-ways Megatron-style: attention heads and MLP
    /// intermediate dim divided by `mp`; embeddings, layernorms and the
    /// LM head replicated (a simplification of Megatron's vocab-parallel
    /// embedding that keeps the same per-block collective structure).
    ///
    /// # Panics
    /// Panics if `mp` does not divide `heads` (and hence `hidden`) or `4·h`.
    pub fn build_mp(cfg: &ModelConfig, mp: usize) -> Layout {
        cfg.validate();
        assert!(mp > 0, "mp degree must be positive");
        assert_eq!(cfg.heads % mp, 0, "heads {} not divisible by mp {}", cfg.heads, mp);
        let h = cfg.hidden;
        let shard_h = h / mp; // sharded attention width
        let shard_ffn = 4 * h / mp; // sharded MLP intermediate width
        let mut b = Builder::new();

        let s = b.begin_unit();
        b.field("embed.tok".into(), &[cfg.vocab, h]);
        b.field("embed.pos".into(), &[cfg.seq, h]);
        b.end_unit("embed", s);

        for l in 0..cfg.layers {
            let s = b.begin_unit();
            b.field(format!("block{l}.ln1_g"), &[h]);
            b.field(format!("block{l}.ln1_b"), &[h]);
            b.field(format!("block{l}.w_qkv"), &[h, 3 * shard_h]);
            b.field(format!("block{l}.b_qkv"), &[3 * shard_h]);
            b.field(format!("block{l}.w_o"), &[shard_h, h]);
            b.field(format!("block{l}.b_o"), &[h]);
            b.field(format!("block{l}.ln2_g"), &[h]);
            b.field(format!("block{l}.ln2_b"), &[h]);
            b.field(format!("block{l}.w_fc1"), &[h, shard_ffn]);
            b.field(format!("block{l}.b_fc1"), &[shard_ffn]);
            b.field(format!("block{l}.w_fc2"), &[shard_ffn, h]);
            b.field(format!("block{l}.b_fc2"), &[h]);
            b.end_unit(&format!("block{l}"), s);
        }

        let s = b.begin_unit();
        b.field("head.lnf_g".into(), &[h]);
        b.field("head.lnf_b".into(), &[h]);
        b.field("head.w_head".into(), &[h, cfg.vocab]);
        b.end_unit("head", s);

        Layout {
            fields: b.fields,
            units: b.units,
            total: b.cursor,
            cfg: *cfg,
            mp,
        }
    }

    /// Block dims as this shard computes them for a micro-batch of
    /// `batch` sequences.
    pub fn block_dims(&self, batch: usize) -> BlockDims {
        BlockDims {
            hidden: self.cfg.hidden,
            local_heads: self.cfg.heads / self.mp,
            head_dim: self.cfg.head_dim(),
            ffn: 4 * self.cfg.hidden / self.mp,
            batch,
            seq: self.cfg.seq,
        }
    }

    /// Total elements in the flat buffer.
    #[inline]
    pub fn total_params(&self) -> usize {
        self.total
    }

    /// All fields in buffer order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// All units in forward order: `embed`, `block0..blockL-1`, `head`.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Number of units (= layers + 2).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Looks up a field range by name.
    pub fn field_range(&self, name: &str) -> std::ops::Range<usize> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no field named {name}"))
            .range
            .clone()
    }

    /// Offsets of block `l`'s fields *relative to the block unit's slice*.
    pub fn block_offsets(&self, l: usize) -> BlockOffsets {
        let unit = &self.units[1 + l];
        let base = unit.range.start;
        // The unit's fields in the order `build_mp` declares them; no name
        // lookup, so the per-call cost is twelve subtractions.
        let mut fields = unit.field_indices.iter().map(|&i| &self.fields[i].range);
        let mut rel = || {
            let r = fields.next().expect("a block unit has twelve fields");
            r.start - base..r.end - base
        };
        BlockOffsets {
            ln1_g: rel(),
            ln1_b: rel(),
            w_qkv: rel(),
            b_qkv: rel(),
            w_o: rel(),
            b_o: rel(),
            ln2_g: rel(),
            ln2_b: rel(),
            w_fc1: rel(),
            b_fc1: rel(),
            w_fc2: rel(),
            b_fc2: rel(),
        }
    }

    /// Offsets of the embedding fields relative to the embed unit's slice.
    pub fn embed_offsets(&self) -> EmbedOffsets {
        let base = self.units[0].range.start;
        let rel = |name: &str| {
            let r = self.field_range(name);
            r.start - base..r.end - base
        };
        EmbedOffsets {
            tok: rel("embed.tok"),
            pos: rel("embed.pos"),
        }
    }

    /// Offsets of the head fields relative to the head unit's slice.
    pub fn head_offsets(&self) -> HeadOffsets {
        let base = self.units.last().unwrap().range.start;
        let rel = |name: &str| {
            let r = self.field_range(name);
            r.start - base..r.end - base
        };
        HeadOffsets {
            lnf_g: rel("head.lnf_g"),
            lnf_b: rel("head.lnf_b"),
            w_head: rel("head.w_head"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_config_arithmetic() {
        let cfg = ModelConfig::tiny();
        let layout = Layout::build(&cfg);
        assert_eq!(layout.total_params(), cfg.total_params());
        assert_eq!(layout.unit_count(), cfg.layers + 2);
        assert_eq!(layout.units()[0].range.len(), cfg.embed_params());
        assert_eq!(layout.units()[1].range.len(), cfg.block_params());
        assert_eq!(layout.units().last().unwrap().range.len(), cfg.head_params());
    }

    #[test]
    fn units_are_contiguous_and_cover() {
        let layout = Layout::build(&ModelConfig::tiny());
        let mut cursor = 0;
        for u in layout.units() {
            assert_eq!(u.range.start, cursor, "unit {} not contiguous", u.name);
            cursor = u.range.end;
        }
        assert_eq!(cursor, layout.total_params());
    }

    #[test]
    fn fields_are_contiguous_and_cover() {
        let layout = Layout::build(&ModelConfig::tiny());
        let mut cursor = 0;
        for f in layout.fields() {
            assert_eq!(f.range.start, cursor, "field {} not contiguous", f.name);
            assert_eq!(f.numel(), f.shape.iter().product::<usize>());
            cursor = f.range.end;
        }
        assert_eq!(cursor, layout.total_params());
    }

    #[test]
    fn mp_sharding_divides_block_weights() {
        let cfg = ModelConfig {
            vocab: 32,
            seq: 8,
            hidden: 16,
            layers: 1,
            heads: 4,
            };
        let full = Layout::build_mp(&cfg, 1);
        let half = Layout::build_mp(&cfg, 2);
        // Sharded fields shrink by mp; replicated ones (LN, embeddings,
        // head) stay: block shard = (12h² + 13h - replicated)/2 + replicated.
        let h = cfg.hidden;
        let full_block = full.units()[1].range.len();
        let half_block = half.units()[1].range.len();
        let replicated = 4 * h + 2 * h; // ln1, ln2 (4h total) + b_o + b_fc2
        assert_eq!(full_block - replicated, 2 * (half_block - replicated));
        assert_eq!(full.units()[0].range.len(), half.units()[0].range.len());
    }

    #[test]
    fn relative_offsets_are_consistent() {
        let cfg = ModelConfig::tiny();
        let layout = Layout::build(&cfg);
        let off = layout.block_offsets(1);
        let unit = &layout.units()[2];
        // Every positional offset is the field of that name.
        for (name, rel) in [
            ("ln1_g", &off.ln1_g),
            ("ln1_b", &off.ln1_b),
            ("w_qkv", &off.w_qkv),
            ("b_qkv", &off.b_qkv),
            ("w_o", &off.w_o),
            ("b_o", &off.b_o),
            ("ln2_g", &off.ln2_g),
            ("ln2_b", &off.ln2_b),
            ("w_fc1", &off.w_fc1),
            ("b_fc1", &off.b_fc1),
            ("w_fc2", &off.w_fc2),
            ("b_fc2", &off.b_fc2),
        ] {
            let abs = layout.field_range(&format!("block1.{name}"));
            assert_eq!(rel.start + unit.range.start..rel.end + unit.range.start, abs, "{name}");
        }
        let h = cfg.hidden;
        assert_eq!(off.w_qkv.len(), 3 * h * h);
        assert_eq!(off.w_fc1.len(), 4 * h * h);
    }
}
