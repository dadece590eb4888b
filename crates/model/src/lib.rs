//! # zero-model
//!
//! A GPT-2-like decoder-only transformer with hand-written exact backward
//! passes, exposed as per-unit functions (embedding / blocks / head) so
//! the ZeRO engines in `zero-core` can schedule parameter materialization
//! (stage 3) and gradient reduction (stage 2) around them — the "dynamic
//! communication schedule" of §4.1.
//!
//! Also provides Megatron-style model-parallel sharding: the same block
//! kernels run on head/ffn shards with all-reduce hooks at exactly the
//! points §8 of the paper counts (two per block per pass).
//!
//! ```
//! use zero_model::{init_full_params, Gpt, ModelConfig};
//!
//! let cfg = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 };
//! let gpt = Gpt::new(cfg);
//! // Flat parameter space: embed, block0, block1, head — in order.
//! assert_eq!(gpt.layout().unit_count(), cfg.layers + 2);
//! assert_eq!(gpt.num_params(), cfg.total_params());
//! let params = init_full_params(&cfg, 42);
//! assert_eq!(params.len(), gpt.num_params());
//! ```

pub mod block;
pub mod config;
pub mod data;
pub mod generate;
pub mod gpt;
pub mod kv;
pub mod layout;

pub use block::{BlockDims, BlockSaved};
pub use config::ModelConfig;
pub use data::{rank_batch, ByteCorpus, SyntheticCorpus};
pub use generate::{
    argmax, block_rows_kv, embed_rows, head_rows, GenerateError, Generator, IncrementalDecoder,
    Row, RowBatch, Sampling,
};
pub use kv::{BlockArena, BlockArenaStats, ContigKv, KvArena};
pub use gpt::{init_full_params, shard_params, Gpt};
pub use layout::{Field, Layout, Unit};
