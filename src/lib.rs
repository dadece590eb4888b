//! # zero
//!
//! A comprehensive Rust reproduction of **"ZeRO: Memory Optimizations
//! Toward Training Trillion Parameter Models"** (Rajbhandari, Rasley,
//! Ruwase, He — SC 2020).
//!
//! The facade re-exports the workspace crates:
//!
//! * [`tensor`] — dense f32/f16 tensors and transformer kernels with exact
//!   backward passes (the cuBLAS/cuDNN substitute).
//! * [`comm`] — ranks-as-threads communicator with NCCL-style ring
//!   collectives and per-rank traffic metering (the NCCL substitute).
//! * [`model`] — a GPT-2-like transformer exposed per-unit, with
//!   Megatron-style tensor parallelism.
//! * [`optim`] — mixed-precision Adam (K = 12), SGD, dynamic loss scaling.
//! * [`core`] — ZeRO-DP stages 1–3 and ZeRO-R (P_a, P_a+cpu, CB, MD), the
//!   DDP baseline, and the multi-rank trainer.
//! * [`serve`] — shard-hosted batched inference serving: stage-3 layer
//!   streaming plus a continuous-batching scheduler
//!   (`zero-train --save ckpt` → `zero-serve --snapshots ckpt`).
//! * [`sim`] — the analytical memory model and cluster-scale throughput
//!   simulator that regenerate the paper's tables and figures.
//! * [`trace`] — per-rank span tracing: step timelines, overlap queries,
//!   and Chrome trace-event export (`zero-train --trace out.json`).
//!
//! [`cli`] is the argument parser the `zero-train` and `zero-serve`
//! binaries share.
//!
//! ## Quickstart
//!
//! ```
//! use zero::core::{run_training, TrainSetup, ZeroConfig, ZeroStage};
//! use zero::comm::Grid;
//! use zero::model::ModelConfig;
//!
//! let setup = TrainSetup {
//!     model: ModelConfig { vocab: 64, seq: 16, hidden: 32, layers: 2, heads: 4 },
//!     zero: ZeroConfig { stage: ZeroStage::Two, ..ZeroConfig::default() },
//!     grid: Grid::new(4, 1), // 4-way data parallelism
//!     global_batch: 8,
//!     seed: 42,
//! };
//! let report = run_training(&setup, 5, 0);
//! assert_eq!(report.losses.len(), 5);
//! ```

pub mod cli;

pub use zero_comm as comm;
pub use zero_core as core;
pub use zero_model as model;
pub use zero_optim as optim;
pub use zero_serve as serve;
pub use zero_sim as sim;
pub use zero_tensor as tensor;
pub use zero_trace as trace;
