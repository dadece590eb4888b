//! # zero-bench
//!
//! Benchmarks for the ZeRO reproduction: one harness, the bins under
//! `src/bin/` (the library only hosts their shared fixtures). Each bin
//! writes `results/BENCH_<name>.json`; `ci.sh` re-runs each with
//! `--smoke` and `--check-against` that file:
//!
//! * `bench_matmul` — every GEMM wrapper at the block's real shapes,
//!   bit-checked against `matmul::reference` before timing.
//! * `bench_step` — wall-clock per training step by stage, DP degree,
//!   overlap and offload.
//! * `bench_serve` — batched serving throughput and the open-loop
//!   arrival determinism gate.
//!
//! The end-to-end benchmark the PR pipeline gates on is the separate
//! `zero_bench/` package (see `BENCHMARK.json`), which `ci.sh` smoke-runs.

use zero_comm::Grid;
use zero_core::{TrainSetup, ZeroConfig, ZeroStage};
use zero_model::ModelConfig;

/// The standard small benchmark model (large enough that per-step work
/// dominates harness overhead, small enough for quick iterations).
pub fn bench_model() -> ModelConfig {
    ModelConfig {
        vocab: 64,
        seq: 16,
        hidden: 64,
        layers: 2,
        heads: 4,
    }
}

/// A ready-to-run setup for a stage at a DP degree.
pub fn bench_setup(stage: ZeroStage, dp: usize) -> TrainSetup {
    TrainSetup {
        model: bench_model(),
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 1.0,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 8,
        seed: 1,
    }
}
