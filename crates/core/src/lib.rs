//! # zero-core
//!
//! The paper's primary contribution: ZeRO-DP stages 1–3 (P_os, P_os+g,
//! P_os+g+p) and ZeRO-R (partitioned activation checkpointing P_a /
//! P_a+cpu, constant-size buffers CB, contiguous-memory defragmentation
//! MD), implemented as a real distributed training engine over the
//! `zero-comm` collectives and the `zero-model` transformer — plus the
//! DDP baseline it is compared against.
//!
//! Every byte of model state the engine allocates is registered with a
//! [`MemoryTracker`], and every byte any collective sends is metered, so
//! the paper's memory (§3, §5) and communication (§7, §8) analyses are
//! *measured properties* of this implementation, verified in tests.
//!
//! ```
//! use zero_core::Partitioner;
//! use zero_model::{Layout, ModelConfig};
//!
//! // ZeRO's partition: every unit (embedding, each block, head) split
//! // over N_d owners, so each owner holds 1/N_d of every layer.
//! let layout = Layout::build(&ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 });
//! let p = Partitioner::per_unit(&layout, 4);
//! assert_eq!(p.counts().iter().sum::<usize>(), layout.total_params());
//! // A block's gather takes an equal piece from every owner: the counts
//! // of the variable-count collectives.
//! let counts = p.intersect_counts(&layout.units()[1].range);
//! assert_eq!(counts, vec![820; 4]);
//! ```

pub mod arena;
pub mod bucket;
pub mod config;
pub mod engine;
pub mod footprint;
pub mod memory;
pub mod partition;
pub mod plan;
pub mod procworld;
pub mod snapshot;
pub mod store;
pub mod supervisor;
pub mod tier;
pub mod trainer;
mod walk;

pub use arena::ContiguousArena;
pub use bucket::GradBucket;
pub use config::{
    CkptPlace, CompressionConfig, ConfigError, OptimizerKind, TierConfig, ZeroConfig, ZeroStage,
};
pub use engine::{RankEngine, StepOutcome};
pub use memory::{MemCategory, MemoryTracker, ALL_CATEGORIES, CATEGORY_COUNT, MODEL_STATE_CATEGORIES};
pub use partition::Partitioner;
pub use procworld::{
    maybe_run_worker, run_supervised_process, KillSpec, ProcessWorldOptions, WorkerCommand,
    WORKER_SPEC_ENV,
};
pub use plan::{
    CommPlan, CountSpec, EffectiveOffload, OpRole, ParamStore, PlanCursor, PlanOp, PlanScope,
    Reduction, ResolvedOp, ResolvedTierOp, Settle, StepShape, TierAt, TierOp,
};
pub use snapshot::{
    export_inference_shards, reshard, validate_consistent, RankSnapshot, SnapshotError,
};
pub use store::FlatStore;
pub use tier::{PageId, TierStats, TierStore};
pub use supervisor::{
    resume_from_snapshot, run_supervised, RecoveryReport, SuperviseError, SupervisedReport,
    SupervisorConfig,
};
/// A planned op's wire format; `zero-comm`'s collectives dispatch on it.
pub use zero_comm::WireFmt;
pub use trainer::{
    run_training, run_training_on, run_training_world, RankReport, TrainReport, TrainSetup,
};
