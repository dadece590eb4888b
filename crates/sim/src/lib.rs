//! # zero-sim
//!
//! Cluster-scale analytical models and the case table that regenerates
//! the paper's tables and figures on the simulated 400×V100 DGX-2 testbed
//! (the hardware we substitute per DESIGN.md); `zero-sim` is its CLI.
//!
//! ```
//! use zero_core::ZeroStage;
//! use zero_sim::MemoryModel;
//!
//! // Figure 1's worked example: Ψ = 7.5B at N_d = 64.
//! let m = MemoryModel::default();
//! let gb = m.model_state_bytes(7.5e9, ZeroStage::Three, 64.0) / 1e9;
//! assert!((gb - 1.875).abs() < 0.01);
//! ```

pub mod cluster;
pub mod configs;
pub mod des;
pub mod fragmentation;
pub mod experiments;
pub mod memory;
pub mod perf;
pub mod pipeline;

pub use cluster::ClusterSpec;
pub use des::{overlap_fraction, simulate_overlapped, simulate_serial, DesConfig, DesResult};
pub use fragmentation::{simulate_training_fragmentation, FirstFitHeap, FragReport};
pub use memory::{MemoryModel, SimWorkload, K_ADAM};
pub use perf::{dp_volume_elems, PerfModel, RunConfig, StepBreakdown};
pub use pipeline::{compare_zero_vs_pp, PipelineConfig, PipelineScheme, PpComparison};
