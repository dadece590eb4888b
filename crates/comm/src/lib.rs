//! # zero-comm
//!
//! In-process substitute for NCCL: each rank is an OS thread, the fabric is
//! a matrix of FIFO channels, and the collectives are the same pipelined
//! ring schedules NCCL uses — so per-rank communication *volume* matches
//! the algorithmic volumes the paper's §7 analysis is built on, and is
//! measured, not assumed, via [`stats::TrafficStats`].
//!
//! Failures are first-class: every receive is timeout-bounded, every payload
//! carries a CRC, and collectives return `Result<_, CommError>` so dead,
//! hung, or corrupting peers surface as typed errors rather than deadlocks
//! or aborts. [`FaultPlan`] injects such failures deterministically.
//!
//! ```
//! use zero_comm::{launch, ReduceOp, Precision};
//!
//! let sums = launch(4, |mut comm| {
//!     let mut buf = vec![comm.rank() as f32; 8];
//!     comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
//!     buf[0]
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

pub mod collectives;
pub mod crc;
pub mod error;
pub mod fault;
pub mod group;
pub mod hierarchical;
pub mod nonblocking;
pub mod protocol;
pub mod quant;
pub mod stats;
pub mod process;
pub mod transport;
pub mod wire;
pub mod world;

pub use collectives::{chunk_range, Precision, ReduceOp, WireFmt};
pub use crc::{crc32, crc32_f32s, Crc32};
pub use error::CommError;
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
pub use group::{Grid, Group};
pub use hierarchical::NodeTopology;
pub use nonblocking::PendingOp;
pub use process::{connect_process_rank, ProcessWorldConfig, RankProcs};
pub use quant::{
    quant_wire_bytes, quantize, quantize_for_transport, BlockQuantized, QuantError,
    DEFAULT_QUANT_BLOCK,
};
pub use stats::{
    CollectiveKind, TimingSnapshot, TrafficSnapshot, TrafficStats, ALL_KINDS, KIND_COUNT,
};
pub use transport::{Delivery, Flip, Transport};
pub use wire::{Frame, WireError, MAX_FRAME_LEN};
pub use world::{
    launch, launch_with_config, launch_with_stats, try_launch, try_launch_with_config,
    Communicator, RankFailure, TierOrder, TieredLink, World, WorldConfig,
};
