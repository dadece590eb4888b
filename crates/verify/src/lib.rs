//! # zero-verify
//!
//! Static verification for the ZeRO reproduction — three passes that
//! prove schedule- and layout-level properties **without running a single
//! training step**:
//!
//! 1. [`schedule`] — the collective-schedule checker. Builds the engine's
//!    declarative [`zero_core::CommPlan`] for every stage × grid
//!    combination, resolves it for every rank, and proves rank-symmetry
//!    (deadlock-freedom), group-membership consistency, and per-rank byte
//!    volumes matching the paper's §7 formulas (2Ψ·(N−1)/N for DDP and
//!    stages 1–2, ≤ 3Ψ for stage 3) by exact telescoping identities.
//! 2. [`tiling`] — the shard-tiling prover. Shows the flat-space
//!    partition is exhaustive and disjoint (every element owned by
//!    exactly one rank, padding accounted) for arbitrary N, and that
//!    layer-range intersections tile every unit exactly.
//! 3. [`lint`] — the workspace lint. Scans non-test code of `zero-comm`
//!    and `zero-core` for banned patterns: `unwrap()`/`expect()` on
//!    communication results, untimed `recv()`, lossy `as` casts in byte
//!    accounting, and raw integer casts near quantization codes.
//! 4. [`compression`] — the ZeRO++ compression prover. Sweeps every
//!    qwZ/hpZ/qgZ lever combination a stage owns (qgZ at stage 2, all
//!    three at stage 3) across node shapes,
//!    independently recomputes every compressed op's wire bytes, proves
//!    levers-off plans bitwise identical to the baseline, and certifies
//!    the analytic inter-node volume reduction (≥ 3.5× at stage 3 with
//!    all levers on, N ≥ 4, G ≥ 2).
//! 5. [`offload`] — the memory-tier offload prover. Sweeps stages 1–3 ×
//!    N × sync/overlap × precision, proves every tier movement anchored
//!    byte-exactly on the collective it rides (a fetch seeds an
//!    all-gather, a gradient spill drains a reduce-scatter; only
//!    checkpoint and stage-1 spills ride nothing) and that overlapped
//!    stage-3 plans seed gathers issued ahead (the prefetch window),
//!    telescopes spill/publish volumes against the partition, and shows
//!    offloaded plans keep a collective stream bitwise identical to the
//!    tier-off baseline; its checkpoint clause pairs every P_a+cpu
//!    checkpoint spill with the fetch that seeds its gather.
//! 6. [`memory`] — the memory clause. Over every plan the schedule
//!    digests pin, proves each bucket reduce-scatter's `Settle` stamp the
//!    point its own rule derives (the first gather issued ahead behind it,
//!    else the drain), and, through `CommPlan::footprint`, each tier
//!    placement within its budget.
//!
//! The runtime side of the same guarantee lives in [`tracecheck`] and the
//! trace-conformance tests (`tests/trace_conformance.rs`): a recorded
//! [`zero_trace::StepTimeline`] must reconcile exactly — span counts and
//! byte tags — with the plan's analytic volume model and the traffic
//! counters `zero-comm` metered during real training.

pub mod compression;
pub mod lint;
pub mod memory;
pub mod modelcheck;
pub mod offload;
pub mod schedule;
pub mod tiling;
pub mod tracecheck;

pub use compression::{check_compression, CompressionReport, RatioRow};
pub use offload::{check_offload, OffloadReport};
pub use lint::{lint_paths, LintHit, LintReport};
pub use memory::{check_memory, MemoryReport};
pub use modelcheck::{run_modelcheck, ModelcheckReport, ScenarioOutcome};
pub use schedule::{check_all as check_schedules, ScheduleReport};
pub use tiling::{prove_all as prove_tiling, TilingReport};
pub use tracecheck::{check_tier_order, check_timeline, TraceExpectation, TIER_LABELS};
