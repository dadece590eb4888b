//! # zero-serve
//!
//! Shard-hosted, batched inference serving — the paper's §5.3 memory
//! argument applied to the *serving* side of the north star ("serves heavy
//! traffic from millions of users").
//!
//! ## Memory model
//!
//! A trained world's fp32 master parameters are exported
//! ([`zero_core::export_inference_shards`]) into `N` balanced shards, one
//! per serving rank. A rank persists only its `Ψ/N` shard; each batch step
//! runs the ops of [`zero_core::CommPlan::serve_step`] in order, which
//! **all-gathers one unit at a time** (embed, blocks…, head) and drops it
//! after use. The plan builder records that step with the same `fetch`
//! that writes training's stage-3 schedule, so under overlap the next
//! unit goes out one unit ahead exactly as in training; the engine only
//! interprets the ops. Per-rank parameter memory is therefore
//!
//! ```text
//! 4Ψ/N  (persistent shard)  +  4·(u_max + u_next)  (transient window)
//! ```
//!
//! which for transformer-shaped models is within ε of the paper's `2/N`
//! figure: [`zero_core::CommPlan::serve_param_bound`] is that bound, which
//! `bench_serve`, `zero-serve --smoke` and the serving tests enforce.
//!
//! KV memory is one pool of **paged blocks** allocated on demand as each
//! request's decode position advances, with hash-verified **prefix
//! reuse** sharing read-only blocks between requests whose prompts agree
//! (copy-on-write at the divergence point). The block size is the only
//! geometry: a `seq`-long block is the per-slot slab. See [`paged`].
//! Greedy outputs are bitwise identical at every block size because the
//! decode kernel only ever sees rows.
//!
//! ## Scheduling model
//!
//! Serving is SPMD and deterministic: every rank runs the identical
//! continuous-batching schedule over the identical request list, so the
//! per-step gather schedule is rank-symmetric by construction (statically
//! provable — [`zero_core::CommPlan::serve_step`] is checked by
//! `zero-verify`) and ranks never need to coordinate about batch
//! composition. Sharding buys *memory*, batching buys *throughput*: the
//! per-unit gathers amortize over every pending row of every live
//! request in the batch.
//!
//! Load is **open-loop in batch-step time**: the seeded generator
//! ([`load`]) stamps each request with an `arrival_step`, every rank
//! observes the identical schedule, and the engine fast-forwards its
//! virtual clock across idle gaps without executing (or gathering for)
//! empty steps. Under saturation the engine degrades deterministically:
//! a request whose predicted queue delay exceeds the configured SLO is
//! shed with [`ServeError::Overloaded`] at delivery — on every rank, for
//! the same reason, at the same step.
//!
//! Admission is where all input validation happens — malformed requests
//! (out-of-vocab tokens, over-length prompts) get a typed
//! [`ServeError`] and never touch the schedule, so one bad request can
//! never crash or desynchronize a rank. Termination is never
//! data-dependent: a step feeds every pending row of every live request
//! (a new request's whole prompt, one row per decoding request) through
//! each gathered unit, so a request runs exactly `max_new_tokens` steps
//! and every rank retires it on the same step.

pub mod engine;
pub mod load;
pub mod paged;
pub mod request;

pub use engine::{
    predicted_queue_delay, reference_greedy, serve, RankServeReport, ServeConfig, ServeReport,
};
pub use load::{generate, Arrivals, LoadConfig, SplitMix64};
pub use paged::{AttachOutcome, KvBackend, KvMeters, KvPool, PoolActivity};
pub use request::{admit, ServeError, ServeOutcome, ServeRequest, ServeResponse};
