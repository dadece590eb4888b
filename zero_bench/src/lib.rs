//! # zero_bench
//!
//! The repo's benchmark, described by the root `BENCHMARK.json`: five
//! named workloads (`train.compute`, `train.comm`, `train.offload`,
//! `serve.shared`, `serve.burst`), each built from a `--seed`, checked for
//! correct outputs, and measured twice — end to end with the program's
//! tracing off, and layer by layer from a traced run plus probes of each
//! layer's public entry points. It drives the system only through public
//! functions and changes no code outside this directory. `README.md` has
//! the metric and workload tables and how to run, compare and read a
//! trace.

pub mod compare;
pub mod phase;
pub mod probes;
pub mod report;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod train;
pub mod workloads;

/// Rank threads of every timed workload, all in one process. Each rank's
/// comm progress thread mostly sleeps on the modeled link, so two ranks
/// fit the two cores the workloads were sized on; four are not timed.
pub const RANKS: usize = 2;

/// Length of a run's measured phase when `--seconds` is not given:
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
