//! # perfbench — flow-level benchmark of the COSMA workspace
//!
//! A single-process, single-threaded, closed-loop runner over three
//! workloads (`cosyn_flow`, `soc_sweep`, `trace_replay`). It generates a
//! workload's jobs from a seed, checks every job's output, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). See `perfbench/README.md` for the metrics and workloads.

pub mod digest;
pub mod flows;
pub mod jobs;
pub mod report;
pub mod runner;
pub mod spans;
pub mod speed;
