//! # lightts-bench
//!
//! The experiment harness of the LightTS reproduction: one binary per table
//! and figure of the paper's evaluation (Section 4), plus the Criterion
//! kernel and serving benchmarks (`benches/kernels.rs`, `benches/serve.rs`)
//! that write `BENCH_kernels.json`.
//!
//! Every binary accepts `--scale quick|full` (default `quick`), prints its
//! table/series as TSV to stdout, and is deterministic for a fixed seed.
//! `DESIGN.md` maps each binary to its paper artifact; `EXPERIMENTS.md`
//! records paper-vs-measured results.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod context;
pub mod perf;
pub mod report;
pub mod runner;
