//! # hpcqc-bench
//!
//! Experiment harness reproducing every figure and claim of *Assessing the
//! Elephant in the Room in Scheduling for Current Hybrid HPC-QC Clusters*
//! (DSN 2025). The simulator's own performance is measured by the
//! separate `perfbench` package at the repository root.
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run -p hpcqc-bench --bin repro --release           # all experiments
//! cargo run -p hpcqc-bench --bin repro --release -- e4     # just Fig. 3
//! cargo run -p hpcqc-bench --bin repro --release -- all --quick
//! ```
//!
//! See [`experiments`] for the per-figure modules and
//! [`workloads`] for the shared workload constructors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod workloads;
