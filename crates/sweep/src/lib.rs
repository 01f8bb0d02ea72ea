//! # hpcqc-sweep — the parallel scenario-sweep engine
//!
//! The paper's whole method is *replay one seeded workload across a grid
//! of scenarios and compare the outcomes*. This crate turns that shape
//! into a subsystem:
//!
//! * [`Grid`] — a declarative cartesian product over strategy, policy,
//!   node count, technology, fleet, fault plan, workload, access mode,
//!   walltime policy, arrival load and replication seeds. Serializes to
//!   JSON, so a whole campaign is a reviewable file (see
//!   `examples/grids/`, and `examples/paper/` for the paper's artifacts).
//! * [`Executor`] — a multi-threaded runner ([`std::thread::scope`] +
//!   an `mpsc` work queue). Per-cell seeds are derived purely from
//!   `(base_seed, cell_index)`, and results are reassembled in cell-index
//!   order, so output is **byte-identical at any `--threads` value**.
//! * [`SweepResult`] — per-cell [`Outcome`](hpcqc_core::outcome::Outcome)
//!   rows, group-by reductions over replicas (mean / p95), and
//!   CSV / JSON / markdown emitters built on
//!   [`hpcqc_metrics::report::Table`].
//!
//! ## Example
//!
//! ```
//! use hpcqc_sweep::{Executor, Grid};
//! use hpcqc_core::Strategy;
//! use hpcqc_sched::PolicySpec;
//!
//! let grid = Grid::builder()
//!     .strategies(Strategy::representative_set())
//!     .policies(vec![PolicySpec::fcfs(), PolicySpec::easy()])
//!     .base_seed(42)
//!     .build();
//! let result = Executor::new(4).run_sim(&grid)?;
//! assert_eq!(result.len(), 8);
//! println!("{}", result.summary().to_markdown());
//! # Ok::<(), hpcqc_sweep::SweepError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod grid;
pub mod result;
pub mod spec;

pub use exec::{Executor, SweepError};
pub use grid::{cell_seed, fmt_walltime, replica_seed, AccessSpec, Cell, Grid, GridBuilder};
pub use result::{CellResult, CellRow, CellTiming, SweepResult};
pub use spec::WorkloadSpec;
