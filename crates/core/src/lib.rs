//! # hpcqc-core
//!
//! The paper's contribution, executable: hybrid HPC–QC integration
//! strategies and the facility simulator that evaluates them.
//!
//! *Assessing the Elephant in the Room in Scheduling for Current Hybrid
//! HPC-QC Clusters* (DSN 2025) argues that naively attaching a QPU to a
//! batch scheduler — the Listing-1 heterogeneous job — wastes whichever
//! resource the workload leaves idle, and proposes three complementary
//! remedies. This crate implements all four allocation disciplines over the
//! same machine, scheduler and workload substrates:
//!
//! * [`Strategy::CoSchedule`] — the baseline to beat;
//! * [`Strategy::Workflow`] — loosely-coupled steps (paper Fig. 2);
//! * [`Strategy::Vqpu`] — temporal interleaving on virtual QPUs (Fig. 3);
//! * [`Strategy::Malleable`] — shrink/expand around quantum phases (Fig. 4);
//!
//! plus the [`advisor`] that encodes §4's "which strategy when" guidance,
//! and a fifth strategy proving the simulation core is open:
//!
//! * [`Strategy::Adaptive`] — the advisor run per job inside the
//!   simulator, picking the mechanism from each job's phase profile.
//!
//! ## Extension points
//!
//! The simulation core exposes three pluggable APIs (see the [`driver`],
//! [`observer`] and [`source`] modules). Every caller reaches the one
//! event loop through [`FacilitySim::run_streamed_probed`], directly or
//! through one of the four shorthands that delegate to it.
//!
//! * [`StrategyDriver`] — strategy-specific behaviour behind lifecycle
//!   hooks over a [`SimCtx`] capability handle. The five built-in
//!   strategies are ~50-line drivers in [`drivers`]; a custom driver runs
//!   on the stock loop via [`FacilitySim::run_streamed_probed`].
//! * [`SimObserver`] — metrics consumers fed a typed [`SimEvent`]
//!   stream. Job statistics and waste accounting are the built-in
//!   observers that assemble the [`Outcome`]; attach your own (a
//!   [`GanttObserver`](observer::GanttObserver), a tracer) via
//!   [`FacilitySim::run_observed`].
//! * [`JobSource`] — streaming workload input: the simulator pulls
//!   time-ordered jobs lazily and retires their state at finalization,
//!   so facility-scale campaigns (months, millions of jobs) run in
//!   memory proportional to the jobs in flight. Every iterator of
//!   [`JobSpec`]s is a source; run one via [`FacilitySim::run_streamed`].
//!
//! [`JobSpec`]: hpcqc_workload::JobSpec
//!
//! ## Example
//!
//! ```
//! use hpcqc_core::{FacilitySim, Scenario, Strategy};
//! use hpcqc_qpu::Technology;
//! use hpcqc_workload::{JobClass, Pattern, Workload};
//! use hpcqc_qpu::Kernel;
//!
//! let workload = Workload::builder()
//!     .class(JobClass::new("vqe", Pattern::vqe(10, 60.0, Kernel::sampling(1_000))))
//!     .count(20)
//!     .generate(42);
//! let scenario = Scenario::builder()
//!     .classical_nodes(32)
//!     .device(Technology::Superconducting)
//!     .strategy(Strategy::Vqpu { vqpus: 4 })
//!     .build();
//! let outcome = FacilitySim::run(&scenario, &workload)?;
//! assert_eq!(outcome.stats.len(), 20);
//! # Ok::<(), hpcqc_core::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advisor;
pub mod driver;
pub mod drivers;
pub mod observer;
pub mod outcome;
pub mod scenario;
pub mod sim;
pub mod source;
pub mod strategy;

pub use advisor::{estimate_queue_wait, recommend, Recommendation, WorkloadProfile};
pub use driver::{driver_for, SimCtx, StrategyDriver, SubmissionPlan};
pub use hpcqc_faults::{
    CheckpointSpec, DeviceFaults, DriftModel, FaultPlan, NodeFaults, RecoverySpec,
};
pub use observer::{PhaseKind, SimEvent, SimObserver};
pub use outcome::{DeviceSummary, Outcome, WasteSummary};
pub use scenario::{Scenario, ScenarioBuilder, WalltimePolicy};
pub use sim::{FacilitySim, SimError};
pub use source::JobSource;
pub use strategy::Strategy;
