//! # hpcqc — hybrid HPC–quantum cluster scheduling simulator
//!
//! A full reproduction of *Assessing the Elephant in the Room in Scheduling
//! for Current Hybrid HPC-QC Clusters* (DSN 2025): a discrete-event
//! simulator of an operational HPC facility with attached quantum devices,
//! a SLURM-like batch scheduler, per-technology QPU timing models, and the
//! paper's four resource-allocation strategies (exclusive co-scheduling,
//! loosely-coupled workflows, virtual QPUs, malleability).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. Use the pieces directly for finer dependency control.
//!
//! ```
//! use hpcqc::core::{FacilitySim, Scenario, Strategy};
//! use hpcqc::qpu::Technology;
//! use hpcqc::workload::{JobClass, Pattern, Workload};
//! use hpcqc::qpu::Kernel;
//!
//! let workload = Workload::builder()
//!     .class(JobClass::new("vqe", Pattern::vqe(8, 60.0, Kernel::sampling(1_000))))
//!     .count(10)
//!     .generate(7);
//! let scenario = Scenario::builder()
//!     .classical_nodes(16)
//!     .device(Technology::Superconducting)
//!     .strategy(Strategy::Vqpu { vqpus: 4 })
//!     .build();
//! let outcome = FacilitySim::run(&scenario, &workload)?;
//! println!("QPU utilization: {:.1}%", outcome.mean_device_utilization() * 100.0);
//! # Ok::<(), hpcqc::core::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use hpcqc_cluster as cluster;
pub use hpcqc_core as core;
pub use hpcqc_faults as faults;
pub use hpcqc_fleet as fleet;
pub use hpcqc_gen as gen;
pub use hpcqc_metrics as metrics;
pub use hpcqc_qpu as qpu;
pub use hpcqc_sched as sched;
pub use hpcqc_simcore as simcore;
pub use hpcqc_sweep as sweep;
pub use hpcqc_trace as trace;
pub use hpcqc_workload as workload;

/// Everything an application typically needs, one import away.
pub mod prelude {
    pub use hpcqc_cluster::{AllocRequest, Cluster, ClusterBuilder, GresKind, GroupRequest};
    pub use hpcqc_core::{
        driver_for, recommend, FacilitySim, JobSource, Outcome, PhaseKind, Scenario, SimCtx,
        SimError, SimEvent, SimObserver, Strategy, StrategyDriver, SubmissionPlan, WalltimePolicy,
        WorkloadProfile,
    };
    pub use hpcqc_faults::{
        CheckpointSpec, DeviceFaults, DriftModel, FaultPlan, NodeFaults, RecoverySpec,
    };
    pub use hpcqc_fleet::{
        DeviceId, FleetCtx, FleetDevice, FleetSpec, QpuFleet, RoutePolicy, RouteSpec, ALL_ROUTES,
        ROUTE_FORMS,
    };
    pub use hpcqc_gen::{
        ClassSpec, GeneratorSpec, Horizon, IntensityProfile, JobStream, TenantModel,
    };
    pub use hpcqc_metrics::{fmt_pct, fmt_secs, GanttRecorder, JobStats, Table};
    pub use hpcqc_qpu::{AccessMode, Kernel, QpuDevice, Technology};
    pub use hpcqc_sched::{
        BatchScheduler, CycleKind, CyclePhase, CycleProbe, Discipline, HoldReason, NoProbe,
        PendingJob, PolicySpec, PriorityCalculator, PriorityWeights,
    };
    pub use hpcqc_simcore::{Dist, SimDuration, SimRng, SimTime};
    pub use hpcqc_sweep::{
        AccessSpec, Cell, CellResult, CellRow, CellTiming, Executor, Grid, GridBuilder, SweepError,
        SweepResult, WorkloadSpec,
    };
    pub use hpcqc_trace::{
        AttributionObserver, ChromeTrace, JobLedger, MetricsObserver, MetricsRegistry,
        SchedProfiler, TraceObserver, WaitInterval,
    };
    pub use hpcqc_workload::{
        ArrivalProcess, JobClass, JobSpec, Pattern, Phase, Workload, WorkloadError,
    };
}
