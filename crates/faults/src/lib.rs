//! # hpcqc-faults — dependability subsystem
//!
//! Fault-injection plans and recovery policies for the hybrid HPC–QC
//! facility simulation.
//!
//! A [`FaultPlan`] is a serde-able description of *what goes wrong*:
//!
//! - **Node faults** ([`NodeFaults`]): classical compute nodes fail with a
//!   given MTBF and come back after a repair distribution.
//! - **Device faults** ([`DeviceFaults`]): per-QPU fault processes. Devices
//!   go down (MTBF/repair), accumulate **calibration drift** with every
//!   executed shot ([`DriftModel`]) until an unscheduled recalibration
//!   forces downtime, and corrupt kernel executions at a transient
//!   per-kernel error rate.
//!
//! A [`RecoverySpec`] describes *what the facility does about it*:
//!
//! - capped kernel **retry** with deterministic backoff,
//! - cross-device **failover** mid-execution through the fleet router,
//! - bounded job **requeues** after node failures, and
//! - **checkpoint-restart** for classical phases ([`CheckpointSpec`]):
//!   periodic checkpoints cost wall time, but a node failure rewinds to
//!   the last checkpoint instead of restarting the phase from zero.
//!
//! The crate is deliberately *passive*: it defines the vocabulary and its
//! validation, while `hpcqc-core`'s simulator interprets it. All fault
//! sampling in the simulator uses dedicated forked RNG streams, so a run
//! with no `FaultPlan` (or an inert one) is byte-identical to a run built
//! before this crate existed.
//!
//! # Examples
//!
//! ```
//! use hpcqc_faults::{DeviceFaults, DriftModel, FaultPlan, RecoverySpec};
//! use hpcqc_simcore::dist::Dist;
//!
//! let plan = FaultPlan::named("drift-heavy")
//!     .device(
//!         DeviceFaults::new()
//!             .mtbf(Dist::exponential(4.0 * 3600.0))
//!             .repair(Dist::constant(600.0))
//!             .drift(DriftModel::new(1e-5, 0.5))
//!             .kernel_error_rate(0.02),
//!     )
//!     .recovery(RecoverySpec::new().max_kernel_retries(3).failover(true));
//! plan.validate().unwrap();
//! assert!(!plan.is_inert());
//! let json = serde_json::to_string(&plan).unwrap();
//! let back: FaultPlan = serde_json::from_str(&json).unwrap();
//! assert_eq!(plan, back);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod plan;
pub mod recovery;

pub use plan::{DeviceFaults, DriftModel, FaultPlan, NodeFaults};
pub use recovery::{CheckpointSpec, RecoverySpec};
