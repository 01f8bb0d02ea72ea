//! # hpcqc-sched
//!
//! The operational-HPC substrate the paper insists any integration must live
//! within: a SLURM-like batch scheduler with priority queues, heterogeneous
//! (multi-partition) co-allocation, and five queueing disciplines.
//!
//! * [`demand`] — dense resource vectors over the cluster's slots
//!   (resolved once per job at submit) and the free-capacity [`Profile`]
//!   timeline backfill planning runs on;
//! * [`priority`] — multifactor priority (age, size, QoS, decayed
//!   fairshare);
//! * [`policy`] — the closed set of [`Discipline`]s (strict FCFS, EASY
//!   backfill, the production default, conservative backfill, priority
//!   backfill with hard aging, and quantum-aware backfill) and the
//!   serde-able [`PolicySpec`] naming one in scenarios, grids and on the
//!   CLI;
//! * [`probe`] — the [`CycleProbe`] hook that lets harness-layer code
//!   (profilers, tracers) watch each planning cycle's phases without the
//!   scheduler ever reading a clock;
//! * [`scheduler`] — the [`BatchScheduler`] cycle loop, which runs a
//!   [`PolicySpec`] as one `match` on its discipline per step.
//!
//! ## Example: Listing 1 through the scheduler
//!
//! ```
//! use hpcqc_cluster::{AllocRequest, ClusterBuilder, GresKind, GroupRequest};
//! use hpcqc_sched::{BatchScheduler, PendingJob, PolicySpec};
//! use hpcqc_simcore::time::{SimDuration, SimTime};
//! use hpcqc_workload::JobId;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .partition("classical", 10)
//!     .partition_with_gres("quantum", 1, GresKind::qpu(), 1)
//!     .build(SimTime::ZERO);
//! let mut sched = BatchScheduler::new(PolicySpec::easy());
//! sched.submit(PendingJob {
//!     id: JobId::new(0),
//!     request: AllocRequest::new()
//!         .group(GroupRequest::nodes("classical", 10))
//!         .group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
//!     walltime: SimDuration::from_hours(1),
//!     submit: SimTime::ZERO,
//!     user: "alice".into(),
//!     qos_boost: 0.0,
//! }, &cluster)?;
//! let started = sched.try_schedule(&mut cluster, SimTime::ZERO);
//! assert_eq!(started.len(), 1);
//! # Ok::<(), hpcqc_sched::SchedError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod demand;
pub mod policy;
pub mod priority;
pub mod probe;
pub mod scheduler;

pub use demand::{Demand, Profile, MAX_SLOTS};
pub use policy::{
    sort_by_score, Discipline, HoldReason, ParsePolicyError, PolicySpec, ALL_HOLD_REASONS,
    POLICY_FORMS,
};
pub use priority::{PriorityCalculator, PriorityWeights, UserId};
pub use probe::{CycleKind, CyclePhase, CycleProbe, NoProbe};
pub use scheduler::{BatchScheduler, PendingJob, SchedError, StartedJob, MAX_QUEUE_ID_SPAN};
