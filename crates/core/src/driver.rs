//! The pluggable strategy-driver API: how integration strategies plug into
//! the simulation core.
//!
//! A [`StrategyDriver`] owns every strategy-specific decision the facility
//! simulator makes — how a job enters the batch queue, whether its QPU
//! tokens are an exclusive physical hold, and what happens around quantum
//! phases — while the event loop itself stays strategy-agnostic. The four
//! paper strategies live in [`crate::drivers`] as ~50-line drivers each;
//! the advisor-driven [`crate::drivers::AdaptiveDriver`] is the proof the
//! API is open: it was added without touching the event loop.
//!
//! Drivers act through a [`SimCtx`] capability handle rather than raw
//! simulator internals: cluster shrink/expand, device-timing estimates,
//! and job, queue and cluster introspection are the *only* levers, so a
//! buggy driver cannot corrupt the simulator's accounting.
//!
//! ## Writing a driver
//!
//! ```
//! use hpcqc_core::driver::{SimCtx, StrategyDriver, SubmissionPlan};
//! use hpcqc_core::{FacilitySim, Scenario};
//! use hpcqc_sched::NoProbe;
//! use hpcqc_workload::job::JobId;
//! use hpcqc_workload::{JobClass, Pattern, Workload};
//! use hpcqc_qpu::Kernel;
//!
//! /// Routes small jobs through workflow steps, large ones co-scheduled.
//! #[derive(Debug)]
//! struct SizeTiered {
//!     node_threshold: u32,
//! }
//!
//! impl StrategyDriver for SizeTiered {
//!     fn name(&self) -> &'static str {
//!         "size-tiered"
//!     }
//!
//!     fn submission_plan(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> SubmissionPlan {
//!         let spec = ctx.spec(job);
//!         if spec.nodes() <= self.node_threshold {
//!             SubmissionPlan::PerStep
//!         } else {
//!             SubmissionPlan::WholeJob {
//!                 hold_qpu: spec.is_hybrid(),
//!             }
//!         }
//!     }
//! }
//!
//! let workload = Workload::builder()
//!     .class(JobClass::new("vqe", Pattern::vqe(3, 60.0, Kernel::sampling(500))))
//!     .count(6)
//!     .generate(11);
//! // A custom driver enters the loop like every other caller, through
//! // the one entry point that takes a driver (no observers, no probe).
//! let outcome = FacilitySim::run_streamed_probed(
//!     &Scenario::builder().build(),
//!     &mut workload.jobs().iter().cloned(),
//!     Box::new(SizeTiered { node_threshold: 4 }),
//!     &mut [],
//!     &mut NoProbe,
//! )?;
//! assert_eq!(outcome.stats.len(), 6);
//! # Ok::<(), hpcqc_core::SimError>(())
//! ```

use crate::sim::{SimError, SimState};
use crate::strategy::Strategy;
use hpcqc_simcore::time::SimTime;
use hpcqc_workload::job::JobId;
use std::fmt;

/// How a driver routes one job into the batch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionPlan {
    /// One submission holding the job's nodes from its first phase to its
    /// last. With `hold_qpu`, the job's QPU gres tokens join the same
    /// allocation (ignored for jobs without quantum phases).
    WholeJob {
        /// Request the job's QPU gres tokens alongside its nodes.
        hold_qpu: bool,
    },
    /// Every phase is submitted as its own batch job when the previous one
    /// completes (the paper's workflow mechanism): classical steps hold
    /// nodes only, quantum steps hold one QPU gres token only.
    PerStep,
}

/// Strategy-specific behaviour, plugged into the strategy-agnostic event
/// loop of [`FacilitySim`](crate::sim::FacilitySim).
///
/// Every hook except [`submission_plan`](StrategyDriver::submission_plan)
/// has a no-op default, so minimal drivers implement two methods. Hooks
/// receive a [`SimCtx`] capability handle; they must be deterministic
/// (derive any randomness from data reachable through the ctx) or
/// simulations stop being replayable.
pub trait StrategyDriver: fmt::Debug {
    /// Short machine-friendly name (report tables, lane labels).
    fn name(&self) -> &'static str;

    /// QPU gres tokens to configure per physical device at cluster-build
    /// time (before any job is seen). Virtual-QPU style drivers return
    /// their token multiplicity; exclusive drivers return 1.
    fn gres_per_device(&self) -> u32 {
        1
    }

    /// Decides how `job` enters the batch queue. Called at first
    /// submission and again on every requeue (walltime kill, node
    /// failure), so stateful drivers should memoize per job if they want
    /// a stable plan.
    fn submission_plan(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> SubmissionPlan;

    /// Whether `job`'s granted QPU gres tokens count as an *exclusive*
    /// physical-device hold in the waste accounting. Shared-access drivers
    /// (virtual QPUs, malleability, mixed tenancy) return `false`; their
    /// device time shows up in per-device utilization instead.
    fn holds_qpu_exclusively(&self, job: JobId) -> bool {
        let _ = job;
        true
    }

    /// A queued submission of `job` just started (resources granted).
    fn on_started(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        let _ = (ctx, job);
        Ok(())
    }

    /// `job` is entering a quantum phase (before its kernel is placed on a
    /// device). Malleable-style drivers shrink the node allocation here.
    fn on_quantum_enter(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        let _ = (ctx, job);
        Ok(())
    }

    /// `job` finished a quantum phase. Malleable-style drivers re-expand
    /// here (best-effort) before the next classical phase.
    fn on_quantum_exit(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        let _ = (ctx, job);
        Ok(())
    }

    /// `job` advanced past any phase (classical or quantum); fires after
    /// [`on_quantum_exit`](StrategyDriver::on_quantum_exit) and before the
    /// next phase (or step submission) begins.
    fn on_phase_advanced(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        let _ = (ctx, job);
        Ok(())
    }

    /// `job`'s in-flight attempt was aborted (walltime kill or node
    /// failure) and its resources released. The job may be resubmitted
    /// afterwards, restarting from phase 0.
    fn on_abort(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        let _ = (ctx, job);
        Ok(())
    }
}

/// Builds the built-in driver for a [`Strategy`].
pub fn driver_for(strategy: &Strategy) -> Box<dyn StrategyDriver> {
    use crate::drivers::*;
    match *strategy {
        Strategy::CoSchedule => Box::new(CoScheduleDriver),
        Strategy::Workflow => Box::new(WorkflowDriver),
        Strategy::Vqpu { vqpus } => Box::new(VqpuDriver::new(vqpus)),
        Strategy::Malleable { min_nodes } => Box::new(MalleableDriver::new(min_nodes)),
        Strategy::Adaptive { vqpus } => Box::new(AdaptiveDriver::new(vqpus)),
    }
}

/// The capability handle a [`StrategyDriver`] acts through.
///
/// Exposes exactly the levers a strategy may pull — job introspection,
/// device-timing estimates, queue and free-node state, and cluster
/// shrink/expand on the job's own allocation — and nothing else. All
/// mutations keep the simulator's waste/usage integrals and observer
/// stream consistent.
#[derive(Debug)]
pub struct SimCtx<'a, 'o> {
    pub(crate) state: &'a mut SimState<'o>,
    pub(crate) now: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_for_matches_strategy_names() {
        for strategy in Strategy::extended_set() {
            let driver = driver_for(&strategy);
            assert_eq!(driver.name(), strategy.name());
            assert_eq!(driver.gres_per_device(), strategy.gres_per_device());
        }
    }

    #[test]
    fn submission_plan_shapes() {
        assert_eq!(
            SubmissionPlan::WholeJob { hold_qpu: true },
            SubmissionPlan::WholeJob { hold_qpu: true }
        );
        assert_ne!(
            SubmissionPlan::PerStep,
            SubmissionPlan::WholeJob { hold_qpu: false }
        );
    }
}
