//! The malleability strategy (paper Fig. 4) as a driver.

use crate::driver::{SimCtx, StrategyDriver, SubmissionPlan};
use crate::sim::SimError;
use hpcqc_workload::job::JobId;

/// Malleability: the job holds only nodes (quantum work goes through the
/// shared device queue). Entering a quantum phase it shrinks to
/// `min_nodes`; afterwards it re-expands *best-effort* — if the machine
/// is busy it continues on fewer nodes with the classical phase
/// stretched by the linear-speedup factor.
#[derive(Debug, Clone, Copy)]
pub struct MalleableDriver {
    min_nodes: u32,
}

impl MalleableDriver {
    /// Creates a driver retaining `min_nodes` nodes through quantum
    /// phases (≥ 1 keeps rank 0 alive).
    pub fn new(min_nodes: u32) -> Self {
        MalleableDriver { min_nodes }
    }
}

impl StrategyDriver for MalleableDriver {
    fn name(&self) -> &'static str {
        "malleable"
    }

    fn submission_plan(&mut self, _ctx: &mut SimCtx<'_, '_>, _job: JobId) -> SubmissionPlan {
        SubmissionPlan::WholeJob { hold_qpu: false }
    }

    fn holds_qpu_exclusively(&self, _job: JobId) -> bool {
        false
    }

    fn on_quantum_enter(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        shrink_for_quantum(ctx, job, self.min_nodes)
    }

    fn on_quantum_exit(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        expand_after_quantum(ctx, job)
    }
}

/// Gives back everything above `min_nodes` (clamped to the job's own
/// size) before quantum work starts. Shared with
/// [`AdaptiveDriver`](crate::drivers::AdaptiveDriver) for jobs it routes
/// to malleability.
pub(crate) fn shrink_for_quantum(
    ctx: &mut SimCtx<'_, '_>,
    job: JobId,
    min_nodes: u32,
) -> Result<(), SimError> {
    let target = min_nodes.min(ctx.spec(job).nodes()).max(1);
    ctx.shrink_to(job, target)?;
    Ok(())
}

/// Best-effort re-expansion toward the job's full size before its next
/// classical phase; shortfall is absorbed by stretching, never by
/// waiting.
pub(crate) fn expand_after_quantum(ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
    let target = ctx.spec(job).nodes();
    if ctx.next_phase_is_classical(job) && ctx.held_nodes(job) < target {
        ctx.expand_toward(job, target)?;
    }
    Ok(())
}
