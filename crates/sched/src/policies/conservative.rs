//! Conservative backfilling.

use crate::demand::{Demand, Profile};
use crate::policy::{sort_multifactor, HoldReason, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::PendingJob;

/// Conservative backfilling: *every* job that cannot start now reserves
/// its earliest feasible slot, so a later job may jump ahead only if it
/// delays nobody. Stronger guarantees than EASY, at the cost of a profile
/// that grows with queue depth (perfbench's
/// `kernel.sched.cycle_us.conservative` measures it).
#[derive(Debug, Clone, Default)]
pub struct ConservativeBackfill;

impl ConservativeBackfill {
    /// Creates the policy.
    pub fn new() -> Self {
        ConservativeBackfill
    }
}

impl QueuePolicy for ConservativeBackfill {
    fn name(&self) -> &str {
        "conservative-backfill"
    }

    fn order(&mut self, queue: &mut [PendingJob], ctx: &SchedCtx<'_>) {
        sort_multifactor(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        let slot = profile.find_slot(demand, job.walltime, ctx.now());
        if slot > ctx.now() {
            // Reserve its future slot so later jobs cannot delay it.
            profile.reserve(demand, slot, job.walltime);
            // Fits the live machine but not the reservation timeline →
            // an earlier job's reservation is what the job waits on.
            Verdict::Hold(match ctx.hold_reason(demand) {
                HoldReason::PolicyHold => HoldReason::HeadShadow,
                reason => reason,
            })
        } else if ctx.can_start(demand) {
            Verdict::Start
        } else {
            Verdict::Hold(ctx.hold_reason(demand))
        }
    }
}
