//! Strict first-come-first-served.

use crate::demand::{Demand, Profile};
use crate::policy::{sort_multifactor, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::PendingJob;

/// Strict FCFS: the queue (in priority order) starts from the front until
/// the first job that does not fit; everything behind it waits, however
/// small. The paper's worst case for the workflow strategy — every
/// inter-step queue pass pays the full head-of-line wait.
#[derive(Debug, Clone, Default)]
pub struct Fcfs {
    blocked: bool,
}

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl QueuePolicy for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn begin_cycle(&mut self, _ctx: &SchedCtx<'_>) {
        self.blocked = false;
    }

    fn order(&mut self, queue: &mut [PendingJob], ctx: &SchedCtx<'_>) {
        sort_multifactor(queue, ctx);
    }

    fn admit(
        &mut self,
        _job: &PendingJob,
        demand: &Demand,
        _profile: &mut Profile<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        if !self.blocked && ctx.can_start(demand) {
            Verdict::Start
        } else {
            // `hold_reason` reads `policy-hold` exactly when the machine
            // would fit the job — i.e. pure head-of-line blocking.
            Verdict::Hold(ctx.hold_reason(demand))
        }
    }

    fn held(
        &mut self,
        _job: &PendingJob,
        _demand: &Demand,
        _profile: &mut Profile<'_>,
        _ctx: &SchedCtx<'_>,
    ) {
        self.blocked = true;
    }
}
