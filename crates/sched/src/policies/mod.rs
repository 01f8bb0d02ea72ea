//! The built-in queue policies.
//!
//! Five [`QueuePolicy`](crate::policy::QueuePolicy) implementations ship
//! with the scheduler:
//!
//! * [`Fcfs`] — strict first-come-first-served;
//! * [`EasyBackfill`] — EASY backfilling (the production default);
//! * [`ConservativeBackfill`] — conservative backfilling;
//! * [`PriorityBackfill`] — EASY mechanics + hard aging (no starvation);
//! * [`QuantumAware`] — EASY mechanics + idle-QPU boosting.
//!
//! Each is a ~40-line module; a sixth policy is an `impl QueuePolicy`
//! away (see the worked example on [`crate::policy`]) and runs through
//! [`BatchScheduler::custom`](crate::BatchScheduler::custom).

use crate::demand::{Demand, Profile};
use crate::policy::{HoldReason, SchedCtx, Verdict};
use crate::scheduler::PendingJob;
use hpcqc_simcore::time::SimTime;

mod conservative;
mod easy;
mod fcfs;
mod priority;
mod quantum;

pub use conservative::ConservativeBackfill;
pub use easy::EasyBackfill;
pub use fcfs::Fcfs;
pub use priority::PriorityBackfill;
pub use quantum::QuantumAware;

/// Shared EASY-style admission: before the head blocks, anything the
/// live cluster can place starts; afterwards a job may only backfill —
/// start now without delaying the head's reservation already carved into
/// the profile, i.e. fit the profile over its whole walltime from now.
pub(crate) fn easy_admit(
    head_blocked: bool,
    job: &PendingJob,
    demand: &Demand,
    profile: &mut Profile<'_>,
    ctx: &SchedCtx<'_>,
) -> Verdict {
    if ctx.can_start(demand) && (!head_blocked || profile.fits(demand, ctx.now(), job.walltime)) {
        Verdict::Start
    } else {
        // Name the binding cause: a live resource shortage when there is
        // one; otherwise the machine would fit the job right now and only
        // the head's shadow reservation stands in the way.
        Verdict::Hold(match ctx.hold_reason(demand) {
            HoldReason::PolicyHold if head_blocked => HoldReason::HeadShadow,
            reason => reason,
        })
    }
}

/// Shared EASY-style hold handling: the first held job becomes the head;
/// its earliest feasible slot (the "shadow time") is reserved so nothing
/// backfilled later in the cycle can delay it.
pub(crate) fn easy_held(
    head_blocked: &mut bool,
    job: &PendingJob,
    demand: &Demand,
    profile: &mut Profile<'_>,
    ctx: &SchedCtx<'_>,
) {
    if !*head_blocked {
        *head_blocked = true;
        let shadow = profile.find_slot(demand, job.walltime, ctx.now());
        if shadow != SimTime::MAX {
            profile.reserve(demand, shadow, job.walltime);
        }
    }
}
