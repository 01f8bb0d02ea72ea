//! Priority-ordered backfilling with hard aging.

use super::{easy_admit, easy_held};
use crate::demand::{Demand, Profile};
use crate::policy::{sort_by_score, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::PendingJob;

/// EASY mechanics driven purely by the multifactor priority, plus *hard
/// aging*: a job queued longer than `escalate_after_hours` escalates past
/// every priority consideration to the front of the queue (oldest
/// escalated job first). Combined with the EASY head reservation this
/// makes starvation impossible — whatever QoS boosts keep arriving, an
/// aged job becomes the head, gets its shadow reservation, and starts no
/// later than the reservation allows.
///
/// Rocco et al. ("Dynamic Solutions for Hybrid Quantum-HPC Resource
/// Allocation") argue such priority/aging disciplines move the hybrid
/// crossover; this policy makes that claim testable.
///
/// # Examples
///
/// ```
/// use hpcqc_cluster::{AllocRequest, ClusterBuilder, GroupRequest};
/// use hpcqc_sched::{BatchScheduler, PendingJob, PolicySpec};
/// use hpcqc_simcore::time::{SimDuration, SimTime};
/// use hpcqc_workload::JobId;
///
/// let mut cluster = ClusterBuilder::new()
///     .partition("classical", 4)
///     .build(SimTime::ZERO);
/// // Escalate after one hour in queue.
/// let mut sched = BatchScheduler::new(PolicySpec::priority_backfill(1.0));
/// let job = |id: u64, submit: u64, qos: f64| PendingJob {
///     id: JobId::new(id),
///     request: AllocRequest::new().group(GroupRequest::nodes("classical", 4)),
///     walltime: SimDuration::from_secs(600),
///     submit: SimTime::from_secs(submit),
///     user: "doc".into(),
///     qos_boost: qos,
/// };
/// sched.submit(job(0, 0, 0.0), &cluster)?; // old, no boost
/// sched.submit(job(1, 3_000, 1_000.0), &cluster)?; // newer, huge boost
/// // At t=3700 job 0 is >1h old: it escalates past the boosted job.
/// let started = sched.try_schedule(&mut cluster, SimTime::from_secs(3_700));
/// assert_eq!(started[0].job, JobId::new(0), "aged job jumps the queue");
/// # Ok::<(), hpcqc_sched::SchedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PriorityBackfill {
    escalate_after_hours: f64,
    head_blocked: bool,
}

impl PriorityBackfill {
    /// Creates the policy with the given aging threshold (hours).
    pub fn new(escalate_after_hours: f64) -> Self {
        PriorityBackfill {
            escalate_after_hours,
            head_blocked: false,
        }
    }

    /// The aging threshold, hours.
    pub fn escalate_after_hours(&self) -> f64 {
        self.escalate_after_hours
    }
}

impl QueuePolicy for PriorityBackfill {
    fn name(&self) -> &str {
        "priority-backfill"
    }

    fn begin_cycle(&mut self, _ctx: &SchedCtx<'_>) {
        self.head_blocked = false;
    }

    fn order(&mut self, queue: &mut [PendingJob], ctx: &SchedCtx<'_>) {
        // Escalated jobs score +∞, sorting above every finite priority;
        // ties among the escalated fall to `sort_by_score`'s submit-time
        // tiebreak — i.e. oldest escalated job first.
        let threshold = self.escalate_after_hours;
        sort_by_score(queue, |job| {
            let age_hours = ctx.now().saturating_since(job.submit).as_secs_f64() / 3_600.0;
            if age_hours >= threshold {
                f64::INFINITY
            } else {
                ctx.priority_of(job)
            }
        });
    }

    fn admit(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        easy_admit(self.head_blocked, job, demand, profile, ctx)
    }

    fn held(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile<'_>,
        ctx: &SchedCtx<'_>,
    ) {
        easy_held(&mut self.head_blocked, job, demand, profile, ctx);
    }
}
