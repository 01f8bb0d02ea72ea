//! EASY backfilling.

use super::{easy_admit, easy_held};
use crate::demand::{Demand, Profile};
use crate::policy::{sort_multifactor, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::PendingJob;

/// EASY backfilling, the default on most production systems: the first
/// job that cannot start (the head) gets a reservation at its earliest
/// feasible start — the *shadow time* — and later jobs may start now only
/// if they do not delay that reservation.
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
///     .partition("classical", 10)
///     .build(SimTime::ZERO);
/// let mut sched = BatchScheduler::new(PolicySpec::easy());
/// let job = |id: u64, nodes: u32, walltime: u64| PendingJob {
///     id: JobId::new(id),
///     request: AllocRequest::new().group(GroupRequest::nodes("classical", nodes)),
///     walltime: SimDuration::from_secs(walltime),
///     submit: SimTime::from_secs(id),
///     user: "doc".into(),
///     qos_boost: 0.0,
/// };
/// sched.submit(job(0, 6, 100), &cluster)?; // starts now
/// sched.submit(job(1, 6, 1_000), &cluster)?; // blocked head, shadow at t=100
/// sched.submit(job(2, 4, 50), &cluster)?; // fits now, ends before the shadow
/// let ids: Vec<u64> = sched
///     .try_schedule(&mut cluster, SimTime::ZERO)
///     .iter()
///     .map(|s| s.job.raw())
///     .collect();
/// assert_eq!(ids, vec![0, 2], "job 2 backfills around the blocked head");
/// # Ok::<(), hpcqc_sched::SchedError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EasyBackfill {
    head_blocked: bool,
}

impl EasyBackfill {
    /// Creates the policy.
    pub fn new() -> Self {
        EasyBackfill::default()
    }
}

impl QueuePolicy for EasyBackfill {
    fn name(&self) -> &str {
        "easy-backfill"
    }

    fn begin_cycle(&mut self, _ctx: &SchedCtx<'_>) {
        self.head_blocked = false;
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
