//! Quantum-aware backfilling: minimize idle-QPU time.

use super::{easy_admit, easy_held};
use crate::demand::{Demand, Profile};
use crate::policy::{sort_by_score, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::PendingJob;
use hpcqc_cluster::gres::GresKind;

/// EASY mechanics plus an idle-QPU boost, after SCIM MILQ (Seitz et al.):
/// whenever at least one QPU gres token sits free, every queued job that
/// *requests* QPU gres gains `idle_boost` priority points. Quantum work
/// jumps ahead of the classical backlog exactly while the expensive
/// device idles — and loses the boost the moment the QPUs are busy, so
/// classical jobs are not starved (the multifactor age term still
/// applies; pair with [`super::PriorityBackfill`]-style aging via
/// [`crate::PolicySpec::with_weights`] for hard guarantees).
///
/// # Examples
///
/// ```
/// use hpcqc_cluster::{AllocRequest, ClusterBuilder, GresKind, GroupRequest};
/// use hpcqc_sched::{BatchScheduler, PendingJob, PolicySpec};
/// use hpcqc_simcore::time::{SimDuration, SimTime};
/// use hpcqc_workload::JobId;
///
/// let mut cluster = ClusterBuilder::new()
///     .partition("classical", 4)
///     .partition_with_gres("quantum", 0, GresKind::qpu(), 1)
///     .build(SimTime::ZERO);
/// let mut sched = BatchScheduler::new(PolicySpec::quantum_aware(1_000.0));
/// // A classical job submitted well before a hybrid one: by age it wins…
/// sched.submit(
///     PendingJob {
///         id: JobId::new(0),
///         request: AllocRequest::new().group(GroupRequest::nodes("classical", 4)),
///         walltime: SimDuration::from_secs(600),
///         submit: SimTime::ZERO,
///         user: "doc".into(),
///         qos_boost: 0.0,
///     },
///     &cluster,
/// )?;
/// sched.submit(
///     PendingJob {
///         id: JobId::new(1),
///         request: AllocRequest::new()
///             .group(GroupRequest::nodes("classical", 4))
///             .group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
///         walltime: SimDuration::from_secs(600),
///         submit: SimTime::from_secs(3_600),
///         user: "doc".into(),
///         qos_boost: 0.0,
///     },
///     &cluster,
/// )?;
/// // …but the QPU is idle, so the hybrid job is boosted to the front.
/// let started = sched.try_schedule(&mut cluster, SimTime::from_secs(3_600));
/// assert_eq!(started[0].job, JobId::new(1), "idle QPU pulls the hybrid job forward");
/// # Ok::<(), hpcqc_sched::SchedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantumAware {
    idle_boost: f64,
    head_blocked: bool,
}

impl QuantumAware {
    /// Creates the policy with the given idle-QPU priority boost.
    pub fn new(idle_boost: f64) -> Self {
        QuantumAware {
            idle_boost,
            head_blocked: false,
        }
    }

    /// The idle-QPU priority boost, points.
    pub fn idle_boost(&self) -> f64 {
        self.idle_boost
    }
}

impl QueuePolicy for QuantumAware {
    fn name(&self) -> &str {
        "quantum-aware"
    }

    fn begin_cycle(&mut self, _ctx: &SchedCtx<'_>) {
        self.head_blocked = false;
    }

    fn order(&mut self, queue: &mut [PendingJob], ctx: &SchedCtx<'_>) {
        let qpu = GresKind::qpu();
        let qpu_idle = ctx.free_gres(&qpu) > 0;
        sort_by_score(queue, |job| {
            if qpu_idle && job.request.total_gres(&qpu) > 0 {
                ctx.priority_of(job) + self.idle_boost
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
