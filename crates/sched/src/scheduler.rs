//! The batch scheduler: queue, start decisions, and the scheduling cycle.
//!
//! [`BatchScheduler`] owns the pending queue and decides, on every
//! scheduling cycle, which jobs start now. How is the [`Discipline`] of its
//! [`PolicySpec`], one of a closed set of five: strict FCFS, EASY
//! backfill, conservative backfill, priority backfill with aging, and
//! quantum-aware backfill. The cycle runs it as three `match`es on the
//! discipline (order, admit, held), so the compiler checks that every step
//! covers every discipline.
//!
//! The distinction matters to the paper's Fig. 2: the *workflow* strategy
//! pays one queue wait per step, and that wait depends directly on the
//! queue policy in force.

use crate::demand::{Demand, Profile, Releases};
use crate::policy::{Discipline, HoldReason, PolicySpec};
use crate::priority::{PriorityCalculator, UserId};
use crate::probe::{CyclePhase, CycleProbe, NoProbe};
use hpcqc_cluster::alloc::AllocRequest;
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::error::ClusterError;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::AllocationId;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_simcore::{IdMap, IdWindow};
use hpcqc_workload::job::JobId;
use std::error::Error;
use std::fmt;

/// Why the scheduler rejected a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The request can never run on the machine: it asks for nothing,
    /// names a resource the machine lacks, or exceeds its total capacity.
    ImpossibleRequest {
        /// The offending job.
        job: JobId,
        /// Human-readable shortfall description.
        reason: String,
    },
    /// A job with this id is already queued.
    DuplicateJob {
        /// The offending job.
        job: JobId,
    },
    /// Walltime must be positive.
    ZeroWalltime {
        /// The offending job.
        job: JobId,
    },
    /// The id lies so far from the queued ids that the queue's id table
    /// would span more than [`MAX_QUEUE_ID_SPAN`] ids (see
    /// [`BatchScheduler`]'s memory model).
    IdSpanExceeded {
        /// The offending job.
        job: JobId,
        /// The ids the table would span with it, saturating at
        /// `u64::MAX`.
        span: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ImpossibleRequest { job, reason } => {
                write!(f, "{job} can never be satisfied: {reason}")
            }
            SchedError::ZeroWalltime { job } => write!(f, "{job} has zero walltime"),
            SchedError::DuplicateJob { job } => write!(f, "{job} is already queued"),
            SchedError::IdSpanExceeded { job, span } => write!(
                f,
                "{job} would stretch the queue's id table to {span} ids \
                 (limit {MAX_QUEUE_ID_SPAN}): queue ids must stay close together"
            ),
        }
    }
}

impl Error for SchedError {}

/// A job waiting in the scheduler queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The job's id.
    pub id: JobId,
    /// The resources it needs (heterogeneous-group shape).
    pub request: AllocRequest,
    /// Requested walltime — the scheduler's planning horizon for the job.
    pub walltime: SimDuration,
    /// When it entered the queue.
    pub submit: SimTime,
    /// Accounting user.
    pub user: String,
    /// Additive QoS priority boost.
    pub qos_boost: f64,
}

/// A start decision from one scheduling cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedJob {
    /// The job that started.
    pub job: JobId,
    /// The allocation backing it.
    pub alloc: AllocationId,
}

/// The most ids the queue's id table may span, from the oldest queued id
/// to the newest: 2^24 slots, 128 MiB of pointers at most.
pub const MAX_QUEUE_ID_SPAN: u64 = 1 << 24;

/// The per-job table of queued entries: an [`IdWindow`] keyed by
/// [`JobId::raw`], so a lookup is a subtraction, not a tree search.
type QueuedTable = IdWindow<Queued>;

/// A queued job's submit-time entry: everything a cycle reads per job
/// besides the [`PendingJob`] itself, resolved once at submit. Entries
/// live in a [`QueuedTable`]; each costs one boxed value plus one slot.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// The job's footprint per resource slot.
    demand: Demand,
    /// The job's interned fairshare user.
    user: UserId,
    /// The job's total node count (the priority's size term).
    nodes: u32,
    /// The hold reason last reported through
    /// [`BatchScheduler::hold_changes`], if any.
    reported: Option<HoldReason>,
}

/// The multifactor priority of `job` at `now`: from its submit-time entry
/// when it is queued, else (a hypothetical job) from its own fields.
fn job_priority(
    priority: &PriorityCalculator,
    queued: &QueuedTable,
    job: &PendingJob,
    now: SimTime,
) -> f64 {
    match queued.get(job.id.raw()) {
        Some(q) => priority.priority_by_id(job.submit, q.nodes, q.user, job.qos_boost, now),
        None => priority.priority(
            job.submit,
            job.request.total_nodes(),
            &job.user,
            job.qos_boost,
            now,
        ),
    }
}

/// A queued job's sort key for one cycle, packed so that ascending keys
/// are the policy's order: the score's [`f64::total_cmp`] bits reversed
/// (highest score first), then submit time, then id. This is the order
/// [`sort_by_score`](crate::policy::sort_by_score) sorts by, compared as
/// integers.
type OrderKey = (u64, u64, u64);

/// Packs `score` and `job`'s tiebreaks into an [`OrderKey`].
fn order_key(score: f64, job: &PendingJob) -> OrderKey {
    let bits = score.to_bits();
    // `total_cmp`'s order as unsigned integers: negatives reversed below
    // the sign bit, non-negatives above it.
    let total = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (!total, job.submit.as_nanos(), job.id.raw())
}

/// The order `match`'s adjustment of the multifactor priority, read once
/// per cycle.
#[derive(Debug)]
enum Scoring {
    /// The multifactor priority as it is.
    Plain,
    /// Priority backfill: a job queued at least this many hours scores
    /// +∞, above every finite priority; ties among such jobs fall to the
    /// submit-time tiebreak, oldest first.
    Escalate(f64),
    /// Quantum-aware while a QPU is idle: a job asking for `qpu` gres
    /// gains `boost` points.
    Boost { qpu: GresKind, boost: f64 },
}

impl Scoring {
    /// The order `match`: what `discipline` adds to the multifactor
    /// priority on `cluster` as it stands.
    fn of(discipline: Discipline, cluster: &Cluster) -> Self {
        match discipline {
            Discipline::Fcfs | Discipline::EasyBackfill | Discipline::ConservativeBackfill => {
                Scoring::Plain
            }
            Discipline::PriorityBackfill {
                escalate_after_hours,
            } => Scoring::Escalate(escalate_after_hours),
            Discipline::QuantumAware { idle_boost } => {
                let qpu = GresKind::qpu();
                let qpu_idle = cluster
                    .partitions()
                    .iter()
                    .flat_map(|p| p.gres_pools())
                    .any(|pool| pool.kind() == &qpu && pool.available() > 0);
                if qpu_idle {
                    Scoring::Boost {
                        qpu,
                        boost: idle_boost,
                    }
                } else {
                    Scoring::Plain
                }
            }
        }
    }

    /// Quantum-aware's idle-QPU flag; `false` under every other
    /// discipline.
    fn boosts(&self) -> bool {
        matches!(self, Scoring::Boost { .. })
    }
}

/// How a cycle left the scheduler and the cluster: what the next cycle
/// needs to prove that only the clock moved since (see
/// [`BatchScheduler::try_schedule_probed`]'s fast paths).
#[derive(Debug, Clone, Copy)]
struct CycleEnd {
    /// The cycle's instant.
    now: SimTime,
    /// The cluster's [`version`](Cluster::version) when the cycle ended.
    version: u64,
    /// The cycle's final live free vector.
    free: Demand,
    /// The cycle's [`Scoring::boosts`] flag, read before any start.
    qpu_boost: bool,
    /// Whether some held job's demand fitted `free`; meaningful only for
    /// a cycle that started nothing.
    any_fits: bool,
}

#[derive(Debug, Clone)]
struct Running {
    job: JobId,
    user: UserId,
    demand: Demand,
    expected_end: SimTime,
    node_count: u32,
    started: SimTime,
}

impl Releases for IdMap<AllocationId, Running> {
    fn releases(&self) -> Box<dyn Iterator<Item = (SimTime, &Demand)> + '_> {
        Box::new(self.values().map(|r| (r.expected_end, &r.demand)))
    }
}

/// The batch scheduler.
///
/// Drive it with [`submit`](BatchScheduler::submit) /
/// [`finished`](BatchScheduler::finished) /
/// [`try_schedule`](BatchScheduler::try_schedule); the caller owns the
/// simulation clock and the [`Cluster`]. The queueing discipline is the
/// [`PolicySpec`] given to [`BatchScheduler::new`].
///
/// # Memory model
///
/// Each queued job's submit-time entry sits in a table indexed by
/// `id − oldest queued id`. A simulation issues queue ids from a counter
/// and starts jobs roughly oldest first, so the table holds one pointer
/// per id from the oldest queued id to the newest, and nothing once the
/// queue drains. Ids may arrive in any order, but a submit that would
/// stretch the table past [`MAX_QUEUE_ID_SPAN`] ids is rejected with
/// [`SchedError::IdSpanExceeded`]; an empty queue accepts any id.
#[derive(Debug)]
pub struct BatchScheduler {
    spec: PolicySpec,
    priority: PriorityCalculator,
    pending: Vec<PendingJob>,
    /// Each queued job's submit-time entry, by [`JobId::raw`].
    queued: QueuedTable,
    running: IdMap<AllocationId, Running>,
    /// The jobs a cycle starts, moved into `running` when it ends: the
    /// cycle's deferred profile borrows `running` until then.
    starting: Vec<(AllocationId, Running)>,
    total_started: u64,
    total_finished: u64,
    last_holds: Vec<(JobId, HoldReason)>,
    /// The entries of `last_holds` whose reason differs from the one last
    /// reported for that job (see [`BatchScheduler::hold_changes`]).
    hold_changes: Vec<(JobId, HoldReason)>,
    /// The cluster's [`version`](Cluster::version) and free vector at the
    /// end of the last cycle, if that cycle proved the queue settled
    /// (see [`BatchScheduler::is_settled`]). Cleared by every submit,
    /// cancel and start.
    settled: Option<(u64, Demand)>,
    /// The end of the last cycle, if it started jobs and refused no
    /// allocation: a same-instant follow-up may re-diagnose instead of
    /// re-planning. Cleared by every submit, cancel, finish and cycle.
    follow_up: Option<CycleEnd>,
    /// The end of the last cycle, if it started nothing and refused no
    /// allocation: a clock-only re-run may keep its holds. Cleared like
    /// `follow_up`.
    carried: Option<CycleEnd>,
    /// The full cycle's sort keys, each with its job's queue position;
    /// kept between cycles so that sorting allocates only when the queue
    /// outgrows every earlier one.
    keys: Vec<(OrderKey, usize)>,
}

impl BatchScheduler {
    /// Creates a scheduler running `spec`: its discipline drives every
    /// cycle; its weights and fairshare half-life configure the
    /// [`PriorityCalculator`].
    pub fn new(spec: PolicySpec) -> Self {
        BatchScheduler {
            spec,
            priority: spec.calculator(),
            pending: Vec::new(),
            queued: IdWindow::new(),
            running: IdMap::new(),
            starting: Vec::new(),
            total_started: 0,
            total_finished: 0,
            last_holds: Vec::new(),
            hold_changes: Vec::new(),
            settled: None,
            follow_up: None,
            carried: None,
            keys: Vec::new(),
        }
    }

    /// The policy this scheduler runs.
    pub fn spec(&self) -> PolicySpec {
        self.spec
    }

    /// Jobs currently queued.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Why each job still queued after the last scheduling cycle was held,
    /// in the order the policy considered them. Empty between cycles with
    /// nothing pending. Reading this never affects scheduling decisions.
    ///
    /// While the scheduler [`is_settled`](BatchScheduler::is_settled),
    /// this is also exactly the set of holds a cycle run now would
    /// report, though possibly in a different order. A clock-only re-run
    /// (see [`try_schedule_probed`](BatchScheduler::try_schedule_probed))
    /// leaves the list as it stands, since it proves that the full cycle
    /// would rebuild it entry for entry. The holds whose reason changed
    /// since it was last reported are
    /// [`hold_changes`](BatchScheduler::hold_changes).
    pub fn last_holds(&self) -> &[(JobId, HoldReason)] {
        &self.last_holds
    }

    /// The entries of [`last_holds`](BatchScheduler::last_holds) whose
    /// reason differs from the one last reported for that job (a job
    /// never reported yet always differs), in `last_holds` order.
    ///
    /// The scheduler keeps the reported reason per queued job. Only a
    /// cycle that starts nothing commits it: a caller that re-runs the
    /// cycle after every start, as a simulation loop must, and reads
    /// this after the final, non-starting one sees each reason change
    /// exactly once. A hold diagnosed in a starting cycle is listed again
    /// after the next cycle if it persists, whether that cycle plans in
    /// full or is a same-instant follow-up; a clock-only re-run lists
    /// nothing, since the cycle it repeats committed every reason it
    /// holds. A start or a
    /// [`cancel`](BatchScheduler::cancel) forgets the job's reported
    /// reason, so a resubmitted id is reported afresh.
    pub fn hold_changes(&self) -> &[(JobId, HoldReason)] {
        &self.hold_changes
    }

    /// The queued jobs, in the order the policy last left them (after a
    /// [`try_schedule`](BatchScheduler::try_schedule) this is the
    /// policy's preference order with the started jobs removed).
    pub fn pending(&self) -> &[PendingJob] {
        &self.pending
    }

    /// Jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Total jobs ever started.
    pub fn total_started(&self) -> u64 {
        self.total_started
    }

    /// The multifactor priority of a queued (or hypothetical) job at
    /// `now`, under this scheduler's weights and fairshare state.
    pub fn priority_of(&self, job: &PendingJob, now: SimTime) -> f64 {
        job_priority(&self.priority, &self.queued, job, now)
    }

    /// The free-capacity timeline a scheduling cycle at `now` would plan
    /// against: current free capacity plus the expected releases of every
    /// running job, before any reservations. Useful for asserting
    /// backfill invariants from the outside (see
    /// `crates/sched/tests/proptest_sched.rs`).
    pub fn availability_profile(&self, cluster: &Cluster, now: SimTime) -> Profile<'static> {
        Profile::build_from(now, Demand::free_of(cluster), &self.running)
    }

    /// Enqueues a job, resolving its request against `cluster` — the
    /// machine every later cycle must plan on.
    ///
    /// # Errors
    ///
    /// [`SchedError::ImpossibleRequest`] if the request can never start
    /// (see [`Demand::resolve`]) or exceeds the machine's total capacity:
    /// it would block the queue forever; [`SchedError::ZeroWalltime`] for
    /// a zero walltime; [`SchedError::DuplicateJob`] if a job with the
    /// same id is already queued; [`SchedError::IdSpanExceeded`] if the
    /// id lies too far from the queued ones (see the memory model on
    /// [`BatchScheduler`]).
    pub fn submit(&mut self, job: PendingJob, cluster: &Cluster) -> Result<(), SchedError> {
        if job.walltime.is_zero() {
            return Err(SchedError::ZeroWalltime { job: job.id });
        }
        let id = job.id.raw();
        if self.queued.get(id).is_some() {
            return Err(SchedError::DuplicateJob { job: job.id });
        }
        // The front slot of a non-empty window is its oldest live id.
        if let Some((oldest, _)) = self.queued.iter().next() {
            let newest = oldest + self.queued.slots() as u64 - 1;
            let span = (id.max(newest) - id.min(oldest)).saturating_add(1);
            if span > MAX_QUEUE_ID_SPAN {
                return Err(SchedError::IdSpanExceeded { job: job.id, span });
            }
        }
        let impossible = |reason| SchedError::ImpossibleRequest {
            job: job.id,
            reason,
        };
        let demand = Demand::resolve(&job.request, cluster).map_err(impossible)?;
        let capacity = Demand::capacity_of(cluster);
        if let Some(slot) = capacity.first_short(&demand) {
            return Err(impossible(format!(
                "demand exceeds total machine capacity: {} requested {}, total {}",
                cluster.slot_label(slot),
                demand.get(slot),
                capacity.get(slot)
            )));
        }
        let entry = Queued {
            demand,
            user: self.priority.intern(&job.user),
            nodes: job.request.total_nodes(),
            reported: None,
        };
        self.queued.insert(id, entry);
        self.pending.push(job);
        self.forget_last_cycle();
        Ok(())
    }

    /// Removes a queued job, and its entries in
    /// [`last_holds`](BatchScheduler::last_holds) and
    /// [`hold_changes`](BatchScheduler::hold_changes). Returns `true` if it
    /// was still pending.
    pub fn cancel(&mut self, job: JobId) -> bool {
        self.pending.retain(|p| p.id != job);
        self.last_holds.retain(|&(id, _)| id != job);
        self.hold_changes.retain(|&(id, _)| id != job);
        self.forget_last_cycle();
        self.queued.remove(job.raw()).is_some()
    }

    /// `true` if a scheduling cycle run now on `cluster` would start
    /// nothing and report the same holds as
    /// [`last_holds`](BatchScheduler::last_holds), so the caller may skip
    /// it. It holds when the last cycle started nothing and found no
    /// queued demand covered by the free vector; when no job was
    /// submitted, cancelled or started since; and when `cluster`'s free
    /// vector equals that cycle's.
    ///
    /// Why skipping is exact: no queued demand fits the live free vector
    /// `F`, and the cycle changes `F` only at a start. Every arm of the
    /// cycle's admit `match` starts a job only if `F` covers its demand:
    ///
    /// * FCFS and the EASY arm (EASY, priority backfill, quantum-aware)
    ///   test exactly that, the EASY arm with the head's shadow on top;
    /// * conservative backfill either finds its slot after `now` (a hold)
    ///   or tests it too.
    ///
    /// So every job is held, for the binding shortage of `F` against its
    /// demand. The arms relabel only [`HoldReason::PolicyHold`], which
    /// that classification returns only for a demand `F` covers. The
    /// reason is `InsufficientNodes` or `InsufficientGres` and depends
    /// only on `F`, the demand and the cluster's fixed slot layout. The
    /// queued set is unchanged since the settled cycle, so the holds are
    /// the same.
    ///
    /// The skipped cycle would also list nothing in
    /// [`hold_changes`](BatchScheduler::hold_changes): the settled cycle
    /// started nothing, so it committed every reason it held, and the
    /// same holds would find each one already reported.
    ///
    /// Time alone only reorders the queue, through what the order `match`
    /// reads: the age term, fairshare decay in
    /// [`PriorityCalculator::usage_of`], priority-backfill escalation and
    /// quantum-aware's idle-QPU boost (a function of free capacity). A
    /// skipped reorder leaves no trace: the next full cycle sorts from
    /// scratch on the total key `(score, submit, id)`, and the held
    /// `match`'s blocked flag lives for one cycle. The three `match`es
    /// are closed over [`Discipline`], so a new discipline does not
    /// compile without an arm in each, and each new arm must keep this
    /// argument.
    ///
    /// The check is O(1) while `cluster` is untouched: a cluster whose
    /// [`version`](Cluster::version) is the settled cycle's has had no
    /// mutating call since, so its free vector is that cycle's; only a
    /// moved version costs the free-vector comparison.
    ///
    /// A caller that runs the cycle anyway gets the same holds in the
    /// order the queue sorts into now. That cycle may take the clock-only
    /// fast path of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed),
    /// whose proof is the stronger one: it keeps every verdict, not only
    /// the starts, so it also needs the queue's order unchanged and no
    /// release due.
    pub fn is_settled(&self, cluster: &Cluster) -> bool {
        match &self.settled {
            Some((version, free)) => {
                *version == cluster.version() || *free == Demand::free_of(cluster)
            }
            None => false,
        }
    }

    /// Notifies the scheduler that the job backing `alloc` finished at
    /// `now` (the caller releases the cluster allocation itself). Charges
    /// fairshare usage. Returns the finished job's id if known.
    pub fn finished(&mut self, alloc: AllocationId, now: SimTime) -> Option<JobId> {
        let running = self.running.remove(&alloc)?;
        // The running set and the fairshare usage change; settledness
        // holds regardless (see `is_settled`), the fast paths do not.
        self.follow_up = None;
        self.carried = None;
        let node_seconds =
            f64::from(running.node_count) * now.saturating_since(running.started).as_secs_f64();
        self.priority
            .record_usage_by_id(running.user, node_seconds, now);
        self.total_finished += 1;
        Some(running.job)
    }

    /// Runs one scheduling cycle at `now`: the policy orders the queue,
    /// then every job it admits (and the live cluster can place) starts.
    /// Returns the started jobs in start order. Deterministic for
    /// identical inputs.
    pub fn try_schedule(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<StartedJob> {
        self.try_schedule_probed(cluster, now, &mut NoProbe)
    }

    /// [`try_schedule`](BatchScheduler::try_schedule) with a [`CycleProbe`]
    /// observing the cycle's internal phases. Scheduling decisions are
    /// byte-identical to the unprobed path — the probe only watches.
    ///
    /// The policy plans against the
    /// [`availability_profile`](BatchScheduler::availability_profile) at
    /// `now`, deferred until it first reads it (see
    /// [Deferred profiles](Profile#deferred-profiles)): a cycle whose
    /// policy never looks at the timeline neither copies the running set
    /// nor builds one.
    ///
    /// # Fast paths
    ///
    /// Two kinds of cycle re-plan nothing, because only the clock moved
    /// since the last one. Both need that no submit, cancel or
    /// [`finished`](BatchScheduler::finished) came in between, that the
    /// last cycle refused no allocation, and that `cluster`'s version, or
    /// else its free vector, is the one the last cycle left. Then:
    ///
    /// 1. a *same-instant follow-up*, a cycle at the instant of a cycle
    ///    that started jobs, re-diagnoses the held jobs in one pass (see
    ///    `follow_up_holds`); under quantum-aware the idle-QPU flag must
    ///    be the one that cycle's order read, and under conservative no
    ///    running job's expected end may lie at or before `now`;
    /// 2. a *clock-only re-run*, a cycle at or after a cycle that started
    ///    nothing, keeps that cycle's holds (see `carry_holds`), if no
    ///    running job's expected end lies at or before `now` and the
    ///    queue scored at `now` is still in that cycle's order (checked in
    ///    one pass, no sort).
    ///
    /// Each proves its verdicts equal to the full cycle's, and reports
    /// to `probe` as one cycle with one [`CyclePhase::Admit`] per queued
    /// job and no [`CyclePhase::Order`].
    pub fn try_schedule_probed(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        probe: &mut dyn CycleProbe,
    ) -> Vec<StartedJob> {
        self.settled = None;
        if self.pending.is_empty() {
            // Any fast-path state may stay: only a submit, which clears
            // it, refills the queue.
            self.last_holds.clear();
            self.hold_changes.clear();
            return Vec::new();
        }
        self.cycle(cluster, now, probe)
    }

    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed) on a
    /// non-empty queue. A simulation loop runs a cycle after every event,
    /// most often on an empty queue: kept out of line, this body's stack
    /// frame stays off that early return (perfbench `qpu-stream` runs
    /// ~147 events per job and was ~1% slower with the body inline).
    #[inline(never)]
    fn cycle(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        probe: &mut dyn CycleProbe,
    ) -> Vec<StartedJob> {
        let follow_up = self.follow_up.take();
        let carried = self.carried.take();
        self.keys.clear();
        let depth = self.pending.len();
        probe.cycle_start(now, depth);
        let scoring = Scoring::of(self.spec.discipline, cluster);
        // Conservative slots read releases due by now; the other arms'
        // follow-ups do not (see `follow_up_holds`).
        let slots_read_due = match self.spec.discipline {
            Discipline::ConservativeBackfill => true,
            Discipline::Fcfs
            | Discipline::EasyBackfill
            | Discipline::PriorityBackfill { .. }
            | Discipline::QuantumAware { .. } => false,
        };
        if let Some(end) = follow_up.filter(|end| {
            end.now == now
                && end.qpu_boost == scoring.boosts()
                && self.unchanged(end, cluster)
                && !(slots_read_due && self.release_due(now))
        }) {
            let any_fits = self.follow_up_holds(cluster, &end.free, probe);
            self.end_idle(cluster, CycleEnd { any_fits, ..end }, true);
            probe.cycle_end(0, self.pending.len());
            return Vec::new();
        }
        if let Some(end) = carried.filter(|end| {
            end.now <= now
                && self.unchanged(end, cluster)
                && !self.release_due(now)
                && self.in_order(&scoring, now)
        }) {
            self.carry_holds(probe);
            let end = CycleEnd {
                now,
                qpu_boost: scoring.boosts(),
                ..end
            };
            self.end_idle(cluster, end, true);
            probe.cycle_end(0, depth);
            return Vec::new();
        }

        self.last_holds.clear();
        self.hold_changes.clear();
        probe.phase_start(CyclePhase::Order);
        self.order(&scoring, now);
        probe.phase_end(CyclePhase::Order);
        // The live free vector: the cluster's free capacity, less what
        // each start of this cycle allocates.
        let mut free = Demand::free_of(cluster);
        let mut profile = Profile::deferred(now, free, &self.running);
        let discipline = self.spec.discipline;
        // FCFS: a job was held, so every later one waits. The EASY arm:
        // the head was held and its shadow reserved.
        let mut blocked = false;

        let mut started = Vec::new();
        // Whether some queued demand fitted the free vector at its admit.
        let mut any_fits = false;
        // Whether the live cluster refused an admitted start.
        let mut refused = false;
        // Held jobs are compacted to the front of `pending`, in order.
        let mut kept = 0;
        for i in 0..depth {
            let job = &self.pending[i];
            // Every queued job got its entry at submit, and only a start
            // or a cancel removes it together with the job.
            let Some(&entry) = self.queued.get(job.id.raw()) else {
                continue;
            };
            let demand = entry.demand;
            any_fits = any_fits || free.covers(&demand);
            probe.phase_start(CyclePhase::Admit);
            let admitted = admit(discipline, blocked, job, &demand, &mut profile, &free, now);
            probe.phase_end(CyclePhase::Admit);
            let reason = match admitted {
                Admit::Start => {
                    probe.phase_start(CyclePhase::Allocate);
                    let granted = cluster.allocate(&job.request, now);
                    probe.phase_end(CyclePhase::Allocate);
                    match granted {
                        Ok(alloc) => {
                            free.subtract(&demand);
                            self.queued.remove(job.id.raw());
                            profile.reserve(&demand, now, job.walltime);
                            self.starting.push((
                                alloc,
                                Running {
                                    job: job.id,
                                    user: entry.user,
                                    demand,
                                    expected_end: now + job.walltime,
                                    node_count: entry.nodes,
                                    started: now,
                                },
                            ));
                            self.total_started += 1;
                            started.push(StartedJob { job: job.id, alloc });
                            continue;
                        }
                        // Profile said yes but the live cluster disagrees
                        // (e.g. failed nodes): treat as held, blaming the
                        // concrete shortage the allocator reported.
                        Err(err) => {
                            refused = true;
                            Self::classify(&err)
                        }
                    }
                }
                Admit::Hold => shortage(cluster, &free, &demand),
                // The machine may fit the job: then only a protected
                // reservation stands in the way.
                Admit::Reserved => match shortage(cluster, &free, &demand) {
                    HoldReason::PolicyHold => HoldReason::HeadShadow,
                    reason => reason,
                },
            };
            self.last_holds.push((job.id, reason));
            if entry.reported != Some(reason) {
                self.hold_changes.push((job.id, reason));
            }
            held(discipline, &mut blocked, job, &demand, &mut profile, now);
            self.pending.swap(kept, i);
            kept += 1;
        }
        self.pending.truncate(kept);
        self.running.extend(self.starting.drain(..));
        let end = CycleEnd {
            now,
            version: cluster.version(),
            free,
            qpu_boost: scoring.boosts(),
            any_fits,
        };
        if started.is_empty() {
            self.end_idle(cluster, end, !refused);
        } else if !refused {
            self.follow_up = Some(end);
        }
        probe.cycle_end(started.len(), self.pending.len());
        started
    }

    /// Clears what the last cycle proved: a submit or a cancel may change
    /// any verdict.
    fn forget_last_cycle(&mut self) {
        self.settled = None;
        self.follow_up = None;
        self.carried = None;
    }

    /// Closes a cycle that started nothing and ended as `end`: commits
    /// the reasons it reported (see `hold_changes`), marks the queue
    /// settled if no held demand fits the free vector (see `is_settled`),
    /// and, with `carry`, keeps `end` for a clock-only re-run.
    fn end_idle(&mut self, cluster: &Cluster, end: CycleEnd, carry: bool) {
        for &(id, reason) in &self.hold_changes {
            if let Some(entry) = self.queued.get_mut(id.raw()) {
                entry.reported = Some(reason);
            }
        }
        if !end.any_fits {
            self.settled = Some((cluster.version(), end.free));
        }
        if carry {
            self.carried = Some(CycleEnd {
                version: cluster.version(),
                ..end
            });
        }
    }

    /// Whether `cluster` is as the cycle that ended as `end` left it: its
    /// version is that cycle's, or else its free vector is (as in
    /// [`is_settled`](BatchScheduler::is_settled)).
    fn unchanged(&self, end: &CycleEnd, cluster: &Cluster) -> bool {
        end.version == cluster.version() || end.free == Demand::free_of(cluster)
    }

    /// Whether a running job's expected end lies at or before `now`. If
    /// none does, the availability profile at `now` reads the live free
    /// vector until its first release, which lies after `now`.
    fn release_due(&self, now: SimTime) -> bool {
        self.running.values().any(|r| r.expected_end <= now)
    }

    /// The order `match`'s sort key of `job` at `now` under `scoring`.
    fn key_of(&self, scoring: &Scoring, job: &PendingJob, now: SimTime) -> OrderKey {
        let multifactor = || job_priority(&self.priority, &self.queued, job, now);
        let score = match scoring {
            Scoring::Plain => multifactor(),
            Scoring::Escalate(escalate_after_hours) => {
                let age_hours = now.saturating_since(job.submit).as_secs_f64() / 3_600.0;
                if age_hours >= *escalate_after_hours {
                    f64::INFINITY
                } else {
                    multifactor()
                }
            }
            Scoring::Boost { qpu, boost } => {
                if job.request.total_gres(qpu) > 0 {
                    multifactor() + boost
                } else {
                    multifactor()
                }
            }
        };
        order_key(score, job)
    }

    /// Scores the queue at `now` into `keys`, in queue order, until a key
    /// does not rise above the one before it. `true` if none fell: the
    /// queue is in the order a full cycle would sort it into, since the
    /// keys are a total order. The keys scored so far stay for
    /// [`order`](Self::order) to finish.
    fn in_order(&mut self, scoring: &Scoring, now: SimTime) -> bool {
        if self.pending.len() < 2 {
            return true;
        }
        for (i, job) in self.pending.iter().enumerate() {
            let key = self.key_of(scoring, job, now);
            let rises = self.keys.last().is_none_or(|&(last, _)| last < key);
            self.keys.push((key, i));
            if !rises {
                return false;
            }
        }
        true
    }

    /// Sorts the queue for this cycle, most preferred first, on each
    /// job's [`OrderKey`] at `now`. The queue arrives in the last cycle's
    /// order with new submissions behind, nearly sorted, so the stable
    /// adaptive sort runs in about one pass; the jobs are then permuted
    /// in place. A queue of 0 or 1 jobs is left alone.
    fn order(&mut self, scoring: &Scoring, now: SimTime) {
        let depth = self.pending.len();
        if depth < 2 {
            return;
        }
        // `in_order` may have scored a prefix already.
        for i in self.keys.len()..depth {
            let key = self.key_of(scoring, &self.pending[i], now);
            self.keys.push((key, i));
        }
        self.keys.sort();
        // `keys[k].1` is the position of the job that belongs at `k`.
        // Follow each cycle of the permutation, swapping its jobs into
        // place and marking each placed position with its own index.
        for first in 0..depth {
            let mut at = first;
            loop {
                let from = std::mem::replace(&mut self.keys[at].1, at);
                if from == first {
                    break;
                }
                self.pending.swap(at, from);
                at = from;
            }
        }
    }

    /// The same-instant follow-up (fast path 1 of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)):
    /// holds every queued job, in queue order, for the binding shortage
    /// of `free` against its demand, with [`HoldReason::PolicyHold`]
    /// relabelled [`HoldReason::HeadShadow`] under every discipline but
    /// FCFS. Returns whether some demand fits `free`.
    ///
    /// `free` is the final free vector `F` of the last cycle `C`, which
    /// ran at this instant and started the jobs `S`; the queue is the
    /// jobs `H` it held, in its order. The caller has checked that
    /// nothing moved since (see `unchanged`), that the idle-QPU flag is
    /// `C`'s, and, under conservative, that no release is due (see
    /// `release_due`).
    ///
    /// Why this is the full cycle's verdict. The order `match` scores a
    /// job from `now`, its submit-time entry, fairshare usage (charged
    /// only by `finished`) and the idle-QPU flag: all as in `C`. The key
    /// is a total order, so `H`, a subsequence of `C`'s sorted queue,
    /// sorts to itself. Next, nothing starts; by the admit `match`'s arm:
    ///
    /// * FCFS: `C` started nothing after its first hold, so its free
    ///   vector there was `F`, short of that job; the full cycle holds
    ///   it first and blocks.
    /// * The EASY arm: `C`'s first hold is its head, which `C`'s free
    ///   vector, covering `F`, did not cover; so `F` does not, and the
    ///   head is first and held again. The full cycle's profile `P` is
    ///   the deferred fold of `S` over `C`'s (see
    ///   [Deferred profiles](Profile#deferred-profiles)): `C`'s profile
    ///   when it reserved the shadow, less `S`'s later starts. So the
    ///   head fits `P` no earlier than `C`'s shadow; and it fits there,
    ///   because `C` admitted each later start only where it fitted
    ///   around the shadow, so `P` less the shadow is nowhere negative.
    ///   `C`'s shadow is one of `P`'s breakpoints, so `find_slot` returns
    ///   it. Every later job that `F` covers was held by `C` because it
    ///   did not fit `C`'s reserved profile over `[now, now + w)`; the
    ///   full cycle's reserved profile is lower still. So every later
    ///   job is `Reserved`.
    /// * Conservative: with no release at or before `now`, a profile's
    ///   capacity at `now` is the live free vector, so a slot at `now` is
    ///   a start, and `C` reserved every job it held at a slot after
    ///   `now` (or at none, `SimTime::MAX`). In order, the full cycle
    ///   finds each the same slot, as for the EASY head: its profile lies
    ///   below `C`'s at that job (less `C`'s later starts), and `C`'s
    ///   final profile is nowhere negative. So every job is `Reserved`
    ///   again, at the same slot.
    ///
    /// So the held `match` reserves only what `C` reserved and no job
    /// starts. The reason then depends only on the arm's verdict, `F`
    /// and the demand: `Hold` (FCFS, and the EASY head, short of `F`)
    /// reports the shortage; `Reserved` relabels `PolicyHold`.
    ///
    /// Only conservative needs the release guard. FCFS reads no profile,
    /// and the EASY arm's argument compares two profiles at the same
    /// instant, whatever they hold. With a release due, conservative's
    /// `C` may hold a job whose slot is `now` (the profile counts the
    /// overdue release, the live free vector does not) without reserving
    /// it; a later start in `C` may take that capacity, the full cycle
    /// then reserves the job later, and that can move the next
    /// reservation off a window that a job behind both then fits now:
    /// it starts (see the unit test
    /// `conservative_follow_up_with_a_release_due_starts_a_job`).
    fn follow_up_holds(
        &mut self,
        cluster: &Cluster,
        free: &Demand,
        probe: &mut dyn CycleProbe,
    ) -> bool {
        let relabel = match self.spec.discipline {
            Discipline::Fcfs => false,
            Discipline::EasyBackfill
            | Discipline::ConservativeBackfill
            | Discipline::PriorityBackfill { .. }
            | Discipline::QuantumAware { .. } => true,
        };
        self.last_holds.clear();
        self.hold_changes.clear();
        let mut any_fits = false;
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let id = self.pending[i].id;
            let Some(&entry) = self.queued.get(id.raw()) else {
                continue;
            };
            probe.phase_start(CyclePhase::Admit);
            let reason = match shortage(cluster, free, &entry.demand) {
                HoldReason::PolicyHold if relabel => HoldReason::HeadShadow,
                reason => reason,
            };
            probe.phase_end(CyclePhase::Admit);
            any_fits = any_fits || free.covers(&entry.demand);
            self.last_holds.push((id, reason));
            if entry.reported != Some(reason) {
                self.hold_changes.push((id, reason));
            }
            self.pending.swap(kept, i);
            kept += 1;
        }
        self.pending.truncate(kept);
        any_fits
    }

    /// The clock-only re-run (fast path 2 of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)):
    /// keeps [`last_holds`](BatchScheduler::last_holds) and lists no
    /// hold change.
    ///
    /// The last cycle `C`, at `t0 ≤ now`, started nothing and held the
    /// queue in its order; the caller has checked that nothing but the
    /// clock moved since (see `unchanged`), that no release is due (see
    /// `release_due`) and that the queue scored at `now` is still in that
    /// order. Fairshare decay, aging escalation and the
    /// idle-QPU flag are time's only effects on the order, and the check
    /// reads them all.
    ///
    /// Why this is the full cycle's verdict. `C` started nothing, so its
    /// live free vector was the cluster's `F` throughout, as it is now.
    /// Its profile was built at `t0` and the full cycle's at `now` from
    /// the same running set, whose earliest expected end `e` lies after
    /// `now`. Both read `F` until `e`, and they agree from `now` on. By
    /// the admit `match`'s arm:
    ///
    /// * FCFS reads only `F` and the order.
    /// * The EASY arm: `C`'s first job was the head, short of `F`, so it
    ///   fits nowhere before `e`; the profiles agree from there, so its
    ///   shadow is `C`'s. A later job that `F` covers did not fit `C`'s
    ///   reserved profile over `[t0, t0 + w)`, and the profile was `F`
    ///   before `e`, so it fell short at some `τ ≥ e > now`, inside
    ///   `[now, now + w)`: it does not fit now either.
    /// * Conservative: `C` reserved every job at a slot after `t0`,
    ///   since its capacity at `t0` was `F`; by the same argument no job
    ///   fits at `now`, and the breakpoints and capacities after `now`
    ///   are `C`'s, so each slot and reservation is `C`'s.
    ///
    /// So the held `match` repeats `C`'s, nothing starts, and each
    /// reason, a function of the verdict, `F` and the demand, is `C`'s.
    /// `C` committed every reason it reported, so none changes.
    fn carry_holds(&mut self, probe: &mut dyn CycleProbe) {
        for _ in 0..self.pending.len() {
            probe.phase_start(CyclePhase::Admit);
            probe.phase_end(CyclePhase::Admit);
        }
        self.hold_changes.clear();
    }

    /// Maps a live-allocation failure (a policy started a job the live
    /// cluster cannot place) onto the same causes a hold's shortage
    /// reports, so the ledger downstream never sees an unlabeled hold.
    fn classify(err: &ClusterError) -> HoldReason {
        match err {
            ClusterError::InsufficientNodes { .. } => HoldReason::InsufficientNodes,
            ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. } => {
                HoldReason::InsufficientGres
            }
            _ => HoldReason::PolicyHold,
        }
    }
}

/// The admit `match`'s verdict on one queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Start now; the live cluster still re-validates the start, and a
    /// failed allocation turns into a hold.
    Start,
    /// Hold, for the binding shortage; [`HoldReason::PolicyHold`] if the
    /// machine fits the job (FCFS head-of-line blocking).
    Hold,
    /// Hold, for the binding shortage; [`HoldReason::HeadShadow`] if the
    /// machine fits the job and only a reservation carved earlier in the
    /// cycle stands in the way.
    Reserved,
}

/// The admit `match`: whether `job`, next in order, starts now. `free` is
/// the live free vector; `profile` carries every reservation made earlier
/// in the cycle; `blocked` is the held `match`'s flag.
fn admit(
    discipline: Discipline,
    blocked: bool,
    job: &PendingJob,
    demand: &Demand,
    profile: &mut Profile<'_>,
    free: &Demand,
    now: SimTime,
) -> Admit {
    match discipline {
        Discipline::Fcfs => {
            if !blocked && free.covers(demand) {
                Admit::Start
            } else {
                Admit::Hold
            }
        }
        // Reserve the job's earliest slot if it lies ahead, so no later
        // job can delay it.
        Discipline::ConservativeBackfill => {
            let slot = profile.find_slot(demand, job.walltime, now);
            if slot > now {
                profile.reserve(demand, slot, job.walltime);
                Admit::Reserved
            } else if free.covers(demand) {
                Admit::Start
            } else {
                Admit::Hold
            }
        }
        // Before the head blocks, anything the live machine can place
        // starts; afterwards a job may only backfill: fit the profile,
        // which carries the head's shadow, over its whole walltime.
        Discipline::EasyBackfill
        | Discipline::PriorityBackfill { .. }
        | Discipline::QuantumAware { .. } => {
            if free.covers(demand) && (!blocked || profile.fits(demand, now, job.walltime)) {
                Admit::Start
            } else if blocked {
                Admit::Reserved
            } else {
                Admit::Hold
            }
        }
    }
}

/// The held `match`: updates the cycle's plan after `job` stays queued,
/// whether admit held it or the live cluster refused its start.
fn held(
    discipline: Discipline,
    blocked: &mut bool,
    job: &PendingJob,
    demand: &Demand,
    profile: &mut Profile<'_>,
    now: SimTime,
) {
    match discipline {
        Discipline::Fcfs => *blocked = true,
        // Conservative reserved in admit already.
        Discipline::ConservativeBackfill => {}
        // The first held job is the head: reserve its earliest slot, the
        // shadow, so nothing backfilled later in the cycle delays it.
        Discipline::EasyBackfill
        | Discipline::PriorityBackfill { .. }
        | Discipline::QuantumAware { .. } => {
            if !*blocked {
                *blocked = true;
                let shadow = profile.find_slot(demand, job.walltime, now);
                if shadow != SimTime::MAX {
                    profile.reserve(demand, shadow, job.walltime);
                }
            }
        }
    }
}

/// Why `demand` is not running on the live free vector `free`: the
/// binding resource shortage, or [`HoldReason::PolicyHold`] when `free`
/// covers it (the hold is the policy's own doing).
///
/// When *both* nodes and the demand's gres tokens are short, the gres
/// wins the blame: even a cluster with infinite free nodes would still
/// hold the job, so the token is the binding constraint. (Nodes recycle
/// every few minutes as batch jobs drain; a co-scheduled QPU token is
/// pinned for a whole hybrid campaign — attributing the scarcer,
/// slower-recycling resource is what makes the wait ledger actionable.)
fn shortage(cluster: &Cluster, free: &Demand, demand: &Demand) -> HoldReason {
    let mut reason = HoldReason::PolicyHold;
    for (slot, info) in cluster.slots().iter().enumerate() {
        if free.get(slot) < demand.get(slot) {
            if info.is_gres() {
                return HoldReason::InsufficientGres;
            }
            reason = HoldReason::InsufficientNodes;
        }
    }
    reason
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_cluster::alloc::GroupRequest;
    use hpcqc_cluster::cluster::ClusterBuilder;
    use hpcqc_cluster::gres::GresKind;

    fn cluster(nodes: u32) -> Cluster {
        ClusterBuilder::new()
            .partition("classical", nodes)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 1)
            .build(SimTime::ZERO)
    }

    fn job(id: u64, nodes: u32, walltime_s: u64, submit_s: u64) -> PendingJob {
        PendingJob {
            id: JobId::new(id),
            request: AllocRequest::new().group(GroupRequest::nodes("classical", nodes)),
            walltime: SimDuration::from_secs(walltime_s),
            submit: SimTime::from_secs(submit_s),
            user: "u".into(),
            qos_boost: 0.0,
        }
    }

    #[test]
    fn fcfs_starts_in_order_and_blocks() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 6, 100, 0), &c).unwrap();
        s.submit(job(1, 6, 100, 1), &c).unwrap(); // cannot co-run with job 0
        s.submit(job(2, 2, 100, 2), &c).unwrap(); // would fit, but FCFS blocks
        let started = s.try_schedule(&mut c, SimTime::from_secs(10));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId::new(0));
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn easy_backfills_around_blocked_head() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        s.submit(job(0, 6, 100, 0), &c).unwrap(); // runs now, ends t=110
        s.submit(job(1, 6, 1_000, 1), &c).unwrap(); // blocked head, shadow t=110
        s.submit(job(2, 4, 50, 2), &c).unwrap(); // fits now, ends t=60 < 110 → backfills
        let started = s.try_schedule(&mut c, SimTime::from_secs(10));
        let ids: Vec<u64> = started.iter().map(|st| st.job.raw()).collect();
        assert_eq!(ids, vec![0, 2], "job2 must backfill around blocked job1");
    }

    #[test]
    fn easy_backfill_must_not_delay_head() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        s.submit(job(0, 6, 100, 0), &c).unwrap(); // ends t=100
        s.submit(job(1, 6, 1_000, 1), &c).unwrap(); // head: shadow at t=100 needs 6
                                                    // 4-node job for 1000 s: fits now (4 ≤ 4 free), and at shadow t=100
                                                    // free is 10−6(head)=4 ≥ 4 → fine, backfills.
        s.submit(job(2, 4, 1_000, 2), &c).unwrap();
        // 5-node job for 1000 s: fits now? only 4 free → no.
        s.submit(job(3, 5, 1_000, 3), &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        let ids: Vec<u64> = started.iter().map(|st| st.job.raw()).collect();
        assert_eq!(ids, vec![0, 2]);
        // Now make a job that fits now but would delay the head:
        // after 0 and 2 run, 0 free; nothing else can start.
        assert_eq!(s.try_schedule(&mut c, SimTime::from_secs(1)).len(), 0);
    }

    #[test]
    fn conservative_respects_all_reservations() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::conservative());
        s.submit(job(0, 10, 100, 0), &c).unwrap(); // fills machine until t=100
        s.submit(job(1, 10, 100, 1), &c).unwrap(); // reserved [100, 200)
        s.submit(job(2, 10, 100, 2), &c).unwrap(); // reserved [200, 300)
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started.len(), 1);
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn finished_frees_and_next_cycle_starts() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 10, 100, 0), &c).unwrap();
        s.submit(job(1, 10, 100, 1), &c).unwrap();
        let first = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(first.len(), 1);
        let end = SimTime::from_secs(100);
        c.release(first[0].alloc, end).unwrap();
        assert_eq!(s.finished(first[0].alloc, end), Some(JobId::new(0)));
        let second = s.try_schedule(&mut c, end);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].job, JobId::new(1));
        assert_eq!(s.total_started(), 2);
    }

    /// Submits `request` to an empty EASY scheduler on `cluster(10)` and
    /// returns the rejection reason.
    fn rejection(request: AllocRequest) -> String {
        let c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        let mut j = job(0, 1, 100, 0);
        j.request = request;
        let err = s.submit(j, &c).unwrap_err();
        assert_eq!(s.pending_len(), 0);
        match err {
            SchedError::ImpossibleRequest { reason, .. } => reason,
            other => panic!("expected ImpossibleRequest, got {other}"),
        }
    }

    #[test]
    fn impossible_request_rejected_at_submit() {
        let classical = AllocRequest::new().group(GroupRequest::nodes("classical", 11));
        assert_eq!(
            rejection(classical),
            "demand exceeds total machine capacity: classical nodes requested 11, total 10"
        );
        let qpus = AllocRequest::new().group(GroupRequest::gres("quantum", GresKind::qpu(), 2));
        assert_eq!(
            rejection(qpus),
            "demand exceeds total machine capacity: quantum qpu requested 2, total 1"
        );
    }

    #[test]
    fn empty_request_rejected_at_submit() {
        assert!(rejection(AllocRequest::new()).contains("asks for no resources"));
        let zero = AllocRequest::new().group(GroupRequest::nodes("classical", 0));
        assert!(rejection(zero).contains("asks for no resources"));
    }

    #[test]
    fn unknown_partition_rejected_at_submit() {
        let request = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 1))
            .group(GroupRequest::nodes("gpu", 0));
        assert_eq!(rejection(request), "no partition `gpu`");
    }

    #[test]
    fn missing_gres_kind_rejected_at_submit() {
        let request = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 1))
            .group(GroupRequest::gres("quantum", GresKind::new("fpga"), 0));
        assert_eq!(rejection(request), "partition `quantum` has no `fpga` gres");
    }

    #[test]
    fn duplicate_queued_id_rejected() {
        let c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 1, 100, 0), &c).unwrap();
        let err = s.submit(job(0, 2, 100, 1), &c).unwrap_err();
        assert_eq!(err, SchedError::DuplicateJob { job: JobId::new(0) });
        // Once the first copy leaves the queue, the id is free again.
        assert!(s.cancel(JobId::new(0)));
        s.submit(job(0, 2, 100, 1), &c).unwrap();
    }

    #[test]
    fn id_past_the_span_is_rejected_and_leaves_the_queue_alone() {
        let c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 1, 100, 0), &c).unwrap();
        let err = s.submit(job(u64::MAX, 1, 100, 1), &c).unwrap_err();
        assert_eq!(
            err,
            SchedError::IdSpanExceeded {
                job: JobId::new(u64::MAX),
                span: u64::MAX
            }
        );
        assert!(err.to_string().contains("limit 16777216"), "{err}");
        let ids: Vec<u64> = s.pending().iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(s.queued.slots(), 1);
        // One id past the span is rejected too, at either end.
        let err = s.submit(job(MAX_QUEUE_ID_SPAN, 1, 100, 2), &c).unwrap_err();
        assert!(
            matches!(err, SchedError::IdSpanExceeded { span, .. } if span == MAX_QUEUE_ID_SPAN + 1)
        );
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(MAX_QUEUE_ID_SPAN, 1, 100, 0), &c).unwrap();
        assert!(s.submit(job(0, 1, 100, 1), &c).is_err());
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn empty_scheduler_accepts_any_id() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(u64::MAX, 1, 100, 0), &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started[0].job, JobId::new(u64::MAX));
        // The queue drained, so the window restarts at any id.
        s.submit(job(0, 1, 100, 1), &c).unwrap();
        assert!(s.cancel(JobId::new(0)));
        s.submit(job(u64::MAX - 1, 1, 100, 2), &c).unwrap();
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn zero_walltime_rejected() {
        let c = cluster(4);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        let err = s.submit(job(0, 1, 0, 0), &c).unwrap_err();
        assert!(matches!(err, SchedError::ZeroWalltime { .. }));
    }

    #[test]
    fn cancel_removes_pending() {
        let mut c = cluster(4);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 4, 10, 0), &c).unwrap();
        s.submit(job(1, 4, 10, 1), &c).unwrap();
        s.submit(job(2, 4, 10, 2), &c).unwrap();
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 1);
        assert!(s.try_schedule(&mut c, SimTime::ZERO).is_empty());
        let held = [
            (JobId::new(1), HoldReason::InsufficientNodes),
            (JobId::new(2), HoldReason::InsufficientNodes),
        ];
        assert_eq!(s.last_holds(), &held);
        assert_eq!(s.hold_changes(), &held);
        assert!(s.cancel(JobId::new(1)));
        assert!(!s.cancel(JobId::new(1)));
        assert_eq!(s.pending_len(), 1);
        // The holds list only jobs still queued.
        assert_eq!(s.last_holds(), &held[1..]);
        assert_eq!(s.hold_changes(), &held[1..]);
        assert!(s.cancel(JobId::new(2)));
        assert!(s.last_holds().is_empty());
        assert!(s.hold_changes().is_empty());
    }

    #[test]
    fn hetjob_request_schedules_atomically() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        let listing1 = PendingJob {
            id: JobId::new(0),
            request: AllocRequest::new()
                .group(GroupRequest::nodes("classical", 10))
                .group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
            walltime: SimDuration::from_hours(1),
            submit: SimTime::ZERO,
            user: "u".into(),
            qos_boost: 0.0,
        };
        s.submit(listing1, &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started.len(), 1);
        assert_eq!(c.free_nodes("classical").unwrap(), 0);
        assert_eq!(c.free_gres("quantum", &GresKind::qpu()).unwrap(), 0);
    }

    #[test]
    fn priority_order_respected() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        // Same submit, but job 1 has a QoS boost → runs first.
        let mut a = job(0, 10, 100, 0);
        a.qos_boost = 0.0;
        let mut b = job(1, 10, 100, 0);
        b.qos_boost = 50.0;
        s.submit(a, &c).unwrap();
        s.submit(b, &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started[0].job, JobId::new(1));
    }

    #[test]
    fn deterministic_cycles() {
        let run = || {
            let mut c = cluster(16);
            let mut s = BatchScheduler::new(PolicySpec::easy());
            for i in 0..10 {
                s.submit(job(i, (i % 5 + 1) as u32 * 2, 100 + i * 7, i), &c)
                    .unwrap();
            }
            let mut order = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..20 {
                for st in s.try_schedule(&mut c, now) {
                    order.push(st.job.raw());
                    // Finish immediately after 50 s to keep the test short.
                    let end = now + SimDuration::from_secs(50);
                    c.release(st.alloc, end).unwrap();
                    s.finished(st.alloc, end);
                }
                now += SimDuration::from_secs(50);
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn priority_backfill_escalates_aged_jobs() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::priority_backfill(1.0));
        let mut old = job(0, 10, 100, 0);
        old.qos_boost = 0.0;
        let mut boosted = job(1, 10, 100, 3_000);
        boosted.qos_boost = 10_000.0;
        s.submit(old, &c).unwrap();
        s.submit(boosted, &c).unwrap();
        // At t=3650 job 0 is over an hour old: escalation beats the boost.
        let started = s.try_schedule(&mut c, SimTime::from_secs(3_650));
        assert_eq!(started[0].job, JobId::new(0));
        // Without escalation (below the threshold) the boost wins.
        let mut c2 = cluster(10);
        let mut s2 = BatchScheduler::new(PolicySpec::priority_backfill(10.0));
        s2.submit(job(0, 10, 100, 0), &c2).unwrap();
        let mut boosted2 = job(1, 10, 100, 3_000);
        boosted2.qos_boost = 10_000.0;
        s2.submit(boosted2, &c2).unwrap();
        let started = s2.try_schedule(&mut c2, SimTime::from_secs(3_650));
        assert_eq!(started[0].job, JobId::new(1));
    }

    #[test]
    fn quantum_aware_boosts_only_while_qpu_idle() {
        let hybrid = |id: u64, submit: u64| PendingJob {
            id: JobId::new(id),
            request: AllocRequest::new()
                .group(GroupRequest::nodes("classical", 10))
                .group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
            walltime: SimDuration::from_secs(600),
            submit: SimTime::from_secs(submit),
            user: "u".into(),
            qos_boost: 0.0,
        };
        // QPU idle: the newer hybrid job outranks the older classical one.
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::quantum_aware(1_000.0));
        s.submit(job(0, 10, 600, 0), &c).unwrap();
        s.submit(hybrid(1, 3_600), &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::from_secs(3_600));
        assert_eq!(started[0].job, JobId::new(1), "idle QPU boosts the hybrid");

        // QPU busy: no boost — the older classical job wins.
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::quantum_aware(1_000.0));
        s.submit(hybrid(9, 0), &c).unwrap();
        let first = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(first.len(), 1, "hybrid occupies the QPU");
        // Free the classical nodes but keep holding the QPU gres: release
        // is all-or-nothing, so instead submit against the occupied QPU.
        s.submit(job(0, 5, 600, 10), &c).unwrap();
        s.submit(hybrid(1, 3_600), &c).unwrap();
        let order = s.try_schedule(&mut c, SimTime::from_secs(3_600));
        assert!(
            order.is_empty(),
            "machine is full; ordering is all that ran"
        );
        let heads: Vec<u64> = s.pending().iter().map(|p| p.id.raw()).collect();
        assert_eq!(
            heads,
            vec![0, 1],
            "with the QPU busy the older classical job keeps the head"
        );
    }

    /// FCFS on `cluster(10)` running job 0 on 8 nodes, with job 1 (all 10
    /// nodes) held behind it: settled after the second cycle.
    fn settled_fcfs() -> (Cluster, BatchScheduler, AllocationId) {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        let first = PendingJob {
            qos_boost: 10.0,
            ..job(0, 8, 100, 0)
        };
        s.submit(first, &c).unwrap();
        s.submit(job(1, 10, 100, 1), &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId::new(0));
        assert!(!s.is_settled(&c), "a cycle that starts a job never settles");
        assert!(s.try_schedule(&mut c, SimTime::from_secs(1)).is_empty());
        assert!(s.is_settled(&c));
        (c, s, started[0].alloc)
    }

    #[test]
    fn submit_and_cancel_clear_settled() {
        let (mut c, mut s, _) = settled_fcfs();
        s.submit(job(2, 4, 100, 2), &c).unwrap();
        assert!(!s.is_settled(&c), "a new job may fit");
        assert!(s.try_schedule(&mut c, SimTime::from_secs(2)).is_empty());
        assert!(s.is_settled(&c), "4 nodes do not fit the 2 free");
        assert!(s.cancel(JobId::new(2)));
        assert!(!s.is_settled(&c));
    }

    #[test]
    fn release_clears_settled() {
        let (mut c, mut s, alloc) = settled_fcfs();
        c.release(alloc, SimTime::from_secs(100)).unwrap();
        assert!(!s.is_settled(&c), "the free vector grew");
        assert_eq!(s.try_schedule(&mut c, SimTime::from_secs(100)).len(), 1);
    }

    #[test]
    fn node_failure_and_repair_clear_settled() {
        let (mut c, mut s, alloc) = settled_fcfs();
        let busy: Vec<_> = c.allocation(alloc).unwrap().node_ids().collect();
        let idle = (0..10)
            .map(hpcqc_cluster::ids::NodeId::new)
            .find(|n| !busy.contains(n))
            .unwrap();
        assert_eq!(c.fail_node(idle).unwrap(), None);
        assert_eq!(c.free_nodes("classical").unwrap(), 1);
        assert!(!s.is_settled(&c), "a failure shrank the free vector");
        assert!(s.try_schedule(&mut c, SimTime::from_secs(2)).is_empty());
        assert!(s.is_settled(&c));
        c.restore_node(idle).unwrap();
        assert!(!s.is_settled(&c), "a repair grew the free vector");
    }

    #[test]
    fn held_fitting_job_is_not_settled() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        // QoS boosts fix the order: 0, 1, 2.
        let boosted = |id, nodes, walltime_s, qos_boost| PendingJob {
            qos_boost,
            ..job(id, nodes, walltime_s, id)
        };
        s.submit(boosted(0, 6, 100, 100.0), &c).unwrap(); // runs until t=100
        s.submit(boosted(1, 8, 1_000, 50.0), &c).unwrap(); // head, reserved from t=100
        s.submit(boosted(2, 4, 1_000, 0.0), &c).unwrap(); // fits now, would delay the head
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 1);
        assert!(s.try_schedule(&mut c, SimTime::from_secs(1)).is_empty());
        assert_eq!(
            s.last_holds(),
            &[
                (JobId::new(1), HoldReason::InsufficientNodes),
                (JobId::new(2), HoldReason::HeadShadow)
            ]
        );
        assert!(!s.is_settled(&c), "job 2 fits the free vector");
    }

    /// EASY on `cluster(10)`: job 10 runs on 6 nodes until t=100 and job
    /// 11 on 4 nodes until t=50; head job 1 (all 10 nodes) and job 2 (2
    /// nodes for 1000 s) are queued, both short of nodes. The first cycle
    /// starts 10 and 11; the second starts nothing and reports both holds.
    fn two_holds_reported() -> (Cluster, BatchScheduler, AllocationId) {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        let boosted = |id, nodes, walltime_s, qos_boost| PendingJob {
            qos_boost,
            ..job(id, nodes, walltime_s, 0)
        };
        s.submit(boosted(10, 6, 100, 300.0), &c).unwrap();
        s.submit(boosted(11, 4, 50, 200.0), &c).unwrap();
        s.submit(boosted(1, 10, 1_000, 100.0), &c).unwrap();
        s.submit(boosted(2, 2, 1_000, 0.0), &c).unwrap();
        let started = s.try_schedule(&mut c, SimTime::ZERO);
        assert_eq!(started.len(), 2);
        assert!(s.try_schedule(&mut c, SimTime::ZERO).is_empty());
        let insufficient = [
            (JobId::new(1), HoldReason::InsufficientNodes),
            (JobId::new(2), HoldReason::InsufficientNodes),
        ];
        assert_eq!(s.hold_changes(), &insufficient);
        (c, s, started[1].alloc)
    }

    #[test]
    fn hold_change_in_a_starting_cycle_is_reported_by_the_next_cycle() {
        let (mut c, mut s, short) = two_holds_reported();
        // Job 11 ends: 4 nodes free. Job 3 (2 nodes, ends before the
        // head's shadow at t=100) backfills; job 2 now fits but would
        // delay the head, a new reason found by a starting cycle.
        let now = SimTime::from_secs(50);
        c.release(short, now).unwrap();
        s.finished(short, now);
        let backfill = PendingJob {
            qos_boost: 50.0,
            ..job(3, 2, 10, 50)
        };
        s.submit(backfill, &c).unwrap();
        let started = s.try_schedule(&mut c, now);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId::new(3));
        assert_eq!(s.hold_changes(), &[(JobId::new(2), HoldReason::HeadShadow)]);
        // The starting cycle committed nothing: the follow-up cycle, the
        // one a simulation loop emits after, still lists job 2.
        assert!(s.try_schedule(&mut c, now).is_empty());
        assert_eq!(s.hold_changes(), &[(JobId::new(2), HoldReason::HeadShadow)]);
    }

    #[test]
    fn repeated_holds_are_not_reported_again() {
        let (mut c, mut s, _) = two_holds_reported();
        assert!(s.try_schedule(&mut c, SimTime::from_secs(1)).is_empty());
        assert_eq!(s.last_holds().len(), 2);
        assert!(s.hold_changes().is_empty());
    }

    #[test]
    fn cancelled_and_resubmitted_job_is_reported_afresh() {
        let (mut c, mut s, _) = two_holds_reported();
        assert!(s.cancel(JobId::new(2)));
        s.submit(job(2, 2, 1_000, 1), &c).unwrap();
        assert!(s.try_schedule(&mut c, SimTime::from_secs(1)).is_empty());
        assert_eq!(
            s.hold_changes(),
            &[(JobId::new(2), HoldReason::InsufficientNodes)]
        );
    }

    /// Conservative on `cluster(20)`: job 0 (8 nodes) is due at t=100
    /// but still running, job 1 (6 nodes) runs until t=200. At t=100,
    /// job 2 (10 nodes) fits the profile now, counting job 0's overdue
    /// release, but not the 6 free nodes; job 3 (5 nodes) starts; job 4
    /// (15 nodes) reserves [200, 210), and job 5 (1 node for 120 s)
    /// overlaps it, so it reserves after. The follow-up at t=100 must
    /// reserve job 2 at t=200, which pushes job 4 to [250, 260): job 5
    /// now fits before it and starts. A same-instant follow-up may not
    /// skip re-planning while a release is due.
    #[test]
    fn conservative_follow_up_with_a_release_due_starts_a_job() {
        let mut c = cluster(20);
        let mut s = BatchScheduler::new(PolicySpec::conservative());
        let ranked = |id, nodes, walltime_s, submit_s, rank: u32| PendingJob {
            qos_boost: f64::from(rank) * 1_000.0,
            ..job(id, nodes, walltime_s, submit_s)
        };
        s.submit(ranked(0, 8, 100, 0, 9), &c).unwrap();
        s.submit(ranked(1, 6, 200, 0, 8), &c).unwrap();
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 2);
        for (id, nodes, walltime_s, rank) in [
            (2, 10, 50, 4),
            (3, 5, 1_000, 3),
            (4, 15, 10, 2),
            (5, 1, 120, 1),
        ] {
            s.submit(ranked(id, nodes, walltime_s, 100, rank), &c)
                .unwrap();
        }
        let now = SimTime::from_secs(100);
        let ids =
            |started: Vec<StartedJob>| started.iter().map(|st| st.job.raw()).collect::<Vec<_>>();
        assert_eq!(ids(s.try_schedule(&mut c, now)), [3]);
        assert_eq!(ids(s.try_schedule(&mut c, now)), [5]);
        assert!(s.try_schedule(&mut c, now).is_empty());
    }

    #[test]
    fn order_keys_sort_like_total_cmp() {
        let scores = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let j = job(0, 1, 100, 0);
        for a in scores {
            for b in scores {
                // Higher scores sort first.
                assert_eq!(
                    order_key(a, &j).cmp(&order_key(b, &j)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
        // Ties fall to the submit time, then the id.
        assert!(order_key(1.0, &job(5, 1, 100, 0)) < order_key(1.0, &job(1, 1, 100, 1)));
        assert!(order_key(1.0, &job(1, 1, 100, 0)) < order_key(1.0, &job(5, 1, 100, 0)));
    }

    #[test]
    fn availability_profile_tracks_running_releases() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        s.submit(job(0, 6, 100, 0), &c).unwrap();
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 1);
        let p = s.availability_profile(&c, SimTime::ZERO);
        let classical = c.node_slot("classical").unwrap();
        assert_eq!(p.free_at(SimTime::from_secs(50)).get(classical), 4);
        assert_eq!(p.free_at(SimTime::from_secs(100)).get(classical), 10);
    }
}
