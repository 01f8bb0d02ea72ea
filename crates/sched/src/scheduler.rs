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

use crate::demand::{Demand, Profile};
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
/// needs to prove which of its verdicts it may keep (see
/// [`BatchScheduler::try_schedule_probed`]'s cycle kinds).
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
    /// Whether the cycle started a job.
    started: bool,
    /// The slot the EASY arm reserved for the head, the queue's first
    /// held job: its shadow, or [`SimTime::MAX`] if it never fits, and
    /// under FCFS and conservative backfill.
    shadow: SimTime,
}

impl CycleEnd {
    /// Whether `cluster` is as the cycle left it: its version, or else
    /// its free vector, is the cycle's. A cluster whose version is the
    /// cycle's has had no mutating call since, so only a moved version
    /// costs the comparison.
    fn left_as_is(&self, cluster: &Cluster) -> bool {
        self.version == cluster.version() || self.free == Demand::free_of(cluster)
    }
}

/// What happened since the last cycle: the one record from which
/// [`BatchScheduler::kind`] picks the next cycle's [`Kind`]. Its
/// `submit`, `cancel` and `finished` feed it; every cycle resets it and
/// records how it ended.
#[derive(Debug, Clone, Copy, Default)]
struct Since {
    /// How the last cycle ended. `None` if it refused an allocation, or
    /// if no cycle ran since the queue was last empty.
    end: Option<CycleEnd>,
    /// How many jobs were submitted since: the last `submitted` entries
    /// of `pending`.
    submitted: usize,
    /// Whether a job was cancelled since.
    cancelled: bool,
    /// Whether a running job finished since.
    finished: bool,
}

/// The five kinds of cycle, as [`BatchScheduler::kind`] reads them off
/// the change record (see
/// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)). Each
/// fast kind carries the end of the cycle it builds on.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Nothing can start and no hold can change: the caller may skip the
    /// cycle (see [`BatchScheduler::is_settled`]).
    Settled(CycleEnd),
    /// The cycle right after a starting one.
    FollowUp(CycleEnd),
    /// A cycle after a non-starting one, with only the clock moved.
    ReRun(CycleEnd),
    /// A cycle after a non-starting one, with only submits since.
    SubmitOnly(CycleEnd),
    /// Anything else: plan every job.
    Full,
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

/// The running jobs, by allocation.
type RunningSet = IdMap<AllocationId, Running>;

/// The availability profile at `now`: `free` plus each running job's
/// demand from its expected end. A cycle builds at most one, so the build
/// stays out of line, off the admit and held steps that may call it
/// (perfbench `deep-queue` ran ~1% slower with it inline).
#[cold]
#[inline(never)]
fn profile_of(now: SimTime, free: Demand, running: &RunningSet) -> Profile {
    Profile::from_releases(
        now,
        free,
        running.values().map(|r| (r.expected_end, &r.demand)),
    )
}

/// One cycle's plan: its instant, the live free vector, and the
/// availability profile, built when a policy first reads it. FCFS never
/// does, so its cycles build none.
#[derive(Debug)]
struct Plan {
    now: SimTime,
    /// The cluster's free capacity, less what each start of the cycle
    /// allocates.
    free: Demand,
    /// The profile at `now`, less every reservation of the cycle; `None`
    /// until first read.
    profile: Option<Profile>,
}

impl Plan {
    fn new(now: SimTime, free: Demand) -> Self {
        Plan {
            now,
            free,
            profile: None,
        }
    }

    /// The cycle's profile, built on first read from the free vector and
    /// `running`, which already holds the cycle's starts: the profile
    /// built before them with each reserved (see
    /// [Building after starts](Profile#building-after-starts)).
    fn profile(&mut self, running: &RunningSet) -> &mut Profile {
        self.profile
            .get_or_insert_with(|| profile_of(self.now, self.free, running))
    }

    /// Starts `job`, which the admit `match` admitted, on the live
    /// `cluster`: its submit-time `entry` leaves `queued`, the job joins
    /// `running`, and its demand leaves the free vector and, once built,
    /// the profile. A start the live cluster refuses (the admit `match`
    /// said yes, but e.g. nodes failed) is held instead, blaming the
    /// concrete shortage the allocator reported.
    fn start(
        &mut self,
        cluster: &mut Cluster,
        queued: &mut QueuedTable,
        running: &mut RunningSet,
        job: &PendingJob,
        entry: &Queued,
        probe: &mut dyn CycleProbe,
    ) -> Result<AllocationId, HoldReason> {
        probe.phase_start(CyclePhase::Allocate);
        let granted = cluster.allocate(&job.request, self.now);
        probe.phase_end(CyclePhase::Allocate);
        let alloc = granted.map_err(|err| classify(&err))?;
        queued.remove(job.id.raw());
        running.insert(
            alloc,
            Running {
                job: job.id,
                user: entry.user,
                demand: entry.demand,
                // The end a reserve to the horizon carves to.
                expected_end: self.now.saturating_add(job.walltime),
                node_count: entry.nodes,
                started: self.now,
            },
        );
        self.free.subtract(&entry.demand);
        if let Some(profile) = &mut self.profile {
            profile.reserve(&entry.demand, self.now, job.walltime);
        }
        Ok(alloc)
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
    running: RunningSet,
    total_started: u64,
    total_finished: u64,
    last_holds: Vec<(JobId, HoldReason)>,
    /// The entries of `last_holds` whose reason differs from the one last
    /// reported for that job (see [`BatchScheduler::hold_changes`]).
    hold_changes: Vec<(JobId, HoldReason)>,
    /// What happened since the last cycle (see [`BatchScheduler::kind`]).
    since: Since,
    /// The cycle's sort keys, each with its job's queue position; kept
    /// between cycles so that sorting allocates only when the queue
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
            total_started: 0,
            total_finished: 0,
            last_holds: Vec::new(),
            hold_changes: Vec::new(),
            since: Since::default(),
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
    /// leaves the list as it stands, and a submit-only cycle merges the
    /// new jobs' holds into it, since each proves that the full cycle
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
    /// holds, and a submit-only cycle lists only the new jobs and the
    /// jobs it re-diagnosed. A start or a
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
    pub fn availability_profile(&self, cluster: &Cluster, now: SimTime) -> Profile {
        profile_of(now, Demand::free_of(cluster), &self.running)
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
        self.since.submitted += 1;
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
        self.since.cancelled = true;
        self.queued.remove(job.raw()).is_some()
    }

    /// `true` if a scheduling cycle run now on `cluster` would start
    /// nothing and report the same holds as
    /// [`last_holds`](BatchScheduler::last_holds), so the caller may skip
    /// it: the change record's kind is *settled* (see
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)). It
    /// holds when the last cycle started nothing and found no queued
    /// demand covered by the free vector; when no job was submitted,
    /// cancelled or started since; and when `cluster` is as that cycle
    /// left it. A finished job does not matter.
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
    /// `match`'s blocked flag lives for one cycle.
    ///
    /// A caller that runs the cycle anyway gets the same holds in the
    /// order the queue sorts into now. If nothing finished, that cycle
    /// may be a clock-only re-run, whose proof is the stronger one: it
    /// keeps every verdict, not only the starts, so it also needs the
    /// queue's order unchanged and no release due.
    pub fn is_settled(&self, cluster: &Cluster) -> bool {
        matches!(self.recorded_kind(), Kind::Settled(end) if end.left_as_is(cluster))
    }

    /// Notifies the scheduler that the job backing `alloc` finished at
    /// `now` (the caller releases the cluster allocation itself). Charges
    /// fairshare usage. Returns the finished job's id if known.
    pub fn finished(&mut self, alloc: AllocationId, now: SimTime) -> Option<JobId> {
        let running = self.running.remove(&alloc)?;
        self.since.finished = true;
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
    /// `now`, built when it first reads it, from the running set and the
    /// free vector as the cycle's starts so far left them (see
    /// [Building after starts](Profile#building-after-starts)): a cycle
    /// whose policy never looks at the timeline builds none.
    ///
    /// # Cycle kinds
    ///
    /// The scheduler keeps one record of what happened since the last
    /// cycle `C`: how `C` ended (its instant, its final live free vector
    /// `F`, the cluster's version, whether it started a job, whether a
    /// held demand fitted `F`, and the EASY head's shadow), how many jobs
    /// were submitted since, and whether a job was cancelled or finished.
    /// `C`'s end is kept only if `C` refused no allocation, and a cycle on
    /// an empty queue forgets it. One function, `kind`, reads the record
    /// and `cluster` and picks one of five kinds. Every kind but the full
    /// one needs `C`'s end, no cancel, and `cluster` as `C` left it: its
    /// version, or else its free vector, is `C`'s. Then the queue is the
    /// jobs `C` held, in `C`'s order, followed by the jobs submitted
    /// since, and the live free vector is `F`.
    ///
    /// 1. *Settled*: `C` started nothing, no held demand fitted `F`, and
    ///    nothing was submitted; a finish may have come. The caller may
    ///    skip the cycle (see [`is_settled`](BatchScheduler::is_settled));
    ///    run anyway, it is a re-run if nothing finished, else full.
    /// 2. *Same-instant follow-up*: `C` started jobs, and nothing was
    ///    submitted or finished since. At `C`'s instant, under
    ///    quantum-aware with the idle-QPU flag `C`'s order read, and under
    ///    conservative with no release due, it re-diagnoses the held jobs
    ///    in one pass (see `follow_up_holds`).
    /// 3. *Clock-only re-run*: `C` started nothing, and nothing was
    ///    submitted or finished since. With no release due and the queue,
    ///    scored at `now`, still in `C`'s order (checked in one pass, no
    ///    sort), it keeps `C`'s holds (see `carry_holds`).
    /// 4. *Submit-only*: as a re-run, but jobs were submitted since onto
    ///    `C`'s queue, which was not empty. With no release due, the old
    ///    jobs still in `C`'s order, every new job sorting behind `C`'s
    ///    head, and any discipline but conservative, it admits only the
    ///    new jobs, at their places in the sorted queue (see
    ///    `submit_only`).
    /// 5. *Full*: anything else, or a kind whose conditions fail. It
    ///    scores and sorts the queue, then admits every job.
    ///
    /// *No release due* means that no running job's expected end lies at
    /// or before `now`. Then the profile at `now` reads `F` until the
    /// first release `e > now`, and from `now` on it agrees with the
    /// profile of any earlier cycle over the same running set: a demand
    /// that `F` does not cover fits in neither before `e`, so its earliest
    /// slot is the same in both.
    ///
    /// Each fast kind proves its starts, holds and hold changes equal to
    /// the full cycle's, case by case over the three `match`es (order,
    /// admit, held). They are closed over [`Discipline`], so a new
    /// discipline does not compile without an arm in each, and each new
    /// arm must keep every argument. Each fast kind reports to `probe` as
    /// one cycle with one [`CyclePhase::Admit`] per queued job and no
    /// [`CyclePhase::Order`].
    pub fn try_schedule_probed(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        probe: &mut dyn CycleProbe,
    ) -> Vec<StartedJob> {
        if self.pending.is_empty() {
            // Only a submit refills the queue, and a cycle after it plans
            // in full.
            self.since = Since::default();
            self.last_holds.clear();
            self.hold_changes.clear();
            return Vec::new();
        }
        self.cycle(cluster, now, probe)
    }

    /// The kind of the next cycle on `cluster`, read off the change
    /// record (see
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)). The
    /// conditions on the cycle's instant and on the queue's order are
    /// the cycle's to check; it plans in full when one fails.
    fn kind(&self, cluster: &Cluster) -> Kind {
        match self.recorded_kind() {
            Kind::Settled(end) | Kind::FollowUp(end) | Kind::ReRun(end) | Kind::SubmitOnly(end)
                if !end.left_as_is(cluster) =>
            {
                Kind::Full
            }
            kind => kind,
        }
    }

    /// The kind the change record allows before `cluster` is compared
    /// with the last cycle's end, which only [`kind`](Self::kind) does:
    /// the comparison may rebuild a free vector, and a record that allows
    /// only a full cycle needs none.
    fn recorded_kind(&self) -> Kind {
        let since = &self.since;
        let Some(end) = since.end.filter(|_| !since.cancelled) else {
            return Kind::Full;
        };
        match (end.started, since.submitted) {
            (false, 0) if !end.any_fits => Kind::Settled(end),
            _ if since.finished => Kind::Full,
            (true, 0) => Kind::FollowUp(end),
            (false, 0) => Kind::ReRun(end),
            (false, _) => Kind::SubmitOnly(end),
            (true, _) => Kind::Full,
        }
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
        let kind = self.kind(cluster);
        let since = std::mem::take(&mut self.since);
        self.keys.clear();
        let depth = self.pending.len();
        probe.cycle_start(now, depth);
        let scoring = Scoring::of(self.spec.discipline, cluster);
        // Conservative slots read releases due by now, which the other
        // arms' follow-ups do not (see `follow_up_holds`), and a job that
        // joins its queue may move every later reservation, which the
        // other arms' plans never do (see `submit_only`).
        let conservative = match self.spec.discipline {
            Discipline::ConservativeBackfill => true,
            Discipline::Fcfs
            | Discipline::EasyBackfill
            | Discipline::PriorityBackfill { .. }
            | Discipline::QuantumAware { .. } => false,
        };
        match kind {
            Kind::FollowUp(end)
                if end.now == now
                    && end.qpu_boost == scoring.boosts()
                    && !(conservative && self.release_due(now)) =>
            {
                let any_fits = self.follow_up_holds(cluster, &end.free, probe);
                let end = CycleEnd {
                    any_fits,
                    started: false,
                    ..end
                };
                self.close(cluster, end, false);
                probe.cycle_end(0, self.pending.len());
                return Vec::new();
            }
            // A finish moves the head's shadow, which the re-run keeps.
            Kind::Settled(end) | Kind::ReRun(end)
                if !since.finished
                    && end.now <= now
                    && !self.release_due(now)
                    && self.in_order(&scoring, now, depth) =>
            {
                self.carry_holds(probe);
                let end = CycleEnd {
                    now,
                    qpu_boost: scoring.boosts(),
                    ..end
                };
                self.close(cluster, end, false);
                probe.cycle_end(0, depth);
                return Vec::new();
            }
            Kind::SubmitOnly(end)
                if !conservative
                    && end.now <= now
                    && !self.release_due(now)
                    && self.in_order(&scoring, now, depth - since.submitted)
                    && self.head_stays_first(&scoring, now) =>
            {
                let end = CycleEnd {
                    now,
                    qpu_boost: scoring.boosts(),
                    ..end
                };
                return self.submit_only(cluster, end, depth - since.submitted, probe);
            }
            _ => {}
        }

        self.last_holds.clear();
        self.hold_changes.clear();
        probe.phase_start(CyclePhase::Order);
        self.order(&scoring, now);
        probe.phase_end(CyclePhase::Order);
        let mut plan = Plan::new(now, Demand::free_of(cluster));
        let discipline = self.spec.discipline;
        // FCFS: a job was held, so every later one waits. The EASY arm:
        // the head was held and its shadow reserved.
        let mut blocked = false;
        let mut shadow = SimTime::MAX;

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
            any_fits = any_fits || plan.free.covers(&demand);
            probe.phase_start(CyclePhase::Admit);
            let admitted = admit(discipline, blocked, job, &demand, &mut plan, &self.running);
            probe.phase_end(CyclePhase::Admit);
            let reason = match admitted {
                Admit::Start => {
                    let (queued, running) = (&mut self.queued, &mut self.running);
                    match plan.start(cluster, queued, running, job, &entry, probe) {
                        Ok(alloc) => {
                            started.push(StartedJob { job: job.id, alloc });
                            continue;
                        }
                        Err(reason) => {
                            refused = true;
                            reason
                        }
                    }
                }
                verdict => hold_reason(verdict, cluster, &plan.free, &demand),
            };
            self.last_holds.push((job.id, reason));
            if entry.reported != Some(reason) {
                self.hold_changes.push((job.id, reason));
            }
            if let Some(at) = held(
                discipline,
                &mut blocked,
                job,
                &demand,
                &mut plan,
                &self.running,
            ) {
                shadow = at;
            }
            self.pending.swap(kept, i);
            kept += 1;
        }
        self.pending.truncate(kept);
        self.total_started += started.len() as u64;
        let end = CycleEnd {
            now,
            version: cluster.version(),
            free: plan.free,
            qpu_boost: scoring.boosts(),
            any_fits,
            started: !started.is_empty(),
            shadow,
        };
        self.close(cluster, end, refused);
        probe.cycle_end(started.len(), self.pending.len());
        started
    }

    /// Closes a cycle that ended as `end`: one that started nothing
    /// commits the reasons it reported (see `hold_changes`), and `end`
    /// opens the change record, unless the cycle refused an allocation.
    fn close(&mut self, cluster: &Cluster, end: CycleEnd, refused: bool) {
        if !end.started {
            for &(id, reason) in &self.hold_changes {
                if let Some(entry) = self.queued.get_mut(id.raw()) {
                    entry.reported = Some(reason);
                }
            }
        }
        if !refused {
            self.since.end = Some(CycleEnd {
                version: cluster.version(),
                ..end
            });
        }
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

    /// Scores the first `len` queued jobs at `now` into `keys`, in queue
    /// order, until a key does not rise above the one before it. `true`
    /// if none fell: those jobs are in the order a full cycle would sort
    /// them into, since the keys are a total order. The keys scored so
    /// far stay for [`order`](Self::order) to finish.
    fn in_order(&mut self, scoring: &Scoring, now: SimTime, len: usize) -> bool {
        if len < 2 {
            return true;
        }
        for (i, job) in self.pending[..len].iter().enumerate() {
            let key = self.key_of(scoring, job, now);
            let rises = self.keys.last().is_none_or(|&(last, _)| last < key);
            self.keys.push((key, i));
            if !rises {
                return false;
            }
        }
        true
    }

    /// Scores the queued jobs that have no key yet, at `now`.
    fn score(&mut self, scoring: &Scoring, now: SimTime) {
        for i in self.keys.len()..self.pending.len() {
            let key = self.key_of(scoring, &self.pending[i], now);
            self.keys.push((key, i));
        }
    }

    /// Scores the jobs submitted since the last cycle and sorts every
    /// key. `true` if the old head stays first, that is, every new job
    /// sorts behind it: `in_order` found the old jobs in order, so the
    /// head's key is the least of theirs. The keys stay sorted for
    /// [`order`](Self::order) either way.
    fn head_stays_first(&mut self, scoring: &Scoring, now: SimTime) -> bool {
        // `in_order` scores nothing for a single old job: this scores it.
        self.score(scoring, now);
        self.keys.sort();
        self.keys[0].1 == 0
    }

    /// Sorts the queue for this cycle, most preferred first, on each
    /// job's [`OrderKey`] at `now`. The queue arrives in the last cycle's
    /// order with new submissions behind, nearly sorted, so the stable
    /// adaptive sort runs in about one pass; the jobs are then permuted
    /// in place. A queue of 0 or 1 jobs is left alone.
    fn order(&mut self, scoring: &Scoring, now: SimTime) {
        if self.pending.len() < 2 {
            return;
        }
        // `in_order` may have scored a prefix already, and
        // `head_stays_first` all.
        self.score(scoring, now);
        self.keys.sort();
        permute(&mut self.keys, |a, b| self.pending.swap(a, b));
    }

    /// The same-instant follow-up (kind 2 of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)):
    /// holds every queued job, in queue order, for the binding shortage
    /// of `free` against its demand, with [`HoldReason::PolicyHold`]
    /// relabelled [`HoldReason::HeadShadow`] under every discipline but
    /// FCFS. Returns whether some demand fits `free`.
    ///
    /// `free` is the final free vector `F` of the last cycle `C`, which
    /// ran at this instant and started the jobs `S`; the queue is the
    /// jobs `H` it held, in its order. The record shows that nothing
    /// moved since, and the caller has checked that the idle-QPU flag is
    /// `C`'s and, under conservative, that no release is due.
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
    ///   built from a running set that holds `S`, so it is `C`'s
    ///   profile with every start of `S` reserved (see
    ///   [Building after starts](Profile#building-after-starts)): `C`'s
    ///   profile when it reserved the shadow, less `S`'s later starts.
    ///   So the head fits `P` no earlier than `C`'s shadow; and it fits
    ///   there, because `C` admitted each later start only where it
    ///   fitted around the shadow, so `P` less the shadow is nowhere
    ///   negative. `C`'s shadow is one of `P`'s breakpoints, so
    ///   `find_slot` returns it, and this cycle keeps it as its own.
    ///   Every later job that `F` covers was held by `C` because it did
    ///   not fit `C`'s reserved profile over `[now, now + w)`; the full
    ///   cycle's reserved profile is lower still. So every later job is
    ///   `Reserved`.
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
        let verdict = match self.spec.discipline {
            Discipline::Fcfs => Admit::Hold,
            Discipline::EasyBackfill
            | Discipline::ConservativeBackfill
            | Discipline::PriorityBackfill { .. }
            | Discipline::QuantumAware { .. } => Admit::Reserved,
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
            let reason = hold_reason(verdict, cluster, free, &entry.demand);
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

    /// The clock-only re-run (kind 3 of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)):
    /// keeps [`last_holds`](BatchScheduler::last_holds) and lists no
    /// hold change.
    ///
    /// The last cycle `C`, at `t0 ≤ now`, started nothing and held the
    /// queue in its order; the record shows that only the clock moved
    /// since, and the caller has checked that no release is due and that
    /// the queue scored at `now` is still in that order. Fairshare decay,
    /// aging escalation and the idle-QPU flag are time's only effects on
    /// the order, and the check reads them all.
    ///
    /// Why this is the full cycle's verdict. `C` started nothing, so its
    /// live free vector was the cluster's `F` throughout, as it is now.
    /// Its profile was built at `t0` and the full cycle's at `now` from
    /// the same running set, and with no release due they agree from
    /// `now` on, the first release `e` lying after `now`. By the admit
    /// `match`'s arm:
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

    /// The submit-only cycle (kind 4 of
    /// [`try_schedule_probed`](BatchScheduler::try_schedule_probed)),
    /// ending as `end`: admits only the jobs submitted since the last
    /// cycle, each at its place in the sorted queue, against the live
    /// free vector and, under the EASY arm, the profile at `now` with
    /// the head's kept shadow. Every old job keeps its verdict, and one
    /// behind a started new job is re-diagnosed for its shortage.
    ///
    /// The last cycle `C`, at `t0 ≤ now`, started nothing and held the
    /// first `old` queued jobs in its order, with free vector `F`. The
    /// record shows that only submits came since, and the caller has
    /// checked that no release is due and that the old jobs, scored at
    /// `now`, keep `C`'s order; it has sorted every key into `keys`, and
    /// `C`'s head `h` is first. The discipline is not conservative.
    ///
    /// Why this is the full cycle's verdict. The order `match` reads the
    /// clock, fairshare usage and the idle-QPU flag, all read at `now`
    /// here, so `keys` is the full cycle's order: the old jobs in `C`'s
    /// order with the new ones merged in, `h` first. `C` started
    /// nothing, so `F` does not cover `h`. By the admit `match`'s arm:
    ///
    /// * FCFS holds `h` and blocks; every later job is held for its
    ///   shortage of `F`, and nothing starts.
    /// * The EASY arm holds `h`, and the held `match` reserves its
    ///   shadow, `C`'s: `h` fits nowhere before the first release, and
    ///   the profiles at `t0` and at `now` agree from there on (see the
    ///   cycle kinds). After `h` the held `match` reserves nothing, so
    ///   each later job is admitted against `F` and that profile, both
    ///   less the jobs started before it. An old job did not fit `C`'s
    ///   profile, by the re-run's argument (see `carry_holds`), and the
    ///   full cycle's lies lower still: it is `Reserved` again. A new
    ///   job gets exactly the verdict `admit` gives it here.
    ///
    /// So the starts are the full cycle's, and so is every new job's
    /// reason. An old job ahead of every start sees `F`, as in `C`, and
    /// keeps `C`'s reason, which `C` committed; one behind a start sees
    /// `F` less those starts, and its shortage is read again.
    ///
    /// Conservative backfill takes the full path: a new job reserves a
    /// slot, which may move every later reservation, and so a later
    /// job's start.
    fn submit_only(
        &mut self,
        cluster: &mut Cluster,
        end: CycleEnd,
        old: usize,
        probe: &mut dyn CycleProbe,
    ) -> Vec<StartedJob> {
        let depth = self.pending.len();
        let discipline = self.spec.discipline;
        let now = end.now;
        // `C`'s holds, by queue position; the new jobs' entries follow.
        let new = self.pending[old..].iter();
        self.last_holds
            .extend(new.map(|job| (job.id, HoldReason::PolicyHold)));
        self.hold_changes.clear();
        let mut plan = Plan::new(now, end.free);
        // The head's shadow, reserved when a new job first reads the
        // profile.
        let head = &self.pending[0];
        let mut shadow = self
            .queued
            .get(head.id.raw())
            .filter(|_| end.shadow != SimTime::MAX)
            .map(|entry| (entry.demand, head.walltime));
        let mut started = Vec::new();
        let mut any_fits = end.any_fits;
        let mut refused = false;
        for p in 0..depth {
            let i = self.keys[p].1;
            if i < old && started.is_empty() {
                // Ahead of every start: `C`'s verdict and reason stand.
                probe.phase_start(CyclePhase::Admit);
                probe.phase_end(CyclePhase::Admit);
                continue;
            }
            let job = &self.pending[i];
            let Some(&entry) = self.queued.get(job.id.raw()) else {
                continue;
            };
            let demand = entry.demand;
            probe.phase_start(CyclePhase::Admit);
            let admitted = if i < old {
                // Behind a start: `C`'s verdict, under the EASY arm.
                Admit::Reserved
            } else {
                let fits = plan.free.covers(&demand);
                any_fits = any_fits || fits;
                if let Some((head, walltime)) = shadow.take_if(|_| fits) {
                    plan.profile(&self.running)
                        .reserve(&head, end.shadow, walltime);
                }
                admit(discipline, true, job, &demand, &mut plan, &self.running)
            };
            probe.phase_end(CyclePhase::Admit);
            let reason = match admitted {
                Admit::Start => {
                    let (queued, running) = (&mut self.queued, &mut self.running);
                    match plan.start(cluster, queued, running, job, &entry, probe) {
                        Ok(alloc) => {
                            started.push(StartedJob { job: job.id, alloc });
                            continue;
                        }
                        Err(reason) => {
                            refused = true;
                            reason
                        }
                    }
                }
                verdict => hold_reason(verdict, cluster, &plan.free, &demand),
            };
            self.last_holds[i] = (job.id, reason);
            if entry.reported != Some(reason) {
                self.hold_changes.push((job.id, reason));
            }
        }
        permute(&mut self.keys, |a, b| {
            self.pending.swap(a, b);
            self.last_holds.swap(a, b);
        });
        if !started.is_empty() {
            let queued = &self.queued;
            self.pending
                .retain(|job| queued.get(job.id.raw()).is_some());
            self.last_holds
                .retain(|(id, _)| queued.get(id.raw()).is_some());
        }
        self.total_started += started.len() as u64;
        let end = CycleEnd {
            free: plan.free,
            any_fits,
            started: !started.is_empty(),
            ..end
        };
        self.close(cluster, end, refused);
        probe.cycle_end(started.len(), self.pending.len());
        started
    }
}

/// Maps a live-allocation failure (a policy started a job the live
/// cluster cannot place) onto the same causes a hold's shortage reports,
/// so the ledger downstream never sees an unlabeled hold.
fn classify(err: &ClusterError) -> HoldReason {
    match err {
        ClusterError::InsufficientNodes { .. } => HoldReason::InsufficientNodes,
        ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. } => {
            HoldReason::InsufficientGres
        }
        _ => HoldReason::PolicyHold,
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

/// The admit `match`: whether `job`, next in order, starts now. `plan`
/// holds the live free vector and a profile of `running` with every
/// reservation made earlier in the cycle; `blocked` is the held `match`'s
/// flag. Inlined into both cycle loops, which call it once per job they
/// admit: as a call, perfbench `deep-queue` ran ~1.5% slower.
#[inline(always)]
fn admit(
    discipline: Discipline,
    blocked: bool,
    job: &PendingJob,
    demand: &Demand,
    plan: &mut Plan,
    running: &RunningSet,
) -> Admit {
    let now = plan.now;
    match discipline {
        Discipline::Fcfs => {
            if !blocked && plan.free.covers(demand) {
                Admit::Start
            } else {
                Admit::Hold
            }
        }
        // Reserve the job's earliest slot if it lies ahead, so no later
        // job can delay it.
        Discipline::ConservativeBackfill => {
            let profile = plan.profile(running);
            let slot = profile.find_slot(demand, job.walltime, now);
            if slot > now {
                profile.reserve(demand, slot, job.walltime);
                Admit::Reserved
            } else if plan.free.covers(demand) {
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
            if plan.free.covers(demand)
                && (!blocked || plan.profile(running).fits(demand, now, job.walltime))
            {
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
/// whether admit held it or the live cluster refused its start. Returns
/// the head's shadow when the EASY arm computes it.
fn held(
    discipline: Discipline,
    blocked: &mut bool,
    job: &PendingJob,
    demand: &Demand,
    plan: &mut Plan,
    running: &RunningSet,
) -> Option<SimTime> {
    match discipline {
        Discipline::Fcfs => {
            *blocked = true;
            None
        }
        // Conservative reserved in admit already.
        Discipline::ConservativeBackfill => None,
        // The first held job is the head: reserve its earliest slot, the
        // shadow, so nothing backfilled later in the cycle delays it.
        Discipline::EasyBackfill
        | Discipline::PriorityBackfill { .. }
        | Discipline::QuantumAware { .. } => {
            if *blocked {
                return None;
            }
            *blocked = true;
            let now = plan.now;
            let profile = plan.profile(running);
            let shadow = profile.find_slot(demand, job.walltime, now);
            if shadow != SimTime::MAX {
                profile.reserve(demand, shadow, job.walltime);
            }
            Some(shadow)
        }
    }
}

/// The reason a job that the admit `match` held with `verdict` reports:
/// the binding shortage of the live free vector `free` against its
/// demand. A `Reserved` job the machine fits waits only on a reservation
/// carved earlier in the cycle, and blames [`HoldReason::HeadShadow`].
fn hold_reason(verdict: Admit, cluster: &Cluster, free: &Demand, demand: &Demand) -> HoldReason {
    match (verdict, shortage(cluster, free, demand)) {
        (Admit::Reserved, HoldReason::PolicyHold) => HoldReason::HeadShadow,
        (_, reason) => reason,
    }
}

/// Applies sorted `keys` to the queue as a permutation: `keys[k].1` is
/// the position of the job that belongs at `k`. Follows each cycle of
/// the permutation, moving its jobs into place with `swap` and marking
/// each placed position with its own index.
fn permute(keys: &mut [(OrderKey, usize)], mut swap: impl FnMut(usize, usize)) {
    for first in 0..keys.len() {
        let mut at = first;
        loop {
            let from = std::mem::replace(&mut keys[at].1, at);
            if from == first {
                break;
            }
            swap(at, from);
            at = from;
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

    /// Counts the cycles that sorted the queue.
    #[derive(Debug, Default)]
    struct Orders(u32);

    impl CycleProbe for Orders {
        fn phase_start(&mut self, phase: CyclePhase) {
            if phase == CyclePhase::Order {
                self.0 += 1;
            }
        }
    }

    /// EASY on `cluster(10)`: job 10 runs on 6 nodes until t=100; head
    /// job 1 (all 10 nodes) is held with its shadow at t=100, and job 3
    /// (4 nodes for 1000 s) fits the 4 free nodes but not around the
    /// shadow. Both holds are committed. The priorities are QoS boosts.
    fn held_behind_a_shadow() -> (Cluster, BatchScheduler) {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::easy());
        s.submit(ranked(10, 6, 100, 300.0), &c).unwrap();
        s.submit(ranked(1, 10, 1_000, 200.0), &c).unwrap();
        s.submit(ranked(3, 4, 1_000, 0.0), &c).unwrap();
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 1);
        assert!(s.try_schedule(&mut c, SimTime::ZERO).is_empty());
        assert_eq!(
            s.last_holds(),
            &[
                (JobId::new(1), HoldReason::InsufficientNodes),
                (JobId::new(3), HoldReason::HeadShadow)
            ]
        );
        (c, s)
    }

    /// A job with `id`, `nodes`, `walltime_s` and a QoS boost, submitted
    /// at t=0.
    fn ranked(id: u64, nodes: u32, walltime_s: u64, qos_boost: f64) -> PendingJob {
        PendingJob {
            qos_boost,
            ..job(id, nodes, walltime_s, 0)
        }
    }

    #[test]
    fn submit_only_start_re_diagnoses_the_jobs_behind_it() {
        let (mut c, mut s) = held_behind_a_shadow();
        // Job 2 (2 nodes, ends before the shadow) ranks between the head
        // and job 3: it backfills, and job 3 is now short of nodes.
        s.submit(ranked(2, 2, 50, 100.0), &c).unwrap();
        let mut orders = Orders::default();
        let now = SimTime::from_secs(1);
        let started = s.try_schedule_probed(&mut c, now, &mut orders);
        assert_eq!(orders.0, 0, "a submit-only cycle sorts nothing");
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId::new(2));
        let short = [
            (JobId::new(1), HoldReason::InsufficientNodes),
            (JobId::new(3), HoldReason::InsufficientNodes),
        ];
        assert_eq!(s.last_holds(), &short);
        assert_eq!(s.hold_changes(), &short[1..]);
        // After the follow-up, two more jobs queue behind the head: the
        // first backfills into the last 2 nodes, the second finds none.
        assert!(s.try_schedule(&mut c, now).is_empty());
        s.submit(ranked(4, 2, 50, 50.0), &c).unwrap();
        s.submit(ranked(5, 1, 50, 40.0), &c).unwrap();
        let started = s.try_schedule_probed(&mut c, now, &mut orders);
        assert_eq!(orders.0, 0);
        assert_eq!(started[0].job, JobId::new(4));
        let ids: Vec<u64> = s.pending().iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, [1, 5, 3]);
        assert_eq!(
            s.hold_changes(),
            &[(JobId::new(5), HoldReason::InsufficientNodes)]
        );
    }

    #[test]
    fn submit_only_admits_every_new_job() {
        let (mut c, mut s) = held_behind_a_shadow();
        // Both new jobs end before the shadow and fit the 4 free nodes.
        s.submit(ranked(4, 2, 50, 50.0), &c).unwrap();
        s.submit(ranked(5, 2, 50, 40.0), &c).unwrap();
        let mut orders = Orders::default();
        let started = s.try_schedule_probed(&mut c, SimTime::from_secs(1), &mut orders);
        assert_eq!(orders.0, 0);
        let ids: Vec<u64> = started.iter().map(|st| st.job.raw()).collect();
        assert_eq!(ids, [4, 5]);
    }

    #[test]
    fn new_job_ahead_of_the_head_plans_in_full() {
        let (mut c, mut s) = held_behind_a_shadow();
        s.submit(ranked(2, 2, 50, 1_000.0), &c).unwrap();
        let mut orders = Orders::default();
        let started = s.try_schedule_probed(&mut c, SimTime::from_secs(1), &mut orders);
        assert_eq!(orders.0, 1, "the new job is the head");
        assert_eq!(started[0].job, JobId::new(2));
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
    fn walltime_past_the_horizon_starts() {
        for spec in [
            PolicySpec::fcfs(),
            PolicySpec::easy(),
            PolicySpec::conservative(),
            PolicySpec::priority_backfill(1.0),
            PolicySpec::quantum_aware(100.0),
        ] {
            let mut c = cluster(10);
            let mut s = BatchScheduler::new(spec);
            // Job 0 never ends: `now + walltime` saturates. Head job 1
            // then never fits, and job 2 plans against a profile whose
            // last release lies at the horizon.
            let forever = PendingJob {
                walltime: SimDuration::MAX,
                qos_boost: 100.0,
                ..job(0, 6, 0, 0)
            };
            s.submit(forever, &c).unwrap();
            s.submit(ranked(1, 6, 100, 50.0), &c).unwrap();
            s.submit(job(2, 2, 100, 0), &c).unwrap();
            let started = s.try_schedule(&mut c, SimTime::from_secs(10));
            let ids: Vec<u64> = started.iter().map(|st| st.job.raw()).collect();
            let backfills = spec.discipline != Discipline::Fcfs;
            let expected: &[u64] = if backfills { &[0, 2] } else { &[0] };
            assert_eq!(ids, expected, "{spec:?}");
            // Only job 0's release lies at the horizon.
            let p = s.availability_profile(&c, SimTime::from_secs(20));
            assert_eq!(p.free_at(SimTime::from_secs(1_000_000)).get(0), 4);
        }
    }

    #[test]
    fn plan_builds_its_profile_on_first_read() {
        let mut c = cluster(10);
        let mut s = BatchScheduler::new(PolicySpec::fcfs());
        s.submit(job(0, 4, 100, 0), &c).unwrap();
        assert_eq!(s.try_schedule(&mut c, SimTime::ZERO).len(), 1);
        let jobs = [job(1, 2, 50, 1), job(2, 1, 500, 1), job(3, 1, 20, 1)];
        for j in &jobs {
            s.submit(j.clone(), &c).unwrap();
        }
        let now = SimTime::from_secs(10);
        let mut eager = s.availability_profile(&c, now);
        let mut plan = Plan::new(now, Demand::free_of(&c));
        let start = |plan: &mut Plan, s: &mut BatchScheduler, c: &mut Cluster, j: &PendingJob| {
            let entry = *s.queued.get(j.id.raw()).unwrap();
            let (queued, running) = (&mut s.queued, &mut s.running);
            plan.start(c, queued, running, j, &entry, &mut NoProbe)
                .unwrap();
            entry.demand
        };
        // FCFS reads only the free vector, so neither its starts nor its
        // holds build a profile.
        let fcfs = |plan: &mut Plan, s: &BatchScheduler, blocked: bool, j: &PendingJob| {
            let demand = s.queued.get(j.id.raw()).unwrap().demand;
            admit(Discipline::Fcfs, blocked, j, &demand, plan, &s.running)
        };
        for j in &jobs[..2] {
            assert_eq!(fcfs(&mut plan, &s, false, j), Admit::Start);
            let demand = start(&mut plan, &mut s, &mut c, j);
            eager.reserve(&demand, now, j.walltime);
        }
        assert_eq!(fcfs(&mut plan, &s, true, &jobs[2]), Admit::Hold);
        assert!(
            plan.profile.is_none(),
            "starts before the first read build nothing"
        );
        assert_eq!(plan.free, Demand::free_of(&c));
        // The first read builds the profile after the starts: the one
        // built before them, with each start reserved.
        assert_eq!(plan.profile(&s.running), &eager);
        // A start after the build is reserved into it.
        let demand = start(&mut plan, &mut s, &mut c, &jobs[2]);
        eager.reserve(&demand, now, jobs[2].walltime);
        assert_eq!(plan.profile.as_ref(), Some(&eager));
        assert_eq!(plan.profile(&s.running), &s.availability_profile(&c, now));
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
