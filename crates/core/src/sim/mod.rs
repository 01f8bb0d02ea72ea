//! The facility simulator: a strategy-agnostic discrete-event loop over a
//! hybrid HPC–QC machine, driven by a pluggable [`StrategyDriver`] and
//! observed through a typed [`SimEvent`] stream.
//!
//! [`FacilitySim`] wires together every substrate crate: the
//! [`Cluster`] machine model, the [`BatchScheduler`], the [`QpuDevice`]s
//! and the metrics observers, then drives a deterministic event loop until
//! the workload drains. Every entry point reaches the loop through
//! [`FacilitySim::run_streamed_probed`]. The same seeded workload can be
//! replayed under all strategies, which is how every experiment isolates
//! the strategy effect.
//!
//! Strategy-specific behaviour lives in the [`crate::drivers`] modules;
//! the loop here only knows about submission plans, phases and the
//! lifecycle hooks of [`StrategyDriver`]. Metrics consumers are
//! [`SimObserver`]s fed the event stream: the two built-ins that assemble
//! the [`Outcome`] (job statistics and waste accounting), then whatever
//! the caller attaches, such as a
//! [`GanttObserver`](crate::observer::GanttObserver). None of them has
//! privileged access to the loop.
//!
//! This module owns the loop itself: the calendar events and their
//! fences, the live jobs, `drive` and the scheduling cycle. Each seam of
//! the loop is a child module owning its state: `lifecycle` (one attempt
//! of a job, from submit to release, kill or abort), `faults` (the fault
//! plan resolved once, recovery and requeue), `accounting` (per-job usage
//! and the [`Outcome`]) and `ctx` (the [`SimCtx`] levers).

use crate::driver::{driver_for, SimCtx, StrategyDriver, SubmissionPlan};
use crate::observer::{PhaseKind, SimEvent, SimObserver, StatsObserver, WasteObserver};
use crate::outcome::{DeviceSummary, Outcome, WasteSummary};
use crate::scenario::Scenario;
use crate::source::JobSource;
use hpcqc_cluster::alloc::{AllocRequest, Allocation, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::error::ClusterError;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::AllocationId;
use hpcqc_cluster::slot::Slot;
use hpcqc_faults::{CheckpointSpec, DeviceFaults, DriftModel, FaultPlan, NodeFaults, RecoverySpec};
use hpcqc_fleet::{DeviceId, QpuFleet};
use hpcqc_metrics::jobstats::JobRecord;
use hpcqc_metrics::waste::WasteTracker;
use hpcqc_qpu::device::QpuDevice;
use hpcqc_qpu::error::QpuError;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_sched::policy::HoldReason;
use hpcqc_sched::probe::{CycleProbe, NoProbe};
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob, SchedError};
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::events::{EventKey, EventQueue, Scheduled};
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_simcore::{IdMap, IdWindow};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobId, JobSpec, Phase};
use std::error::Error;
use std::fmt;

/// Why a simulation could not run to completion.
#[derive(Debug)]
pub enum SimError {
    /// The scheduler rejected a submission (e.g. job larger than machine).
    Sched(SchedError),
    /// A cluster operation failed (configuration inconsistency).
    Cluster(ClusterError),
    /// A device rejected a kernel (e.g. more qubits than the device has).
    Qpu(QpuError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Sched(e) => write!(f, "scheduler error: {e}"),
            SimError::Cluster(e) => write!(f, "cluster error: {e}"),
            SimError::Qpu(e) => write!(f, "qpu error: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<SchedError> for SimError {
    fn from(e: SchedError) -> Self {
        SimError::Sched(e)
    }
}
impl From<ClusterError> for SimError {
    fn from(e: ClusterError) -> Self {
        SimError::Cluster(e)
    }
}
impl From<QpuError> for SimError {
    fn from(e: QpuError) -> Self {
        SimError::Qpu(e)
    }
}

/// A calendar event.
///
/// Two fences retire an event that was replaced while pending (see
/// [`SimState::drive`]):
///
/// * the *key fence* covers [`Event::PhaseDone`], [`Event::KernelDone`],
///   [`Event::KernelFault`], [`Event::KernelRetry`] and
///   [`Event::KillJob`]. Each fires only while its job is live and still
///   holds the event's [`EventKey`] in [`Attempt::pending_event`] (in
///   [`Attempt::kill_event`] for `KillJob`); replacing or dropping that key
///   retires the event, and it carries no epoch;
/// * the *epoch fence* covers [`Event::StepSubmit`] and
///   [`Event::Checkpoint`], which no key tracks: each carries the epoch
///   of the attempt that scheduled it and is ignored once an abort has
///   bumped [`JobRun::epoch`].
///
/// The other events are not fenced.
#[derive(Debug)]
enum Event {
    /// A job reaches its submission time.
    Submit(JobId),
    /// A classical phase completes (key-fenced).
    PhaseDone(JobId),
    /// A kernel starts executing on the device (device accounting; fires
    /// even if the submitting job was killed — hardware queues don't abort).
    /// Carries the executing device's index for per-device observation.
    KernelExecStart(JobId, usize),
    /// A kernel finishes executing on the device (device accounting).
    KernelExecEnd(JobId, usize),
    /// The job observes kernel completion (after any access overhead;
    /// key-fenced).
    KernelDone(JobId),
    /// Per-step plans: submit the job's next step to the batch queue
    /// (epoch-fenced).
    StepSubmit(JobId, u32),
    /// Walltime enforcement: kill the job's current attempt (key-fenced
    /// by the kill timer).
    KillJob(JobId),
    /// Failure injection: a random node goes down.
    NodeFailure,
    /// Failure injection: a failed node returns to service.
    NodeRepair(hpcqc_cluster::ids::NodeId),
    /// Fault injection: QPU device `index` suffers an outage.
    DeviceFailure(usize),
    /// Fault injection: the device returns to service (outage repaired or
    /// forced recalibration done).
    DeviceRepairDone(usize),
    /// The job observes a transient kernel failure — fires in place of
    /// [`Event::KernelDone`]. Carries the executing device (key-fenced).
    KernelFault(JobId, usize),
    /// Retry backoff expired: re-dispatch the job's current kernel
    /// (key-fenced).
    KernelRetry(JobId),
    /// Periodic classical checkpoint (fenced on epoch *and* phase index,
    /// since phases advance without an epoch bump).
    Checkpoint(JobId, u32, usize),
}

/// Per-job live state. A `JobRun` exists from the moment the job is pulled
/// from its [`JobSource`] until it finalizes; [`SimState::jobs`] holding
/// them is the simulator's only per-job storage, so peak memory tracks
/// jobs *in flight*, not jobs simulated. The table boxes each `JobRun`:
/// a finalized job whose id still lies inside the live id window costs
/// one pointer there, not a whole `JobRun`.
///
/// Its state is grouped by lifetime: [`Usage`] lasts the job's life,
/// [`Attempt`] one attempt (every requeue replaces it), and [`Progress`]
/// as long as the job keeps its phase (a requeue that restarts from
/// phase 0 replaces it too).
#[derive(Debug)]
struct JobRun {
    spec: JobSpec,
    plan: SubmissionPlan,
    /// Bumped by every abort; fences the events no key tracks
    /// ([`Event::StepSubmit`], [`Event::Checkpoint`]).
    epoch: u32,
    /// Requeues spent so far. Walltime kills and fault requeues spend the
    /// same counter, each against its own budget (see [`SimState::requeue`]).
    requeues: u32,
    usage: Usage,
    attempt: Attempt,
    progress: Progress,
}

/// One attempt of a job: from its (re)submission to its completion or
/// abort. A per-step job keeps one attempt across its steps; a requeue
/// replaces it.
#[derive(Debug, Default)]
struct Attempt {
    alloc: Option<AllocationId>,
    device: Option<usize>,
    /// The device running this job's current kernel, from dispatch until
    /// the job observes its completion or failure, so an outage can
    /// interrupt exactly the kernels on it.
    in_flight: Option<usize>,
    /// The batch queue id of this job's not-yet-started submission, so an
    /// abort can withdraw it (a killed job must leave the queue too).
    queued_qid: Option<u64>,
    queued_at: SimTime,
    prev_phase_end: Option<SimTime>,
    /// The key of the one event that moves the job's current phase on: a
    /// [`Event::PhaseDone`], [`Event::KernelDone`], [`Event::KernelFault`]
    /// or [`Event::KernelRetry`]. Such an event fires only while its key
    /// is held here, so overwriting or clearing the key retires it.
    pending_event: Option<EventKey>,
    /// The key of the armed walltime-kill timer ([`Event::KillJob`]),
    /// fenced the same way; `None` while no timer is armed.
    kill_event: Option<EventKey>,
    // Walltime enforcement (see WalltimePolicy::Kill).
    current_walltime: SimDuration,
    classical_started: Option<SimTime>,
    classical_active_nodes: f64,
    classical_entry_frac: f64,
    classical_full_secs: f64,
    ckpt_cost_secs: f64,
    /// When the running classical phase ends, checkpoint stalls included;
    /// read only while `classical_started` is set.
    classical_end: SimTime,
    quantum_started: Option<SimTime>,
    /// The failed tries of the current kernel.
    kernel_attempts: u32,
    last_exec_device: Option<usize>,
}

/// How far a job has got: its phase, and the checkpoint-durable progress
/// of that phase, which a fault-driven restart resumes from instead of
/// zero.
#[derive(Debug, Default)]
struct Progress {
    phase_idx: usize,
    completed_frac: f64,
    last_checkpoint_at: Option<SimTime>,
}

impl JobRun {
    fn new(spec: JobSpec) -> Self {
        JobRun {
            spec,
            plan: SubmissionPlan::WholeJob { hold_qpu: false },
            epoch: 0,
            requeues: 0,
            usage: Usage::default(),
            attempt: Attempt::default(),
            progress: Progress::default(),
        }
    }

    /// The kernel of the current phase; `None` outside a quantum phase.
    fn current_kernel(&self) -> Option<&Kernel> {
        match self.spec.phases().get(self.progress.phase_idx)? {
            Phase::Quantum(kernel) => Some(kernel),
            Phase::Classical(_) => None,
        }
    }
}

/// The live state of `job` in `jobs`. Every caller holds a liveness
/// proof: the event loop fences each handler behind the key or epoch
/// fence in [`SimState::drive`] (see [`Event`]), and intra-handler code never finalizes a
/// job before its last lookup. A miss is therefore a simulator bug, not a
/// recoverable condition. A function of the table rather than of
/// [`SimState`], so an `emit!` payload can borrow a job's name while
/// the observers are borrowed mutably.
fn run_of(jobs: &IdWindow<JobRun>, job: JobId) -> &JobRun {
    jobs.get(job.raw())
        // hpcqc-lint: allow(D004, reason = "single audited lookup behind the drive() liveness fence; see doc comment")
        .expect("live job")
}

/// Emits one [`SimEvent`] to the built-in observers and every attached
/// extra, in deterministic order. A macro rather than a method so event
/// payloads can borrow job names while the observers are borrowed
/// mutably (disjoint fields).
macro_rules! emit {
    ($state:expr, $now:expr, $event:expr) => {{
        let now = $now;
        let event = $event;
        $state.stats_obs.on_event(now, &event);
        $state.waste_obs.on_event(now, &event);
        for observer in $state.extras.iter_mut() {
            observer.on_event(now, &event);
        }
    }};
}

// Declared after `emit!`, which they use.
mod accounting;
mod ctx;
mod faults;
mod lifecycle;
#[cfg(test)]
mod tests;

use accounting::Usage;
use faults::Faults;

/// Everything the event loop owns except the driver. Drivers reach it
/// through the [`SimCtx`] capability handle only.
#[derive(Debug)]
pub(crate) struct SimState<'o> {
    /// The scenario being run.
    scenario: Scenario,
    /// The classical machine: nodes, partitions and gres tokens.
    cluster: Cluster,
    /// The quantum partition's QPU gres pool, resolved once: starts read
    /// their granted units by this slot.
    qpu_slot: Option<Slot>,
    /// The batch queue. It also keeps the hold ledger: which
    /// [`SimEvent::JobHeld`] cause was last emitted per queued submission
    /// (see [`BatchScheduler::hold_changes`]).
    scheduler: BatchScheduler,
    /// The QPU devices, indexed like the fleet's devices.
    devices: Vec<QpuDevice>,
    /// The routing layer over `devices`, built from
    /// [`Scenario::machine`].
    fleet: QpuFleet,
    /// The simulation calendar.
    events: EventQueue<Event>,
    /// Live jobs only, keyed by raw [`JobId`]: inserted when pulled from
    /// the source, removed at finalization. Ids are issued in increasing
    /// order at spawn, so the table is an [`IdWindow`] over the live id
    /// range: an O(1) lookup by subtraction, and iteration (on device or
    /// node failure only) in id order. Its memory is the live jobs plus one
    /// pointer per id between the oldest live and the newest spawned job.
    jobs: IdWindow<JobRun>,
    /// The job each queued submission starts, keyed by raw qid (the
    /// scheduler's [`JobId`]): inserted at submit, removed at start or
    /// abort. Whether it starts a step or the whole job is the job's
    /// [`JobRun::plan`].
    queue_map: IdMap<u64, JobId>,
    /// The next fresh qid; qids are never reused.
    next_qid: u64,
    /// Built-in observer assembling the outcome's job statistics.
    stats_obs: StatsObserver,
    /// Built-in observer assembling the outcome's waste accounting.
    waste_obs: WasteObserver,
    /// Caller-attached observers, fed every event after the built-ins.
    extras: &'o mut [&'o mut dyn SimObserver],
    /// Access-mode overhead stream: one draw per dispatched kernel.
    access_rng: SimRng,
    /// The scenario's fault plan, resolved once, and its processes' state.
    faults: Faults,
    /// Jobs finalized so far; the run ends when this reaches `spawned`
    /// after the source is drained.
    completed: u64,
    /// Jobs pulled from the source so far (also the next fresh job id).
    spawned: u64,
    /// `true` once the source returned `None`.
    drained: bool,
    /// Monotonic clamp for arrival scheduling (sources must be
    /// time-ordered; a regression is clamped to the clock).
    last_arrival: SimTime,
    /// High-water mark of concurrently live jobs — the streaming memory
    /// bound reported in [`Outcome::peak_in_flight_jobs`].
    peak_live: usize,
}

/// The facility simulator. Five entry points run it, and every one of
/// them reaches the loop through [`FacilitySim::run_streamed_probed`]:
///
/// * [`FacilitySim::run`] and [`FacilitySim::run_observed`] take a
///   materialized [`Workload`];
/// * [`FacilitySim::run_streamed`] and
///   [`FacilitySim::run_streamed_observed`] pull from a [`JobSource`];
/// * [`FacilitySim::run_streamed_probed`] also takes the
///   [`StrategyDriver`] and a scheduler [`CycleProbe`]. A custom driver
///   runs through it with [`NoProbe`].
#[derive(Debug)]
pub struct FacilitySim<'o> {
    state: SimState<'o>,
    driver: Box<dyn StrategyDriver>,
}

impl<'o> FacilitySim<'o> {
    /// Runs `workload` under `scenario` to completion and returns the
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a job cannot ever fit the machine, a kernel
    /// exceeds its device, or the configuration is inconsistent.
    pub fn run(scenario: &Scenario, workload: &Workload) -> Result<Outcome, SimError> {
        FacilitySim::run_observed(scenario, workload, &mut [])
    }

    /// Like [`FacilitySim::run`], with extra [`SimObserver`]s attached to
    /// the event stream alongside the built-in metrics observers. The
    /// observers are borrowed, so the caller inspects them afterwards.
    ///
    /// # Errors
    ///
    /// See [`FacilitySim::run`].
    pub fn run_observed(
        scenario: &Scenario,
        workload: &Workload,
        observers: &'o mut [&'o mut dyn SimObserver],
    ) -> Result<Outcome, SimError> {
        FacilitySim::run_streamed_observed(
            scenario,
            &mut workload.jobs().iter().cloned(),
            observers,
        )
    }

    /// Runs a streamed workload to completion: jobs are pulled lazily from
    /// `source`, so memory tracks jobs in flight rather than jobs total.
    /// Produces the identical [`Outcome`] the materialized path would for
    /// the same job sequence.
    ///
    /// # Errors
    ///
    /// See [`FacilitySim::run`].
    pub fn run_streamed(
        scenario: &Scenario,
        source: &mut dyn JobSource,
    ) -> Result<Outcome, SimError> {
        FacilitySim::run_streamed_observed(scenario, source, &mut [])
    }

    /// Streaming variant of [`FacilitySim::run_observed`].
    ///
    /// # Errors
    ///
    /// See [`FacilitySim::run`].
    pub fn run_streamed_observed(
        scenario: &Scenario,
        source: &mut dyn JobSource,
        observers: &'o mut [&'o mut dyn SimObserver],
    ) -> Result<Outcome, SimError> {
        FacilitySim::run_streamed_probed(
            scenario,
            source,
            driver_for(&scenario.strategy),
            observers,
            &mut NoProbe,
        )
    }

    /// The one way into the event loop; every other `run*` delegates
    /// here. `driver` replaces the built-in driver for
    /// `scenario.strategy` (which is then ignored), so any allocation
    /// discipline expressible through the driver hooks runs on the
    /// unmodified loop. Every planning cycle reports its queue depth,
    /// phase boundaries and start/hold outcome to `probe`; pass
    /// [`NoProbe`] for none, which compiles the hooks away (a `&mut dyn
    /// CycleProbe` works too). The probe only watches: simulation results
    /// are byte-identical to the unprobed run (see `hpcqc-trace`'s
    /// `SchedProfiler` for the wall-clock profiler built on this hook).
    ///
    /// # Errors
    ///
    /// See [`FacilitySim::run`].
    pub fn run_streamed_probed<P: CycleProbe + ?Sized>(
        scenario: &Scenario,
        source: &mut dyn JobSource,
        driver: Box<dyn StrategyDriver>,
        observers: &'o mut [&'o mut dyn SimObserver],
        probe: &mut P,
    ) -> Result<Outcome, SimError> {
        let mut sim = FacilitySim::new(scenario.clone(), driver, observers);
        {
            let FacilitySim { state, driver } = &mut sim;
            // Prime the pump: the first arrival must be on the calendar
            // before the loop starts popping.
            state.spawn_next(source);
            state.drive(driver.as_mut(), source, probe)?;
        }
        Ok(sim.into_outcome())
    }

    fn new(
        scenario: Scenario,
        driver: Box<dyn StrategyDriver>,
        extras: &'o mut [&'o mut dyn SimObserver],
    ) -> Self {
        let machine = scenario.machine().into_owned();
        let gres_units = driver.gres_per_device() * machine.devices.len() as u32;
        let cluster = ClusterBuilder::new()
            .partition("classical", scenario.classical_nodes)
            .partition_with_gres("quantum", 0, GresKind::qpu(), gres_units)
            .build(SimTime::ZERO);
        let qpu_slot = cluster
            .gres_slot("quantum", &GresKind::qpu())
            .map(|slot| cluster.slots()[slot]);
        let root = SimRng::seed_from(scenario.seed);
        let devices: Vec<QpuDevice> = machine
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut dev = QpuDevice::new(
                    d.name.clone(),
                    d.technology,
                    root.fork_indexed("device", i as u64),
                );
                if let Some(qubits) = d.qubits {
                    dev = dev.with_qubits(qubits);
                }
                if !d.calibration.unwrap_or(scenario.device_calibration) {
                    dev = dev.with_calibration(None);
                }
                dev
            })
            .collect();
        let fleet = QpuFleet::new(machine);
        let mut events = EventQueue::new();
        let scheduler = BatchScheduler::new(scenario.policy);
        let waste_obs = WasteObserver::new(
            SimTime::ZERO,
            f64::from(scenario.classical_nodes),
            devices.len() as f64,
        );
        let faults = Faults::new(scenario.faults.as_ref(), &root, devices.len(), &mut events);
        FacilitySim {
            state: SimState {
                access_rng: root.fork("access"),
                faults,
                scenario,
                cluster,
                qpu_slot,
                scheduler,
                devices,
                fleet,
                events,
                jobs: IdWindow::new(),
                queue_map: IdMap::new(),
                next_qid: 0,
                stats_obs: StatsObserver::new(),
                waste_obs,
                extras,
                completed: 0,
                spawned: 0,
                drained: false,
                last_arrival: SimTime::ZERO,
                peak_live: 0,
            },
            driver,
        }
    }
}

impl<'o> SimState<'o> {
    /// The live state of `job`; see [`run_of`].
    fn live(&self, job: JobId) -> &JobRun {
        run_of(&self.jobs, job)
    }

    /// Mutable counterpart of [`SimState::live`].
    fn live_mut(&mut self, job: JobId) -> &mut JobRun {
        self.jobs
            .get_mut(job.raw())
            // hpcqc-lint: allow(D004, reason = "single audited lookup behind the drive() liveness fence; see doc comment")
            .expect("live job")
    }

    /// Pulls the next job from the source (if any), registers its live
    /// state and schedules its arrival in the calendar's front lane. The
    /// front lane is what makes lazy pulling *exactly* equivalent to
    /// scheduling every arrival up front: an arrival always sorts before
    /// completion events sharing its timestamp, whenever it was scheduled.
    fn spawn_next(&mut self, source: &mut dyn JobSource) {
        let Some(spec) = source.next_job() else {
            self.drained = true;
            return;
        };
        // Sources promise non-decreasing submit times; clamp a regression
        // to the clock rather than panicking deep in the event queue.
        let submit = spec.submit().max(self.last_arrival).max(self.events.now());
        self.last_arrival = submit;
        let id = JobId::new(self.spawned);
        self.spawned += 1;
        self.jobs.insert(id.raw(), JobRun::new(spec));
        self.peak_live = self.peak_live.max(self.jobs.len());
        self.events.schedule_front(submit, Event::Submit(id));
    }

    /// Whether `ev` was replaced while pending, by the key fence (see
    /// [`Event`]): a key-fenced event whose job finalized, or whose job
    /// no longer holds its key. Events the key fence does not cover are
    /// never replaced.
    fn replaced(&self, ev: &Scheduled<Event>) -> bool {
        let (job, kill_timer) = match ev.payload {
            Event::PhaseDone(job)
            | Event::KernelDone(job)
            | Event::KernelFault(job, _)
            | Event::KernelRetry(job) => (job, false),
            Event::KillJob(job) => (job, true),
            _ => return false,
        };
        self.jobs.get(job.raw()).is_none_or(|run| {
            let held = if kill_timer {
                run.attempt.kill_event
            } else {
                run.attempt.pending_event
            };
            held != Some(ev.key)
        })
    }

    fn drive<P: CycleProbe + ?Sized>(
        &mut self,
        driver: &mut dyn StrategyDriver,
        source: &mut dyn JobSource,
        probe: &mut P,
    ) -> Result<(), SimError> {
        while let Some(ev) = self.events.pop() {
            // An event the key fence retires leaves no trace: no handler,
            // no cycle, as if the calendar had never held it. Nor can it
            // be the last pop, since the loop breaks right after the
            // event that finalizes the last job, so the clock
            // `into_outcome` reads is the same as if it had never been
            // scheduled. (An epoch-fenced event skips only its handler.)
            if self.replaced(&ev) {
                continue;
            }
            let now = ev.time;
            match ev.payload {
                Event::Submit(job) => {
                    // Pull the successor before handling this arrival, so
                    // its Submit lands in the front lane ahead of anything
                    // this handler schedules.
                    self.spawn_next(source);
                    self.on_submit(driver, job, now)?;
                }
                Event::PhaseDone(job) => self.on_phase_done(driver, job, now)?,
                // Device accounting events outlive their job (a killed
                // job's kernel still executes), so no liveness check.
                Event::KernelExecStart(job, device) => {
                    emit!(self, now, SimEvent::KernelExecStarted { job, device });
                }
                Event::KernelExecEnd(job, device) => {
                    emit!(self, now, SimEvent::KernelExecEnded { job, device });
                }
                Event::KernelDone(job) => self.on_kernel_done(driver, job, now)?,
                Event::StepSubmit(job, epoch) => {
                    if self.jobs.get(job.raw()).is_some_and(|r| r.epoch == epoch) {
                        self.submit_step(job, now)?;
                    }
                }
                Event::KillJob(job) => {
                    // The timer just fired: disarm it.
                    self.live_mut(job).attempt.kill_event = None;
                    self.kill_job(driver, job, now)?;
                }
                Event::NodeFailure => self.on_node_failure(driver, now)?,
                Event::NodeRepair(node) => {
                    self.cluster.restore_node(node)?;
                    emit!(self, now, SimEvent::NodeRepaired { node });
                }
                Event::DeviceFailure(device) => self.on_device_failure(driver, device, now)?,
                Event::DeviceRepairDone(device) => self.on_device_repair(device, now),
                Event::KernelFault(job, device) => self.fail_kernel(driver, job, device, now)?,
                Event::KernelRetry(job) => self.on_kernel_retry(driver, job, now)?,
                Event::Checkpoint(job, epoch, phase_idx) => {
                    if self.jobs.get(job.raw()).is_some_and(|r| {
                        r.epoch == epoch
                            && r.progress.phase_idx == phase_idx
                            && r.attempt.classical_started.is_some()
                    }) {
                        self.on_checkpoint(job, now);
                    }
                }
            }
            self.cycle(driver, now, probe)?;
            // The proptest suite runs debug builds: verify the machine
            // invariants after *every* event, not just at the end.
            debug_assert!(
                self.cluster.check_invariants().is_ok(),
                "cluster invariant violated at {now}: {:?}",
                self.cluster.check_invariants()
            );
            // Failure/repair events self-perpetuate; once the source has
            // drained and every job finalized there is nothing to observe.
            if self.drained && self.completed == self.spawned {
                break;
            }
        }
        debug_assert_eq!(self.completed, self.spawned, "all jobs must complete");
        debug_assert!(self.jobs.is_empty(), "live jobs leaked past completion");
        debug_assert!(self.cluster.check_invariants().is_ok());
        Ok(())
    }

    /// One scheduling cycle: start whatever the policy admits. Runs after
    /// every event, but skips the planning pass (and the hold diff, which
    /// would find no change) while the scheduler is settled: no job was
    /// submitted, cancelled or started since a cycle that found no queued
    /// demand fitting the free vector, and the free vector is unchanged.
    /// Such a cycle would start nothing and re-report the same holds; see
    /// [`BatchScheduler::is_settled`] for the proof. Otherwise the
    /// scheduler picks the cycle's kind from what the loop told it since
    /// its last cycle: after a submit alone onto a held queue it plans
    /// only the new job, after nothing but the clock it keeps its holds
    /// (see [`BatchScheduler::try_schedule_probed`]).
    fn cycle<P: CycleProbe + ?Sized>(
        &mut self,
        driver: &mut dyn StrategyDriver,
        now: SimTime,
        probe: &mut P,
    ) -> Result<(), SimError> {
        if self.scheduler.is_settled(&self.cluster) {
            probe.cycle_skipped(now, self.scheduler.pending_len());
            return Ok(());
        }
        loop {
            let started = self
                .scheduler
                .try_schedule_probed(&mut self.cluster, now, probe);
            if started.is_empty() {
                self.emit_hold_changes(now);
                return Ok(());
            }
            for st in started {
                let job = self
                    .queue_map
                    .remove(&st.job.raw())
                    // hpcqc-lint: allow(D004, reason = "enqueue() registered the qid at submit; only a start (here) or an abort removes it")
                    .expect("started job must have a queue entry");
                self.on_started(driver, job, st.alloc, now)?;
            }
            // A start handler can free capacity: malleable's
            // `on_quantum_enter` shrinks a job that opens with a quantum
            // phase, inside the handler. So plan again until a pass starts
            // nothing. If no handler touched the cluster or the queue, the
            // re-run is the scheduler's same-instant follow-up: it
            // re-diagnoses only the jobs held ahead of the last start, with
            // no sort, profile or admit loop (see
            // `BatchScheduler::try_schedule_probed`).
        }
    }

    /// Emits a [`SimEvent::JobHeld`] for every queued submission whose
    /// binding cause changed in the non-starting cycle that just ran
    /// (including the first diagnosis at submit time). Purely
    /// observational: the scheduler keeps the hold ledger (see
    /// [`BatchScheduler::hold_changes`]), and nothing here feeds back
    /// into scheduling state.
    fn emit_hold_changes(&mut self, now: SimTime) {
        for &(qid, reason) in self.scheduler.hold_changes() {
            let Some(&job) = self.queue_map.get(&qid.raw()) else {
                continue;
            };
            emit!(
                self,
                now,
                SimEvent::JobHeld {
                    job,
                    name: run_of(&self.jobs, job).spec.name(),
                    reason,
                }
            );
        }
    }
}
