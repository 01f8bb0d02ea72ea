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
use hpcqc_faults::{CheckpointSpec, DeviceFaults, FaultPlan, RecoverySpec};
use hpcqc_fleet::{DeviceId, QpuFleet};
use hpcqc_metrics::jobstats::JobRecord;
use hpcqc_metrics::waste::WasteTracker;
use hpcqc_qpu::device::QpuDevice;
use hpcqc_qpu::error::QpuError;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_sched::policy::HoldReason;
use hpcqc_sched::probe::{CycleProbe, NoProbe};
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob, SchedError};
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
///   holds the event's [`EventKey`] in [`JobRun::pending_event`] (in
///   [`JobRun::kill_event`] for `KillJob`); replacing or dropping that key
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

#[derive(Debug, Clone, Copy)]
enum QueueEntry {
    /// A whole-job submission.
    JobStart(JobId),
    /// A single per-step submission of the job.
    Step(JobId),
}

/// Per-job live state. A `JobRun` exists from the moment the job is pulled
/// from its [`JobSource`] until it finalizes; [`SimState::jobs`] holding
/// them is the simulator's only per-job storage, so peak memory tracks
/// jobs *in flight*, not jobs simulated. The table boxes each `JobRun`:
/// a finalized job whose id still lies inside the live id window costs
/// one pointer there, not a whole `JobRun`.
#[derive(Debug)]
struct JobRun {
    spec: JobSpec,
    plan: SubmissionPlan,
    phase_idx: usize,
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
    first_start: Option<SimTime>,
    phase_wait: SimDuration,
    // Exact per-job integrals, maintained at every transition.
    alloc_nodes: u32,
    alloc_nodes_since: SimTime,
    node_seconds_alloc: f64,
    node_seconds_used: f64,
    qpu_alloc_units: u32,
    qpu_alloc_since: SimTime,
    qpu_seconds_alloc: f64,
    qpu_seconds_used: f64,
    /// Bumped by every abort; fences the events no key tracks
    /// ([`Event::StepSubmit`], [`Event::Checkpoint`]).
    epoch: u32,
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
    quantum_started: Option<SimTime>,
    requeues: u32,
    // Fault recovery (see Scenario::faults). `kernel_attempts` counts the
    // failed tries of the *current* kernel; `completed_frac` is the
    // checkpoint-durable progress of the current classical phase, which a
    // fault-driven restart resumes from instead of zero.
    kernel_attempts: u32,
    last_exec_device: Option<usize>,
    completed_frac: f64,
    classical_entry_frac: f64,
    classical_full_secs: f64,
    ckpt_cost_secs: f64,
    classical_end: Option<SimTime>,
    last_checkpoint_at: Option<SimTime>,
    /// `node_seconds_used` at the start of the current attempt, so a
    /// restart-from-zero can report exactly this attempt's work as rewound.
    attempt_used_base: f64,
}

impl JobRun {
    fn new(spec: JobSpec) -> Self {
        JobRun {
            spec,
            plan: SubmissionPlan::WholeJob { hold_qpu: false },
            phase_idx: 0,
            alloc: None,
            device: None,
            in_flight: None,
            queued_qid: None,
            queued_at: SimTime::ZERO,
            prev_phase_end: None,
            first_start: None,
            phase_wait: SimDuration::ZERO,
            alloc_nodes: 0,
            alloc_nodes_since: SimTime::ZERO,
            node_seconds_alloc: 0.0,
            node_seconds_used: 0.0,
            qpu_alloc_units: 0,
            qpu_alloc_since: SimTime::ZERO,
            qpu_seconds_alloc: 0.0,
            qpu_seconds_used: 0.0,
            epoch: 0,
            pending_event: None,
            kill_event: None,
            current_walltime: SimDuration::ZERO,
            classical_started: None,
            classical_active_nodes: 0.0,
            quantum_started: None,
            requeues: 0,
            kernel_attempts: 0,
            last_exec_device: None,
            completed_frac: 0.0,
            classical_entry_frac: 0.0,
            classical_full_secs: 0.0,
            ckpt_cost_secs: 0.0,
            classical_end: None,
            last_checkpoint_at: None,
            attempt_used_base: 0.0,
        }
    }

    /// Closes the running node-allocation integral at `now` and sets a new
    /// allocated-node count.
    fn set_alloc_nodes(&mut self, now: SimTime, nodes: u32) {
        self.node_seconds_alloc += f64::from(self.alloc_nodes)
            * now.saturating_since(self.alloc_nodes_since).as_secs_f64();
        self.alloc_nodes = nodes;
        self.alloc_nodes_since = now;
    }

    /// Same for exclusive QPU gres units.
    fn set_qpu_units(&mut self, now: SimTime, units: u32) {
        self.qpu_seconds_alloc += f64::from(self.qpu_alloc_units)
            * now.saturating_since(self.qpu_alloc_since).as_secs_f64();
        self.qpu_alloc_units = units;
        self.qpu_alloc_since = now;
    }

    /// The kernel of the current phase; `None` outside a quantum phase.
    fn current_kernel(&self) -> Option<&Kernel> {
        match self.spec.phases().get(self.phase_idx)? {
            Phase::Quantum(kernel) => Some(kernel),
            Phase::Classical(_) => None,
        }
    }
}

/// The `unit % n`-th of the `n` devices `devices` yields, or `None` if it
/// yields none; walks the iterator twice rather than collecting it.
fn nth_cyclic(mut devices: impl Iterator<Item = usize> + Clone, unit: u32) -> Option<usize> {
    let n = devices.clone().count();
    if n == 0 {
        return None;
    }
    devices.nth(unit as usize % n)
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
    /// What each queued submission starts, keyed by raw qid (the
    /// scheduler's [`JobId`]): inserted at submit, removed at start or
    /// abort.
    queue_map: IdMap<u64, QueueEntry>,
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
    /// Node-failure stream (a fault plan's node section): failure times,
    /// victims and repair times.
    failure_rng: SimRng,
    /// Per-device fault-process streams (outage timing, recalibration
    /// durations), forked by `(seed, label, index)` alone so their mere
    /// existence cannot perturb any pre-existing stream.
    device_fault_rngs: Vec<SimRng>,
    /// Transient kernel-error stream: one draw per dispatched kernel when
    /// an active fault plan sets a nonzero error rate.
    kernel_error_rng: SimRng,
    /// Fault-injected downtime per device, as a counter: an outage and a
    /// forced recalibration may overlap, and the device is back in service
    /// only once every pending repair has completed.
    device_down: Vec<u32>,
    /// Accumulated calibration drift per device, in fault-plan units.
    device_drift: Vec<f64>,
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
        let mut failure_rng = root.fork("failures");
        if let Some(node) = scenario.faults.as_ref().and_then(|p| p.node.as_ref()) {
            let first = node.mtbf.sample_duration(&mut failure_rng);
            events.schedule(SimTime::ZERO + first, Event::NodeFailure);
        }
        let mut device_fault_rngs: Vec<SimRng> = (0..devices.len())
            .map(|i| root.fork_indexed("device-faults", i as u64))
            .collect();
        if let Some((mtbf, _)) = scenario
            .faults
            .as_ref()
            .and_then(|p| p.device.as_ref())
            .and_then(DeviceFaults::outage_process)
        {
            for (i, rng) in device_fault_rngs.iter_mut().enumerate() {
                let first = mtbf.sample_duration(rng);
                events.schedule(SimTime::ZERO + first, Event::DeviceFailure(i));
            }
        }
        FacilitySim {
            state: SimState {
                access_rng: root.fork("access"),
                failure_rng,
                kernel_error_rng: root.fork("kernel-errors"),
                device_fault_rngs,
                device_down: vec![0; devices.len()],
                device_drift: vec![0.0; devices.len()],
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

    // ----- outcome ---------------------------------------------------------

    fn into_outcome(self) -> Outcome {
        let state = self.state;
        let stats = state.stats_obs.into_stats();
        // Device work may outlive the last job record (a killed job's
        // kernel still executes), so the accounting window runs to the last
        // processed event, not just the last completion.
        let end = stats
            .makespan()
            .max(state.events.now())
            .max(SimTime::from_nanos(1));
        let span = end.as_secs_f64();
        let devices = state
            .devices
            .iter()
            .map(|d| DeviceSummary {
                name: d.name().to_string(),
                technology: d.technology(),
                tasks: d.tasks_executed(),
                busy_seconds: d.total_busy().as_secs_f64(),
                utilization: if span > 0.0 {
                    (d.total_busy().as_secs_f64() / span).min(1.0)
                } else {
                    0.0
                },
                recalibration_seconds: d.total_recalibration().as_secs_f64(),
            })
            .collect();
        let summarize = |tracker: &WasteTracker| WasteSummary {
            allocated_fraction: tracker.allocated_fraction(end),
            used_fraction: tracker.used_fraction(end),
            efficiency: tracker.efficiency(end),
            wasted_unit_seconds: tracker.wasted_unit_seconds(end),
        };
        Outcome {
            makespan: end,
            node_waste: summarize(state.waste_obs.node()),
            qpu_waste: summarize(state.waste_obs.qpu()),
            devices,
            peak_in_flight_jobs: state.peak_live,
            stats,
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
                run.kill_event
            } else {
                run.pending_event
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
                    self.live_mut(job).kill_event = None;
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
                            && r.phase_idx == phase_idx
                            && r.classical_started.is_some()
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

    /// Fails a uniformly random up-node of the fault plan's node process;
    /// the owning job (if any) is killed and requeued within the recovery
    /// budget, resuming from its last classical checkpoint when
    /// checkpoint-restart is configured. Schedules the repair and the next
    /// failure.
    fn on_node_failure(
        &mut self,
        driver: &mut dyn StrategyDriver,
        now: SimTime,
    ) -> Result<(), SimError> {
        let Some(process) = self.scenario.faults.as_ref().and_then(|p| p.node.clone()) else {
            return Ok(());
        };
        // Pick among currently-up nodes (failed ones cannot fail again).
        let up: Vec<_> = self
            .cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable())
            .map(|n| n.id())
            .collect();
        if !up.is_empty() {
            let node = *self.failure_rng.pick(&up);
            let owner = self.cluster.fail_node(node)?;
            emit!(self, now, SimEvent::NodeFailed { node });
            let repair_in = process.repair.sample_duration(&mut self.failure_rng);
            // An instant past `SimTime::MAX` never comes (here and for every
            // fault-process instant): saturated, it would fire at the end
            // of time.
            if let Some(at) = now.checked_add(repair_in) {
                self.events.schedule(at, Event::NodeRepair(node));
            }
            // The owner's job is the live job holding that allocation.
            let victim = owner.and_then(|alloc| {
                self.jobs
                    .iter()
                    .find(|(_, run)| run.alloc == Some(alloc))
                    .map(|(raw, _)| JobId::new(raw))
            });
            if let Some(job) = victim {
                // With checkpoint-restart the job keeps its phase and
                // re-does only the work since its last durable checkpoint.
                let run = self.live(job);
                let checkpoint_rewind = match (self.checkpoint_cfg(), run.classical_started) {
                    (Some(_), Some(started)) => {
                        let from = run.last_checkpoint_at.map_or(started, |c| c.max(started));
                        Some(run.classical_active_nodes * now.saturating_since(from).as_secs_f64())
                    }
                    _ => None,
                };
                self.requeue_after_fault(driver, job, checkpoint_rewind, now)?;
            }
        }
        let next = process.mtbf.sample_duration(&mut self.failure_rng);
        if let Some(at) = now.checked_add(next) {
            self.events.schedule(at, Event::NodeFailure);
        }
        Ok(())
    }

    /// Shared fault-requeue tail (node failure, or kernel retries
    /// exhausted): aborts the attempt, then fails the job once it has
    /// spent the recovery policy's requeue budget. Otherwise it resets the
    /// per-attempt recovery state, reports the rewound work in
    /// [`SimEvent::JobRestarted`] and resubmits. `checkpoint_rewind` keeps
    /// the job's phase and rewinds that much node work; `None` restarts
    /// from phase 0 and rewinds the whole attempt.
    fn requeue_after_fault(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        checkpoint_rewind: Option<f64>,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.abort_attempt(driver, job, now)?;
        if self.live(job).requeues >= self.recovery().requeue_budget() {
            self.finalize(job, now, false);
            return Ok(());
        }
        let keep_phase = checkpoint_rewind.is_some();
        let rewound = {
            let run = self.live_mut(job);
            let rewound = checkpoint_rewind
                .unwrap_or((run.node_seconds_used - run.attempt_used_base).max(0.0));
            run.requeues += 1;
            run.kernel_attempts = 0;
            run.last_exec_device = None;
            run.device = None;
            run.prev_phase_end = None;
            if !keep_phase {
                run.phase_idx = 0;
                run.completed_frac = 0.0;
                run.last_checkpoint_at = None;
            }
            run.attempt_used_base = run.node_seconds_used;
            rewound
        };
        emit!(
            self,
            now,
            SimEvent::JobRestarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                rewound_node_seconds: rewound,
            }
        );
        self.on_submit(driver, job, now)
    }

    // ----- fault machinery -------------------------------------------------

    /// The scenario's fault plan, when it actually injects something.
    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.scenario.faults.as_ref().filter(|p| !p.is_inert())
    }

    /// The active device fault process, if any.
    fn device_faults(&self) -> Option<&DeviceFaults> {
        self.fault_plan().and_then(|p| p.device.as_ref())
    }

    /// The effective recovery policy (defaults when the plan omits one).
    fn recovery(&self) -> RecoverySpec {
        self.scenario
            .faults
            .as_ref()
            .map_or_else(RecoverySpec::default, FaultPlan::recovery_or_default)
    }

    /// Checkpoint-restart configuration, when an active plan enables it.
    fn checkpoint_cfg(&self) -> Option<CheckpointSpec> {
        self.fault_plan()
            .and_then(|p| p.recovery.as_ref())
            .and_then(|r| r.checkpoint.clone())
    }

    /// `true` when `device` is currently out of service through fault
    /// injection (outage or forced recalibration).
    fn device_injected_down(&self, device: usize) -> bool {
        self.device_down.get(device).copied().unwrap_or(0) > 0
    }

    /// Adjusts the injected-downtime counter for `device` and mirrors the
    /// resulting service state into the fleet's routing metadata (a
    /// spec'd-down device stays down regardless of repairs).
    fn set_device_down(&mut self, device: usize, down: bool) {
        let Some(counter) = self.device_down.get_mut(device) else {
            return;
        };
        if down {
            *counter += 1;
        } else {
            *counter = counter.saturating_sub(1);
        }
        let injected = *counter > 0;
        let spec_down = self.spec_down(device);
        self.fleet.set_down(device, spec_down || injected);
    }

    /// `true` when the machine description takes `device` out of service
    /// for the whole run.
    fn spec_down(&self, device: usize) -> bool {
        self.fleet.spec().devices.get(device).and_then(|d| d.down) == Some(true)
    }

    /// A QPU outage: the device leaves service, in-flight kernels on it
    /// fail (their jobs enter kernel recovery), and the repair plus the
    /// next outage are scheduled. Kernels merely *queued* in the device
    /// model keep their timing — downtime is charged through routing and
    /// dispatch, not by rebuilding device queues.
    fn on_device_failure(
        &mut self,
        driver: &mut dyn StrategyDriver,
        device: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let Some((mtbf, repair)) = self
            .device_faults()
            .and_then(DeviceFaults::outage_process)
            .map(|(m, r)| (m.clone(), r.clone()))
        else {
            return Ok(());
        };
        let rng = &mut self.device_fault_rngs[device];
        let repair_in = repair.sample_duration(rng);
        let next = mtbf.sample_duration(rng);
        self.set_device_down(device, true);
        emit!(
            self,
            now,
            SimEvent::DeviceFailed {
                device,
                recalibration: false,
            }
        );
        let repaired = now.checked_add(repair_in);
        if let Some(at) = repaired {
            self.events.schedule(at, Event::DeviceRepairDone(device));
        }
        // The next outage clock starts once the device is back up.
        if let Some(at) = repaired.and_then(|t| t.checked_add(next)) {
            self.events.schedule(at, Event::DeviceFailure(device));
        }
        let victims: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, run)| run.in_flight == Some(device))
            .map(|(raw, _)| JobId::new(raw))
            .collect();
        for job in victims {
            self.fail_kernel(driver, job, device, now)?;
        }
        Ok(())
    }

    /// Outage repaired or forced recalibration finished: the device
    /// returns to service once *all* overlapping downtimes have cleared.
    fn on_device_repair(&mut self, device: usize, now: SimTime) {
        self.set_device_down(device, false);
        if !self.device_injected_down(device) {
            emit!(self, now, SimEvent::DeviceRepaired { device });
        }
    }

    /// Books a dispatched kernel's `shots` against device drift; crossing
    /// the threshold takes the device out of service for a forced
    /// recalibration. The kernel just dispatched still runs —
    /// recalibration starts once the device drains, and only future
    /// routing sees the downtime.
    fn accrue_drift(&mut self, device: usize, shots: u32, now: SimTime) {
        let Some(drift) = self.device_faults().and_then(|d| d.drift.clone()) else {
            return;
        };
        self.device_drift[device] += drift.per_shot * f64::from(shots);
        if self.device_drift[device] < drift.threshold {
            return;
        }
        self.device_drift[device] = 0.0;
        let down = drift
            .recalibration_dist()
            .sample_duration(&mut self.device_fault_rngs[device]);
        self.set_device_down(device, true);
        emit!(
            self,
            now,
            SimEvent::DeviceFailed {
                device,
                recalibration: true,
            }
        );
        if let Some(at) = now.checked_add(down) {
            self.events.schedule(at, Event::DeviceRepairDone(device));
        }
    }

    /// No routable device right now (outage or recalibration): hold the
    /// kernel and try again after the base backoff (at least 1 s, so a
    /// zero-backoff policy cannot spin the clock in place). Does not
    /// consume a retry attempt — the kernel never ran.
    fn park_for_recovery(&mut self, job: JobId, now: SimTime) -> Result<(), SimError> {
        let delay = self.recovery().backoff(1).max_of(SimDuration::from_secs(1));
        let key = self
            .events
            .schedule(now.saturating_add(delay), Event::KernelRetry(job));
        self.live_mut(job).pending_event = Some(key);
        emit!(
            self,
            now,
            SimEvent::JobHeld {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                reason: HoldReason::FaultRecovery,
            }
        );
        Ok(())
    }

    /// `job`'s in-flight kernel failed: a transient error fired its
    /// `KernelFault` completion, or a device outage interrupted it.
    /// Retires the completion event (by dropping its key) and runs the
    /// kernel failure path.
    fn fail_kernel(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        device: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let run = self.live_mut(job);
        run.in_flight = None;
        run.pending_event = None;
        self.handle_kernel_failure(driver, job, device, now)
    }

    /// Books a kernel failure and either schedules a capped, exponentially
    /// backed-off retry or escalates to a fault requeue (resuming at this
    /// phase when classical progress is checkpointed).
    fn handle_kernel_failure(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        device: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let (index, started) = {
            let run = self.live_mut(job);
            (run.phase_idx, run.quantum_started.take().unwrap_or(now))
        };
        emit!(
            self,
            now,
            SimEvent::PhaseEnded {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                kind: PhaseKind::Quantum,
                index,
                busy_nodes: 0.0,
                started,
            }
        );
        emit!(
            self,
            now,
            SimEvent::KernelFailed {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                device,
            }
        );
        let recovery = self.recovery();
        let attempts = {
            let run = self.live_mut(job);
            run.kernel_attempts += 1;
            run.kernel_attempts
        };
        if attempts <= recovery.kernel_retry_cap() {
            let key = self.events.schedule(
                now.saturating_add(recovery.backoff(attempts)),
                Event::KernelRetry(job),
            );
            self.live_mut(job).pending_event = Some(key);
            emit!(
                self,
                now,
                SimEvent::JobHeld {
                    job,
                    name: run_of(&self.jobs, job).spec.name(),
                    reason: HoldReason::FaultRecovery,
                }
            );
            return Ok(());
        }
        // Checkpointed classical progress survives; the quantum phase
        // itself holds no node work to rewind.
        let checkpoint_rewind = self.checkpoint_cfg().map(|_| 0.0);
        self.requeue_after_fault(driver, job, checkpoint_rewind, now)
    }

    /// Retry backoff expired: re-dispatch the job's current (quantum)
    /// phase. Routing runs again, so the retry fails over to another
    /// device when the recovery policy allows it.
    fn on_kernel_retry(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let attempt = {
            let run = self.live_mut(job);
            run.pending_event = None;
            run.kernel_attempts
        };
        // Parked first dispatches (attempt 0) are waits, not retries.
        if attempt > 0 {
            emit!(self, now, SimEvent::KernelRetried { job, attempt });
        }
        self.begin_quantum(driver, job, now)
    }

    /// Takes a periodic checkpoint of an in-flight classical phase: the
    /// completed fraction becomes durable, the phase end slips by the
    /// checkpoint cost, and the next checkpoint is scheduled if it still
    /// fits before the phase ends.
    fn on_checkpoint(&mut self, job: JobId, now: SimTime) {
        let Some(cp) = self.checkpoint_cfg() else {
            return;
        };
        let (progress, epoch, index, new_end) = {
            let run = self.live_mut(job);
            let Some(started) = run.classical_started else {
                return;
            };
            let worked =
                (now.saturating_since(started).as_secs_f64() - run.ckpt_cost_secs).max(0.0);
            let frac = if run.classical_full_secs > 0.0 {
                (run.classical_entry_frac + worked / run.classical_full_secs).min(1.0)
            } else {
                1.0
            };
            run.completed_frac = frac;
            run.last_checkpoint_at = Some(now);
            run.ckpt_cost_secs += cp.cost_secs;
            let end = run.classical_end.unwrap_or(now).saturating_add(cp.cost());
            run.classical_end = Some(end);
            (frac, run.epoch, run.phase_idx, end)
        };
        // The checkpoint stalls the phase for its cost: push the end out.
        // The new key retires the old `PhaseDone`.
        let key = self.events.schedule(new_end, Event::PhaseDone(job));
        self.live_mut(job).pending_event = Some(key);
        emit!(self, now, SimEvent::CheckpointTaken { job, progress });
        let next = now.saturating_add(cp.cost()).saturating_add(cp.interval());
        if next < new_end {
            self.events
                .schedule(next, Event::Checkpoint(job, epoch, index));
        }
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
                let entry = self
                    .queue_map
                    .remove(&st.job.raw())
                    // hpcqc-lint: allow(D004, reason = "fresh_qid() registered the entry at submit; only a start (here) or an abort removes it")
                    .expect("started job must have a queue entry");
                match entry {
                    QueueEntry::JobStart(job) => self.on_job_started(driver, job, st.alloc, now)?,
                    QueueEntry::Step(job) => self.on_step_started(driver, job, st.alloc, now)?,
                }
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
            let job = match self.queue_map.get(&qid.raw()) {
                Some(QueueEntry::JobStart(job) | QueueEntry::Step(job)) => *job,
                None => continue,
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

    fn fresh_qid(&mut self, entry: QueueEntry) -> JobId {
        let qid = JobId::new(self.next_qid);
        self.next_qid += 1;
        self.queue_map.insert(qid.raw(), entry);
        qid
    }

    /// The first QPU gres unit `allocation` holds and how many it holds,
    /// read by borrow; `None` if it holds none.
    fn qpu_units(&self, allocation: &Allocation) -> Option<(u32, u32)> {
        let mut units = allocation.gres_units(self.qpu_slot?);
        let first = units.next()?;
        Some((first, 1 + units.count() as u32))
    }

    /// Binds a granted gres token to a *capable* device: round-robin over
    /// the job's eligible devices (enough qubits for every kernel of the
    /// job, in service, and a shot capacity covering its largest kernel),
    /// so heterogeneous facilities (e.g. a 12-qubit spin-qubit device next
    /// to a 127-qubit transmon) never route an oversized kernel to a small
    /// device. Jobs without quantum phases are compatible with all devices.
    ///
    /// # Errors
    ///
    /// [`SimError::Qpu`] when no device can run the job's kernels.
    fn bind_device(&self, job: JobId, unit: u32) -> Result<usize, SimError> {
        let spec = &self.live(job).spec;
        let need = spec.kernels().map(Kernel::qubits).max().unwrap_or(0);
        let shots = spec.kernels().map(Kernel::shots).max().unwrap_or(0);
        let capable = self.devices.iter().enumerate().filter_map(|(i, d)| {
            let fits =
                d.qubits() >= need && self.fleet.shot_capacity(i).is_none_or(|cap| shots <= cap);
            fits.then_some(i)
        });
        let in_service = capable.clone().filter(|i| !self.fleet.is_down(*i));
        if let Some(device) = nth_cyclic(in_service, unit) {
            return Ok(device);
        }
        // With fault injection, every capable device may be transiently
        // down right at bind time. Bind among the capable devices that are
        // not *permanently* out (spec'd down); dispatch parks until one
        // returns to service.
        if self.fault_plan().is_some() {
            if let Some(device) = nth_cyclic(capable.filter(|i| !self.spec_down(*i)), unit) {
                return Ok(device);
            }
        }
        let best = self
            .devices
            .iter()
            .map(QpuDevice::qubits)
            .max()
            .unwrap_or(0);
        Err(SimError::Qpu(QpuError::KernelTooLarge {
            requested: need,
            available: best,
        }))
    }

    // ----- submission ----------------------------------------------------

    fn on_submit(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let plan = driver.submission_plan(&mut SimCtx { state: self, now }, job);
        self.live_mut(job).plan = plan;
        match plan {
            SubmissionPlan::PerStep => self.submit_step(job, now),
            SubmissionPlan::WholeJob { hold_qpu } => {
                let (request, walltime, user) = {
                    let spec = &self.live(job).spec;
                    let mut request = AllocRequest::new()
                        .group(GroupRequest::nodes(spec.partition(), spec.nodes()));
                    if hold_qpu && spec.is_hybrid() {
                        request = request.group(GroupRequest::gres(
                            spec.qpu_partition(),
                            GresKind::qpu(),
                            spec.qpu_count(),
                        ));
                    }
                    (request, spec.walltime(), spec.user().to_string())
                };
                let qid = self.fresh_qid(QueueEntry::JobStart(job));
                let pending = PendingJob {
                    id: qid,
                    request,
                    walltime,
                    submit: now,
                    user,
                    qos_boost: 0.0,
                };
                let run = self.live_mut(job);
                run.queued_qid = Some(qid.raw());
                run.queued_at = now;
                run.current_walltime = walltime;
                self.scheduler.submit(pending, &self.cluster)?;
                emit!(
                    self,
                    now,
                    SimEvent::JobSubmitted {
                        job,
                        name: run_of(&self.jobs, job).spec.name(),
                        step: false,
                    }
                );
                Ok(())
            }
        }
    }

    /// Per-step plans: submit the step for the job's current phase.
    fn submit_step(&mut self, job: JobId, now: SimTime) -> Result<(), SimError> {
        let (request, walltime) = {
            let run = self.live(job);
            let spec = &run.spec;
            match &spec.phases()[run.phase_idx] {
                Phase::Classical(d) => (
                    AllocRequest::new().group(GroupRequest::nodes(spec.partition(), spec.nodes())),
                    d.saturating_add(SimDuration::from_secs(60)),
                ),
                Phase::Quantum(kernel) => {
                    // Planning estimate: the slowest *capable* device's mean
                    // job time with headroom; actual duration comes from the
                    // device.
                    let est = self.worst_case_device_secs(kernel);
                    (
                        AllocRequest::new().group(GroupRequest::gres(
                            spec.qpu_partition(),
                            GresKind::qpu(),
                            1,
                        )),
                        SimDuration::from_secs_f64(est * 1.5 + 60.0),
                    )
                }
            }
        };
        let qid = self.fresh_qid(QueueEntry::Step(job));
        let run = self.live_mut(job);
        run.queued_qid = Some(qid.raw());
        run.queued_at = now;
        run.current_walltime = walltime;
        let pending = PendingJob {
            id: qid,
            request,
            walltime,
            submit: now,
            user: run.spec.user().to_string(),
            qos_boost: 0.0,
        };
        self.scheduler.submit(pending, &self.cluster)?;
        emit!(
            self,
            now,
            SimEvent::JobSubmitted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                step: true,
            }
        );
        Ok(())
    }

    // ----- start handlers -------------------------------------------------

    fn on_job_started(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        alloc: AllocationId,
        now: SimTime,
    ) -> Result<(), SimError> {
        emit!(
            self,
            now,
            SimEvent::JobStarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                wait: self.last_wait(job, now),
            }
        );
        self.arm_walltime_kill(job, now);
        let run = self.live_mut(job);
        run.queued_qid = None;
        run.alloc = Some(alloc);
        run.first_start.get_or_insert(now);
        run.set_alloc_nodes(now, run.spec.nodes());
        let nodes = f64::from(run.spec.nodes());
        emit!(
            self,
            now,
            SimEvent::AllocationChanged {
                job,
                node_delta: nodes,
                qpu_delta: 0.0,
            }
        );

        // Bind the QPU device from the granted gres unit (if any).
        // hpcqc-lint: allow(D004, reason = "the scheduler granted this allocation in the current cycle; nothing released it yet")
        let allocation = self.cluster.allocation(alloc).expect("alloc just granted");
        if let Some((unit, count)) = self.qpu_units(allocation) {
            let device = self.bind_device(job, unit)?;
            let run = self.live_mut(job);
            run.device = Some(device);
            run.set_qpu_units(now, count);
            if driver.holds_qpu_exclusively(job) {
                emit!(
                    self,
                    now,
                    SimEvent::AllocationChanged {
                        job,
                        node_delta: 0.0,
                        qpu_delta: f64::from(count),
                    }
                );
            }
        }
        // The hook fires with the grant fully recorded, so ctx.held_nodes /
        // shrink_to / expand_toward act on the live allocation.
        driver.on_started(&mut SimCtx { state: self, now }, job)?;
        self.begin_phase(driver, job, now)
    }

    fn on_step_started(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        alloc: AllocationId,
        now: SimTime,
    ) -> Result<(), SimError> {
        emit!(
            self,
            now,
            SimEvent::JobStarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                wait: self.last_wait(job, now),
            }
        );
        self.arm_walltime_kill(job, now);
        {
            let run = self.live_mut(job);
            run.queued_qid = None;
            run.alloc = Some(alloc);
            if run.first_start.is_none() {
                run.first_start = Some(now);
            } else if let Some(prev) = run.prev_phase_end {
                // Everything between the previous phase's end and this start
                // is inter-step overhead: workflow-manager delay + queue wait.
                run.phase_wait += now.saturating_since(prev);
            }
        }
        // hpcqc-lint: allow(D004, reason = "the scheduler granted this allocation in the current cycle; nothing released it yet")
        let allocation = self.cluster.allocation(alloc).expect("alloc just granted");
        let node_count = allocation.node_count() as u32;
        let units = self.qpu_units(allocation);
        if node_count > 0 {
            self.live_mut(job).set_alloc_nodes(now, node_count);
            emit!(
                self,
                now,
                SimEvent::AllocationChanged {
                    job,
                    node_delta: f64::from(node_count),
                    qpu_delta: 0.0,
                }
            );
        }
        if let Some((unit, count)) = units {
            let device = self.bind_device(job, unit)?;
            let run = self.live_mut(job);
            run.device = Some(device);
            run.set_qpu_units(now, count);
            if driver.holds_qpu_exclusively(job) {
                emit!(
                    self,
                    now,
                    SimEvent::AllocationChanged {
                        job,
                        node_delta: 0.0,
                        qpu_delta: f64::from(count),
                    }
                );
            }
        }
        // As in on_job_started: the grant is fully recorded before the hook.
        driver.on_started(&mut SimCtx { state: self, now }, job)?;
        self.begin_phase(driver, job, now)
    }

    // ----- phase machinery -------------------------------------------------

    fn begin_phase(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let run = self.live(job);
        match run.spec.phases().get(run.phase_idx) {
            None => self.complete_job(driver, job, now),
            Some(&Phase::Classical(d)) => self.begin_classical(job, d, now),
            Some(Phase::Quantum(_)) => self.begin_quantum(driver, job, now),
        }
    }

    fn begin_classical(
        &mut self,
        job: JobId,
        nominal: SimDuration,
        now: SimTime,
    ) -> Result<(), SimError> {
        let checkpoint = self.checkpoint_cfg();
        let run = self.live_mut(job);
        // Linear-speedup stretch when malleably running on fewer nodes.
        let full = if run.alloc_nodes > 0 && run.alloc_nodes < run.spec.nodes() {
            nominal.mul_f64(f64::from(run.spec.nodes()) / f64::from(run.alloc_nodes))
        } else {
            nominal
        };
        // Checkpoint-restart resume: only the not-yet-durable fraction of
        // the phase is re-run.
        let entry_frac = run.completed_frac.clamp(0.0, 1.0);
        let duration = if entry_frac > 0.0 {
            full.mul_f64(1.0 - entry_frac)
        } else {
            full
        };
        let nodes = f64::from(run.alloc_nodes);
        run.classical_started = Some(now);
        run.classical_active_nodes = nodes;
        run.classical_entry_frac = entry_frac;
        run.classical_full_secs = full.as_secs_f64();
        run.ckpt_cost_secs = 0.0;
        let index = run.phase_idx;
        emit!(
            self,
            now,
            SimEvent::PhaseStarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                kind: PhaseKind::Classical,
                index,
                busy_nodes: nodes,
            }
        );
        let end = now.saturating_add(duration);
        let key = self.events.schedule(end, Event::PhaseDone(job));
        let epoch = {
            let run = self.live_mut(job);
            run.pending_event = Some(key);
            run.classical_end = Some(end);
            run.epoch
        };
        if let Some(cp) = checkpoint {
            let first = now.saturating_add(cp.interval());
            if first < end {
                self.events
                    .schedule(first, Event::Checkpoint(job, epoch, index));
            }
        }
        Ok(())
    }

    /// Closes an in-flight classical phase's usage accounting (normal end
    /// or kill): per-job integral plus the [`SimEvent::PhaseEnded`] the
    /// waste and Gantt observers consume.
    fn close_classical(&mut self, job: JobId, now: SimTime) {
        let run = self.live_mut(job);
        let Some(started) = run.classical_started.take() else {
            return;
        };
        let nodes = run.classical_active_nodes;
        run.classical_active_nodes = 0.0;
        run.node_seconds_used += nodes * now.saturating_since(started).as_secs_f64();
        let index = run.phase_idx;
        emit!(
            self,
            now,
            SimEvent::PhaseEnded {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                kind: PhaseKind::Classical,
                index,
                busy_nodes: nodes,
                started,
            }
        );
    }

    /// Routes the job's current kernel and dispatches it, or parks the
    /// job while no capable device is in service. The kernel is borrowed
    /// from [`SimState::jobs`] (a field-disjoint borrow beside the fleet
    /// and devices), not cloned out of the job's phase list.
    fn begin_quantum(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        // Malleable-style drivers give nodes back before quantum work.
        driver.on_quantum_enter(&mut SimCtx { state: self, now }, job)?;
        let Some(kernel) = run_of(&self.jobs, job).current_kernel() else {
            debug_assert!(false, "quantum dispatch outside a quantum phase");
            return Ok(());
        };
        // A retry under a no-failover recovery policy must go back to the
        // device that ran the failed attempt — or wait until it returns.
        if self.live(job).kernel_attempts > 0 && !self.recovery().failover_enabled() {
            if let Some(prev) = self.live(job).last_exec_device {
                if self.fleet.serves(prev, kernel) {
                    return self.dispatch_kernel(job, prev, now);
                }
                return self.park_for_recovery(job, now);
            }
        }
        // The routing policy picks over a snapshot of the live devices (the
        // job's gres-bound device, if any, arrives as the pin).
        let routable = self
            .devices
            .iter()
            .enumerate()
            .any(|(i, d)| d.qubits() >= kernel.qubits() && self.fleet.serves(i, kernel));
        if !routable {
            // A capable device merely transiently out of service
            // (fault-injected outage or recalibration) means "park and
            // retry", not a fatal routing failure.
            let transient_down = self
                .devices
                .iter()
                .enumerate()
                .any(|(i, d)| d.qubits() >= kernel.qubits() && self.device_injected_down(i));
            if transient_down {
                return self.park_for_recovery(job, now);
            }
            // Distinguish "no device is large enough" from fleet-metadata
            // refusals (down devices, shot caps).
            let best = self
                .devices
                .iter()
                .map(QpuDevice::qubits)
                .max()
                .unwrap_or(0);
            return Err(SimError::Qpu(if best < kernel.qubits() {
                QpuError::KernelTooLarge {
                    requested: kernel.qubits(),
                    available: best,
                }
            } else {
                QpuError::DeviceOffline {
                    reason: format!(
                        "no routable device in fleet `{}` for kernel `{}` ({} shots)",
                        self.fleet.spec().name,
                        kernel.name(),
                        kernel.shots()
                    ),
                }
            }));
        }
        let pin = self.live(job).device.map(DeviceId::new);
        let device_idx = self.fleet.route(kernel, now, &self.devices, pin).index();
        self.dispatch_kernel(job, device_idx, now)
    }

    /// Runs the job's current kernel on `device_idx`: books the execution
    /// on the device model, charges the access overhead, emits the
    /// phase/kernel events and schedules completion — either
    /// [`Event::KernelDone`] or, when the transient-error coin comes up,
    /// [`Event::KernelFault`].
    fn dispatch_kernel(
        &mut self,
        job: JobId,
        device_idx: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let rerouted_from = {
            let run = self.live(job);
            match run.last_exec_device {
                Some(prev) if run.kernel_attempts > 0 && prev != device_idx => Some(prev),
                _ => None,
            }
        };
        if let Some(from) = rerouted_from {
            emit!(
                self,
                now,
                SimEvent::KernelRerouted {
                    job,
                    from,
                    to: device_idx,
                }
            );
        }
        self.live_mut(job).last_exec_device = Some(device_idx);
        let Some(kernel) = run_of(&self.jobs, job).current_kernel() else {
            debug_assert!(false, "kernel dispatch outside a quantum phase");
            return Ok(());
        };
        let shots = kernel.shots();
        let exec = self.devices[device_idx].enqueue(kernel, now)?;
        // Access-model overhead: a device's own access mode wins;
        // otherwise the scenario-wide mode applies.
        let overhead = {
            let access = self
                .fleet
                .spec()
                .devices
                .get(device_idx)
                .and_then(|d| d.access.as_ref())
                .or(self.scenario.access.as_ref());
            match access {
                Some(access) => access.sample_overhead(&mut self.access_rng),
                None => SimDuration::ZERO,
            }
        };
        let index = {
            let run = self.live_mut(job);
            run.phase_wait += exec.wait();
            run.qpu_seconds_used += exec.service().as_secs_f64();
            run.classical_started = None;
            run.quantum_started = Some(now);
            run.phase_idx
        };
        emit!(
            self,
            now,
            SimEvent::PhaseStarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                kind: PhaseKind::Quantum,
                index,
                busy_nodes: 0.0,
            }
        );
        emit!(
            self,
            now,
            SimEvent::KernelEnqueued {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                device: device_idx,
                start: exec.start,
                end: exec.end,
                recalibration: exec.recalibration,
            }
        );
        self.events
            .schedule(exec.start, Event::KernelExecStart(job, device_idx));
        self.events
            .schedule(exec.end, Event::KernelExecEnd(job, device_idx));
        // Transient kernel errors surface at completion time: the device
        // executed the shots, the result is garbage. The coin only flips
        // when a rate is configured, so fault-free runs never touch the
        // kernel-error stream.
        let rate = self.device_faults().map_or(0.0, DeviceFaults::error_rate);
        let failed = rate > 0.0 && self.kernel_error_rng.chance(rate);
        let done = exec.end.saturating_add(overhead);
        let key = if failed {
            self.events
                .schedule(done, Event::KernelFault(job, device_idx))
        } else {
            self.events.schedule(done, Event::KernelDone(job))
        };
        let run = self.live_mut(job);
        run.pending_event = Some(key);
        run.in_flight = Some(device_idx);
        self.accrue_drift(device_idx, shots, now);
        Ok(())
    }

    fn on_phase_done(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.close_classical(job, now);
        {
            let run = self.live_mut(job);
            run.pending_event = None;
            run.phase_idx += 1;
            run.prev_phase_end = Some(now);
            // Checkpoint progress is per-phase: a finished phase resets it.
            run.completed_frac = 0.0;
            run.last_checkpoint_at = None;
            run.classical_end = None;
        }
        driver.on_phase_advanced(&mut SimCtx { state: self, now }, job)?;
        self.advance(driver, job, now)
    }

    fn on_kernel_done(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let (index, started) = {
            let run = self.live_mut(job);
            run.in_flight = None;
            run.kernel_attempts = 0;
            (run.phase_idx, run.quantum_started.take().unwrap_or(now))
        };
        emit!(
            self,
            now,
            SimEvent::PhaseEnded {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                kind: PhaseKind::Quantum,
                index,
                busy_nodes: 0.0,
                started,
            }
        );
        {
            let run = self.live_mut(job);
            run.pending_event = None;
            run.phase_idx += 1;
            run.prev_phase_end = Some(now);
        }
        // Malleable-style drivers re-expand (best-effort) before the next
        // classical phase; shortfall is absorbed by stretching.
        driver.on_quantum_exit(&mut SimCtx { state: self, now }, job)?;
        driver.on_phase_advanced(&mut SimCtx { state: self, now }, job)?;
        self.advance(driver, job, now)
    }

    /// After a phase completes: next phase, next step, or done.
    fn advance(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let (finished, plan) = {
            let run = self.live(job);
            (run.phase_idx >= run.spec.phases().len(), run.plan)
        };
        match plan {
            SubmissionPlan::PerStep => {
                // Every step releases its resources on completion.
                self.release_current(driver, job, now)?;
                if finished {
                    self.complete_job(driver, job, now)
                } else {
                    let epoch = self.live(job).epoch;
                    self.events.schedule(
                        now.saturating_add(self.scenario.workflow_overhead),
                        Event::StepSubmit(job, epoch),
                    );
                    Ok(())
                }
            }
            SubmissionPlan::WholeJob { .. } => {
                if finished {
                    self.complete_job(driver, job, now)
                } else {
                    self.begin_phase(driver, job, now)
                }
            }
        }
    }

    /// Releases the job's current allocation and closes its integrals.
    fn release_current(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        // Walltime enforcement tracks the *active* allocation: a released
        // step's timer must not keep ticking into the next queue wait
        // (SLURM bills walltime per job step, not across the gaps), so
        // the release disarms the timer.
        let alloc_taken = {
            let run = self.live_mut(job);
            run.kill_event = None;
            run.alloc.take()
        };
        let Some(alloc) = alloc_taken else {
            return Ok(());
        };
        let (nodes, qpus) = {
            let run = self.live_mut(job);
            let nodes = run.alloc_nodes;
            let qpus = run.qpu_alloc_units;
            run.set_alloc_nodes(now, 0);
            run.set_qpu_units(now, 0);
            (nodes, qpus)
        };
        // Shared (virtual) tokens are tracked per-job only: they are not
        // an exclusive physical hold, so they never entered the exclusive
        // allocation integral and must not leave it either.
        let exclusive = driver.holds_qpu_exclusively(job);
        if nodes > 0 || (qpus > 0 && exclusive) {
            emit!(
                self,
                now,
                SimEvent::AllocationChanged {
                    job,
                    node_delta: if nodes > 0 { -f64::from(nodes) } else { 0.0 },
                    qpu_delta: if qpus > 0 && exclusive {
                        -f64::from(qpus)
                    } else {
                        0.0
                    },
                }
            );
        }
        self.cluster.release(alloc, now)?;
        self.scheduler.finished(alloc, now);
        Ok(())
    }

    fn complete_job(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.release_current(driver, job, now)?;
        self.finalize(job, now, true);
        Ok(())
    }

    /// Terminal bookkeeping shared by completion and final kill. Retires
    /// the job's live state entirely — after this the simulator holds no
    /// per-job memory for it (the streaming-memory contract), and the key
    /// fence drops any event of its still in the calendar.
    fn finalize(&mut self, job: JobId, now: SimTime, completed: bool) {
        let Some(run) = self.jobs.remove(job.raw()) else {
            debug_assert!(false, "{job} finalized twice");
            return;
        };
        self.completed += 1;
        let record = JobRecord {
            name: run.spec.name().to_string(),
            user: run.spec.user().to_string(),
            submit: run.spec.submit(),
            start: run.first_start.unwrap_or(run.spec.submit()),
            end: now,
            nodes: run.spec.nodes(),
            hybrid: run.spec.is_hybrid(),
            completed,
            node_seconds_allocated: run.node_seconds_alloc,
            node_seconds_used: run.node_seconds_used,
            qpu_seconds_allocated: run.qpu_seconds_alloc,
            qpu_seconds_used: run.qpu_seconds_used,
            phase_wait: run.phase_wait,
        };
        emit!(self, now, SimEvent::JobFinalized { record: &record });
    }

    /// Arms a walltime-kill timer for the just-started job/step. The
    /// previous attempt's or step's timer was disarmed when it released
    /// its allocation, so none is armed.
    fn arm_walltime_kill(&mut self, job: JobId, now: SimTime) {
        let crate::scenario::WalltimePolicy::Kill { .. } = self.scenario.walltime_policy else {
            return;
        };
        let run = self.live(job);
        debug_assert!(run.kill_event.is_none(), "{job} already has a kill timer");
        let walltime = run.current_walltime;
        if walltime.is_zero() {
            return;
        }
        let key = self
            .events
            .schedule(now.saturating_add(walltime), Event::KillJob(job));
        self.live_mut(job).kill_event = Some(key);
    }

    /// Aborts the job's in-flight attempt: stops the current phase, fences
    /// off its pending events (dropping their keys and bumping the epoch;
    /// a kernel already on the device keeps executing — hardware queues
    /// don't abort), and releases resources.
    fn abort_attempt(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.close_classical(job, now);
        let queued = {
            let run = self.live_mut(job);
            run.epoch += 1;
            run.in_flight = None;
            run.pending_event = None;
            run.kill_event = None;
            run.queued_qid.take()
        };
        // A not-yet-started submission must leave the batch queue with the
        // attempt, or it would later start a job that no longer exists.
        if let Some(qid) = queued {
            self.scheduler.cancel(JobId::new(qid));
            self.queue_map.remove(&qid);
        }
        self.release_current(driver, job, now)?;
        driver.on_abort(&mut SimCtx { state: self, now }, job)
    }

    /// SLURM-style walltime kill: abort the current attempt, release its
    /// resources, and requeue the whole job (from phase 0) while the
    /// requeue budget lasts; record it failed afterwards.
    fn kill_job(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let crate::scenario::WalltimePolicy::Kill { max_requeues } = self.scenario.walltime_policy
        else {
            return Ok(());
        };
        self.abort_attempt(driver, job, now)?;
        let requeues = self.live(job).requeues;
        if requeues < max_requeues {
            let run = self.live_mut(job);
            run.requeues += 1;
            run.phase_idx = 0;
            run.prev_phase_end = None;
            run.device = None;
            self.on_submit(driver, job, now)
        } else {
            self.finalize(job, now, false);
            Ok(())
        }
    }

    // ----- SimCtx capabilities --------------------------------------------

    pub(crate) fn spec(&self, job: JobId) -> &JobSpec {
        &self.live(job).spec
    }

    pub(crate) fn held_nodes(&self, job: JobId) -> u32 {
        self.live(job).alloc_nodes
    }

    pub(crate) fn phase_index(&self, job: JobId) -> usize {
        self.live(job).phase_idx
    }

    pub(crate) fn last_wait(&self, job: JobId, now: SimTime) -> SimDuration {
        now.saturating_since(self.live(job).queued_at)
    }

    pub(crate) fn free_classical_nodes(&self) -> Result<u32, SimError> {
        Ok(self.cluster.free_nodes("classical")?)
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.scheduler.pending_len()
    }

    pub(crate) fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The slowest capable device's mean job time for `kernel`, seconds.
    /// Only devices with enough qubits count — an incapable device's
    /// timing must not drive planning for a kernel it can never run —
    /// falling back to all devices when none is capable (the simulation
    /// will error on such a kernel anyway; the estimate stays finite).
    pub(crate) fn worst_case_device_secs(&self, kernel: &Kernel) -> f64 {
        let any_capable = self.devices.iter().any(|d| d.qubits() >= kernel.qubits());
        self.devices
            .iter()
            .filter(|d| !any_capable || d.qubits() >= kernel.qubits())
            .map(|d| d.timing().mean_job_secs(kernel.shots()))
            .fold(0.0_f64, f64::max)
    }

    /// Shrinks `job`'s allocation down to `target` nodes; returns nodes
    /// released (0 when already at/below target or unallocated).
    pub(crate) fn shrink_to(
        &mut self,
        job: JobId,
        target: u32,
        now: SimTime,
    ) -> Result<u32, SimError> {
        let (alloc, held) = {
            let run = self.live(job);
            (run.alloc, run.alloc_nodes)
        };
        let Some(alloc) = alloc else { return Ok(0) };
        if held <= target {
            return Ok(0);
        }
        let released = self.cluster.shrink(alloc, "classical", target, now)?;
        let run = self.live_mut(job);
        run.set_alloc_nodes(now, target);
        let count = released.len() as u32;
        emit!(
            self,
            now,
            SimEvent::AllocationChanged {
                job,
                node_delta: -f64::from(count),
                qpu_delta: 0.0,
            }
        );
        Ok(count)
    }

    /// Best-effort expansion of `job` toward `target` nodes; returns the
    /// nodes granted (0 when the machine is busy or the job unallocated).
    pub(crate) fn expand_toward(
        &mut self,
        job: JobId,
        target: u32,
        now: SimTime,
    ) -> Result<u32, SimError> {
        let (alloc, held) = {
            let run = self.live(job);
            (run.alloc, run.alloc_nodes)
        };
        let Some(alloc) = alloc else { return Ok(0) };
        if held >= target {
            return Ok(0);
        }
        let free = self.cluster.free_nodes("classical")?;
        let grant = free.min(target - held);
        if grant == 0 {
            return Ok(0);
        }
        let added = self.cluster.expand(alloc, "classical", grant, now)?;
        let count = added.len() as u32;
        let run = self.live_mut(job);
        run.set_alloc_nodes(now, held + count);
        emit!(
            self,
            now,
            SimEvent::AllocationChanged {
                job,
                node_delta: f64::from(count),
                qpu_delta: 0.0,
            }
        );
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use hpcqc_qpu::technology::Technology;
    use hpcqc_qpu::timing::TimingModel;
    use hpcqc_simcore::dist::Dist;
    use hpcqc_workload::job::JobSpec;

    /// A deterministic hybrid job: `iters × (classical 60 s → kernel)`.
    fn hybrid_job(name: &str, nodes: u32, iters: usize, submit_s: u64) -> JobSpec {
        let mut phases = Vec::new();
        for _ in 0..iters {
            phases.push(Phase::Classical(SimDuration::from_secs(60)));
            phases.push(Phase::Quantum(Kernel::sampling(1_000)));
        }
        JobSpec::builder(name)
            .nodes(nodes)
            .submit(SimTime::from_secs(submit_s))
            .walltime(SimDuration::from_hours(4))
            .phases(phases)
            .build()
    }

    fn classical_job(name: &str, nodes: u32, secs: u64, submit_s: u64) -> JobSpec {
        JobSpec::builder(name)
            .nodes(nodes)
            .submit(SimTime::from_secs(submit_s))
            .walltime(SimDuration::from_hours(4))
            .phases(vec![Phase::Classical(SimDuration::from_secs(secs))])
            .build()
    }

    fn scenario(strategy: Strategy) -> Scenario {
        Scenario::builder()
            .classical_nodes(16)
            .device(Technology::Superconducting)
            .strategy(strategy)
            .seed(7)
            .build()
    }

    #[test]
    fn single_classical_job_all_strategies() {
        let w = Workload::from_jobs(vec![classical_job("mpi", 8, 600, 0)]);
        for strategy in Strategy::extended_set() {
            let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
            assert_eq!(out.stats.len(), 1, "{strategy}");
            let r = &out.stats.records()[0];
            assert_eq!(r.wait(), SimDuration::ZERO, "{strategy}");
            // Runtime may include workflow overhead but is ≥ 600 s.
            assert!(r.runtime() >= SimDuration::from_secs(600), "{strategy}");
            assert!(!r.hybrid);
        }
    }

    #[test]
    fn coschedule_holds_everything() {
        let w = Workload::from_jobs(vec![hybrid_job("h", 8, 3, 0)]);
        let out = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
        let r = &out.stats.records()[0];
        // Nodes allocated for the whole runtime, used only 180 s.
        assert!(r.node_seconds_allocated > r.node_seconds_used);
        assert!((r.node_seconds_used - 8.0 * 180.0).abs() < 1e-6);
        // QPU exclusively allocated the whole time, used only during kernels.
        assert!(r.qpu_seconds_allocated > r.qpu_seconds_used);
        assert!(r.qpu_seconds_used > 0.0);
        assert!(out.qpu_waste.efficiency < 0.9);
    }

    #[test]
    fn workflow_releases_between_steps() {
        let w = Workload::from_jobs(vec![hybrid_job("h", 8, 3, 0)]);
        let out = FacilitySim::run(&scenario(Strategy::Workflow), &w).unwrap();
        let r = &out.stats.records()[0];
        // Nodes held only during classical work → no node waste.
        assert!(
            (r.node_seconds_allocated - r.node_seconds_used).abs() < 1.0,
            "alloc {} vs used {}",
            r.node_seconds_allocated,
            r.node_seconds_used
        );
        // But the job pays inter-step overhead.
        assert!(r.phase_wait >= SimDuration::from_secs(10));
        assert!(out.node_waste.efficiency > 0.99);
    }

    #[test]
    fn vqpu_shares_the_device() {
        // Two hybrid jobs, one QPU, 2 VQPUs: both hold nodes, kernels
        // interleave on the shared device.
        let w = Workload::from_jobs(vec![hybrid_job("a", 4, 3, 0), hybrid_job("b", 4, 3, 0)]);
        let out = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 2 }), &w).unwrap();
        assert_eq!(out.stats.len(), 2);
        assert_eq!(out.total_kernels(), 6);
        // No exclusive QPU hold → zero exclusive allocation integral.
        assert_eq!(out.qpu_waste.allocated_fraction, 0.0);
    }

    #[test]
    fn vqpu_tokens_bound_concurrency() {
        // 1 VQPU per device behaves like exclusive access: the second job
        // cannot even start until the first releases its token… but since
        // jobs hold tokens for their whole life, job b waits for job a.
        let w = Workload::from_jobs(vec![hybrid_job("a", 4, 2, 0), hybrid_job("b", 4, 2, 0)]);
        let one = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 1 }), &w).unwrap();
        let four = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 4 }), &w).unwrap();
        let wait_one = one.stats.mean_wait_secs();
        let wait_four = four.stats.mean_wait_secs();
        assert!(
            wait_one > wait_four,
            "more vqpus must reduce queue wait ({wait_one} vs {wait_four})"
        );
    }

    #[test]
    fn malleable_shrinks_during_quantum() {
        // Use a slow "neutral-atom-like" deterministic device so the quantum
        // phase dominates and the shrink is visible.
        let w = Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)]);
        let mut sc = scenario(Strategy::Malleable { min_nodes: 1 });
        sc.devices = vec![Technology::NeutralAtom];
        let out = FacilitySim::run(&sc, &w).unwrap();
        let r = &out.stats.records()[0];
        // Allocation integral must be far below nodes × runtime because the
        // job held only 1 node during the long quantum phases.
        let full = 8.0 * r.runtime().as_secs_f64();
        assert!(
            r.node_seconds_allocated < 0.55 * full,
            "allocated {} vs full-hold {}",
            r.node_seconds_allocated,
            full
        );
        // Classical work still ran on all 8 nodes (no stretch needed: the
        // machine was otherwise empty).
        assert!((r.node_seconds_used - 8.0 * 120.0).abs() < 1e-6);
    }

    #[test]
    fn malleable_stretches_when_machine_busy() {
        // Fill the machine with a classical job while the malleable job is
        // in its quantum phase; re-expansion then falls short and the next
        // classical phase runs stretched on fewer nodes.
        let mut sc = scenario(Strategy::Malleable { min_nodes: 1 });
        sc.classical_nodes = 8;
        sc.devices = vec![Technology::NeutralAtom];
        let hybrid = hybrid_job("h", 8, 2, 0);
        // Arrives during h's first quantum phase (after 60 s of classical),
        // and holds 7 nodes for a long time.
        let filler = classical_job("filler", 7, 20_000, 70);
        let w = Workload::from_jobs(vec![hybrid, filler]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        let h = out.stats.records().iter().find(|r| r.name == "h").unwrap();
        // Stretched second classical phase → used node-seconds still equal
        // nodes_eff × stretched_duration = 8 × 60 per phase under linear
        // speedup, but the runtime must exceed the unstretched case.
        let unstretched =
            FacilitySim::run(&sc, &Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)])).unwrap();
        let r0 = &unstretched.stats.records()[0];
        assert!(
            h.runtime() > r0.runtime(),
            "busy machine must stretch the malleable job ({} vs {})",
            h.runtime(),
            r0.runtime()
        );
    }

    #[test]
    fn strategies_deterministic() {
        let w = Workload::from_jobs(vec![
            hybrid_job("a", 4, 3, 0),
            hybrid_job("b", 6, 2, 30),
            classical_job("c", 8, 900, 60),
        ]);
        for strategy in Strategy::extended_set() {
            let o1 = FacilitySim::run(&scenario(strategy), &w).unwrap();
            let o2 = FacilitySim::run(&scenario(strategy), &w).unwrap();
            assert_eq!(o1.makespan, o2.makespan, "{strategy}");
            assert_eq!(
                o1.stats.mean_turnaround_secs(),
                o2.stats.mean_turnaround_secs(),
                "{strategy}"
            );
        }
    }

    #[test]
    fn all_jobs_complete_under_contention() {
        // More jobs than the machine fits at once.
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    classical_job(&format!("c{i}"), 8, 300, i * 10)
                } else {
                    hybrid_job(&format!("h{i}"), 4, 2, i * 10)
                }
            })
            .collect();
        let w = Workload::from_jobs(jobs);
        for strategy in Strategy::extended_set() {
            let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
            assert_eq!(out.stats.len(), 12, "{strategy} must finish all jobs");
        }
    }

    #[test]
    fn access_overhead_extends_turnaround() {
        use hpcqc_qpu::remote::AccessMode;
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0)]);
        let on_prem = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
        let mut sc = scenario(Strategy::CoSchedule);
        sc.access = Some(AccessMode::cloud(Technology::Superconducting));
        let cloud = FacilitySim::run(&sc, &w).unwrap();
        assert!(
            cloud.stats.mean_turnaround_secs() > on_prem.stats.mean_turnaround_secs() + 30.0,
            "cloud access must add vendor-queue latency"
        );
    }

    #[test]
    fn gantt_recorded_when_enabled() {
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
        let mut gantt = crate::observer::GanttObserver::new();
        FacilitySim::run_observed(&scenario(Strategy::CoSchedule), &w, &mut [&mut gantt]).unwrap();
        let g = gantt.gantt();
        assert!(g.lanes().any(|l| l == "qpu0"));
        assert!(g.lanes().any(|l| l.starts_with("job:")));
        assert!(g.busy("qpu0") > SimDuration::ZERO);
    }

    #[test]
    fn device_calibration_appears_in_summary() {
        let mut sc = scenario(Strategy::CoSchedule);
        sc.device_calibration = true;
        // Two jobs a day apart force a recalibration between them.
        let w = Workload::from_jobs(vec![
            hybrid_job("h1", 4, 1, 0),
            hybrid_job("h2", 4, 1, 90_000),
        ]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        assert!(out.devices[0].recalibration_seconds > 0.0);
    }

    #[test]
    fn every_representative_strategy_runs() {
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
        for strategy in Strategy::representative_set() {
            let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
            assert_eq!(out.stats.len(), 1, "{strategy}");
        }
    }

    #[test]
    fn walltime_kill_fails_job_without_requeue() {
        use crate::scenario::WalltimePolicy;
        // 3 × (60 s classical + kernel) ≈ 190 s, but walltime asks for 100 s.
        let mut job = hybrid_job("h", 4, 3, 0);
        job = JobSpec::builder("h")
            .nodes(4)
            .walltime(SimDuration::from_secs(100))
            .phases(job.phases().to_vec())
            .build();
        let mut sc = scenario(Strategy::CoSchedule);
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
        let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![job])).unwrap();
        assert_eq!(out.stats.len(), 1);
        assert_eq!(out.stats.failed_count(), 1);
        let r = &out.stats.records()[0];
        assert!(!r.completed);
        assert_eq!(r.end, SimTime::from_secs(100), "killed exactly at walltime");
    }

    #[test]
    fn walltime_requeue_retries_then_fails() {
        use crate::scenario::WalltimePolicy;
        let job = JobSpec::builder("h")
            .nodes(4)
            .walltime(SimDuration::from_secs(100))
            .phases(vec![Phase::Classical(SimDuration::from_secs(300))])
            .build();
        let mut sc = scenario(Strategy::CoSchedule);
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
        let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![job])).unwrap();
        let r = &out.stats.records()[0];
        assert!(!r.completed);
        // Two attempts of 100 s each, back to back on an idle machine.
        assert_eq!(r.end, SimTime::from_secs(200));
        // Both attempts' held node time is accounted.
        assert!((r.node_seconds_allocated - 4.0 * 200.0).abs() < 1e-6);
    }

    #[test]
    fn walltime_kill_releases_resources_for_others() {
        use crate::scenario::WalltimePolicy;
        // A runaway job blocks the machine until its walltime kill frees it.
        let runaway = JobSpec::builder("runaway")
            .nodes(16)
            .walltime(SimDuration::from_secs(120))
            .phases(vec![Phase::Classical(SimDuration::from_hours(10))])
            .build();
        let follower = classical_job("follower", 16, 60, 10);
        let mut sc = scenario(Strategy::CoSchedule);
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
        let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![runaway, follower])).unwrap();
        assert_eq!(out.stats.failed_count(), 1);
        let follower_rec = out
            .stats
            .records()
            .iter()
            .find(|r| r.name == "follower")
            .unwrap();
        assert!(follower_rec.completed);
        // Follower starts right after the kill at t=120.
        assert_eq!(follower_rec.start, SimTime::from_secs(120));
    }

    #[test]
    fn advisory_walltime_never_kills() {
        // Default policy: the same overrunning job completes.
        let job = JobSpec::builder("over")
            .nodes(4)
            .walltime(SimDuration::from_secs(60))
            .phases(vec![Phase::Classical(SimDuration::from_secs(600))])
            .build();
        let out = FacilitySim::run(
            &scenario(Strategy::CoSchedule),
            &Workload::from_jobs(vec![job]),
        )
        .unwrap();
        assert_eq!(out.stats.failed_count(), 0);
        assert_eq!(out.stats.records()[0].end, SimTime::from_secs(600));
    }

    #[test]
    fn kill_mid_kernel_is_safe() {
        use crate::scenario::WalltimePolicy;
        // Neutral-atom kernel runs ~45 min; walltime 60 s kills the job
        // while the kernel is still on the device. The device finishes its
        // work; the kill drops the key of the job's completion event, so
        // the key fence retires it.
        let job = JobSpec::builder("h")
            .nodes(4)
            .walltime(SimDuration::from_secs(60))
            .phases(vec![Phase::Quantum(Kernel::sampling(1_000))])
            .build();
        let mut sc = scenario(Strategy::CoSchedule);
        sc.devices = vec![Technology::NeutralAtom];
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
        let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![job])).unwrap();
        assert_eq!(out.stats.failed_count(), 1);
        assert_eq!(out.stats.records()[0].end, SimTime::from_secs(60));
        // Device still shows the kernel's busy time (it could not abort).
        assert!(out.devices[0].busy_seconds > 0.0);
    }

    #[test]
    fn generous_walltime_with_kill_policy_completes_normally() {
        use crate::scenario::WalltimePolicy;
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0)]);
        let mut sc = scenario(Strategy::CoSchedule);
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
        let killed = FacilitySim::run(&sc, &w).unwrap();
        let advisory = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
        assert_eq!(killed.stats.failed_count(), 0);
        assert_eq!(
            killed.makespan, advisory.makespan,
            "kill policy must be inert when unused"
        );
    }

    /// Constant node failures every `mtbf` seconds, each repaired after
    /// `repair` seconds, with a fault requeue budget of `max_requeues`.
    fn node_fault_plan(mtbf: f64, repair: f64, max_requeues: u32) -> hpcqc_faults::FaultPlan {
        use hpcqc_faults::{FaultPlan, NodeFaults, RecoverySpec};
        use hpcqc_simcore::dist::Dist;
        FaultPlan::named("nodes")
            .node(NodeFaults {
                mtbf: Dist::constant(mtbf),
                repair: Dist::constant(repair),
            })
            .recovery(RecoverySpec::new().max_requeues(max_requeues))
    }

    #[test]
    fn node_failures_requeue_and_complete() {
        // Frequent failures (MTBF 200 s) on a long classical job: the job
        // is hit, requeued, and still finishes thanks to the requeue budget
        // and node repairs.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 8;
        sc.faults = Some(node_fault_plan(200.0, 100.0, 50));
        let w = Workload::from_jobs(vec![classical_job("long", 2, 150, 0)]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        assert_eq!(out.stats.len(), 1);
        // Whether the job is hit depends on which node fails; either way it
        // must terminate, and the simulator must not hang on the endless
        // failure/repair event stream.
        assert!(out.makespan >= SimTime::from_secs(150));
    }

    #[test]
    fn node_failure_budget_exhaustion_fails_job() {
        // One node, deterministic failures faster than the job: every
        // attempt dies, budget 1 → recorded failed.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 1;
        sc.faults = Some(node_fault_plan(50.0, 10.0, 1));
        let w = Workload::from_jobs(vec![classical_job("doomed", 1, 10_000, 0)]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        assert_eq!(out.stats.failed_count(), 1);
        assert!(!out.stats.records()[0].completed);
    }

    #[test]
    fn node_failure_requeues_only_the_owner_of_the_failed_node() {
        // Two 1-node jobs fill both nodes from t=0 ("a" on node 0, "b" on
        // node 1). The first failure, at t=300, hits one of them; the
        // repair takes longer than the run. The owner is requeued, then
        // dies again at t=600 on the other node with its budget spent;
        // the other job finishes at t=400 untouched.
        #[derive(Debug, Default)]
        struct Log {
            failed: Vec<(SimTime, u32)>,
            restarted: Vec<(SimTime, String)>,
        }
        impl SimObserver for Log {
            fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
                match event {
                    SimEvent::NodeFailed { node } => self.failed.push((now, node.raw())),
                    SimEvent::JobRestarted { name, .. } => {
                        self.restarted.push((now, name.to_string()));
                    }
                    _ => {}
                }
            }
        }
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 2;
        sc.faults = Some(node_fault_plan(300.0, 10_000.0, 1));
        let w = Workload::from_jobs(vec![
            classical_job("a", 1, 400, 0),
            classical_job("b", 1, 400, 0),
        ]);
        let mut log = Log::default();
        let out = FacilitySim::run_observed(&sc, &w, &mut [&mut log]).unwrap();
        let (at, node) = log.failed[0];
        assert_eq!(at, SimTime::from_secs(300));
        let (owner, other) = if node == 0 { ("a", "b") } else { ("b", "a") };
        assert_eq!(log.restarted, vec![(at, owner.to_string())]);
        let record = |name: &str| {
            out.stats
                .records()
                .iter()
                .find(|r| r.name == name)
                .unwrap()
                .clone()
        };
        let untouched = record(other);
        assert!(untouched.completed);
        assert_eq!(untouched.end, SimTime::from_secs(400));
        let victim = record(owner);
        assert!(!victim.completed);
        assert_eq!(victim.end, SimTime::from_secs(600));
    }

    #[test]
    fn failures_on_idle_nodes_are_harmless() {
        // Plenty of nodes; the job needs only 2, so most failures hit idle
        // nodes and the job usually survives untouched.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 16;
        sc.faults = Some(node_fault_plan(30.0, 1_000.0, 100));
        let w = Workload::from_jobs(vec![classical_job("small", 2, 120, 0)]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        assert_eq!(out.stats.len(), 1);
    }

    #[test]
    fn oversized_job_is_rejected() {
        let w = Workload::from_jobs(vec![classical_job("big", 32, 60, 0)]);
        let err = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap_err();
        assert!(matches!(
            err,
            SimError::Sched(SchedError::ImpossibleRequest { .. })
        ));
    }

    #[test]
    fn deterministic_custom_device_timing() {
        // Sanity-check the fixed-timing path used by several experiments.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.devices = vec![Technology::Superconducting];
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 1, 0)]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        let r = &out.stats.records()[0];
        assert!(r.qpu_seconds_used > 0.0);
        let _ = TimingModel::new(Dist::constant(0.01), Dist::constant(2.0));
    }

    // ----- driver / observer API ------------------------------------------

    /// A short quantum phase inside long classical work → the advisor
    /// routes the job to virtual QPUs.
    #[test]
    fn adaptive_runs_end_to_end() {
        let w = Workload::from_jobs(vec![
            hybrid_job("a", 4, 3, 0),
            hybrid_job("b", 6, 2, 30),
            classical_job("c", 8, 900, 60),
        ]);
        let out = FacilitySim::run(&scenario(Strategy::Adaptive { vqpus: 4 }), &w).unwrap();
        assert_eq!(out.stats.len(), 3);
        assert_eq!(out.stats.failed_count(), 0);
        // Adaptive never holds a device exclusively.
        assert_eq!(out.qpu_waste.allocated_fraction, 0.0);
    }

    /// On the neutral-atom machine (30-minute kernels) the advisor must
    /// route hybrid jobs to workflows: nodes are released during quantum
    /// work, so node waste stays near zero — unlike co-scheduling.
    #[test]
    fn adaptive_routes_long_kernels_to_workflow() {
        let mut sc = scenario(Strategy::Adaptive { vqpus: 4 });
        sc.devices = vec![Technology::NeutralAtom];
        let w = Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)]);
        let out = FacilitySim::run(&sc, &w).unwrap();
        let r = &out.stats.records()[0];
        assert!(
            (r.node_seconds_allocated - r.node_seconds_used).abs() < 1.0,
            "workflow routing releases nodes during quantum work \
             (alloc {} vs used {})",
            r.node_seconds_allocated,
            r.node_seconds_used
        );
    }

    /// The adaptive planning estimate must ignore devices that cannot run
    /// the kernel: a small slow device next to a large fast one must not
    /// inflate the estimate for kernels only the large device can run.
    #[test]
    fn quantum_estimate_ignores_incapable_devices() {
        let mut sc = scenario(Strategy::Adaptive { vqpus: 4 });
        // 127-qubit superconducting next to a 12-qubit spin-qubit device.
        sc.devices = vec![Technology::Superconducting, Technology::SpinQubit];
        let sim = FacilitySim::new(sc.clone(), driver_for(&sc.strategy), &mut []);
        let supercond = sim.state.devices[0].timing().mean_job_secs(1_000);
        let spin = sim.state.devices[1].timing().mean_job_secs(1_000);
        let big = Kernel::builder("big")
            .qubits(100)
            .shots(1_000)
            .build()
            .unwrap();
        assert_eq!(
            sim.state.worst_case_device_secs(&big),
            supercond,
            "only the superconducting device can run 100 qubits"
        );
        let small = Kernel::builder("small")
            .qubits(8)
            .shots(1_000)
            .build()
            .unwrap();
        assert_eq!(
            sim.state.worst_case_device_secs(&small),
            supercond.max(spin),
            "both devices are capable, the slowest wins"
        );
    }

    #[test]
    fn custom_driver_runs_on_the_stock_loop() {
        /// Pins every job to co-scheduling regardless of the scenario's
        /// strategy field — the minimal proof that external drivers plug in.
        #[derive(Debug)]
        struct AlwaysCoSchedule;
        impl StrategyDriver for AlwaysCoSchedule {
            fn name(&self) -> &'static str {
                "always-coschedule"
            }
            fn submission_plan(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> SubmissionPlan {
                SubmissionPlan::WholeJob {
                    hold_qpu: ctx.spec(job).is_hybrid(),
                }
            }
        }
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
        let stock = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
        let custom = FacilitySim::run_streamed_probed(
            &scenario(Strategy::Workflow),
            &mut w.jobs().iter().cloned(),
            Box::new(AlwaysCoSchedule),
            &mut [],
            &mut NoProbe,
        )
        .unwrap();
        assert_eq!(stock.makespan, custom.makespan);
        assert_eq!(
            stock.stats.mean_turnaround_secs(),
            custom.stats.mean_turnaround_secs()
        );
    }

    #[test]
    fn settled_cycles_are_skipped_on_a_burst() {
        /// Counts skipped planning cycles.
        #[derive(Debug, Default)]
        struct Counter {
            skipped: usize,
        }
        impl CycleProbe for Counter {
            fn cycle_skipped(&mut self, _now: SimTime, _queue_depth: usize) {
                self.skipped += 1;
            }
        }

        // Eight 8-node jobs at once on 16 nodes: two run while six wait,
        // and every phase event of the running pair finds the queue
        // settled.
        let w = Workload::from_jobs(
            (0..8)
                .map(|i| hybrid_job(&format!("h{i}"), 8, 3, 0))
                .collect(),
        );
        let sc = scenario(Strategy::CoSchedule);
        let mut counter = Counter::default();
        let out = FacilitySim::run_streamed_probed(
            &sc,
            &mut w.jobs().iter().cloned(),
            driver_for(&sc.strategy),
            &mut [],
            &mut counter,
        )
        .unwrap();
        assert_eq!(out.stats.len(), 8);
        assert!(counter.skipped > 0, "no settled cycle was skipped");
    }

    #[test]
    fn replaced_events_run_no_cycle() {
        use crate::scenario::WalltimePolicy;
        use hpcqc_faults::NodeFaults;

        /// Every instant a cycle ran or was skipped at.
        #[derive(Debug, Default)]
        struct Instants(Vec<SimTime>);
        impl CycleProbe for Instants {
            fn cycle_start(&mut self, now: SimTime, _queue_depth: usize) {
                self.0.push(now);
            }
            fn cycle_skipped(&mut self, now: SimTime, _queue_depth: usize) {
                self.0.push(now);
            }
        }
        fn probed(sc: &Scenario, jobs: Vec<JobSpec>) -> Vec<SimTime> {
            let mut probe = Instants::default();
            let out = FacilitySim::run_streamed_probed(
                sc,
                &mut jobs.into_iter(),
                driver_for(&sc.strategy),
                &mut [],
                &mut probe,
            )
            .unwrap();
            assert_eq!(out.stats.failed_count(), 0);
            probe.0
        }
        let secs = SimTime::from_secs;
        let full_machine = |name: &str, submit_s: u64, walltime_s: u64| {
            JobSpec::builder(name)
                .nodes(4)
                .submit(SimTime::from_secs(submit_s))
                .walltime(SimDuration::from_secs(walltime_s))
                .phases(vec![Phase::Classical(SimDuration::from_secs(1_000))])
                .build()
        };

        // Checkpoints every 200 s of a 1,000 s phase, 5 s each: the
        // checkpoints at 200, 405, 610 and 815 s each replace the pending
        // `PhaseDone`, so the replaced ones pop at 1,000, 1,005, 1,010 and
        // 1,015 s while `b` is queued; the phase ends at 1,020 s. The node
        // process never fires before the run ends.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 4;
        sc.faults = Some(
            FaultPlan::named("ckpt")
                .node(NodeFaults {
                    mtbf: Dist::constant(1e6),
                    repair: Dist::constant(100.0),
                })
                .recovery(RecoverySpec::new().checkpoint(CheckpointSpec::new(200.0, 5.0))),
        );
        let seen = probed(
            &sc,
            vec![full_machine("a", 0, 14_400), full_machine("b", 1, 14_400)],
        );
        assert!(
            seen.contains(&secs(200)),
            "a checkpoint with `b` queued cycles"
        );
        for stale in [1_000, 1_005, 1_010, 1_015] {
            assert!(!seen.contains(&secs(stale)), "a cycle ran at {stale} s");
        }
        assert!(seen.contains(&secs(1_020)));

        // Walltime kills: `a` ends at 1,000 s, which disarms its kill
        // timer, and the replaced timer pops at 1,500 s while `c` is
        // queued behind `b` (1,000–2,000 s).
        let mut sc = scenario(Strategy::CoSchedule);
        sc.classical_nodes = 4;
        sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
        let seen = probed(
            &sc,
            vec![
                full_machine("a", 0, 1_500),
                full_machine("b", 1, 1_500),
                full_machine("c", 2, 1_500),
            ],
        );
        assert!(seen.contains(&secs(1_000)));
        assert!(
            !seen.contains(&secs(1_500)),
            "a cycle ran at the replaced kill"
        );
    }

    #[test]
    fn extra_observers_see_the_event_stream() {
        use crate::observer::SimEvent;

        /// Counts events per variant family.
        #[derive(Debug, Default)]
        struct Counter {
            submitted: usize,
            started: usize,
            finalized: usize,
            kernels: usize,
        }
        impl SimObserver for Counter {
            fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
                match event {
                    SimEvent::JobSubmitted { .. } => self.submitted += 1,
                    SimEvent::JobStarted { .. } => self.started += 1,
                    SimEvent::JobFinalized { .. } => self.finalized += 1,
                    SimEvent::KernelExecEnded { .. } => self.kernels += 1,
                    _ => {}
                }
            }
        }

        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0), classical_job("c", 8, 60, 0)]);
        for strategy in Strategy::extended_set() {
            let mut counter = Counter::default();
            let out =
                FacilitySim::run_observed(&scenario(strategy), &w, &mut [&mut counter]).unwrap();
            assert_eq!(counter.finalized, 2, "{strategy}");
            assert_eq!(counter.submitted, counter.started, "{strategy}");
            assert_eq!(counter.kernels as u64, out.total_kernels(), "{strategy}");
        }
    }

    #[test]
    fn observers_do_not_perturb_the_simulation() {
        /// An observer that only burns cycles.
        #[derive(Debug, Default)]
        struct Noop(usize);
        impl SimObserver for Noop {
            fn on_event(&mut self, _now: SimTime, _event: &SimEvent<'_>) {
                self.0 += 1;
            }
        }
        let w = Workload::from_jobs(vec![hybrid_job("a", 4, 3, 0), hybrid_job("b", 6, 2, 30)]);
        for strategy in Strategy::extended_set() {
            let bare = FacilitySim::run(&scenario(strategy), &w).unwrap();
            let mut o1 = Noop::default();
            let mut o2 = Noop::default();
            let observed =
                FacilitySim::run_observed(&scenario(strategy), &w, &mut [&mut o1, &mut o2])
                    .unwrap();
            assert_eq!(bare.makespan, observed.makespan, "{strategy}");
            assert_eq!(
                bare.stats.mean_turnaround_secs(),
                observed.stats.mean_turnaround_secs(),
                "{strategy}"
            );
            assert!(o1.0 > 0);
            assert_eq!(o1.0, o2.0);
        }
    }

    /// The crossover workload mix: hybrid tenants competing with classical
    /// background traffic — the regime where the paper's strategies
    /// cross over (E6).
    fn crossover_workload() -> Workload {
        let mut jobs = Vec::new();
        // Four overlapping hybrid tenants: under co-scheduling they
        // serialize on the single exclusive QPU token.
        for i in 0..4u64 {
            jobs.push(hybrid_job(&format!("hyb{i}"), 4, 4, i * 15));
        }
        // Classical background traffic competing for the nodes.
        for i in 0..4u64 {
            jobs.push(classical_job(&format!("bg{i}"), 4, 600, 100 + i * 150));
        }
        Workload::from_jobs(jobs)
    }

    /// The acceptance experiment: on the crossover workload mix (several
    /// hybrid tenants over background load), per-job advisor routing must
    /// beat the *worst* fixed strategy on mean turnaround.
    #[test]
    fn adaptive_beats_worst_fixed_on_crossover_mix() {
        let w = crossover_workload();
        let worst = Strategy::representative_set()
            .into_iter()
            .map(|strategy| {
                let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
                out.stats.mean_turnaround_secs()
            })
            .fold(f64::MIN, f64::max);
        let adaptive = FacilitySim::run(&scenario(Strategy::Adaptive { vqpus: 4 }), &w).unwrap();
        assert!(
            adaptive.stats.mean_turnaround_secs() < worst,
            "adaptive {} must beat the worst fixed strategy {}",
            adaptive.stats.mean_turnaround_secs(),
            worst
        );
    }

    // ----- fault injection & recovery -------------------------------------

    use hpcqc_faults::{DriftModel, NodeFaults};

    /// Counts dependability events for behavioral fault assertions.
    #[derive(Debug, Default)]
    struct FaultCounter {
        kernel_failed: usize,
        kernel_retried: usize,
        rerouted: usize,
        checkpoints: usize,
        restarts: usize,
        recalibrations: usize,
        outages: usize,
        repairs: usize,
        fault_holds: usize,
        rewound: f64,
    }
    impl SimObserver for FaultCounter {
        fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
            match event {
                SimEvent::KernelFailed { .. } => self.kernel_failed += 1,
                SimEvent::KernelRetried { .. } => self.kernel_retried += 1,
                SimEvent::KernelRerouted { .. } => self.rerouted += 1,
                SimEvent::CheckpointTaken { .. } => self.checkpoints += 1,
                SimEvent::JobRestarted {
                    rewound_node_seconds,
                    ..
                } => {
                    self.restarts += 1;
                    self.rewound += rewound_node_seconds;
                }
                SimEvent::DeviceFailed { recalibration, .. } => {
                    if *recalibration {
                        self.recalibrations += 1;
                    } else {
                        self.outages += 1;
                    }
                }
                SimEvent::DeviceRepaired { .. } => self.repairs += 1,
                SimEvent::JobHeld { reason, .. } if *reason == HoldReason::FaultRecovery => {
                    self.fault_holds += 1;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let w = Workload::from_jobs(vec![
            hybrid_job("a", 4, 3, 0),
            hybrid_job("b", 6, 2, 30),
            classical_job("c", 8, 900, 60),
        ]);
        for strategy in Strategy::extended_set() {
            let plain = FacilitySim::run(&scenario(strategy), &w).unwrap();
            let mut sc = scenario(strategy);
            sc.faults = Some(FaultPlan::none());
            let faulted = FacilitySim::run(&sc, &w).unwrap();
            assert_eq!(plain.makespan, faulted.makespan, "{strategy}");
            assert_eq!(
                plain.stats.mean_turnaround_secs(),
                faulted.stats.mean_turnaround_secs(),
                "{strategy}: an inert fault plan must not perturb the run"
            );
        }
    }

    #[test]
    fn transient_kernel_errors_retry_to_completion() {
        // Half of all kernel executions fail; generous retry budget means
        // the jobs still complete, paying backoff time for each attempt.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.faults = Some(
            FaultPlan::named("flaky-kernels")
                .device(DeviceFaults::new().kernel_error_rate(0.5))
                .recovery(
                    RecoverySpec::new()
                        .max_kernel_retries(50)
                        .retry_backoff_secs(1.0),
                ),
        );
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
        let mut counter = FaultCounter::default();
        let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
        assert_eq!(out.stats.failed_count(), 0);
        assert!(
            counter.kernel_failed >= 1,
            "a 50% error rate must surface at least one failure"
        );
        assert_eq!(
            counter.kernel_retried, counter.kernel_failed,
            "every failure must be answered by a retry"
        );
        assert!(counter.fault_holds >= 1, "retries hold for fault recovery");
        // Same plan, same seed: byte-identical replay even with faults.
        let again = FacilitySim::run(&sc, &w).unwrap();
        assert_eq!(out.makespan, again.makespan);
    }

    #[test]
    fn device_outage_fails_over_to_fleet_peer() {
        use hpcqc_fleet::{FleetDevice, FleetSpec, RouteSpec};
        // Two slow neutral-atom devices with frequent outages: long kernels
        // get interrupted, and the retry routes to the surviving peer.
        let fleet = FleetSpec::new("pair")
            .route(RouteSpec::LeastLoaded)
            .device(FleetDevice::new("na-a", Technology::NeutralAtom))
            .device(FleetDevice::new("na-b", Technology::NeutralAtom));
        let mut sc = Scenario::builder()
            .classical_nodes(16)
            .fleet(fleet)
            .strategy(Strategy::Vqpu { vqpus: 2 })
            .seed(7)
            .build();
        sc.faults = Some(
            FaultPlan::named("outages")
                .device(
                    DeviceFaults::new()
                        .mtbf(Dist::exponential(7_200.0))
                        .repair(Dist::exponential(900.0)),
                )
                .recovery(
                    RecoverySpec::new()
                        .max_kernel_retries(20)
                        .retry_backoff_secs(30.0)
                        .max_requeues(50),
                ),
        );
        let w = Workload::from_jobs(vec![
            hybrid_job("a", 4, 2, 0),
            hybrid_job("b", 4, 2, 60),
            hybrid_job("c", 4, 2, 120),
        ]);
        let mut counter = FaultCounter::default();
        let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
        assert_eq!(out.stats.len(), 3);
        assert_eq!(
            out.stats.failed_count(),
            0,
            "all jobs must survive the outages"
        );
        assert!(counter.outages >= 1, "outages must occur");
        assert!(
            counter.kernel_failed >= 1,
            "an outage must interrupt an in-flight kernel"
        );
        assert!(
            counter.rerouted >= 1,
            "a retried kernel must fail over to the healthy peer \
             (outages={}, failed={}, retried={})",
            counter.outages,
            counter.kernel_failed,
            counter.kernel_retried,
        );
    }

    #[test]
    fn checkpoint_restart_rescues_long_classical_job() {
        // Node fails every 1000 s; the 1500 s phase never fits between
        // failures, so without checkpointing the job burns its requeue
        // budget and fails. Checkpoint-restart carries progress across
        // attempts and finishes.
        let node = NodeFaults {
            mtbf: Dist::constant(1_000.0),
            repair: Dist::constant(100.0),
        };
        let mut plain = scenario(Strategy::CoSchedule);
        plain.classical_nodes = 4;
        plain.faults = Some(
            FaultPlan::named("no-ckpt")
                .node(node.clone())
                .recovery(RecoverySpec::new().max_requeues(10)),
        );
        let w = Workload::from_jobs(vec![classical_job("long", 4, 1_500, 0)]);
        let out = FacilitySim::run(&plain, &w).unwrap();
        assert_eq!(
            out.stats.failed_count(),
            1,
            "without checkpoints the phase never fits between failures"
        );

        let mut ckpt = scenario(Strategy::CoSchedule);
        ckpt.classical_nodes = 4;
        ckpt.faults = Some(
            FaultPlan::named("ckpt").node(node).recovery(
                RecoverySpec::new()
                    .max_requeues(10)
                    .checkpoint(CheckpointSpec::new(200.0, 5.0)),
            ),
        );
        let mut counter = FaultCounter::default();
        let out = FacilitySim::run_observed(&ckpt, &w, &mut [&mut counter]).unwrap();
        assert_eq!(
            out.stats.failed_count(),
            0,
            "checkpoint-restart must rescue the job \
             (checkpoints={}, restarts={})",
            counter.checkpoints,
            counter.restarts,
        );
        assert!(counter.checkpoints >= 2);
        assert!(counter.restarts >= 1);
        assert!(
            counter.rewound > 0.0,
            "a restart re-does the work since the last checkpoint"
        );
        assert!(
            counter.rewound < 4.0 * 1_000.0,
            "checkpoints must bound the rewound work below a full attempt \
             (rewound {})",
            counter.rewound
        );
    }

    #[test]
    fn drift_forces_recalibration_and_job_survives() {
        // 1000-shot kernels against a 500-shot drift threshold: every
        // kernel trips a recalibration; the next kernel parks until the
        // device returns and the job still completes.
        let mut sc = scenario(Strategy::CoSchedule);
        sc.faults = Some(
            FaultPlan::named("drifty")
                .device(DeviceFaults::new().drift(DriftModel::new(1e-3, 0.5))),
        );
        let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
        let mut counter = FaultCounter::default();
        let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
        assert_eq!(out.stats.failed_count(), 0);
        assert!(
            counter.recalibrations >= 1,
            "shot accumulation past the threshold must force recalibration"
        );
        // The sim stops once every job finalizes, so the very last
        // recalibration's repair may never fire.
        assert!(
            counter.repairs + 1 >= counter.recalibrations,
            "recalibrations must end with the device back in service \
             (repairs={}, recalibrations={})",
            counter.repairs,
            counter.recalibrations
        );
        assert_eq!(counter.kernel_failed, 0, "drift does not fail kernels");
    }
}
