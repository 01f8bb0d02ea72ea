//! Fault injection and recovery: node and device failures and repairs,
//! calibration drift, kernel failures and their retries, checkpoints, and
//! the one `requeue` path that walltime kills share. It owns [`Faults`]:
//! the fault plan resolved once, its random streams and the per-device
//! downtime and drift.

use super::*;

/// The scenario's fault plan, resolved once when the simulator is built,
/// and the state of the fault processes it drives. A section acts only
/// under an *active* plan: one that is present and not
/// [inert](FaultPlan::is_inert). The recovery policy is read from any
/// plan, inert or not.
#[derive(Debug)]
pub(super) struct Faults {
    /// Whether the plan is active.
    pub(super) active: bool,
    /// The node fault process.
    node: Option<NodeFaults>,
    /// The device outage process: time between outages, repair time.
    outage: Option<(Dist, Dist)>,
    /// The calibration drift model.
    drift: Option<DriftModel>,
    /// The transient kernel error rate; 0 never flips the coin.
    pub(super) error_rate: f64,
    /// The plan's recovery policy, or the defaults.
    pub(super) recovery: RecoverySpec,
    /// Checkpoint-restart, under an active plan only.
    pub(super) checkpoint: Option<CheckpointSpec>,
    /// Node-failure stream: failure times, victims and repair times.
    failure_rng: SimRng,
    /// Per-device fault-process streams (outage timing, recalibration
    /// durations), forked by `(seed, label, index)` alone so their mere
    /// existence cannot perturb any pre-existing stream.
    device_rngs: Vec<SimRng>,
    /// Transient kernel-error stream: one draw per dispatched kernel when
    /// the error rate is nonzero.
    pub(super) kernel_error_rng: SimRng,
    /// Fault-injected downtime per device, as a counter: an outage and a
    /// forced recalibration may overlap, and the device is back in service
    /// only once every pending repair has completed.
    device_down: Vec<u32>,
    /// Accumulated calibration drift per device, in fault-plan units.
    device_drift: Vec<f64>,
}

impl Faults {
    /// Resolves `plan` for `devices` devices and puts the first node
    /// failure, then each device's first outage, on the calendar.
    pub(super) fn new(
        plan: Option<&FaultPlan>,
        root: &SimRng,
        devices: usize,
        events: &mut EventQueue<Event>,
    ) -> Faults {
        let active = plan.filter(|p| !p.is_inert());
        let device = active.and_then(|p| p.device.as_ref());
        let mut faults = Faults {
            active: active.is_some(),
            node: active.and_then(|p| p.node.clone()),
            outage: device
                .and_then(DeviceFaults::outage_process)
                .map(|(mtbf, repair)| (mtbf.clone(), repair.clone())),
            drift: device.and_then(|d| d.drift.clone()),
            error_rate: device.map_or(0.0, DeviceFaults::error_rate),
            recovery: plan.map_or_else(RecoverySpec::default, FaultPlan::recovery_or_default),
            checkpoint: active
                .and_then(|p| p.recovery.as_ref())
                .and_then(|r| r.checkpoint.clone()),
            failure_rng: root.fork("failures"),
            device_rngs: (0..devices)
                .map(|i| root.fork_indexed("device-faults", i as u64))
                .collect(),
            kernel_error_rng: root.fork("kernel-errors"),
            device_down: vec![0; devices],
            device_drift: vec![0.0; devices],
        };
        if let Some(node) = &faults.node {
            let first = node.mtbf.sample_duration(&mut faults.failure_rng);
            events.schedule(SimTime::ZERO + first, Event::NodeFailure);
        }
        if let Some((mtbf, _)) = &faults.outage {
            for (i, rng) in faults.device_rngs.iter_mut().enumerate() {
                let first = mtbf.sample_duration(rng);
                events.schedule(SimTime::ZERO + first, Event::DeviceFailure(i));
            }
        }
        faults
    }

    /// `true` when `device` is currently out of service through fault
    /// injection (outage or forced recalibration).
    pub(super) fn injected_down(&self, device: usize) -> bool {
        self.device_down.get(device).copied().unwrap_or(0) > 0
    }
}

impl<'o> SimState<'o> {
    /// Fails a uniformly random up-node of the fault plan's node process;
    /// the owning job (if any) is killed and requeued within the recovery
    /// budget, resuming from its last classical checkpoint when
    /// checkpoint-restart is configured. Schedules the repair and the next
    /// failure.
    pub(super) fn on_node_failure(
        &mut self,
        driver: &mut dyn StrategyDriver,
        now: SimTime,
    ) -> Result<(), SimError> {
        let faults = &mut self.faults;
        let Some(process) = &faults.node else {
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
        // The stream draws the victim, its repair time, then the next
        // failure; the requeue below draws from none of it.
        let failed = (!up.is_empty()).then(|| {
            let node = *faults.failure_rng.pick(&up);
            let repair_in = process.repair.sample_duration(&mut faults.failure_rng);
            (node, repair_in)
        });
        let next = process.mtbf.sample_duration(&mut faults.failure_rng);
        if let Some((node, repair_in)) = failed {
            let owner = self.cluster.fail_node(node)?;
            emit!(self, now, SimEvent::NodeFailed { node });
            // An instant past `SimTime::MAX` never comes (here and for every
            // fault-process instant): saturated, it would fire at the end
            // of time.
            if let Some(at) = now.checked_add(repair_in) {
                self.events.schedule(at, Event::NodeRepair(node));
            }
            // The owner's job is the live job holding that allocation. With
            // checkpoint-restart it keeps its phase and re-does only the
            // work since its last durable checkpoint.
            let checkpointed = self.faults.checkpoint.is_some();
            let victim = owner.and_then(|alloc| {
                let (raw, run) = self
                    .jobs
                    .iter()
                    .find(|(_, r)| r.attempt.alloc == Some(alloc))?;
                let rewind = run.attempt.classical_started.filter(|_| checkpointed);
                let rewind = rewind.map(|started| {
                    let from = run
                        .progress
                        .last_checkpoint_at
                        .map_or(started, |c| c.max(started));
                    run.attempt.classical_active_nodes * now.saturating_since(from).as_secs_f64()
                });
                Some((JobId::new(raw), rewind))
            });
            if let Some((job, checkpoint_rewind)) = victim {
                self.requeue_after_fault(driver, job, checkpoint_rewind, now)?;
            }
        }
        if let Some(at) = now.checked_add(next) {
            self.events.schedule(at, Event::NodeFailure);
        }
        Ok(())
    }

    /// The one requeue path, for walltime kills and faults alike: aborts
    /// the attempt, then fails the job if it has spent `budget` requeues
    /// (the counter is shared; each caller brings its own budget).
    /// Otherwise it starts a fresh [`Attempt`], keeps the job's
    /// [`Progress`] only when `keep_phase`, and returns the node work the
    /// attempt did; the caller resubmits.
    pub(super) fn requeue(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        budget: u32,
        keep_phase: bool,
        now: SimTime,
    ) -> Result<Option<f64>, SimError> {
        self.abort_attempt(driver, job, now)?;
        if self.live(job).requeues >= budget {
            self.finalize(job, now, false);
            return Ok(None);
        }
        let run = self.live_mut(job);
        let attempt_work = (run.usage.node_seconds_used - run.usage.attempt_used_base).max(0.0);
        run.requeues += 1;
        run.attempt = Attempt::default();
        if !keep_phase {
            run.progress = Progress::default();
        }
        run.usage.attempt_used_base = run.usage.node_seconds_used;
        Ok(Some(attempt_work))
    }

    /// Fault requeue (node failure, or kernel retries exhausted) within the
    /// recovery policy's budget. `checkpoint_rewind` keeps the job's phase
    /// and rewinds that much node work; `None` restarts from phase 0 and
    /// rewinds the whole attempt. A requeued job reports the rewound work
    /// in [`SimEvent::JobRestarted`] and resubmits.
    fn requeue_after_fault(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        checkpoint_rewind: Option<f64>,
        now: SimTime,
    ) -> Result<(), SimError> {
        let budget = self.faults.recovery.requeue_budget();
        let keep_phase = checkpoint_rewind.is_some();
        let Some(attempt_work) = self.requeue(driver, job, budget, keep_phase, now)? else {
            return Ok(());
        };
        emit!(
            self,
            now,
            SimEvent::JobRestarted {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                rewound_node_seconds: checkpoint_rewind.unwrap_or(attempt_work),
            }
        );
        self.on_submit(driver, job, now)
    }

    /// Adjusts the injected-downtime counter for `device` and mirrors the
    /// resulting service state into the fleet's routing metadata (a
    /// spec'd-down device stays down regardless of repairs).
    fn set_device_down(&mut self, device: usize, down: bool) {
        let Some(counter) = self.faults.device_down.get_mut(device) else {
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
    pub(super) fn spec_down(&self, device: usize) -> bool {
        self.fleet.spec().devices.get(device).and_then(|d| d.down) == Some(true)
    }

    /// A QPU outage: the device leaves service, in-flight kernels on it
    /// fail (their jobs enter kernel recovery), and the repair plus the
    /// next outage are scheduled. Kernels merely *queued* in the device
    /// model keep their timing — downtime is charged through routing and
    /// dispatch, not by rebuilding device queues.
    pub(super) fn on_device_failure(
        &mut self,
        driver: &mut dyn StrategyDriver,
        device: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let Some((mtbf, repair)) = &self.faults.outage else {
            return Ok(());
        };
        let rng = &mut self.faults.device_rngs[device];
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
            .filter(|(_, run)| run.attempt.in_flight == Some(device))
            .map(|(raw, _)| JobId::new(raw))
            .collect();
        for job in victims {
            self.fail_kernel(driver, job, device, now)?;
        }
        Ok(())
    }

    /// Outage repaired or forced recalibration finished: the device
    /// returns to service once *all* overlapping downtimes have cleared.
    pub(super) fn on_device_repair(&mut self, device: usize, now: SimTime) {
        self.set_device_down(device, false);
        if !self.faults.injected_down(device) {
            emit!(self, now, SimEvent::DeviceRepaired { device });
        }
    }

    /// Books a dispatched kernel's `shots` against device drift; crossing
    /// the threshold takes the device out of service for a forced
    /// recalibration. The kernel just dispatched still runs —
    /// recalibration starts once the device drains, and only future
    /// routing sees the downtime.
    pub(super) fn accrue_drift(&mut self, device: usize, shots: u32, now: SimTime) {
        let faults = &mut self.faults;
        let Some(drift) = &faults.drift else {
            return;
        };
        let accrued = &mut faults.device_drift[device];
        *accrued += drift.per_shot * f64::from(shots);
        if *accrued < drift.threshold {
            return;
        }
        *accrued = 0.0;
        let down = drift
            .recalibration_dist()
            .sample_duration(&mut faults.device_rngs[device]);
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
    pub(super) fn park_for_recovery(&mut self, job: JobId, now: SimTime) -> Result<(), SimError> {
        let delay = self.faults.recovery.backoff(1);
        self.retry_kernel(job, delay.max_of(SimDuration::from_secs(1)), now);
        Ok(())
    }

    /// Holds `job` in fault recovery and re-dispatches its kernel after
    /// `delay`, through an [`Event::KernelRetry`] that holds the job's
    /// pending key.
    fn retry_kernel(&mut self, job: JobId, delay: SimDuration, now: SimTime) {
        let key = self
            .events
            .schedule(now.saturating_add(delay), Event::KernelRetry(job));
        self.live_mut(job).attempt.pending_event = Some(key);
        emit!(
            self,
            now,
            SimEvent::JobHeld {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                reason: HoldReason::FaultRecovery,
            }
        );
    }

    /// `job`'s in-flight kernel failed: a transient error fired its
    /// `KernelFault` completion, or a device outage interrupted it.
    /// Retires the completion event (by dropping its key), books the
    /// failure and either schedules a capped, exponentially backed-off
    /// retry or escalates to a fault requeue (resuming at this phase when
    /// classical progress is checkpointed).
    pub(super) fn fail_kernel(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        device: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let run = self.live_mut(job);
        run.attempt.in_flight = None;
        run.attempt.pending_event = None;
        self.close_quantum(job, now);
        emit!(
            self,
            now,
            SimEvent::KernelFailed {
                job,
                name: run_of(&self.jobs, job).spec.name(),
                device,
            }
        );
        let attempts = {
            let run = self.live_mut(job);
            run.attempt.kernel_attempts += 1;
            run.attempt.kernel_attempts
        };
        let recovery = &self.faults.recovery;
        if attempts <= recovery.kernel_retry_cap() {
            let delay = recovery.backoff(attempts);
            self.retry_kernel(job, delay, now);
            return Ok(());
        }
        // Checkpointed classical progress survives; the quantum phase
        // itself holds no node work to rewind.
        let checkpoint_rewind = self.faults.checkpoint.as_ref().map(|_| 0.0);
        self.requeue_after_fault(driver, job, checkpoint_rewind, now)
    }

    /// Retry backoff expired: re-dispatch the job's current (quantum)
    /// phase. Routing runs again, so the retry fails over to another
    /// device when the recovery policy allows it.
    pub(super) fn on_kernel_retry(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let attempt = {
            let run = self.live_mut(job);
            run.attempt.pending_event = None;
            run.attempt.kernel_attempts
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
    pub(super) fn on_checkpoint(&mut self, job: JobId, now: SimTime) {
        let Some(cp) = &self.faults.checkpoint else {
            return;
        };
        let (cost_secs, cost, interval) = (cp.cost_secs, cp.cost(), cp.interval());
        let (progress, epoch, index, new_end) = {
            let JobRun {
                epoch,
                attempt,
                progress,
                ..
            } = self.live_mut(job);
            let Some(started) = attempt.classical_started else {
                return;
            };
            let worked =
                (now.saturating_since(started).as_secs_f64() - attempt.ckpt_cost_secs).max(0.0);
            let frac = if attempt.classical_full_secs > 0.0 {
                (attempt.classical_entry_frac + worked / attempt.classical_full_secs).min(1.0)
            } else {
                1.0
            };
            progress.completed_frac = frac;
            progress.last_checkpoint_at = Some(now);
            attempt.ckpt_cost_secs += cost_secs;
            attempt.classical_end = attempt.classical_end.saturating_add(cost);
            (frac, *epoch, progress.phase_idx, attempt.classical_end)
        };
        // The checkpoint stalls the phase for its cost: push the end out.
        // The new key retires the old `PhaseDone`.
        let key = self.events.schedule(new_end, Event::PhaseDone(job));
        self.live_mut(job).attempt.pending_event = Some(key);
        emit!(self, now, SimEvent::CheckpointTaken { job, progress });
        let next = now.saturating_add(cost).saturating_add(interval);
        if next < new_end {
            self.events
                .schedule(next, Event::Checkpoint(job, epoch, index));
        }
    }
}
