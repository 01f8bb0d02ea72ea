//! The job lifecycle: submit → start → phases → kernels → release, and
//! the walltime kill and abort that end an attempt early. It owns a job's
//! [`Attempt`] (allocation, device, pending keys, the open phase) and its
//! [`Progress`] through the phase list.

use super::*;

impl<'o> SimState<'o> {
    pub(super) fn on_submit(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let plan = driver.submission_plan(&mut SimCtx { state: self, now }, job);
        self.live_mut(job).plan = plan;
        let SubmissionPlan::WholeJob { hold_qpu } = plan else {
            return self.submit_step(job, now);
        };
        let spec = &self.live(job).spec;
        let mut request =
            AllocRequest::new().group(GroupRequest::nodes(spec.partition(), spec.nodes()));
        if hold_qpu && spec.is_hybrid() {
            request = request.group(GroupRequest::gres(
                spec.qpu_partition(),
                GresKind::qpu(),
                spec.qpu_count(),
            ));
        }
        let walltime = spec.walltime();
        self.enqueue(job, request, walltime, now)
    }

    /// Per-step plans: submit the step for the job's current phase.
    pub(super) fn submit_step(&mut self, job: JobId, now: SimTime) -> Result<(), SimError> {
        let run = self.live(job);
        let spec = &run.spec;
        let (request, walltime) = match &spec.phases()[run.progress.phase_idx] {
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
        };
        self.enqueue(job, request, walltime, now)
    }

    /// Queues one submission of `job` (the whole job, or its current step
    /// under a per-step plan) under a fresh qid; qids are never reused.
    fn enqueue(
        &mut self,
        job: JobId,
        request: AllocRequest,
        walltime: SimDuration,
        now: SimTime,
    ) -> Result<(), SimError> {
        let qid = JobId::new(self.next_qid);
        self.next_qid += 1;
        self.queue_map.insert(qid.raw(), job);
        let run = self.live_mut(job);
        run.attempt.queued_qid = Some(qid.raw());
        run.attempt.queued_at = now;
        run.attempt.current_walltime = walltime;
        let step = run.plan == SubmissionPlan::PerStep;
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
                step,
            }
        );
        Ok(())
    }

    /// A queued submission started on `alloc`: records the grant, binds
    /// the QPU device from a granted gres unit, arms the walltime timer and
    /// begins the job's current phase.
    pub(super) fn on_started(
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
        // hpcqc-lint: allow(D004, reason = "the scheduler granted this allocation in the current cycle; nothing released it yet")
        let allocation = self.cluster.allocation(alloc).expect("alloc just granted");
        let nodes = allocation.node_count() as u32;
        let units = self.qpu_units(allocation);
        let run = self.live_mut(job);
        run.attempt.queued_qid = None;
        run.attempt.alloc = Some(alloc);
        if run.usage.first_start.is_none() {
            run.usage.first_start = Some(now);
        } else if let Some(prev) = run.attempt.prev_phase_end {
            // Everything between the previous step's end and this start is
            // inter-step overhead: workflow-manager delay + queue wait. A
            // whole job starts with no `prev_phase_end`: its phases run on
            // in one allocation, and every requeue clears it.
            run.usage.phase_wait += now.saturating_since(prev);
        }
        run.usage.set_alloc_nodes(now, nodes);
        // A whole job reports its node grant even at 0 nodes (a hybrid job
        // may hold only its QPU); a step without nodes reports none.
        if nodes > 0 || run.plan != SubmissionPlan::PerStep {
            emit!(
                self,
                now,
                SimEvent::AllocationChanged {
                    job,
                    node_delta: f64::from(nodes),
                    qpu_delta: 0.0,
                }
            );
        }
        if let Some((unit, count)) = units {
            let device = self.bind_device(job, unit)?;
            let run = self.live_mut(job);
            run.attempt.device = Some(device);
            run.usage.set_qpu_units(now, count);
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
        if self.faults.active {
            if let Some(device) = nth_cyclic(capable.filter(|i| !self.spec_down(*i)), unit) {
                return Ok(device);
            }
        }
        Err(SimError::Qpu(QpuError::KernelTooLarge {
            requested: need,
            available: self.most_qubits(),
        }))
    }

    fn begin_phase(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let run = self.live(job);
        match run.spec.phases().get(run.progress.phase_idx) {
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
        let run = self.live_mut(job);
        // Linear-speedup stretch when malleably running on fewer nodes.
        let full = if run.usage.alloc_nodes > 0 && run.usage.alloc_nodes < run.spec.nodes() {
            nominal.mul_f64(f64::from(run.spec.nodes()) / f64::from(run.usage.alloc_nodes))
        } else {
            nominal
        };
        // Checkpoint-restart resume: only the not-yet-durable fraction of
        // the phase is re-run.
        let entry_frac = run.progress.completed_frac.clamp(0.0, 1.0);
        let duration = if entry_frac > 0.0 {
            full.mul_f64(1.0 - entry_frac)
        } else {
            full
        };
        let nodes = f64::from(run.usage.alloc_nodes);
        run.attempt.classical_started = Some(now);
        run.attempt.classical_active_nodes = nodes;
        run.attempt.classical_entry_frac = entry_frac;
        run.attempt.classical_full_secs = full.as_secs_f64();
        run.attempt.ckpt_cost_secs = 0.0;
        let index = run.progress.phase_idx;
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
            run.attempt.pending_event = Some(key);
            run.attempt.classical_end = end;
            run.epoch
        };
        if let Some(cp) = &self.faults.checkpoint {
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
        let Some(started) = run.attempt.classical_started.take() else {
            return;
        };
        let nodes = run.attempt.classical_active_nodes;
        run.usage.node_seconds_used += nodes * now.saturating_since(started).as_secs_f64();
        let index = run.progress.phase_idx;
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

    /// Closes an open quantum phase (kernel done, failed or aborted) with
    /// the [`SimEvent::PhaseEnded`] the waste and Gantt observers consume;
    /// the quantum phase holds no node work.
    pub(super) fn close_quantum(&mut self, job: JobId, now: SimTime) {
        let run = self.live_mut(job);
        let Some(started) = run.attempt.quantum_started.take() else {
            return;
        };
        let index = run.progress.phase_idx;
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
    }

    /// Routes the job's current kernel and dispatches it, or parks the
    /// job while no capable device is in service. The kernel is borrowed
    /// from [`SimState::jobs`] (a field-disjoint borrow beside the fleet
    /// and devices), not cloned out of the job's phase list.
    pub(super) fn begin_quantum(
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
        if self.live(job).attempt.kernel_attempts > 0 && !self.faults.recovery.failover_enabled() {
            if let Some(prev) = self.live(job).attempt.last_exec_device {
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
                .any(|(i, d)| d.qubits() >= kernel.qubits() && self.faults.injected_down(i));
            if transient_down {
                return self.park_for_recovery(job, now);
            }
            // Distinguish "no device is large enough" from fleet-metadata
            // refusals (down devices, shot caps).
            let best = self.most_qubits();
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
        let pin = self.live(job).attempt.device.map(DeviceId::new);
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
            match run.attempt.last_exec_device {
                Some(prev) if run.attempt.kernel_attempts > 0 && prev != device_idx => Some(prev),
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
        self.live_mut(job).attempt.last_exec_device = Some(device_idx);
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
            run.usage.phase_wait += exec.wait();
            run.usage.qpu_seconds_used += exec.service().as_secs_f64();
            run.attempt.classical_started = None;
            run.attempt.quantum_started = Some(now);
            run.progress.phase_idx
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
        let rate = self.faults.error_rate;
        let failed = rate > 0.0 && self.faults.kernel_error_rng.chance(rate);
        let done = exec.end.saturating_add(overhead);
        let key = if failed {
            self.events
                .schedule(done, Event::KernelFault(job, device_idx))
        } else {
            self.events.schedule(done, Event::KernelDone(job))
        };
        let run = self.live_mut(job);
        run.attempt.pending_event = Some(key);
        run.attempt.in_flight = Some(device_idx);
        self.accrue_drift(device_idx, shots, now);
        Ok(())
    }

    pub(super) fn on_phase_done(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.close_classical(job, now);
        self.next_phase(job, now);
        driver.on_phase_advanced(&mut SimCtx { state: self, now }, job)?;
        self.advance(driver, job, now)
    }

    pub(super) fn on_kernel_done(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let run = self.live_mut(job);
        run.attempt.in_flight = None;
        run.attempt.kernel_attempts = 0;
        self.close_quantum(job, now);
        self.next_phase(job, now);
        // Malleable-style drivers re-expand (best-effort) before the next
        // classical phase; shortfall is absorbed by stretching.
        driver.on_quantum_exit(&mut SimCtx { state: self, now }, job)?;
        driver.on_phase_advanced(&mut SimCtx { state: self, now }, job)?;
        self.advance(driver, job, now)
    }

    /// The current phase is over: retires its completion key and moves the
    /// job to its next phase, remembering when this one ended. Checkpoint
    /// progress is per-phase, so the next phase starts without any.
    fn next_phase(&mut self, job: JobId, now: SimTime) {
        let run = self.live_mut(job);
        run.attempt.pending_event = None;
        run.attempt.prev_phase_end = Some(now);
        run.progress = Progress {
            phase_idx: run.progress.phase_idx + 1,
            ..Progress::default()
        };
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
            (run.progress.phase_idx >= run.spec.phases().len(), run.plan)
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
        let run = self.live_mut(job);
        run.attempt.kill_event = None;
        let Some(alloc) = run.attempt.alloc.take() else {
            return Ok(());
        };
        let (nodes, qpus) = (run.usage.alloc_nodes, run.usage.qpu_alloc_units);
        run.usage.set_alloc_nodes(now, 0);
        run.usage.set_qpu_units(now, 0);
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

    /// Arms a walltime-kill timer for the just-started job/step. The
    /// previous attempt's or step's timer was disarmed when it released
    /// its allocation, so none is armed.
    fn arm_walltime_kill(&mut self, job: JobId, now: SimTime) {
        let crate::scenario::WalltimePolicy::Kill { .. } = self.scenario.walltime_policy else {
            return;
        };
        let attempt = &self.live(job).attempt;
        debug_assert!(
            attempt.kill_event.is_none(),
            "{job} already has a kill timer"
        );
        let walltime = attempt.current_walltime;
        if walltime.is_zero() {
            return;
        }
        let key = self
            .events
            .schedule(now.saturating_add(walltime), Event::KillJob(job));
        self.live_mut(job).attempt.kill_event = Some(key);
    }

    /// Aborts the job's in-flight attempt: stops the current phase, fences
    /// off the events no key tracks by bumping the epoch, and releases
    /// resources. A kernel already on the device keeps executing (hardware
    /// queues don't abort). The caller, [`SimState::requeue`], drops the
    /// attempt and with it the keys of its pending events.
    pub(super) fn abort_attempt(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        self.close_classical(job, now);
        self.close_quantum(job, now);
        let run = self.live_mut(job);
        run.epoch += 1;
        // A not-yet-started submission must leave the batch queue with the
        // attempt, or it would later start a job that no longer exists.
        if let Some(qid) = run.attempt.queued_qid.take() {
            self.scheduler.cancel(JobId::new(qid));
            self.queue_map.remove(&qid);
        }
        self.release_current(driver, job, now)?;
        driver.on_abort(&mut SimCtx { state: self, now }, job)
    }

    /// SLURM-style walltime kill: abort the current attempt, release its
    /// resources, and requeue the whole job (from phase 0) while the
    /// walltime policy's requeue budget lasts; record it failed afterwards.
    pub(super) fn kill_job(
        &mut self,
        driver: &mut dyn StrategyDriver,
        job: JobId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let crate::scenario::WalltimePolicy::Kill { max_requeues } = self.scenario.walltime_policy
        else {
            return Ok(());
        };
        match self.requeue(driver, job, max_requeues, false, now)? {
            Some(_) => self.on_submit(driver, job, now),
            None => Ok(()),
        }
    }

    /// The qubit count of the largest device.
    fn most_qubits(&self) -> u32 {
        self.devices
            .iter()
            .map(QpuDevice::qubits)
            .max()
            .unwrap_or(0)
    }

    /// Queue wait of `job`'s most recent submission up to `now`.
    pub(super) fn last_wait(&self, job: JobId, now: SimTime) -> SimDuration {
        now.saturating_since(self.live(job).attempt.queued_at)
    }

    /// The slowest capable device's mean job time for `kernel`, seconds.
    /// Only devices with enough qubits count — an incapable device's
    /// timing must not drive planning for a kernel it can never run —
    /// falling back to all devices when none is capable (the simulation
    /// will error on such a kernel anyway; the estimate stays finite).
    pub(super) fn worst_case_device_secs(&self, kernel: &Kernel) -> f64 {
        let any_capable = self.devices.iter().any(|d| d.qubits() >= kernel.qubits());
        self.devices
            .iter()
            .filter(|d| !any_capable || d.qubits() >= kernel.qubits())
            .map(|d| d.timing().mean_job_secs(kernel.shots()))
            .fold(0.0_f64, f64::max)
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
