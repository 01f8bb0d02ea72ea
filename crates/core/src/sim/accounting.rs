//! Per-job and facility accounting. It owns each job's [`Usage`]: the
//! node and QPU allocation integrals kept at every transition, which
//! [`SimState::finalize`] turns into the job's [`JobRecord`], and the
//! assembly of the run's [`Outcome`].

use super::*;

/// A job's usage over its whole life, which no requeue resets: the exact
/// per-job integrals, maintained at every transition, that
/// [`SimState::finalize`] reports in the job's [`JobRecord`].
#[derive(Debug, Default)]
pub(super) struct Usage {
    pub(super) first_start: Option<SimTime>,
    pub(super) phase_wait: SimDuration,
    pub(super) alloc_nodes: u32,
    alloc_nodes_since: SimTime,
    node_seconds_alloc: f64,
    pub(super) node_seconds_used: f64,
    pub(super) qpu_alloc_units: u32,
    qpu_alloc_since: SimTime,
    qpu_seconds_alloc: f64,
    pub(super) qpu_seconds_used: f64,
    /// `node_seconds_used` at the start of the current attempt, so a
    /// restart-from-zero can report exactly this attempt's work as rewound.
    /// Every requeue, walltime kill or fault, resets it.
    pub(super) attempt_used_base: f64,
}

impl Usage {
    /// Closes the running node-allocation integral at `now` and sets a new
    /// allocated-node count.
    pub(super) fn set_alloc_nodes(&mut self, now: SimTime, nodes: u32) {
        self.node_seconds_alloc += f64::from(self.alloc_nodes)
            * now.saturating_since(self.alloc_nodes_since).as_secs_f64();
        self.alloc_nodes = nodes;
        self.alloc_nodes_since = now;
    }

    /// Same for exclusive QPU gres units.
    pub(super) fn set_qpu_units(&mut self, now: SimTime, units: u32) {
        self.qpu_seconds_alloc += f64::from(self.qpu_alloc_units)
            * now.saturating_since(self.qpu_alloc_since).as_secs_f64();
        self.qpu_alloc_units = units;
        self.qpu_alloc_since = now;
    }
}

impl<'o> FacilitySim<'o> {
    pub(super) fn into_outcome(self) -> Outcome {
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
    /// Terminal bookkeeping shared by completion and final kill. Retires
    /// the job's live state entirely — after this the simulator holds no
    /// per-job memory for it (the streaming-memory contract), and the key
    /// fence drops any event of its still in the calendar.
    pub(super) fn finalize(&mut self, job: JobId, now: SimTime, completed: bool) {
        let Some(run) = self.jobs.remove(job.raw()) else {
            debug_assert!(false, "{job} finalized twice");
            return;
        };
        self.completed += 1;
        let record = JobRecord {
            name: run.spec.name().to_string(),
            user: run.spec.user().to_string(),
            submit: run.spec.submit(),
            start: run.usage.first_start.unwrap_or(run.spec.submit()),
            end: now,
            nodes: run.spec.nodes(),
            hybrid: run.spec.is_hybrid(),
            completed,
            node_seconds_allocated: run.usage.node_seconds_alloc,
            node_seconds_used: run.usage.node_seconds_used,
            qpu_seconds_allocated: run.usage.qpu_seconds_alloc,
            qpu_seconds_used: run.usage.qpu_seconds_used,
            phase_wait: run.usage.phase_wait,
        };
        emit!(self, now, SimEvent::JobFinalized { record: &record });
    }
}
