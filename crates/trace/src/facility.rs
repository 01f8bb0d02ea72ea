//! The facility state behind the scheduler-level gauges, folded once from
//! the [`SimEvent`] stream: [`TraceObserver`](crate::TraceObserver)'s
//! counter tracks and [`MetricsObserver`](crate::MetricsObserver)'s
//! gauges both read it.

use hpcqc_core::observer::SimEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Queue depth, running jobs, free nodes and idle QPUs.
///
/// A submission is queued from its `JobSubmitted` until its `JobStarted`.
/// A job is running from its `JobStarted` until its next `JobSubmitted`
/// (the next workflow step, or a requeued attempt) or its `JobFinalized`.
/// A job has at most one submission in the queue, so both sets are keyed
/// by raw job id.
#[derive(Debug)]
pub(crate) struct FacilityState {
    nodes_total: f64,
    devices_total: i64,
    queued: BTreeSet<u64>,
    running: BTreeSet<u64>,
    /// Raw id of every job not yet finalized, by name: `JobFinalized`
    /// carries only the job's record.
    live: BTreeMap<String, u64>,
    nodes_alloc: f64,
    execs: i64,
}

impl FacilityState {
    /// An idle machine of `classical_nodes` nodes and `devices` QPUs.
    pub(crate) fn new(classical_nodes: u32, devices: usize) -> Self {
        FacilityState {
            nodes_total: f64::from(classical_nodes),
            devices_total: devices as i64,
            queued: BTreeSet::new(),
            running: BTreeSet::new(),
            live: BTreeMap::new(),
            nodes_alloc: 0.0,
            execs: 0,
        }
    }

    /// Folds in one event. Returns the raw id of the job a `JobFinalized`
    /// retires.
    pub(crate) fn apply(&mut self, event: &SimEvent<'_>) -> Option<u64> {
        match event {
            SimEvent::JobSubmitted { job, name, .. } => {
                let raw = job.raw();
                self.running.remove(&raw);
                self.queued.insert(raw);
                if !self.live.contains_key(*name) {
                    self.live.insert((*name).to_string(), raw);
                }
            }
            SimEvent::JobStarted { job, .. } => {
                self.queued.remove(&job.raw());
                self.running.insert(job.raw());
            }
            SimEvent::AllocationChanged { node_delta, .. } => self.nodes_alloc += node_delta,
            SimEvent::KernelExecStarted { .. } => self.execs += 1,
            SimEvent::KernelExecEnded { .. } => self.execs -= 1,
            SimEvent::JobFinalized { record } => {
                let raw = self.live.remove(record.name.as_str())?;
                self.queued.remove(&raw);
                self.running.remove(&raw);
                return Some(raw);
            }
            _ => {}
        }
        None
    }

    /// Submissions waiting in the batch queue.
    pub(crate) fn queue_depth(&self) -> f64 {
        self.queued.len() as f64
    }

    /// Jobs holding a started submission.
    pub(crate) fn running_jobs(&self) -> f64 {
        self.running.len() as f64
    }

    /// Classical nodes no job holds.
    pub(crate) fn free_nodes(&self) -> f64 {
        self.nodes_total - self.nodes_alloc
    }

    /// QPUs executing no kernel.
    pub(crate) fn idle_qpus(&self) -> f64 {
        (self.devices_total - self.execs) as f64
    }
}
