//! Streaming observation of a running simulation: the [`SimObserver`] API.
//!
//! The facility simulator does not hand metrics consumers privileged access
//! to its internals. Instead the event loop emits a typed [`SimEvent`]
//! stream, and every consumer — the built-in job statistics and waste
//! accounting included — is a [`SimObserver`] fed that stream. A new metric (queue-depth timeline, per-user fairness, energy
//! models, …) is a drop-in observer, not sim-loop surgery.
//!
//! Attach extra observers with
//! [`FacilitySim::run_observed`](crate::sim::FacilitySim::run_observed);
//! the built-ins are always attached and assemble the
//! [`Outcome`](crate::outcome::Outcome).
//!
//! ## A worked custom observer
//!
//! A queue-depth timeline — something the pre-observer simulator could only
//! have produced by editing the event loop — is ~20 lines:
//!
//! ```
//! use hpcqc_core::observer::{SimEvent, SimObserver};
//! use hpcqc_core::{FacilitySim, Scenario, Strategy};
//! use hpcqc_simcore::time::SimTime;
//! use hpcqc_workload::{JobClass, Pattern, Workload};
//! use hpcqc_qpu::Kernel;
//!
//! /// Samples the number of submitted-but-not-yet-started jobs over time.
//! #[derive(Debug, Default)]
//! struct QueueDepth {
//!     depth: i64,
//!     timeline: Vec<(SimTime, i64)>,
//! }
//!
//! impl SimObserver for QueueDepth {
//!     fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
//!         match event {
//!             SimEvent::JobSubmitted { .. } => self.depth += 1,
//!             SimEvent::JobStarted { .. } => self.depth -= 1,
//!             _ => return,
//!         }
//!         self.timeline.push((now, self.depth));
//!     }
//! }
//!
//! let workload = Workload::builder()
//!     .class(JobClass::new("vqe", Pattern::vqe(4, 60.0, Kernel::sampling(500))))
//!     .count(8)
//!     .generate(7);
//! let scenario = Scenario::builder()
//!     .strategy(Strategy::Vqpu { vqpus: 4 })
//!     .build();
//! let mut depth = QueueDepth::default();
//! let outcome = FacilitySim::run_observed(&scenario, &workload, &mut [&mut depth])?;
//! assert_eq!(outcome.stats.len(), 8);
//! assert!(!depth.timeline.is_empty());
//! assert_eq!(depth.depth, 0, "every submitted job eventually started");
//! # Ok::<(), hpcqc_core::SimError>(())
//! ```

use hpcqc_cluster::ids::NodeId;
use hpcqc_metrics::gantt::GanttRecorder;
use hpcqc_metrics::jobstats::{JobRecord, JobStats};
use hpcqc_metrics::waste::WasteTracker;
use hpcqc_sched::policy::HoldReason;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;

/// What kind of work a job phase performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Classical computation on the job's allocated nodes.
    Classical,
    /// A quantum kernel executing on (or queued for) a QPU device.
    Quantum,
}

/// One typed event from the simulator's event loop.
///
/// Events are emitted in deterministic order at every state transition the
/// built-in metrics need; string fields borrow from the simulator, so
/// observers that keep them must copy.
#[derive(Debug)]
pub enum SimEvent<'a> {
    /// A job (or one workflow step of it) entered the batch queue.
    JobSubmitted {
        /// The simulator-internal job index.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// `true` for a per-step (workflow) submission of an already-known
        /// job rather than its first whole-job submission.
        step: bool,
    },
    /// A queued submission was held by the scheduler for a newly-diagnosed
    /// cause (emitted at submit time and again whenever the binding cause
    /// changes, not on every cycle — the cause is in force until the next
    /// `JobHeld` or `JobStarted` for the same job).
    JobHeld {
        /// The held job.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Why the scheduler could not start it this cycle.
        reason: HoldReason,
    },
    /// A queued submission started: resources are granted.
    JobStarted {
        /// The job that started.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Queue wait this submission just experienced.
        wait: SimDuration,
    },
    /// The job's held resources changed (grant, shrink, expand or release).
    ///
    /// Deltas are in resource units: classical nodes and exclusively-held
    /// QPU gres tokens. Shared (virtual-QPU) holds are not exclusive
    /// capacity and do not appear here.
    AllocationChanged {
        /// The job whose allocation changed.
        job: JobId,
        /// Change in held classical nodes.
        node_delta: f64,
        /// Change in exclusively-held QPU units.
        qpu_delta: f64,
    },
    /// A phase began executing.
    PhaseStarted {
        /// The job entering the phase.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Classical or quantum.
        kind: PhaseKind,
        /// Index into the job's phase list.
        index: usize,
        /// Nodes actively computing during this phase (0 for quantum).
        busy_nodes: f64,
    },
    /// A phase finished (or was aborted by a kill/failure).
    PhaseEnded {
        /// The job leaving the phase.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Classical or quantum.
        kind: PhaseKind,
        /// Index into the job's phase list.
        index: usize,
        /// Nodes that were actively computing (0 for quantum).
        busy_nodes: f64,
        /// When the phase began.
        started: SimTime,
    },
    /// A kernel was placed on a device queue; carries the device's planned
    /// execution window.
    KernelEnqueued {
        /// The submitting job.
        job: JobId,
        /// The job's name (Gantt tag).
        name: &'a str,
        /// Device index (`qpu0`, `qpu1`, …).
        device: usize,
        /// Planned execution start on the device.
        start: SimTime,
        /// Planned execution end.
        end: SimTime,
        /// Recalibration window the device runs first (zero if none).
        recalibration: SimDuration,
    },
    /// A kernel began executing on the device hardware.
    KernelExecStarted {
        /// The submitting job.
        job: JobId,
        /// Device index executing the kernel (`qpu0`, `qpu1`, …).
        device: usize,
    },
    /// A kernel finished executing on the device hardware.
    KernelExecEnded {
        /// The submitting job.
        job: JobId,
        /// Device index that executed the kernel.
        device: usize,
    },
    /// The job reached a terminal state; `record` is its final accounting.
    JobFinalized {
        /// The finished job's record (completed or failed).
        record: &'a JobRecord,
    },
    /// Failure injection took a node down.
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A failed node returned to service.
    NodeRepaired {
        /// The repaired node.
        node: NodeId,
    },
    /// Fault injection took a QPU device down — an outage, or a forced
    /// recalibration after accumulated drift crossed its threshold.
    DeviceFailed {
        /// Device index (`qpu0`, `qpu1`, …).
        device: usize,
        /// `true` when the downtime is a drift-forced recalibration rather
        /// than an outage.
        recalibration: bool,
    },
    /// A downed QPU device returned to service.
    DeviceRepaired {
        /// Device index.
        device: usize,
    },
    /// A kernel execution failed — a transient error, or its device went
    /// down mid-flight. Device time up to the failure is still consumed.
    KernelFailed {
        /// The submitting job.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Device index the kernel failed on.
        device: usize,
    },
    /// A failed kernel was scheduled for another attempt after its
    /// deterministic backoff.
    KernelRetried {
        /// The submitting job.
        job: JobId,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A retried kernel landed on a different device than the failed
    /// attempt (cross-device failover through the fleet router).
    KernelRerouted {
        /// The submitting job.
        job: JobId,
        /// Device the failed attempt ran on.
        from: usize,
        /// Device the retry runs on.
        to: usize,
    },
    /// A classical-phase checkpoint completed (its cost is already part of
    /// the phase's wall time).
    CheckpointTaken {
        /// The checkpointing job.
        job: JobId,
        /// Fraction of the phase now safely persisted, in `(0, 1]`.
        progress: f64,
    },
    /// A job was re-submitted after a fault — kernel retries exhausted, or
    /// a node failure took out its allocation.
    JobRestarted {
        /// The restarted job.
        job: JobId,
        /// The job's name.
        name: &'a str,
        /// Node-seconds of classical progress discarded by the rewind
        /// (work since the last checkpoint; the whole phase's progress
        /// when checkpointing is off).
        rewound_node_seconds: f64,
    },
}

/// A consumer of the simulator's [`SimEvent`] stream.
///
/// Observers are called synchronously from the event loop in attachment
/// order (built-ins first), so they see a deterministic, totally-ordered
/// stream. They must not panic on unknown events: match what you need and
/// ignore the rest, so new event variants stay backward-compatible.
/// (`Debug` is required so the simulator itself stays debuggable with
/// observers attached.)
pub trait SimObserver: std::fmt::Debug {
    /// Called once per emitted event, at simulation time `now`.
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>);
}

// ---- built-in observers -------------------------------------------------

/// Full [`JobRecord`]s retained by the built-in statistics observer
/// before per-job retention folds into streaming aggregates (running
/// sums + P² quantile sketches — see [`JobStats::with_cap`]). Far above
/// any hand-built experiment, far below facility scale: a million-job
/// streamed run keeps O(this) metric memory, with every aggregate still
/// covering the whole population.
pub const DEFAULT_RECORD_CAP: usize = 100_000;

/// Collects per-job [`JobRecord`]s into [`JobStats`] (built-in).
///
/// Retains up to [`DEFAULT_RECORD_CAP`] full records; aggregates are
/// streaming and exact over all jobs regardless.
#[derive(Debug)]
pub struct StatsObserver {
    stats: JobStats,
}

impl Default for StatsObserver {
    fn default() -> Self {
        StatsObserver {
            stats: JobStats::with_cap(DEFAULT_RECORD_CAP),
        }
    }
}

impl StatsObserver {
    /// Creates an empty collector with the default retention cap.
    pub fn new() -> Self {
        StatsObserver::default()
    }

    /// Consumes the observer, yielding the collected statistics.
    pub fn into_stats(self) -> JobStats {
        self.stats
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &JobStats {
        &self.stats
    }
}

impl SimObserver for StatsObserver {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        if let SimEvent::JobFinalized { record } = event {
            self.stats.record((*record).clone());
        }
    }
}

/// Integrates allocated-vs-used waste for nodes and QPUs (built-in).
///
/// Wraps two [`WasteTracker`]s and feeds them purely from the event
/// stream: [`SimEvent::AllocationChanged`] moves the allocated integrals,
/// classical [`SimEvent::PhaseStarted`]/[`SimEvent::PhaseEnded`] move node
/// usage, and [`SimEvent::KernelExecStarted`]/[`SimEvent::KernelExecEnded`]
/// move QPU usage.
#[derive(Debug)]
pub struct WasteObserver {
    node: WasteTracker,
    qpu: WasteTracker,
}

impl WasteObserver {
    /// Creates trackers for a machine with `nodes` classical nodes and
    /// `devices` physical QPUs.
    pub fn new(start: SimTime, nodes: f64, devices: f64) -> Self {
        WasteObserver {
            node: WasteTracker::new(start, nodes),
            qpu: WasteTracker::new(start, devices),
        }
    }

    /// The classical-node tracker.
    pub fn node(&self) -> &WasteTracker {
        &self.node
    }

    /// The QPU tracker (exclusive holds only).
    pub fn qpu(&self) -> &WasteTracker {
        &self.qpu
    }
}

impl SimObserver for WasteObserver {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        match event {
            SimEvent::AllocationChanged {
                node_delta,
                qpu_delta,
                ..
            } => {
                // Zero-delta updates are skipped entirely: a no-op `set`
                // would still split the running integral segment and
                // perturb floating-point summation order.
                // hpcqc-lint: allow(D005, reason = "exact 0.0 is the documented no-op sentinel; deltas are built from integer conversions and literals")
                if *node_delta != 0.0 {
                    self.node.add_allocated(now, *node_delta);
                }
                // hpcqc-lint: allow(D005, reason = "exact 0.0 is the documented no-op sentinel; deltas are built from integer conversions and literals")
                if *qpu_delta != 0.0 {
                    self.qpu.add_allocated(now, *qpu_delta);
                }
            }
            SimEvent::PhaseStarted {
                kind: PhaseKind::Classical,
                busy_nodes,
                ..
            } => self.node.add_used(now, *busy_nodes),
            SimEvent::PhaseEnded {
                kind: PhaseKind::Classical,
                busy_nodes,
                ..
            } => self.node.add_used(now, -*busy_nodes),
            SimEvent::KernelExecStarted { .. } => self.qpu.add_used(now, 1.0),
            SimEvent::KernelExecEnded { .. } => self.qpu.add_used(now, -1.0),
            _ => {}
        }
    }
}

/// Records Gantt occupancy intervals. An ordinary observer: attach it
/// like any other and read [`GanttObserver::gantt`] after the run (the
/// `hpcqc-sim run --gantt` flag and the `neutral_atom_workflow` example
/// do).
///
/// Job lanes (`job:<name>`) get one `c`-tagged interval per classical
/// phase; device lanes (`qpu<i>`) get the kernel execution window plus any
/// `=`-tagged recalibration window preceding it.
#[derive(Debug, Default)]
pub struct GanttObserver {
    gantt: GanttRecorder,
}

impl GanttObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        GanttObserver::default()
    }

    /// Consumes the observer, yielding the recorded trace.
    pub fn into_gantt(self) -> GanttRecorder {
        self.gantt
    }

    /// The trace recorded so far.
    pub fn gantt(&self) -> &GanttRecorder {
        &self.gantt
    }
}

impl SimObserver for GanttObserver {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        match event {
            SimEvent::PhaseEnded {
                kind: PhaseKind::Classical,
                name,
                started,
                ..
            } => {
                self.gantt.record(format!("job:{name}"), *started, now, "c");
            }
            SimEvent::KernelEnqueued {
                name,
                device,
                start,
                end,
                recalibration,
                ..
            } => {
                if !recalibration.is_zero() {
                    self.gantt
                        .record(format!("qpu{device}"), *start - *recalibration, *start, "=");
                }
                self.gantt
                    .record(format!("qpu{device}"), *start, *end, *name);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str) -> JobRecord {
        JobRecord {
            name: name.into(),
            user: "u".into(),
            submit: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
            nodes: 2,
            hybrid: false,
            completed: true,
            node_seconds_allocated: 20.0,
            node_seconds_used: 20.0,
            qpu_seconds_allocated: 0.0,
            qpu_seconds_used: 0.0,
            phase_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn stats_observer_collects_finalized_jobs() {
        let mut obs = StatsObserver::new();
        let rec = record("a");
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::JobFinalized { record: &rec },
        );
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::JobSubmitted {
                job: JobId::new(0),
                name: "a",
                step: false,
            },
        );
        assert_eq!(obs.stats().len(), 1);
        assert_eq!(obs.into_stats().records()[0].name, "a");
    }

    #[test]
    fn waste_observer_integrates_allocation_and_usage() {
        let mut obs = WasteObserver::new(SimTime::ZERO, 8.0, 1.0);
        let job = JobId::new(0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::AllocationChanged {
                job,
                node_delta: 4.0,
                qpu_delta: 1.0,
            },
        );
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::PhaseStarted {
                job,
                name: "j",
                kind: PhaseKind::Classical,
                index: 0,
                busy_nodes: 4.0,
            },
        );
        obs.on_event(
            SimTime::from_secs(60),
            &SimEvent::PhaseEnded {
                job,
                name: "j",
                kind: PhaseKind::Classical,
                index: 0,
                busy_nodes: 4.0,
                started: SimTime::ZERO,
            },
        );
        obs.on_event(
            SimTime::from_secs(60),
            &SimEvent::KernelExecStarted { job, device: 0 },
        );
        obs.on_event(
            SimTime::from_secs(70),
            &SimEvent::KernelExecEnded { job, device: 0 },
        );
        obs.on_event(
            SimTime::from_secs(70),
            &SimEvent::AllocationChanged {
                job,
                node_delta: -4.0,
                qpu_delta: -1.0,
            },
        );
        let end = SimTime::from_secs(70);
        assert_eq!(obs.node().allocated_unit_seconds(end), 280.0);
        assert_eq!(obs.node().used_unit_seconds(end), 240.0);
        assert_eq!(obs.qpu().used_unit_seconds(end), 10.0);
        assert_eq!(obs.node().allocated_now(), 0.0);
    }

    #[test]
    fn waste_observer_ignores_quantum_phases() {
        let mut obs = WasteObserver::new(SimTime::ZERO, 8.0, 1.0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::PhaseStarted {
                job: JobId::new(0),
                name: "j",
                kind: PhaseKind::Quantum,
                index: 1,
                busy_nodes: 0.0,
            },
        );
        assert_eq!(obs.node().used_now(), 0.0);
    }

    #[test]
    fn gantt_observer_records_lanes() {
        let mut obs = GanttObserver::new();
        let job = JobId::new(0);
        obs.on_event(
            SimTime::from_secs(60),
            &SimEvent::PhaseEnded {
                job,
                name: "vqe",
                kind: PhaseKind::Classical,
                index: 0,
                busy_nodes: 4.0,
                started: SimTime::ZERO,
            },
        );
        obs.on_event(
            SimTime::from_secs(60),
            &SimEvent::KernelEnqueued {
                job,
                name: "vqe",
                device: 0,
                start: SimTime::from_secs(70),
                end: SimTime::from_secs(80),
                recalibration: SimDuration::from_secs(5),
            },
        );
        let g = obs.into_gantt();
        assert_eq!(g.busy("job:vqe"), SimDuration::from_secs(60));
        // Kernel interval plus the 5 s recalibration window.
        assert_eq!(g.busy("qpu0"), SimDuration::from_secs(15));
    }
}
