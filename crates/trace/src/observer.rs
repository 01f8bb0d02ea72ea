//! [`TraceObserver`]: the full-fidelity [`SimEvent`] → Chrome-trace bridge.
//!
//! Attach one to any run (`FacilitySim::run_observed`, the streamed
//! entries, or `hpcqc-sim run --trace`) and every state transition the
//! simulator emits becomes a timeline the scheduling story can be *read*
//! from: which job waited, which QPU sat idle, where recalibration
//! windows pushed kernels back.
//!
//! ## Track layout
//!
//! | pid | process     | threads (tid)                         | content |
//! |-----|-------------|---------------------------------------|---------|
//! | 1   | `scheduler` | —                                     | counter tracks: `queue_depth`, `running_jobs`, `free_nodes`, `idle_qpus` |
//! | 2   | `devices`   | one per QPU (`qpu0`, `qpu1`, … or the fleet device names) | kernel execution spans, recalibration spans; per-device counter tracks `idle[<device>]`, `busy[<device>]`, `recalibrating[<device>]` |
//! | 3   | `jobs`      | one per job, first-seen order         | whole-job span, per-phase spans, submit/start/enqueue instants |
//! | 4   | `nodes`     | one per node that faults (`node<i>`)  | `failed`/`repaired` instants |
//!
//! Counter samples are taken in simulation time, on change (several
//! changes at one instant coalesce into the final value). All internal
//! state lives in ordered containers — a dense job slab plus `BTreeMap`s
//! — and the emitted event order is exactly the deterministic `SimEvent`
//! order, so the serialized trace is byte-identical across same-seed
//! runs.

use crate::chrome::{ArgValue, ChromeTrace, EventArgs};
use crate::facility::FacilityState;
use hpcqc_core::observer::{PhaseKind, SimEvent, SimObserver};
use hpcqc_core::scenario::Scenario;
use hpcqc_simcore::time::SimTime;
use hpcqc_workload::job::JobId;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Process track holding the scheduler-level counter tracks.
pub const PID_SCHEDULER: u32 = 1;
/// Process track holding one thread per QPU device.
pub const PID_DEVICES: u32 = 2;
/// Process track holding one thread per job.
pub const PID_JOBS: u32 = 3;
/// Process track holding per-node fault instants.
pub const PID_NODES: u32 = 4;

/// The four counter-track names emitted under [`PID_SCHEDULER`].
pub const COUNTER_TRACKS: [&str; 4] = ["queue_depth", "running_jobs", "free_nodes", "idle_qpus"];

/// Per-device counter-track kinds emitted under [`PID_DEVICES`], in
/// track-index order; each device gets one `<kind>[<label>]` track.
pub const DEVICE_TRACK_KINDS: [&str; 3] = ["idle", "busy", "recalibrating"];

/// Number of scheduler-level counter tracks preceding the per-device
/// ones in the coalescing table.
const SCHED_TRACKS: usize = COUNTER_TRACKS.len();

/// Coalescing-table index of device `d`'s track of the given kind
/// (0 = idle, 1 = busy, 2 = recalibrating).
fn device_track(d: usize, kind: usize) -> usize {
    SCHED_TRACKS + DEVICE_TRACK_KINDS.len() * d + kind
}

/// Pre-rendered phase-span names for the common low indices, so the hot
/// recording path stays allocation-free (higher indices fall back to
/// `format!`).
static CLASSICAL_NAMES: [&str; 8] = [
    "classical[0]",
    "classical[1]",
    "classical[2]",
    "classical[3]",
    "classical[4]",
    "classical[5]",
    "classical[6]",
    "classical[7]",
];
static QUANTUM_NAMES: [&str; 8] = [
    "quantum[0]",
    "quantum[1]",
    "quantum[2]",
    "quantum[3]",
    "quantum[4]",
    "quantum[5]",
    "quantum[6]",
    "quantum[7]",
];

fn phase_name(kind: PhaseKind, index: usize) -> std::borrow::Cow<'static, str> {
    let (table, label) = match kind {
        PhaseKind::Classical => (&CLASSICAL_NAMES, "classical"),
        PhaseKind::Quantum => (&QUANTUM_NAMES, "quantum"),
    };
    match table.get(index) {
        Some(name) => std::borrow::Cow::Borrowed(*name),
        None => std::borrow::Cow::Owned(format!("{label}[{index}]")),
    }
}

/// Converts the simulator's event stream into a [`ChromeTrace`].
///
/// # Examples
///
/// ```
/// use hpcqc_core::{FacilitySim, Scenario};
/// use hpcqc_trace::TraceObserver;
/// use hpcqc_workload::{JobClass, Pattern, Workload};
/// use hpcqc_qpu::Kernel;
///
/// let workload = Workload::builder()
///     .class(JobClass::new("vqe", Pattern::vqe(4, 60.0, Kernel::sampling(500))))
///     .count(4)
///     .generate(7);
/// let scenario = Scenario::builder().build();
/// let mut tracer = TraceObserver::for_scenario(&scenario);
/// FacilitySim::run_observed(&scenario, &workload, &mut [&mut tracer])?;
/// let trace = tracer.into_trace();
/// assert!(!trace.is_empty());
/// assert!(trace.to_json_string().contains("queue_depth"));
/// # Ok::<(), hpcqc_core::SimError>(())
/// ```
#[derive(Debug)]
pub struct TraceObserver {
    trace: ChromeTrace,
    // The state behind the COUNTER_TRACKS.
    facility: FacilityState,
    // Per-device running-execution count (0/1 on the serial device
    // queue), behind the `idle[..]`/`busy[..]` tracks.
    device_execs: Vec<i64>,
    // Pre-rendered per-device counter-track names, DEVICE_TRACK_KINDS
    // per device, in device-major order.
    device_track_names: Vec<String>,
    // Last emitted sample per counter track — COUNTER_TRACKS first, then
    // the per-device tracks (value as a bit pattern, so no float
    // equality is involved). Counters are sampled on change, and several
    // changes at one sim-time instant coalesce into the final value.
    last_counter: Vec<Option<CounterSample>>,
    // Per-job bookkeeping, a slab keyed by raw job id (the simulator
    // assigns ids sequentially, so this stays dense). Slots are never
    // retired: a killed job's kernel can outlive its finalization.
    jobs: Vec<Option<JobSlot>>,
    next_job_tid: u32,
    node_tracks: BTreeSet<u32>,
}

/// The last emitted sample on one counter track.
#[derive(Debug, Clone, Copy)]
struct CounterSample {
    bits: u64,
    ts_ns: u64,
    event: usize,
}

/// Slab entry: everything the tracer tracks about one job.
#[derive(Debug)]
struct JobSlot {
    tid: u32,
    name: String,
    exec_start: Option<SimTime>,
}

impl TraceObserver {
    /// Creates a tracer for a machine with `classical_nodes` nodes and
    /// `devices` physical QPUs (the capacities behind the `free_nodes`
    /// and `idle_qpus` counter tracks); device tracks are labelled
    /// `qpu0`, `qpu1`, …
    pub fn new(classical_nodes: u32, devices: usize) -> Self {
        TraceObserver::with_device_labels(
            classical_nodes,
            (0..devices).map(|d| format!("qpu{d}")).collect(),
        )
    }

    /// Creates a tracer whose device tracks carry the given labels (one
    /// per QPU — fleet device names, for instance).
    pub fn with_device_labels(classical_nodes: u32, labels: Vec<String>) -> Self {
        let devices = labels.len();
        let mut trace = ChromeTrace::with_capacity(1024);
        trace.process_name(PID_SCHEDULER, "scheduler");
        trace.process_name(PID_DEVICES, "devices");
        trace.process_name(PID_JOBS, "jobs");
        for (d, label) in labels.iter().enumerate() {
            trace.thread_name(PID_DEVICES, d as u32, label.clone());
        }
        let device_track_names = labels
            .iter()
            .flat_map(|label| {
                DEVICE_TRACK_KINDS
                    .iter()
                    .map(move |kind| format!("{kind}[{label}]"))
            })
            .collect();
        // Baseline sample for every counter track at t=0, so the tracks
        // exist (and start from the idle state) even in a trivial trace.
        let mut obs = TraceObserver {
            trace,
            facility: FacilityState::new(classical_nodes, devices),
            device_execs: vec![0; devices],
            device_track_names,
            last_counter: vec![None; SCHED_TRACKS + DEVICE_TRACK_KINDS.len() * devices],
            jobs: Vec::new(),
            next_job_tid: 0,
            node_tracks: BTreeSet::new(),
        };
        obs.sample_counters(SimTime::ZERO);
        for d in 0..devices {
            obs.sample_device(d, SimTime::ZERO);
            obs.counter(SimTime::ZERO, device_track(d, 2), 0.0);
        }
        obs
    }

    /// Creates a tracer sized for `scenario`'s machine, device tracks
    /// labelled with the names of [`Scenario::machine`]'s devices.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let labels = scenario
            .machine()
            .device_names()
            .map(String::from)
            .collect();
        TraceObserver::with_device_labels(scenario.classical_nodes, labels)
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &ChromeTrace {
        &self.trace
    }

    /// Consumes the observer, yielding the recorded trace.
    pub fn into_trace(self) -> ChromeTrace {
        self.trace
    }

    fn counter(&mut self, now: SimTime, track: usize, value: f64) {
        let bits = value.to_bits();
        let ts_ns = now.as_nanos();
        if let Some(last) = self.last_counter.get_mut(track).and_then(Option::as_mut) {
            if last.bits == bits {
                return;
            }
            if last.ts_ns == ts_ns {
                // Another change at the same instant: only the final
                // value is observable, so rewrite the sample in place.
                last.bits = bits;
                self.trace.set_counter_value(last.event, value);
                return;
            }
        }
        let (name, pid): (Cow<'static, str>, u32) = match COUNTER_TRACKS.get(track) {
            Some(name) => (Cow::Borrowed(*name), PID_SCHEDULER),
            None => match self.device_track_names.get(track - SCHED_TRACKS) {
                Some(name) => (Cow::Owned(name.clone()), PID_DEVICES),
                None => return,
            },
        };
        let event = self.trace.len();
        self.trace.counter(name, now, pid, value);
        if let Some(slot) = self.last_counter.get_mut(track) {
            *slot = Some(CounterSample { bits, ts_ns, event });
        }
    }

    fn sample_counters(&mut self, now: SimTime) {
        self.counter(now, 0, self.facility.queue_depth());
        self.counter(now, 1, self.facility.running_jobs());
        self.counter(now, 2, self.facility.free_nodes());
        self.counter(now, 3, self.facility.idle_qpus());
    }

    /// Samples device `d`'s `idle[..]`/`busy[..]` tracks from its live
    /// execution count (the recalibrating track is driven separately,
    /// from the planned windows on `KernelEnqueued`).
    fn sample_device(&mut self, d: usize, now: SimTime) {
        let Some(&execs) = self.device_execs.get(d) else {
            return;
        };
        let busy = if execs > 0 { 1.0 } else { 0.0 };
        self.counter(now, device_track(d, 0), 1.0 - busy);
        self.counter(now, device_track(d, 1), busy);
    }

    fn job_tid(&mut self, job: JobId, name: &str) -> u32 {
        let raw = job.raw() as usize;
        if raw >= self.jobs.len() {
            self.jobs.resize_with(raw + 1, || None);
        }
        if let Some(slot) = &self.jobs[raw] {
            return slot.tid;
        }
        let tid = self.next_job_tid;
        self.next_job_tid += 1;
        self.trace.thread_name(PID_JOBS, tid, name.to_string());
        self.jobs[raw] = Some(JobSlot {
            tid,
            name: name.to_string(),
            exec_start: None,
        });
        tid
    }

    fn slot_mut(&mut self, job: JobId) -> Option<&mut JobSlot> {
        self.jobs.get_mut(job.raw() as usize)?.as_mut()
    }

    fn node_tid(&mut self, raw: u32) -> u32 {
        if self.node_tracks.insert(raw) {
            if self.node_tracks.len() == 1 {
                self.trace.process_name(PID_NODES, "nodes");
            }
            self.trace.thread_name(PID_NODES, raw, format!("node{raw}"));
        }
        raw
    }
}

impl SimObserver for TraceObserver {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        let finalized = self.facility.apply(event);
        match event {
            SimEvent::JobSubmitted { job, name, step } => {
                let tid = self.job_tid(*job, name);
                let label = if *step { "step submitted" } else { "submitted" };
                self.trace
                    .instant(label, "queue", now, PID_JOBS, tid, EventArgs::None);
                self.sample_counters(now);
            }
            SimEvent::JobStarted { job, name, wait } => {
                let tid = self.job_tid(*job, name);
                self.trace.instant(
                    "started",
                    "queue",
                    now,
                    PID_JOBS,
                    tid,
                    EventArgs::single("wait_s", ArgValue::F64(wait.as_secs_f64())),
                );
                self.sample_counters(now);
            }
            SimEvent::AllocationChanged { .. } => self.sample_counters(now),
            SimEvent::PhaseEnded {
                job,
                name,
                kind,
                index,
                busy_nodes,
                started,
            } => {
                let tid = self.job_tid(*job, name);
                let index_arg = ("index", ArgValue::U64(*index as u64));
                let args = if matches!(kind, PhaseKind::Classical) {
                    EventArgs::List(vec![index_arg, ("busy_nodes", ArgValue::F64(*busy_nodes))])
                } else {
                    EventArgs::Single(index_arg)
                };
                self.trace.complete(
                    phase_name(*kind, *index),
                    "phase",
                    *started,
                    now.saturating_since(*started).as_nanos(),
                    PID_JOBS,
                    tid,
                    args,
                );
            }
            SimEvent::KernelEnqueued {
                job,
                name,
                device,
                start,
                end,
                recalibration,
            } => {
                let tid = self.job_tid(*job, name);
                self.trace.instant(
                    "kernel enqueued",
                    "kernel",
                    now,
                    PID_JOBS,
                    tid,
                    EventArgs::List(vec![
                        ("device", ArgValue::U64(*device as u64)),
                        ("planned_start_s", ArgValue::F64(start.as_secs_f64())),
                        ("planned_end_s", ArgValue::F64(end.as_secs_f64())),
                    ]),
                );
                if !recalibration.is_zero() {
                    let recal_start = *start - *recalibration;
                    self.trace.complete(
                        "recalibration",
                        "device",
                        recal_start,
                        recalibration.as_nanos(),
                        PID_DEVICES,
                        *device as u32,
                        EventArgs::None,
                    );
                    // The planned window is known now; sample the
                    // device's recalibrating track at its edges. The
                    // device queue is serial, so windows (and thus these
                    // samples) are time-ordered per track.
                    self.counter(recal_start, device_track(*device, 2), 1.0);
                    self.counter(*start, device_track(*device, 2), 0.0);
                }
            }
            SimEvent::KernelExecStarted { job, device } => {
                if let Some(slot) = self.slot_mut(*job) {
                    slot.exec_start = Some(now);
                }
                if let Some(execs) = self.device_execs.get_mut(*device) {
                    *execs += 1;
                }
                self.sample_counters(now);
                self.sample_device(*device, now);
            }
            SimEvent::KernelExecEnded { job, device } => {
                if let Some((start, name)) = self
                    .slot_mut(*job)
                    .and_then(|s| s.exec_start.take().map(|t| (t, s.name.clone())))
                {
                    self.trace.complete(
                        name,
                        "kernel",
                        start,
                        now.saturating_since(start).as_nanos(),
                        PID_DEVICES,
                        *device as u32,
                        EventArgs::None,
                    );
                }
                if let Some(execs) = self.device_execs.get_mut(*device) {
                    *execs -= 1;
                }
                self.sample_counters(now);
                self.sample_device(*device, now);
            }
            SimEvent::JobFinalized { record } => {
                if let Some(tid) = finalized
                    .and_then(|raw| self.jobs.get(raw as usize))
                    .and_then(|slot| slot.as_ref().map(|s| s.tid))
                {
                    self.trace.complete(
                        record.name.clone(),
                        "job",
                        record.start,
                        record.end.saturating_since(record.start).as_nanos(),
                        PID_JOBS,
                        tid,
                        EventArgs::List(vec![
                            ("user", ArgValue::Str(record.user.clone().into())),
                            ("nodes", ArgValue::U64(u64::from(record.nodes))),
                            ("hybrid", ArgValue::Bool(record.hybrid)),
                            ("completed", ArgValue::Bool(record.completed)),
                            (
                                "wait_s",
                                ArgValue::F64(
                                    record.start.saturating_since(record.submit).as_secs_f64(),
                                ),
                            ),
                        ]),
                    );
                    if !record.completed {
                        self.trace.instant(
                            "failed",
                            "fault",
                            record.end,
                            PID_JOBS,
                            tid,
                            EventArgs::None,
                        );
                    }
                }
                self.sample_counters(now);
            }
            SimEvent::NodeFailed { node } => {
                let tid = self.node_tid(node.raw());
                self.trace
                    .instant("failed", "fault", now, PID_NODES, tid, EventArgs::None);
            }
            SimEvent::NodeRepaired { node } => {
                let tid = self.node_tid(node.raw());
                self.trace
                    .instant("repaired", "fault", now, PID_NODES, tid, EventArgs::None);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::EventPhase;
    use hpcqc_cluster::ids::NodeId;
    use hpcqc_metrics::jobstats::JobRecord;
    use hpcqc_simcore::time::SimDuration;

    fn record(name: &str) -> JobRecord {
        JobRecord {
            name: name.into(),
            user: "u".into(),
            submit: SimTime::ZERO,
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(65),
            nodes: 2,
            hybrid: true,
            completed: true,
            node_seconds_allocated: 120.0,
            node_seconds_used: 120.0,
            qpu_seconds_allocated: 0.0,
            qpu_seconds_used: 0.0,
            phase_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn new_emits_track_metadata_and_counter_baselines() {
        let obs = TraceObserver::new(16, 2);
        let json = obs.trace().to_json_string();
        for name in ["scheduler", "devices", "jobs", "qpu0", "qpu1"] {
            assert!(json.contains(name), "missing track {name}");
        }
        for track in COUNTER_TRACKS {
            assert!(json.contains(track), "missing counter {track}");
        }
        for track in [
            "idle[qpu0]",
            "busy[qpu0]",
            "recalibrating[qpu0]",
            "busy[qpu1]",
        ] {
            assert!(json.contains(track), "missing device counter {track}");
        }
    }

    #[test]
    fn device_tracks_carry_fleet_labels() {
        let obs = TraceObserver::with_device_labels(
            16,
            vec!["frankfurt-sc".to_string(), "juelich-ion".to_string()],
        );
        let json = obs.trace().to_json_string();
        for name in ["frankfurt-sc", "busy[frankfurt-sc]", "idle[juelich-ion]"] {
            assert!(json.contains(name), "missing {name}");
        }
    }

    #[test]
    fn exec_events_drive_per_device_busy_tracks() {
        let mut obs = TraceObserver::new(16, 2);
        let job = JobId::new(0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::JobSubmitted {
                job,
                name: "q",
                step: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::KernelExecStarted { job, device: 1 },
        );
        obs.on_event(
            SimTime::from_secs(20),
            &SimEvent::KernelExecEnded { job, device: 1 },
        );
        let samples: Vec<(u64, f64)> = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Counter && e.name == "busy[qpu1]")
            .map(|e| match e.args.as_slice() {
                [(_, ArgValue::F64(v))] => (e.ts_ns, *v),
                other => panic!("unexpected counter args {other:?}"),
            })
            .collect();
        let s = SimTime::from_secs;
        assert_eq!(
            samples,
            vec![(0, 0.0), (s(10).as_nanos(), 1.0), (s(20).as_nanos(), 0.0)]
        );
        // Device 0 never executed: only its baseline sample exists.
        let untouched = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Counter && e.name == "busy[qpu0]")
            .count();
        assert_eq!(untouched, 1);
    }

    #[test]
    fn recalibration_window_samples_its_track() {
        let mut obs = TraceObserver::new(16, 1);
        let job = JobId::new(0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::JobSubmitted {
                job,
                name: "q",
                step: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::KernelEnqueued {
                job,
                name: "q",
                device: 0,
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(50),
                recalibration: SimDuration::from_secs(5),
            },
        );
        let samples: Vec<(u64, f64)> = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Counter && e.name == "recalibrating[qpu0]")
            .map(|e| match e.args.as_slice() {
                [(_, ArgValue::F64(v))] => (e.ts_ns, *v),
                other => panic!("unexpected counter args {other:?}"),
            })
            .collect();
        let s = SimTime::from_secs;
        assert_eq!(
            samples,
            vec![(0, 0.0), (s(35).as_nanos(), 1.0), (s(40).as_nanos(), 0.0)]
        );
    }

    #[test]
    fn job_lifecycle_produces_span_and_instants() {
        let mut obs = TraceObserver::new(16, 1);
        let job = JobId::new(0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::JobSubmitted {
                job,
                name: "vqe-0",
                step: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(5),
            &SimEvent::JobStarted {
                job,
                name: "vqe-0",
                wait: SimDuration::from_secs(5),
            },
        );
        let rec = record("vqe-0");
        obs.on_event(
            SimTime::from_secs(65),
            &SimEvent::JobFinalized { record: &rec },
        );
        let spans: Vec<_> = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Complete)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "vqe-0");
        assert_eq!(spans[0].ts_ns, SimTime::from_secs(5).as_nanos());
        assert_eq!(spans[0].dur_ns, Some(SimDuration::from_secs(60).as_nanos()));
    }

    #[test]
    fn counters_emit_only_on_change() {
        let mut obs = TraceObserver::new(16, 1);
        let baseline = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Counter)
            .count();
        // Four scheduler tracks plus idle/busy/recalibrating for the
        // single device.
        assert_eq!(baseline, SCHED_TRACKS + DEVICE_TRACK_KINDS.len());
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::JobSubmitted {
                job: JobId::new(0),
                name: "a",
                step: false,
            },
        );
        // Only queue_depth changed; every other track stays unsampled.
        let after = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Counter)
            .count();
        assert_eq!(after, baseline + 1);
    }

    #[test]
    fn kernel_exec_lands_on_its_device_track() {
        let mut obs = TraceObserver::new(16, 2);
        let job = JobId::new(3);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::JobSubmitted {
                job,
                name: "q",
                step: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::KernelEnqueued {
                job,
                name: "q",
                device: 1,
                start: SimTime::from_secs(12),
                end: SimTime::from_secs(20),
                recalibration: SimDuration::from_secs(2),
            },
        );
        obs.on_event(
            SimTime::from_secs(12),
            &SimEvent::KernelExecStarted { job, device: 1 },
        );
        obs.on_event(
            SimTime::from_secs(20),
            &SimEvent::KernelExecEnded { job, device: 1 },
        );
        let device_spans: Vec<_> = obs
            .trace()
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Complete && e.pid == PID_DEVICES)
            .collect();
        assert_eq!(device_spans.len(), 2);
        assert_eq!(device_spans[0].name, "recalibration");
        assert_eq!(device_spans[1].name, "q");
        assert_eq!(device_spans[1].tid, 1);
    }

    #[test]
    fn node_faults_get_lazy_tracks() {
        let mut obs = TraceObserver::new(16, 1);
        obs.on_event(
            SimTime::from_secs(9),
            &SimEvent::NodeFailed {
                node: NodeId::new(7),
            },
        );
        obs.on_event(
            SimTime::from_secs(19),
            &SimEvent::NodeRepaired {
                node: NodeId::new(7),
            },
        );
        let json = obs.trace().to_json_string();
        assert!(json.contains("node7"));
        assert!(json.contains("\"repaired\""));
    }
}
