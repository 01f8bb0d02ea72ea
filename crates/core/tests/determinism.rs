//! Bit-level determinism guarantees, enforced end to end:
//!
//! 1. **Byte-identical outcomes** — two runs of the same QPU-contended
//!    scenario from the same seed serialize to the same bytes, whether
//!    the workload is materialized up front or streamed lazily. Not
//!    "statistically equivalent": the serialized [`Outcome`] JSON must
//!    match byte for byte, floats included.
//! 2. **Pinned event emission order** — the observer event stream is part
//!    of the deterministic contract. A hash-order iteration anywhere in
//!    the hot path shows up here first, as a reordered stream.
//!
//! These tests are the runtime complement to the `hpcqc-lint` static
//! pass (D001/D002/D003): the lint forbids the constructs that break
//! determinism, this file proves the property they protect.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_qpu::technology::Technology;
use hpcqc_qpu::Kernel;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};

/// A deliberately QPU-contended workload: 24 hybrid VQE-style loops and a
/// classical background, all racing for a single physical device. Queue
/// order, kernel interleaving and backfill decisions all matter here —
/// any nondeterminism in the scheduler or device queue changes the bytes.
fn contended_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for i in 0..24u64 {
        // Staggered submissions with varied shapes so ties and near-ties
        // exercise the comparator paths, not just distinct keys.
        let shots = 500 + (i % 5) * 200;
        let step = 20 + (i % 3) * 15;
        jobs.push(
            JobSpec::builder(format!("vqe-{i:02}"))
                .user(["alice", "bob", "carol"][(i % 3) as usize])
                .nodes(2 + (i % 4) as u32)
                .submit(SimTime::from_secs(i * 90))
                .walltime(SimDuration::from_hours(4))
                .phases(vec![
                    Phase::Classical(SimDuration::from_secs(step)),
                    Phase::Quantum(Kernel::sampling(shots as u32)),
                    Phase::Classical(SimDuration::from_secs(step)),
                    Phase::Quantum(Kernel::sampling(shots as u32)),
                    Phase::Classical(SimDuration::from_secs(step / 2)),
                ])
                .build(),
        );
    }
    for i in 0..8u64 {
        jobs.push(
            JobSpec::builder(format!("mpi-{i}"))
                .user("dave")
                .nodes(8)
                .submit(SimTime::from_secs(i * 300))
                .walltime(SimDuration::from_hours(2))
                .phases(vec![Phase::Classical(SimDuration::from_secs(900))])
                .build(),
        );
    }
    // JobSource contracts require non-decreasing submit instants; sort
    // stably so same-instant submissions keep a deterministic order.
    jobs.sort_by_key(|j| j.submit());
    jobs
}

fn contended_scenario(strategy: Strategy) -> Scenario {
    Scenario::builder()
        .classical_nodes(24)
        .devices(vec![Technology::Superconducting])
        .strategy(strategy)
        .seed(1234)
        .build()
}

fn outcome_bytes(outcome: &Outcome) -> Vec<u8> {
    serde_json::to_string(outcome)
        .expect("Outcome serializes")
        .into_bytes()
}

#[test]
fn same_seed_runs_serialize_byte_identically() {
    for strategy in [
        Strategy::CoSchedule,
        Strategy::Workflow,
        Strategy::Vqpu { vqpus: 4 },
    ] {
        let jobs = contended_jobs();
        let workload = Workload::from_jobs(jobs.clone());
        let sc = contended_scenario(strategy);

        let first = FacilitySim::run(&sc, &workload).unwrap();
        let second = FacilitySim::run(&sc, &workload).unwrap();
        assert_eq!(
            outcome_bytes(&first),
            outcome_bytes(&second),
            "{strategy}: two materialized runs from seed {} must serialize \
             to identical bytes",
            sc.seed
        );

        let mut source = jobs.iter().cloned();
        let streamed = FacilitySim::run_streamed(&sc, &mut source).unwrap();
        assert_eq!(
            outcome_bytes(&first),
            outcome_bytes(&streamed),
            "{strategy}: streamed run must serialize to the same bytes as \
             the materialized run"
        );
    }
}

/// Records a compact, order-sensitive trace of every emitted event.
#[derive(Debug, Default)]
struct EventTrace {
    entries: Vec<String>,
}

impl SimObserver for EventTrace {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        let label = match event {
            SimEvent::JobSubmitted { job, name, step } => {
                format!("submit {job} {name} step={step}")
            }
            SimEvent::JobHeld { job, name, reason } => format!("held {job} {name} {reason}"),
            SimEvent::JobStarted { job, name, .. } => format!("start {job} {name}"),
            SimEvent::AllocationChanged {
                job,
                node_delta,
                qpu_delta,
            } => format!("alloc {job} nodes={node_delta} qpus={qpu_delta}"),
            SimEvent::PhaseStarted {
                job, kind, index, ..
            } => format!("phase+ {job} {kind:?}[{index}]"),
            SimEvent::PhaseEnded {
                job, kind, index, ..
            } => format!("phase- {job} {kind:?}[{index}]"),
            SimEvent::KernelEnqueued { job, .. } => format!("kq {job}"),
            SimEvent::KernelExecStarted { job, .. } => format!("kx+ {job}"),
            SimEvent::KernelExecEnded { job, .. } => format!("kx- {job}"),
            SimEvent::JobFinalized { record } => format!("final {}", record.name),
            SimEvent::NodeFailed { node } => format!("fail {node}"),
            SimEvent::NodeRepaired { node } => format!("repair {node}"),
            SimEvent::DeviceFailed {
                device,
                recalibration,
            } => format!("dev- {device} recal={recalibration}"),
            SimEvent::DeviceRepaired { device } => format!("dev+ {device}"),
            SimEvent::KernelFailed { job, device, .. } => format!("kfail {job} dev={device}"),
            SimEvent::KernelRetried { job, attempt } => format!("kretry {job} n={attempt}"),
            SimEvent::KernelRerouted { job, from, to } => {
                format!("kroute {job} {from}->{to}")
            }
            SimEvent::CheckpointTaken { job, progress } => {
                format!("ckpt {job} {progress:.3}")
            }
            SimEvent::JobRestarted {
                job,
                rewound_node_seconds,
                ..
            } => format!("restart {job} rewound={rewound_node_seconds:.1}"),
        };
        self.entries.push(format!("{now} {label}"));
    }
}

#[test]
fn event_emission_order_is_pinned() {
    let workload = Workload::from_jobs(contended_jobs());
    let sc = contended_scenario(Strategy::Vqpu { vqpus: 4 });

    let mut a = EventTrace::default();
    FacilitySim::run_observed(&sc, &workload, &mut [&mut a]).unwrap();
    let mut b = EventTrace::default();
    FacilitySim::run_observed(&sc, &workload, &mut [&mut b]).unwrap();

    assert!(!a.entries.is_empty(), "the trace must record events");
    assert_eq!(
        a.entries, b.entries,
        "the full event stream must replay in the same order"
    );
}
