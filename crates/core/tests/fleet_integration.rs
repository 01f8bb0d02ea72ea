//! Fleet integration tests: a device list and its
//! [`FleetSpec::from_legacy`] wrap are one machine, and the built-in
//! routing policies behave observably through the full simulator.
//!
//! The load-bearing guarantee is the first one: a scenario whose device
//! list is wrapped via [`FleetSpec::from_legacy`] must produce the same
//! serialized [`Outcome`] bytes *and* the same observer event stream as
//! the same scenario without the wrap.

use hpcqc_core::observer::{GanttObserver, SimEvent, SimObserver};
use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::{FacilitySim, SimError};
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::{DeviceFaults, FaultPlan};
use hpcqc_fleet::{FleetDevice, FleetSpec, RouteSpec};
use hpcqc_qpu::remote::AccessMode;
use hpcqc_qpu::technology::Technology;
use hpcqc_qpu::Kernel;
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};

fn hybrid_job(name: &str, nodes: u32, iters: usize, shots: u32, submit_s: u64) -> JobSpec {
    let mut phases = Vec::new();
    for _ in 0..iters {
        phases.push(Phase::Classical(SimDuration::from_secs(45)));
        phases.push(Phase::Quantum(Kernel::sampling(shots)));
    }
    JobSpec::builder(name)
        .nodes(nodes)
        .submit(SimTime::from_secs(submit_s))
        .walltime(SimDuration::from_hours(6))
        .phases(phases)
        .build()
}

/// A QPU-contended workload: several hybrid tenants racing for devices.
fn contended_workload() -> Workload {
    let mut jobs = Vec::new();
    for i in 0..10u64 {
        jobs.push(hybrid_job(
            &format!("vqe-{i}"),
            2 + (i % 3) as u32,
            2 + (i % 2) as usize,
            500 + (i % 4) as u32 * 250,
            i * 40,
        ));
    }
    Workload::from_jobs(jobs)
}

fn outcome_bytes(outcome: &Outcome) -> Vec<u8> {
    serde_json::to_string(outcome)
        .expect("Outcome serializes")
        .into_bytes()
}

/// Records an order-sensitive digest of every emitted event.
#[derive(Debug, Default)]
struct EventTrace {
    entries: Vec<String>,
}

impl SimObserver for EventTrace {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        self.entries.push(format!("{now} {event:?}"));
    }
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::CoSchedule,
        Strategy::Workflow,
        Strategy::Vqpu { vqpus: 2 },
        Strategy::Adaptive { vqpus: 2 },
    ]
}

/// The tentpole guarantee: wrapping a legacy device list in a one-device
/// (or multi-device) fleet changes nothing — outcome bytes and the event
/// stream are identical.
#[test]
fn legacy_wrap_is_byte_identical() {
    let device_lists = [
        vec![Technology::Superconducting],
        vec![Technology::Superconducting, Technology::TrappedIon],
    ];
    let mut cases = Vec::new();
    for devices in &device_lists {
        for strategy in strategies() {
            let legacy = Scenario::builder()
                .classical_nodes(16)
                .devices(devices.clone())
                .strategy(strategy)
                .seed(99)
                .build();
            cases.push((legacy, contended_workload()));
        }
    }
    // A gres-bound kernel whose device is down: pin-first reroutes it to
    // the live peer instead of holding it for fault recovery.
    let outages = FaultPlan::named("outages").device(
        DeviceFaults::new()
            .mtbf(Dist::exponential(600.0))
            .repair(Dist::constant(300.0)),
    );
    cases.push((
        Scenario::builder()
            .classical_nodes(16)
            .devices(vec![Technology::Superconducting, Technology::TrappedIon])
            .strategy(Strategy::CoSchedule)
            .seed(99)
            .faults(outages)
            .build(),
        contended_workload(),
    ));
    // Kernels too large for the spin-qubit device alternate with kernels
    // that fit it: pin-first picks among the devices that fit the kernel
    // at hand, not the job's largest kernel.
    cases.push((
        Scenario::builder()
            .classical_nodes(16)
            .devices(vec![Technology::SpinQubit, Technology::Superconducting])
            .strategy(Strategy::Malleable { min_nodes: 1 })
            .seed(99)
            .build(),
        alternating_qubit_workload(),
    ));
    for (legacy, workload) in &cases {
        let devices = &legacy.devices;
        let strategy = legacy.strategy;
        let mut wrapped = legacy.clone();
        wrapped.fleet = Some(FleetSpec::from_legacy(devices));

        let mut trace_a = EventTrace::default();
        let a = FacilitySim::run_observed(legacy, workload, &mut [&mut trace_a]).unwrap();
        let mut trace_b = EventTrace::default();
        let b = FacilitySim::run_observed(&wrapped, workload, &mut [&mut trace_b]).unwrap();

        assert_eq!(
            outcome_bytes(&a),
            outcome_bytes(&b),
            "{strategy} over {devices:?}: wrapped fleet must serialize \
             byte-identically to the device list",
        );
        assert_eq!(
            trace_a.entries, trace_b.entries,
            "{strategy} over {devices:?}: event streams must match",
        );
    }
}

/// Hybrid jobs whose kernels alternate 8 and 20 qubits.
fn alternating_qubit_workload() -> Workload {
    let kernel = |qubits: u32| {
        Kernel::builder(format!("k{qubits}"))
            .qubits(qubits)
            .shots(500)
            .build()
            .unwrap()
    };
    let jobs = (0..8u64)
        .map(|i| {
            let mut phases = Vec::new();
            for step in 0..4 {
                phases.push(Phase::Classical(SimDuration::from_secs(30)));
                phases.push(Phase::Quantum(kernel(if step % 2 == 0 { 8 } else { 20 })));
            }
            JobSpec::builder(format!("alt-{i}"))
                .nodes(2)
                .submit(SimTime::from_secs(i * 20))
                .walltime(SimDuration::from_hours(6))
                .phases(phases)
                .build()
        })
        .collect();
    Workload::from_jobs(jobs)
}

/// The wrap stays byte-identical with the stochastic knobs on: an access
/// model drawing from the shared RNG and periodic recalibration windows.
#[test]
fn legacy_wrap_identical_with_access_and_calibration() {
    let devices = vec![Technology::Superconducting, Technology::TrappedIon];
    let workload = contended_workload();
    let legacy = Scenario::builder()
        .classical_nodes(16)
        .devices(devices.clone())
        .strategy(Strategy::Workflow)
        .seed(7)
        .device_calibration(true)
        .access(AccessMode::cloud(Technology::Superconducting))
        .build();
    let mut wrapped = legacy.clone();
    wrapped.fleet = Some(FleetSpec::from_legacy(&devices));
    let (mut gantt_a, mut gantt_b) = (GanttObserver::new(), GanttObserver::new());
    let a = FacilitySim::run_observed(&legacy, &workload, &mut [&mut gantt_a]).unwrap();
    let b = FacilitySim::run_observed(&wrapped, &workload, &mut [&mut gantt_b]).unwrap();
    assert_eq!(
        outcome_bytes(&a),
        outcome_bytes(&b),
        "access RNG draws and recalibration windows must replay identically"
    );
    assert_eq!(
        gantt_a.gantt(),
        gantt_b.gantt(),
        "device lanes must replay identically"
    );
}

/// Observer collecting which device each kernel was enqueued on.
#[derive(Debug, Default)]
struct RouteLog {
    routes: Vec<(String, usize)>,
}

impl SimObserver for RouteLog {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        if let SimEvent::KernelEnqueued { name, device, .. } = event {
            self.routes.push((name.to_string(), *device));
        }
    }
}

fn fleet_scenario(fleet: FleetSpec, strategy: Strategy) -> Scenario {
    Scenario::builder()
        .classical_nodes(16)
        .strategy(strategy)
        .seed(13)
        .fleet(fleet)
        .build()
}

/// A downed device serves nothing; every kernel reroutes to the healthy
/// one, under every routing policy.
#[test]
fn down_device_is_never_routed_to() {
    for route in hpcqc_fleet::ALL_ROUTES {
        let fleet = FleetSpec::new("one-down")
            .route(route)
            .device(FleetDevice::new("sc-a", Technology::Superconducting).with_down(true))
            .device(FleetDevice::new("sc-b", Technology::Superconducting));
        let sc = fleet_scenario(fleet, Strategy::CoSchedule);
        let mut log = RouteLog::default();
        let out = FacilitySim::run_observed(&sc, &contended_workload(), &mut [&mut log]).unwrap();
        assert!(!log.routes.is_empty());
        assert!(
            log.routes.iter().all(|(_, d)| *d == 1),
            "{route:?}: kernels must avoid the downed device"
        );
        assert_eq!(out.devices[0].tasks, 0, "{route:?}");
        assert_eq!(out.stats.failed_count(), 0, "{route:?}");
    }
}

/// Per-kernel shot caps steer heavy kernels to the uncapped device.
#[test]
fn shot_caps_steer_heavy_kernels() {
    let fleet = FleetSpec::new("capped")
        .route(RouteSpec::LeastLoaded)
        .device(FleetDevice::new("sc-small", Technology::Superconducting).with_shot_capacity(100))
        .device(FleetDevice::new("sc-big", Technology::Superconducting));
    let sc = fleet_scenario(fleet, Strategy::CoSchedule);
    // All kernels bring 1000 shots — ten times the small device's cap.
    let mut log = RouteLog::default();
    let workload = Workload::from_jobs(vec![
        hybrid_job("a", 2, 2, 1_000, 0),
        hybrid_job("b", 2, 2, 1_000, 10),
    ]);
    FacilitySim::run_observed(&sc, &workload, &mut [&mut log]).unwrap();
    assert!(!log.routes.is_empty());
    assert!(
        log.routes.iter().all(|(_, d)| *d == 1),
        "1000-shot kernels must avoid the 100-shot-capped device: {:?}",
        log.routes
    );
}

/// A kernel no fleet device may serve fails the run with a QPU error
/// (not a panic, not a silent misroute).
#[test]
fn unroutable_kernel_is_a_sim_error() {
    let fleet = FleetSpec::new("tiny")
        .device(FleetDevice::new("sc-a", Technology::Superconducting).with_shot_capacity(100));
    let sc = fleet_scenario(fleet, Strategy::CoSchedule);
    let workload = Workload::from_jobs(vec![hybrid_job("heavy", 2, 1, 50_000, 0)]);
    let err = FacilitySim::run(&sc, &workload).unwrap_err();
    assert!(
        matches!(err, SimError::Qpu(_)),
        "expected a QPU routing error, got {err}"
    );
}

/// Tech affinity concentrates kernels on the fastest capable technology.
#[test]
fn tech_affinity_prefers_fast_technology_end_to_end() {
    let fleet = FleetSpec::new("hetero")
        .route(RouteSpec::TechAffinity)
        .device(FleetDevice::new("ion-a", Technology::TrappedIon))
        .device(FleetDevice::new("sc-a", Technology::Superconducting));
    let sc = fleet_scenario(fleet, Strategy::Workflow);
    let workload = Workload::from_jobs(vec![
        hybrid_job("a", 2, 2, 500, 0),
        hybrid_job("b", 2, 2, 500, 20),
    ]);
    let mut log = RouteLog::default();
    let out = FacilitySim::run_observed(&sc, &workload, &mut [&mut log]).unwrap();
    assert!(
        log.routes.iter().all(|(_, d)| *d == 1),
        "superconducting executes faster; affinity must route there: {:?}",
        log.routes
    );
    assert_eq!(out.devices[0].name, "ion-a");
    assert_eq!(out.devices[0].tasks, 0);
    assert!(out.devices[1].tasks > 0);
}

/// Fleet device names flow through to the outcome's device summaries.
#[test]
fn fleet_names_appear_in_outcome() {
    let fleet = FleetSpec::new("named")
        .device(FleetDevice::new(
            "frankfurt-sc",
            Technology::Superconducting,
        ))
        .device(FleetDevice::new("juelich-ion", Technology::TrappedIon).with_qubits(24));
    let sc = fleet_scenario(fleet, Strategy::CoSchedule);
    let out = FacilitySim::run(&sc, &contended_workload()).unwrap();
    let names: Vec<&str> = out.devices.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, vec!["frankfurt-sc", "juelich-ion"]);
    assert_eq!(out.devices[1].technology, Technology::TrappedIon);
    assert_eq!(out.stats.failed_count(), 0);
}
