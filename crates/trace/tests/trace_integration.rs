//! End-to-end guarantees of the trace pipeline:
//!
//! 1. **Byte-identical traces** — two same-seed runs of a QPU-contended
//!    scenario serialize to the same Chrome-trace JSON, byte for byte,
//!    under every strategy (the trace inherits the simulator's
//!    determinism contract from `crates/core/tests/determinism.rs`).
//! 2. **Streaming parity** — tracing a streamed run (an iterator of
//!    specs) yields the same bytes as tracing the materialized run.
//! 3. **Gantt agreement** — [`ChromeTrace::from_gantt`] and the live
//!    [`TraceObserver`] describe the same device timeline: identical
//!    recalibration windows, and a device track for every Gantt QPU lane.
//! 4. **Span pairing (property)** — for arbitrary workloads, every job
//!    that emits a `started` instant gets exactly one whole-job complete
//!    span on the same thread track, and the serialized trace is always
//!    valid JSON.

use hpcqc_core::observer::GanttObserver;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_trace::chrome::check_json;
use hpcqc_trace::observer::{PID_DEVICES, PID_JOBS};
use hpcqc_trace::{ArgValue, ChromeTrace, EventPhase, TraceObserver};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};
use proptest::prelude::*;
// The paper's `Strategy` enum shadows proptest's trait of the same name;
// re-import the trait under an alias so `prop_map` stays resolvable.
use proptest::strategy::Strategy as PropStrategy;

/// The determinism suite's QPU-contended workload: 24 hybrid VQE-style
/// loops and an MPI background racing for one physical device, so queue
/// order, kernel interleaving and backfill decisions all leave marks in
/// the trace.
fn contended_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for i in 0..24u64 {
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

fn trace_of(scenario: &Scenario, workload: &Workload) -> ChromeTrace {
    let mut tracer = TraceObserver::for_scenario(scenario);
    FacilitySim::run_observed(scenario, workload, &mut [&mut tracer]).expect("valid scenario");
    tracer.into_trace()
}

#[test]
fn same_seed_traces_are_byte_identical() {
    for strategy in [
        Strategy::CoSchedule,
        Strategy::Workflow,
        Strategy::Vqpu { vqpus: 4 },
    ] {
        let workload = Workload::from_jobs(contended_jobs());
        let scenario = contended_scenario(strategy);
        let first = trace_of(&scenario, &workload).to_json_string();
        let second = trace_of(&scenario, &workload).to_json_string();
        assert!(!first.is_empty());
        check_json(&first).expect("trace serializes to valid JSON");
        assert_eq!(
            first.as_bytes(),
            second.as_bytes(),
            "{strategy}: two traced runs from seed {} must serialize to \
             identical bytes",
            scenario.seed
        );
    }
}

#[test]
fn streamed_run_traces_identically_to_materialized() {
    let jobs = contended_jobs();
    let scenario = contended_scenario(Strategy::Vqpu { vqpus: 4 });
    let materialized = trace_of(&scenario, &Workload::from_jobs(jobs.clone()));

    let mut tracer = TraceObserver::for_scenario(&scenario);
    let mut source = jobs.iter().cloned();
    FacilitySim::run_streamed_observed(&scenario, &mut source, &mut [&mut tracer])
        .expect("valid scenario");
    let streamed = tracer.into_trace();

    assert_eq!(
        materialized.to_json_string().as_bytes(),
        streamed.to_json_string().as_bytes(),
        "the trace must not depend on how the workload reaches the loop"
    );
}

#[test]
fn trace_and_gantt_adapter_agree_on_the_device_timeline() {
    // A straggler a day later: the default daily calibration policy makes
    // the device recalibrate before touching its kernel, so the
    // recalibration-window comparison below has something to compare.
    let mut jobs = contended_jobs();
    jobs.push(
        JobSpec::builder("vqe-late")
            .user("erin")
            .nodes(2)
            .submit(SimTime::from_secs(25 * 3_600))
            .walltime(SimDuration::from_hours(4))
            .phases(vec![
                Phase::Classical(SimDuration::from_secs(30)),
                Phase::Quantum(Kernel::sampling(900)),
            ])
            .build(),
    );
    let workload = Workload::from_jobs(jobs);
    let scenario = Scenario::builder()
        .classical_nodes(24)
        .devices(vec![Technology::Superconducting])
        .strategy(Strategy::CoSchedule)
        .device_calibration(true)
        .seed(1234)
        .build();

    // One run, both recorders attached.
    let mut tracer = TraceObserver::for_scenario(&scenario);
    let mut gantt = GanttObserver::new();
    FacilitySim::run_observed(&scenario, &workload, &mut [&mut tracer, &mut gantt])
        .expect("valid scenario");
    let trace = tracer.into_trace();
    let gantt = gantt.into_gantt();

    let bridged = ChromeTrace::from_gantt(&gantt);
    check_json(&bridged.to_json_string()).expect("bridged trace is valid JSON");

    // Every Gantt QPU lane has a named device track in the live trace
    // (metadata events carry the human label in their `name` argument).
    let device_tracks: Vec<&str> = trace
        .events()
        .iter()
        .filter(|e| e.ph == EventPhase::Metadata && e.pid == PID_DEVICES)
        .filter_map(|e| {
            e.args
                .as_slice()
                .iter()
                .find_map(|(key, value)| match (key, value) {
                    (&"name", ArgValue::Str(label)) => Some(label.as_ref()),
                    _ => None,
                })
        })
        .collect();
    for lane in gantt.lanes().filter(|l| l.starts_with("qpu")) {
        assert!(
            device_tracks.contains(&lane),
            "gantt lane {lane} missing from the live trace's device tracks"
        );
    }

    // Both recorders saw the same recalibration windows, to the nanosecond.
    let spans = |t: &ChromeTrace| -> Vec<(u64, Option<u64>)> {
        t.events()
            .iter()
            .filter(|e| e.ph == EventPhase::Complete && e.name == "recalibration")
            .map(|e| (e.ts_ns, e.dur_ns))
            .collect()
    };
    let live = spans(&trace);
    let via_gantt = spans(&bridged);
    assert!(
        !live.is_empty(),
        "a superconducting device under contention must recalibrate"
    );
    assert_eq!(
        live, via_gantt,
        "recalibration windows must agree between the live trace and the \
         Gantt bridge"
    );
}

fn jobs_strategy(max: usize) -> impl proptest::strategy::Strategy<Value = Vec<JobSpec>> {
    let parts = (
        0u64..600, // submit
        1u32..=8,  // nodes
        prop::collection::vec(
            prop_oneof![
                (5u64..600).prop_map(|s| Phase::Classical(SimDuration::from_secs(s))),
                (100u32..5_000).prop_map(|shots| Phase::Quantum(Kernel::sampling(shots))),
            ],
            1..6,
        ),
    );
    prop::collection::vec(parts, 1..max).prop_map(|parts| {
        let mut jobs: Vec<JobSpec> = parts
            .into_iter()
            .enumerate()
            .map(|(index, (submit, nodes, phases))| {
                // Names must be unique: `JobFinalized` carries only the
                // record name, so duplicate names would alias job tracks.
                JobSpec::builder(format!("job-{index}"))
                    .user(format!("u{}", nodes % 3))
                    .submit(SimTime::from_secs(submit))
                    .nodes(nodes)
                    .walltime(SimDuration::from_hours(8))
                    .phases(phases)
                    .build()
            })
            .collect();
        jobs.sort_by_key(|j| j.submit());
        jobs
    })
}

fn strategy_strategy() -> impl proptest::strategy::Strategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::CoSchedule),
        Just(Strategy::Workflow),
        (1u32..=4).prop_map(|v| Strategy::Vqpu { vqpus: v }),
        (1u32..=4).prop_map(|m| Strategy::Malleable { min_nodes: m }),
        (1u32..=4).prop_map(|v| Strategy::Adaptive { vqpus: v }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every started job closes: each job track carries exactly one
    /// whole-job complete span (cat `job`), every `started` instant —
    /// per-step plans emit one per step — falls inside its track's span
    /// window, and no job finishes without ever starting. And whatever
    /// the workload, the serialized trace parses as JSON.
    #[test]
    fn every_started_job_gets_a_span(
        jobs in jobs_strategy(8),
        strategy in strategy_strategy(),
        seed in any::<u64>(),
    ) {
        let workload = Workload::from_jobs(jobs);
        let scenario = Scenario::builder()
            .classical_nodes(16)
            .device(Technology::Superconducting)
            .strategy(strategy)
            .seed(seed)
            .build();
        let trace = trace_of(&scenario, &workload);
        prop_assert!(check_json(&trace.to_json_string()).is_ok());

        let started: Vec<(u32, u64)> = trace
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Instant && e.pid == PID_JOBS && e.name == "started")
            .map(|e| (e.tid, e.ts_ns))
            .collect();
        // Per-step plans start each step separately, so instants can
        // outnumber jobs — but never undercount them.
        prop_assert!(started.len() >= workload.len(), "every job must start");

        let spans: Vec<(u32, u64, u64)> = trace
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Complete && e.pid == PID_JOBS && e.cat == "job")
            .map(|e| (e.tid, e.ts_ns, e.dur_ns.expect("complete spans carry a duration")))
            .collect();
        prop_assert_eq!(spans.len(), workload.len(), "one whole-job span per job");
        let mut tids: Vec<u32> = spans.iter().map(|(tid, _, _)| *tid).collect();
        tids.sort_unstable();
        tids.dedup();
        prop_assert_eq!(tids.len(), spans.len(), "at most one span per job track");

        for (tid, start_ns) in started {
            let covered = spans.iter().any(|&(span_tid, ts, dur)| {
                span_tid == tid && ts <= start_ns && start_ns <= ts + dur
            });
            prop_assert!(
                covered,
                "start instant at {} on track {} falls outside its job span",
                start_ns,
                tid
            );
        }
    }
}
