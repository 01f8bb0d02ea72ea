//! The scheduler-level gauges after a run: `TraceObserver`'s counter
//! tracks and `MetricsObserver`'s gauges read one fold of facility
//! state, so both end on an idle machine and agree on every gauge, also
//! when a job starts once per workflow step or once per requeued
//! attempt.

use hpcqc_core::scenario::{Scenario, WalltimePolicy};
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_trace::chrome::{ArgValue, EventArgs, EventPhase};
use hpcqc_trace::{MetricsObserver, TraceObserver, COUNTER_TRACKS};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};

const NODES: u32 = 12;

/// Twelve three-phase hybrid jobs on two nodes each; every third one is
/// given a walltime shorter than its work.
fn jobs() -> Workload {
    let jobs = (0..12u64)
        .map(|i| {
            let walltime = if i % 3 == 0 {
                SimDuration::from_secs(30)
            } else {
                SimDuration::from_hours(4)
            };
            JobSpec::builder(format!("vqe-{i:02}"))
                .nodes(2)
                .submit(SimTime::from_secs(i * 40))
                .walltime(walltime)
                .phases(vec![
                    Phase::Classical(SimDuration::from_secs(120)),
                    Phase::Quantum(Kernel::sampling(500)),
                    Phase::Classical(SimDuration::from_secs(60)),
                ])
                .build()
        })
        .collect();
    Workload::from_jobs(jobs)
}

/// Runs `scenario` under both observers and returns each one's final
/// value of the four scheduler gauges, in `COUNTER_TRACKS` order, plus
/// the run's total submissions.
fn final_gauges(scenario: &Scenario) -> ([f64; 4], [f64; 4], f64) {
    let mut tracer = TraceObserver::for_scenario(scenario);
    let mut metrics = MetricsObserver::for_scenario(scenario, SimDuration::from_secs(60));
    let outcome = FacilitySim::run_observed(scenario, &jobs(), &mut [&mut tracer, &mut metrics])
        .expect("valid scenario");

    let trace = tracer.into_trace();
    let traced = COUNTER_TRACKS.map(|track| {
        trace
            .events()
            .iter()
            .rev()
            .find(|e| e.ph == EventPhase::Counter && e.name == track)
            .and_then(|e| match &e.args {
                EventArgs::Single((_, ArgValue::F64(v))) => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no `{track}` sample"))
    });

    let table = metrics.into_registry(outcome.makespan).table();
    let last = table.rows().last().expect("a closing row");
    let column = |name: &str| -> f64 {
        let at = table
            .headers()
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no `{name}` column"));
        last[at].parse().expect("numeric cell")
    };
    let sampled = COUNTER_TRACKS.map(column);
    (traced, sampled, column("jobs_submitted"))
}

fn assert_idle_and_agreeing(scenario: &Scenario, label: &str) -> f64 {
    let (traced, sampled, submitted) = final_gauges(scenario);
    let idle = [0.0, 0.0, f64::from(NODES), 1.0];
    assert_eq!(
        traced, idle,
        "{label}: trace ends {COUNTER_TRACKS:?} = {traced:?}"
    );
    assert_eq!(
        sampled, idle,
        "{label}: metrics end {COUNTER_TRACKS:?} = {sampled:?}"
    );
    submitted
}

#[test]
fn workflow_steps_leave_no_job_running() {
    let scenario = Scenario::builder()
        .classical_nodes(NODES)
        .devices(vec![Technology::Superconducting])
        .strategy(Strategy::Workflow)
        .seed(7)
        .build();
    let submitted = assert_idle_and_agreeing(&scenario, "workflow");
    assert!(submitted > 12.0, "each step is its own submission");
}

#[test]
fn requeued_attempts_leave_no_job_running() {
    let scenario = Scenario::builder()
        .classical_nodes(NODES)
        .devices(vec![Technology::Superconducting])
        .strategy(Strategy::Vqpu { vqpus: 2 })
        .walltime_policy(WalltimePolicy::Kill { max_requeues: 1 })
        .seed(7)
        .build();
    let submitted = assert_idle_and_agreeing(&scenario, "walltime kill");
    assert!(submitted > 12.0, "a killed job is submitted again");
}
