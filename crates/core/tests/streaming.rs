//! Streaming-core guarantees:
//!
//! 1. **Equivalence** — a streamed run produces the *identical* outcome a
//!    materialized run of the same job sequence does, under every
//!    strategy (the front-lane arrival scheduling makes lazy pulling
//!    order-exact, not just approximately right).
//! 2. **Constant memory** — the simulator's per-job state is bounded by
//!    jobs in flight: the high-water mark
//!    ([`Outcome::peak_in_flight_jobs`]) stays orders of magnitude below
//!    the total job count for facility-scale streams, including the
//!    million-job acceptance scenario (release-only, `--ignored`).

use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_metrics::jobstats::JobStats;
use hpcqc_qpu::technology::Technology;
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::JobSpec;

fn scenario(strategy: Strategy, nodes: u32) -> Scenario {
    Scenario::builder()
        .classical_nodes(nodes)
        .devices(vec![
            Technology::Superconducting,
            Technology::Superconducting,
        ])
        .strategy(strategy)
        .seed(7)
        .build()
}

/// Makespan and all headline aggregates agree exactly.
fn assert_outcomes_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    let agg = |s: &JobStats| {
        (
            s.len(),
            s.failed_count(),
            s.mean_wait_secs(),
            s.mean_turnaround_secs(),
            s.mean_bounded_slowdown(),
            s.total_node_hours_wasted(),
        )
    };
    assert_eq!(agg(&a.stats), agg(&b.stats), "{what}: job aggregates");
    assert_eq!(
        a.node_waste.efficiency, b.node_waste.efficiency,
        "{what}: node efficiency"
    );
    assert_eq!(
        a.qpu_waste.allocated_fraction, b.qpu_waste.allocated_fraction,
        "{what}: qpu allocation"
    );
    for (da, db) in a.devices.iter().zip(&b.devices) {
        assert_eq!(da.tasks, db.tasks, "{what}: device tasks");
        assert_eq!(da.busy_seconds, db.busy_seconds, "{what}: device busy");
    }
    // Per-record equality over whatever both retained.
    assert_eq!(
        a.stats.records(),
        b.stats.records(),
        "{what}: per-job records"
    );
}

#[test]
fn streamed_equals_materialized_under_every_strategy() {
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: 120 };
    let jobs: Vec<JobSpec> = spec.stream(42).collect();
    let workload = Workload::from_jobs(jobs.clone());
    for strategy in Strategy::extended_set() {
        let sc = scenario(strategy, 64);
        let materialized = FacilitySim::run(&sc, &workload).unwrap();
        let mut source = jobs.clone().into_iter();
        let streamed = FacilitySim::run_streamed(&sc, &mut source).unwrap();
        assert_outcomes_identical(&materialized, &streamed, &strategy.to_string());
    }
}

#[test]
fn streamed_equals_materialized_with_walltime_kills_and_failures() {
    use hpcqc_core::scenario::WalltimePolicy;
    use hpcqc_faults::{FaultPlan, NodeFaults, RecoverySpec};
    use hpcqc_simcore::dist::Dist;
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: 80 };
    // Tight margins so some jobs are killed and requeued.
    for class in &mut spec.classes {
        class.walltime_margin = 1.0;
    }
    let jobs: Vec<JobSpec> = spec.stream(5).collect();
    let workload = Workload::from_jobs(jobs.clone());
    let mut sc = scenario(Strategy::Workflow, 48);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
    sc.faults = Some(
        FaultPlan::named("nodes")
            .node(NodeFaults {
                mtbf: Dist::exponential(20_000.0),
                repair: Dist::log_normal_mean_cv(1_800.0, 0.5).clamped(300.0, 14_400.0),
            })
            .recovery(RecoverySpec::new().max_requeues(3)),
    );
    let materialized = FacilitySim::run(&sc, &workload).unwrap();
    let mut source = jobs.iter().cloned();
    let streamed = FacilitySim::run_streamed(&sc, &mut source).unwrap();
    assert_outcomes_identical(&materialized, &streamed, "kills+failures");
}

/// The streaming-memory contract at a size tier-1 can afford in debug:
/// tens of thousands of jobs, peak live state orders of magnitude lower.
#[test]
fn high_water_mark_is_bounded_by_in_flight_jobs() {
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: 12_000 };
    // Size the machine so the queue drains (offered load below capacity).
    let jobs_per_hour = spec.expected_jobs_per_hour();
    assert!(jobs_per_hour > 0.0);
    let sc = scenario(Strategy::Vqpu { vqpus: 8 }, 512);
    let mut source = spec.stream(9);
    let outcome = FacilitySim::run_streamed(&sc, &mut source).unwrap();
    assert_eq!(outcome.stats.len(), 12_000, "every job must finalize");
    assert!(
        outcome.peak_in_flight_jobs < 2_000,
        "peak in-flight {} must stay far below the 12k total",
        outcome.peak_in_flight_jobs
    );
    // The generator's own buffer is bounded too.
    assert!(
        source.peak_pending() < 2_000,
        "generator heap high-water {}",
        source.peak_pending()
    );
}

/// The acceptance scenario: a month-long, million-job generated campaign
/// runs to completion through the streaming path without ever
/// materializing the job vector. Release-only (`cargo test --release --
/// --ignored million -- --nocapture`), exercised by the CI `gen-smoke`
/// step. Prints its wall time and the process's peak resident set
/// (`VmHWM`, where `/proc/self/status` exists) to stderr, so the memory
/// claim has a number; neither is asserted.
#[test]
#[ignore = "release-scale: ~1M jobs; run via CI gen-smoke or --ignored"]
// The wall-clock read only reports the run's duration; the simulation
// never sees it.
#[allow(clippy::disallowed_methods)]
fn million_job_stream_runs_in_constant_memory() {
    let started = std::time::Instant::now();
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: 1_000_000 };
    // A month-scale arrival schedule: ~1 400 jobs/hour against a machine
    // sized to drain them.
    spec.arrival.base_per_hour = 250.0;
    spec.tenants.campaign_max = 64;
    let sc = Scenario::builder()
        .classical_nodes(4_096)
        .devices(vec![
            Technology::Superconducting,
            Technology::Superconducting,
            Technology::Superconducting,
            Technology::Superconducting,
        ])
        .strategy(Strategy::Vqpu { vqpus: 16 })
        .seed(1)
        .build();
    let mut source = spec.stream(123);
    let outcome = FacilitySim::run_streamed(&sc, &mut source).unwrap();
    let vm_hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            Some(line["VmHWM:".len()..].trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    eprintln!(
        "million-job month: {:.1} s wall, VmHWM {vm_hwm}, peak in-flight {} jobs",
        started.elapsed().as_secs_f64(),
        outcome.peak_in_flight_jobs
    );
    assert_eq!(outcome.stats.len(), 1_000_000);
    assert_eq!(
        outcome.stats.len(),
        outcome.stats.completed_count() + outcome.stats.failed_count()
    );
    // The whole point: a million jobs, peak live state in the thousands.
    assert!(
        outcome.peak_in_flight_jobs < 50_000,
        "peak in-flight {} is not constant-memory behaviour",
        outcome.peak_in_flight_jobs
    );
    assert!(source.peak_pending() < 50_000);
    // Month-long horizon actually simulated.
    assert!(
        outcome.makespan.as_secs_f64() > 20.0 * 86_400.0,
        "makespan {} s is shorter than ~3 weeks",
        outcome.makespan.as_secs_f64()
    );
    // Metrics stayed capped, yet aggregates cover the full population.
    assert!(outcome.stats.records().len() < outcome.stats.len());
    assert!(outcome.stats.wait_p95_secs().is_some());
}

/// Sources that misbehave (out-of-order submits) are clamped, not fatal.
#[test]
fn out_of_order_source_is_clamped_monotonic() {
    use hpcqc_simcore::time::SimTime;
    let jobs = vec![
        JobSpec::builder("late")
            .submit(SimTime::from_secs(100))
            .build(),
        JobSpec::builder("early")
            .submit(SimTime::from_secs(5))
            .build(),
    ];
    // Deliberately NOT sorted: feed the raw vec as a source.
    let mut source = jobs.into_iter();
    let sc = scenario(Strategy::CoSchedule, 16);
    let outcome = FacilitySim::run_streamed(&sc, &mut source).unwrap();
    assert_eq!(outcome.stats.len(), 2);
    let early = outcome
        .stats
        .records()
        .iter()
        .find(|r| r.name == "early")
        .unwrap();
    // Clamped to the clock: treated as arriving at t=100, not t=5.
    assert_eq!(early.submit.as_secs_f64(), 5.0);
    assert!(early.start >= SimTime::from_secs(100));
}
