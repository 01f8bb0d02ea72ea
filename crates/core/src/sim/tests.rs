use super::*;
use crate::strategy::Strategy;
use hpcqc_qpu::technology::Technology;
use hpcqc_qpu::timing::TimingModel;
use hpcqc_simcore::dist::Dist;
use hpcqc_workload::job::JobSpec;

/// A deterministic hybrid job: `iters × (classical 60 s → kernel)`.
fn hybrid_job(name: &str, nodes: u32, iters: usize, submit_s: u64) -> JobSpec {
    let mut phases = Vec::new();
    for _ in 0..iters {
        phases.push(Phase::Classical(SimDuration::from_secs(60)));
        phases.push(Phase::Quantum(Kernel::sampling(1_000)));
    }
    JobSpec::builder(name)
        .nodes(nodes)
        .submit(SimTime::from_secs(submit_s))
        .walltime(SimDuration::from_hours(4))
        .phases(phases)
        .build()
}

fn classical_job(name: &str, nodes: u32, secs: u64, submit_s: u64) -> JobSpec {
    JobSpec::builder(name)
        .nodes(nodes)
        .submit(SimTime::from_secs(submit_s))
        .walltime(SimDuration::from_hours(4))
        .phases(vec![Phase::Classical(SimDuration::from_secs(secs))])
        .build()
}

fn scenario(strategy: Strategy) -> Scenario {
    Scenario::builder()
        .classical_nodes(16)
        .device(Technology::Superconducting)
        .strategy(strategy)
        .seed(7)
        .build()
}

#[test]
fn single_classical_job_all_strategies() {
    let w = Workload::from_jobs(vec![classical_job("mpi", 8, 600, 0)]);
    for strategy in Strategy::extended_set() {
        let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
        assert_eq!(out.stats.len(), 1, "{strategy}");
        let r = &out.stats.records()[0];
        assert_eq!(r.wait(), SimDuration::ZERO, "{strategy}");
        // Runtime may include workflow overhead but is ≥ 600 s.
        assert!(r.runtime() >= SimDuration::from_secs(600), "{strategy}");
        assert!(!r.hybrid);
    }
}

#[test]
fn coschedule_holds_everything() {
    let w = Workload::from_jobs(vec![hybrid_job("h", 8, 3, 0)]);
    let out = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
    let r = &out.stats.records()[0];
    // Nodes allocated for the whole runtime, used only 180 s.
    assert!(r.node_seconds_allocated > r.node_seconds_used);
    assert!((r.node_seconds_used - 8.0 * 180.0).abs() < 1e-6);
    // QPU exclusively allocated the whole time, used only during kernels.
    assert!(r.qpu_seconds_allocated > r.qpu_seconds_used);
    assert!(r.qpu_seconds_used > 0.0);
    assert!(out.qpu_waste.efficiency < 0.9);
}

#[test]
fn workflow_releases_between_steps() {
    let w = Workload::from_jobs(vec![hybrid_job("h", 8, 3, 0)]);
    let out = FacilitySim::run(&scenario(Strategy::Workflow), &w).unwrap();
    let r = &out.stats.records()[0];
    // Nodes held only during classical work → no node waste.
    assert!(
        (r.node_seconds_allocated - r.node_seconds_used).abs() < 1.0,
        "alloc {} vs used {}",
        r.node_seconds_allocated,
        r.node_seconds_used
    );
    // But the job pays inter-step overhead.
    assert!(r.phase_wait >= SimDuration::from_secs(10));
    assert!(out.node_waste.efficiency > 0.99);
}

#[test]
fn vqpu_shares_the_device() {
    // Two hybrid jobs, one QPU, 2 VQPUs: both hold nodes, kernels
    // interleave on the shared device.
    let w = Workload::from_jobs(vec![hybrid_job("a", 4, 3, 0), hybrid_job("b", 4, 3, 0)]);
    let out = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 2 }), &w).unwrap();
    assert_eq!(out.stats.len(), 2);
    assert_eq!(out.total_kernels(), 6);
    // No exclusive QPU hold → zero exclusive allocation integral.
    assert_eq!(out.qpu_waste.allocated_fraction, 0.0);
}

#[test]
fn vqpu_tokens_bound_concurrency() {
    // 1 VQPU per device behaves like exclusive access: the second job
    // cannot even start until the first releases its token… but since
    // jobs hold tokens for their whole life, job b waits for job a.
    let w = Workload::from_jobs(vec![hybrid_job("a", 4, 2, 0), hybrid_job("b", 4, 2, 0)]);
    let one = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 1 }), &w).unwrap();
    let four = FacilitySim::run(&scenario(Strategy::Vqpu { vqpus: 4 }), &w).unwrap();
    let wait_one = one.stats.mean_wait_secs();
    let wait_four = four.stats.mean_wait_secs();
    assert!(
        wait_one > wait_four,
        "more vqpus must reduce queue wait ({wait_one} vs {wait_four})"
    );
}

#[test]
fn malleable_shrinks_during_quantum() {
    // Use a slow "neutral-atom-like" deterministic device so the quantum
    // phase dominates and the shrink is visible.
    let w = Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)]);
    let mut sc = scenario(Strategy::Malleable { min_nodes: 1 });
    sc.devices = vec![Technology::NeutralAtom];
    let out = FacilitySim::run(&sc, &w).unwrap();
    let r = &out.stats.records()[0];
    // Allocation integral must be far below nodes × runtime because the
    // job held only 1 node during the long quantum phases.
    let full = 8.0 * r.runtime().as_secs_f64();
    assert!(
        r.node_seconds_allocated < 0.55 * full,
        "allocated {} vs full-hold {}",
        r.node_seconds_allocated,
        full
    );
    // Classical work still ran on all 8 nodes (no stretch needed: the
    // machine was otherwise empty).
    assert!((r.node_seconds_used - 8.0 * 120.0).abs() < 1e-6);
}

#[test]
fn malleable_stretches_when_machine_busy() {
    // Fill the machine with a classical job while the malleable job is
    // in its quantum phase; re-expansion then falls short and the next
    // classical phase runs stretched on fewer nodes.
    let mut sc = scenario(Strategy::Malleable { min_nodes: 1 });
    sc.classical_nodes = 8;
    sc.devices = vec![Technology::NeutralAtom];
    let hybrid = hybrid_job("h", 8, 2, 0);
    // Arrives during h's first quantum phase (after 60 s of classical),
    // and holds 7 nodes for a long time.
    let filler = classical_job("filler", 7, 20_000, 70);
    let w = Workload::from_jobs(vec![hybrid, filler]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    let h = out.stats.records().iter().find(|r| r.name == "h").unwrap();
    // Stretched second classical phase → used node-seconds still equal
    // nodes_eff × stretched_duration = 8 × 60 per phase under linear
    // speedup, but the runtime must exceed the unstretched case.
    let unstretched =
        FacilitySim::run(&sc, &Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)])).unwrap();
    let r0 = &unstretched.stats.records()[0];
    assert!(
        h.runtime() > r0.runtime(),
        "busy machine must stretch the malleable job ({} vs {})",
        h.runtime(),
        r0.runtime()
    );
}

#[test]
fn strategies_deterministic() {
    let w = Workload::from_jobs(vec![
        hybrid_job("a", 4, 3, 0),
        hybrid_job("b", 6, 2, 30),
        classical_job("c", 8, 900, 60),
    ]);
    for strategy in Strategy::extended_set() {
        let o1 = FacilitySim::run(&scenario(strategy), &w).unwrap();
        let o2 = FacilitySim::run(&scenario(strategy), &w).unwrap();
        assert_eq!(o1.makespan, o2.makespan, "{strategy}");
        assert_eq!(
            o1.stats.mean_turnaround_secs(),
            o2.stats.mean_turnaround_secs(),
            "{strategy}"
        );
    }
}

#[test]
fn all_jobs_complete_under_contention() {
    // More jobs than the machine fits at once.
    let jobs: Vec<JobSpec> = (0..12)
        .map(|i| {
            if i % 3 == 0 {
                classical_job(&format!("c{i}"), 8, 300, i * 10)
            } else {
                hybrid_job(&format!("h{i}"), 4, 2, i * 10)
            }
        })
        .collect();
    let w = Workload::from_jobs(jobs);
    for strategy in Strategy::extended_set() {
        let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
        assert_eq!(out.stats.len(), 12, "{strategy} must finish all jobs");
    }
}

#[test]
fn access_overhead_extends_turnaround() {
    use hpcqc_qpu::remote::AccessMode;
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0)]);
    let on_prem = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.access = Some(AccessMode::cloud(Technology::Superconducting));
    let cloud = FacilitySim::run(&sc, &w).unwrap();
    assert!(
        cloud.stats.mean_turnaround_secs() > on_prem.stats.mean_turnaround_secs() + 30.0,
        "cloud access must add vendor-queue latency"
    );
}

#[test]
fn gantt_recorded_when_enabled() {
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
    let mut gantt = crate::observer::GanttObserver::new();
    FacilitySim::run_observed(&scenario(Strategy::CoSchedule), &w, &mut [&mut gantt]).unwrap();
    let g = gantt.gantt();
    assert!(g.lanes().any(|l| l == "qpu0"));
    assert!(g.lanes().any(|l| l.starts_with("job:")));
    assert!(g.busy("qpu0") > SimDuration::ZERO);
}

#[test]
fn device_calibration_appears_in_summary() {
    let mut sc = scenario(Strategy::CoSchedule);
    sc.device_calibration = true;
    // Two jobs a day apart force a recalibration between them.
    let w = Workload::from_jobs(vec![
        hybrid_job("h1", 4, 1, 0),
        hybrid_job("h2", 4, 1, 90_000),
    ]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    assert!(out.devices[0].recalibration_seconds > 0.0);
}

#[test]
fn every_representative_strategy_runs() {
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
    for strategy in Strategy::representative_set() {
        let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
        assert_eq!(out.stats.len(), 1, "{strategy}");
    }
}

#[test]
fn walltime_kill_fails_job_without_requeue() {
    use crate::scenario::WalltimePolicy;
    // 3 × (60 s classical + kernel) ≈ 190 s, but walltime asks for 100 s.
    let mut job = hybrid_job("h", 4, 3, 0);
    job = JobSpec::builder("h")
        .nodes(4)
        .walltime(SimDuration::from_secs(100))
        .phases(job.phases().to_vec())
        .build();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
    let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![job])).unwrap();
    assert_eq!(out.stats.len(), 1);
    assert_eq!(out.stats.failed_count(), 1);
    let r = &out.stats.records()[0];
    assert!(!r.completed);
    assert_eq!(r.end, SimTime::from_secs(100), "killed exactly at walltime");
}

#[test]
fn walltime_requeue_retries_then_fails() {
    use crate::scenario::WalltimePolicy;
    let job = JobSpec::builder("h")
        .nodes(4)
        .walltime(SimDuration::from_secs(100))
        .phases(vec![Phase::Classical(SimDuration::from_secs(300))])
        .build();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
    let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![job])).unwrap();
    let r = &out.stats.records()[0];
    assert!(!r.completed);
    // Two attempts of 100 s each, back to back on an idle machine.
    assert_eq!(r.end, SimTime::from_secs(200));
    // Both attempts' held node time is accounted.
    assert!((r.node_seconds_allocated - 4.0 * 200.0).abs() < 1e-6);
}

/// Records each run of a job's classical phase 0 as `(start, end)` and
/// the attempt number of each kernel retry.
#[derive(Debug, Default)]
struct AttemptLog {
    phase0_runs: Vec<(SimTime, SimTime)>,
    retry_attempts: Vec<u32>,
}

impl SimObserver for AttemptLog {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        match event {
            SimEvent::PhaseEnded {
                kind: PhaseKind::Classical,
                index: 0,
                started,
                ..
            } => self.phase0_runs.push((*started, now)),
            SimEvent::KernelRetried { attempt, .. } => self.retry_attempts.push(*attempt),
            _ => {}
        }
    }
}

#[test]
fn walltime_requeue_forgets_the_killed_phase_checkpoint() {
    use crate::scenario::WalltimePolicy;
    // Phase 1 checkpoints half its work by 600 s; the kill at 700 s
    // restarts the job from phase 0, which owns none of that progress.
    let job = JobSpec::builder("ckpt")
        .nodes(4)
        .walltime(SimDuration::from_secs(700))
        .phases(vec![
            Phase::Classical(SimDuration::from_secs(100)),
            Phase::Classical(SimDuration::from_secs(1_000)),
        ])
        .build();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
    // A node process that never fires keeps the plan active, so its
    // checkpoints run.
    sc.faults = Some(
        FaultPlan::named("ckpt")
            .node(NodeFaults::exponential(1e12, 60.0))
            .recovery(RecoverySpec::new().checkpoint(CheckpointSpec::new(100.0, 0.0))),
    );
    let mut log = AttemptLog::default();
    FacilitySim::run_observed(&sc, &Workload::from_jobs(vec![job]), &mut [&mut log]).unwrap();
    let secs = SimTime::from_secs;
    assert_eq!(
        log.phase0_runs,
        vec![(secs(0), secs(100)), (secs(700), secs(800))],
        "the requeued phase 0 runs in full"
    );
}

#[test]
fn walltime_requeue_restarts_the_kernel_retry_count() {
    use crate::scenario::WalltimePolicy;
    // Every kernel fails; retries back off 100, 200 and 400 s, so the
    // kill at 500 s lands in the third backoff. The requeued attempt
    // retries from attempt 1 again before its own kill at 1,000 s.
    let job = JobSpec::builder("flaky")
        .nodes(4)
        .walltime(SimDuration::from_secs(500))
        .phases(vec![Phase::Quantum(Kernel::sampling(1_000))])
        .build();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
    sc.faults = Some(
        FaultPlan::named("flaky")
            .device(DeviceFaults::new().kernel_error_rate(1.0))
            .recovery(
                RecoverySpec::new()
                    .max_kernel_retries(20)
                    .retry_backoff_secs(100.0)
                    .failover(false),
            ),
    );
    let mut log = AttemptLog::default();
    let out =
        FacilitySim::run_observed(&sc, &Workload::from_jobs(vec![job]), &mut [&mut log]).unwrap();
    assert_eq!(out.stats.failed_count(), 1);
    assert_eq!(log.retry_attempts, vec![1, 2, 1, 2]);
}

#[test]
fn walltime_kill_releases_resources_for_others() {
    use crate::scenario::WalltimePolicy;
    // A runaway job blocks the machine until its walltime kill frees it.
    let runaway = JobSpec::builder("runaway")
        .nodes(16)
        .walltime(SimDuration::from_secs(120))
        .phases(vec![Phase::Classical(SimDuration::from_hours(10))])
        .build();
    let follower = classical_job("follower", 16, 60, 10);
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
    let out = FacilitySim::run(&sc, &Workload::from_jobs(vec![runaway, follower])).unwrap();
    assert_eq!(out.stats.failed_count(), 1);
    let follower_rec = out
        .stats
        .records()
        .iter()
        .find(|r| r.name == "follower")
        .unwrap();
    assert!(follower_rec.completed);
    // Follower starts right after the kill at t=120.
    assert_eq!(follower_rec.start, SimTime::from_secs(120));
}

#[test]
fn advisory_walltime_never_kills() {
    // Default policy: the same overrunning job completes.
    let job = JobSpec::builder("over")
        .nodes(4)
        .walltime(SimDuration::from_secs(60))
        .phases(vec![Phase::Classical(SimDuration::from_secs(600))])
        .build();
    let out = FacilitySim::run(
        &scenario(Strategy::CoSchedule),
        &Workload::from_jobs(vec![job]),
    )
    .unwrap();
    assert_eq!(out.stats.failed_count(), 0);
    assert_eq!(out.stats.records()[0].end, SimTime::from_secs(600));
}

#[test]
fn kill_mid_kernel_is_safe() {
    use crate::scenario::WalltimePolicy;
    // Neutral-atom kernel runs ~45 min; walltime 60 s kills the job
    // while the kernel is still on the device. The device finishes its
    // work; the kill drops the key of the job's completion event, so
    // the key fence retires it.
    let job = JobSpec::builder("h")
        .nodes(4)
        .walltime(SimDuration::from_secs(60))
        .phases(vec![Phase::Quantum(Kernel::sampling(1_000))])
        .build();
    let mut sc = scenario(Strategy::CoSchedule);
    sc.devices = vec![Technology::NeutralAtom];
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };

    /// Records when each quantum phase ends.
    #[derive(Debug, Default)]
    struct QuantumEnds(Vec<SimTime>);
    impl SimObserver for QuantumEnds {
        fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
            if let SimEvent::PhaseEnded {
                kind: PhaseKind::Quantum,
                ..
            } = event
            {
                self.0.push(now);
            }
        }
    }
    let mut ends = QuantumEnds::default();
    let out =
        FacilitySim::run_observed(&sc, &Workload::from_jobs(vec![job]), &mut [&mut ends]).unwrap();
    assert_eq!(out.stats.failed_count(), 1);
    assert_eq!(out.stats.records()[0].end, SimTime::from_secs(60));
    // The kill closes the quantum phase it interrupts.
    assert_eq!(ends.0, vec![SimTime::from_secs(60)]);
    // Device still shows the kernel's busy time (it could not abort).
    assert!(out.devices[0].busy_seconds > 0.0);
}

#[test]
fn job_run_stays_within_its_size_budget() {
    // The live-job table boxes one `JobRun` per job in flight; grouping
    // its state by lifetime must not grow it through padding.
    assert!(std::mem::size_of::<JobRun>() <= 496);
}

#[test]
fn generous_walltime_with_kill_policy_completes_normally() {
    use crate::scenario::WalltimePolicy;
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0)]);
    let mut sc = scenario(Strategy::CoSchedule);
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
    let killed = FacilitySim::run(&sc, &w).unwrap();
    let advisory = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
    assert_eq!(killed.stats.failed_count(), 0);
    assert_eq!(
        killed.makespan, advisory.makespan,
        "kill policy must be inert when unused"
    );
}

/// Constant node failures every `mtbf` seconds, each repaired after
/// `repair` seconds, with a fault requeue budget of `max_requeues`.
fn node_fault_plan(mtbf: f64, repair: f64, max_requeues: u32) -> hpcqc_faults::FaultPlan {
    use hpcqc_faults::{FaultPlan, NodeFaults, RecoverySpec};
    use hpcqc_simcore::dist::Dist;
    FaultPlan::named("nodes")
        .node(NodeFaults {
            mtbf: Dist::constant(mtbf),
            repair: Dist::constant(repair),
        })
        .recovery(RecoverySpec::new().max_requeues(max_requeues))
}

#[test]
fn node_failures_requeue_and_complete() {
    // Frequent failures (MTBF 200 s) on a long classical job: the job
    // is hit, requeued, and still finishes thanks to the requeue budget
    // and node repairs.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 8;
    sc.faults = Some(node_fault_plan(200.0, 100.0, 50));
    let w = Workload::from_jobs(vec![classical_job("long", 2, 150, 0)]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    assert_eq!(out.stats.len(), 1);
    // Whether the job is hit depends on which node fails; either way it
    // must terminate, and the simulator must not hang on the endless
    // failure/repair event stream.
    assert!(out.makespan >= SimTime::from_secs(150));
}

#[test]
fn node_failure_budget_exhaustion_fails_job() {
    // One node, deterministic failures faster than the job: every
    // attempt dies, budget 1 → recorded failed.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 1;
    sc.faults = Some(node_fault_plan(50.0, 10.0, 1));
    let w = Workload::from_jobs(vec![classical_job("doomed", 1, 10_000, 0)]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    assert_eq!(out.stats.failed_count(), 1);
    assert!(!out.stats.records()[0].completed);
}

#[test]
fn node_failure_requeues_only_the_owner_of_the_failed_node() {
    // Two 1-node jobs fill both nodes from t=0 ("a" on node 0, "b" on
    // node 1). The first failure, at t=300, hits one of them; the
    // repair takes longer than the run. The owner is requeued, then
    // dies again at t=600 on the other node with its budget spent;
    // the other job finishes at t=400 untouched.
    #[derive(Debug, Default)]
    struct Log {
        failed: Vec<(SimTime, u32)>,
        restarted: Vec<(SimTime, String)>,
    }
    impl SimObserver for Log {
        fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
            match event {
                SimEvent::NodeFailed { node } => self.failed.push((now, node.raw())),
                SimEvent::JobRestarted { name, .. } => {
                    self.restarted.push((now, name.to_string()));
                }
                _ => {}
            }
        }
    }
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 2;
    sc.faults = Some(node_fault_plan(300.0, 10_000.0, 1));
    let w = Workload::from_jobs(vec![
        classical_job("a", 1, 400, 0),
        classical_job("b", 1, 400, 0),
    ]);
    let mut log = Log::default();
    let out = FacilitySim::run_observed(&sc, &w, &mut [&mut log]).unwrap();
    let (at, node) = log.failed[0];
    assert_eq!(at, SimTime::from_secs(300));
    let (owner, other) = if node == 0 { ("a", "b") } else { ("b", "a") };
    assert_eq!(log.restarted, vec![(at, owner.to_string())]);
    let record = |name: &str| {
        out.stats
            .records()
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .clone()
    };
    let untouched = record(other);
    assert!(untouched.completed);
    assert_eq!(untouched.end, SimTime::from_secs(400));
    let victim = record(owner);
    assert!(!victim.completed);
    assert_eq!(victim.end, SimTime::from_secs(600));
}

#[test]
fn failures_on_idle_nodes_are_harmless() {
    // Plenty of nodes; the job needs only 2, so most failures hit idle
    // nodes and the job usually survives untouched.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 16;
    sc.faults = Some(node_fault_plan(30.0, 1_000.0, 100));
    let w = Workload::from_jobs(vec![classical_job("small", 2, 120, 0)]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    assert_eq!(out.stats.len(), 1);
}

#[test]
fn oversized_job_is_rejected() {
    let w = Workload::from_jobs(vec![classical_job("big", 32, 60, 0)]);
    let err = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap_err();
    assert!(matches!(
        err,
        SimError::Sched(SchedError::ImpossibleRequest { .. })
    ));
}

#[test]
fn deterministic_custom_device_timing() {
    // Sanity-check the fixed-timing path used by several experiments.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.devices = vec![Technology::Superconducting];
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 1, 0)]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    let r = &out.stats.records()[0];
    assert!(r.qpu_seconds_used > 0.0);
    let _ = TimingModel::new(Dist::constant(0.01), Dist::constant(2.0));
}

// ----- driver / observer API ------------------------------------------

/// A short quantum phase inside long classical work → the advisor
/// routes the job to virtual QPUs.
#[test]
fn adaptive_runs_end_to_end() {
    let w = Workload::from_jobs(vec![
        hybrid_job("a", 4, 3, 0),
        hybrid_job("b", 6, 2, 30),
        classical_job("c", 8, 900, 60),
    ]);
    let out = FacilitySim::run(&scenario(Strategy::Adaptive { vqpus: 4 }), &w).unwrap();
    assert_eq!(out.stats.len(), 3);
    assert_eq!(out.stats.failed_count(), 0);
    // Adaptive never holds a device exclusively.
    assert_eq!(out.qpu_waste.allocated_fraction, 0.0);
}

/// On the neutral-atom machine (30-minute kernels) the advisor must
/// route hybrid jobs to workflows: nodes are released during quantum
/// work, so node waste stays near zero — unlike co-scheduling.
#[test]
fn adaptive_routes_long_kernels_to_workflow() {
    let mut sc = scenario(Strategy::Adaptive { vqpus: 4 });
    sc.devices = vec![Technology::NeutralAtom];
    let w = Workload::from_jobs(vec![hybrid_job("h", 8, 2, 0)]);
    let out = FacilitySim::run(&sc, &w).unwrap();
    let r = &out.stats.records()[0];
    assert!(
        (r.node_seconds_allocated - r.node_seconds_used).abs() < 1.0,
        "workflow routing releases nodes during quantum work \
         (alloc {} vs used {})",
        r.node_seconds_allocated,
        r.node_seconds_used
    );
}

/// The adaptive planning estimate must ignore devices that cannot run
/// the kernel: a small slow device next to a large fast one must not
/// inflate the estimate for kernels only the large device can run.
#[test]
fn quantum_estimate_ignores_incapable_devices() {
    let mut sc = scenario(Strategy::Adaptive { vqpus: 4 });
    // 127-qubit superconducting next to a 12-qubit spin-qubit device.
    sc.devices = vec![Technology::Superconducting, Technology::SpinQubit];
    let sim = FacilitySim::new(sc.clone(), driver_for(&sc.strategy), &mut []);
    let supercond = sim.state.devices[0].timing().mean_job_secs(1_000);
    let spin = sim.state.devices[1].timing().mean_job_secs(1_000);
    let big = Kernel::builder("big")
        .qubits(100)
        .shots(1_000)
        .build()
        .unwrap();
    assert_eq!(
        sim.state.worst_case_device_secs(&big),
        supercond,
        "only the superconducting device can run 100 qubits"
    );
    let small = Kernel::builder("small")
        .qubits(8)
        .shots(1_000)
        .build()
        .unwrap();
    assert_eq!(
        sim.state.worst_case_device_secs(&small),
        supercond.max(spin),
        "both devices are capable, the slowest wins"
    );
}

#[test]
fn custom_driver_runs_on_the_stock_loop() {
    /// Pins every job to co-scheduling regardless of the scenario's
    /// strategy field — the minimal proof that external drivers plug in.
    #[derive(Debug)]
    struct AlwaysCoSchedule;
    impl StrategyDriver for AlwaysCoSchedule {
        fn name(&self) -> &'static str {
            "always-coschedule"
        }
        fn submission_plan(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> SubmissionPlan {
            SubmissionPlan::WholeJob {
                hold_qpu: ctx.spec(job).is_hybrid(),
            }
        }
    }
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
    let stock = FacilitySim::run(&scenario(Strategy::CoSchedule), &w).unwrap();
    let custom = FacilitySim::run_streamed_probed(
        &scenario(Strategy::Workflow),
        &mut w.jobs().iter().cloned(),
        Box::new(AlwaysCoSchedule),
        &mut [],
        &mut NoProbe,
    )
    .unwrap();
    assert_eq!(stock.makespan, custom.makespan);
    assert_eq!(
        stock.stats.mean_turnaround_secs(),
        custom.stats.mean_turnaround_secs()
    );
}

#[test]
fn settled_cycles_are_skipped_on_a_burst() {
    /// Counts skipped planning cycles.
    #[derive(Debug, Default)]
    struct Counter {
        skipped: usize,
    }
    impl CycleProbe for Counter {
        fn cycle_skipped(&mut self, _now: SimTime, _queue_depth: usize) {
            self.skipped += 1;
        }
    }

    // Eight 8-node jobs at once on 16 nodes: two run while six wait,
    // and every phase event of the running pair finds the queue
    // settled.
    let w = Workload::from_jobs(
        (0..8)
            .map(|i| hybrid_job(&format!("h{i}"), 8, 3, 0))
            .collect(),
    );
    let sc = scenario(Strategy::CoSchedule);
    let mut counter = Counter::default();
    let out = FacilitySim::run_streamed_probed(
        &sc,
        &mut w.jobs().iter().cloned(),
        driver_for(&sc.strategy),
        &mut [],
        &mut counter,
    )
    .unwrap();
    assert_eq!(out.stats.len(), 8);
    assert!(counter.skipped > 0, "no settled cycle was skipped");
}

#[test]
fn replaced_events_run_no_cycle() {
    use crate::scenario::WalltimePolicy;
    use hpcqc_faults::NodeFaults;

    /// Every instant a cycle ran or was skipped at.
    #[derive(Debug, Default)]
    struct Instants(Vec<SimTime>);
    impl CycleProbe for Instants {
        fn cycle_start(&mut self, now: SimTime, _queue_depth: usize) {
            self.0.push(now);
        }
        fn cycle_skipped(&mut self, now: SimTime, _queue_depth: usize) {
            self.0.push(now);
        }
    }
    fn probed(sc: &Scenario, jobs: Vec<JobSpec>) -> Vec<SimTime> {
        let mut probe = Instants::default();
        let out = FacilitySim::run_streamed_probed(
            sc,
            &mut jobs.into_iter(),
            driver_for(&sc.strategy),
            &mut [],
            &mut probe,
        )
        .unwrap();
        assert_eq!(out.stats.failed_count(), 0);
        probe.0
    }
    let secs = SimTime::from_secs;
    let full_machine = |name: &str, submit_s: u64, walltime_s: u64| {
        JobSpec::builder(name)
            .nodes(4)
            .submit(SimTime::from_secs(submit_s))
            .walltime(SimDuration::from_secs(walltime_s))
            .phases(vec![Phase::Classical(SimDuration::from_secs(1_000))])
            .build()
    };

    // Checkpoints every 200 s of a 1,000 s phase, 5 s each: the
    // checkpoints at 200, 405, 610 and 815 s each replace the pending
    // `PhaseDone`, so the replaced ones pop at 1,000, 1,005, 1,010 and
    // 1,015 s while `b` is queued; the phase ends at 1,020 s. The node
    // process never fires before the run ends.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 4;
    sc.faults = Some(
        FaultPlan::named("ckpt")
            .node(NodeFaults {
                mtbf: Dist::constant(1e6),
                repair: Dist::constant(100.0),
            })
            .recovery(RecoverySpec::new().checkpoint(CheckpointSpec::new(200.0, 5.0))),
    );
    let seen = probed(
        &sc,
        vec![full_machine("a", 0, 14_400), full_machine("b", 1, 14_400)],
    );
    assert!(
        seen.contains(&secs(200)),
        "a checkpoint with `b` queued cycles"
    );
    for stale in [1_000, 1_005, 1_010, 1_015] {
        assert!(!seen.contains(&secs(stale)), "a cycle ran at {stale} s");
    }
    assert!(seen.contains(&secs(1_020)));

    // Walltime kills: `a` ends at 1,000 s, which disarms its kill
    // timer, and the replaced timer pops at 1,500 s while `c` is
    // queued behind `b` (1,000–2,000 s).
    let mut sc = scenario(Strategy::CoSchedule);
    sc.classical_nodes = 4;
    sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 0 };
    let seen = probed(
        &sc,
        vec![
            full_machine("a", 0, 1_500),
            full_machine("b", 1, 1_500),
            full_machine("c", 2, 1_500),
        ],
    );
    assert!(seen.contains(&secs(1_000)));
    assert!(
        !seen.contains(&secs(1_500)),
        "a cycle ran at the replaced kill"
    );
}

#[test]
fn extra_observers_see_the_event_stream() {
    use crate::observer::SimEvent;

    /// Counts events per variant family.
    #[derive(Debug, Default)]
    struct Counter {
        submitted: usize,
        started: usize,
        finalized: usize,
        kernels: usize,
    }
    impl SimObserver for Counter {
        fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
            match event {
                SimEvent::JobSubmitted { .. } => self.submitted += 1,
                SimEvent::JobStarted { .. } => self.started += 1,
                SimEvent::JobFinalized { .. } => self.finalized += 1,
                SimEvent::KernelExecEnded { .. } => self.kernels += 1,
                _ => {}
            }
        }
    }

    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 3, 0), classical_job("c", 8, 60, 0)]);
    for strategy in Strategy::extended_set() {
        let mut counter = Counter::default();
        let out = FacilitySim::run_observed(&scenario(strategy), &w, &mut [&mut counter]).unwrap();
        assert_eq!(counter.finalized, 2, "{strategy}");
        assert_eq!(counter.submitted, counter.started, "{strategy}");
        assert_eq!(counter.kernels as u64, out.total_kernels(), "{strategy}");
    }
}

#[test]
fn observers_do_not_perturb_the_simulation() {
    /// An observer that only burns cycles.
    #[derive(Debug, Default)]
    struct Noop(usize);
    impl SimObserver for Noop {
        fn on_event(&mut self, _now: SimTime, _event: &SimEvent<'_>) {
            self.0 += 1;
        }
    }
    let w = Workload::from_jobs(vec![hybrid_job("a", 4, 3, 0), hybrid_job("b", 6, 2, 30)]);
    for strategy in Strategy::extended_set() {
        let bare = FacilitySim::run(&scenario(strategy), &w).unwrap();
        let mut o1 = Noop::default();
        let mut o2 = Noop::default();
        let observed =
            FacilitySim::run_observed(&scenario(strategy), &w, &mut [&mut o1, &mut o2]).unwrap();
        assert_eq!(bare.makespan, observed.makespan, "{strategy}");
        assert_eq!(
            bare.stats.mean_turnaround_secs(),
            observed.stats.mean_turnaround_secs(),
            "{strategy}"
        );
        assert!(o1.0 > 0);
        assert_eq!(o1.0, o2.0);
    }
}

/// The crossover workload mix: hybrid tenants competing with classical
/// background traffic — the regime where the paper's strategies
/// cross over (E6).
fn crossover_workload() -> Workload {
    let mut jobs = Vec::new();
    // Four overlapping hybrid tenants: under co-scheduling they
    // serialize on the single exclusive QPU token.
    for i in 0..4u64 {
        jobs.push(hybrid_job(&format!("hyb{i}"), 4, 4, i * 15));
    }
    // Classical background traffic competing for the nodes.
    for i in 0..4u64 {
        jobs.push(classical_job(&format!("bg{i}"), 4, 600, 100 + i * 150));
    }
    Workload::from_jobs(jobs)
}

/// The acceptance experiment: on the crossover workload mix (several
/// hybrid tenants over background load), per-job advisor routing must
/// beat the *worst* fixed strategy on mean turnaround.
#[test]
fn adaptive_beats_worst_fixed_on_crossover_mix() {
    let w = crossover_workload();
    let worst = Strategy::representative_set()
        .into_iter()
        .map(|strategy| {
            let out = FacilitySim::run(&scenario(strategy), &w).unwrap();
            out.stats.mean_turnaround_secs()
        })
        .fold(f64::MIN, f64::max);
    let adaptive = FacilitySim::run(&scenario(Strategy::Adaptive { vqpus: 4 }), &w).unwrap();
    assert!(
        adaptive.stats.mean_turnaround_secs() < worst,
        "adaptive {} must beat the worst fixed strategy {}",
        adaptive.stats.mean_turnaround_secs(),
        worst
    );
}

// ----- fault injection & recovery -------------------------------------

use hpcqc_faults::{DriftModel, NodeFaults};

/// Counts dependability events for behavioral fault assertions.
#[derive(Debug, Default)]
struct FaultCounter {
    kernel_failed: usize,
    kernel_retried: usize,
    rerouted: usize,
    checkpoints: usize,
    restarts: usize,
    recalibrations: usize,
    outages: usize,
    repairs: usize,
    fault_holds: usize,
    rewound: f64,
}
impl SimObserver for FaultCounter {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        match event {
            SimEvent::KernelFailed { .. } => self.kernel_failed += 1,
            SimEvent::KernelRetried { .. } => self.kernel_retried += 1,
            SimEvent::KernelRerouted { .. } => self.rerouted += 1,
            SimEvent::CheckpointTaken { .. } => self.checkpoints += 1,
            SimEvent::JobRestarted {
                rewound_node_seconds,
                ..
            } => {
                self.restarts += 1;
                self.rewound += rewound_node_seconds;
            }
            SimEvent::DeviceFailed { recalibration, .. } => {
                if *recalibration {
                    self.recalibrations += 1;
                } else {
                    self.outages += 1;
                }
            }
            SimEvent::DeviceRepaired { .. } => self.repairs += 1,
            SimEvent::JobHeld { reason, .. } if *reason == HoldReason::FaultRecovery => {
                self.fault_holds += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn inert_fault_plan_changes_nothing() {
    let w = Workload::from_jobs(vec![
        hybrid_job("a", 4, 3, 0),
        hybrid_job("b", 6, 2, 30),
        classical_job("c", 8, 900, 60),
    ]);
    for strategy in Strategy::extended_set() {
        let plain = FacilitySim::run(&scenario(strategy), &w).unwrap();
        let mut sc = scenario(strategy);
        sc.faults = Some(FaultPlan::none());
        let faulted = FacilitySim::run(&sc, &w).unwrap();
        assert_eq!(plain.makespan, faulted.makespan, "{strategy}");
        assert_eq!(
            plain.stats.mean_turnaround_secs(),
            faulted.stats.mean_turnaround_secs(),
            "{strategy}: an inert fault plan must not perturb the run"
        );
    }
}

#[test]
fn transient_kernel_errors_retry_to_completion() {
    // Half of all kernel executions fail; generous retry budget means
    // the jobs still complete, paying backoff time for each attempt.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.faults = Some(
        FaultPlan::named("flaky-kernels")
            .device(DeviceFaults::new().kernel_error_rate(0.5))
            .recovery(
                RecoverySpec::new()
                    .max_kernel_retries(50)
                    .retry_backoff_secs(1.0),
            ),
    );
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
    let mut counter = FaultCounter::default();
    let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
    assert_eq!(out.stats.failed_count(), 0);
    assert!(
        counter.kernel_failed >= 1,
        "a 50% error rate must surface at least one failure"
    );
    assert_eq!(
        counter.kernel_retried, counter.kernel_failed,
        "every failure must be answered by a retry"
    );
    assert!(counter.fault_holds >= 1, "retries hold for fault recovery");
    // Same plan, same seed: byte-identical replay even with faults.
    let again = FacilitySim::run(&sc, &w).unwrap();
    assert_eq!(out.makespan, again.makespan);
}

#[test]
fn device_outage_fails_over_to_fleet_peer() {
    use hpcqc_fleet::{FleetDevice, FleetSpec, RouteSpec};
    // Two slow neutral-atom devices with frequent outages: long kernels
    // get interrupted, and the retry routes to the surviving peer.
    let fleet = FleetSpec::new("pair")
        .route(RouteSpec::LeastLoaded)
        .device(FleetDevice::new("na-a", Technology::NeutralAtom))
        .device(FleetDevice::new("na-b", Technology::NeutralAtom));
    let mut sc = Scenario::builder()
        .classical_nodes(16)
        .fleet(fleet)
        .strategy(Strategy::Vqpu { vqpus: 2 })
        .seed(7)
        .build();
    sc.faults = Some(
        FaultPlan::named("outages")
            .device(
                DeviceFaults::new()
                    .mtbf(Dist::exponential(7_200.0))
                    .repair(Dist::exponential(900.0)),
            )
            .recovery(
                RecoverySpec::new()
                    .max_kernel_retries(20)
                    .retry_backoff_secs(30.0)
                    .max_requeues(50),
            ),
    );
    let w = Workload::from_jobs(vec![
        hybrid_job("a", 4, 2, 0),
        hybrid_job("b", 4, 2, 60),
        hybrid_job("c", 4, 2, 120),
    ]);
    let mut counter = FaultCounter::default();
    let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
    assert_eq!(out.stats.len(), 3);
    assert_eq!(
        out.stats.failed_count(),
        0,
        "all jobs must survive the outages"
    );
    assert!(counter.outages >= 1, "outages must occur");
    assert!(
        counter.kernel_failed >= 1,
        "an outage must interrupt an in-flight kernel"
    );
    assert!(
        counter.rerouted >= 1,
        "a retried kernel must fail over to the healthy peer \
         (outages={}, failed={}, retried={})",
        counter.outages,
        counter.kernel_failed,
        counter.kernel_retried,
    );
}

#[test]
fn checkpoint_restart_rescues_long_classical_job() {
    // Node fails every 1000 s; the 1500 s phase never fits between
    // failures, so without checkpointing the job burns its requeue
    // budget and fails. Checkpoint-restart carries progress across
    // attempts and finishes.
    let node = NodeFaults {
        mtbf: Dist::constant(1_000.0),
        repair: Dist::constant(100.0),
    };
    let mut plain = scenario(Strategy::CoSchedule);
    plain.classical_nodes = 4;
    plain.faults = Some(
        FaultPlan::named("no-ckpt")
            .node(node.clone())
            .recovery(RecoverySpec::new().max_requeues(10)),
    );
    let w = Workload::from_jobs(vec![classical_job("long", 4, 1_500, 0)]);
    let out = FacilitySim::run(&plain, &w).unwrap();
    assert_eq!(
        out.stats.failed_count(),
        1,
        "without checkpoints the phase never fits between failures"
    );

    let mut ckpt = scenario(Strategy::CoSchedule);
    ckpt.classical_nodes = 4;
    ckpt.faults = Some(
        FaultPlan::named("ckpt").node(node).recovery(
            RecoverySpec::new()
                .max_requeues(10)
                .checkpoint(CheckpointSpec::new(200.0, 5.0)),
        ),
    );
    let mut counter = FaultCounter::default();
    let out = FacilitySim::run_observed(&ckpt, &w, &mut [&mut counter]).unwrap();
    assert_eq!(
        out.stats.failed_count(),
        0,
        "checkpoint-restart must rescue the job \
         (checkpoints={}, restarts={})",
        counter.checkpoints,
        counter.restarts,
    );
    assert!(counter.checkpoints >= 2);
    assert!(counter.restarts >= 1);
    assert!(
        counter.rewound > 0.0,
        "a restart re-does the work since the last checkpoint"
    );
    assert!(
        counter.rewound < 4.0 * 1_000.0,
        "checkpoints must bound the rewound work below a full attempt \
         (rewound {})",
        counter.rewound
    );
}

#[test]
fn drift_forces_recalibration_and_job_survives() {
    // 1000-shot kernels against a 500-shot drift threshold: every
    // kernel trips a recalibration; the next kernel parks until the
    // device returns and the job still completes.
    let mut sc = scenario(Strategy::CoSchedule);
    sc.faults = Some(
        FaultPlan::named("drifty").device(DeviceFaults::new().drift(DriftModel::new(1e-3, 0.5))),
    );
    let w = Workload::from_jobs(vec![hybrid_job("h", 4, 2, 0)]);
    let mut counter = FaultCounter::default();
    let out = FacilitySim::run_observed(&sc, &w, &mut [&mut counter]).unwrap();
    assert_eq!(out.stats.failed_count(), 0);
    assert!(
        counter.recalibrations >= 1,
        "shot accumulation past the threshold must force recalibration"
    );
    // The sim stops once every job finalizes, so the very last
    // recalibration's repair may never fire.
    assert!(
        counter.repairs + 1 >= counter.recalibrations,
        "recalibrations must end with the device back in service \
         (repairs={}, recalibrations={})",
        counter.repairs,
        counter.recalibrations
    );
    assert_eq!(counter.kernel_failed, 0, "drift does not fail kernels");
}
