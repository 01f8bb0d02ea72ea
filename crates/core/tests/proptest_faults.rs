//! Property tests of the dependability layer: for arbitrary small hybrid
//! workloads under *arbitrary* fault plans (outages, drift, transient
//! kernel errors, node failures, checkpoint-restart — with arbitrary
//! recovery knobs), with or without walltime kills, the simulator never
//! loses a job (every job finalizes exactly once, as completed or
//! failed), never spends more retries or requeues than the plan's caps
//! allow, and stays byte-deterministic for a fixed seed.
//!
//! The accounting properties also run at 1,000 cases, for release builds:
//! `cargo test --release -p hpcqc-core --test proptest_faults -- --ignored`.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::scenario::{Scenario, WalltimePolicy};
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::{CheckpointSpec, DeviceFaults, DriftModel, FaultPlan, NodeFaults, RecoverySpec};
use hpcqc_qpu::kernel::Kernel;
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};
use proptest::prelude::*;
// The paper's `Strategy` enum shadows proptest's trait of the same name;
// re-import the trait under an alias so `prop_map` stays resolvable.
use proptest::strategy::Strategy as PropStrategy;

const NODES: u32 = 16;

/// Small hybrid jobs with *unique* names, so the ledger below can key
/// finalizations by name. Walltimes run from one minute to half an hour,
/// short enough that a walltime-kill policy fires on many jobs.
fn workload_strategy() -> impl PropStrategy<Value = Workload> {
    prop::collection::vec(
        (
            0u64..600, // submit
            1u32..=8,  // nodes
            prop::collection::vec(
                prop_oneof![
                    (5u64..600).prop_map(|s| Phase::Classical(SimDuration::from_secs(s))),
                    (100u32..5_000).prop_map(|shots| Phase::Quantum(Kernel::sampling(shots))),
                ],
                1..5,
            ),
            60u64..1_800, // walltime
        ),
        1..7,
    )
    .prop_map(|specs| {
        Workload::from_jobs(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (submit, nodes, phases, walltime))| {
                    JobSpec::builder(format!("j{i}"))
                        .user(format!("u{}", i % 3))
                        .submit(SimTime::from_secs(submit))
                        .nodes(nodes)
                        .walltime(SimDuration::from_secs(walltime))
                        .phases(phases)
                        .build()
                })
                .collect(),
        )
    })
}

/// `Option`-shaped strategy (the vendored proptest has no `prop::option`).
fn maybe<S>(inner: S) -> impl PropStrategy<Value = Option<S::Value>>
where
    S: PropStrategy + 'static,
    S::Value: Clone,
{
    prop_oneof![Just(None), inner.prop_map(Some)]
}

/// Arbitrary fault plans: each process, and checkpoint-restart, is
/// independently present or absent, with rates aggressive enough to fire
/// on short workloads but bounded so runs terminate quickly.
fn plan_strategy() -> impl PropStrategy<Value = FaultPlan> {
    // Nested tuples: the vendored proptest implements `Strategy` for
    // tuples only up to arity six.
    (
        (
            maybe((1_800f64..28_800.0, 60f64..900.0)), // outage mtbf / repair
            maybe((1e-6f64..1e-4, 0.2f64..1.0)),       // drift per-shot / threshold
            0.0f64..0.3,                               // transient kernel error rate
            maybe((30f64..600.0, 0f64..30.0)),         // checkpoint interval / cost
        ),
        (
            0u32..5,                                    // kernel retry cap
            1.0f64..30.0,                               // retry backoff base
            any::<bool>(),                              // failover
            0u32..6,                                    // requeue budget
            maybe((7_200f64..28_800.0, 120f64..600.0)), // node mtbf / repair
        ),
    )
        .prop_map(
            |(
                (outage, drift, error_rate, checkpoint),
                (retries, backoff, failover, requeues, node),
            )| {
                let mut device = DeviceFaults::new().kernel_error_rate(error_rate);
                if let Some((mtbf, repair)) = outage {
                    device = device
                        .mtbf(Dist::exponential(mtbf))
                        .repair(Dist::constant(repair));
                }
                if let Some((per_shot, threshold)) = drift {
                    device = device.drift(
                        DriftModel::new(per_shot, threshold).recalibration(Dist::constant(120.0)),
                    );
                }
                let mut recovery = RecoverySpec::new()
                    .max_kernel_retries(retries)
                    .retry_backoff_secs(backoff)
                    .failover(failover)
                    .max_requeues(requeues);
                if let Some((interval, cost)) = checkpoint {
                    recovery = recovery.checkpoint(CheckpointSpec::new(interval, cost));
                }
                let mut plan = FaultPlan::named("prop").device(device).recovery(recovery);
                if let Some((mtbf, repair)) = node {
                    plan = plan.node(NodeFaults::exponential(mtbf, repair));
                }
                plan
            },
        )
}

fn strategy_strategy() -> impl PropStrategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::CoSchedule),
        Just(Strategy::Workflow),
        (1u32..=4).prop_map(|v| Strategy::Vqpu { vqpus: v }),
    ]
}

/// No walltime enforcement, or SLURM-style kills with a small requeue
/// budget of their own (it spends the same per-job counter as fault
/// requeues).
fn walltime_strategy() -> impl PropStrategy<Value = WalltimePolicy> {
    prop_oneof![
        Just(WalltimePolicy::Advisory),
        (0u32..3).prop_map(|max_requeues| WalltimePolicy::Kill { max_requeues }),
    ]
}

fn scenario_of(
    strategy: Strategy,
    seed: u64,
    plan: &FaultPlan,
    walltime: WalltimePolicy,
) -> Scenario {
    Scenario::builder()
        .classical_nodes(NODES)
        .device(Technology::Superconducting)
        .strategy(strategy)
        .seed(seed)
        .faults(plan.clone())
        .walltime_policy(walltime)
        .build()
}

/// Counts fault-recovery traffic from the public event stream: per-job
/// finalizations and restarts, and the highest retry attempt seen.
#[derive(Debug, Default)]
struct FaultLedger {
    finalized: std::collections::BTreeMap<String, u32>,
    restarts: std::collections::BTreeMap<u64, u32>,
    max_retry_attempt: u32,
}

impl SimObserver for FaultLedger {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        match event {
            SimEvent::JobFinalized { record } => {
                *self.finalized.entry(record.name.clone()).or_default() += 1;
            }
            SimEvent::JobRestarted { job, .. } => {
                *self.restarts.entry(job.raw()).or_default() += 1;
            }
            SimEvent::KernelRetried { attempt, .. } => {
                self.max_retry_attempt = self.max_retry_attempt.max(*attempt);
            }
            _ => {}
        }
    }
}

/// No job is ever lost: every job finalizes exactly once — completed,
/// or failed after its budgets ran out — and the outcome records all of
/// them.
fn assert_no_job_lost(workload: &Workload, scenario: &Scenario, plan: &FaultPlan) {
    let mut ledger = FaultLedger::default();
    let outcome =
        FacilitySim::run_observed(scenario, workload, &mut [&mut ledger]).expect("valid scenario");
    assert_eq!(
        outcome.stats.len(),
        workload.len(),
        "lost jobs under {} with {:?}",
        scenario.strategy,
        plan
    );
    assert_eq!(ledger.finalized.len(), workload.len());
    for (name, count) in &ledger.finalized {
        assert_eq!(*count, 1, "{name} finalized {count} times");
    }
}

/// Recovery budgets are hard caps: no retry attempt ever exceeds the
/// plan's kernel-retry cap, and no job restarts more often than the
/// recovery policy's requeue budget.
fn assert_caps_hold(workload: &Workload, scenario: &Scenario, plan: &FaultPlan) {
    let mut ledger = FaultLedger::default();
    FacilitySim::run_observed(scenario, workload, &mut [&mut ledger]).expect("valid scenario");
    let recovery = plan.recovery_or_default();
    assert!(
        ledger.max_retry_attempt <= recovery.kernel_retry_cap(),
        "retry attempt {} exceeds cap {}",
        ledger.max_retry_attempt,
        recovery.kernel_retry_cap()
    );
    // Kernel-exhaustion requeues, node-failure requeues and walltime
    // kills share the per-job counter; the fault requeues (the restarts)
    // stop at the recovery policy's budget.
    let budget = recovery.requeue_budget();
    for (job, restarts) in &ledger.restarts {
        assert!(
            *restarts <= budget,
            "job {job} restarted {restarts} times against budget {budget}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_job_lost_under_arbitrary_faults(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        walltime in walltime_strategy(),
        seed in any::<u64>(),
    ) {
        assert_no_job_lost(&workload, &scenario_of(strategy, seed, &plan, walltime), &plan);
    }

    #[test]
    fn retries_and_requeues_never_exceed_caps(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        walltime in walltime_strategy(),
        seed in any::<u64>(),
    ) {
        assert_caps_hold(&workload, &scenario_of(strategy, seed, &plan, walltime), &plan);
    }

    /// Fault injection keeps full-pipeline determinism: the same seed
    /// replays the same faults and produces a byte-identical outcome.
    #[test]
    fn faulted_runs_are_byte_identical(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        walltime in walltime_strategy(),
        seed in any::<u64>(),
    ) {
        let scenario = scenario_of(strategy, seed, &plan, walltime);
        let a = FacilitySim::run(&scenario, &workload).expect("valid");
        let b = FacilitySim::run(&scenario, &workload).expect("valid");
        prop_assert_eq!(
            serde_json::to_string(&a).expect("outcome serializes"),
            serde_json::to_string(&b).expect("outcome serializes")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// Both accounting properties at 1,000 cases, for release builds (see
    /// the module doc).
    #[test]
    #[ignore = "1,000 cases; run in release"]
    fn fault_accounting_holds_at_depth(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        walltime in walltime_strategy(),
        seed in any::<u64>(),
    ) {
        let scenario = scenario_of(strategy, seed, &plan, walltime);
        assert_no_job_lost(&workload, &scenario, &plan);
        assert_caps_hold(&workload, &scenario, &plan);
    }
}
