//! Property tests of the dependability layer: for arbitrary small hybrid
//! workloads under *arbitrary* fault plans (outages, drift, transient
//! kernel errors, node failures — with arbitrary recovery knobs), the
//! simulator never loses a job (every job finalizes exactly once, as
//! completed or failed), never spends more retries or requeues than the
//! plan's caps allow, and stays byte-deterministic for a fixed seed.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::{DeviceFaults, DriftModel, FaultPlan, NodeFaults, RecoverySpec};
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
/// finalizations by name.
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
        ),
        1..7,
    )
    .prop_map(|specs| {
        Workload::from_jobs(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (submit, nodes, phases))| {
                    JobSpec::builder(format!("j{i}"))
                        .user(format!("u{}", i % 3))
                        .submit(SimTime::from_secs(submit))
                        .nodes(nodes)
                        .walltime(SimDuration::from_hours(8))
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

/// Arbitrary fault plans: each process is independently present or
/// absent, with rates aggressive enough to fire on short workloads but
/// bounded so runs terminate quickly.
fn plan_strategy() -> impl PropStrategy<Value = FaultPlan> {
    // Nested tuples: the vendored proptest implements `Strategy` for
    // tuples only up to arity six.
    (
        (
            maybe((1_800f64..28_800.0, 60f64..900.0)), // outage mtbf / repair
            maybe((1e-6f64..1e-4, 0.2f64..1.0)),       // drift per-shot / threshold
            0.0f64..0.3,                               // transient kernel error rate
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
            |((outage, drift, error_rate), (retries, backoff, failover, requeues, node))| {
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
                let mut plan = FaultPlan::named("prop").device(device).recovery(
                    RecoverySpec::new()
                        .max_kernel_retries(retries)
                        .retry_backoff_secs(backoff)
                        .failover(failover)
                        .max_requeues(requeues),
                );
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

fn scenario_of(strategy: Strategy, seed: u64, plan: &FaultPlan) -> Scenario {
    Scenario::builder()
        .classical_nodes(NODES)
        .device(Technology::Superconducting)
        .strategy(strategy)
        .seed(seed)
        .faults(plan.clone())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No job is ever lost: under arbitrary fault schedules every job
    /// finalizes exactly once — completed, or failed after its budgets
    /// ran out — and the outcome records all of them.
    #[test]
    fn no_job_lost_under_arbitrary_faults(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        seed in any::<u64>(),
    ) {
        let scenario = scenario_of(strategy, seed, &plan);
        let mut ledger = FaultLedger::default();
        let outcome = FacilitySim::run_observed(&scenario, &workload, &mut [&mut ledger])
            .expect("valid scenario");
        prop_assert_eq!(
            outcome.stats.len(),
            workload.len(),
            "lost jobs under {} with {:?}",
            strategy,
            plan
        );
        prop_assert_eq!(ledger.finalized.len(), workload.len());
        for (name, count) in &ledger.finalized {
            prop_assert_eq!(*count, 1, "{} finalized {} times", name, count);
        }
    }

    /// Recovery budgets are hard caps: no retry attempt ever exceeds the
    /// plan's kernel-retry cap, and no job restarts more often than the
    /// recovery policy's requeue budget.
    #[test]
    fn retries_and_requeues_never_exceed_caps(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        seed in any::<u64>(),
    ) {
        let scenario = scenario_of(strategy, seed, &plan);
        let mut ledger = FaultLedger::default();
        FacilitySim::run_observed(&scenario, &workload, &mut [&mut ledger])
            .expect("valid scenario");
        let recovery = plan.recovery_or_default();
        prop_assert!(
            ledger.max_retry_attempt <= recovery.kernel_retry_cap(),
            "retry attempt {} exceeds cap {}",
            ledger.max_retry_attempt,
            recovery.kernel_retry_cap()
        );
        // Kernel-exhaustion requeues and node-failure requeues share the
        // per-job counter and the recovery policy's one budget.
        let budget = recovery.requeue_budget();
        for (job, restarts) in &ledger.restarts {
            prop_assert!(
                *restarts <= budget,
                "job {} restarted {} times against budget {}",
                job,
                restarts,
                budget
            );
        }
    }

    /// Fault injection keeps full-pipeline determinism: the same seed
    /// replays the same faults and produces a byte-identical outcome.
    #[test]
    fn faulted_runs_are_byte_identical(
        workload in workload_strategy(),
        plan in plan_strategy(),
        strategy in strategy_strategy(),
        seed in any::<u64>(),
    ) {
        let scenario = scenario_of(strategy, seed, &plan);
        let a = FacilitySim::run(&scenario, &workload).expect("valid");
        let b = FacilitySim::run(&scenario, &workload).expect("valid");
        prop_assert_eq!(
            serde_json::to_string(&a).expect("outcome serializes"),
            serde_json::to_string(&b).expect("outcome serializes")
        );
    }
}
