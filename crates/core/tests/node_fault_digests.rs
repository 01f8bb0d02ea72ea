//! Golden evidence that node failures kept their results when they moved
//! into the fault plan.
//!
//! Node failures used to have a second, scenario-level description with
//! its own requeue budget. Before it was retired, each case below ran
//! through it on 120 generated jobs, and the FNV-1a digest of the
//! serialized [`Outcome`] was recorded. The same cases now state the
//! profile as a [`FaultPlan`] (`node` for MTBF and repair,
//! `recovery.max_requeues` for the budget) and must reproduce every
//! digest: the five strategies, each under an exponential profile with
//! walltime kills and under a tight constant profile. Every recorded
//! digest differs from its failure-free run, so each case exercises the
//! node-fault requeue path. When [`Outcome`] later lost its `gantt`
//! field, each digest was re-derived from the same run's JSON with the
//! `"gantt":null,` token removed, and nothing else.
//!
//! If a change is *supposed* to move these results, run
//!
//! ```text
//! cargo test -p hpcqc-core --test node_fault_digests
//! ```
//!
//! paste the table the failure prints over `GOLDEN`, and say in the
//! change log which digests moved and why.

use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::{Scenario, WalltimePolicy};
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::{FaultPlan, NodeFaults, RecoverySpec};
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::dist::Dist;
use hpcqc_workload::campaign::Workload;

/// `(strategy, profile, digest)` for every strategy × profile.
const GOLDEN: [(&str, &str, &str); 10] = [
    ("co-schedule", "exp-kill", "b237762e8194f427"),
    ("co-schedule", "tight-const", "9b349180e769ca64"),
    ("workflow", "exp-kill", "07f27e9f00b7805b"),
    ("workflow", "tight-const", "cd15973fb2477de5"),
    ("vqpu(x4)", "exp-kill", "e0589bddb9d7ad4a"),
    ("vqpu(x4)", "tight-const", "b6ce6021dd960866"),
    ("malleable(min=1)", "exp-kill", "b0f7b09502d49ed9"),
    ("malleable(min=1)", "tight-const", "e9cc72bbab1cb760"),
    ("adaptive(x4)", "exp-kill", "e0589bddb9d7ad4a"),
    ("adaptive(x4)", "tight-const", "b6ce6021dd960866"),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(outcome: &Outcome) -> String {
    let json = serde_json::to_string(outcome).expect("outcomes serialize");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// The scenario of one case: 64 nodes, two superconducting devices.
///
/// `exp-kill` is exponential failures (MTBF 900 s) with a log-normal
/// ~30 min repair clamped to 5 min–4 h and 3 requeues, under walltime
/// kills with one requeue. `tight-const` is a failure every 600 s, a
/// 1,200 s repair and a single requeue.
fn scenario(strategy: Strategy, profile: &str) -> Scenario {
    let mut sc = Scenario::builder()
        .classical_nodes(64)
        .devices(vec![
            Technology::Superconducting,
            Technology::Superconducting,
        ])
        .strategy(strategy)
        .seed(7)
        .build();
    let (node, max_requeues) = match profile {
        "exp-kill" => {
            sc.walltime_policy = WalltimePolicy::Kill { max_requeues: 1 };
            let node = NodeFaults {
                mtbf: Dist::exponential(900.0),
                repair: Dist::log_normal_mean_cv(1_800.0, 0.5).clamped(300.0, 14_400.0),
            };
            (node, 3)
        }
        "tight-const" => (
            NodeFaults {
                mtbf: Dist::constant(600.0),
                repair: Dist::constant(1_200.0),
            },
            1,
        ),
        other => panic!("unknown profile `{other}`"),
    };
    sc.faults = Some(
        FaultPlan::named(profile)
            .node(node)
            .recovery(RecoverySpec::new().max_requeues(max_requeues)),
    );
    sc
}

#[test]
fn node_fault_plans_reproduce_recorded_outcomes() {
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: 120 };
    // Tight margins so walltime kills and node-fault requeues interleave.
    for class in &mut spec.classes {
        class.walltime_margin = 1.0;
    }
    let workload = Workload::from_jobs(spec.stream(11).collect());
    let strategies = Strategy::extended_set();
    let mut table = String::new();
    let mut moved = Vec::new();
    for (strategy, profile, want) in GOLDEN {
        let strat = *strategies
            .iter()
            .find(|s| s.to_string() == strategy)
            .expect("golden strategy is in the extended set");
        let outcome = FacilitySim::run(&scenario(strat, profile), &workload).unwrap();
        assert_eq!(outcome.stats.len(), workload.len(), "{strategy} {profile}");
        let got = digest(&outcome);
        table.push_str(&format!(
            "    (\"{strategy}\", \"{profile}\", \"{got}\"),\n"
        ));
        if got != want {
            moved.push(format!("{strategy} {profile}"));
        }
    }
    assert!(
        moved.is_empty(),
        "outcome digests moved for {moved:?}; if intended, replace GOLDEN with:\n{table}"
    );
}
