//! Differential oracle for the executor's shared workloads: a worker builds
//! a cell's workload once per replay key (workload entry, load, replica)
//! and reuses it for every cell sharing that key. Each cell must still
//! equal a simulation of a workload built for that cell alone, at any
//! thread count.

use hpcqc_core::observer::SimObserver;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_gen::GeneratorSpec;
use hpcqc_sched::PolicySpec;
use hpcqc_sweep::result::WaitShares;
use hpcqc_sweep::{Executor, Grid, WorkloadSpec};
use hpcqc_trace::AttributionObserver;

/// Two generated workloads × two positive loads (each overrides the
/// generator's rate) × 3 replicas, under 2 strategies × 2 policies: 48
/// cells, 12 replay keys, each key shared by 4 cells.
fn grid() -> Grid {
    let generated = |max_jobs| WorkloadSpec::Generated {
        spec: GeneratorSpec::dev_facility(),
        max_jobs,
    };
    Grid::builder()
        .strategies(vec![Strategy::CoSchedule, Strategy::Vqpu { vqpus: 2 }])
        .policies(vec![PolicySpec::fcfs(), PolicySpec::easy()])
        .node_counts(vec![32])
        .workloads(vec![generated(8), generated(12)])
        .loads_per_hour(vec![20.0, 90.0])
        .replicas(3)
        .base_seed(11)
        .build()
}

#[test]
fn every_cell_matches_a_workload_built_for_it_alone() {
    let grid = grid();
    let expected: Vec<(String, WaitShares)> = grid
        .cells()
        .map(|cell| {
            let workload = grid
                .workload_of(&cell)
                .build(cell.load_per_hour, cell.replica_seed);
            let mut attributor = AttributionObserver::new();
            let mut extras: Vec<&mut dyn SimObserver> = vec![&mut attributor];
            let outcome = FacilitySim::run_observed(&cell.scenario(), &workload, &mut extras)
                .expect("reference cell runs");
            let shares = WaitShares {
                qpu_frac: attributor.qpu_contention_frac(),
                shadow_frac: attributor.shadow_frac(),
                fault_frac: attributor.fault_recovery_frac(),
            };
            (
                serde_json::to_string(&outcome).expect("outcome serializes"),
                shares,
            )
        })
        .collect();
    for threads in [1, 2, 3] {
        let swept = Executor::new(threads)
            .run_sim_with(&grid, true, |_, _| {})
            .expect("sweep runs");
        assert_eq!(swept.len(), expected.len());
        for (result, (outcome, shares)) in swept.results().iter().zip(&expected) {
            let index = result.cell.index;
            assert_eq!(
                &serde_json::to_string(&result.outcome).expect("outcome serializes"),
                outcome,
                "cell {index} at {threads} threads"
            );
            assert_eq!(
                result.shares.as_ref(),
                Some(shares),
                "cell {index} at {threads} threads"
            );
        }
    }
}
