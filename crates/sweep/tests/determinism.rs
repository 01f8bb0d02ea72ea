//! The sweep engine's core guarantee: the same grid and base seed produce
//! **byte-identical** aggregated output at any thread count. Seeds are
//! pure functions of `(base_seed, cell_index)` and results are
//! reassembled in cell order, so parallelism changes only wall-clock time.

use hpcqc_core::scenario::WalltimePolicy;
use hpcqc_core::strategy::Strategy;
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_sweep::{AccessSpec, Executor, Grid, WorkloadSpec};

fn campaign_grid() -> Grid {
    Grid::builder()
        .base_seed(42)
        .replicas(2)
        .strategies(vec![Strategy::CoSchedule, Strategy::Vqpu { vqpus: 4 }])
        .policies(vec![PolicySpec::fcfs(), PolicySpec::easy()])
        .technologies(vec![Technology::Superconducting, Technology::NeutralAtom])
        .loads_per_hour(vec![4.0])
        .workload(WorkloadSpec::LoadedFacility {
            background: 8,
            bg_nodes_lo: 2,
            bg_nodes_hi: 6,
            bg_mean_secs: 900.0,
            hybrid_jobs: 2,
            hybrid_nodes: 4,
            iterations: 2,
            classical_secs: 120,
            shots: 500,
            first_submit_secs: 300,
            stagger_secs: 300,
            hybrid_walltime_hours: 24,
            bg_walltime_margin: None,
        })
        .build()
}

#[test]
fn csv_byte_identical_at_1_4_and_16_threads() {
    let grid = campaign_grid();
    assert_eq!(
        grid.len(),
        16,
        "2 strategies × 2 policies × 2 techs × 2 replicas"
    );
    let reference = Executor::new(1)
        .run_sim(&grid)
        .expect("sweep runs")
        .to_csv();
    assert_eq!(reference.lines().count(), 1 + grid.len());
    for threads in [4, 16] {
        let parallel = Executor::new(threads)
            .run_sim(&grid)
            .expect("sweep runs")
            .to_csv();
        assert_eq!(
            reference, parallel,
            "CSV must be byte-identical at {threads} threads"
        );
    }
}

#[test]
fn summary_json_and_markdown_are_thread_invariant() {
    let grid = campaign_grid();
    let single = Executor::new(1).run_sim(&grid).expect("sweep runs");
    let pooled = Executor::new(16).run_sim(&grid).expect("sweep runs");
    assert_eq!(single.summary().to_csv(), pooled.summary().to_csv());
    assert_eq!(single.to_json(), pooled.to_json());
    assert_eq!(single.to_markdown(), pooled.to_markdown());
}

#[test]
fn access_and_walltime_axes_stay_deterministic_too() {
    // A wider grid exercising every axis the engine exposes.
    let grid = Grid::builder()
        .base_seed(7)
        .strategies(vec![Strategy::Workflow])
        .access(vec![AccessSpec::OnPrem, AccessSpec::Cloud])
        .walltime(vec![
            WalltimePolicy::Advisory,
            WalltimePolicy::Kill { max_requeues: 1 },
        ])
        .workload(WorkloadSpec::listing1())
        .build();
    let a = Executor::new(1)
        .run_sim(&grid)
        .expect("sweep runs")
        .to_csv();
    let b = Executor::new(4)
        .run_sim(&grid)
        .expect("sweep runs")
        .to_csv();
    assert_eq!(a, b);
}
