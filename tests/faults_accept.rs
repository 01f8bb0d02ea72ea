//! Acceptance test for the committed dependability grid
//! (`examples/grids/faults.json`): under the committed fault intensity
//! (device outages + calibration drift + 5% transient kernel errors),
//! recovery rescues every job, fault-recovery wait is attributed, and at
//! least one strategy×route combination degrades *gracefully* — its
//! hybrid-turnaround slowdown is at most half the worst combination's.

use hpcqc::prelude::*;

fn committed_grid() -> Grid {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/grids/faults.json");
    let text = std::fs::read_to_string(path).expect("committed grid exists");
    let grid: Grid = serde_json::from_str(&text).expect("committed grid parses");
    grid.validate().expect("committed grid is valid");
    grid
}

/// One (strategy, fleet) combination's clean and faulted turnaround.
#[derive(Debug, Default, Clone, Copy)]
struct Combo {
    clean: f64,
    faulted: f64,
}

#[test]
fn committed_fault_grid_degrades_gracefully() {
    let grid = committed_grid();
    assert!(
        grid.faults.is_some(),
        "the committed grid must carry a faults axis"
    );
    let result = Executor::new(0)
        .run_sim_with(&grid, true, |_, _| {})
        .expect("committed grid sweeps");

    let mut combos: std::collections::BTreeMap<String, Combo> = std::collections::BTreeMap::new();
    let mut fault_share_seen = false;
    for cell_result in result.results() {
        let cell = &cell_result.cell;
        let outcome = &cell_result.outcome;
        let plan = cell.faults.as_ref().expect("faults axis fills every cell");
        let shares = cell_result.shares.expect("attributed sweep has shares");

        // Recovery rescues every job: no cell loses work outright.
        assert_eq!(
            outcome.stats.failed_count(),
            0,
            "cell {} ({}, plan {}) failed jobs",
            cell.index,
            cell.strategy,
            plan.label()
        );

        let combo = format!(
            "{}/{}",
            cell.strategy,
            cell.fleet.as_ref().map_or("-", |f| f.name.as_str())
        );
        let turnaround = outcome.stats.hybrid_only().mean_turnaround_secs();
        let entry = combos.entry(combo).or_default();
        if plan.is_inert() {
            assert_eq!(
                shares.fault_frac, 0.0,
                "inert cells must book zero fault-recovery wait"
            );
            entry.clean = turnaround;
        } else {
            fault_share_seen |= shares.fault_frac > 0.0;
            entry.faulted = turnaround;
        }
    }
    assert!(
        fault_share_seen,
        "some faulted cell must attribute fault-recovery wait"
    );

    // Graceful degradation: the best combination's relative hybrid
    // slowdown is at most half the worst combination's.
    let drops: Vec<(String, f64)> = combos
        .into_iter()
        .map(|(name, combo)| {
            assert!(combo.clean > 0.0, "{name}: missing clean baseline");
            assert!(combo.faulted > 0.0, "{name}: missing faulted cell");
            (name, (combo.faulted - combo.clean) / combo.clean)
        })
        .collect();
    let worst = drops
        .iter()
        .map(|(_, d)| *d)
        .fold(f64::NEG_INFINITY, f64::max);
    let best = drops.iter().map(|(_, d)| *d).fold(f64::INFINITY, f64::min);
    assert!(
        worst > 0.0,
        "the committed intensity must actually degrade something: {drops:?}"
    );
    assert!(
        best <= 0.5 * worst,
        "no combination degrades gracefully (best {best:.4}, worst {worst:.4}): {drops:?}"
    );
}

#[test]
fn committed_fault_grid_inert_cells_match_faultless_grid() {
    // Stripping the faults axis and re-running must reproduce the inert
    // cells byte-for-byte: the axis machinery itself perturbs nothing.
    let grid = committed_grid();
    let mut faultless = grid.clone();
    faultless.faults = None;
    let with_axis = Executor::new(0).run_sim(&grid).expect("faulted grid runs");
    let without = Executor::new(0)
        .run_sim(&faultless)
        .expect("faultless grid runs");
    let inert: Vec<&CellResult> = with_axis
        .results()
        .iter()
        .filter(|r| r.cell.faults.as_ref().is_some_and(|p| p.is_inert()))
        .collect();
    assert_eq!(inert.len(), without.results().len());
    for (a, b) in inert.iter().zip(without.results()) {
        assert_eq!(
            serde_json::to_string(&a.outcome).unwrap(),
            serde_json::to_string(&b.outcome).unwrap(),
            "inert cell {} must match its faultless twin {}",
            a.cell.index,
            b.cell.index
        );
    }
}
