//! The committed `examples/grids/fleet.json` — the fleet axis' shipped
//! entry point — must stay loadable, valid and runnable, like every
//! other committed example grid. On top of that it is the acceptance
//! test for the routing layer: on the grid's QPU-contended cells, the
//! same heterogeneous fleet under `least-loaded` or `tech-affinity`
//! routing must measurably beat `pin-first` (the legacy bound-device
//! behaviour) on hybrid turnaround or idle-QPU time.

use hpcqc_core::outcome::Outcome;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_fleet::RouteSpec;
use hpcqc_sched::HoldReason;
use hpcqc_simcore::time::SimDuration;
use hpcqc_sweep::{Executor, Grid, SweepResult};
use hpcqc_trace::AttributionObserver;
use std::collections::BTreeMap;

fn load() -> Grid {
    let path = format!(
        "{}/../../examples/grids/fleet.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let grid: Grid = serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    grid.validate().unwrap_or_else(|e| panic!("{path}: {e}"));
    grid
}

fn run() -> (Grid, SweepResult) {
    let grid = load();
    let result = Executor::new(2).run_sim(&grid).expect("fleet grid runs");
    (grid, result)
}

/// QPU-idle seconds inside the duty window (t=0 to the last hybrid-job
/// completion) — idle time after the campaign's final kernel is not
/// waste any router can recover.
fn idle_qpu_secs(outcome: &Outcome) -> f64 {
    let window = outcome.stats.hybrid_only().makespan().as_secs_f64();
    let busy: f64 = outcome.devices.iter().map(|d| d.busy_seconds).sum();
    (window * outcome.devices.len() as f64 - busy).max(0.0)
}

#[test]
fn fleet_grid_covers_compositions_and_routes() {
    let (grid, result) = run();
    // 2 strategies × 3 fleet compositions.
    assert_eq!(grid.len(), 6);
    assert_eq!(result.len(), 6);
    let csv = result.to_csv();
    for label in [
        "hetero-pin/pin-first",
        "hetero-least/least-loaded",
        "hetero-affinity/tech-affinity",
    ] {
        assert!(csv.contains(label), "fleet `{label}` missing from:\n{csv}");
    }
    for cell in result.results() {
        // Device labels flow through to the outcome summaries.
        let names: Vec<&str> = cell
            .outcome
            .devices
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["helios-sc", "ares-ion"],
            "cell {}",
            cell.cell.index
        );
        assert_eq!(
            cell.outcome.stats.failed_count(),
            0,
            "cell {} failed jobs",
            cell.cell.index
        );
        assert!(cell.outcome.makespan.as_secs_f64() > 0.0);
    }
}

#[test]
fn smart_routing_beats_pin_first_under_contention() {
    let (_, result) = run();
    let outcome_of = |strategy: Strategy, route: RouteSpec| {
        &result
            .find(|c| c.strategy == strategy && c.fleet.as_ref().is_some_and(|f| f.route == route))
            .unwrap_or_else(|| panic!("grid has a {strategy} × {route:?} cell"))
            .outcome
    };
    let mut improved = false;
    for strategy in [Strategy::CoSchedule, Strategy::Workflow] {
        let pin = outcome_of(strategy, RouteSpec::PinFirst);
        let pin_turnaround = pin.stats.hybrid_only().mean_turnaround_secs();
        let pin_idle = idle_qpu_secs(pin);
        for route in [RouteSpec::LeastLoaded, RouteSpec::TechAffinity] {
            let smart = outcome_of(strategy, route);
            let turnaround = smart.stats.hybrid_only().mean_turnaround_secs();
            let idle = idle_qpu_secs(smart);
            // Common random numbers: same workload, same seed — only the
            // routing decision differs.
            if turnaround < 0.95 * pin_turnaround || idle < 0.90 * pin_idle {
                improved = true;
            }
            println!(
                "{strategy} {route:?}: turnaround {turnaround:.0}s (pin {pin_turnaround:.0}s), \
                 idle {idle:.0}s (pin {pin_idle:.0}s)"
            );
        }
    }
    assert!(
        improved,
        "least-loaded or tech-affinity must measurably cut hybrid turnaround \
         (≥5%) or idle-QPU time (≥10%) versus pin-first on at least one cell"
    );
}

/// Runs one grid cell with an [`AttributionObserver`] attached and folds
/// the hybrid jobs' ledgers into per-cause wait totals.
fn hybrid_causes(
    grid: &Grid,
    strategy: Strategy,
    route: RouteSpec,
) -> BTreeMap<HoldReason, SimDuration> {
    let cell = grid
        .cells()
        .find(|c| c.strategy == strategy && c.fleet.as_ref().is_some_and(|f| f.route == route))
        .unwrap_or_else(|| panic!("grid has a {strategy} × {route:?} cell"));
    let workload = grid.workload.build(cell.load_per_hour, cell.replica_seed);
    let mut attribution = AttributionObserver::new();
    FacilitySim::run_observed(&cell.scenario(), &workload, &mut [&mut attribution])
        .expect("fleet cell runs");
    let mut totals = BTreeMap::new();
    for (_, ledger) in attribution.ledgers().filter(|(_, l)| l.hybrid) {
        for (cause, wait) in ledger.cause_totals() {
            *totals.entry(cause).or_insert(SimDuration::ZERO) += wait;
        }
    }
    totals
}

fn share(totals: &BTreeMap<HoldReason, SimDuration>, cause: HoldReason) -> f64 {
    let total: f64 = totals.values().map(|d| d.as_secs_f64()).sum();
    totals.get(&cause).map_or(0.0, |d| d.as_secs_f64()) / total.max(f64::MIN_POSITIVE)
}

/// The attribution layer must *explain* the routing result above: under
/// `pin-first` the co-scheduled hybrid jobs pay their queue wait mostly
/// to QPU-token contention (the dominant cause), and `tech-affinity`
/// routing shrinks that share. Workflow-mode decoupling (releasing the
/// QPU between phases) shrinks it further still — the paper's core
/// argument, now visible in the ledger.
#[test]
fn attribution_explains_pin_first_qpu_contention() {
    let grid = load();
    let pin = hybrid_causes(&grid, Strategy::CoSchedule, RouteSpec::PinFirst);
    let affinity = hybrid_causes(&grid, Strategy::CoSchedule, RouteSpec::TechAffinity);

    let (&top_cause, _) = pin
        .iter()
        .max_by(|a, b| a.1.cmp(b.1))
        .expect("pin-first hybrid jobs waited");
    assert_eq!(
        top_cause,
        HoldReason::InsufficientGres,
        "pin-first: QPU-token contention must be the top hybrid wait cause, got {pin:?}"
    );

    let pin_share = share(&pin, HoldReason::InsufficientGres);
    let affinity_share = share(&affinity, HoldReason::InsufficientGres);
    assert!(
        affinity_share < pin_share,
        "tech-affinity must shrink the QPU-contention share: \
         pin-first {pin_share:.3} vs tech-affinity {affinity_share:.3}"
    );

    // Decoupled submission releases the token between phases, so the
    // same workload pays a far smaller QPU-contention share.
    let workflow = hybrid_causes(&grid, Strategy::Workflow, RouteSpec::PinFirst);
    let workflow_share = share(&workflow, HoldReason::InsufficientGres);
    assert!(
        workflow_share < pin_share,
        "workflow decoupling must shrink the QPU-contention share: \
         co-schedule {pin_share:.3} vs workflow {workflow_share:.3}"
    );
}

/// Attributed sweeps are as deterministic as plain ones: same seed,
/// any thread count — byte-identical CSV including the share columns,
/// and byte-identical blame tables.
#[test]
fn attributed_sweep_is_byte_identical() {
    let grid = load();
    let a = Executor::new(1)
        .run_sim_with(&grid, true, |_, _| {})
        .expect("fleet grid runs");
    let b = Executor::new(4)
        .run_sim_with(&grid, true, |_, _| {})
        .expect("fleet grid runs");
    let csv = a.to_csv();
    assert_eq!(csv, b.to_csv());
    assert!(csv.contains("wait_qpu_frac,wait_shadow_frac"));
    for result in a.results() {
        assert!(result.shares.is_some(), "cell {}", result.cell.index);
    }
    // The per-cause blame table is byte-stable too.
    let causes_a = hybrid_causes(&grid, Strategy::CoSchedule, RouteSpec::PinFirst);
    let causes_b = hybrid_causes(&grid, Strategy::CoSchedule, RouteSpec::PinFirst);
    assert_eq!(causes_a, causes_b);
}
