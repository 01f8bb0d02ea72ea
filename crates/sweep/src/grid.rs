//! The declarative parameter grid: a cartesian product of scenario axes.
//!
//! A [`Grid`] is the paper's experimental method as data: one seeded
//! workload replayed across every combination of strategy, policy, machine
//! size, quantum technology, access mode, walltime enforcement and arrival
//! load, replicated over `replicas` seeds. Grids serialize to JSON so a
//! whole campaign is a reviewable file (see `examples/grids/`, and
//! `examples/paper/` for the paper's figures and ablations).
//!
//! ## Cell order and seeding
//!
//! Cells are numbered row-major with the axes nested in declaration order
//! (strategies slowest, replicas fastest):
//!
//! ```text
//! index = (((((((((strategy · P + policy) · N + nodes) · T + tech) · F + fleet)
//!           · X + faults) · K + workload) · A + access) · W + walltime) · L + load)
//!           · R + replica
//! ```
//!
//! The fleet, faults and workload axes have length 1 when
//! [`Grid::fleets`] / [`Grid::faults`] / [`Grid::workloads`] are `None`,
//! so grids without them keep their historical cell indices (and golden
//! CSVs).
//!
//! Two seeds are derived per cell, both purely from `(base_seed, indices)`
//! so they are identical at any thread count:
//!
//! * [`Cell::replica_seed`] — `base_seed + replica`. Shared by every cell
//!   of the same replica, so all points being *compared* (strategies,
//!   policies, …) replay the identical workload: the common-random-numbers
//!   discipline the paper's comparisons rely on. Replica 0 uses `base_seed`
//!   itself, so a single-replica sweep reproduces a hand-rolled run.
//! * [`Cell::cell_seed`] — an injective hash of `(base_seed, index)` for
//!   cell-local randomness that must not collide between cells.

use crate::spec::WorkloadSpec;
use hpcqc_core::scenario::{Scenario, WalltimePolicy};
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::FaultPlan;
use hpcqc_fleet::FleetSpec;
use hpcqc_qpu::remote::AccessMode;
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Symbolic access-model axis value.
///
/// The concrete [`AccessMode`] depends on the cell's technology (cloud
/// profiles are per-technology), so the grid stores the *kind* of access
/// path and resolves it per cell via [`AccessSpec::to_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AccessSpec {
    /// No access-model overhead (the simulator's negligible on-prem path).
    #[default]
    OnPrem,
    /// Integrated on-prem RPC path (~200 µs submit latency).
    Integrated,
    /// Vendor-cloud REST path (submit RTT + vendor queue + polling).
    Cloud,
}

impl AccessSpec {
    /// Resolves the symbolic axis value to a concrete access mode for the
    /// given technology (`None` = no modelled overhead).
    pub fn to_mode(self, technology: Technology) -> Option<AccessMode> {
        match self {
            AccessSpec::OnPrem => None,
            AccessSpec::Integrated => Some(AccessMode::integrated()),
            AccessSpec::Cloud => Some(AccessMode::cloud(technology)),
        }
    }

    /// Short label for report tables.
    pub fn name(self) -> &'static str {
        match self {
            AccessSpec::OnPrem => "on-prem",
            AccessSpec::Integrated => "integrated",
            AccessSpec::Cloud => "cloud",
        }
    }
}

impl fmt::Display for AccessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Formats a walltime policy for table cells (`advisory` / `kill(n)`).
pub fn fmt_walltime(policy: WalltimePolicy) -> String {
    policy.to_string()
}

/// A declarative cartesian product of scenario axes plus the workload
/// they all replay.
///
/// Build one with [`Grid::builder`] or deserialize one from JSON. Every
/// axis must be non-empty (the builder and [`Grid::validate`] enforce it).
///
/// # Examples
///
/// ```
/// use hpcqc_sweep::Grid;
/// use hpcqc_core::Strategy;
/// use hpcqc_sched::PolicySpec;
///
/// let grid = Grid::builder()
///     .strategies(Strategy::representative_set())
///     .policies(vec![PolicySpec::fcfs(), PolicySpec::easy()])
///     .loads_per_hour(vec![3.0, 9.0])
///     .base_seed(42)
///     .build();
/// assert_eq!(grid.len(), 4 * 2 * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// Root seed; replica `r` runs at seed `base_seed + r`.
    pub base_seed: u64,
    /// Replications per parameter combination (≥ 1).
    pub replicas: u32,
    /// Integration-strategy axis.
    pub strategies: Vec<Strategy>,
    /// Batch-scheduler policy axis.
    pub policies: Vec<PolicySpec>,
    /// Classical partition-size axis.
    pub node_counts: Vec<u32>,
    /// Quantum-technology axis (one device per cell).
    pub technologies: Vec<Technology>,
    /// Optional fleet-composition axis. `None` keeps the legacy
    /// single-device path and historical cell indices (the axis has
    /// length 1). When set, each cell carries one composition, which
    /// supersedes the cell's single `technology` device.
    pub fleets: Option<Vec<FleetSpec>>,
    /// Optional dependability axis. `None` keeps fault-free simulation
    /// and historical cell indices (the axis has length 1). When set,
    /// each cell carries one fault plan; an inert plan (e.g.
    /// [`FaultPlan::none`]) in the list gives the fault-free baseline
    /// within the same sweep.
    pub faults: Option<Vec<FaultPlan>>,
    /// Access-model axis.
    pub access: Vec<AccessSpec>,
    /// Walltime-enforcement axis.
    pub walltime: Vec<WalltimePolicy>,
    /// Background arrival-load axis (jobs per hour fed to the workload).
    pub loads_per_hour: Vec<f64>,
    /// The workload every cell replays when there is no `workloads` axis.
    pub workload: WorkloadSpec,
    /// Optional workload axis. `None` keeps the single `workload` and
    /// historical cell indices (the axis has length 1). When set, each
    /// cell replays one entry, which supersedes `workload`.
    pub workloads: Option<Vec<WorkloadSpec>>,
}

impl Grid {
    /// Starts building a grid (single-cell defaults: co-scheduling, EASY
    /// backfill, 16 nodes, superconducting, on-prem, advisory walltimes,
    /// one replica of the Listing-1 workload).
    pub fn builder() -> GridBuilder {
        GridBuilder {
            inner: Grid::default(),
        }
    }

    /// Number of cells: the product of all axis lengths times `replicas`.
    #[allow(clippy::len_without_is_empty)] // a valid grid is never empty
    pub fn len(&self) -> usize {
        self.axis_lengths().iter().product()
    }

    fn axis_lengths(&self) -> [usize; 11] {
        [
            self.strategies.len(),
            self.policies.len(),
            self.node_counts.len(),
            self.technologies.len(),
            self.fleets.as_ref().map_or(1, Vec::len),
            self.faults.as_ref().map_or(1, Vec::len),
            self.workloads.as_ref().map_or(1, Vec::len),
            self.access.len(),
            self.walltime.len(),
            self.loads_per_hour.len(),
            self.replicas as usize,
        ]
    }

    /// Checks a (possibly deserialized) grid for empty axes or an
    /// overflowing cell count.
    pub fn validate(&self) -> Result<(), String> {
        let names = [
            "strategies",
            "policies",
            "node_counts",
            "technologies",
            "fleets",
            "faults",
            "workloads",
            "access",
            "walltime",
            "loads_per_hour",
            "replicas",
        ];
        let mut cells = 1usize;
        for (len, name) in self.axis_lengths().iter().zip(names) {
            if *len == 0 {
                return Err(format!("grid axis `{name}` is empty"));
            }
            cells = cells
                .checked_mul(*len)
                .ok_or_else(|| "grid cell count overflows usize".to_string())?;
        }
        if self.node_counts.contains(&0) {
            return Err("grid axis `node_counts` contains 0 nodes".to_string());
        }
        for strategy in &self.strategies {
            strategy
                .validate()
                .map_err(|e| format!("grid axis `strategies`: {e}"))?;
        }
        // A deserialized grid can carry a structurally broken fleet
        // (duplicate device names, zero capacities, all devices down).
        if let Some(fleets) = &self.fleets {
            for fleet in fleets {
                fleet
                    .validate()
                    .map_err(|e| format!("grid axis `fleets`: {e}"))?;
            }
        }
        // A deserialized grid can carry a broken fault plan (negative
        // rates, mtbf without repair, …) that would panic inside
        // `ScenarioBuilder::faults` on a worker thread.
        if let Some(faults) = &self.faults {
            for plan in faults {
                plan.validate()
                    .map_err(|e| format!("grid axis `faults`: {e}"))?;
            }
        }
        // A deserialized grid can carry broken policy knobs (zero aging,
        // NaN weights, …) that would assert deep inside a worker thread.
        for policy in &self.policies {
            policy
                .validate()
                .map_err(|e| format!("grid axis `policies`: {e}"))?;
        }
        if self
            .loads_per_hour
            .iter()
            .any(|l| !l.is_finite() || *l < 0.0)
        {
            return Err(
                "grid axis `loads_per_hour` contains a negative or non-finite rate".to_string(),
            );
        }
        // A deserialized workload can carry a shape (inverted node range,
        // non-positive mean runtime, a generator spec its stream rejects
        // at the cell's load) that panics or wraps in a worker.
        self.workload
            .validate(&self.loads_per_hour)
            .map_err(|e| format!("grid `workload`: {e}"))?;
        for workload in self.workloads.iter().flatten() {
            workload
                .validate(&self.loads_per_hour)
                .map_err(|e| format!("grid axis `workloads`: {e}"))?;
        }
        // A loaded facility draws Poisson arrivals at the cell's load, and
        // a zero rate would assert deep inside a worker thread — reject it
        // here so the caller gets a graceful error instead of an abort.
        if self
            .replayed_workloads()
            .iter()
            .any(|w| matches!(w, WorkloadSpec::LoadedFacility { .. }))
            && self.loads_per_hour.contains(&0.0)
        {
            return Err(
                "grid axis `loads_per_hour` must be positive for a LoadedFacility workload"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// The workloads cells replay: the `workloads` axis when set, else
    /// the single `workload`.
    fn replayed_workloads(&self) -> &[WorkloadSpec] {
        self.workloads
            .as_deref()
            .unwrap_or(std::slice::from_ref(&self.workload))
    }

    /// The workload `cell` replays.
    ///
    /// # Panics
    ///
    /// Panics if `cell` does not belong to this grid.
    pub fn workload_of(&self, cell: &Cell) -> &WorkloadSpec {
        &self.replayed_workloads()[cell.workload.unwrap_or(0)]
    }

    /// The cell at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell(&self, index: usize) -> Cell {
        assert!(index < self.len(), "cell index {index} out of range");
        let mut rest = index;
        let [_, p, n, t, fl, fa, k, a, w, l, r] = self.axis_lengths();
        let replica = (rest % r) as u32;
        rest /= r;
        let load = rest % l;
        rest /= l;
        let wt = rest % w;
        rest /= w;
        let ac = rest % a;
        rest /= a;
        let workload = rest % k;
        rest /= k;
        let faults = rest % fa;
        rest /= fa;
        let fleet = rest % fl;
        rest /= fl;
        let tech = rest % t;
        rest /= t;
        let nodes = rest % n;
        rest /= n;
        let policy = rest % p;
        rest /= p;
        let strategy = rest;
        Cell {
            index,
            strategy: self.strategies[strategy],
            policy: self.policies[policy],
            nodes: self.node_counts[nodes],
            technology: self.technologies[tech],
            fleet: self.fleets.as_ref().map(|f| f[fleet].clone()),
            faults: self.faults.as_ref().map(|f| f[faults].clone()),
            workload: self.workloads.as_ref().map(|_| workload),
            access: self.access[ac],
            walltime: self.walltime[wt],
            load_per_hour: self.loads_per_hour[load],
            replica,
            replica_seed: replica_seed(self.base_seed, replica),
            cell_seed: cell_seed(self.base_seed, index),
        }
    }

    /// Iterates all cells in index order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.len()).map(|i| self.cell(i))
    }
}

impl Default for Grid {
    fn default() -> Self {
        Grid {
            base_seed: 1,
            replicas: 1,
            strategies: vec![Strategy::CoSchedule],
            policies: vec![PolicySpec::easy()],
            node_counts: vec![16],
            technologies: vec![Technology::Superconducting],
            fleets: None,
            faults: None,
            access: vec![AccessSpec::OnPrem],
            walltime: vec![WalltimePolicy::Advisory],
            loads_per_hour: vec![0.0],
            workload: WorkloadSpec::default(),
            workloads: None,
        }
    }
}

/// The workload seed for replica `r`: `base_seed + r`, so replica 0
/// reproduces a hand-rolled single run at `base_seed` exactly.
pub fn replica_seed(base_seed: u64, replica: u32) -> u64 {
    base_seed.wrapping_add(u64::from(replica))
}

/// A unique per-cell seed, injective in `index` for a fixed `base_seed`
/// (the underlying SplitMix64 finalizer is a bijection on `u64`).
pub fn cell_seed(base_seed: u64, index: usize) -> u64 {
    SimRng::seed_from(base_seed)
        .fork_indexed("sweep-cell", index as u64)
        .seed()
}

/// One point of the grid: concrete values for every axis plus its seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Position in the grid's row-major cell order.
    pub index: usize,
    /// Integration strategy.
    pub strategy: Strategy,
    /// Scheduler policy.
    pub policy: PolicySpec,
    /// Classical partition size.
    pub nodes: u32,
    /// Quantum technology (one device).
    pub technology: Technology,
    /// Fleet composition, when the grid has a fleet axis (supersedes
    /// `technology`).
    pub fleet: Option<FleetSpec>,
    /// Dependability plan, when the grid has a faults axis.
    pub faults: Option<FaultPlan>,
    /// Position in [`Grid::workloads`] of the workload this cell replays,
    /// when the grid has a workload axis (see [`Grid::workload_of`]).
    pub workload: Option<usize>,
    /// Access-model axis value.
    pub access: AccessSpec,
    /// Walltime-enforcement axis value.
    pub walltime: WalltimePolicy,
    /// Background arrival load, jobs per hour.
    pub load_per_hour: f64,
    /// Replica number within the parameter combination.
    pub replica: u32,
    /// Common-random-numbers seed shared across this replica's cells.
    pub replica_seed: u64,
    /// Injective per-cell seed for cell-local randomness.
    pub cell_seed: u64,
}

impl Cell {
    /// Builds the scenario this cell simulates (the workload comes from
    /// [`Grid::workload_of`]).
    pub fn scenario(&self) -> Scenario {
        let mut builder = Scenario::builder()
            .classical_nodes(self.nodes)
            .device(self.technology)
            .policy(self.policy)
            .strategy(self.strategy)
            .walltime_policy(self.walltime)
            .seed(self.replica_seed);
        if let Some(mode) = self.access.to_mode(self.technology) {
            builder = builder.access(mode);
        }
        if let Some(fleet) = &self.fleet {
            builder = builder.fleet(fleet.clone());
        }
        if let Some(faults) = &self.faults {
            builder = builder.faults(faults.clone());
        }
        builder.build()
    }
}

/// Builder for [`Grid`].
#[derive(Debug, Clone, Default)]
pub struct GridBuilder {
    inner: Grid,
}

impl GridBuilder {
    /// Sets the root seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.inner.base_seed = seed;
        self
    }

    /// Sets the replication count (clamped to ≥ 1).
    pub fn replicas(mut self, replicas: u32) -> Self {
        self.inner.replicas = replicas.max(1);
        self
    }

    /// Sets the strategy axis.
    pub fn strategies(mut self, strategies: Vec<Strategy>) -> Self {
        self.inner.strategies = strategies;
        self
    }

    /// Sets the policy axis.
    pub fn policies(mut self, policies: Vec<PolicySpec>) -> Self {
        self.inner.policies = policies;
        self
    }

    /// Sets the node-count axis.
    pub fn node_counts(mut self, node_counts: Vec<u32>) -> Self {
        self.inner.node_counts = node_counts;
        self
    }

    /// Sets the technology axis.
    pub fn technologies(mut self, technologies: Vec<Technology>) -> Self {
        self.inner.technologies = technologies;
        self
    }

    /// Sets the fleet-composition axis (each composition supersedes the
    /// cell's single-technology device).
    pub fn fleets(mut self, fleets: Vec<FleetSpec>) -> Self {
        self.inner.fleets = Some(fleets);
        self
    }

    /// Sets the dependability axis (each cell simulates under one fault
    /// plan; include [`FaultPlan::none`] for a fault-free baseline).
    pub fn faults(mut self, faults: Vec<FaultPlan>) -> Self {
        self.inner.faults = Some(faults);
        self
    }

    /// Sets the access-model axis.
    pub fn access(mut self, access: Vec<AccessSpec>) -> Self {
        self.inner.access = access;
        self
    }

    /// Sets the walltime-enforcement axis.
    pub fn walltime(mut self, walltime: Vec<WalltimePolicy>) -> Self {
        self.inner.walltime = walltime;
        self
    }

    /// Sets the arrival-load axis.
    pub fn loads_per_hour(mut self, loads: Vec<f64>) -> Self {
        self.inner.loads_per_hour = loads;
        self
    }

    /// Sets the workload specification.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.inner.workload = workload;
        self
    }

    /// Sets the workload axis (each cell replays one entry, superseding
    /// the single workload).
    pub fn workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.inner.workloads = Some(workloads);
        self
    }

    /// Finalizes the grid.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty (see [`Grid::validate`]).
    pub fn build(self) -> Grid {
        if let Err(e) = self.inner.validate() {
            panic!("invalid grid: {e}");
        }
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_one_cell() {
        let g = Grid::default();
        assert_eq!(g.len(), 1);
        let c = g.cell(0);
        assert_eq!(c.index, 0);
        assert_eq!(c.replica_seed, g.base_seed);
    }

    #[test]
    fn len_is_axis_product() {
        let g = Grid::builder()
            .strategies(Strategy::representative_set())
            .policies(vec![PolicySpec::fcfs(), PolicySpec::easy()])
            .technologies(vec![Technology::Superconducting, Technology::NeutralAtom])
            .loads_per_hour(vec![3.0, 6.0, 9.0])
            .replicas(2)
            .build();
        assert_eq!(g.len(), 4 * 2 * 2 * 3 * 2);
    }

    #[test]
    fn cell_order_replica_fastest_strategy_slowest() {
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .replicas(2)
            .build();
        assert_eq!(g.cell(0).replica, 0);
        assert_eq!(g.cell(1).replica, 1);
        assert_eq!(g.cell(0).strategy, Strategy::CoSchedule);
        assert_eq!(g.cell(2).strategy, Strategy::Workflow);
    }

    #[test]
    fn replica_zero_seed_is_base_seed() {
        assert_eq!(replica_seed(42, 0), 42);
        assert_eq!(replica_seed(42, 3), 45);
    }

    #[test]
    fn cell_seeds_unique_within_grid() {
        let g = Grid::builder()
            .strategies(Strategy::representative_set())
            .policies(vec![
                PolicySpec::fcfs(),
                PolicySpec::easy(),
                PolicySpec::conservative(),
            ])
            .replicas(4)
            .build();
        let seeds: std::collections::HashSet<u64> = g.cells().map(|c| c.cell_seed).collect();
        assert_eq!(seeds.len(), g.len());
    }

    #[test]
    fn scenario_reflects_cell() {
        let g = Grid::builder()
            .node_counts(vec![64])
            .technologies(vec![Technology::TrappedIon])
            .access(vec![AccessSpec::Cloud])
            .walltime(vec![WalltimePolicy::Kill { max_requeues: 1 }])
            .build();
        let s = g.cell(0).scenario();
        assert_eq!(s.classical_nodes, 64);
        assert_eq!(s.devices, vec![Technology::TrappedIon]);
        assert!(s.access.is_some());
        assert_eq!(s.walltime_policy, WalltimePolicy::Kill { max_requeues: 1 });
    }

    #[test]
    fn validate_rejects_zero_strategy_counts() {
        for zero in [
            Strategy::Vqpu { vqpus: 0 },
            Strategy::Adaptive { vqpus: 0 },
            Strategy::Malleable { min_nodes: 0 },
        ] {
            let g = Grid {
                strategies: vec![Strategy::Workflow, zero],
                ..Grid::default()
            };
            let err = g.validate().unwrap_err();
            assert!(err.starts_with("grid axis `strategies`"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_empty_axis() {
        let g = Grid {
            policies: vec![],
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("policies"));
        let g = Grid {
            node_counts: vec![0],
            ..Grid::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_policy_knobs() {
        let g = Grid {
            policies: vec![PolicySpec::priority_backfill(0.0)],
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("policies"));
        let g = Grid {
            policies: vec![PolicySpec::quantum_aware(f64::NAN)],
            ..Grid::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_loads() {
        // Zero load is fine for Listing1 (the axis is unused there)…
        let g = Grid {
            loads_per_hour: vec![0.0],
            ..Grid::default()
        };
        assert!(g.validate().is_ok());
        // …but not for a loaded facility, whose Poisson arrivals need a
        // positive rate.
        let loaded = WorkloadSpec::LoadedFacility {
            background: 4,
            bg_nodes_lo: 2,
            bg_nodes_hi: 4,
            bg_mean_secs: 600.0,
            hybrid_jobs: 1,
            hybrid_nodes: 2,
            iterations: 2,
            classical_secs: 60,
            shots: 100,
            first_submit_secs: 0,
            stagger_secs: 60,
            hybrid_walltime_hours: 8,
            bg_walltime_margin: None,
        };
        let g = Grid {
            loads_per_hour: vec![0.0],
            workload: loaded.clone(),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("positive"));
        let g = Grid {
            loads_per_hour: vec![4.0, f64::NAN],
            workload: loaded,
            ..Grid::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid grid")]
    fn builder_rejects_empty_axis() {
        let _ = Grid::builder().strategies(vec![]).build();
    }

    #[test]
    fn fleet_axis_multiplies_cells_and_reaches_scenarios() {
        use hpcqc_fleet::{FleetDevice, RouteSpec};
        let fleets = vec![
            FleetSpec::new("mono").device(FleetDevice::new("sc-a", Technology::Superconducting)),
            FleetSpec::new("hetero")
                .route(RouteSpec::LeastLoaded)
                .device(FleetDevice::new("sc-a", Technology::Superconducting))
                .device(FleetDevice::new("ion-a", Technology::TrappedIon)),
        ];
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .fleets(fleets)
            .build();
        assert_eq!(g.len(), 2 * 2);
        // Fleet is the faster axis: indices 0/1 are CoSchedule.
        assert_eq!(
            g.cell(0).fleet.as_ref().map(|f| f.name.as_str()),
            Some("mono")
        );
        assert_eq!(
            g.cell(1).fleet.as_ref().map(|f| f.name.as_str()),
            Some("hetero")
        );
        assert_eq!(g.cell(1).strategy, Strategy::CoSchedule);
        assert_eq!(g.cell(2).strategy, Strategy::Workflow);
        let s = g.cell(1).scenario();
        assert_eq!(s.device_count(), 2);
        assert_eq!(s.device_label(1), "ion-a");
    }

    #[test]
    fn fleetless_grid_keeps_legacy_cell_indices() {
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .access(vec![AccessSpec::OnPrem, AccessSpec::Cloud])
            .replicas(2)
            .build();
        // Same unwind as before the fleet axis existed: replica fastest,
        // then access, then strategy.
        let c = g.cell(5);
        assert_eq!(c.strategy, Strategy::Workflow);
        assert_eq!(c.access, AccessSpec::OnPrem);
        assert_eq!(c.replica, 1);
        assert!(c.fleet.is_none());
    }

    #[test]
    fn faults_axis_multiplies_cells_and_reaches_scenarios() {
        use hpcqc_faults::{DeviceFaults, RecoverySpec};
        let plans = vec![
            FaultPlan::none(),
            FaultPlan::named("flaky")
                .device(DeviceFaults::new().kernel_error_rate(0.05))
                .recovery(RecoverySpec::new().max_kernel_retries(4)),
        ];
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .faults(plans)
            .build();
        assert_eq!(g.len(), 2 * 2);
        // Faults is the faster axis: indices 0/1 are CoSchedule.
        assert_eq!(
            g.cell(0).faults.as_ref().map(|p| p.label().to_string()),
            Some(String::from("none"))
        );
        assert_eq!(
            g.cell(1).faults.as_ref().map(|p| p.label().to_string()),
            Some(String::from("flaky"))
        );
        assert_eq!(g.cell(1).strategy, Strategy::CoSchedule);
        assert_eq!(g.cell(2).strategy, Strategy::Workflow);
        let s = g.cell(1).scenario();
        let plan = s.faults.expect("scenario carries the cell's plan");
        assert_eq!(plan.label(), "flaky");
        assert!(!plan.is_inert());
        // The inert cell builds a scenario whose plan injects nothing.
        assert!(g.cell(0).scenario().faults.expect("plan set").is_inert());
    }

    #[test]
    fn faultless_grid_keeps_legacy_cell_indices() {
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .access(vec![AccessSpec::OnPrem, AccessSpec::Cloud])
            .replicas(2)
            .build();
        // Same unwind as before the faults axis existed.
        let c = g.cell(5);
        assert_eq!(c.strategy, Strategy::Workflow);
        assert_eq!(c.access, AccessSpec::OnPrem);
        assert_eq!(c.replica, 1);
        assert!(c.faults.is_none());
        assert!(c.scenario().faults.is_none());
    }

    #[test]
    fn validate_rejects_broken_fault_plan() {
        use hpcqc_faults::DeviceFaults;
        use hpcqc_simcore::Dist;
        // An outage process without a repair distribution is rejected.
        let broken =
            FaultPlan::named("broken").device(DeviceFaults::new().mtbf(Dist::exponential(3600.0)));
        let g = Grid {
            faults: Some(vec![broken]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("faults"));
        let g = Grid {
            faults: Some(vec![]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("faults"));
    }

    #[test]
    fn validate_rejects_broken_fleet() {
        use hpcqc_fleet::FleetDevice;
        let dup = FleetSpec::new("dup")
            .device(FleetDevice::new("a", Technology::Superconducting))
            .device(FleetDevice::new("a", Technology::TrappedIon));
        let g = Grid {
            fleets: Some(vec![dup]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("fleets"));
        let g = Grid {
            fleets: Some(vec![]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("fleets"));
    }

    /// A one-cell loaded-facility grid whose `LoadedFacility` fields are
    /// overridden by `fields` (JSON members, e.g. `"bg_mean_secs": 0`).
    fn loaded_grid_json(fields: &str) -> Grid {
        let json = format!(
            r#"{{"base_seed": 42, "replicas": 1, "strategies": ["CoSchedule"],
                "policies": ["EasyBackfill"], "node_counts": [32],
                "technologies": ["Superconducting"], "access": ["OnPrem"],
                "walltime": ["Advisory"], "loads_per_hour": [3],
                "workload": {{"LoadedFacility": {{
                    "background": 4, "hybrid_jobs": 1, "hybrid_nodes": 2,
                    "iterations": 2, "classical_secs": 60, "shots": 100,
                    "first_submit_secs": 0, "stagger_secs": 60,
                    "hybrid_walltime_hours": 8, {fields}}}}}}}"#
        );
        serde_json::from_str(&json).expect("grid parses")
    }

    #[test]
    fn validate_rejects_non_positive_background_mean() {
        // A zero or negative mean runtime would panic a sweep worker
        // inside the log-normal constructor.
        for mean in ["0", "-60"] {
            let g = loaded_grid_json(&format!(
                r#""bg_nodes_lo": 2, "bg_nodes_hi": 8, "bg_mean_secs": {mean}"#
            ));
            let err = g.validate().unwrap_err();
            assert!(err.contains("bg_mean_secs"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_generated_workloads_their_stream_would_panic_on() {
        let generated = |mutate: fn(&mut hpcqc_gen::GeneratorSpec), loads: Vec<f64>| {
            let mut spec = hpcqc_gen::GeneratorSpec::dev_facility();
            mutate(&mut spec);
            Grid {
                workload: WorkloadSpec::Generated { spec, max_jobs: 10 },
                loads_per_hour: loads,
                ..Grid::default()
            }
        };
        assert!(generated(|_| {}, vec![0.0, 8.0]).validate().is_ok());
        for (mutate, needle) in [
            (
                (|s| s.tenants.users = 0) as fn(&mut hpcqc_gen::GeneratorSpec),
                "population",
            ),
            (
                |s| s.tenants.campaign_min = s.tenants.campaign_max + 1,
                "campaign_min",
            ),
            (|s| s.classes[0].nodes_lo = 0, "nodes_lo"),
            (|s| s.tenants.campaign_alpha = 0.5, "campaign_alpha"),
            (|s| s.classes.clear(), "job class"),
        ] {
            let err = generated(mutate, vec![8.0]).validate().unwrap_err();
            assert!(err.starts_with("grid `workload`"), "{err}");
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        }
        // A positive cell load replaces the spec's arrival rate, so a
        // zero base rate streams only at a zero load.
        let idle = |s: &mut hpcqc_gen::GeneratorSpec| s.arrival.base_per_hour = 0.0;
        assert!(generated(idle, vec![8.0]).validate().is_ok());
        let err = generated(idle, vec![8.0, 0.0]).validate().unwrap_err();
        assert!(err.contains("base_per_hour"), "{err}");
    }

    #[test]
    fn validate_rejects_inverted_background_node_range() {
        // `bg_nodes_lo > bg_nodes_hi` would underflow the node draw (a
        // wrapped, machine-sized job in release builds).
        let g = loaded_grid_json(r#""bg_nodes_lo": 8, "bg_nodes_hi": 2, "bg_mean_secs": 600"#);
        let err = g.validate().unwrap_err();
        assert!(err.contains("node range"), "{err}");
        let g = loaded_grid_json(r#""bg_nodes_lo": 0, "bg_nodes_hi": 2, "bg_mean_secs": 600"#);
        assert!(g.validate().unwrap_err().contains("node range"));
    }

    #[test]
    fn validate_rejects_bad_walltime_margin() {
        for margin in ["0", "-1.5"] {
            let g = loaded_grid_json(&format!(
                r#""bg_nodes_lo": 2, "bg_nodes_hi": 8, "bg_mean_secs": 600,
                   "bg_walltime_margin": {margin}"#
            ));
            assert!(g.validate().unwrap_err().contains("bg_walltime_margin"));
        }
        let g = loaded_grid_json(
            r#""bg_nodes_lo": 2, "bg_nodes_hi": 8, "bg_mean_secs": 600, "bg_walltime_margin": 1.5"#,
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    fn workload_axis_multiplies_cells_and_picks_the_replayed_workload() {
        let tenants = |classical_secs| WorkloadSpec::Tenants {
            count: 2,
            nodes: 1,
            iterations: 2,
            classical_secs,
            shots: 100,
        };
        let g = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .workloads(vec![tenants(10), tenants(20), tenants(30)])
            .build();
        assert_eq!(g.len(), 2 * 3);
        // Workload is the faster axis: indices 0..3 are CoSchedule.
        assert_eq!(g.cell(1).workload, Some(1));
        assert_eq!(g.cell(1).strategy, Strategy::CoSchedule);
        assert_eq!(g.cell(3).strategy, Strategy::Workflow);
        assert_eq!(g.workload_of(&g.cell(5)), &tenants(30));
        // Without the axis every cell replays the single workload.
        let plain = Grid::default();
        assert_eq!(plain.cell(0).workload, None);
        assert_eq!(plain.workload_of(&plain.cell(0)), &plain.workload);
    }

    #[test]
    fn validate_checks_every_workload_in_the_axis() {
        let good = WorkloadSpec::listing1();
        let loaded = |lo, mean| WorkloadSpec::LoadedFacility {
            background: 4,
            bg_nodes_lo: lo,
            bg_nodes_hi: 4,
            bg_mean_secs: mean,
            hybrid_jobs: 1,
            hybrid_nodes: 2,
            iterations: 2,
            classical_secs: 60,
            shots: 100,
            first_submit_secs: 0,
            stagger_secs: 60,
            hybrid_walltime_hours: 8,
            bg_walltime_margin: None,
        };
        let g = Grid {
            loads_per_hour: vec![2.0],
            workloads: Some(vec![good.clone(), loaded(6, 600.0)]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("workloads"));
        let g = Grid {
            loads_per_hour: vec![2.0],
            workloads: Some(vec![good.clone(), loaded(2, f64::NAN)]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("workloads"));
        // The positive-load rule covers every loaded facility in the axis.
        let g = Grid {
            loads_per_hour: vec![0.0],
            workloads: Some(vec![good, loaded(2, 600.0)]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("positive"));
        let g = Grid {
            workloads: Some(vec![]),
            ..Grid::default()
        };
        assert!(g.validate().unwrap_err().contains("workloads"));
    }

    #[test]
    fn access_spec_resolution() {
        assert!(AccessSpec::OnPrem
            .to_mode(Technology::Superconducting)
            .is_none());
        assert!(matches!(
            AccessSpec::Integrated.to_mode(Technology::Superconducting),
            Some(AccessMode::Integrated { .. })
        ));
        assert!(matches!(
            AccessSpec::Cloud.to_mode(Technology::NeutralAtom),
            Some(AccessMode::Cloud(_))
        ));
    }

    #[test]
    fn walltime_formatting() {
        assert_eq!(fmt_walltime(WalltimePolicy::Advisory), "advisory");
        assert_eq!(
            fmt_walltime(WalltimePolicy::Kill { max_requeues: 2 }),
            "kill(2)"
        );
    }
}
