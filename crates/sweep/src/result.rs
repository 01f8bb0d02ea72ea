//! Sweep aggregation: per-cell outcome rows, group-by reductions over
//! replicas, and CSV/JSON/markdown emitters built on
//! [`hpcqc_metrics::report::Table`].

use crate::grid::{fleet_label, fmt_walltime, Cell};
use hpcqc_core::outcome::Outcome;
use hpcqc_metrics::report::Table;
use serde::{Deserialize, Serialize};

/// One simulated grid cell: its parameters and the full outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The grid point.
    pub cell: Cell,
    /// Everything the facility simulation produced.
    pub outcome: Outcome,
    /// Wait-decomposition shares, when the sweep ran with attribution
    /// (see [`Executor::run_sim_with`](crate::exec::Executor::run_sim_with));
    /// `None` on the plain path, keeping legacy outputs byte-identical.
    pub shares: Option<WaitShares>,
}

/// Facility-wide wait-decomposition shares for one cell, distilled from
/// the [`AttributionObserver`](hpcqc_trace::AttributionObserver) ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaitShares {
    /// Share of all attributed wait paid to QPU contention
    /// (`qpu-contention` gres shortage + `device-busy` kernel queueing).
    pub qpu_frac: f64,
    /// Share of all attributed wait paid to the head job's backfill
    /// shadow (`head-shadow`).
    pub shadow_frac: f64,
    /// Share of all attributed wait paid to fault recovery
    /// (`fault-recovery`: retry backoff and parked fault-injected
    /// downtime). Zero on fault-free cells.
    pub fault_frac: f64,
}

/// Harness-layer cost of simulating one cell.
///
/// Wall time is measured around the cell's simulation on its worker
/// thread, and includes the workload build only on the cell that built
/// it: the other cells sharing its replay key reuse that workload. The
/// RSS figure is the *process-wide* high-water mark (`VmHWM` from
/// `/proc/self/status`) sampled when the cell finished, so it is monotone
/// in completion order (which is not index order) and `None` off Linux.
/// Timings live beside — never inside — the deterministic per-cell metric
/// rows: [`SweepResult::to_csv`] and friends are byte-identical across
/// runs and machines, while [`SweepResult::timing_table`] is not.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Cell index in grid order.
    pub index: usize,
    /// Wall-clock seconds spent on this cell: its simulation, plus the
    /// workload build when this cell made it.
    pub wall_secs: f64,
    /// Process peak RSS in kilobytes when the cell completed, if known.
    pub peak_rss_kb: Option<u64>,
}

/// The flat metric row emitted per cell (what lands in CSV/JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRow {
    /// Cell index in grid order.
    pub index: usize,
    /// Strategy label.
    pub strategy: String,
    /// Policy label.
    pub policy: String,
    /// Classical nodes.
    pub nodes: u32,
    /// Technology label.
    pub technology: String,
    /// Fleet-composition label (`<name>/<route>`), when the grid has a
    /// fleet axis.
    pub fleet: Option<String>,
    /// Dependability-plan label, when the grid has a faults axis.
    pub faults: Option<String>,
    /// Position in the grid's `workloads` axis, when it has one.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub workload: Option<usize>,
    /// Access-model label.
    pub access: String,
    /// Walltime-policy label.
    pub walltime: String,
    /// Background load, jobs per hour.
    pub load_per_hour: f64,
    /// Replica number.
    pub replica: u32,
    /// The replica's common-random-numbers seed.
    pub seed: u64,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
    /// Mean queue wait over all jobs, seconds.
    pub mean_wait_secs: f64,
    /// Mean hybrid-job turnaround, seconds.
    pub hybrid_turnaround_secs: f64,
    /// Mean of classical used-fraction and QPU utilization.
    pub combined_utilization: f64,
    /// Mean physical-QPU busy fraction.
    pub qpu_utilization: f64,
    /// Allocated-but-idle classical node-hours.
    pub node_hours_wasted: f64,
    /// Jobs recorded failed.
    pub failed: u64,
    /// Share of attributed wait paid to QPU contention (attributed
    /// sweeps only; absent — and skipped in JSON — on the plain path).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub wait_qpu_frac: Option<f64>,
    /// Share of attributed wait paid to the head job's backfill shadow
    /// (attributed sweeps only; absent on the plain path).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub wait_shadow_frac: Option<f64>,
    /// Share of attributed wait paid to fault recovery (attributed
    /// sweeps only; absent on the plain path).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub wait_fault_frac: Option<f64>,
}

impl CellRow {
    fn from_result(result: &CellResult) -> Self {
        let cell = &result.cell;
        let outcome = &result.outcome;
        CellRow {
            index: cell.index,
            strategy: cell.strategy.to_string(),
            policy: cell.policy.to_string(),
            nodes: cell.nodes,
            technology: cell.technology.name().to_string(),
            fleet: cell.fleet.as_ref().map(fleet_label),
            faults: cell.faults.as_ref().map(|p| p.label().to_string()),
            workload: cell.workload,
            access: cell.access.name().to_string(),
            walltime: fmt_walltime(cell.walltime),
            load_per_hour: cell.load_per_hour,
            replica: cell.replica,
            seed: cell.replica_seed,
            makespan_secs: outcome.makespan.as_secs_f64(),
            mean_wait_secs: outcome.stats.mean_wait_secs(),
            hybrid_turnaround_secs: outcome.stats.hybrid_only().mean_turnaround_secs(),
            combined_utilization: outcome.combined_utilization(),
            qpu_utilization: outcome.mean_device_utilization(),
            node_hours_wasted: outcome.stats.total_node_hours_wasted(),
            failed: outcome.stats.failed_count() as u64,
            wait_qpu_frac: result.shares.map(|s| s.qpu_frac),
            wait_shadow_frac: result.shares.map(|s| s.shadow_frac),
            wait_fault_frac: result.shares.map(|s| s.fault_frac),
        }
    }

    /// The group-by key: every axis except the replica.
    fn group_key(&self) -> GroupKey {
        (
            self.strategy.clone(),
            self.policy.clone(),
            self.nodes,
            self.technology.clone(),
            self.fleet.clone().unwrap_or_default(),
            self.faults.clone().unwrap_or_default(),
            self.workload,
            self.access.clone(),
            self.walltime.clone(),
            // f64 is not Ord/Hash; the label form is exact enough for a key.
            fmt_f64(self.load_per_hour),
        )
    }
}

/// Formats an f64 with enough digits to round-trip, no trailing noise.
fn fmt_f64(value: f64) -> String {
    // `{}` on f64 prints the shortest representation that round-trips.
    format!("{value}")
}

/// Strategy, policy, nodes, technology, fleet, faults, workload, access,
/// walltime and load: every axis except the replica.
type GroupKey = (
    String,
    String,
    u32,
    String,
    String,
    String,
    Option<usize>,
    String,
    String,
    String,
);

/// Formats a workload-axis position for table cells (`-` off the axis).
fn fmt_workload(workload: Option<usize>) -> String {
    workload.map_or_else(|| String::from("-"), |k| k.to_string())
}

/// Nearest-rank p95 of a non-empty slice (copies + sorts internally).
fn p95(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Everything a sweep produced, with emitters.
///
/// Per-cell rows come out of [`SweepResult::table`] /
/// [`SweepResult::to_csv`] / [`SweepResult::to_json`] /
/// [`SweepResult::to_markdown`]; [`SweepResult::summary`] reduces over
/// replicas (mean and p95 per parameter combination).
#[derive(Debug, Clone)]
pub struct SweepResult {
    results: Vec<CellResult>,
    timings: Vec<CellTiming>,
}

impl SweepResult {
    /// Wraps per-cell results (expected in cell-index order).
    pub fn new(results: Vec<CellResult>) -> Self {
        SweepResult {
            results,
            timings: Vec::new(),
        }
    }

    /// Attaches harness timings (expected in cell-index order).
    pub fn with_timings(mut self, timings: Vec<CellTiming>) -> Self {
        self.timings = timings;
        self
    }

    /// Harness timing per cell, in cell-index order (empty unless the
    /// executor recorded them).
    pub fn timings(&self) -> &[CellTiming] {
        &self.timings
    }

    /// Total wall-clock seconds summed over all cells (CPU-seconds of
    /// simulation work, not elapsed time — cells run in parallel).
    pub fn total_wall_secs(&self) -> f64 {
        self.timings.iter().map(|t| t.wall_secs).sum()
    }

    /// The highest process RSS high-water mark observed, in kilobytes.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        self.timings.iter().filter_map(|t| t.peak_rss_kb).max()
    }

    /// Harness timing rows, one per cell.
    ///
    /// Deliberately a separate table from [`SweepResult::table`]: wall
    /// time and RSS vary run to run, and the per-cell metric CSV is
    /// golden-file checked for byte determinism.
    pub fn timing_table(&self) -> Table {
        let mut table = Table::new(vec!["index", "strategy", "load/h", "wall_s", "peak_rss_mb"]);
        for timing in &self.timings {
            let (strategy, load) = self
                .results
                .get(timing.index)
                .map(|r| (r.cell.strategy.to_string(), fmt_f64(r.cell.load_per_hour)))
                .unwrap_or_else(|| (String::from("?"), String::from("?")));
            table.row(vec![
                timing.index.to_string(),
                strategy,
                load,
                format!("{:.3}", timing.wall_secs),
                timing.peak_rss_kb.map_or_else(
                    || String::from("-"),
                    |kb| format!("{:.1}", kb as f64 / 1024.0),
                ),
            ]);
        }
        table
    }

    /// The per-cell results, in cell-index order.
    pub fn results(&self) -> &[CellResult] {
        &self.results
    }

    /// Number of simulated cells.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if the sweep produced no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The outcome of the first cell matching `predicate`, if any.
    pub fn find<P: FnMut(&Cell) -> bool>(&self, mut predicate: P) -> Option<&CellResult> {
        self.results.iter().find(|r| predicate(&r.cell))
    }

    /// Flat metric rows, one per cell.
    pub fn rows(&self) -> Vec<CellRow> {
        self.results.iter().map(CellRow::from_result).collect()
    }

    /// The per-cell metric table. The `fleet`, `faults` and `workload`
    /// columns only appear when the grid had those axes, keeping legacy
    /// CSVs (and their golden fixtures) byte-identical.
    /// Wait-decomposition columns (`wait_qpu_frac`, `wait_shadow_frac`,
    /// `wait_fault_frac`) likewise only appear when the sweep ran
    /// attributed.
    pub fn table(&self) -> Table {
        let rows = self.rows();
        let has_fleet = rows.iter().any(|r| r.fleet.is_some());
        let has_faults = rows.iter().any(|r| r.faults.is_some());
        let has_workload = rows.iter().any(|r| r.workload.is_some());
        let has_shares = rows.iter().any(|r| r.wait_qpu_frac.is_some());
        let mut headers = vec!["index", "strategy", "policy", "nodes", "technology"];
        if has_fleet {
            headers.push("fleet");
        }
        if has_faults {
            headers.push("faults");
        }
        if has_workload {
            headers.push("workload");
        }
        headers.extend([
            "access",
            "walltime",
            "load/h",
            "replica",
            "seed",
            "makespan_s",
            "mean_wait_s",
            "hybrid_turnaround_s",
            "combined_util",
            "qpu_util",
            "node_h_wasted",
            "failed",
        ]);
        if has_shares {
            headers.extend(["wait_qpu_frac", "wait_shadow_frac", "wait_fault_frac"]);
        }
        let mut table = Table::new(headers);
        for row in rows {
            let mut cells = vec![
                row.index.to_string(),
                row.strategy,
                row.policy,
                row.nodes.to_string(),
                row.technology,
            ];
            if has_fleet {
                cells.push(row.fleet.unwrap_or_else(|| String::from("-")));
            }
            if has_faults {
                cells.push(row.faults.unwrap_or_else(|| String::from("-")));
            }
            if has_workload {
                cells.push(fmt_workload(row.workload));
            }
            cells.extend([
                row.access,
                row.walltime,
                fmt_f64(row.load_per_hour),
                row.replica.to_string(),
                row.seed.to_string(),
                format!("{:.3}", row.makespan_secs),
                format!("{:.3}", row.mean_wait_secs),
                format!("{:.3}", row.hybrid_turnaround_secs),
                format!("{:.6}", row.combined_utilization),
                format!("{:.6}", row.qpu_utilization),
                format!("{:.4}", row.node_hours_wasted),
                row.failed.to_string(),
            ]);
            if has_shares {
                let share =
                    |v: Option<f64>| v.map_or_else(|| String::from("-"), |f| format!("{f:.6}"));
                cells.push(share(row.wait_qpu_frac));
                cells.push(share(row.wait_shadow_frac));
                cells.push(share(row.wait_fault_frac));
            }
            table.row(cells);
        }
        table
    }

    /// Per-cell rows as CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// Per-cell rows as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        self.table().to_markdown()
    }

    /// Per-cell rows as a JSON array.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.rows()).expect("rows serialize")
    }

    /// Group-by reduction over replicas: one row per parameter
    /// combination with mean and p95 of the headline metrics. Groups keep
    /// first-appearance (cell-index) order, so output is deterministic.
    pub fn summary(&self) -> Table {
        let rows = self.rows();
        let has_fleet = rows.iter().any(|r| r.fleet.is_some());
        let has_faults = rows.iter().any(|r| r.faults.is_some());
        let has_workload = rows.iter().any(|r| r.workload.is_some());
        let mut order: Vec<GroupKey> = Vec::new();
        let mut groups: std::collections::HashMap<_, Vec<&CellRow>> =
            std::collections::HashMap::new();
        for row in &rows {
            let key = row.group_key();
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }

        let mut headers = vec!["strategy", "policy", "nodes", "technology"];
        if has_fleet {
            headers.push("fleet");
        }
        if has_faults {
            headers.push("faults");
        }
        if has_workload {
            headers.push("workload");
        }
        headers.extend([
            "access",
            "walltime",
            "load/h",
            "replicas",
            "makespan_s mean",
            "makespan_s p95",
            "mean_wait_s mean",
            "mean_wait_s p95",
            "hybrid_turnaround_s mean",
            "hybrid_turnaround_s p95",
            "combined_util mean",
            "combined_util p95",
        ]);
        let mut table = Table::new(headers);
        for key in order {
            let members = &groups[&key];
            let metric =
                |f: fn(&CellRow) -> f64| -> Vec<f64> { members.iter().map(|r| f(r)).collect() };
            let makespan = metric(|r| r.makespan_secs);
            let wait = metric(|r| r.mean_wait_secs);
            let turnaround = metric(|r| r.hybrid_turnaround_secs);
            let util = metric(|r| r.combined_utilization);
            let (
                strategy,
                policy,
                nodes,
                technology,
                fleet,
                faults,
                workload,
                access,
                walltime,
                load,
            ) = key;
            let mut cells = vec![strategy, policy, nodes.to_string(), technology];
            if has_fleet {
                cells.push(if fleet.is_empty() {
                    String::from("-")
                } else {
                    fleet
                });
            }
            if has_faults {
                cells.push(if faults.is_empty() {
                    String::from("-")
                } else {
                    faults
                });
            }
            if has_workload {
                cells.push(fmt_workload(workload));
            }
            cells.extend([
                access,
                walltime,
                load,
                members.len().to_string(),
                format!("{:.3}", mean(&makespan)),
                format!("{:.3}", p95(&makespan)),
                format!("{:.3}", mean(&wait)),
                format!("{:.3}", p95(&wait)),
                format!("{:.3}", mean(&turnaround)),
                format!("{:.3}", p95(&turnaround)),
                format!("{:.6}", mean(&util)),
                format!("{:.6}", p95(&util)),
            ]);
            table.row(cells);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::grid::Grid;
    use hpcqc_core::strategy::Strategy;

    fn small_sweep(replicas: u32) -> SweepResult {
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .replicas(replicas)
            .base_seed(42)
            .build();
        Executor::new(2).run_sim(&grid).expect("sweep runs")
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let result = small_sweep(2);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + result.len());
        assert!(csv.starts_with("index,strategy,policy"));
    }

    #[test]
    fn json_round_trips_rows() {
        let result = small_sweep(1);
        let parsed: Vec<CellRow> = serde_json::from_str(&result.to_json()).expect("valid JSON");
        assert_eq!(parsed, result.rows());
    }

    #[test]
    fn markdown_renders() {
        let md = small_sweep(1).to_markdown();
        assert!(md.contains("| index"));
        assert!(md.contains("co-schedule"));
    }

    #[test]
    fn summary_reduces_over_replicas() {
        let result = small_sweep(3);
        let summary = result.summary();
        // 2 strategies × 3 replicas → 2 groups of 3.
        assert_eq!(summary.len(), 2);
        assert!(summary.rows().iter().all(|r| r[7] == "3"));
    }

    #[test]
    fn policies_apart_only_in_priority_knobs_split_groups() {
        use hpcqc_sched::{PolicySpec, PriorityWeights};
        let sized = PolicySpec::easy().with_weights(PriorityWeights {
            age_per_hour: 0.0,
            size_per_node: 50.0,
            fairshare_per_node_hour: 0.0,
        });
        let grid = Grid::builder()
            .strategies(vec![Strategy::Workflow])
            .policies(vec![PolicySpec::easy(), sized])
            .build();
        let result = Executor::new(2).run_sim(&grid).expect("sweep runs");
        let labels: Vec<String> = result.rows().into_iter().map(|r| r.policy).collect();
        assert_eq!(
            labels,
            [
                "easy-backfill",
                "easy-backfill;age-weight=0;size-weight=50;fairshare-weight=0"
            ]
        );
        // One summary group per policy, each over its one replica.
        let summary = result.summary();
        assert_eq!(summary.len(), 2);
        assert!(summary.rows().iter().all(|r| r[7] == "1"));
    }

    #[test]
    fn workload_axis_adds_a_column_and_splits_groups() {
        use crate::spec::WorkloadSpec;
        let plain = small_sweep(1).to_csv();
        assert!(!plain.lines().next().unwrap().contains("workload"));
        let tenants = |classical_secs| WorkloadSpec::Tenants {
            count: 2,
            nodes: 1,
            iterations: 2,
            classical_secs,
            shots: 100,
        };
        let grid = Grid::builder()
            .workloads(vec![tenants(10), tenants(600)])
            .replicas(2)
            .build();
        let result = Executor::new(2).run_sim(&grid).expect("sweep runs");
        let csv = result.to_csv();
        assert!(csv.starts_with("index,strategy,policy,nodes,technology,workload,access"));
        assert!(csv.lines().nth(3).unwrap().contains(",1,on-prem,"), "{csv}");
        // One summary group per workload, each over both replicas.
        let summary = result.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary.rows()[1][4], "1");
    }

    #[test]
    fn p95_nearest_rank() {
        assert_eq!(p95(&[1.0]), 1.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95(&v), 95.0);
        assert_eq!(p95(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn find_locates_cells() {
        let result = small_sweep(1);
        assert!(result.find(|c| c.strategy == Strategy::Workflow).is_some());
        assert!(result
            .find(|c| c.strategy == Strategy::Malleable { min_nodes: 1 })
            .is_none());
    }
}
