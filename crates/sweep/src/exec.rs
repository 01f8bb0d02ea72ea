//! The multi-threaded sweep executor.
//!
//! Worker threads inside a [`std::thread::scope`] pop cells from one shared
//! cursor over the *dispatch order*: cells sorted by replay key (the
//! cell's workload entry, load and replica; see [`Grid`]), index order
//! within a key. Results are reassembled **in cell-index order**, and every
//! cell's seeds are pure functions of `(base_seed, cell_index)` — so output
//! is byte-identical at any thread count, only wall-clock time changes.
//!
//! Cells with one replay key replay the identical workload, so each worker
//! keeps the last workload it built and rebuilds only when the key
//! changes. Keys reach a worker in non-decreasing order, so a worker
//! builds each key at most once, and holds one workload at a time.

use crate::grid::{Cell, Grid};
use crate::result::{CellResult, CellTiming, SweepResult, WaitShares};
use hpcqc_core::observer::SimObserver;
use hpcqc_core::sim::FacilitySim;
use hpcqc_trace::AttributionObserver;
use hpcqc_workload::campaign::Workload;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

#[allow(clippy::disallowed_methods)] // mirrors the audited hpcqc-lint D001 suppression
fn wall_now() -> std::time::Instant {
    // hpcqc-lint: allow(D001, reason = "sweep harness timing: wall-clock readings annotate the timing report only and never feed back into simulation state; per-cell metric rows stay byte-deterministic")
    std::time::Instant::now()
}

/// The process RSS high-water mark (`VmHWM`) in kilobytes, Linux only.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Why a sweep failed.
#[derive(Debug)]
pub struct SweepError {
    /// Index of the first cell (in grid order) that failed.
    pub cell_index: usize,
    /// The simulator's error message.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep cell {} failed: {}", self.cell_index, self.message)
    }
}

impl std::error::Error for SweepError {}

/// Runs grid cells across a pool of scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor; `threads == 0` selects the machine's available
    /// parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        Executor { threads }
    }

    /// The worker count this executor will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `eval` on every cell, returning results in cell-index
    /// order regardless of thread count or completion order.
    ///
    /// Workers take cells in the order of their replay key (the cell's
    /// workload entry, load and replica), index order within a key, so the
    /// cells that replay one workload run back to back.
    ///
    /// # Panics
    ///
    /// Propagates panics from `eval`.
    pub fn run_cells<T, F>(&self, grid: &Grid, eval: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        self.run_cells_with(grid, || (), |(), cell| eval(cell))
    }

    /// [`Executor::run_cells`] where each worker carries a state of its
    /// own, made by `init` and handed to every `eval` call on that worker.
    /// A worker pops cells from one shared cursor over the dispatch order,
    /// so the replay keys it sees never decrease.
    fn run_cells_with<S, T, I, F>(&self, grid: &Grid, init: I, eval: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &Cell) -> T + Sync,
    {
        let n = grid.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Stable: index order within a key.
        order.sort_by_key(|&index| grid.replay_key(index));
        // Relaxed: the cursor publishes no data; `order` is shared before
        // the spawns and results come back through `join`.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut state = init();
            let mut done = Vec::new();
            while let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((index, eval(&mut state, &grid.cell(index))));
            }
            done
        };

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(n).max(1))
                .map(|_| scope.spawn(work))
                .collect();
            for worker in workers {
                let done = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (index, value) in done {
                    slots[index] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every dispatched cell was evaluated"))
            .collect()
    }

    /// Runs the facility simulator on every cell: builds the cell's
    /// scenario and its workload at `(load, replica_seed)` (once per worker
    /// for all cells sharing a replay key), simulates, and aggregates the
    /// outcomes into a [`SweepResult`].
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) cell whose simulation failed.
    pub fn run_sim(&self, grid: &Grid) -> Result<SweepResult, SweepError> {
        self.run_sim_with(grid, false, |_, _| {})
    }

    /// [`Executor::run_sim`] with the two choices a caller can make.
    ///
    /// With `attribution`, an [`AttributionObserver`] watches every cell
    /// and the rows gain the wait-decomposition shares (`wait_qpu_frac`,
    /// `wait_shadow_frac`, `wait_fault_frac`). The observer only watches
    /// the event stream, so every other column stays byte-identical.
    ///
    /// `progress` is invoked from worker threads after each cell
    /// completes with `(completed_so_far, total)`. Each cell's wall time
    /// (which includes the workload build only on the cell that built it)
    /// and the process RSS high-water mark are recorded into
    /// [`SweepResult::timings`]; the simulation outcomes themselves are
    /// unaffected (byte-identical to an untimed run).
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) cell whose simulation failed.
    pub fn run_sim_with<P>(
        &self,
        grid: &Grid,
        attribution: bool,
        progress: P,
    ) -> Result<SweepResult, SweepError>
    where
        P: Fn(usize, usize) + Sync,
    {
        self.run_sim_built(grid, attribution, progress, |cell| {
            grid.workload_of(cell)
                .build(cell.load_per_hour, cell.replica_seed)
        })
    }

    /// [`Executor::run_sim_with`] with the workload build passed in, so a
    /// test can count the builds a sweep makes.
    fn run_sim_built<P, B>(
        &self,
        grid: &Grid,
        attribution: bool,
        progress: P,
        build: B,
    ) -> Result<SweepResult, SweepError>
    where
        P: Fn(usize, usize) + Sync,
        B: Fn(&Cell) -> Workload + Sync,
    {
        grid.validate().map_err(|message| SweepError {
            cell_index: 0,
            message,
        })?;
        let total = grid.len();
        let completed = AtomicUsize::new(0);
        // Each worker keeps the last workload it built, keyed by replay key.
        let init = || None::<(usize, Workload)>;
        let outcomes = self.run_cells_with(grid, init, |last, cell| {
            let started = wall_now();
            let key = grid.replay_key(cell.index);
            if last.as_ref().is_some_and(|(built, _)| *built != key) {
                // Free the old workload before building its successor.
                *last = None;
            }
            let (_, workload) = last.get_or_insert_with(|| (key, build(cell)));
            let mut attributor = attribution.then(AttributionObserver::new);
            let mut extras: Vec<&mut dyn SimObserver> = Vec::new();
            if let Some(a) = attributor.as_mut() {
                extras.push(a);
            }
            let outcome = FacilitySim::run_observed(&cell.scenario(), workload, &mut extras)
                .map(|outcome| {
                    let shares = attributor.map(|a| WaitShares {
                        qpu_frac: a.qpu_contention_frac(),
                        shadow_frac: a.shadow_frac(),
                        fault_frac: a.fault_recovery_frac(),
                    });
                    (outcome, shares)
                })
                .map_err(|e| e.to_string());
            let timing = CellTiming {
                index: cell.index,
                wall_secs: started.elapsed().as_secs_f64(),
                peak_rss_kb: peak_rss_kb(),
            };
            progress(completed.fetch_add(1, Ordering::Relaxed) + 1, total);
            (outcome, timing)
        });
        let mut results = Vec::with_capacity(outcomes.len());
        let mut timings = Vec::with_capacity(outcomes.len());
        for (index, (outcome, timing)) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok((outcome, shares)) => {
                    results.push(CellResult {
                        cell: grid.cell(index),
                        outcome,
                        shares,
                    });
                    timings.push(timing);
                }
                Err(message) => {
                    return Err(SweepError {
                        cell_index: index,
                        message,
                    })
                }
            }
        }
        Ok(SweepResult::new(results).with_timings(timings))
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::AccessSpec;
    use crate::spec::WorkloadSpec;
    use hpcqc_core::scenario::WalltimePolicy;
    use hpcqc_core::strategy::Strategy;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// A grid whose replay keys interleave with the other axes: two
    /// workloads, two loads and two replicas under two strategies, two
    /// access modes and two walltime policies (64 cells, 8 keys).
    fn keyed_grid() -> Grid {
        let tenants = |classical_secs| WorkloadSpec::Tenants {
            count: 2,
            nodes: 1,
            iterations: 1,
            classical_secs,
            shots: 100,
        };
        Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .workloads(vec![tenants(10), tenants(20)])
            .access(vec![AccessSpec::OnPrem, AccessSpec::Integrated])
            .walltime(vec![
                WalltimePolicy::Advisory,
                WalltimePolicy::Kill { max_requeues: 1 },
            ])
            .loads_per_hour(vec![2.0, 4.0])
            .replicas(2)
            .build()
    }

    #[test]
    fn results_arrive_in_cell_order() {
        let grid = keyed_grid();
        for threads in [1, 3, 8] {
            let indices = Executor::new(threads).run_cells(&grid, |c| c.index);
            assert_eq!(indices, (0..grid.len()).collect::<Vec<_>>());
        }
        // One worker visits each key's cells back to back, in index order.
        let visits = Mutex::new(Vec::new());
        Executor::new(1).run_cells(&grid, |c| visits.lock().expect("lock").push(c.index));
        let visits = visits.into_inner().expect("lock");
        let mut by_key = visits.clone();
        by_key.sort_by_key(|&i| (grid.replay_key(i), i));
        assert_eq!(visits, by_key);
        let mut keys: Vec<usize> = visits.iter().map(|&i| grid.replay_key(i)).collect();
        keys.dedup();
        assert_eq!(keys, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn each_worker_builds_each_replay_key_once() {
        let grid = keyed_grid();
        for threads in [1, 3] {
            let builds = Mutex::new(Vec::new());
            Executor::new(threads)
                .run_sim_built(
                    &grid,
                    false,
                    |_, _| {},
                    |cell| {
                        let key = grid.replay_key(cell.index);
                        let worker = std::thread::current().id();
                        builds.lock().expect("lock").push((worker, key));
                        grid.workload_of(cell)
                            .build(cell.load_per_hour, cell.replica_seed)
                    },
                )
                .expect("sweep runs");
            let builds = builds.into_inner().expect("lock");
            let distinct: HashSet<_> = builds.iter().collect();
            assert_eq!(distinct.len(), builds.len(), "a worker rebuilt a key");
            if threads == 1 {
                assert_eq!(builds.len(), 8, "one build per distinct replay key");
            }
        }
    }

    #[test]
    fn zero_threads_selects_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(5).threads(), 5);
    }

    #[test]
    fn run_sim_smoke_and_thread_invariance() {
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .base_seed(42)
            .build();
        let a = Executor::new(1).run_sim(&grid).expect("sweep runs");
        let b = Executor::new(4).run_sim(&grid).expect("sweep runs");
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn run_sim_with_reports_progress_and_timings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .base_seed(42)
            .build();
        let calls = AtomicUsize::new(0);
        let last = AtomicUsize::new(0);
        let result = Executor::new(2)
            .run_sim_with(&grid, false, |done, total| {
                assert_eq!(total, 2);
                calls.fetch_add(1, Ordering::Relaxed);
                last.fetch_max(done, Ordering::Relaxed);
            })
            .expect("sweep runs");
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(last.load(Ordering::Relaxed), 2);
        assert_eq!(result.timings().len(), 2);
        assert!(result.timings().iter().all(|t| t.wall_secs >= 0.0));
        assert!(result.total_wall_secs() > 0.0);
        // Timing stays out of the golden per-cell table.
        assert!(!result.to_csv().contains("wall_s"));
        assert!(result.timing_table().to_csv().starts_with("index,"));
        // Plain runs record timings too, with identical metric rows.
        let plain = Executor::new(1).run_sim(&grid).expect("sweep runs");
        assert_eq!(plain.timings().len(), 2);
        assert_eq!(plain.to_csv(), result.to_csv());
    }

    #[test]
    fn run_sim_attributed_adds_share_columns_only() {
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule, Strategy::Workflow])
            .base_seed(42)
            .build();
        let plain = Executor::new(1).run_sim(&grid).expect("sweep runs");
        let attributed = Executor::new(1)
            .run_sim_with(&grid, true, |_, _| {})
            .expect("sweep runs");
        let plain_csv = plain.to_csv();
        let attributed_csv = attributed.to_csv();
        assert!(!plain_csv.contains("wait_qpu_frac"));
        assert!(attributed_csv.contains("wait_qpu_frac,wait_shadow_frac,wait_fault_frac"));
        // Shares are in [0, 1] and the observer never perturbs metrics:
        // stripping the three extra columns recovers the plain table.
        for result in attributed.results() {
            let shares = result.shares.expect("attributed cell has shares");
            assert!((0.0..=1.0).contains(&shares.qpu_frac));
            assert!((0.0..=1.0).contains(&shares.shadow_frac));
            assert!((0.0..=1.0).contains(&shares.fault_frac));
            // A fault-free grid books no fault-recovery wait.
            assert_eq!(shares.fault_frac, 0.0);
        }
        let stripped: Vec<String> = attributed_csv
            .lines()
            .map(|line| {
                line.rsplitn(4, ',')
                    .nth(3)
                    .expect("row has share columns")
                    .to_string()
            })
            .collect();
        assert_eq!(plain_csv.trim_end(), stripped.join("\n"));
        // And the attributed path is thread-invariant too.
        let attributed4 = Executor::new(4)
            .run_sim_with(&grid, true, |_, _| {})
            .expect("sweep runs");
        assert_eq!(attributed_csv, attributed4.to_csv());
    }

    #[test]
    fn faulted_cells_book_fault_recovery_share() {
        use hpcqc_faults::{DeviceFaults, FaultPlan, RecoverySpec};
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule])
            .faults(vec![
                FaultPlan::none(),
                FaultPlan::named("flaky")
                    .device(DeviceFaults::new().kernel_error_rate(0.5))
                    .recovery(
                        RecoverySpec::new()
                            .max_kernel_retries(50)
                            .retry_backoff_secs(5.0),
                    ),
            ])
            .base_seed(42)
            .build();
        let result = Executor::new(2)
            .run_sim_with(&grid, true, |_, _| {})
            .expect("sweep runs");
        let csv = result.to_csv();
        assert!(csv.contains(",faults,"), "faults column appears: {csv}");
        let shares: Vec<f64> = result
            .results()
            .iter()
            .map(|r| r.shares.expect("attributed").fault_frac)
            .collect();
        assert_eq!(shares[0], 0.0, "inert plan books no fault-recovery wait");
        assert!(shares[1] > 0.0, "flaky plan books fault-recovery wait");
        // Fault injection stays thread-invariant.
        let again = Executor::new(1)
            .run_sim_with(&grid, true, |_, _| {})
            .expect("sweep runs");
        assert_eq!(csv, again.to_csv());
    }

    #[test]
    fn run_sim_rejects_invalid_grid() {
        let grid = Grid {
            technologies: vec![],
            ..Grid::default()
        };
        assert!(Executor::new(1).run_sim(&grid).is_err());
    }
}
