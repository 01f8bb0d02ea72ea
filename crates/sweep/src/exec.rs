//! The multi-threaded sweep executor.
//!
//! Cells are distributed over worker threads through an `mpsc` work queue
//! inside a [`std::thread::scope`]; results are reassembled **in cell-index
//! order**, and every cell's seeds are pure functions of
//! `(base_seed, cell_index)` — so output is byte-identical at any thread
//! count, only wall-clock time changes.

use crate::grid::{Cell, Grid};
use crate::result::{CellResult, CellTiming, SweepResult, WaitShares};
use hpcqc_core::observer::SimObserver;
use hpcqc_core::sim::FacilitySim;
use hpcqc_trace::AttributionObserver;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

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
    /// # Panics
    ///
    /// Propagates panics from `eval`.
    pub fn run_cells<T, F>(&self, grid: &Grid, eval: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        let n = grid.len();
        let workers = self.threads.min(n).max(1);
        if workers == 1 {
            return grid.cells().map(|c| eval(&c)).collect();
        }

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let (work_tx, work_rx) = mpsc::channel::<usize>();
        for index in 0..n {
            work_tx.send(index).expect("receiver alive");
        }
        drop(work_tx);
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel::<(usize, T)>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let done_tx = done_tx.clone();
                let work_rx = &work_rx;
                let grid = &grid;
                let eval = &eval;
                scope.spawn(move || loop {
                    // Hold the queue lock only for the pop, not the work.
                    let index = match work_rx.lock().expect("queue lock").try_recv() {
                        Ok(index) => index,
                        Err(_) => break,
                    };
                    let cell = grid.cell(index);
                    // If the main thread is gone the sweep is unwinding;
                    // just stop.
                    if done_tx.send((index, eval(&cell))).is_err() {
                        break;
                    }
                });
            }
            drop(done_tx);
            for (index, value) in done_rx {
                slots[index] = Some(value);
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every queued cell was evaluated"))
            .collect()
    }

    /// Runs the facility simulator on every cell: builds the cell's
    /// scenario and its workload at `(load, replica_seed)`, simulates,
    /// and aggregates the outcomes into a [`SweepResult`].
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
        grid.validate().map_err(|message| SweepError {
            cell_index: 0,
            message,
        })?;
        let total = grid.len();
        let completed = AtomicUsize::new(0);
        let outcomes = self.run_cells(grid, |cell| {
            let started = wall_now();
            let workload = grid
                .workload_of(cell)
                .build(cell.load_per_hour, cell.replica_seed);
            let mut attributor = attribution.then(AttributionObserver::new);
            let mut extras: Vec<&mut dyn SimObserver> = Vec::new();
            if let Some(a) = attributor.as_mut() {
                extras.push(a);
            }
            let outcome = FacilitySim::run_observed(&cell.scenario(), &workload, &mut extras)
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
    use hpcqc_core::strategy::Strategy;

    #[test]
    fn results_arrive_in_cell_order() {
        let grid = Grid::builder()
            .strategies(vec![Strategy::CoSchedule])
            .loads_per_hour((0..17).map(f64::from).collect())
            .build();
        for threads in [1, 3, 8] {
            let indices = Executor::new(threads).run_cells(&grid, |c| c.index);
            assert_eq!(indices, (0..grid.len()).collect::<Vec<_>>());
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
