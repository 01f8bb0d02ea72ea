//! Scheduler profiling: [`SchedProfiler`], a wall-clock [`CycleProbe`].
//!
//! The profiler attaches to the planning loop through the clock-free
//! [`CycleProbe`] hook (`hpcqc-sched::probe`) and measures, per planning
//! cycle, where the scheduler's *wall* time goes: queue ordering, policy
//! admission, live-cluster allocation. It also folds in the cycle-level
//! stats the probe reports for free — queue depth and jobs started vs
//! held.
//!
//! It reads the clock only around each cycle, its ordering and each
//! allocation: a cycle reports one admission per queued job, and two
//! clock reads each would cost more than the admission they time (about
//! three times the run on a deep queue). Admission is the remainder of
//! the cycle, so it also holds the cycle's set-up, the hold ledger and
//! whatever of the availability profile is built outside the phases.
//!
//! Wall-clock reads live *here*, in the harness layer, and nowhere near
//! simulation state: timings flow out to reports only, never back into
//! the simulator, so profiled runs stay byte-identical to unprofiled
//! ones (the determinism tests assert this). This is the one audited
//! D001 suppression the observability layer adds.

use hpcqc_metrics::report::Table;
use hpcqc_sched::probe::{CyclePhase, CycleProbe};
use hpcqc_simcore::time::SimTime;
use std::time::Instant;

/// Reads the monotonic wall clock.
///
/// The single clock read behind every profiler measurement, isolated so
/// the suppression below audits exactly one site.
#[allow(clippy::disallowed_methods)] // mirrors the audited hpcqc-lint D001 suppression
fn wall_now() -> Instant {
    // hpcqc-lint: allow(D001, reason = "scheduler profiling measures the wall time of planning code; readings flow only into reports, never into simulation state (see module docs)")
    Instant::now()
}

/// The slot in [`SchedProfiler`]'s timed phases; `None` for `Admit`,
/// the untimed remainder.
fn timed_index(phase: CyclePhase) -> Option<usize> {
    match phase {
        CyclePhase::Order => Some(0),
        CyclePhase::Admit => None,
        CyclePhase::Allocate => Some(1),
    }
}

/// Accumulates per-phase wall-clock time and cycle statistics over a run.
///
/// Pass one to `FacilitySim::run_streamed_probed` (or drive a
/// `BatchScheduler` directly via `try_schedule_probed`), then render
/// with [`table`](SchedProfiler::table) or
/// [`summary`](SchedProfiler::summary).
#[derive(Debug, Default)]
pub struct SchedProfiler {
    cycles: u64,
    skipped: u64,
    cycle_begun: Option<Instant>,
    phase_begun: Option<Instant>,
    /// Wall time in `Order` and in `Allocate`.
    phase_ns: [u64; 2],
    cycle_ns_total: u64,
    cycle_ns_max: u64,
    queue_depth_sum: u128,
    queue_depth_max: usize,
    jobs_started: u64,
    jobs_held_sum: u128,
}

impl SchedProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SchedProfiler::default()
    }

    /// Planning cycles run with a non-empty queue. Cycles with an empty
    /// queue never reach the probe; cycles skipped as settled are counted
    /// apart, by [`skipped`](SchedProfiler::skipped).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles the simulation loop skipped because the scheduler was
    /// settled (nothing could start and no hold could change).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Total jobs started across all observed cycles.
    pub fn jobs_started(&self) -> u64 {
        self.jobs_started
    }

    /// Total profiled wall time across all cycles, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.cycle_ns_total
    }

    /// Renders the per-phase breakdown as a table:
    /// `phase | total_ms | share_pct | mean_us_per_cycle`. The `admit` row
    /// is the cycle time outside `order` and `allocate` (see the module
    /// docs), so the phase shares sum to 100%.
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec!["phase", "total_ms", "share_pct", "mean_us_per_cycle"]);
        let cycles = self.cycles.max(1) as f64;
        let total = self.cycle_ns_total.max(1) as f64;
        let [order, allocate] = self.phase_ns;
        let admit = self.cycle_ns_total.saturating_sub(order + allocate);
        let rows = [
            (CyclePhase::Order, order),
            (CyclePhase::Admit, admit),
            (CyclePhase::Allocate, allocate),
        ];
        for (phase, ns) in rows {
            let ns = ns as f64;
            table.row(vec![
                phase.name().to_string(),
                format!("{:.3}", ns / 1e6),
                format!("{:.1}", 100.0 * ns / total),
                format!("{:.2}", ns / 1e3 / cycles),
            ]);
        }
        table.row(vec![
            "cycle total".to_string(),
            format!("{:.3}", self.cycle_ns_total as f64 / 1e6),
            "100.0".to_string(),
            format!("{:.2}", self.cycle_ns_total as f64 / 1e3 / cycles),
        ]);
        table
    }

    /// A short human-readable report (what `hpcqc-sim run --profile`
    /// prints).
    pub fn summary(&self) -> String {
        if self.cycles == 0 {
            return "scheduler profile: no planning cycles observed".to_string();
        }
        let cycles = self.cycles as f64;
        format!(
            "scheduler profile: {} planning cycles ({} skipped as settled), {:.3} ms wall \
             (mean {:.2} us/cycle, max {:.2} us)\n\
             queue depth mean {:.1} max {}; jobs started {}, held per cycle mean {:.1}\n{}",
            self.cycles,
            self.skipped,
            self.cycle_ns_total as f64 / 1e6,
            self.cycle_ns_total as f64 / 1e3 / cycles,
            self.cycle_ns_max as f64 / 1e3,
            self.queue_depth_sum as f64 / cycles,
            self.queue_depth_max,
            self.jobs_started,
            self.jobs_held_sum as f64 / cycles,
            self.table().to_markdown(),
        )
    }
}

impl CycleProbe for SchedProfiler {
    fn cycle_start(&mut self, _now: SimTime, queue_depth: usize) {
        self.cycles += 1;
        self.queue_depth_sum += queue_depth as u128;
        self.queue_depth_max = self.queue_depth_max.max(queue_depth);
        self.cycle_begun = Some(wall_now());
    }

    fn phase_start(&mut self, phase: CyclePhase) {
        if timed_index(phase).is_some() {
            self.phase_begun = Some(wall_now());
        }
    }

    fn phase_end(&mut self, phase: CyclePhase) {
        let Some(index) = timed_index(phase) else {
            return;
        };
        if let Some(begun) = self.phase_begun.take() {
            self.phase_ns[index] += begun.elapsed().as_nanos() as u64;
        }
    }

    fn cycle_end(&mut self, started: usize, held: usize) {
        self.jobs_started += started as u64;
        self.jobs_held_sum += held as u128;
        if let Some(begun) = self.cycle_begun.take() {
            let ns = begun.elapsed().as_nanos() as u64;
            self.cycle_ns_total += ns;
            self.cycle_ns_max = self.cycle_ns_max.max(ns);
        }
    }

    fn cycle_skipped(&mut self, _now: SimTime, _queue_depth: usize) {
        self.skipped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_cycle_stats() {
        let mut p = SchedProfiler::new();
        p.cycle_start(SimTime::ZERO, 5);
        p.phase_start(CyclePhase::Order);
        p.phase_end(CyclePhase::Order);
        p.phase_start(CyclePhase::Admit);
        p.phase_end(CyclePhase::Admit);
        p.cycle_end(2, 3);
        p.cycle_start(SimTime::from_secs(60), 3);
        p.cycle_end(0, 3);
        p.cycle_skipped(SimTime::from_secs(90), 3);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.skipped(), 1);
        assert!(p
            .summary()
            .contains("2 planning cycles (1 skipped as settled)"));
        assert_eq!(p.jobs_started(), 2);
        assert_eq!(p.queue_depth_max, 5);
        assert!(p.total_ns() > 0);
    }

    #[test]
    fn table_has_all_phases_plus_total() {
        let p = SchedProfiler::new();
        let table = p.table();
        let phases: Vec<String> = table.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(phases, vec!["order", "admit", "allocate", "cycle total"]);
    }

    #[test]
    fn admit_row_tiles_the_cycle() {
        let p = SchedProfiler {
            cycles: 2,
            phase_ns: [300, 100],
            cycle_ns_total: 1_000,
            ..SchedProfiler::default()
        };
        let table = p.table();
        let share = |row: &[String]| row[2].parse::<f64>().unwrap();
        let admit = &table.rows()[1];
        assert_eq!(admit[0], "admit");
        assert_eq!(admit[1], "0.001");
        assert_eq!(share(admit), 60.0);
        let tiled: f64 = table.rows()[..3].iter().map(|r| share(r)).sum();
        assert!((tiled - 100.0).abs() < 1e-9, "shares sum to {tiled}");
        // Phases summing past the cycle total (clock skew) saturate at 0.
        let skewed = SchedProfiler {
            phase_ns: [900, 200],
            cycle_ns_total: 1_000,
            ..SchedProfiler::default()
        };
        assert_eq!(skewed.table().rows()[1][1], "0.000");
    }

    #[test]
    fn admissions_are_not_timed() {
        let mut p = SchedProfiler::new();
        p.cycle_start(SimTime::ZERO, 1);
        p.phase_start(CyclePhase::Order);
        p.phase_start(CyclePhase::Admit);
        p.phase_end(CyclePhase::Admit);
        assert!(
            p.phase_begun.is_some(),
            "an admission stopped the order timer"
        );
        p.phase_end(CyclePhase::Order);
        assert!(p.phase_begun.is_none());
    }

    #[test]
    fn empty_profile_summarizes_gracefully() {
        assert!(SchedProfiler::new()
            .summary()
            .contains("no planning cycles"));
    }

    #[test]
    fn unmatched_phase_end_is_ignored() {
        let mut p = SchedProfiler::new();
        p.phase_end(CyclePhase::Allocate);
        assert_eq!(p.phase_ns, [0, 0]);
    }
}
