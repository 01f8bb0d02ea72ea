//! Planning-cycle instrumentation: the [`CycleProbe`] hook.
//!
//! A probe observes each [`BatchScheduler::try_schedule`] cycle from the
//! *outside*: it is told when a cycle begins (and how deep the queue is),
//! when each internal phase — queue ordering, admission decisions, live
//! cluster allocation — starts and stops, and how the cycle ended (jobs
//! started vs held). The simulation loop also reports each cycle it skips
//! because the scheduler is settled. The scheduler itself never reads a
//! clock; a probe that wants wall-clock timings takes them in its own
//! crate (see `hpcqc-trace`'s `SchedProfiler`), so the deterministic core
//! stays free of wall time and the no-op default ([`NoProbe`]) costs two
//! virtual calls per queued job.
//!
//! [`BatchScheduler::try_schedule`]: crate::scheduler::BatchScheduler::try_schedule

use hpcqc_simcore::time::SimTime;

/// The internal phases of one planning cycle, in execution order.
///
/// `Admit` and `Allocate` interleave per queued job; probes accumulate
/// rather than assume contiguity. Every cycle of every kind (see
/// [`try_schedule_probed`](crate::scheduler::BatchScheduler::try_schedule_probed))
/// reports one `Admit` per queued job. A cycle of a fast kind
/// (same-instant follow-up, clock-only re-run, submit-only) has no
/// `Order`, and only a submit-only cycle that starts a new job has an
/// `Allocate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CyclePhase {
    /// Queue ordering: scoring and sorting. The availability profile is
    /// not built here: it is built by the first admit or held step that
    /// reads it (see [`Profile`](crate::Profile#building-after-starts)), so
    /// its cost lands in `Admit` when admit reads first (conservative
    /// backfill), outside the three phases when held does (EASY and its
    /// variants, once a head blocks), and nowhere for FCFS. The order
    /// checks of a clock-only re-run and a submit-only cycle, and the
    /// latter's sort of every key, also run outside the phases;
    /// when a check fails, the keys it scored are kept, and this phase
    /// scores the rest and sorts.
    Order,
    /// Per-job admission decisions (the held step runs between phases).
    /// In a same-instant follow-up, each is the job's re-diagnosis; in a
    /// clock-only re-run, which keeps the last holds, each is empty; in a
    /// submit-only cycle, a new job's is its admission, an old job's its
    /// re-diagnosis if it sorts behind a started new job, and otherwise
    /// empty.
    Admit,
    /// Live-cluster allocation attempts for admitted jobs.
    Allocate,
}

impl CyclePhase {
    /// Short label used in profiler tables.
    pub fn name(self) -> &'static str {
        match self {
            CyclePhase::Order => "order",
            CyclePhase::Admit => "admit",
            CyclePhase::Allocate => "allocate",
        }
    }
}

/// Observes planning cycles. All hooks have empty defaults, so a probe
/// implements only what it measures.
pub trait CycleProbe: std::fmt::Debug {
    /// A cycle with a non-empty queue begins at sim time `now` with
    /// `queue_depth` jobs pending.
    fn cycle_start(&mut self, now: SimTime, queue_depth: usize) {
        let _ = (now, queue_depth);
    }

    /// An internal phase segment begins.
    fn phase_start(&mut self, phase: CyclePhase) {
        let _ = phase;
    }

    /// The matching phase segment ends.
    fn phase_end(&mut self, phase: CyclePhase) {
        let _ = phase;
    }

    /// The cycle finished: `started` jobs were granted resources,
    /// `held` remain queued.
    fn cycle_end(&mut self, started: usize, held: usize) {
        let _ = (started, held);
    }

    /// The caller skipped the cycle at sim time `now` because the
    /// scheduler was settled (see
    /// [`BatchScheduler::is_settled`](crate::scheduler::BatchScheduler::is_settled)):
    /// `queue_depth` jobs stay queued with their last holds. No other hook
    /// fires for a skipped cycle.
    fn cycle_skipped(&mut self, now: SimTime, queue_depth: usize) {
        let _ = (now, queue_depth);
    }
}

/// The do-nothing probe behind the unprofiled
/// [`try_schedule`](crate::scheduler::BatchScheduler::try_schedule) path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl CycleProbe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(CyclePhase::Order.name(), "order");
        assert_eq!(CyclePhase::Admit.name(), "admit");
        assert_eq!(CyclePhase::Allocate.name(), "allocate");
    }

    #[test]
    fn no_probe_defaults_are_callable() {
        let mut p = NoProbe;
        p.cycle_start(SimTime::ZERO, 3);
        p.phase_start(CyclePhase::Order);
        p.phase_end(CyclePhase::Order);
        p.cycle_end(1, 2);
        p.cycle_skipped(SimTime::ZERO, 2);
    }
}
