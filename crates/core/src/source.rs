//! Streaming job sources: feeding the simulator without materializing the
//! workload.
//!
//! A [`JobSource`] hands the facility simulator one time-ordered
//! [`JobSpec`] at a time. The simulator pulls lazily — it holds at most
//! one not-yet-submitted job — so a month-long, million-job scenario runs
//! in memory proportional to the jobs *in flight*, not the jobs in the
//! campaign. Every iterator of specs is a source through the blanket
//! impl: `hpcqc-gen`'s generative streams, and
//! `workload.jobs().iter().cloned()` over a materialized [`Workload`]
//! (which is how [`FacilitySim::run`](crate::sim::FacilitySim::run) is
//! implemented).
//!
//! [`Workload`]: hpcqc_workload::campaign::Workload
//!
//! The streamed and materialized paths produce **identical** outcomes: the
//! event loop schedules lazily-pulled arrivals in a front priority lane
//! (see [`EventQueue::schedule_front`](hpcqc_simcore::events::EventQueue::schedule_front)),
//! reproducing the tie-order a fully pre-scheduled calendar would have had.
//!
//! ## A worked example
//!
//! ```
//! use hpcqc_core::source::JobSource;
//! use hpcqc_core::{FacilitySim, Scenario, Strategy};
//! use hpcqc_workload::{JobClass, Pattern, Workload};
//! use hpcqc_qpu::Kernel;
//!
//! let workload = Workload::builder()
//!     .class(JobClass::new("vqe", Pattern::vqe(3, 60.0, Kernel::sampling(500))))
//!     .count(12)
//!     .generate(7);
//! let scenario = Scenario::builder()
//!     .strategy(Strategy::Vqpu { vqpus: 4 })
//!     .build();
//!
//! // The materialized and streamed paths agree exactly.
//! let materialized = FacilitySim::run(&scenario, &workload)?;
//! let mut source = workload.jobs().iter().cloned();
//! let streamed = FacilitySim::run_streamed(&scenario, &mut source)?;
//! assert_eq!(materialized.makespan, streamed.makespan);
//!
//! // Any iterator of specs is a source, including one that owns them
//! // (e.g. a generative stream).
//! let mut by_value = workload.jobs().to_vec().into_iter();
//! assert_eq!(by_value.next_job().unwrap().name(), workload.jobs()[0].name());
//! # Ok::<(), hpcqc_core::SimError>(())
//! ```

use hpcqc_workload::job::JobSpec;

/// A stream of jobs in non-decreasing submission order.
///
/// The simulator pulls the next job only when the previous one's arrival
/// fires, so implementations can synthesize jobs on demand and a consumed
/// job's spec is dropped as soon as the job finalizes. Sources must yield
/// specs with non-decreasing [`JobSpec::submit`] instants; an out-of-order
/// submit is clamped to the simulation clock (a warning sign, not a
/// crash).
pub trait JobSource {
    /// The next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// `(lower, upper)` bounds on the remaining job count, iterator-style.
    /// Purely advisory (used for log lines, never for allocation).
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Every iterator of job specs is a job source.
impl<I: Iterator<Item = JobSpec>> JobSource for I {
    fn next_job(&mut self) -> Option<JobSpec> {
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        Iterator::size_hint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_simcore::time::SimTime;

    fn job(name: &str, submit: u64) -> JobSpec {
        JobSpec::builder(name)
            .submit(SimTime::from_secs(submit))
            .build()
    }

    #[test]
    fn iterators_are_sources() {
        let jobs = vec![job("x", 0), job("y", 1)];
        let mut iter = jobs.into_iter();
        let source: &mut dyn JobSource = &mut iter;
        assert_eq!(source.next_job().unwrap().name(), "x");
        assert_eq!(source.size_hint(), (1, Some(1)));
    }
}
