//! A physical QPU device with FIFO execution semantics.
//!
//! The device is a deterministic state machine driven by the simulation:
//! tasks submitted with [`QpuDevice::enqueue`] run in submission order, one
//! at a time (current QPUs do not multiplex circuits), with periodic
//! recalibration windows injected per the device's [`CalibrationPolicy`].
//!
//! The device is the *shared* resource behind the paper's Virtual-QPU
//! proposal: N VQPU gres units all funnel into one `QpuDevice`, and the
//! interleaving delay the paper bounds by the VQPU count emerges from this
//! FIFO.

use crate::error::QpuError;
use crate::kernel::Kernel;
use crate::technology::Technology;
use crate::timing::{CalibrationPolicy, TaskTiming, TimingModel};
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The record of one task execution on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskExecution {
    /// When the task was submitted to the device queue.
    pub submitted: SimTime,
    /// When it started executing (after queueing and any recalibration).
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
    /// Device recalibration time that delayed this task (not charged as
    /// execution).
    pub recalibration: SimDuration,
    /// The sampled timing decomposition.
    pub timing: TaskTiming,
}

impl TaskExecution {
    /// Time spent waiting in the device queue (including recalibration).
    pub fn wait(&self) -> SimDuration {
        self.start.since(self.submitted)
    }

    /// Time spent executing on the hardware.
    pub fn service(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Total turnaround from submission to completion.
    pub fn turnaround(&self) -> SimDuration {
        self.end.since(self.submitted)
    }
}

/// A physical quantum processing unit.
///
/// # Examples
///
/// ```
/// use hpcqc_qpu::{Kernel, QpuDevice, Technology};
/// use hpcqc_simcore::{SimRng, SimTime};
///
/// let mut qpu = QpuDevice::new("sc-1", Technology::Superconducting, SimRng::seed_from(7));
/// let kernel = Kernel::sampling(1_000);
/// let exec = qpu.enqueue(&kernel, SimTime::ZERO)?;
/// assert!(exec.end > exec.start);
/// # Ok::<(), hpcqc_qpu::QpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QpuDevice {
    name: String,
    technology: Technology,
    qubits: u32,
    timing: TimingModel,
    calibration: Option<CalibrationPolicy>,
    rng: SimRng,
    created_at: SimTime,
    busy_until: SimTime,
    last_calibration: SimTime,
    total_busy: SimDuration,
    total_recalibration: SimDuration,
    tasks_executed: u64,
}

impl QpuDevice {
    /// Creates a device with the technology's default timing, qubit count
    /// and a daily calibration cadence.
    pub fn new(name: impl Into<String>, technology: Technology, rng: SimRng) -> Self {
        QpuDevice {
            name: name.into(),
            technology,
            qubits: technology.typical_qubits(),
            timing: technology.timing(),
            calibration: Some(CalibrationPolicy::daily()),
            rng,
            created_at: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            last_calibration: SimTime::ZERO,
            total_busy: SimDuration::ZERO,
            total_recalibration: SimDuration::ZERO,
            tasks_executed: 0,
        }
    }

    /// Overrides the qubit count.
    pub fn with_qubits(mut self, qubits: u32) -> Self {
        self.qubits = qubits;
        self
    }

    /// Overrides the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides (or disables, with `None`) periodic recalibration.
    pub fn with_calibration(mut self, calibration: Option<CalibrationPolicy>) -> Self {
        self.calibration = calibration;
        self
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Number of qubits.
    pub fn qubits(&self) -> u32 {
        self.qubits
    }

    /// The timing model in force.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The earliest instant a new submission could start executing.
    pub fn next_free(&self) -> SimTime {
        self.busy_until
    }

    /// How long a task submitted at `now` would wait before starting
    /// (queue backlog only; excludes any recalibration that may trigger).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// `true` if a recalibration window would trigger for a task the
    /// device next touches at `at` — the same period test
    /// [`QpuDevice::enqueue`] applies, but without consuming RNG (the
    /// window length is sampled only when a task actually arrives).
    /// Routing policies use this to steer around devices about to
    /// recalibrate.
    pub fn calibration_due(&self, at: SimTime) -> bool {
        self.calibration
            .as_ref()
            .is_some_and(|pol| at.saturating_since(self.last_calibration) >= pol.period())
    }

    /// Submits a kernel at `submitted`; it executes after the current
    /// backlog (FIFO) plus any due recalibration window.
    ///
    /// # Errors
    ///
    /// Returns [`QpuError::KernelTooLarge`] if the kernel needs more qubits
    /// than the device has.
    ///
    /// # Panics
    ///
    /// Panics if `submitted` precedes a previously submitted task's
    /// submission processing (the caller must submit in nondecreasing time
    /// order, which an event-driven simulation does naturally).
    pub fn enqueue(
        &mut self,
        kernel: &Kernel,
        submitted: SimTime,
    ) -> Result<TaskExecution, QpuError> {
        if kernel.qubits() > self.qubits {
            return Err(QpuError::KernelTooLarge {
                requested: kernel.qubits(),
                available: self.qubits,
            });
        }
        let queue_start = submitted.max(self.busy_until);
        // Recalibration triggers when the device would next touch a task.
        let recalibration = self
            .calibration
            .as_ref()
            .and_then(|pol| pol.due(self.last_calibration, queue_start, &mut self.rng))
            .unwrap_or(SimDuration::ZERO);
        // Instants saturate at the end of time, as the calendar's do.
        let start = queue_start.saturating_add(recalibration);
        if !recalibration.is_zero() {
            self.last_calibration = start;
            self.total_recalibration += recalibration;
        }
        let timing = self.timing.sample_task(kernel.shots(), &mut self.rng);
        let end = start.saturating_add(timing.total());
        self.busy_until = end;
        self.total_busy += timing.total();
        self.tasks_executed += 1;
        Ok(TaskExecution {
            submitted,
            start,
            end,
            recalibration,
            timing,
        })
    }

    /// Number of tasks executed so far.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// Total hardware-busy time accumulated (task execution only).
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Total time spent in recalibration windows.
    pub fn total_recalibration(&self) -> SimDuration {
        self.total_recalibration
    }

    /// Fraction of `[creation, until]` the device spent executing tasks.
    ///
    /// Note: `busy_until` may exceed `until` if work is still queued; the
    /// numerator counts all *scheduled* busy time, so pass an `until` at or
    /// after the last completion for exact figures.
    pub fn utilization(&self, until: SimTime) -> f64 {
        let span = until.saturating_since(self.created_at).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            (self.total_busy.as_secs_f64() / span).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_simcore::dist::Dist;

    fn fixed_device() -> QpuDevice {
        QpuDevice::new("test", Technology::Superconducting, SimRng::seed_from(1))
            .with_timing(TimingModel::new(Dist::constant(0.01), Dist::constant(2.0)))
            .with_calibration(None)
            .with_qubits(16)
    }

    #[test]
    fn fifo_execution_order() {
        let mut qpu = fixed_device();
        let k = Kernel::sampling(100); // 2 s setup + 1 s shots = 3 s
        let a = qpu.enqueue(&k, SimTime::ZERO).unwrap();
        let b = qpu.enqueue(&k, SimTime::ZERO).unwrap();
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_secs(3));
        assert_eq!(
            b.start,
            SimTime::from_secs(3),
            "second task waits for the first"
        );
        assert_eq!(b.wait(), SimDuration::from_secs(3));
    }

    #[test]
    fn idle_device_starts_immediately() {
        let mut qpu = fixed_device();
        let k = Kernel::sampling(100);
        let a = qpu.enqueue(&k, SimTime::from_secs(100)).unwrap();
        assert_eq!(a.start, SimTime::from_secs(100));
        assert_eq!(a.wait(), SimDuration::ZERO);
    }

    #[test]
    fn too_large_kernel_rejected() {
        let mut qpu = fixed_device();
        let k = Kernel::builder("big").qubits(64).build().unwrap();
        assert!(matches!(
            qpu.enqueue(&k, SimTime::ZERO),
            Err(QpuError::KernelTooLarge {
                requested: 64,
                available: 16
            })
        ));
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let mut qpu = fixed_device();
        let k = Kernel::sampling(100); // 3 s per task
        qpu.enqueue(&k, SimTime::ZERO).unwrap();
        // 3 busy seconds over a 30 s window.
        assert!((qpu.utilization(SimTime::from_secs(30)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn recalibration_delays_but_not_busy() {
        let pol = CalibrationPolicy::new(SimDuration::from_secs(10), Dist::constant(5.0));
        let mut qpu = fixed_device().with_calibration(Some(pol));
        let k = Kernel::sampling(100);
        // At t=0 a calibration is "due" (last at t=0, elapsed 0 < 10? no).
        let a = qpu.enqueue(&k, SimTime::ZERO).unwrap();
        assert_eq!(a.recalibration, SimDuration::ZERO);
        // At t=20 > period, the next task pays the 5 s calibration first.
        let b = qpu.enqueue(&k, SimTime::from_secs(20)).unwrap();
        assert_eq!(b.recalibration, SimDuration::from_secs(5));
        assert_eq!(b.start, SimTime::from_secs(25));
        assert_eq!(qpu.total_recalibration(), SimDuration::from_secs(5));
    }

    #[test]
    fn calibration_due_mirrors_enqueue_without_rng() {
        let pol = CalibrationPolicy::new(SimDuration::from_secs(10), Dist::constant(5.0));
        let mut qpu = fixed_device().with_calibration(Some(pol));
        assert!(!qpu.calibration_due(SimTime::ZERO));
        assert!(qpu.calibration_due(SimTime::from_secs(10)));
        let k = Kernel::sampling(100);
        qpu.enqueue(&k, SimTime::from_secs(20)).unwrap();
        // The enqueue recalibrated at t=20..25; the clock restarts there.
        assert!(!qpu.calibration_due(SimTime::from_secs(30)));
        assert!(qpu.calibration_due(SimTime::from_secs(35)));
        assert!(
            !fixed_device().calibration_due(SimTime::from_secs(360_000)),
            "no policy, never due"
        );
    }

    #[test]
    fn backlog_reports_queue_depth_in_time() {
        let mut qpu = fixed_device();
        let k = Kernel::sampling(100);
        qpu.enqueue(&k, SimTime::ZERO).unwrap();
        qpu.enqueue(&k, SimTime::ZERO).unwrap();
        assert_eq!(qpu.backlog(SimTime::ZERO), SimDuration::from_secs(6));
        assert_eq!(qpu.backlog(SimTime::from_secs(100)), SimDuration::ZERO);
    }

    #[test]
    fn counters_accumulate() {
        let mut qpu = fixed_device();
        let k = Kernel::sampling(100);
        for _ in 0..4 {
            qpu.enqueue(&k, SimTime::ZERO).unwrap();
        }
        assert_eq!(qpu.tasks_executed(), 4);
        assert_eq!(qpu.total_busy(), SimDuration::from_secs(12));
    }

    #[test]
    fn default_device_uses_technology_profile() {
        let qpu = QpuDevice::new("na", Technology::NeutralAtom, SimRng::seed_from(2));
        assert_eq!(qpu.qubits(), Technology::NeutralAtom.typical_qubits());
        assert!(qpu.timing().register_calibration().is_some());
    }
}
