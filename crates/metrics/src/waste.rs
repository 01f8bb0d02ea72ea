//! Allocated-vs-used accounting: the paper's core waste metric.
//!
//! §3 of the paper: with exclusive co-scheduling, either the QPU sits
//! allocated-but-idle (superconducting case) or the classical nodes do
//! (neutral-atom case). [`WasteTracker`] integrates both signals exactly:
//! `allocated(t)` (resources held) and `used(t)` (resources doing work);
//! the gap is the waste every experiment reports.

use hpcqc_simcore::stats::TimeWeighted;
use hpcqc_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Tracks allocated vs productively-used units of one resource class.
///
/// # Examples
///
/// ```
/// use hpcqc_metrics::waste::WasteTracker;
/// use hpcqc_simcore::time::SimTime;
///
/// let mut w = WasteTracker::new(SimTime::ZERO, 10.0);
/// w.set_allocated(SimTime::ZERO, 10.0);      // job holds 10 nodes
/// w.set_used(SimTime::ZERO, 10.0);           // ... and computes on all 10
/// w.set_used(SimTime::from_secs(60), 0.0);   // quantum phase: nodes idle
/// w.set_used(SimTime::from_secs(120), 10.0); // classical resumes
/// let end = SimTime::from_secs(180);
/// assert_eq!(w.allocated_unit_seconds(end), 1_800.0);
/// assert_eq!(w.used_unit_seconds(end), 1_200.0);
/// assert_eq!(w.wasted_unit_seconds(end), 600.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WasteTracker {
    allocated: TimeWeighted,
    used: TimeWeighted,
    capacity: f64,
}

impl WasteTracker {
    /// Creates a tracker for a resource with `capacity` units.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > 0`.
    pub fn new(start: SimTime, capacity: f64) -> Self {
        assert!(capacity > 0.0, "WasteTracker: capacity must be positive");
        WasteTracker {
            allocated: TimeWeighted::new(start, 0.0),
            used: TimeWeighted::new(start, 0.0),
            capacity,
        }
    }

    /// Sets the allocated unit count at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds capacity or is negative.
    pub fn set_allocated(&mut self, now: SimTime, value: f64) {
        assert!(
            (0.0..=self.capacity + 1e-9).contains(&value),
            "allocated {value} outside [0, {}]",
            self.capacity
        );
        self.allocated.set(now, value);
    }

    /// Adds a delta to the allocated unit count at `now`.
    pub fn add_allocated(&mut self, now: SimTime, delta: f64) {
        let v = self.allocated.current() + delta;
        self.set_allocated(now, v);
    }

    /// Sets the productively-used unit count at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds capacity or is negative.
    pub fn set_used(&mut self, now: SimTime, value: f64) {
        assert!(
            (0.0..=self.capacity + 1e-9).contains(&value),
            "used {value} outside [0, {}]",
            self.capacity
        );
        self.used.set(now, value);
    }

    /// Adds a delta to the used unit count at `now`.
    pub fn add_used(&mut self, now: SimTime, delta: f64) {
        let v = self.used.current() + delta;
        self.set_used(now, v);
    }

    /// Currently allocated units.
    pub fn allocated_now(&self) -> f64 {
        self.allocated.current()
    }

    /// Currently used units.
    pub fn used_now(&self) -> f64 {
        self.used.current()
    }

    /// The capacity this tracker was created with.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Allocated unit-seconds over `[start, until]`.
    pub fn allocated_unit_seconds(&self, until: SimTime) -> f64 {
        self.allocated.integral(until)
    }

    /// Used unit-seconds over `[start, until]`.
    pub fn used_unit_seconds(&self, until: SimTime) -> f64 {
        self.used.integral(until)
    }

    /// Allocated-but-unused unit-seconds over `[start, until]`.
    ///
    /// Clamped at zero: momentary used > allocated (shared-queue QPU use
    /// without exclusive allocation) counts as zero waste, not negative.
    pub fn wasted_unit_seconds(&self, until: SimTime) -> f64 {
        (self.allocated.integral(until) - self.used.integral(until)).max(0.0)
    }

    /// Allocation fraction of capacity over `[start, until]`.
    pub fn allocated_fraction(&self, until: SimTime) -> f64 {
        self.allocated.time_average(until) / self.capacity
    }

    /// Productive-use fraction of capacity over `[start, until]`.
    pub fn used_fraction(&self, until: SimTime) -> f64 {
        self.used.time_average(until) / self.capacity
    }

    /// Efficiency: used / allocated over `[start, until]`; 1.0 when nothing
    /// was ever allocated (no waste possible).
    pub fn efficiency(&self, until: SimTime) -> f64 {
        let alloc = self.allocated.integral(until);
        if alloc <= 0.0 {
            1.0
        } else {
            (self.used.integral(until) / alloc).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_superconducting_shape() {
        // 1 QPU allocated for 1 h, actually used 10 s per classical step
        // over 6 steps → 60 s of 3600 s.
        let mut w = WasteTracker::new(SimTime::ZERO, 1.0);
        w.set_allocated(SimTime::ZERO, 1.0);
        let mut t = 0u64;
        for _ in 0..6 {
            t += 590; // classical work, QPU idle
            w.set_used(SimTime::from_secs(t), 1.0);
            t += 10; // 10 s quantum task
            w.set_used(SimTime::from_secs(t), 0.0);
        }
        let end = SimTime::from_secs(3_600);
        w.set_allocated(end, 0.0);
        assert!((w.used_fraction(end) - 60.0 / 3_600.0).abs() < 1e-9);
        assert!(w.efficiency(end) < 0.02, "QPU efficiency must be tiny");
        assert!((w.wasted_unit_seconds(end) - 3_540.0).abs() < 1e-6);
    }

    #[test]
    fn add_variants() {
        let mut w = WasteTracker::new(SimTime::ZERO, 4.0);
        w.add_allocated(SimTime::ZERO, 4.0);
        w.add_used(SimTime::ZERO, 2.0);
        w.add_used(SimTime::from_secs(10), -2.0);
        assert_eq!(w.allocated_now(), 4.0);
        assert_eq!(w.used_now(), 0.0);
        assert_eq!(w.used_unit_seconds(SimTime::from_secs(10)), 20.0);
    }

    #[test]
    fn efficiency_with_no_allocation_is_one() {
        let w = WasteTracker::new(SimTime::ZERO, 2.0);
        assert_eq!(w.efficiency(SimTime::from_secs(100)), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn over_capacity_panics() {
        let mut w = WasteTracker::new(SimTime::ZERO, 1.0);
        w.set_allocated(SimTime::ZERO, 2.0);
    }

    #[test]
    fn fractions_normalized_by_capacity() {
        let mut w = WasteTracker::new(SimTime::ZERO, 10.0);
        w.set_allocated(SimTime::ZERO, 5.0);
        let end = SimTime::from_secs(100);
        assert!((w.allocated_fraction(end) - 0.5).abs() < 1e-12);
        assert_eq!(w.used_fraction(end), 0.0);
    }
}
