//! The routing capability handle: [`DeviceId`] and [`FleetCtx`].
//!
//! A [`FleetCtx`] is built by the simulator for every routing decision
//! and exposes exactly what a [`RoutePolicy`](crate::RoutePolicy) may
//! observe: per-device queue state, the timing model's execution
//! estimate, calibration windows and service status. Mutation stays with
//! the simulator — a policy picks a device, it never touches one.

use hpcqc_qpu::device::QpuDevice;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::time::{SimDuration, SimTime};
use std::fmt;

/// Index of a device within its fleet (stable: the order of
/// [`FleetSpec::devices`](crate::FleetSpec::devices)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(usize);

impl DeviceId {
    /// Wraps a raw fleet index.
    pub fn new(index: usize) -> Self {
        DeviceId(index)
    }

    /// The raw fleet index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Read-only snapshot a [`RoutePolicy`](crate::RoutePolicy) decides
/// against: the live devices plus the fleet's service metadata, at one
/// routing instant.
///
/// The `down` and `shot_capacity` slices are indexed like `devices`;
/// [`FleetCtx::new`] debug-asserts the lengths agree.
#[derive(Debug)]
pub struct FleetCtx<'a> {
    now: SimTime,
    devices: &'a [QpuDevice],
    down: &'a [bool],
    shot_capacity: &'a [Option<u32>],
    pinned: Option<DeviceId>,
}

impl<'a> FleetCtx<'a> {
    /// Builds a routing snapshot over the live devices.
    pub fn new(
        now: SimTime,
        devices: &'a [QpuDevice],
        down: &'a [bool],
        shot_capacity: &'a [Option<u32>],
        pinned: Option<DeviceId>,
    ) -> Self {
        debug_assert_eq!(devices.len(), down.len());
        debug_assert_eq!(devices.len(), shot_capacity.len());
        FleetCtx {
            now,
            devices,
            down,
            shot_capacity,
            pinned,
        }
    }

    /// The routing instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if the fleet has no devices (never the case for validated
    /// specs).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device the job's scheduler allocation bound it to, if any.
    /// [`PinFirst`](crate::policies::PinFirst) honours this; load-aware
    /// policies may ignore it.
    pub fn pinned(&self) -> Option<DeviceId> {
        self.pinned
    }

    /// The device's name (empty for an out-of-range id).
    pub fn name(&self, d: DeviceId) -> &str {
        self.devices.get(d.index()).map_or("", |dev| dev.name())
    }

    /// The device's technology (superconducting for an out-of-range id).
    pub fn technology(&self, d: DeviceId) -> Technology {
        self.devices
            .get(d.index())
            .map_or(Technology::Superconducting, |dev| dev.technology())
    }

    /// The device's qubit count (0 for an out-of-range id).
    pub fn qubits(&self, d: DeviceId) -> u32 {
        self.devices.get(d.index()).map_or(0, |dev| dev.qubits())
    }

    /// The instant the device's FIFO queue drains — the earliest a new
    /// kernel could start. The raw device value is exposed (it may lie in
    /// the past for an idle device; clamp with [`FleetCtx::now`] for
    /// wall-relative headroom) so that devices ordered by `next_free`
    /// tie on the raw instant, not on the clamped one.
    pub fn next_free(&self, d: DeviceId) -> SimTime {
        self.devices
            .get(d.index())
            .map_or(self.now, |dev| dev.next_free())
    }

    /// How long a kernel submitted now would queue behind the device's
    /// backlog (excludes any recalibration that may trigger).
    pub fn backlog(&self, d: DeviceId) -> SimDuration {
        self.devices
            .get(d.index())
            .map_or(SimDuration::ZERO, |dev| dev.backlog(self.now))
    }

    /// Mean execution seconds the device's timing model predicts for the
    /// kernel (infinite for an out-of-range id, so it sorts last).
    pub fn est_exec_secs(&self, d: DeviceId, kernel: &Kernel) -> f64 {
        self.devices.get(d.index()).map_or(f64::INFINITY, |dev| {
            dev.timing().mean_job_secs(kernel.shots())
        })
    }

    /// `true` if the device would run a recalibration window before its
    /// next task (the failover signal for
    /// [`TechAffinity`](crate::policies::TechAffinity)).
    pub fn calibration_due(&self, d: DeviceId) -> bool {
        self.devices
            .get(d.index())
            .is_some_and(|dev| dev.calibration_due(self.next_free(d).max(self.now)))
    }

    /// `true` if the fleet marks the device out of service.
    pub fn is_down(&self, d: DeviceId) -> bool {
        self.down.get(d.index()).copied().unwrap_or(true)
    }

    /// The device's per-kernel shot cap, if any.
    pub fn shot_capacity(&self, d: DeviceId) -> Option<u32> {
        self.shot_capacity.get(d.index()).copied().flatten()
    }

    /// `true` if the device can physically run the kernel: enough qubits
    /// and a shot count within its cap. Service status is separate — see
    /// [`FleetCtx::routable`].
    pub fn capable(&self, d: DeviceId, kernel: &Kernel) -> bool {
        self.qubits(d) >= kernel.qubits()
            && self
                .shot_capacity(d)
                .is_none_or(|cap| kernel.shots() <= cap)
    }

    /// `true` if a policy may route the kernel here: capable and in
    /// service.
    pub fn routable(&self, d: DeviceId, kernel: &Kernel) -> bool {
        !self.is_down(d) && self.capable(d, kernel)
    }

    /// All devices the kernel may route to, in index order.
    pub fn routable_ids<'k>(&'k self, kernel: &'k Kernel) -> impl Iterator<Item = DeviceId> + 'k {
        (0..self.len())
            .map(DeviceId::new)
            .filter(move |&d| self.routable(d, kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_simcore::rng::SimRng;

    fn two_devices() -> Vec<QpuDevice> {
        vec![
            QpuDevice::new("sc-a", Technology::Superconducting, SimRng::seed_from(1))
                .with_calibration(None),
            QpuDevice::new("ion-a", Technology::TrappedIon, SimRng::seed_from(2))
                .with_calibration(None)
                .with_qubits(16),
        ]
    }

    #[test]
    fn exposes_device_shape() {
        let devices = two_devices();
        let down = [false, false];
        let caps = [None, Some(500)];
        let ctx = FleetCtx::new(SimTime::from_secs(5), &devices, &down, &caps, None);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.name(DeviceId::new(1)), "ion-a");
        assert_eq!(ctx.technology(DeviceId::new(1)), Technology::TrappedIon);
        assert_eq!(ctx.qubits(DeviceId::new(1)), 16);
        assert_eq!(
            ctx.next_free(DeviceId::new(0)),
            SimTime::ZERO,
            "idle device exposes its raw drain instant, not the clock"
        );
        assert_eq!(ctx.backlog(DeviceId::new(0)), SimDuration::ZERO);
        assert_eq!(ctx.shot_capacity(DeviceId::new(1)), Some(500));
        assert!(ctx.pinned().is_none());
    }

    #[test]
    fn capability_checks_qubits_and_shots() {
        let devices = two_devices();
        let down = [false, true];
        let caps = [Some(1_000), None];
        let ctx = FleetCtx::new(SimTime::ZERO, &devices, &down, &caps, None);
        let small = Kernel::builder("k").qubits(8).shots(800).build().unwrap();
        let wide = Kernel::builder("k").qubits(64).shots(800).build().unwrap();
        let heavy = Kernel::builder("k").qubits(8).shots(5_000).build().unwrap();
        assert!(ctx.capable(DeviceId::new(0), &small));
        assert!(ctx.capable(DeviceId::new(1), &small));
        assert!(!ctx.capable(DeviceId::new(1), &wide), "16-qubit device");
        assert!(!ctx.capable(DeviceId::new(0), &heavy), "1000-shot cap");
        // Device 1 is down: capable but not routable.
        assert!(!ctx.routable(DeviceId::new(1), &small));
        assert_eq!(
            ctx.routable_ids(&small).collect::<Vec<_>>(),
            vec![DeviceId::new(0)]
        );
    }

    #[test]
    fn out_of_range_ids_are_inert() {
        let devices = two_devices();
        let down = [false, false];
        let caps = [None, None];
        let ctx = FleetCtx::new(SimTime::ZERO, &devices, &down, &caps, None);
        let ghost = DeviceId::new(9);
        let k = Kernel::sampling(100);
        assert_eq!(ctx.name(ghost), "");
        assert_eq!(ctx.qubits(ghost), 0);
        assert!(ctx.is_down(ghost));
        assert!(!ctx.routable(ghost, &k));
        assert!(ctx.est_exec_secs(ghost, &k).is_infinite());
    }

    #[test]
    fn est_exec_tracks_technology_speed() {
        let devices = two_devices();
        let down = [false, false];
        let caps = [None, None];
        let ctx = FleetCtx::new(SimTime::ZERO, &devices, &down, &caps, None);
        let k = Kernel::sampling(1_000);
        let sc = ctx.est_exec_secs(DeviceId::new(0), &k);
        let ion = ctx.est_exec_secs(DeviceId::new(1), &k);
        assert!(
            sc < ion,
            "superconducting ({sc:.2}s) must beat trapped-ion ({ion:.2}s)"
        );
    }
}
