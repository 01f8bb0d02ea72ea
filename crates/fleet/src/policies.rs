//! The built-in routing policies: [`PinFirst`], [`LeastLoaded`] and
//! [`TechAffinity`].
//!
//! All three decide over the same [`FleetCtx`] capability handle; they
//! differ only in what they optimize. [`PinFirst`] keeps each kernel on
//! its job's bound device, [`LeastLoaded`] minimizes queue wait,
//! [`TechAffinity`] minimizes on-device execution time with failover
//! around recalibration windows and downed devices.

use crate::ctx::{DeviceId, FleetCtx};
use crate::policy::RoutePolicy;
use hpcqc_qpu::kernel::Kernel;
use std::cmp::Ordering;

/// The earliest-free routable device, ties broken by index — the
/// selection rule the pre-fleet simulator applied to unpinned kernels.
/// Falls back to device 0 if nothing is routable (the simulator has
/// already failed the job in that case).
fn earliest_free(kernel: &Kernel, ctx: &FleetCtx<'_>) -> DeviceId {
    ctx.routable_ids(kernel)
        .min_by_key(|&d| (ctx.next_free(d), d.index()))
        .unwrap_or(DeviceId::new(0))
}

/// A kernel whose job was bound to a device by its scheduler allocation
/// stays there while that device can serve it; other kernels, and bound
/// ones whose device is down, take the earliest-free routable device.
///
/// This is the route of a scenario's device list, which runs as
/// [`FleetSpec::from_legacy`](crate::FleetSpec::from_legacy).
#[derive(Debug, Default)]
pub struct PinFirst;

impl PinFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        PinFirst
    }
}

impl RoutePolicy for PinFirst {
    fn name(&self) -> &str {
        "pin-first"
    }

    fn route(&mut self, kernel: &Kernel, ctx: &FleetCtx<'_>) -> DeviceId {
        if let Some(pin) = ctx.pinned() {
            if ctx.routable(pin, kernel) {
                return pin;
            }
        }
        earliest_free(kernel, ctx)
    }
}

/// Ignores pins entirely: every kernel goes to the routable device that
/// frees earliest (FIFO backlog), ties broken by index.
///
/// Under contention this drains heterogeneous fleets much faster than
/// [`PinFirst`]: a job pinned to a slow device by its allocation no
/// longer serializes behind it.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl RoutePolicy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn route(&mut self, kernel: &Kernel, ctx: &FleetCtx<'_>) -> DeviceId {
        earliest_free(kernel, ctx)
    }
}

/// Routes each kernel to the device whose timing model predicts the
/// fastest execution (technology affinity), failing over past devices
/// that are down or due for a recalibration window; ties break on
/// earlier `next_free`, then index.
///
/// When every capable device is due for recalibration the affinity
/// order applies anyway — someone has to pay the window.
#[derive(Debug, Default)]
pub struct TechAffinity;

impl TechAffinity {
    /// Creates the policy.
    pub fn new() -> Self {
        TechAffinity
    }
}

fn affinity_order(ctx: &FleetCtx<'_>, kernel: &Kernel, a: DeviceId, b: DeviceId) -> Ordering {
    ctx.est_exec_secs(a, kernel)
        .total_cmp(&ctx.est_exec_secs(b, kernel))
        .then(ctx.next_free(a).cmp(&ctx.next_free(b)))
        .then(a.index().cmp(&b.index()))
}

impl RoutePolicy for TechAffinity {
    fn name(&self) -> &str {
        "tech-affinity"
    }

    fn route(&mut self, kernel: &Kernel, ctx: &FleetCtx<'_>) -> DeviceId {
        let calm = ctx
            .routable_ids(kernel)
            .filter(|&d| !ctx.calibration_due(d))
            .min_by(|&a, &b| affinity_order(ctx, kernel, a, b));
        match calm {
            Some(d) => d,
            // Everyone routable is about to recalibrate: take the
            // fastest anyway (or fall back like everyone else).
            None => ctx
                .routable_ids(kernel)
                .min_by(|&a, &b| affinity_order(ctx, kernel, a, b))
                .unwrap_or(DeviceId::new(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_qpu::device::QpuDevice;
    use hpcqc_qpu::technology::Technology;
    use hpcqc_qpu::timing::CalibrationPolicy;
    use hpcqc_simcore::dist::Dist;
    use hpcqc_simcore::rng::SimRng;
    use hpcqc_simcore::time::{SimDuration, SimTime};

    fn fleet() -> Vec<QpuDevice> {
        vec![
            QpuDevice::new("sc-a", Technology::Superconducting, SimRng::seed_from(1))
                .with_calibration(None),
            QpuDevice::new("ion-a", Technology::TrappedIon, SimRng::seed_from(2))
                .with_calibration(None),
        ]
    }

    fn route(
        policy: &mut dyn RoutePolicy,
        devices: &[QpuDevice],
        down: &[bool],
        pinned: Option<usize>,
    ) -> usize {
        let caps = vec![None; devices.len()];
        let ctx = FleetCtx::new(
            SimTime::ZERO,
            devices,
            down,
            &caps,
            pinned.map(DeviceId::new),
        );
        policy.route(&Kernel::sampling(1_000), &ctx).index()
    }

    #[test]
    fn pin_first_honours_the_pin() {
        let devices = fleet();
        assert_eq!(
            route(&mut PinFirst::new(), &devices, &[false, false], Some(1)),
            1
        );
        assert_eq!(
            route(&mut PinFirst::new(), &devices, &[false, false], None),
            0
        );
        // A downed pin fails over to the earliest-free device.
        assert_eq!(
            route(&mut PinFirst::new(), &devices, &[false, true], Some(1)),
            0
        );
    }

    #[test]
    fn least_loaded_ignores_pins_and_tracks_backlog() {
        let mut devices = fleet();
        assert_eq!(
            route(&mut LeastLoaded::new(), &devices, &[false, false], Some(1)),
            0,
            "idle fleet: index tie-break, pin ignored"
        );
        // Pile work on device 0; the ion machine frees earlier.
        for _ in 0..40 {
            devices[0]
                .enqueue(&Kernel::sampling(100_000), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(
            route(&mut LeastLoaded::new(), &devices, &[false, false], Some(0)),
            1
        );
    }

    #[test]
    fn tech_affinity_prefers_fast_technology() {
        let devices = fleet();
        // Superconducting executes far faster than trapped-ion.
        assert_eq!(
            route(&mut TechAffinity::new(), &devices, &[false, false], Some(1)),
            0
        );
        // ...but fails over when the fast device is down.
        assert_eq!(
            route(&mut TechAffinity::new(), &devices, &[true, false], None),
            1
        );
    }

    #[test]
    fn tech_affinity_steers_around_recalibration() {
        let recal = CalibrationPolicy::new(SimDuration::from_secs(60), Dist::constant(30.0));
        let devices = vec![
            QpuDevice::new("sc-a", Technology::Superconducting, SimRng::seed_from(1))
                .with_calibration(Some(recal)),
            QpuDevice::new("ion-a", Technology::TrappedIon, SimRng::seed_from(2))
                .with_calibration(None),
        ];
        let caps = [None, None];
        let down = [false, false];
        // Past the period, the superconducting device owes a window: the
        // kernel fails over to the slower ion machine.
        let ctx = FleetCtx::new(SimTime::from_secs(120), &devices, &down, &caps, None);
        assert_eq!(
            TechAffinity::new()
                .route(&Kernel::sampling(1_000), &ctx)
                .index(),
            1
        );
    }

    #[test]
    fn all_policies_respect_capability() {
        let devices = fleet();
        let down = [false, false];
        let caps = [Some(10), None];
        let heavy = Kernel::builder("heavy")
            .qubits(8)
            .shots(500)
            .build()
            .unwrap();
        for spec in crate::spec::ALL_ROUTES {
            let mut policy = spec.build();
            let ctx = FleetCtx::new(
                SimTime::ZERO,
                &devices,
                &down,
                &caps,
                Some(DeviceId::new(0)),
            );
            assert_eq!(
                policy.route(&heavy, &ctx).index(),
                1,
                "{}: device 0 caps at 10 shots",
                policy.name()
            );
        }
    }
}
