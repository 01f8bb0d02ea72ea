//! Fault-injection plans: what goes wrong, and how often.
//!
//! A [`FaultPlan`] bundles three independent fault processes plus the
//! recovery policy that counters them:
//!
//! | process | struct | models |
//! |---|---|---|
//! | node faults | [`NodeFaults`] | classical node MTBF + repair |
//! | device faults | [`DeviceFaults`] | QPU MTBF/repair, drift, transient errors |
//! | calibration drift | [`DriftModel`] | per-shot drift → forced recalibration |
//!
//! Every knob except the drift parameters is optional in JSON; accessors
//! provide the documented defaults so specs stay terse.

use crate::recovery::RecoverySpec;
use hpcqc_simcore::dist::Dist;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default unscheduled-recalibration duration when a drift model does not
/// specify one, seconds.
pub const DEFAULT_RECALIBRATION_SECS: f64 = 120.0;

/// A serde-able fault-injection plan.
///
/// All sections are optional: an empty plan is *inert* and leaves the
/// simulation byte-identical to a fault-free run. See the crate docs for a
/// worked example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Human-readable label, used in sweep-grid CSV columns and CLI tables.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub name: Option<String>,
    /// Classical node fault process; `None` means nodes never fail.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub node: Option<NodeFaults>,
    /// QPU device fault process, applied uniformly to every device with
    /// independent forked RNG streams.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub device: Option<DeviceFaults>,
    /// Recovery policy; `None` means [`RecoverySpec`] defaults.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub recovery: Option<RecoverySpec>,
}

impl FaultPlan {
    /// An empty plan with the given label.
    pub fn named(name: impl Into<String>) -> FaultPlan {
        FaultPlan {
            name: Some(name.into()),
            ..FaultPlan::default()
        }
    }

    /// The canonical inert plan — no fault processes, recovery disabled.
    ///
    /// Useful as the baseline cell of a `faults` sweep axis.
    pub fn none() -> FaultPlan {
        FaultPlan::named("none").recovery(RecoverySpec::none())
    }

    /// Sets the node fault process.
    pub fn node(mut self, node: NodeFaults) -> FaultPlan {
        self.node = Some(node);
        self
    }

    /// Sets the device fault process.
    pub fn device(mut self, device: DeviceFaults) -> FaultPlan {
        self.device = Some(device);
        self
    }

    /// Sets the recovery policy.
    pub fn recovery(mut self, recovery: RecoverySpec) -> FaultPlan {
        self.recovery = Some(recovery);
        self
    }

    /// The display label: the `name` field, or `"faults"` if unnamed.
    pub fn label(&self) -> &str {
        self.name.as_deref().unwrap_or("faults")
    }

    /// `true` if the plan injects nothing: no node process, no device
    /// process, no drift, zero transient error rate.
    ///
    /// The simulator skips the fault machinery entirely for inert plans,
    /// which is what keeps fault-free runs byte-identical.
    pub fn is_inert(&self) -> bool {
        self.node.is_none() && self.device.as_ref().is_none_or(DeviceFaults::is_inert)
    }

    /// The effective recovery policy (explicit or all-defaults).
    pub fn recovery_or_default(&self) -> RecoverySpec {
        self.recovery.clone().unwrap_or_default()
    }

    /// Checks every knob for sanity; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(name) = &self.name {
            if name.trim().is_empty() {
                return Err("fault plan: name must be non-empty".into());
            }
        }
        if let Some(node) = &self.node {
            node.validate()?;
        }
        if let Some(device) = &self.device {
            device.validate()?;
        }
        if let Some(recovery) = &self.recovery {
            recovery.validate()?;
        }
        Ok(())
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classical node fault process: MTBF + repair.
///
/// A job that loses a node is requeued within the plan's
/// [`RecoverySpec::max_requeues`] budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFaults {
    /// Time between node failures (facility-wide process).
    pub mtbf: Dist,
    /// Repair duration for a failed node.
    pub repair: Dist,
}

impl NodeFaults {
    /// Node faults with exponential MTBF and constant repair, both seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `mtbf_secs > 0` and `repair_secs ≥ 0` (delegated to the
    /// [`Dist`] constructors).
    pub fn exponential(mtbf_secs: f64, repair_secs: f64) -> NodeFaults {
        NodeFaults {
            mtbf: Dist::exponential(mtbf_secs),
            repair: Dist::constant(repair_secs),
        }
    }

    /// Checks the distributions for sanity.
    pub fn validate(&self) -> Result<(), String> {
        check_mtbf("node faults", &self.mtbf)
    }
}

/// Per-QPU fault process, applied uniformly to every device in the fleet.
///
/// Each device gets its own forked RNG stream, so adding a device does not
/// perturb the fault trajectory of the others.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DeviceFaults {
    /// Time between device outages; `None` disables outages.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub mtbf: Option<Dist>,
    /// Repair duration for a downed device; required when `mtbf` is set.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub repair: Option<Dist>,
    /// Calibration drift accumulated per executed shot; `None` disables
    /// drift.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub drift: Option<DriftModel>,
    /// Probability that a single kernel execution fails transiently
    /// (result discarded, device time still consumed). `None` means 0.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub kernel_error_rate: Option<f64>,
}

impl DeviceFaults {
    /// An empty (inert) device fault process, to be filled via builders.
    pub fn new() -> DeviceFaults {
        DeviceFaults::default()
    }

    /// Sets the outage MTBF distribution.
    pub fn mtbf(mut self, mtbf: Dist) -> DeviceFaults {
        self.mtbf = Some(mtbf);
        self
    }

    /// Sets the outage repair distribution.
    pub fn repair(mut self, repair: Dist) -> DeviceFaults {
        self.repair = Some(repair);
        self
    }

    /// Sets the drift model.
    pub fn drift(mut self, drift: DriftModel) -> DeviceFaults {
        self.drift = Some(drift);
        self
    }

    /// Sets the transient kernel error rate (probability in `[0, 1]`).
    pub fn kernel_error_rate(mut self, rate: f64) -> DeviceFaults {
        self.kernel_error_rate = Some(rate);
        self
    }

    /// The outage process, if fully specified (both MTBF and repair).
    pub fn outage_process(&self) -> Option<(&Dist, &Dist)> {
        match (&self.mtbf, &self.repair) {
            (Some(m), Some(r)) => Some((m, r)),
            _ => None,
        }
    }

    /// The effective transient kernel error rate.
    pub fn error_rate(&self) -> f64 {
        self.kernel_error_rate.unwrap_or(0.0)
    }

    /// `true` if no outage process, no drift, and a zero error rate.
    pub fn is_inert(&self) -> bool {
        self.mtbf.is_none() && self.drift.is_none() && self.error_rate() <= 0.0
    }

    /// Checks the knobs for sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.mtbf.is_some() && self.repair.is_none() {
            return Err("device faults: mtbf requires a repair distribution".into());
        }
        if let Some(mtbf) = &self.mtbf {
            check_mtbf("device faults", mtbf)?;
        }
        if let Some(rate) = self.kernel_error_rate {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "device faults: kernel_error_rate must be in [0, 1], got {rate}"
                ));
            }
        }
        if let Some(drift) = &self.drift {
            drift.validate()?;
        }
        Ok(())
    }
}

/// Rejects an MTBF whose mean rounds to a zero `SimDuration`: every
/// sample would then be zero too, and the failure event would reschedule
/// itself at the same instant forever.
fn check_mtbf(what: &str, mtbf: &Dist) -> Result<(), String> {
    if mtbf.mean_duration().is_zero() {
        return Err(format!(
            "{what}: mtbf must have a positive mean of at least 1 ns, got {}",
            mtbf.mean()
        ));
    }
    Ok(())
}

/// Calibration drift: every executed shot nudges a device away from its
/// calibration point; crossing `threshold` forces an unscheduled
/// recalibration that takes the device down for `recalibration` time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftModel {
    /// Drift accumulated per executed shot (arbitrary units).
    pub per_shot: f64,
    /// Accumulated drift that triggers forced recalibration.
    pub threshold: f64,
    /// Downtime for the forced recalibration; `None` means a constant
    /// [`DEFAULT_RECALIBRATION_SECS`].
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub recalibration: Option<Dist>,
}

impl DriftModel {
    /// A drift model with the default recalibration duration.
    pub fn new(per_shot: f64, threshold: f64) -> DriftModel {
        DriftModel {
            per_shot,
            threshold,
            recalibration: None,
        }
    }

    /// Sets the forced-recalibration downtime distribution.
    pub fn recalibration(mut self, dist: Dist) -> DriftModel {
        self.recalibration = Some(dist);
        self
    }

    /// The effective recalibration downtime distribution.
    pub fn recalibration_dist(&self) -> Dist {
        self.recalibration.clone().unwrap_or(Dist::Constant {
            value: DEFAULT_RECALIBRATION_SECS,
        })
    }

    /// How many shots until the threshold is crossed, from a clean slate.
    pub fn shots_to_threshold(&self) -> f64 {
        self.threshold / self.per_shot
    }

    /// Checks the knobs for sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !self.per_shot.is_finite() || self.per_shot <= 0.0 {
            return Err(format!(
                "drift: per_shot must be finite and > 0, got {}",
                self.per_shot
            ));
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(format!(
                "drift: threshold must be finite and > 0, got {}",
                self.threshold
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::CheckpointSpec;

    #[test]
    fn empty_plan_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert_eq!(plan.label(), "faults");
        plan.validate().unwrap();
    }

    #[test]
    fn none_preset_is_inert_with_disabled_recovery() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert_eq!(plan.label(), "none");
        let rec = plan.recovery_or_default();
        assert_eq!(rec.kernel_retry_cap(), 0);
        assert!(!rec.failover_enabled());
        assert_eq!(rec.requeue_budget(), 0);
        plan.validate().unwrap();
    }

    #[test]
    fn device_error_rate_makes_plan_active() {
        let plan = FaultPlan::named("errs").device(DeviceFaults::new().kernel_error_rate(0.1));
        assert!(!plan.is_inert());
        plan.validate().unwrap();
    }

    #[test]
    fn drift_alone_makes_plan_active() {
        let plan =
            FaultPlan::named("drift").device(DeviceFaults::new().drift(DriftModel::new(1e-4, 1.0)));
        assert!(!plan.is_inert());
        assert_eq!(
            plan.device
                .as_ref()
                .unwrap()
                .drift
                .as_ref()
                .unwrap()
                .shots_to_threshold(),
            10_000.0
        );
    }

    #[test]
    fn mtbf_without_repair_rejected() {
        let plan =
            FaultPlan::named("bad").device(DeviceFaults::new().mtbf(Dist::exponential(3600.0)));
        let err = plan.validate().unwrap_err();
        assert!(err.contains("repair"), "{err}");
    }

    #[test]
    fn out_of_range_error_rate_rejected() {
        let plan = FaultPlan::named("bad").device(DeviceFaults::new().kernel_error_rate(1.5));
        assert!(plan.validate().unwrap_err().contains("[0, 1]"));
        let nan = FaultPlan::named("bad").device(DeviceFaults::new().kernel_error_rate(f64::NAN));
        assert!(nan.validate().is_err());
    }

    #[test]
    fn bad_drift_rejected() {
        assert!(DriftModel::new(0.0, 1.0).validate().is_err());
        assert!(DriftModel::new(1e-4, 0.0).validate().is_err());
        assert!(DriftModel::new(f64::INFINITY, 1.0).validate().is_err());
    }

    #[test]
    fn empty_name_rejected() {
        let plan = FaultPlan::named("  ");
        assert!(plan.validate().unwrap_err().contains("name"));
    }

    #[test]
    fn node_faults_validate() {
        NodeFaults::exponential(7200.0, 300.0).validate().unwrap();
    }

    #[test]
    fn sub_nanosecond_node_mtbf_rejected() {
        for mtbf in [
            Dist::constant(1e-10),
            Dist::constant(0.0),
            Dist::exponential(1e-12),
        ] {
            let node = NodeFaults {
                mtbf,
                repair: Dist::constant(60.0),
            };
            let err = node.validate().unwrap_err();
            assert!(err.contains("node faults: mtbf"), "{err}");
        }
        // One nanosecond is the smallest mean that still advances time.
        let ns = NodeFaults {
            mtbf: Dist::constant(1e-9),
            repair: Dist::constant(60.0),
        };
        ns.validate().unwrap();
    }

    #[test]
    fn sub_nanosecond_device_mtbf_rejected() {
        let plan = FaultPlan::named("bad").device(
            DeviceFaults::new()
                .mtbf(Dist::constant(1e-10))
                .repair(Dist::constant(60.0)),
        );
        let err = plan.validate().unwrap_err();
        assert!(err.contains("device faults: mtbf"), "{err}");
    }

    #[test]
    fn drift_recalibration_defaults() {
        let drift = DriftModel::new(1e-5, 0.5);
        assert_eq!(
            drift.recalibration_dist(),
            Dist::Constant {
                value: DEFAULT_RECALIBRATION_SECS
            }
        );
        let explicit = drift.recalibration(Dist::constant(60.0));
        assert_eq!(explicit.recalibration_dist(), Dist::constant(60.0));
    }

    #[test]
    fn serde_roundtrip_full_plan() {
        let plan = FaultPlan::named("full")
            .node(NodeFaults::exponential(10_000.0, 600.0))
            .device(
                DeviceFaults::new()
                    .mtbf(Dist::exponential(4.0 * 3600.0))
                    .repair(Dist::constant(900.0))
                    .drift(DriftModel::new(2e-5, 1.0).recalibration(Dist::constant(180.0)))
                    .kernel_error_rate(0.05),
            )
            .recovery(
                RecoverySpec::new()
                    .max_kernel_retries(4)
                    .retry_backoff_secs(2.0)
                    .failover(true)
                    .max_requeues(5)
                    .checkpoint(CheckpointSpec::new(600.0, 15.0)),
            );
        plan.validate().unwrap();
        let json = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn serde_sparse_json_fills_defaults() {
        let plan: FaultPlan =
            serde_json::from_str(r#"{"device": {"kernel_error_rate": 0.01}}"#).unwrap();
        assert_eq!(plan.label(), "faults");
        assert!(plan.node.is_none());
        assert_eq!(plan.device.as_ref().unwrap().error_rate(), 0.01);
        assert!(plan.recovery.is_none());
        let rec = plan.recovery_or_default();
        assert_eq!(rec.kernel_retry_cap(), 2);
        assert!(rec.failover_enabled());
    }

    #[test]
    fn display_is_label() {
        assert_eq!(FaultPlan::named("x").to_string(), "x");
        assert_eq!(FaultPlan::default().to_string(), "faults");
    }
}
