//! Scenario configuration: the machine + policy + strategy under test.

use crate::strategy::Strategy;
use hpcqc_faults::FaultPlan;
use hpcqc_fleet::FleetSpec;
use hpcqc_qpu::remote::AccessMode;
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// How requested walltimes are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WalltimePolicy {
    /// Walltimes are planning hints only (backfill reservations); jobs run
    /// to completion regardless.
    #[default]
    Advisory,
    /// SLURM semantics: a job (or workflow step) exceeding its requested
    /// walltime is killed and requeued up to `max_requeues` times; after
    /// that it is recorded as failed.
    Kill {
        /// Automatic requeues granted before the job is recorded failed.
        max_requeues: u32,
    },
}

impl fmt::Display for WalltimePolicy {
    /// Short label used in sweep tables: `advisory` / `kill(n)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalltimePolicy::Advisory => f.write_str("advisory"),
            WalltimePolicy::Kill { max_requeues } => write!(f, "kill({max_requeues})"),
        }
    }
}

/// Everything the facility simulator needs besides the workload.
///
/// # Examples
///
/// ```
/// use hpcqc_core::{Scenario, Strategy};
/// use hpcqc_qpu::Technology;
///
/// let scenario = Scenario::builder()
///     .classical_nodes(64)
///     .device(Technology::Superconducting)
///     .strategy(Strategy::Vqpu { vqpus: 4 })
///     .seed(42)
///     .build();
/// assert_eq!(scenario.classical_nodes, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Nodes in the `classical` partition.
    pub classical_nodes: u32,
    /// One entry per physical QPU device in the `quantum` partition.
    pub devices: Vec<Technology>,
    /// Batch-scheduler policy.
    pub policy: PolicySpec,
    /// Integration strategy for hybrid jobs.
    pub strategy: Strategy,
    /// Root RNG seed (drives device timing, overheads, workloads do their own).
    pub seed: u64,
    /// Workflow-manager overhead added before each step submission
    /// (Fig. 2's inter-step handling cost; queue wait comes on top).
    pub workflow_overhead: SimDuration,
    /// Whether devices run periodic recalibration windows.
    pub device_calibration: bool,
    /// Optional access-model overhead per kernel (None = negligible
    /// on-prem path; used by experiment E7).
    pub access: Option<AccessMode>,
    /// Walltime enforcement (advisory by default).
    pub walltime_policy: WalltimePolicy,
    /// Optional heterogeneous QPU fleet. When set it supersedes
    /// [`Scenario::devices`]; `None` means the fleet
    /// [`FleetSpec::from_legacy`] builds from the device list. Either way
    /// the simulator builds the named devices and routes every kernel
    /// through the fleet's [`RoutePolicy`](hpcqc_fleet::RoutePolicy) (see
    /// [`Scenario::machine`]).
    pub fleet: Option<FleetSpec>,
    /// Optional dependability plan: node/device fault processes,
    /// calibration drift, transient kernel errors and the recovery policy
    /// countering them. `None` (or an inert plan) leaves the simulation
    /// byte-identical to a fault-free run.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// Starts building a scenario (defaults: 16 nodes, one superconducting
    /// QPU, EASY backfill, co-scheduling, seed 1).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            inner: Scenario::default(),
        }
    }

    /// The machine the simulator runs: [`Scenario::fleet`] when set,
    /// otherwise [`FleetSpec::from_legacy`] over [`Scenario::devices`]
    /// (one `qpu{i}` device per entry, routed pin-first).
    pub fn machine(&self) -> Cow<'_, FleetSpec> {
        match &self.fleet {
            Some(fleet) => Cow::Borrowed(fleet),
            None => Cow::Owned(FleetSpec::from_legacy(&self.devices)),
        }
    }

    /// How many QPU devices the simulator will build.
    pub fn device_count(&self) -> usize {
        self.machine().devices.len()
    }

    /// The label of device `index` (`qpu{i}` for an out-of-range index).
    pub fn device_label(&self, index: usize) -> String {
        self.machine()
            .devices
            .get(index)
            .map_or_else(|| format!("qpu{index}"), |d| d.name.clone())
    }

    /// The technology of device `index` (`None` when out of range).
    pub fn device_technology(&self, index: usize) -> Option<Technology> {
        self.machine().devices.get(index).map(|d| d.technology)
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            classical_nodes: 16,
            devices: vec![Technology::Superconducting],
            policy: PolicySpec::easy(),
            strategy: Strategy::CoSchedule,
            seed: 1,
            workflow_overhead: SimDuration::from_secs(2),
            device_calibration: false,
            access: None,
            walltime_policy: WalltimePolicy::Advisory,
            fleet: None,
            faults: None,
        }
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl ScenarioBuilder {
    /// Sets the classical partition size.
    pub fn classical_nodes(mut self, nodes: u32) -> Self {
        self.inner.classical_nodes = nodes;
        self
    }

    /// Replaces the device list with a single device.
    pub fn device(mut self, technology: Technology) -> Self {
        self.inner.devices = vec![technology];
        self
    }

    /// Replaces the whole device list.
    pub fn devices(mut self, technologies: Vec<Technology>) -> Self {
        self.inner.devices = technologies;
        self
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.inner.policy = policy;
        self
    }

    /// Sets the integration strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.inner.strategy = strategy;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the per-step workflow-manager overhead.
    pub fn workflow_overhead(mut self, overhead: SimDuration) -> Self {
        self.inner.workflow_overhead = overhead;
        self
    }

    /// Enables periodic device recalibration windows.
    pub fn device_calibration(mut self, on: bool) -> Self {
        self.inner.device_calibration = on;
        self
    }

    /// Adds a per-kernel access-model overhead (E7).
    pub fn access(mut self, access: AccessMode) -> Self {
        self.inner.access = Some(access);
        self
    }

    /// Sets the walltime-enforcement policy.
    pub fn walltime_policy(mut self, policy: WalltimePolicy) -> Self {
        self.inner.walltime_policy = policy;
        self
    }

    /// Installs a heterogeneous QPU fleet (supersedes the device list).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FleetSpec::validate`] — fleets from
    /// untrusted input should be validated before building the scenario.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        let invalid = fleet.validate().err();
        assert!(invalid.is_none(), "invalid fleet spec: {invalid:?}");
        self.inner.fleet = Some(fleet);
        self
    }

    /// Installs a dependability plan (fault injection + recovery policy).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — plans from
    /// untrusted input should be validated before building the scenario.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        let invalid = plan.validate().err();
        assert!(invalid.is_none(), "invalid fault plan: {invalid:?}");
        self.inner.faults = Some(plan);
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if there are zero classical nodes or zero devices.
    pub fn build(self) -> Scenario {
        assert!(
            self.inner.classical_nodes > 0,
            "scenario needs classical nodes"
        );
        assert!(
            !self.inner.devices.is_empty(),
            "scenario needs at least one QPU device"
        );
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = Scenario::builder().build();
        assert_eq!(s.classical_nodes, 16);
        assert_eq!(s.devices, vec![Technology::Superconducting]);
        assert_eq!(s.policy, PolicySpec::easy());
        assert_eq!(s.strategy, Strategy::CoSchedule);
    }

    #[test]
    fn builder_overrides() {
        let s = Scenario::builder()
            .classical_nodes(128)
            .devices(vec![Technology::NeutralAtom, Technology::TrappedIon])
            .policy(PolicySpec::fcfs())
            .strategy(Strategy::Malleable { min_nodes: 2 })
            .seed(99)
            .device_calibration(true)
            .build();
        assert_eq!(s.devices.len(), 2);
        assert_eq!(s.seed, 99);
        assert!(s.device_calibration);
    }

    #[test]
    fn walltime_policy_display() {
        assert_eq!(WalltimePolicy::Advisory.to_string(), "advisory");
        assert_eq!(
            WalltimePolicy::Kill { max_requeues: 2 }.to_string(),
            "kill(2)"
        );
    }

    #[test]
    fn walltime_policy_configurable() {
        let s = Scenario::builder()
            .walltime_policy(WalltimePolicy::Kill { max_requeues: 2 })
            .build();
        assert_eq!(s.walltime_policy, WalltimePolicy::Kill { max_requeues: 2 });
        assert_eq!(
            Scenario::default().walltime_policy,
            WalltimePolicy::Advisory
        );
    }

    #[test]
    #[should_panic(expected = "classical nodes")]
    fn zero_nodes_panics() {
        let _ = Scenario::builder().classical_nodes(0).build();
    }

    #[test]
    #[should_panic(expected = "QPU device")]
    fn zero_devices_panics() {
        let _ = Scenario::builder().devices(vec![]).build();
    }
}
