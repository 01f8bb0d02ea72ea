//! Serde-able fleet descriptions: [`FleetDevice`], [`FleetSpec`] and the
//! [`RouteSpec`] naming a routing policy.
//!
//! A `FleetSpec` is what scenarios, sweep grids and `--fleet FILE` carry;
//! [`crate::QpuFleet::new`] turns it into the
//! live fleet. Specs are plain data with validation; policies are the
//! behaviour they name.

use crate::policies;
use crate::policy::RoutePolicy;
use hpcqc_qpu::remote::AccessMode;
use hpcqc_qpu::technology::Technology;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// One named device in a fleet.
///
/// Every knob except the name and technology is optional; `None` falls
/// back to the technology default (`qubits`), "unlimited"
/// (`shot_capacity`), the scenario-wide setting (`calibration`,
/// `access`) or "in service" (`down`). A device wrapping the legacy
/// single-QPU path therefore needs only a name and a technology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDevice {
    /// Device label (trace track name, summary lines; must be unique in
    /// the fleet).
    pub name: String,
    /// Hardware technology: sets the default timing model and qubit
    /// count.
    pub technology: Technology,
    /// Qubit-count override (`None` = the technology's typical count).
    pub qubits: Option<u32>,
    /// Largest shot count a single kernel may bring to this device
    /// (`None` = unlimited). Kernels above the cap route elsewhere.
    pub shot_capacity: Option<u32>,
    /// Periodic recalibration override (`None` = follow the scenario's
    /// `device_calibration` flag).
    pub calibration: Option<bool>,
    /// `Some(true)` takes the device out of service: no kernel routes to
    /// it (the failover case for [`RouteSpec::TechAffinity`]).
    pub down: Option<bool>,
    /// Per-device access-model overhead (`None` = the scenario's access
    /// mode).
    pub access: Option<AccessMode>,
}

impl FleetDevice {
    /// A device of the given technology with every optional knob unset.
    pub fn new(name: impl Into<String>, technology: Technology) -> Self {
        FleetDevice {
            name: name.into(),
            technology,
            qubits: None,
            shot_capacity: None,
            calibration: None,
            down: None,
            access: None,
        }
    }

    /// Overrides the qubit count.
    pub fn with_qubits(mut self, qubits: u32) -> Self {
        self.qubits = Some(qubits);
        self
    }

    /// Caps the per-kernel shot count this device accepts.
    pub fn with_shot_capacity(mut self, shots: u32) -> Self {
        self.shot_capacity = Some(shots);
        self
    }

    /// Forces periodic recalibration on or off for this device.
    pub fn with_calibration(mut self, on: bool) -> Self {
        self.calibration = Some(on);
        self
    }

    /// Marks the device out of service.
    pub fn with_down(mut self, down: bool) -> Self {
        self.down = Some(down);
        self
    }

    /// Attaches a per-device access mode.
    pub fn with_access(mut self, access: AccessMode) -> Self {
        self.access = Some(access);
        self
    }
}

/// The routing policy a [`FleetSpec`] names.
///
/// In JSON both the kebab label (`"least-loaded"`) and the variant name
/// (`"LeastLoaded"`) are accepted; serialization always emits the kebab
/// label, which is also the CLI form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteSpec {
    /// Honour the job's bound device, otherwise pick the
    /// earliest-free capable device.
    #[default]
    PinFirst,
    /// Ignore pins; per kernel, pick the capable in-service device that
    /// frees earliest.
    LeastLoaded,
    /// Prefer the capable device with the fastest expected execution for
    /// the kernel, failing over past devices that are down or due for
    /// recalibration.
    TechAffinity,
}

/// All route policies, in display order.
pub const ALL_ROUTES: [RouteSpec; 3] = [
    RouteSpec::PinFirst,
    RouteSpec::LeastLoaded,
    RouteSpec::TechAffinity,
];

/// Every route form [`FromStr`] accepts, for error messages and usage
/// text.
pub const ROUTE_FORMS: &str = "pin-first | least-loaded | tech-affinity";

impl RouteSpec {
    /// Short kebab-case label (the CLI and CSV form).
    pub fn name(&self) -> &'static str {
        match self {
            RouteSpec::PinFirst => "pin-first",
            RouteSpec::LeastLoaded => "least-loaded",
            RouteSpec::TechAffinity => "tech-affinity",
        }
    }

    /// Builds the live policy this spec names.
    pub fn build(&self) -> Box<dyn RoutePolicy> {
        match self {
            RouteSpec::PinFirst => Box::new(policies::PinFirst::new()),
            RouteSpec::LeastLoaded => Box::new(policies::LeastLoaded::new()),
            RouteSpec::TechAffinity => Box::new(policies::TechAffinity::new()),
        }
    }
}

impl fmt::Display for RouteSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a route string failed to parse (`input` is the rejected text, for
/// "did you mean" hints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouteError {
    /// The full rejected input.
    pub input: String,
}

impl fmt::Display for ParseRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown route `{}` (valid: {ROUTE_FORMS})", self.input)
    }
}

impl std::error::Error for ParseRouteError {}

impl FromStr for RouteSpec {
    type Err = ParseRouteError;

    /// Parses the kebab label or the variant name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pin-first" | "PinFirst" => Ok(RouteSpec::PinFirst),
            "least-loaded" | "LeastLoaded" => Ok(RouteSpec::LeastLoaded),
            "tech-affinity" | "TechAffinity" => Ok(RouteSpec::TechAffinity),
            _ => Err(ParseRouteError {
                input: s.to_string(),
            }),
        }
    }
}

impl Serialize for RouteSpec {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for RouteSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => s
                .parse::<RouteSpec>()
                .map_err(|e| serde::Error::custom(e.to_string())),
            other => Err(serde::Error::custom(format!(
                "expected a route string ({ROUTE_FORMS}), found {other:?}"
            ))),
        }
    }
}

/// A named fleet of QPU devices plus the routing policy placing kernels
/// on them.
///
/// In JSON, `devices` is required; `name` defaults to `"fleet"` and
/// `route` to `"pin-first"`:
///
/// ```json
/// {"name": "sc+ion", "route": "least-loaded", "devices": [
///   {"name": "sc-a", "technology": "Superconducting"},
///   {"name": "ion-a", "technology": "TrappedIon"}
/// ]}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Fleet label (sweep-CSV `fleet` column, summary lines).
    pub name: String,
    /// The devices, in stable index order (`DeviceId` indexes this list).
    pub devices: Vec<FleetDevice>,
    /// The routing policy placing each kernel.
    pub route: RouteSpec,
}

impl FleetSpec {
    /// An empty fleet with the given name and the default
    /// [`RouteSpec::PinFirst`] routing; add devices with
    /// [`FleetSpec::device`].
    pub fn new(name: impl Into<String>) -> Self {
        FleetSpec {
            name: name.into(),
            devices: Vec::new(),
            route: RouteSpec::PinFirst,
        }
    }

    /// Appends a device.
    pub fn device(mut self, device: FleetDevice) -> Self {
        self.devices.push(device);
        self
    }

    /// Replaces the routing policy.
    pub fn route(mut self, route: RouteSpec) -> Self {
        self.route = route;
        self
    }

    /// The fleet a device list means: one `qpu{i}` device per
    /// technology, every optional knob inherited from the scenario,
    /// routed [`RouteSpec::PinFirst`]. A scenario without a fleet runs
    /// exactly this fleet.
    pub fn from_legacy(devices: &[Technology]) -> Self {
        FleetSpec {
            name: "legacy".to_string(),
            devices: devices
                .iter()
                .enumerate()
                .map(|(i, &tech)| FleetDevice::new(format!("qpu{i}"), tech))
                .collect(),
            route: RouteSpec::PinFirst,
        }
    }

    /// The per-device labels, in `DeviceId` order.
    pub fn device_names(&self) -> impl Iterator<Item = &str> {
        self.devices.iter().map(|d| d.name.as_str())
    }

    /// Checks shape errors a (possibly deserialized) spec could carry.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err(format!("fleet `{}`: needs at least one device", self.name));
        }
        let mut seen = std::collections::BTreeSet::new();
        for device in &self.devices {
            if device.name.is_empty() {
                return Err(format!("fleet `{}`: a device has an empty name", self.name));
            }
            if !seen.insert(device.name.as_str()) {
                return Err(format!(
                    "fleet `{}`: duplicate device name `{}`",
                    self.name, device.name
                ));
            }
            if device.qubits == Some(0) {
                return Err(format!(
                    "fleet `{}`: device `{}` has zero qubits",
                    self.name, device.name
                ));
            }
            if device.shot_capacity == Some(0) {
                return Err(format!(
                    "fleet `{}`: device `{}` has zero shot capacity",
                    self.name, device.name
                ));
            }
        }
        if self.devices.iter().all(|d| d.down == Some(true)) {
            return Err(format!(
                "fleet `{}`: every device is marked down",
                self.name
            ));
        }
        Ok(())
    }
}

impl fmt::Display for FleetSpec {
    /// `name(routing: n devices)` — the sweep-table label.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl Serialize for FleetSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("route".to_string(), self.route.to_value()),
            ("devices".to_string(), self.devices.to_value()),
        ])
    }
}

impl Deserialize for FleetSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let name = match v.get("name") {
            Some(n) => String::from_value(n)?,
            None => "fleet".to_string(),
        };
        let route = match v.get("route") {
            Some(r) => RouteSpec::from_value(r)?,
            None => RouteSpec::PinFirst,
        };
        let devices = match v.get("devices") {
            Some(d) => Vec::<FleetDevice>::from_value(d)?,
            None => return Err(serde::Error::custom("fleet spec: missing field `devices`")),
        };
        Ok(FleetSpec {
            name,
            devices,
            route,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_names_round_trip() {
        for route in ALL_ROUTES {
            assert_eq!(route.name().parse::<RouteSpec>().unwrap(), route);
            assert_eq!(route.build().name(), route.name());
        }
        assert_eq!(
            "PinFirst".parse::<RouteSpec>().unwrap(),
            RouteSpec::PinFirst
        );
        let err = "least-laoded".parse::<RouteSpec>().unwrap_err();
        assert_eq!(err.input, "least-laoded");
        assert!(err.to_string().contains("valid:"));
    }

    #[test]
    fn spec_serde_round_trips() {
        let spec = FleetSpec::new("hetero")
            .route(RouteSpec::TechAffinity)
            .device(FleetDevice::new("sc-a", Technology::Superconducting).with_qubits(64))
            .device(
                FleetDevice::new("ion-a", Technology::TrappedIon)
                    .with_shot_capacity(2_000)
                    .with_calibration(true),
            );
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: FleetSpec = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_json_defaults_name_and_route() {
        let spec: FleetSpec = serde_json::from_str(
            r#"{"devices": [{"name": "a", "technology": "Superconducting"}]}"#,
        )
        .expect("minimal spec parses");
        assert_eq!(spec.name, "fleet");
        assert_eq!(spec.route, RouteSpec::PinFirst);
        assert_eq!(spec.devices[0].qubits, None);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn spec_json_accepts_kebab_and_variant_routes() {
        for (label, expected) in [
            ("\"least-loaded\"", RouteSpec::LeastLoaded),
            ("\"LeastLoaded\"", RouteSpec::LeastLoaded),
            ("\"tech-affinity\"", RouteSpec::TechAffinity),
        ] {
            let json = format!(
                r#"{{"route": {label}, "devices": [{{"name": "a", "technology": "Photonic"}}]}}"#
            );
            let spec: FleetSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(spec.route, expected, "{label}");
        }
        assert!(serde_json::from_str::<FleetSpec>(
            r#"{"route": "fastest", "devices": [{"name": "a", "technology": "Photonic"}]}"#
        )
        .is_err());
    }

    #[test]
    fn from_legacy_wraps_device_list() {
        let spec = FleetSpec::from_legacy(&[Technology::Superconducting, Technology::NeutralAtom]);
        assert_eq!(spec.route, RouteSpec::PinFirst);
        assert_eq!(
            spec.device_names().collect::<Vec<_>>(),
            vec!["qpu0", "qpu1"]
        );
        assert!(spec.devices.iter().all(|d| d.qubits.is_none()
            && d.shot_capacity.is_none()
            && d.calibration.is_none()
            && d.down.is_none()
            && d.access.is_none()));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_catches_shape_errors() {
        let base = |devices: Vec<FleetDevice>| FleetSpec {
            name: "f".into(),
            devices,
            route: RouteSpec::PinFirst,
        };
        assert!(base(vec![]).validate().is_err());
        assert!(base(vec![
            FleetDevice::new("a", Technology::Photonic),
            FleetDevice::new("a", Technology::Photonic),
        ])
        .validate()
        .unwrap_err()
        .contains("duplicate"));
        assert!(base(vec![FleetDevice::new("", Technology::Photonic)])
            .validate()
            .is_err());
        assert!(base(vec![
            FleetDevice::new("a", Technology::Photonic).with_qubits(0)
        ])
        .validate()
        .is_err());
        assert!(base(vec![
            FleetDevice::new("a", Technology::Photonic).with_shot_capacity(0)
        ])
        .validate()
        .is_err());
        assert!(base(vec![
            FleetDevice::new("a", Technology::Photonic).with_down(true)
        ])
        .validate()
        .unwrap_err()
        .contains("down"));
    }
}
