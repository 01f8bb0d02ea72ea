//! `hpcqc-fleet`: the heterogeneous multi-QPU fleet model and the
//! pluggable kernel-routing layer.
//!
//! The source paper's facility has one quantum access mode per scenario;
//! real installations run a *fleet* — superconducting next to trapped-ion
//! next to photonic hardware, each with its own timing profile,
//! calibration cadence, capacity and queue. This crate models that fleet
//! and opens kernel *placement* as a trait API. Queueing in `hpcqc-sched`
//! has a spec but no trait: its scheduler runs the spec's closed set of
//! disciplines directly.
//!
//! | concern | spec (serde) | capability handle | trait | built-ins |
//! |---|---|---|---|---|
//! | queueing | `PolicySpec` | — | — | 5 `Discipline`s, one `match` per cycle step |
//! | routing | [`FleetSpec`] | [`FleetCtx`] | [`RoutePolicy`] | [`policies::PinFirst`], [`policies::LeastLoaded`], [`policies::TechAffinity`] |
//!
//! A [`FleetSpec`] names the devices ([`FleetDevice`]: technology,
//! optional qubit/shot-capacity/calibration/access overrides, service
//! status) and a [`RouteSpec`]. The simulator builds a [`QpuFleet`] from
//! it and, for every quantum kernel, snapshots the live devices into a
//! [`FleetCtx`] and lets the policy pick the [`DeviceId`] to enqueue on.
//!
//! Every simulation runs a fleet. A scenario that lists technologies
//! instead means [`FleetSpec::from_legacy`] of that list: one `qpu{i}`
//! device per entry, routed by [`policies::PinFirst`]. Two corners route
//! differently than the simulator did before a fleet was its only
//! machine: a gres-bound kernel whose device is out of service moves to
//! a live capable peer instead of waiting for fault recovery, and an
//! unbound kernel picks among the devices that fit it rather than those
//! that fit its job's largest kernel.

pub mod ctx;
pub mod fleet;
pub mod policies;
pub mod policy;
pub mod spec;

pub use ctx::{DeviceId, FleetCtx};
pub use fleet::QpuFleet;
pub use policies::{LeastLoaded, PinFirst, TechAffinity};
pub use policy::RoutePolicy;
pub use spec::{FleetDevice, FleetSpec, ParseRouteError, RouteSpec, ALL_ROUTES, ROUTE_FORMS};
