//! How a queue policy is stated: the closed set of five [`Discipline`]s,
//! the serde-able [`PolicySpec`] that names one (with its priority knobs)
//! in scenarios, sweep grids and on the command line, and the
//! [`HoldReason`] vocabulary every hold is labelled with.
//!
//! The batch scheduler ([`BatchScheduler`](crate::BatchScheduler)) runs a
//! spec directly: every scheduling cycle it orders the queue, then walks
//! it admitting each job against the free-capacity
//! [`Profile`](crate::Profile), allocating the admitted ones and updating
//! its plan for the held ones, each step one `match` on the discipline.
//! The variant docs on [`Discipline`] say what each arm does and why.
//!
//! # Example
//!
//! The CLI label, the JSON forms and the constructors state the same
//! policy; a priority knob off its default shows in the label:
//!
//! ```
//! use hpcqc_sched::{PolicySpec, PriorityWeights};
//!
//! let cli: PolicySpec = "priority-backfill:age=12".parse()?;
//! let json: PolicySpec =
//!     serde_json::from_str(r#"{"PriorityBackfill": {"escalate_after_hours": 12.0}}"#)
//!         .expect("valid policy JSON");
//! assert_eq!(cli, PolicySpec::priority_backfill(12.0));
//! assert_eq!(json, cli);
//! let sized = PolicySpec::easy().with_weights(PriorityWeights {
//!     size_per_node: 50.0,
//!     ..PriorityWeights::DEFAULT
//! });
//! assert_eq!(sized.to_string(), "easy-backfill;size-weight=50");
//! # Ok::<(), hpcqc_sched::ParsePolicyError>(())
//! ```

use crate::priority::{PriorityCalculator, PriorityWeights};
use crate::scheduler::PendingJob;
use serde::{Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::fmt;
use std::str::FromStr;

/// Why a queued job (or, at the device layer, a routed kernel) is
/// waiting instead of running — the causal label behind every hold.
///
/// The first four variants are produced by the batch scheduler's cycles;
/// the `Device*` variants are reserved for the fleet / device layer, which reuses this vocabulary so one cause taxonomy
/// spans batch-queue waits and intra-QPU waits.
///
/// The `Ord` impl exists so reasons can key `BTreeMap` blame tables;
/// the order itself carries no meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HoldReason {
    /// Not enough free classical nodes to place the request.
    InsufficientNodes,
    /// Not enough free gres tokens (QPU contention at the batch layer:
    /// every token is held by another job).
    InsufficientGres,
    /// Resources would fit the live cluster right now, but starting
    /// would delay a protected reservation — EASY's head shadow, or a
    /// conservative per-job reservation carved earlier in the cycle.
    HeadShadow,
    /// The policy held the job for its own reasons while resources fit
    /// (FCFS head-of-line blocking).
    PolicyHold,
    /// Kernel queued behind a busy device (intra-QPU contention).
    DeviceBusy,
    /// Kernel waiting out a device recalibration window.
    DeviceRecalibrating,
    /// Kernel blocked on a device that is out of service.
    DeviceDown,
    /// Job (or kernel) waiting out fault recovery: retry backoff after a
    /// failed kernel, or re-queueing after a fault-driven restart.
    FaultRecovery,
}

/// Every [`HoldReason`] variant, for blame-table iteration.
pub const ALL_HOLD_REASONS: [HoldReason; 8] = [
    HoldReason::InsufficientNodes,
    HoldReason::InsufficientGres,
    HoldReason::HeadShadow,
    HoldReason::PolicyHold,
    HoldReason::DeviceBusy,
    HoldReason::DeviceRecalibrating,
    HoldReason::DeviceDown,
    HoldReason::FaultRecovery,
];

impl HoldReason {
    /// Short kebab-case cause label for tables and traces.
    /// [`HoldReason::InsufficientGres`] reads `qpu-contention`: in this
    /// simulator every gres token is a QPU token, and "who pays the QPU
    /// wait" is the question the label answers.
    pub fn label(&self) -> &'static str {
        match self {
            HoldReason::InsufficientNodes => "insufficient-nodes",
            HoldReason::InsufficientGres => "qpu-contention",
            HoldReason::HeadShadow => "head-shadow",
            HoldReason::PolicyHold => "policy-hold",
            HoldReason::DeviceBusy => "device-busy",
            HoldReason::DeviceRecalibrating => "device-recalibrating",
            HoldReason::DeviceDown => "device-down",
            HoldReason::FaultRecovery => "fault-recovery",
        }
    }
}

impl fmt::Display for HoldReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Total-order wrapper so `f64` priorities can key a sort.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sorts a queue by an arbitrary score (highest first), ties broken by
/// submit time then job id: the ordering every discipline uses, scored
/// by its multifactor priority with the discipline's adjustments. The
/// score is evaluated once per job.
pub fn sort_by_score(queue: &mut [PendingJob], mut score: impl FnMut(&PendingJob) -> f64) {
    queue.sort_by_cached_key(|job| (Reverse(OrdF64(score(job))), job.submit, job.id));
}

/// Default aging threshold (hours) for
/// [`Discipline::PriorityBackfill`]: a day in queue escalates a job to
/// the front.
pub const DEFAULT_ESCALATE_AFTER_HOURS: f64 = 24.0;

/// Default idle-QPU priority boost for [`Discipline::QuantumAware`]
/// (1000 pts ≈ 100 hours of queue age at default weights: decisive in
/// any realistic queue).
pub const DEFAULT_IDLE_BOOST: f64 = 1_000.0;

/// Default fairshare half-life: one day, matching
/// [`PriorityCalculator::new`].
pub const DEFAULT_FAIRSHARE_HALF_LIFE_SECS: f64 = 86_400.0;

/// The queueing discipline named by a [`PolicySpec`]: a closed set the
/// scheduler's cycle `match`es on. Every discipline orders the queue by
/// multifactor priority (highest first; ties by submit time, then id),
/// which the two knobbed variants adjust.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Discipline {
    /// Strict first-come-first-served: the queue, in priority order,
    /// starts from the front until the first job that does not fit;
    /// everything behind it waits, however small (head-of-line blocking,
    /// labelled [`HoldReason::PolicyHold`] for a job the machine would
    /// fit). The paper's worst case for the workflow strategy: every
    /// inter-step queue pass pays the full head-of-line wait.
    Fcfs,
    /// EASY backfilling, the default on most production systems. The
    /// first job that cannot start (the head) gets a reservation at its
    /// earliest feasible start, the *shadow time*; a later job may start
    /// now only if it does not delay that reservation, i.e. fits the
    /// reserved timeline over its whole walltime from now. A job the
    /// machine would fit but the shadow holds back is labelled
    /// [`HoldReason::HeadShadow`].
    EasyBackfill,
    /// Conservative backfilling: *every* job that cannot start now
    /// reserves its earliest feasible slot, so a later job may jump ahead
    /// only if it delays nobody. Stronger guarantees than EASY, at the
    /// cost of a timeline that grows with queue depth (perfbench's
    /// `kernel.sched.cycle_us.conservative` measures it).
    ConservativeBackfill,
    /// EASY mechanics plus *hard aging*: a job queued at least
    /// `escalate_after_hours` scores +∞, above every priority
    /// consideration (oldest escalated job first). With the EASY head
    /// reservation this makes starvation impossible: whatever QoS boosts
    /// keep arriving, an aged job becomes the head, gets its shadow
    /// reservation, and starts no later than the reservation allows.
    /// Rocco et al. ("Dynamic Solutions for Hybrid Quantum-HPC Resource
    /// Allocation") argue such priority/aging disciplines move the hybrid
    /// crossover; this discipline makes that claim testable.
    PriorityBackfill {
        /// Queue age (hours) past which a job escalates to the front.
        escalate_after_hours: f64,
    },
    /// EASY mechanics plus an idle-QPU boost, after SCIM MILQ (Seitz et
    /// al.): whenever at least one QPU gres token sits free, every queued
    /// job that requests QPU gres gains `idle_boost` priority points.
    /// Quantum work jumps ahead of the classical backlog exactly while
    /// the expensive device idles, and loses the boost the moment the
    /// QPUs are busy, so classical jobs are not starved (the multifactor
    /// age term still applies; raise it with [`PolicySpec::with_weights`]
    /// for stronger guarantees).
    QuantumAware {
        /// Priority points added to QPU-requesting jobs while a QPU idles.
        idle_boost: f64,
    },
}

impl Discipline {
    /// Short kebab-case label (the [`fmt::Display`] form without knobs).
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::Fcfs => "fcfs",
            Discipline::EasyBackfill => "easy-backfill",
            Discipline::ConservativeBackfill => "conservative-backfill",
            Discipline::PriorityBackfill { .. } => "priority-backfill",
            Discipline::QuantumAware { .. } => "quantum-aware",
        }
    }
}

/// Serde-able specification of a queue policy: the discipline plus the
/// multifactor [`PriorityWeights`] and fairshare half-life driving queue
/// order — knobs that used to be silent [`PriorityCalculator`] defaults.
///
/// `PolicySpec` is what scenarios, sweep grids and the CLI carry, and
/// what [`BatchScheduler::new`](crate::BatchScheduler::new) runs;
/// [`PolicySpec::calculator`] builds the matching priority calculator.
///
/// In JSON it accepts three forms (and always serializes the full one):
///
/// ```json
/// "EasyBackfill"
/// {"QuantumAware": {"idle_boost": 500.0}}
/// {"discipline": "Fcfs", "weights": {"age_per_hour": 20.0,
///  "size_per_node": 0.1, "fairshare_per_node_hour": 1.0},
///  "fairshare_half_life_secs": 43200.0}
/// ```
///
/// # Examples
///
/// ```
/// use hpcqc_sched::PolicySpec;
///
/// let spec: PolicySpec = "priority-backfill:age=20".parse()?;
/// assert_eq!(spec.to_string(), "priority-backfill:age=20");
/// assert_eq!(spec.discipline.name(), "priority-backfill");
/// # Ok::<(), hpcqc_sched::ParsePolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// The queueing discipline.
    pub discipline: Discipline,
    /// Multifactor priority weights driving queue order.
    pub weights: PriorityWeights,
    /// Fairshare usage-decay half-life, seconds (must be positive).
    pub fairshare_half_life_secs: f64,
}

impl PolicySpec {
    /// Strict FCFS with default priority knobs.
    pub const fn fcfs() -> Self {
        PolicySpec::of(Discipline::Fcfs)
    }

    /// EASY backfilling with default priority knobs (the production
    /// default).
    pub const fn easy() -> Self {
        PolicySpec::of(Discipline::EasyBackfill)
    }

    /// Conservative backfilling with default priority knobs.
    pub const fn conservative() -> Self {
        PolicySpec::of(Discipline::ConservativeBackfill)
    }

    /// Priority backfilling escalating jobs older than
    /// `escalate_after_hours` to the front.
    pub const fn priority_backfill(escalate_after_hours: f64) -> Self {
        PolicySpec::of(Discipline::PriorityBackfill {
            escalate_after_hours,
        })
    }

    /// Quantum-aware backfilling boosting QPU-requesting jobs by
    /// `idle_boost` points while a QPU idles.
    pub const fn quantum_aware(idle_boost: f64) -> Self {
        PolicySpec::of(Discipline::QuantumAware { idle_boost })
    }

    /// A spec of the given discipline with default priority knobs.
    pub const fn of(discipline: Discipline) -> Self {
        PolicySpec {
            discipline,
            weights: PriorityWeights::DEFAULT,
            fairshare_half_life_secs: DEFAULT_FAIRSHARE_HALF_LIFE_SECS,
        }
    }

    /// Replaces the priority weights.
    pub const fn with_weights(mut self, weights: PriorityWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Replaces the fairshare half-life (seconds).
    pub const fn with_fairshare_half_life_secs(mut self, secs: f64) -> Self {
        self.fairshare_half_life_secs = secs;
        self
    }

    /// Builds the priority calculator this spec configures (weights +
    /// fairshare half-life).
    ///
    /// # Panics
    ///
    /// Panics if the half-life is not positive — run
    /// [`PolicySpec::validate`] on deserialized specs first, as the CLI
    /// and the sweep grid's `Grid::validate` both do.
    pub fn calculator(&self) -> PriorityCalculator {
        PriorityCalculator::new(self.weights).with_half_life_secs(self.fairshare_half_life_secs)
    }

    /// Checks knobs a (possibly deserialized) spec could get wrong.
    pub fn validate(&self) -> Result<(), String> {
        let finite = |name: &str, v: f64| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(format!("policy `{}`: {name} must be finite", self))
            }
        };
        finite("age_per_hour", self.weights.age_per_hour)?;
        finite("size_per_node", self.weights.size_per_node)?;
        finite(
            "fairshare_per_node_hour",
            self.weights.fairshare_per_node_hour,
        )?;
        if !(self.fairshare_half_life_secs > 0.0 && self.fairshare_half_life_secs.is_finite()) {
            return Err(format!(
                "policy `{}`: fairshare_half_life_secs must be positive and finite",
                self
            ));
        }
        match self.discipline {
            Discipline::PriorityBackfill {
                escalate_after_hours,
            } if !(escalate_after_hours > 0.0 && escalate_after_hours.is_finite()) => Err(format!(
                "policy `{}`: escalate_after_hours must be positive and finite",
                self
            )),
            Discipline::QuantumAware { idle_boost }
                if !(idle_boost >= 0.0 && idle_boost.is_finite()) =>
            {
                Err(format!(
                    "policy `{}`: idle_boost must be non-negative and finite",
                    self
                ))
            }
            _ => Ok(()),
        }
    }
}

impl Default for PolicySpec {
    /// EASY backfill, the production default.
    fn default() -> Self {
        PolicySpec::easy()
    }
}

impl From<Discipline> for PolicySpec {
    fn from(discipline: Discipline) -> Self {
        PolicySpec::of(discipline)
    }
}

impl fmt::Display for PolicySpec {
    /// The short CLI label: `fcfs`, `easy-backfill`,
    /// `conservative-backfill`, `priority-backfill:age=H`,
    /// `quantum-aware:boost=P`, then `;flag=value` for each priority knob
    /// that differs from its default, named after its CLI flag
    /// (`;size-weight=50;fairshare-half-life=3600`). Two specs that run
    /// differently never share a label, and a label holds no comma, so it
    /// can key a sweep summary and fill a CSV field. Round-trips through
    /// [`FromStr`] for any spec with default knobs (the knobs travel as
    /// JSON or as their own flags).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.discipline {
            Discipline::PriorityBackfill {
                escalate_after_hours,
            } => write!(f, "priority-backfill:age={escalate_after_hours}")?,
            Discipline::QuantumAware { idle_boost } => {
                write!(f, "quantum-aware:boost={idle_boost}")?
            }
            other => f.write_str(other.name())?,
        }
        let (w, default) = (self.weights, PriorityWeights::DEFAULT);
        for (flag, value, default) in [
            ("age-weight", w.age_per_hour, default.age_per_hour),
            ("size-weight", w.size_per_node, default.size_per_node),
            (
                "fairshare-weight",
                w.fairshare_per_node_hour,
                default.fairshare_per_node_hour,
            ),
            (
                "fairshare-half-life",
                self.fairshare_half_life_secs,
                DEFAULT_FAIRSHARE_HALF_LIFE_SECS,
            ),
        ] {
            if value != default {
                write!(f, ";{flag}={value}")?;
            }
        }
        Ok(())
    }
}

/// Why a policy string failed to parse. `name` is the discipline part the
/// caller typed (before any `:knob=`), for "did you mean" hints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The full rejected input.
    pub input: String,
    /// The discipline name part of the input.
    pub name: String,
}

/// Every policy form [`FromStr`] accepts, for error messages and usage
/// text.
pub const POLICY_FORMS: &str =
    "fcfs | easy[-backfill] | conservative[-backfill] | priority-backfill[:age=H] | quantum-aware[:boost=P]";

impl fmt::Display for ParsePolicyError {
    /// A known discipline with a bad knob names the knob and its rule;
    /// anything else is an unknown policy.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (input, name) = (&self.input, &self.name);
        let rule = match name.as_str() {
            "fcfs" | "easy" | "easy-backfill" | "conservative" | "conservative-backfill" => {
                "takes no knob"
            }
            "priority-backfill" => {
                "takes one knob, `age=H`, the escalation age in hours: a finite number above 0"
            }
            "quantum-aware" => {
                "takes one knob, `boost=P`, the idle-QPU boost in priority points: a finite number, 0 or more"
            }
            _ => return write!(f, "unknown policy `{input}` (valid: {POLICY_FORMS})"),
        };
        write!(f, "bad knob in policy `{input}`: `{name}` {rule}")
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicySpec {
    type Err = ParsePolicyError;

    /// Parses the short CLI form (see [`fmt::Display`]); `easy` and
    /// `conservative` are accepted as shorthands.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, knob) = match s.split_once(':') {
            Some((name, knob)) => (name, Some(knob)),
            None => (s, None),
        };
        let bad = || ParsePolicyError {
            input: s.to_string(),
            name: name.to_string(),
        };
        let knob_value = |key: &str| -> Result<Option<f64>, ParsePolicyError> {
            match knob {
                None => Ok(None),
                Some(k) => {
                    let (kk, kv) = k.split_once('=').ok_or_else(bad)?;
                    if kk != key {
                        return Err(bad());
                    }
                    let v: f64 = kv.parse().map_err(|_| bad())?;
                    if !v.is_finite() {
                        return Err(bad());
                    }
                    Ok(Some(v))
                }
            }
        };
        match name {
            "fcfs" => knob_value("")
                .and_then(|k| if k.is_none() { Ok(()) } else { Err(bad()) })
                .map(|()| PolicySpec::fcfs()),
            "easy" | "easy-backfill" => knob_value("")
                .and_then(|k| if k.is_none() { Ok(()) } else { Err(bad()) })
                .map(|()| PolicySpec::easy()),
            "conservative" | "conservative-backfill" => knob_value("")
                .and_then(|k| if k.is_none() { Ok(()) } else { Err(bad()) })
                .map(|()| PolicySpec::conservative()),
            "priority-backfill" => {
                let hours = knob_value("age")?.unwrap_or(DEFAULT_ESCALATE_AFTER_HOURS);
                if hours <= 0.0 {
                    return Err(bad());
                }
                Ok(PolicySpec::priority_backfill(hours))
            }
            "quantum-aware" => {
                let boost = knob_value("boost")?.unwrap_or(DEFAULT_IDLE_BOOST);
                if boost < 0.0 {
                    return Err(bad());
                }
                Ok(PolicySpec::quantum_aware(boost))
            }
            _ => Err(bad()),
        }
    }
}

impl Serialize for PolicySpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("discipline".to_string(), self.discipline.to_value()),
            ("weights".to_string(), self.weights.to_value()),
            (
                "fairshare_half_life_secs".to_string(),
                self.fairshare_half_life_secs.to_value(),
            ),
        ])
    }
}

impl Deserialize for PolicySpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Full form: {"discipline": …, "weights": …, "fairshare_half_life_secs": …}
        // (missing knobs take the documented defaults).
        if let Some(d) = v.get("discipline") {
            let discipline = Discipline::from_value(d)?;
            let weights = match v.get("weights") {
                Some(w) => PriorityWeights::from_value(w)?,
                None => PriorityWeights::DEFAULT,
            };
            let fairshare_half_life_secs = match v.get("fairshare_half_life_secs") {
                Some(h) => f64::from_value(h)?,
                None => DEFAULT_FAIRSHARE_HALF_LIFE_SECS,
            };
            return Ok(PolicySpec {
                discipline,
                weights,
                fairshare_half_life_secs,
            });
        }
        // Short CLI label ("easy-backfill", "priority-backfill:age=20").
        if let Value::Str(s) = v {
            if let Ok(spec) = s.parse::<PolicySpec>() {
                return Ok(spec);
            }
        }
        // Bare discipline: "Fcfs" or {"QuantumAware": {"idle_boost": …}}.
        Discipline::from_value(v).map(PolicySpec::of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_labels() {
        assert_eq!(PolicySpec::fcfs().to_string(), "fcfs");
        assert_eq!(PolicySpec::easy().to_string(), "easy-backfill");
        assert_eq!(
            PolicySpec::conservative().to_string(),
            "conservative-backfill"
        );
        assert_eq!(
            PolicySpec::priority_backfill(20.0).to_string(),
            "priority-backfill:age=20"
        );
        assert_eq!(
            PolicySpec::quantum_aware(500.0).to_string(),
            "quantum-aware:boost=500"
        );
    }

    #[test]
    fn from_str_round_trips_display() {
        for spec in [
            PolicySpec::fcfs(),
            PolicySpec::easy(),
            PolicySpec::conservative(),
            PolicySpec::priority_backfill(20.0),
            PolicySpec::priority_backfill(1.5),
            PolicySpec::quantum_aware(500.0),
            PolicySpec::quantum_aware(0.0),
        ] {
            let parsed: PolicySpec = spec.to_string().parse().expect("round trip parses");
            assert_eq!(parsed, spec, "{spec}");
        }
    }

    #[test]
    fn from_str_accepts_shorthands_and_defaults() {
        assert_eq!("easy".parse::<PolicySpec>().unwrap(), PolicySpec::easy());
        assert_eq!(
            "conservative".parse::<PolicySpec>().unwrap(),
            PolicySpec::conservative()
        );
        assert_eq!(
            "priority-backfill".parse::<PolicySpec>().unwrap(),
            PolicySpec::priority_backfill(DEFAULT_ESCALATE_AFTER_HOURS)
        );
        assert_eq!(
            "quantum-aware".parse::<PolicySpec>().unwrap(),
            PolicySpec::quantum_aware(DEFAULT_IDLE_BOOST)
        );
    }

    #[test]
    fn from_str_rejects_junk_with_the_typed_name() {
        let err = "quantum-awre".parse::<PolicySpec>().unwrap_err();
        assert_eq!(err.name, "quantum-awre");
        assert!(err.to_string().contains("valid:"));
        for bad in [
            "easy:age=2",                // knob on a knobless policy
            "priority-backfill:age",     // missing value
            "priority-backfill:age=x",   // non-numeric
            "priority-backfill:age=0",   // aging must be positive
            "priority-backfill:boost=1", // wrong knob name
            "quantum-aware:boost=-1",    // negative boost
            "quantum-aware:boost=inf",   // non-finite
        ] {
            let err = bad.parse::<PolicySpec>().unwrap_err();
            assert!(
                err.to_string().starts_with("bad knob in policy"),
                "`{bad}`: {err}"
            );
        }
        let err = "priority-backfill:age=-1"
            .parse::<PolicySpec>()
            .unwrap_err();
        assert!(err.to_string().contains("`age=H`"), "{err}");
        let err = "quantum-aware:boost=nan".parse::<PolicySpec>().unwrap_err();
        assert!(err.to_string().contains("`boost=P`"), "{err}");
        let err = "easy:age=2".parse::<PolicySpec>().unwrap_err();
        assert!(err.to_string().ends_with("`easy` takes no knob"), "{err}");
    }

    #[test]
    fn serde_accepts_all_three_json_forms() {
        let from = |json: &str| -> PolicySpec { serde_json::from_str(json).expect(json) };
        assert_eq!(from("\"EasyBackfill\""), PolicySpec::easy());
        assert_eq!(from("\"easy-backfill\""), PolicySpec::easy());
        assert_eq!(from("\"Fcfs\""), PolicySpec::fcfs());
        assert_eq!(
            from("{\"QuantumAware\": {\"idle_boost\": 500.0}}"),
            PolicySpec::quantum_aware(500.0)
        );
        assert_eq!(
            from("\"priority-backfill:age=20\""),
            PolicySpec::priority_backfill(20.0)
        );
        let full = from(
            "{\"discipline\": \"Fcfs\", \"weights\": {\"age_per_hour\": 20.0, \
             \"size_per_node\": 0.0, \"fairshare_per_node_hour\": 2.0}, \
             \"fairshare_half_life_secs\": 3600.0}",
        );
        assert_eq!(full.discipline, Discipline::Fcfs);
        assert_eq!(full.weights.age_per_hour, 20.0);
        assert_eq!(full.fairshare_half_life_secs, 3600.0);
        // Partial full form: missing knobs default.
        let partial = from("{\"discipline\": \"EasyBackfill\"}");
        assert_eq!(partial, PolicySpec::easy());
    }

    #[test]
    fn serde_round_trips_losslessly() {
        for spec in [
            PolicySpec::easy(),
            PolicySpec::priority_backfill(6.0).with_weights(PriorityWeights {
                age_per_hour: 50.0,
                size_per_node: -0.5,
                fairshare_per_node_hour: 2.0,
            }),
            PolicySpec::quantum_aware(250.0).with_fairshare_half_life_secs(7_200.0),
        ] {
            let json = serde_json::to_string(&spec).expect("serializes");
            let back: PolicySpec = serde_json::from_str(&json).expect("parses back");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn validate_catches_bad_knobs() {
        assert!(PolicySpec::easy().validate().is_ok());
        assert!(PolicySpec::priority_backfill(0.0).validate().is_err());
        assert!(PolicySpec::quantum_aware(-1.0).validate().is_err());
        assert!(PolicySpec::easy()
            .with_fairshare_half_life_secs(0.0)
            .validate()
            .is_err());
        let mut w = PriorityWeights::DEFAULT;
        w.age_per_hour = f64::NAN;
        assert!(PolicySpec::easy().with_weights(w).validate().is_err());
    }

    #[test]
    fn builds_name_matches_discipline() {
        for (spec, name) in [
            (PolicySpec::fcfs(), "fcfs"),
            (PolicySpec::easy(), "easy-backfill"),
            (PolicySpec::conservative(), "conservative-backfill"),
            (PolicySpec::priority_backfill(2.0), "priority-backfill"),
            (PolicySpec::quantum_aware(10.0), "quantum-aware"),
        ] {
            assert_eq!(spec.discipline.name(), name);
        }
    }

    #[test]
    fn display_names_every_non_default_knob() {
        let sized = PolicySpec::easy().with_weights(PriorityWeights {
            age_per_hour: 0.0,
            size_per_node: 50.0,
            fairshare_per_node_hour: 0.0,
        });
        assert_eq!(
            sized.to_string(),
            "easy-backfill;age-weight=0;size-weight=50;fairshare-weight=0"
        );
        assert_ne!(sized.to_string(), PolicySpec::easy().to_string());
        let mut age = PriorityWeights::DEFAULT;
        age.age_per_hour = 2.5;
        assert_eq!(
            PolicySpec::priority_backfill(20.0)
                .with_weights(age)
                .with_fairshare_half_life_secs(3_600.0)
                .to_string(),
            "priority-backfill:age=20;age-weight=2.5;fairshare-half-life=3600"
        );
        let label = PolicySpec::quantum_aware(500.0)
            .with_weights(PriorityWeights {
                age_per_hour: 1e21,
                size_per_node: -0.125,
                fairshare_per_node_hour: 1_000_000.5,
            })
            .to_string();
        assert!(!label.contains(','), "{label}");
        // Default knobs keep the label every committed CSV carries.
        assert_eq!(
            PolicySpec::easy()
                .with_weights(PriorityWeights::DEFAULT)
                .with_fairshare_half_life_secs(DEFAULT_FAIRSHARE_HALF_LIFE_SECS)
                .to_string(),
            "easy-backfill"
        );
    }

    #[test]
    fn calculator_reflects_spec_knobs() {
        let spec = PolicySpec::easy()
            .with_weights(PriorityWeights {
                age_per_hour: 100.0,
                size_per_node: 0.0,
                fairshare_per_node_hour: 0.0,
            })
            .with_fairshare_half_life_secs(10.0);
        let calc = spec.calculator();
        assert_eq!(calc.weights().age_per_hour, 100.0);
        assert_eq!(calc.half_life_secs(), 10.0);
    }
}
