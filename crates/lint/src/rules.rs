//! The numbered determinism & invariant rule set.
//!
//! Each rule is a static, token-level check scoped to the crates where the
//! property it protects can reach simulation state. The scopes are the
//! enforcement policy of this workspace, encoded in one place
//! ([`Rule::applies_to`]) so the CLI, the tests and the docs agree.

use serde::Serialize;
use std::fmt;

/// A determinism/invariant rule enforced by `hpcqc-lint`.
///
/// The rule ids are stable and machine-readable; suppressions reference
/// them by id (`// hpcqc-lint: allow(D004, reason = "...")`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Rule {
    /// No wall-clock reads (`SystemTime::now` / `Instant::now`) in
    /// simulation crates. Simulated time must come from the event loop;
    /// wall time is allowed only in the CLI facade, where it measures the
    /// simulator rather than feeding it.
    D001,
    /// No `HashMap`/`HashSet` in simulation/scheduler/cluster event
    /// paths. Hash iteration order is randomized across builds and can
    /// leak into simulation state; use `BTreeMap`/`BTreeSet` or carry an
    /// audited suppression proving the container is never iterated.
    D002,
    /// No entropy-based RNG seeding (`thread_rng`, `from_entropy`)
    /// anywhere outside tests. All randomness must descend from the
    /// scenario seed through `SimRng` forks.
    D003,
    /// No `unwrap()`/`expect()`/`panic!` in non-test library code of the
    /// core simulation crates. Use typed errors, or `debug_assert!` for
    /// invariants, or suppress with a written justification of why the
    /// invariant cannot fail.
    D004,
    /// No float `==`/`!=` comparisons (detected when either operand is a
    /// float literal). Exact float equality silently diverges across
    /// optimization levels; compare with tolerances or restructure.
    D005,
}

/// All rules, in id order.
pub const ALL_RULES: [Rule; 5] = [Rule::D001, Rule::D002, Rule::D003, Rule::D004, Rule::D005];

/// Crates whose sources feed the discrete-event simulation state
/// (everything but the CLI facade).
const SIM_CRATES: [&str; 12] = [
    "hpcqc-core",
    "hpcqc-sched",
    "hpcqc-simcore",
    "hpcqc-cluster",
    "hpcqc-qpu",
    "hpcqc-fleet",
    "hpcqc-faults",
    "hpcqc-workload",
    "hpcqc-metrics",
    "hpcqc-trace",
    "hpcqc-sweep",
    "hpcqc-gen",
];

/// Crates whose event paths can turn container iteration order into
/// simulation state (the D002 scope). `hpcqc-trace` is in scope because
/// the attribution ledgers fold the event stream into byte-identical
/// output — hash iteration order there would leak into artifacts.
const EVENT_PATH_CRATES: [&str; 7] = [
    "hpcqc-core",
    "hpcqc-sched",
    "hpcqc-simcore",
    "hpcqc-cluster",
    "hpcqc-fleet",
    "hpcqc-faults",
    "hpcqc-trace",
];

/// Crates whose library code must be panic-free (the D004 scope).
const PANIC_FREE_CRATES: [&str; 9] = [
    "hpcqc-core",
    "hpcqc-sched",
    "hpcqc-simcore",
    "hpcqc-cluster",
    "hpcqc-qpu",
    "hpcqc-fleet",
    "hpcqc-faults",
    "hpcqc-workload",
    "hpcqc-trace",
];

impl Rule {
    /// The stable rule id (`"D001"` ... `"D005"`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
        }
    }

    /// One-line summary, shown by `--list-rules` and in findings.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "no wall-clock reads (SystemTime::now / Instant::now) in sim crates",
            Rule::D002 => {
                "no HashMap/HashSet in sim/sched/cluster event paths (hash order can reach state)"
            }
            Rule::D003 => "no entropy-based RNG seeding (thread_rng / from_entropy) outside tests",
            Rule::D004 => "no unwrap()/expect()/panic! in non-test core library code",
            Rule::D005 => "no float ==/!= comparisons (float-literal operands)",
        }
    }

    /// Parses a rule id (`"D001"`). Returns `None` for unknown ids.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D001" => Some(Rule::D001),
            "D002" => Some(Rule::D002),
            "D003" => Some(Rule::D003),
            "D004" => Some(Rule::D004),
            "D005" => Some(Rule::D005),
            _ => None,
        }
    }

    /// Whether the rule is in force for the crate named `package`
    /// (Cargo package name, e.g. `"hpcqc-core"`).
    pub fn applies_to(self, package: &str) -> bool {
        match self {
            Rule::D001 => SIM_CRATES.contains(&package) || package == "hpcqc-lint",
            Rule::D002 => EVENT_PATH_CRATES.contains(&package),
            Rule::D003 | Rule::D005 => true,
            Rule::D004 => PANIC_FREE_CRATES.contains(&package),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::parse(rule.id()), Some(rule));
        }
        assert_eq!(Rule::parse("D999"), None);
    }

    #[test]
    fn scopes_match_policy() {
        assert!(Rule::D001.applies_to("hpcqc-core"));
        assert!(Rule::D001.applies_to("hpcqc-trace"));
        assert!(!Rule::D001.applies_to("hpcqc"));
        assert!(Rule::D001.applies_to("hpcqc-faults"));
        assert!(Rule::D002.applies_to("hpcqc-sched"));
        assert!(Rule::D002.applies_to("hpcqc-fleet"));
        assert!(Rule::D002.applies_to("hpcqc-faults"));
        assert!(Rule::D002.applies_to("hpcqc-trace"));
        assert!(!Rule::D002.applies_to("hpcqc-metrics"));
        assert!(Rule::D003.applies_to("hpcqc"));
        assert!(Rule::D004.applies_to("hpcqc-fleet"));
        assert!(Rule::D004.applies_to("hpcqc-faults"));
        assert!(Rule::D004.applies_to("hpcqc-workload"));
        assert!(Rule::D004.applies_to("hpcqc-trace"));
        assert!(!Rule::D004.applies_to("hpcqc-sweep"));
        assert!(Rule::D005.applies_to("hpcqc"));
    }
}
