//! Interned fairshare against a string-keyed model: the
//! `BTreeMap<String, (usage, last update)>` calculator the dense
//! [`PriorityCalculator`] replaced, kept here verbatim. Random sequences
//! of `record_usage` / `usage_of` / `priority` over 12 users (four of
//! which never record usage) must agree to the bit, through both the
//! string methods and the interned-id path.

use hpcqc_sched::{PriorityCalculator, PriorityWeights, UserId};
use hpcqc_simcore::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The string-keyed calculator, as it was before users were interned.
struct Model {
    weights: PriorityWeights,
    half_life_secs: f64,
    usage: BTreeMap<String, (f64, SimTime)>,
}

impl Model {
    fn record_usage(&mut self, user: &str, node_seconds: f64, now: SimTime) {
        let entry = self.usage.entry(user.to_string()).or_insert((0.0, now));
        let decayed = Self::decay(entry.0, entry.1, now, self.half_life_secs);
        *entry = (decayed + node_seconds, now);
    }

    fn usage_of(&self, user: &str, now: SimTime) -> f64 {
        self.usage.get(user).map_or(0.0, |(u, at)| {
            Self::decay(*u, *at, now, self.half_life_secs)
        })
    }

    fn decay(value: f64, at: SimTime, now: SimTime, half_life: f64) -> f64 {
        let dt = now.saturating_since(at).as_secs_f64();
        value * 0.5_f64.powf(dt / half_life)
    }

    fn priority(
        &self,
        submit: SimTime,
        nodes: u32,
        user: &str,
        qos_boost: f64,
        now: SimTime,
    ) -> f64 {
        let age_hours = now.saturating_since(submit).as_secs_f64() / 3_600.0;
        self.weights.age_per_hour * age_hours
            + self.weights.size_per_node * f64::from(nodes)
            + qos_boost
            - self.weights.fairshare_per_node_hour * self.usage_of(user, now) / 3_600.0
    }
}

/// Users `u0`..`u11`; only `u0`..`u7` ever record usage.
const USERS: u32 = 12;
const RECORDING_USERS: u32 = 8;

fn user(index: u32) -> String {
    format!("u{index}")
}

/// Instants are whole ticks of 600 s, so queries often land at the
/// instant of a record (a zero-length decay).
fn at(ticks: u64) -> SimTime {
    SimTime::from_secs(600 * ticks)
}

/// One step: `(op, user, tick)`, `(charge selector, charge)`,
/// `(submit tick, nodes, qos boost)`. Op 0 records usage (charge
/// selector 0 charges zero node-seconds, selector 1 charges by id) and
/// interns the user, op 1 reads usage, op 2 reads a priority, op 3 only
/// interns the user.
type Step = ((u32, u32, u64), (u32, f64), (u64, u32, f64));

fn step() -> impl Strategy<Value = Step> {
    (
        (0u32..4, 0u32..USERS, 0u64..40),
        (0u32..4, 0.0f64..1e6),
        (0u64..40, 0u32..64, 0.0f64..100.0),
    )
}

fn same(a: f64, b: f64, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", what, a, b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interned_fairshare_matches_string_keyed_model(
        weights in (0.0f64..50.0, -1.0f64..1.0, 0.0f64..5.0),
        half_life_secs in 60.0f64..200_000.0,
        steps in prop::collection::vec(step(), 1..64),
    ) {
        let weights = PriorityWeights {
            age_per_hour: weights.0,
            size_per_node: weights.1,
            fairshare_per_node_hour: weights.2,
        };
        let mut calc = PriorityCalculator::new(weights).with_half_life_secs(half_life_secs);
        let mut model = Model { weights, half_life_secs, usage: BTreeMap::new() };
        let mut ids: BTreeMap<u32, UserId> = BTreeMap::new();

        for ((op, u, tick), (charge_sel, charge), (submit, nodes, qos)) in steps {
            let now = at(tick);
            let name = user(u);
            match op {
                0 if u < RECORDING_USERS => {
                    let node_seconds = if charge_sel == 0 { 0.0 } else { charge };
                    // Selector 1 charges through the id path.
                    if charge_sel == 1 {
                        let id = calc.intern(&name);
                        calc.record_usage_by_id(id, node_seconds, now);
                    } else {
                        calc.record_usage(&name, node_seconds, now);
                    }
                    model.record_usage(&name, node_seconds, now);
                }
                0 | 3 => {}
                1 => same(calc.usage_of(&name, now), model.usage_of(&name, now), "usage_of")?,
                _ => {
                    let want = model.priority(at(submit), nodes, &name, qos, now);
                    same(calc.priority(at(submit), nodes, &name, qos, now), want, "priority")?;
                }
            }
            if op == 0 || op == 3 {
                let id = calc.intern(&name);
                prop_assert_eq!(*ids.entry(u).or_insert(id), id, "intern is stable");
            }
            // The id path agrees for every user interned so far.
            for (&v, &id) in &ids {
                let name = user(v);
                same(calc.usage_by_id(id, now), model.usage_of(&name, now), "usage_by_id")?;
                same(
                    calc.priority_by_id(at(submit), nodes, id, qos, now),
                    model.priority(at(submit), nodes, &name, qos, now),
                    "priority_by_id",
                )?;
            }
        }
    }
}
