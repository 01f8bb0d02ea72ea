//! Multifactor job priority, SLURM-style.
//!
//! `priority = age_weight · age_hours + size_weight · nodes + qos_boost
//!             − fairshare_weight · decayed_usage(user)`
//!
//! Age rewards waiting jobs (prevents starvation under backfilling); size
//! weight can favour large jobs (positive) or small ones (negative);
//! fairshare penalizes users who recently consumed the machine.
//!
//! Users are interned: [`PriorityCalculator::intern`] hands out a dense
//! [`UserId`] once per user name, and the per-job hot path
//! ([`PriorityCalculator::priority_by_id`]) reads the user's usage from a
//! table indexed by that id. The string-keyed methods resolve the name
//! and then take the same path, so both compute bit-identical values.

use hpcqc_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fairshare user interned by [`PriorityCalculator::intern`]: a dense
/// index into that calculator's usage table. Ids are only meaningful to
/// the calculator that handed them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserId(usize);

impl UserId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Weights of the multifactor priority.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityWeights {
    /// Points per hour of queue age.
    pub age_per_hour: f64,
    /// Points per requested node.
    pub size_per_node: f64,
    /// Points subtracted per decayed node-hour of the user's past usage.
    pub fairshare_per_node_hour: f64,
}

impl PriorityWeights {
    /// Age-dominated defaults: 10 pts/hour of age, 0.1 pts/node, 1 pt of
    /// fairshare penalty per decayed node-hour.
    pub const DEFAULT: PriorityWeights = PriorityWeights {
        age_per_hour: 10.0,
        size_per_node: 0.1,
        fairshare_per_node_hour: 1.0,
    };
}

impl Default for PriorityWeights {
    /// [`PriorityWeights::DEFAULT`].
    fn default() -> Self {
        PriorityWeights::DEFAULT
    }
}

/// Computes job priorities and tracks decayed per-user usage.
#[derive(Debug, Clone)]
pub struct PriorityCalculator {
    weights: PriorityWeights,
    half_life_secs: f64,
    /// Interned user names. Read only by [`PriorityCalculator::intern`]
    /// and the string-keyed wrappers, never per queued job.
    ids: BTreeMap<String, UserId>,
    /// Per [`UserId`]: (usage in node-seconds at `last_update`, last
    /// update), or `None` while the user has recorded no usage.
    usage: Vec<Option<(f64, SimTime)>>,
}

impl Default for PriorityCalculator {
    fn default() -> Self {
        PriorityCalculator::new(PriorityWeights::default())
    }
}

impl PriorityCalculator {
    /// Creates a calculator with a one-day fairshare half-life.
    pub fn new(weights: PriorityWeights) -> Self {
        PriorityCalculator {
            weights,
            half_life_secs: 86_400.0,
            ids: BTreeMap::new(),
            usage: Vec::new(),
        }
    }

    /// Overrides the fairshare half-life.
    ///
    /// # Panics
    ///
    /// Panics unless `secs > 0`.
    pub fn with_half_life_secs(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "half-life must be positive");
        self.half_life_secs = secs;
        self
    }

    /// The weights in force.
    pub fn weights(&self) -> PriorityWeights {
        self.weights
    }

    /// The fairshare half-life in force, seconds.
    pub fn half_life_secs(&self) -> f64 {
        self.half_life_secs
    }

    /// The dense id of `user`, interning it on first sight. Every later
    /// call with the same name returns the same id.
    pub fn intern(&mut self, user: &str) -> UserId {
        if let Some(&id) = self.ids.get(user) {
            return id;
        }
        let id = UserId(self.usage.len());
        self.ids.insert(user.to_string(), id);
        self.usage.push(None);
        id
    }

    /// Charges `node_seconds` of usage to `user` at time `now`.
    pub fn record_usage(&mut self, user: &str, node_seconds: f64, now: SimTime) {
        let id = self.intern(user);
        self.record_usage_by_id(id, node_seconds, now);
    }

    /// [`record_usage`](PriorityCalculator::record_usage) for an interned
    /// user.
    pub fn record_usage_by_id(&mut self, user: UserId, node_seconds: f64, now: SimTime) {
        let half_life = self.half_life_secs;
        if let Some(slot) = self.usage.get_mut(user.index()) {
            let (value, at) = slot.unwrap_or((0.0, now));
            *slot = Some((Self::decay(value, at, now, half_life) + node_seconds, now));
        }
    }

    /// The user's decayed usage in node-seconds, as seen at `now`.
    pub fn usage_of(&self, user: &str, now: SimTime) -> f64 {
        self.ids
            .get(user)
            .map_or(0.0, |&id| self.usage_by_id(id, now))
    }

    /// [`usage_of`](PriorityCalculator::usage_of) for an interned user. A
    /// user with no recorded usage reads 0.0 without a decay.
    pub fn usage_by_id(&self, user: UserId, now: SimTime) -> f64 {
        match self.usage.get(user.index()) {
            Some(&Some((value, at))) => Self::decay(value, at, now, self.half_life_secs),
            _ => 0.0,
        }
    }

    fn decay(value: f64, at: SimTime, now: SimTime, half_life: f64) -> f64 {
        let dt = now.saturating_since(at).as_secs_f64();
        value * 0.5_f64.powf(dt / half_life)
    }

    /// The priority of a job submitted at `submit` by `user` requesting
    /// `nodes`, with an additive QoS boost, evaluated at `now`.
    pub fn priority(
        &self,
        submit: SimTime,
        nodes: u32,
        user: &str,
        qos_boost: f64,
        now: SimTime,
    ) -> f64 {
        self.score(submit, nodes, qos_boost, self.usage_of(user, now), now)
    }

    /// [`priority`](PriorityCalculator::priority) for an interned user.
    pub fn priority_by_id(
        &self,
        submit: SimTime,
        nodes: u32,
        user: UserId,
        qos_boost: f64,
        now: SimTime,
    ) -> f64 {
        self.score(submit, nodes, qos_boost, self.usage_by_id(user, now), now)
    }

    fn score(&self, submit: SimTime, nodes: u32, qos_boost: f64, usage: f64, now: SimTime) -> f64 {
        let age_hours = now.saturating_since(submit).as_secs_f64() / 3_600.0;
        self.weights.age_per_hour * age_hours
            + self.weights.size_per_node * f64::from(nodes)
            + qos_boost
            - self.weights.fairshare_per_node_hour * usage / 3_600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_increases_priority() {
        let calc = PriorityCalculator::default();
        let early = calc.priority(SimTime::ZERO, 1, "u", 0.0, SimTime::from_secs(7_200));
        let late = calc.priority(
            SimTime::from_secs(3_600),
            1,
            "u",
            0.0,
            SimTime::from_secs(7_200),
        );
        assert!(early > late, "older job must rank higher");
        assert!(
            (early - late - 10.0).abs() < 1e-9,
            "one hour of age = 10 pts"
        );
    }

    #[test]
    fn qos_boost_additive() {
        let calc = PriorityCalculator::default();
        let base = calc.priority(SimTime::ZERO, 1, "u", 0.0, SimTime::ZERO);
        let boosted = calc.priority(SimTime::ZERO, 1, "u", 100.0, SimTime::ZERO);
        assert_eq!(boosted - base, 100.0);
    }

    #[test]
    fn fairshare_penalizes_heavy_users() {
        let mut calc = PriorityCalculator::default();
        calc.record_usage("heavy", 100.0 * 3_600.0, SimTime::ZERO); // 100 node-hours
        let heavy = calc.priority(SimTime::ZERO, 1, "heavy", 0.0, SimTime::ZERO);
        let light = calc.priority(SimTime::ZERO, 1, "light", 0.0, SimTime::ZERO);
        assert!(light > heavy);
        assert!((light - heavy - 100.0).abs() < 1e-9);
    }

    #[test]
    fn usage_decays_with_half_life() {
        let mut calc = PriorityCalculator::default().with_half_life_secs(3_600.0);
        calc.record_usage("u", 1_000.0, SimTime::ZERO);
        let after_one = calc.usage_of("u", SimTime::from_secs(3_600));
        assert!((after_one - 500.0).abs() < 1e-9);
        let after_two = calc.usage_of("u", SimTime::from_secs(7_200));
        assert!((after_two - 250.0).abs() < 1e-9);
    }

    #[test]
    fn usage_accumulates_across_records() {
        let mut calc = PriorityCalculator::default().with_half_life_secs(3_600.0);
        calc.record_usage("u", 1_000.0, SimTime::ZERO);
        calc.record_usage("u", 1_000.0, SimTime::from_secs(3_600));
        // 1000 decayed to 500, plus fresh 1000.
        assert!((calc.usage_of("u", SimTime::from_secs(3_600)) - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_user_has_zero_usage() {
        let calc = PriorityCalculator::default();
        assert_eq!(calc.usage_of("nobody", SimTime::from_secs(5)), 0.0);
    }
}
