//! Resource demand vectors and the free-capacity timeline ([`Profile`])
//! that backfilling plans against.
//!
//! A [`Demand`] is a flat vector of units over a cluster's resource
//! [slots](hpcqc_cluster::Slot): slot `i` counts nodes of one partition or
//! units of one gres pool, in the order [`Cluster::slots`] numbers them
//! when the cluster is built. The same type holds a job's footprint
//! ([`Demand::resolve`], once per job at submit), the machine's free and
//! total capacity ([`Demand::free_of`], [`Demand::capacity_of`]), and each
//! segment of a [`Profile`]. It is `Copy` and heap-free: at most
//! [`MAX_SLOTS`] slots, and slots past the last one a cluster has are 0.
//!
//! A [`Profile`] is a piecewise-constant map `time → free Demand`,
//! constructed from the cluster's current free capacity plus the expected
//! release times of running jobs; reservations carve capacity out of it.

use hpcqc_cluster::alloc::AllocRequest;
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::gres::GresKind;
use hpcqc_simcore::time::{SimDuration, SimTime};

/// The number of resource slots a [`Demand`] holds. A cluster's slots
/// past this many cannot be planned for: [`Demand::resolve`] rejects a
/// request that needs one.
pub const MAX_SLOTS: usize = 16;

/// A flat resource vector: units per cluster resource slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Demand {
    units: [u32; MAX_SLOTS],
}

impl Demand {
    /// The empty demand.
    pub fn new() -> Self {
        Demand::default()
    }

    /// A demand with the given units in slots `0..units.len()`; units past
    /// [`MAX_SLOTS`] are dropped.
    pub fn from_units(units: &[u32]) -> Self {
        let mut d = Demand::new();
        for (slot, n) in d.units.iter_mut().zip(units) {
            *slot = *n;
        }
        d
    }

    /// The footprint of a request on its own resources: the request's
    /// node partitions and `(partition, gres kind)` pools are numbered in
    /// order of first appearance. Such a demand compares only with demands
    /// numbered the same way; to plan against a machine, use
    /// [`Demand::resolve`]. Resources past [`MAX_SLOTS`] are dropped.
    pub fn of_request(request: &AllocRequest) -> Self {
        let amounts = request.groups().iter().flat_map(|g| {
            let part = g.partition.as_str();
            std::iter::once(((part, None), g.nodes))
                .chain(g.gres.iter().map(move |(kind, n)| ((part, Some(kind)), *n)))
        });
        let mut keys: [Option<(&str, Option<&GresKind>)>; MAX_SLOTS] = [None; MAX_SLOTS];
        let mut d = Demand::new();
        for (key, n) in amounts.filter(|(_, n)| *n > 0) {
            let slot = match keys.iter().position(|k| *k == Some(key)) {
                Some(slot) => slot,
                None => match keys.iter().position(Option::is_none) {
                    Some(slot) => {
                        keys[slot] = Some(key);
                        slot
                    }
                    None => continue,
                },
            };
            d.add_units(slot, n);
        }
        d
    }

    /// Resolves a request's partition and gres names to `cluster`'s slots
    /// and sums its groups into one footprint.
    ///
    /// # Errors
    ///
    /// A reason the request can never start on `cluster`: it asks for
    /// nothing, names a partition or gres pool the cluster lacks (even
    /// with a zero count), asks for nodes of a partition without any, or
    /// needs a slot past [`MAX_SLOTS`]. Amounts above the machine's total
    /// are not checked here (see [`Demand::capacity_of`]).
    pub fn resolve(request: &AllocRequest, cluster: &Cluster) -> Result<Self, String> {
        let beyond = |slot: usize| {
            format!(
                "{} lies beyond the {MAX_SLOTS} resource slots the scheduler tracks",
                cluster.slot_label(slot)
            )
        };
        let mut d = Demand::new();
        for g in request.groups() {
            if cluster.partition(&g.partition).is_none() {
                return Err(format!("no partition `{}`", g.partition));
            }
            if g.nodes > 0 {
                let slot = cluster.node_slot(&g.partition).ok_or_else(|| {
                    format!(
                        "demand exceeds total machine capacity: {} nodes requested {}, total 0",
                        g.partition, g.nodes
                    )
                })?;
                d.add_units(slot, g.nodes).ok_or_else(|| beyond(slot))?;
            }
            for (kind, n) in &g.gres {
                let slot = cluster
                    .gres_slot(&g.partition, kind)
                    .ok_or_else(|| format!("partition `{}` has no `{kind}` gres", g.partition))?;
                if *n > 0 {
                    d.add_units(slot, *n).ok_or_else(|| beyond(slot))?;
                }
            }
        }
        if d.is_empty() {
            return Err("the request asks for no resources".to_string());
        }
        Ok(d)
    }

    /// Adds `n` units to `slot`; `None` if the slot is past [`MAX_SLOTS`].
    fn add_units(&mut self, slot: usize, n: u32) -> Option<()> {
        let units = self.units.get_mut(slot)?;
        *units = units.saturating_add(n);
        Some(())
    }

    /// The currently free capacity of a cluster, as a demand vector.
    pub fn free_of(cluster: &Cluster) -> Self {
        let mut d = Demand::new();
        for (slot, units) in d.units.iter_mut().enumerate().take(cluster.slots().len()) {
            *units = cluster.slot_free(slot);
        }
        d
    }

    /// The total capacity of a cluster (failed nodes included), as a
    /// demand vector.
    pub fn capacity_of(cluster: &Cluster) -> Self {
        let mut d = Demand::new();
        for (units, slot) in d.units.iter_mut().zip(cluster.slots()) {
            *units = slot.capacity();
        }
        d
    }

    /// Units in `slot`; 0 past [`MAX_SLOTS`].
    pub fn get(&self, slot: usize) -> u32 {
        self.units.get(slot).copied().unwrap_or(0)
    }

    /// `true` if this demand asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.units.iter().all(|n| *n == 0)
    }

    /// Component-wise: does `self` (a free vector) cover `other` (a demand)?
    pub fn covers(&self, other: &Demand) -> bool {
        self.first_short(other).is_none()
    }

    /// The first slot in which `self` (a free vector) falls short of
    /// `other` (a demand), if any.
    pub(crate) fn first_short(&self, other: &Demand) -> Option<usize> {
        self.units
            .iter()
            .zip(&other.units)
            .position(|(have, need)| have < need)
    }

    /// Component-wise saturating subtraction (`self -= other`).
    pub fn subtract(&mut self, other: &Demand) {
        for (a, b) in self.units.iter_mut().zip(&other.units) {
            *a = a.saturating_sub(*b);
        }
    }

    /// Component-wise addition (`self += other`).
    pub fn add(&mut self, other: &Demand) {
        for (a, b) in self.units.iter_mut().zip(&other.units) {
            *a += b;
        }
    }
}

/// A piecewise-constant timeline of free capacity.
///
/// Segment `i` spans `[times[i], times[i+1])` with free capacity `free[i]`;
/// the last segment extends to the far horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    times: Vec<SimTime>,
    free: Vec<Demand>,
}

impl Profile {
    /// Builds the availability profile seen at `now`: current free capacity
    /// plus the capacity each running job returns at its expected end.
    ///
    /// `releases` pairs each expected release instant with the demand it
    /// frees; instants in the past are clamped to `now` (an overrunning job
    /// is optimistically assumed to finish imminently — re-planning happens
    /// on every completion event anyway, and real starts always re-validate
    /// against the live cluster).
    pub fn build(now: SimTime, mut current_free: Demand, releases: &[(SimTime, Demand)]) -> Self {
        let mut events: Vec<(SimTime, &Demand)> =
            releases.iter().map(|(t, d)| ((*t).max(now), d)).collect();
        events.sort_by_key(|(t, _)| *t);
        let mut times = Vec::with_capacity(events.len() + 1);
        let mut free = Vec::with_capacity(events.len() + 1);
        times.push(now);
        free.push(current_free);
        for (t, d) in events {
            current_free.add(d);
            if times.last() == Some(&t) {
                if let Some(slot) = free.last_mut() {
                    *slot = current_free;
                }
            } else {
                times.push(t);
                free.push(current_free);
            }
        }
        Profile { times, free }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The free capacity at instant `t`.
    pub fn free_at(&self, t: SimTime) -> &Demand {
        &self.free[self.segment_at(t)]
    }

    /// Index of the segment containing `t`; the profile starts at `now`,
    /// so earlier instants clamp to the first segment.
    fn segment_at(&self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// `true` if `demand` fits everywhere in `[start, start + duration)`.
    pub fn fits(&self, demand: &Demand, start: SimTime, duration: SimDuration) -> bool {
        let end = start.saturating_add(duration);
        let first = self.segment_at(start);
        self.times[first..]
            .iter()
            .zip(&self.free[first..])
            .take_while(|(t, _)| **t < end)
            .all(|(_, free)| free.covers(demand))
    }

    /// Earliest instant ≥ `from` at which `demand` fits for `duration`.
    ///
    /// Candidate starts are segment boundaries (capacity only ever changes
    /// there), so the search is exact. Returns [`SimTime::MAX`] if the
    /// demand can never fit (it exceeds total capacity).
    pub fn find_slot(&self, demand: &Demand, duration: SimDuration, from: SimTime) -> SimTime {
        if demand.is_empty() {
            return from;
        }
        if self.fits(demand, from, duration) {
            return from;
        }
        for (i, t) in self.times.iter().enumerate() {
            if *t <= from {
                continue;
            }
            if self.free[i].covers(demand) && self.fits(demand, *t, duration) {
                return *t;
            }
        }
        SimTime::MAX
    }

    /// Carves `demand` out of the profile over `[start, start + duration)`,
    /// splitting segments at the boundaries as needed.
    pub fn reserve(&mut self, demand: &Demand, start: SimTime, duration: SimDuration) {
        let end = start.saturating_add(duration);
        self.split_at(start);
        if end < SimTime::MAX {
            self.split_at(end);
        }
        for (i, free) in self.free.iter_mut().enumerate() {
            let seg_start = self.times[i];
            if seg_start >= end {
                break;
            }
            let seg_end = self.times.get(i + 1).copied().unwrap_or(SimTime::MAX);
            if seg_end <= start {
                continue;
            }
            free.subtract(demand);
        }
    }

    fn split_at(&mut self, t: SimTime) {
        match self.times.binary_search(&t) {
            Ok(_) => {}
            Err(0) => {} // before profile start: nothing to split
            Err(i) => {
                self.times.insert(i, t);
                let prev = self.free[i - 1];
                self.free.insert(i, prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_cluster::alloc::GroupRequest;
    use hpcqc_cluster::cluster::ClusterBuilder;

    /// `nodes` units in slot 0 (the `classical` nodes of [`machine`]).
    fn demand(nodes: u32) -> Demand {
        Demand::from_units(&[nodes])
    }

    fn free(nodes: u32) -> Demand {
        demand(nodes)
    }

    fn machine() -> Cluster {
        ClusterBuilder::new()
            .partition("classical", 8)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 2)
            .build(SimTime::ZERO)
    }

    #[test]
    fn demand_of_listing1() {
        let c = machine();
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 8))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
        let d = Demand::resolve(&req, &c).unwrap();
        let qpu = c.gres_slot("quantum", &GresKind::qpu()).unwrap();
        assert_eq!(d.get(c.node_slot("classical").unwrap()), 8);
        assert_eq!(d.get(c.node_slot("quantum").unwrap()), 0);
        assert_eq!(d.get(qpu), 1);
        assert!(!d.is_empty());
        assert!(Demand::capacity_of(&c).covers(&d));
    }

    #[test]
    fn resolve_sums_groups_on_one_partition() {
        let c = machine();
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 3))
            .group(GroupRequest::nodes("classical", 4));
        assert_eq!(Demand::resolve(&req, &c).unwrap(), demand(7));
    }

    #[test]
    fn resolve_rejects_what_the_machine_lacks() {
        let c = machine();
        let reason = |req: AllocRequest| Demand::resolve(&req, &c).unwrap_err();
        assert!(reason(AllocRequest::new()).contains("no resources"));
        assert!(reason(AllocRequest::new().group(GroupRequest::nodes("gpu", 0))).contains("`gpu`"));
        assert!(reason(AllocRequest::new().group(GroupRequest::gres(
            "quantum",
            GresKind::new("fpga"),
            0
        )))
        .contains("no `fpga` gres"));
    }

    #[test]
    fn resolve_rejects_slots_past_the_vector() {
        let mut b = ClusterBuilder::new();
        for i in 0..=MAX_SLOTS {
            b = b.partition(format!("p{i}"), 1);
        }
        let c = b.build(SimTime::ZERO);
        let last = format!("p{MAX_SLOTS}");
        let req = AllocRequest::new().group(GroupRequest::nodes(last.as_str(), 1));
        assert!(Demand::resolve(&req, &c)
            .unwrap_err()
            .contains("beyond the 16 resource slots"));
        // The slots the vector holds still plan normally.
        let first = AllocRequest::new().group(GroupRequest::nodes("p0", 1));
        assert_eq!(Demand::resolve(&first, &c).unwrap(), demand(1));
        assert_eq!(Demand::free_of(&c), Demand::from_units(&[1; MAX_SLOTS]));
    }

    #[test]
    fn of_request_numbers_the_requests_own_resources() {
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 10))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1))
            .group(GroupRequest::nodes("classical", 2));
        assert_eq!(Demand::of_request(&req), Demand::from_units(&[12, 1]));
    }

    #[test]
    fn covers_and_subtract() {
        let mut a = free(10);
        let b = demand(4);
        assert!(a.covers(&b));
        a.subtract(&b);
        assert_eq!(a.get(0), 6);
        assert!(!a.covers(&demand(7)));
        assert_eq!(a.first_short(&demand(7)), Some(0));
        a.add(&b);
        assert_eq!(a.get(0), 10);
        assert_eq!(a.get(MAX_SLOTS), 0);
    }

    #[test]
    fn free_of_cluster_reflects_state() {
        let mut c = machine();
        let qpu = c.gres_slot("quantum", &GresKind::qpu()).unwrap();
        let d = Demand::free_of(&c);
        assert_eq!(d.get(0), 8);
        assert_eq!(d.get(qpu), 2);
        c.allocate(
            &AllocRequest::new().group(GroupRequest::nodes("classical", 3)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(Demand::free_of(&c).get(0), 5);
        assert_eq!(Demand::capacity_of(&c).get(0), 8);
    }

    #[test]
    fn profile_releases_merge() {
        // free 2 now; 3 more at t=10; 5 more at t=20.
        let p = Profile::build(
            SimTime::ZERO,
            free(2),
            &[
                (SimTime::from_secs(10), free(3)),
                (SimTime::from_secs(20), free(5)),
            ],
        );
        assert_eq!(p.segments(), 3);
        assert_eq!(p.free_at(SimTime::from_secs(5)).get(0), 2);
        assert_eq!(p.free_at(SimTime::from_secs(10)).get(0), 5);
        assert_eq!(p.free_at(SimTime::from_secs(25)).get(0), 10);
    }

    #[test]
    fn find_slot_waits_for_release() {
        let p = Profile::build(SimTime::ZERO, free(2), &[(SimTime::from_secs(30), free(4))]);
        // 4 nodes fit only after the release at t=30.
        assert_eq!(
            p.find_slot(&demand(4), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::from_secs(30)
        );
        // 2 nodes fit immediately.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::ZERO
        );
        // 7 nodes never fit.
        assert_eq!(
            p.find_slot(&demand(7), SimDuration::from_secs(1), SimTime::ZERO),
            SimTime::MAX
        );
    }

    #[test]
    fn reservation_blocks_slot() {
        let mut p = Profile::build(SimTime::ZERO, free(4), &[]);
        p.reserve(
            &demand(3),
            SimTime::from_secs(50),
            SimDuration::from_secs(100),
        );
        // A 2-node job for 40 s fits before the reservation...
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(40), SimTime::ZERO),
            SimTime::ZERO
        );
        // ... but a 2-node job for 60 s would overlap it, so it must wait
        // for the reservation to end at t=150.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(60), SimTime::ZERO),
            SimTime::from_secs(150)
        );
    }

    #[test]
    fn fits_checks_whole_span() {
        let p = Profile::build(SimTime::ZERO, free(4), &[]);
        let mut p2 = p.clone();
        p2.reserve(
            &demand(4),
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
        );
        assert!(p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(10)));
        assert!(!p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(11)));
        assert!(p2.fits(
            &demand(1),
            SimTime::from_secs(20),
            SimDuration::from_secs(1_000)
        ));
    }

    #[test]
    fn past_releases_clamped_to_now() {
        let now = SimTime::from_secs(100);
        let p = Profile::build(now, free(1), &[(SimTime::from_secs(50), free(9))]);
        assert_eq!(p.free_at(now).get(0), 10);
    }

    #[test]
    fn empty_demand_fits_anywhere() {
        let p = Profile::build(SimTime::ZERO, free(0), &[]);
        assert_eq!(
            p.find_slot(
                &Demand::new(),
                SimDuration::from_hours(1),
                SimTime::from_secs(5)
            ),
            SimTime::from_secs(5)
        );
    }
}
