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
use std::cell::OnceCell;
use std::fmt;

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

/// The expected releases of the running jobs, as a deferred [`Profile`]
/// reads them when it is built.
pub(crate) trait Releases: fmt::Debug + Sync {
    /// Each running job's expected end and the demand it then frees.
    fn releases(&self) -> Box<dyn Iterator<Item = (SimTime, &Demand)> + '_>;
}

/// A piecewise-constant timeline of free capacity.
///
/// Segment `i` spans `[times[i], times[i+1])` with free capacity `free[i]`;
/// the last segment extends to the far horizon.
///
/// # Deferred profiles
///
/// A scheduling cycle plans against a profile that is built only when a
/// policy first reads it: FCFS never does, EASY and its variants only
/// once a head blocks, conservative backfill on its first admit. Until
/// then the profile holds the cycle's start, the live free vector and a
/// borrow of the running set, and [`Profile::reserve`] folds each start
/// at the cycle's instant into them instead of carving a timeline. Every
/// answer is the same as the eager profile's, segment for segment.
///
/// Why folding is exact. Write `B(F, R)` for the profile built at `now`
/// from free vector `F` and releases `R`: its breakpoints are `now` and
/// every release instant (clamped up to `now`), and its capacity at `τ`
/// is `F` plus every release at or before `τ`. Releases only add, so
/// every segment of `B(F, R)` covers `F`. Take a demand `d` that `F`
/// covers and an end `e = now + w < SimTime::MAX`. Then
/// `reserve(d, now, w)` on `B(F, R)` equals `B(F − d, R ∪ {(e, d)})`:
///
/// * breakpoints: the reserve adds `e` unless present, and so does the
///   new release (`e ≥ now`, and a release at `now` merges into the first
///   segment just as a zero-length reserve changes nothing);
/// * capacity: at `τ < e` the reserve leaves `B(F, R)(τ) − d` (exact, as
///   the segment covers `F ⊇ d`), and the right side reads
///   `F − d + ΣR(≤ τ)`, the same; at `τ ≥ e` both read `B(F, R)(τ)`.
///
/// By induction a fold of any number of such starts equals the eager
/// reserves, so the first read may build `B(F − Σd, R ∪ folds)` instead.
/// The two differ when `e` saturates to [`SimTime::MAX`]: the reserve
/// then carves to the horizon while `B` gains a segment at
/// `SimTime::MAX`. Such a start, a start not at `now`, or a demand the
/// free vector does not cover builds the profile first and reserves
/// eagerly.
#[derive(Debug, Clone)]
pub struct Profile<'a> {
    built: OnceCell<Timeline>,
    /// What the timeline is built from on first read; unused once built.
    inputs: Inputs<'a>,
}

/// The inputs of a deferred profile.
#[derive(Debug, Clone)]
struct Inputs<'a> {
    now: SimTime,
    /// The free vector, less every folded start.
    free: Demand,
    running: &'a dyn Releases,
    /// The release of each folded start: its end and its demand.
    folded: Vec<(SimTime, Demand)>,
}

impl Inputs<'_> {
    fn build(&self) -> Timeline {
        let folded = self.folded.iter().map(|(t, d)| (*t, d));
        Timeline::build(self.now, self.free, self.running.releases().chain(folded))
    }
}

/// The release set of a profile built eagerly: its inputs are never read.
#[derive(Debug)]
struct NoReleases;

impl Releases for NoReleases {
    fn releases(&self) -> Box<dyn Iterator<Item = (SimTime, &Demand)> + '_> {
        Box::new(std::iter::empty())
    }
}

/// A built profile's segments.
#[derive(Debug, Clone, PartialEq)]
struct Timeline {
    times: Vec<SimTime>,
    free: Vec<Demand>,
}

impl PartialEq for Profile<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.timeline() == other.timeline()
    }
}

impl Profile<'static> {
    /// Builds the availability profile seen at `now`: current free capacity
    /// plus the capacity each running job returns at its expected end.
    ///
    /// `releases` pairs each expected release instant with the demand it
    /// frees; instants in the past are clamped to `now` (an overrunning job
    /// is optimistically assumed to finish imminently — re-planning happens
    /// on every completion event anyway, and real starts always re-validate
    /// against the live cluster).
    pub fn build(now: SimTime, current_free: Demand, releases: &[(SimTime, Demand)]) -> Self {
        Profile::built(Timeline::build(
            now,
            current_free,
            releases.iter().map(|(t, d)| (*t, d)),
        ))
    }

    fn built(timeline: Timeline) -> Self {
        Profile {
            built: OnceCell::from(timeline),
            inputs: Inputs {
                now: SimTime::ZERO,
                free: Demand::new(),
                running: &NoReleases,
                folded: Vec::new(),
            },
        }
    }

    /// The profile of `running`'s releases on top of `current_free`,
    /// built now.
    pub(crate) fn build_from(now: SimTime, current_free: Demand, running: &dyn Releases) -> Self {
        Profile::built(Timeline::build(now, current_free, running.releases()))
    }
}

impl<'a> Profile<'a> {
    /// The profile [`Profile::build`] would return for `running`'s
    /// releases, built on first read (see [Deferred profiles](Profile#deferred-profiles)).
    pub(crate) fn deferred(now: SimTime, current_free: Demand, running: &'a dyn Releases) -> Self {
        Profile {
            built: OnceCell::new(),
            inputs: Inputs {
                now,
                free: current_free,
                running,
                folded: Vec::new(),
            },
        }
    }

    fn timeline(&self) -> &Timeline {
        self.built.get_or_init(|| self.inputs.build())
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.timeline().times.len()
    }

    /// The free capacity at instant `t`.
    pub fn free_at(&self, t: SimTime) -> &Demand {
        let timeline = self.timeline();
        &timeline.free[timeline.segment_at(t)]
    }

    /// `true` if `demand` fits everywhere in `[start, start + duration)`.
    pub fn fits(&self, demand: &Demand, start: SimTime, duration: SimDuration) -> bool {
        let end = start.saturating_add(duration);
        let timeline = self.timeline();
        let first = timeline.segment_at(start);
        timeline.times[first..]
            .iter()
            .zip(&timeline.free[first..])
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
        let timeline = self.timeline();
        for (i, t) in timeline.times.iter().enumerate() {
            if *t <= from {
                continue;
            }
            if timeline.free[i].covers(demand) && self.fits(demand, *t, duration) {
                return *t;
            }
        }
        SimTime::MAX
    }

    /// Carves `demand` out of the profile over `[start, start + duration)`,
    /// splitting segments at the boundaries as needed. On a profile not
    /// built yet, a start at the cycle's instant is folded in instead (see
    /// [Deferred profiles](Profile#deferred-profiles)).
    pub fn reserve(&mut self, demand: &Demand, start: SimTime, duration: SimDuration) {
        let end = start.saturating_add(duration);
        let inputs = &mut self.inputs;
        let foldable = start == inputs.now && end < SimTime::MAX && inputs.free.covers(demand);
        if self.built.get().is_none() && foldable {
            inputs.free.subtract(demand);
            inputs.folded.push((end, *demand));
            return;
        }
        let mut timeline = self.built.take().unwrap_or_else(|| inputs.build());
        timeline.reserve(demand, start, duration);
        self.built = OnceCell::from(timeline);
    }
}

impl Timeline {
    fn build<'d>(
        now: SimTime,
        mut current_free: Demand,
        releases: impl Iterator<Item = (SimTime, &'d Demand)>,
    ) -> Self {
        let mut events: Vec<(SimTime, &Demand)> = releases.map(|(t, d)| (t.max(now), d)).collect();
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
        Timeline { times, free }
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

    fn reserve(&mut self, demand: &Demand, start: SimTime, duration: SimDuration) {
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
    use proptest::prelude::*;

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

    /// A running set for deferred profiles: `(expected end, demand)`.
    impl Releases for Vec<(SimTime, Demand)> {
        fn releases(&self) -> Box<dyn Iterator<Item = (SimTime, &Demand)> + '_> {
            Box::new(self.iter().map(|(t, d)| (*t, d)))
        }
    }

    #[test]
    fn folded_starts_build_only_on_first_read() {
        let running = vec![(SimTime::from_secs(100), demand(4))];
        let now = SimTime::from_secs(10);
        let mut lazy = Profile::deferred(now, free(6), &running);
        lazy.reserve(&demand(2), now, SimDuration::from_secs(50));
        lazy.reserve(&demand(1), now, SimDuration::from_secs(500));
        assert!(lazy.built.get().is_none(), "starts at `now` fold");
        let mut eager = Profile::build(now, free(6), &running);
        eager.reserve(&demand(2), now, SimDuration::from_secs(50));
        eager.reserve(&demand(1), now, SimDuration::from_secs(500));
        assert_eq!(lazy.free_at(SimTime::from_secs(70)).get(0), 5);
        assert!(lazy.built.get().is_some(), "a read builds");
        assert_eq!(lazy, eager);
        // A start past what the free vector covers, or to the horizon,
        // builds first.
        for (units, walltime) in [(7, SimDuration::from_secs(1)), (1, SimDuration::MAX)] {
            let mut lazy = Profile::deferred(now, free(6), &running);
            lazy.reserve(&demand(units), now, walltime);
            assert!(lazy.built.get().is_some());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A deferred profile answers every `fits`, `find_slot` and
        /// `free_at` like the eager one, through folded starts at `now`
        /// (some saturating to `SimTime::MAX`), later shadow and
        /// conservative reserves, carves at any instant, and running jobs
        /// that overran or never end.
        #[test]
        fn deferred_profile_matches_eager(
            free_units in prop::collection::vec(0u32..10, 1..4),
            running in prop::collection::vec((0u64..12, prop::collection::vec(0u32..5, 1..4)), 0..8),
            ops in prop::collection::vec(
                (0u8..6, prop::collection::vec(0u32..6, 1..4), 0u64..14, 0u64..10),
                1..16,
            ),
        ) {
            let now = at(3);
            // Tick 11 is a job that never ends; ticks below 3 overran.
            let running: Vec<(SimTime, Demand)> = running
                .iter()
                .map(|(t, u)| (if *t == 11 { SimTime::MAX } else { at(*t) }, Demand::from_units(u)))
                .collect();
            let mut eager = Profile::build(now, Demand::from_units(&free_units), &running);
            let mut lazy = Profile::deferred(now, Demand::from_units(&free_units), &running);
            for (kind, units, ticks, len) in ops {
                let d = Demand::from_units(&units);
                // Length 9 runs to the horizon: `now + walltime` saturates.
                let walltime = if len == 9 { SimDuration::MAX } else { span(len) };
                match kind {
                    // A start at `now`, as the scheduler reserves it.
                    0 | 1 => {
                        eager.reserve(&d, now, walltime);
                        lazy.reserve(&d, now, walltime);
                    }
                    // A shadow or conservative reservation at its slot.
                    2 => {
                        let slot = eager.find_slot(&d, walltime, at(ticks));
                        prop_assert_eq!(slot, lazy.find_slot(&d, walltime, at(ticks)));
                        if slot != SimTime::MAX {
                            eager.reserve(&d, slot, walltime);
                            lazy.reserve(&d, slot, walltime);
                        }
                    }
                    // A carve at any instant, with no read before it.
                    3 => {
                        eager.reserve(&d, at(ticks), walltime);
                        lazy.reserve(&d, at(ticks), walltime);
                    }
                    4 => prop_assert_eq!(
                        eager.fits(&d, at(ticks), walltime),
                        lazy.fits(&d, at(ticks), walltime)
                    ),
                    _ => prop_assert_eq!(eager.free_at(at(ticks)), lazy.free_at(at(ticks))),
                }
            }
            prop_assert_eq!(eager.segments(), lazy.segments());
            prop_assert_eq!(eager.built.get(), lazy.built.get());
        }
    }

    /// `n` ticks of 50 s.
    fn at(ticks: u64) -> SimTime {
        SimTime::from_secs(50 * ticks)
    }

    fn span(ticks: u64) -> SimDuration {
        SimDuration::from_secs(50 * ticks)
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
