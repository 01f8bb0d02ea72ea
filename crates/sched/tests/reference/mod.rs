//! The reference scheduler: the planning cycle as it stood before demands
//! became dense slot vectors, kept as the simple implementation the
//! differential oracles compare the library against.
//!
//! Demands are maps rebuilt from the request on every cycle; the profile
//! clones a map per segment; "can this start" and "why is it held" ask
//! [`Cluster::can_allocate`] directly. The five built-in policies are the
//! arms of one `match` on the [`Discipline`].

#![allow(dead_code)]

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::error::ClusterError;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::AllocationId;
use hpcqc_sched::{
    sort_by_score, Discipline, HoldReason, PendingJob, PolicySpec, PriorityCalculator, StartedJob,
};
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use std::collections::BTreeMap;

/// A map-keyed resource vector; missing keys read as 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDemand<K: Ord> {
    units: BTreeMap<K, u32>,
}

impl<K: Ord + Clone> Default for MapDemand<K> {
    fn default() -> Self {
        MapDemand {
            units: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone> MapDemand<K> {
    pub fn new() -> Self {
        MapDemand::default()
    }

    pub fn insert(&mut self, key: K, units: u32) {
        self.units.insert(key, units);
    }

    pub fn get(&self, key: &K) -> u32 {
        self.units.get(key).copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.units.values().all(|n| *n == 0)
    }

    pub fn covers(&self, other: &Self) -> bool {
        other.units.iter().all(|(k, need)| self.get(k) >= *need)
    }

    pub fn subtract(&mut self, other: &Self) {
        for (k, v) in &other.units {
            let e = self.units.entry(k.clone()).or_default();
            *e = e.saturating_sub(*v);
        }
    }

    pub fn add(&mut self, other: &Self) {
        for (k, v) in &other.units {
            *self.units.entry(k.clone()).or_default() += v;
        }
    }
}

/// What a [`Demand`](MapDemand) of the reference scheduler is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Nodes(String),
    Gres(String, GresKind),
}

pub type Demand = MapDemand<Key>;

/// The footprint of a request: nodes per partition plus gres units per
/// `(partition, kind)`, zero amounts left out.
pub fn demand_of_request(request: &AllocRequest) -> Demand {
    let mut d = Demand::new();
    for g in request.groups() {
        if g.nodes > 0 {
            *d.units.entry(Key::Nodes(g.partition.clone())).or_default() += g.nodes;
        }
        for (kind, n) in &g.gres {
            if *n > 0 {
                *d.units
                    .entry(Key::Gres(g.partition.clone(), kind.clone()))
                    .or_default() += n;
            }
        }
    }
    d
}

/// The cluster's free capacity.
pub fn free_of(cluster: &Cluster) -> Demand {
    let mut d = Demand::new();
    for part in cluster.partitions() {
        let free = cluster.free_nodes(part.name()).unwrap_or(0);
        if part.node_count() > 0 {
            d.insert(Key::Nodes(part.name().to_string()), free);
        }
        for pool in part.gres_pools() {
            d.insert(
                Key::Gres(part.name().to_string(), pool.kind().clone()),
                pool.available(),
            );
        }
    }
    d
}

/// A piecewise-constant timeline of free capacity over map demands.
#[derive(Debug, Clone, PartialEq)]
pub struct MapProfile<K: Ord> {
    times: Vec<SimTime>,
    free: Vec<MapDemand<K>>,
}

impl<K: Ord + Clone> MapProfile<K> {
    pub fn build(
        now: SimTime,
        mut current_free: MapDemand<K>,
        releases: &[(SimTime, MapDemand<K>)],
    ) -> Self {
        let mut events: Vec<(SimTime, &MapDemand<K>)> =
            releases.iter().map(|(t, d)| ((*t).max(now), d)).collect();
        events.sort_by_key(|(t, _)| *t);
        let mut times = vec![now];
        let mut free = vec![current_free.clone()];
        for (t, d) in events {
            current_free.add(d);
            if times.last() == Some(&t) {
                if let Some(slot) = free.last_mut() {
                    *slot = current_free.clone();
                }
            } else {
                times.push(t);
                free.push(current_free.clone());
            }
        }
        MapProfile { times, free }
    }

    pub fn segments(&self) -> usize {
        self.times.len()
    }

    pub fn free_at(&self, t: SimTime) -> &MapDemand<K> {
        let idx = match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        &self.free[idx]
    }

    pub fn fits(&self, demand: &MapDemand<K>, start: SimTime, duration: SimDuration) -> bool {
        let end = start.saturating_add(duration);
        let mut idx = match self.times.binary_search(&start) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        while idx < self.times.len() {
            if self.times[idx] >= end {
                break;
            }
            let seg_end = self.times.get(idx + 1).copied().unwrap_or(SimTime::MAX);
            if seg_end > start && !self.free[idx].covers(demand) {
                return false;
            }
            idx += 1;
        }
        true
    }

    pub fn find_slot(
        &self,
        demand: &MapDemand<K>,
        duration: SimDuration,
        from: SimTime,
    ) -> SimTime {
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

    pub fn reserve(&mut self, demand: &MapDemand<K>, start: SimTime, duration: SimDuration) {
        let end = start.saturating_add(duration);
        self.split_at(start);
        if end < SimTime::MAX {
            self.split_at(end);
        }
        for i in 0..self.times.len() {
            let seg_start = self.times[i];
            if seg_start >= end {
                break;
            }
            let seg_end = self.times.get(i + 1).copied().unwrap_or(SimTime::MAX);
            if seg_end <= start {
                continue;
            }
            self.free[i].subtract(demand);
        }
    }

    fn split_at(&mut self, t: SimTime) {
        match self.times.binary_search(&t) {
            Ok(_) => {}
            Err(0) => {}
            Err(i) => {
                self.times.insert(i, t);
                let prev = self.free[i - 1].clone();
                self.free.insert(i, prev);
            }
        }
    }
}

pub type Profile = MapProfile<Key>;

/// `true` if the live cluster can satisfy `request` right now.
fn can_allocate(cluster: &Cluster, request: &AllocRequest) -> bool {
    cluster.can_allocate(request).is_ok()
}

/// The binding shortage, gres blamed when both resources are short.
fn hold_reason(cluster: &Cluster, request: &AllocRequest) -> HoldReason {
    match cluster.can_allocate(request) {
        Ok(()) => HoldReason::PolicyHold,
        Err(ClusterError::InsufficientNodes { .. }) => {
            if gres_also_blocked(cluster, request) {
                HoldReason::InsufficientGres
            } else {
                HoldReason::InsufficientNodes
            }
        }
        Err(ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. }) => {
            HoldReason::InsufficientGres
        }
        Err(_) => HoldReason::PolicyHold,
    }
}

fn gres_also_blocked(cluster: &Cluster, request: &AllocRequest) -> bool {
    let mut residue = AllocRequest::new();
    for group in request.groups() {
        if group.gres.iter().any(|(_, n)| *n > 0) {
            residue = residue.group(GroupRequest {
                partition: group.partition.clone(),
                nodes: 0,
                gres: group.gres.clone(),
            });
        }
    }
    !residue.is_empty() && cluster.can_allocate(&residue).is_err()
}

fn classify(err: &ClusterError) -> HoldReason {
    match err {
        ClusterError::InsufficientNodes { .. } => HoldReason::InsufficientNodes,
        ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. } => {
            HoldReason::InsufficientGres
        }
        _ => HoldReason::PolicyHold,
    }
}

#[derive(Debug)]
struct Running {
    job: JobId,
    user: String,
    demand: Demand,
    expected_end: SimTime,
    node_count: u32,
    started: SimTime,
}

/// The reference batch scheduler, one of the five built-in disciplines.
#[derive(Debug)]
pub struct RefScheduler {
    discipline: Discipline,
    priority: PriorityCalculator,
    pending: Vec<PendingJob>,
    running: BTreeMap<AllocationId, Running>,
    last_holds: Vec<(JobId, HoldReason)>,
    /// FCFS "the queue has blocked" / EASY "the head is held".
    blocked: bool,
}

impl RefScheduler {
    pub fn new(spec: PolicySpec) -> Self {
        RefScheduler {
            discipline: spec.discipline,
            priority: spec.calculator(),
            pending: Vec::new(),
            running: BTreeMap::new(),
            last_holds: Vec::new(),
            blocked: false,
        }
    }

    pub fn pending(&self) -> &[PendingJob] {
        &self.pending
    }

    pub fn last_holds(&self) -> &[(JobId, HoldReason)] {
        &self.last_holds
    }

    /// Enqueues a job unless it exceeds the machine's total capacity or
    /// has zero walltime; returns whether it was queued.
    pub fn submit(&mut self, job: PendingJob, cluster: &Cluster) -> bool {
        if job.walltime.is_zero() {
            return false;
        }
        let mut capacity = Demand::new();
        for part in cluster.partitions() {
            let whole = AllocRequest::new().group(GroupRequest {
                partition: part.name().to_string(),
                nodes: part.node_count() as u32,
                gres: part
                    .gres_pools()
                    .iter()
                    .map(|p| (p.kind().clone(), p.capacity()))
                    .collect(),
            });
            capacity.add(&demand_of_request(&whole));
        }
        if !capacity.covers(&demand_of_request(&job.request)) {
            return false;
        }
        self.pending.push(job);
        true
    }

    pub fn finished(&mut self, alloc: AllocationId, now: SimTime) -> Option<JobId> {
        let running = self.running.remove(&alloc)?;
        let node_seconds =
            f64::from(running.node_count) * now.saturating_since(running.started).as_secs_f64();
        self.priority.record_usage(&running.user, node_seconds, now);
        Some(running.job)
    }

    pub fn availability_profile(&self, cluster: &Cluster, now: SimTime) -> Profile {
        let releases: Vec<(SimTime, Demand)> = self
            .running
            .values()
            .map(|r| (r.expected_end, r.demand.clone()))
            .collect();
        Profile::build(now, free_of(cluster), &releases)
    }

    fn order(&mut self, cluster: &Cluster, now: SimTime) {
        let priority = &self.priority;
        let prio = |job: &PendingJob| {
            priority.priority(
                job.submit,
                job.request.total_nodes(),
                &job.user,
                job.qos_boost,
                now,
            )
        };
        match self.discipline {
            Discipline::PriorityBackfill {
                escalate_after_hours,
            } => sort_by_score(&mut self.pending, |job| {
                let age_hours = now.saturating_since(job.submit).as_secs_f64() / 3_600.0;
                if age_hours >= escalate_after_hours {
                    f64::INFINITY
                } else {
                    prio(job)
                }
            }),
            Discipline::QuantumAware { idle_boost } => {
                let qpu = GresKind::qpu();
                let qpu_idle = cluster
                    .partitions()
                    .iter()
                    .flat_map(|p| p.gres_pools().iter())
                    .filter(|pool| pool.kind() == &qpu)
                    .map(|pool| pool.available())
                    .sum::<u32>()
                    > 0;
                sort_by_score(&mut self.pending, |job| {
                    if qpu_idle && job.request.total_gres(&qpu) > 0 {
                        prio(job) + idle_boost
                    } else {
                        prio(job)
                    }
                })
            }
            _ => sort_by_score(&mut self.pending, prio),
        }
    }

    fn admit(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<HoldReason> {
        match self.discipline {
            Discipline::Fcfs => {
                if !self.blocked && can_allocate(cluster, &job.request) {
                    None
                } else {
                    Some(hold_reason(cluster, &job.request))
                }
            }
            Discipline::ConservativeBackfill => {
                let slot = profile.find_slot(demand, job.walltime, now);
                if slot > now {
                    profile.reserve(demand, slot, job.walltime);
                    Some(match hold_reason(cluster, &job.request) {
                        HoldReason::PolicyHold => HoldReason::HeadShadow,
                        reason => reason,
                    })
                } else if can_allocate(cluster, &job.request) {
                    None
                } else {
                    Some(hold_reason(cluster, &job.request))
                }
            }
            _ => {
                let can_start = if self.blocked {
                    profile.find_slot(demand, job.walltime, now) == now
                        && can_allocate(cluster, &job.request)
                } else {
                    can_allocate(cluster, &job.request)
                };
                if can_start {
                    None
                } else {
                    Some(match hold_reason(cluster, &job.request) {
                        HoldReason::PolicyHold if self.blocked => HoldReason::HeadShadow,
                        reason => reason,
                    })
                }
            }
        }
    }

    fn held(&mut self, job: &PendingJob, demand: &Demand, profile: &mut Profile, now: SimTime) {
        match self.discipline {
            Discipline::Fcfs => self.blocked = true,
            Discipline::ConservativeBackfill => {}
            _ => {
                if !self.blocked {
                    self.blocked = true;
                    let shadow = profile.find_slot(demand, job.walltime, now);
                    if shadow != SimTime::MAX {
                        profile.reserve(demand, shadow, job.walltime);
                    }
                }
            }
        }
    }

    /// One scheduling cycle at `now`; the started jobs in start order.
    pub fn try_schedule(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<StartedJob> {
        self.last_holds.clear();
        if self.pending.is_empty() {
            return Vec::new();
        }
        self.blocked = false;
        self.order(cluster, now);
        let mut profile = self.availability_profile(cluster, now);
        let mut started = Vec::new();
        let mut still_pending = Vec::new();
        for job in std::mem::take(&mut self.pending) {
            let demand = demand_of_request(&job.request);
            let hold = match self.admit(&job, &demand, &mut profile, cluster, now) {
                None => match cluster.allocate(&job.request, now) {
                    Ok(alloc) => {
                        profile.reserve(&demand, now, job.walltime);
                        self.running.insert(
                            alloc,
                            Running {
                                job: job.id,
                                user: job.user.clone(),
                                demand,
                                expected_end: now + job.walltime,
                                node_count: job.request.total_nodes(),
                                started: now,
                            },
                        );
                        started.push(StartedJob { job: job.id, alloc });
                        continue;
                    }
                    Err(err) => classify(&err),
                },
                Some(reason) => reason,
            };
            self.last_holds.push((job.id, hold));
            self.held(&job, &demand, &mut profile, now);
            still_pending.push(job);
        }
        self.pending = still_pending;
        started
    }
}
