//! Differential property test: the bitset [`Cluster`] against the
//! `BTreeSet`/`BTreeMap` cluster it replaced, kept verbatim below as
//! [`btree::Cluster`] (only the crate-private calls it made are swapped
//! for public ones), with the `BTreeSet` gres pool it used copied in as
//! [`btree::GresPool`]. Random allocate, release, shrink, expand, node
//! failure and repair sequences must pick the same node ids and gres
//! units, fail with the same errors, leave the same free counts and
//! integrate bit-identical utilization.

use hpcqc_cluster::alloc::{AllocRequest, AllocatedGroup, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::error::ClusterError;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_simcore::time::SimTime;
use proptest::prelude::*;

/// The cluster as it was before the bitset rewrite.
mod btree {
    use hpcqc_cluster::alloc::{AllocRequest, AllocatedGroup};
    use hpcqc_cluster::error::ClusterError;
    use hpcqc_cluster::gres::GresKind;
    use hpcqc_cluster::ids::{AllocationId, NodeId, PartitionId};
    use hpcqc_cluster::node::{Node, NodeShape, NodeState};
    use hpcqc_simcore::stats::BusyTracker;
    use hpcqc_simcore::time::SimTime;
    use std::collections::{BTreeMap, BTreeSet};

    /// The gres pool as it was before the bitset rewrite: free units in a
    /// `BTreeSet`.
    pub struct GresPool {
        kind: GresKind,
        capacity: u32,
        free: BTreeSet<u32>,
    }

    impl GresPool {
        pub fn new(kind: GresKind, capacity: u32) -> Self {
            GresPool {
                kind,
                capacity,
                free: (0..capacity).collect(),
            }
        }

        pub fn kind(&self) -> &GresKind {
            &self.kind
        }

        pub fn available(&self) -> u32 {
            self.free.len() as u32
        }

        pub fn take(&mut self, count: u32) -> Option<Vec<u32>> {
            if self.available() < count {
                return None;
            }
            let units: Vec<u32> = self.free.iter().take(count as usize).copied().collect();
            for u in &units {
                self.free.remove(u);
            }
            Some(units)
        }

        pub fn give_back(&mut self, units: &[u32]) {
            for &u in units {
                assert!(
                    u < self.capacity,
                    "gres unit {u} out of range for {}",
                    self.kind
                );
                assert!(
                    self.free.insert(u),
                    "gres unit {u} of {} double-released",
                    self.kind
                );
            }
        }
    }

    /// A partition to build: name, node count and gres pools.
    pub type PartSpec = (&'static str, u32, Vec<(GresKind, u32)>);

    /// A partition: its name and gres pools (the public `Partition`
    /// cannot hand out its pools mutably).
    pub struct Part {
        name: String,
        gres: Vec<GresPool>,
    }

    impl Part {
        fn gres_pool(&self, kind: &GresKind) -> Option<&GresPool> {
            self.gres.iter().find(|p| p.kind() == kind)
        }
        fn gres_pool_mut(&mut self, kind: &GresKind) -> Option<&mut GresPool> {
            self.gres.iter_mut().find(|p| p.kind() == kind)
        }
    }

    pub struct Cluster {
        nodes: Vec<Node>,
        partitions: Vec<Part>,
        by_name: BTreeMap<String, PartitionId>,
        free: Vec<BTreeSet<NodeId>>,
        node_partition: Vec<PartitionId>,
        node_owner: BTreeMap<NodeId, AllocationId>,
        allocations: BTreeMap<AllocationId, Vec<AllocatedGroup>>,
        next_alloc: u32,
        node_busy: Vec<BusyTracker>,
        gres_busy: BTreeMap<(PartitionId, GresKind), BusyTracker>,
    }

    impl Cluster {
        /// Mirrors `ClusterBuilder::build` for `(name, nodes, pools)`.
        pub fn build(spec: &[PartSpec], start: SimTime) -> Self {
            let mut nodes = Vec::new();
            let mut partitions = Vec::new();
            let mut by_name = BTreeMap::new();
            let mut free = Vec::new();
            let mut node_partition = Vec::new();
            let mut node_busy = Vec::new();
            let mut gres_busy = BTreeMap::new();
            for (idx, (name, count, gres)) in spec.iter().enumerate() {
                let pid = PartitionId::new(idx as u32);
                by_name.insert(name.to_string(), pid);
                let mut ids = Vec::new();
                for _ in 0..*count {
                    let nid = NodeId::new(nodes.len() as u32);
                    nodes.push(Node::new(nid, NodeShape::default()));
                    node_partition.push(pid);
                    ids.push(nid);
                }
                free.push(ids.iter().copied().collect::<BTreeSet<_>>());
                node_busy.push(BusyTracker::new(start, f64::from((*count).max(1))));
                let mut pools = Vec::new();
                for (kind, n) in gres {
                    gres_busy.insert(
                        (pid, kind.clone()),
                        BusyTracker::new(start, f64::from((*n).max(1))),
                    );
                    pools.push(GresPool::new(kind.clone(), *n));
                }
                partitions.push(Part {
                    name: name.to_string(),
                    gres: pools,
                });
            }
            Cluster {
                nodes,
                partitions,
                by_name,
                free,
                node_partition,
                node_owner: BTreeMap::new(),
                allocations: BTreeMap::new(),
                next_alloc: 0,
                node_busy,
                gres_busy,
            }
        }

        fn pid(&self, name: &str) -> Result<PartitionId, ClusterError> {
            self.by_name
                .get(name)
                .copied()
                .ok_or_else(|| ClusterError::UnknownPartition(name.to_string()))
        }

        pub fn free_nodes(&self, partition: &str) -> Result<u32, ClusterError> {
            let pid = self.pid(partition)?;
            Ok(self.free[pid.raw() as usize].len() as u32)
        }

        pub fn free_gres(&self, partition: &str, kind: &GresKind) -> Result<u32, ClusterError> {
            let pid = self.pid(partition)?;
            self.partitions[pid.raw() as usize]
                .gres_pool(kind)
                .map(|p| p.available())
                .ok_or_else(|| ClusterError::NoSuchGres {
                    partition: partition.to_string(),
                    kind: kind.clone(),
                })
        }

        pub fn can_allocate(&self, request: &AllocRequest) -> Result<(), ClusterError> {
            if request.is_empty() {
                return Err(ClusterError::EmptyRequest);
            }
            // Demands on the same partition/pool accumulate across groups.
            let mut node_need: BTreeMap<PartitionId, u32> = BTreeMap::new();
            let mut gres_need: BTreeMap<(PartitionId, GresKind), u32> = BTreeMap::new();
            for g in request.groups() {
                let pid = self.pid(&g.partition)?;
                *node_need.entry(pid).or_default() += g.nodes;
                for (kind, n) in &g.gres {
                    *gres_need.entry((pid, kind.clone())).or_default() += n;
                }
            }
            for (pid, need) in &node_need {
                let have = self.free[pid.raw() as usize].len() as u32;
                if have < *need {
                    return Err(ClusterError::InsufficientNodes {
                        partition: self.partitions[pid.raw() as usize].name.clone(),
                        requested: *need,
                        available: have,
                    });
                }
            }
            for ((pid, kind), need) in &gres_need {
                let part = &self.partitions[pid.raw() as usize];
                let pool = part
                    .gres_pool(kind)
                    .ok_or_else(|| ClusterError::NoSuchGres {
                        partition: part.name.clone(),
                        kind: kind.clone(),
                    })?;
                if pool.available() < *need {
                    return Err(ClusterError::InsufficientGres {
                        partition: part.name.clone(),
                        kind: kind.clone(),
                        requested: *need,
                        available: pool.available(),
                    });
                }
            }
            Ok(())
        }

        pub fn allocate(
            &mut self,
            request: &AllocRequest,
            now: SimTime,
        ) -> Result<AllocationId, ClusterError> {
            self.can_allocate(request)?;
            let id = AllocationId::new(self.next_alloc);
            self.next_alloc += 1;

            let mut groups = Vec::with_capacity(request.groups().len());
            for g in request.groups() {
                let pid = self.pid(&g.partition).expect("validated above");
                let pidx = pid.raw() as usize;
                let picked: Vec<NodeId> = self.free[pidx]
                    .iter()
                    .take(g.nodes as usize)
                    .copied()
                    .collect();
                for n in &picked {
                    self.free[pidx].remove(n);
                    self.node_owner.insert(*n, id);
                }
                if g.nodes > 0 {
                    self.node_busy[pidx].acquire(now, f64::from(g.nodes));
                }
                let mut granted_gres = Vec::new();
                for (kind, count) in &g.gres {
                    if *count == 0 {
                        continue;
                    }
                    let units = self.partitions[pidx]
                        .gres_pool_mut(kind)
                        .expect("validated above")
                        .take(*count)
                        .expect("validated above");
                    self.gres_busy
                        .get_mut(&(pid, kind.clone()))
                        .expect("tracker exists for every pool")
                        .acquire(now, f64::from(*count));
                    granted_gres.push((kind.clone(), units));
                }
                groups.push(AllocatedGroup {
                    partition: g.partition.clone(),
                    nodes: picked,
                    gres: granted_gres,
                });
            }
            self.allocations.insert(id, groups);
            Ok(id)
        }

        pub fn release(&mut self, id: AllocationId, now: SimTime) -> Result<(), ClusterError> {
            let alloc = self
                .allocations
                .remove(&id)
                .ok_or(ClusterError::UnknownAllocation(id))?;
            for group in &alloc {
                let pid = self.pid(&group.partition).expect("partition cannot vanish");
                let pidx = pid.raw() as usize;
                for n in &group.nodes {
                    self.node_owner.remove(n);
                    // Failed nodes do not return to the free pool.
                    if self.nodes[n.raw() as usize].is_schedulable() {
                        self.free[pidx].insert(*n);
                    }
                }
                if !group.nodes.is_empty() {
                    self.node_busy[pidx].release(now, group.nodes.len() as f64);
                }
                for (kind, units) in &group.gres {
                    self.partitions[pidx]
                        .gres_pool_mut(kind)
                        .expect("pool cannot vanish")
                        .give_back(units);
                    self.gres_busy
                        .get_mut(&(pid, kind.clone()))
                        .expect("tracker exists")
                        .release(now, units.len() as f64);
                }
            }
            Ok(())
        }

        pub fn shrink(
            &mut self,
            id: AllocationId,
            partition: &str,
            keep_nodes: u32,
            now: SimTime,
        ) -> Result<Vec<NodeId>, ClusterError> {
            let pid = self.pid(partition)?;
            let pidx = pid.raw() as usize;
            let alloc = self
                .allocations
                .get_mut(&id)
                .ok_or(ClusterError::UnknownAllocation(id))?;
            let group = alloc
                .iter_mut()
                .find(|g| g.partition == partition)
                .ok_or_else(|| ClusterError::InvalidResize {
                    allocation: id,
                    reason: format!("allocation holds no group in partition `{partition}`"),
                })?;
            let held = group.nodes.len() as u32;
            if held < keep_nodes {
                return Err(ClusterError::InvalidResize {
                    allocation: id,
                    reason: format!("holds {held} nodes, cannot keep {keep_nodes}"),
                });
            }
            let release_count = (held - keep_nodes) as usize;
            if release_count == 0 {
                return Ok(Vec::new());
            }
            // Highest ids leave first so re-expansion tends to reuse the same nodes.
            group.nodes.sort_unstable();
            let released: Vec<NodeId> = group.nodes.split_off(keep_nodes as usize);
            for n in &released {
                self.node_owner.remove(n);
                if self.nodes[n.raw() as usize].is_schedulable() {
                    self.free[pidx].insert(*n);
                }
            }
            self.node_busy[pidx].release(now, released.len() as f64);
            Ok(released)
        }

        pub fn expand(
            &mut self,
            id: AllocationId,
            partition: &str,
            add_nodes: u32,
            now: SimTime,
        ) -> Result<Vec<NodeId>, ClusterError> {
            let pid = self.pid(partition)?;
            let pidx = pid.raw() as usize;
            if !self.allocations.contains_key(&id) {
                return Err(ClusterError::UnknownAllocation(id));
            }
            let have = self.free[pidx].len() as u32;
            if have < add_nodes {
                return Err(ClusterError::InsufficientNodes {
                    partition: partition.to_string(),
                    requested: add_nodes,
                    available: have,
                });
            }
            let picked: Vec<NodeId> = self.free[pidx]
                .iter()
                .take(add_nodes as usize)
                .copied()
                .collect();
            for n in &picked {
                self.free[pidx].remove(n);
                self.node_owner.insert(*n, id);
            }
            if add_nodes > 0 {
                self.node_busy[pidx].acquire(now, f64::from(add_nodes));
            }
            let alloc = self.allocations.get_mut(&id).expect("checked above");
            if let Some(group) = alloc.iter_mut().find(|g| g.partition == partition) {
                group.nodes.extend(&picked);
            } else {
                alloc.push(AllocatedGroup {
                    partition: partition.to_string(),
                    nodes: picked.clone(),
                    gres: Vec::new(),
                });
            }
            Ok(picked)
        }

        pub fn allocation(&self, id: AllocationId) -> Option<&Vec<AllocatedGroup>> {
            self.allocations.get(&id)
        }

        pub fn live_allocations(&self) -> usize {
            self.allocations.len()
        }

        pub fn fail_node(&mut self, id: NodeId) -> Result<Option<AllocationId>, ClusterError> {
            let node = self
                .nodes
                .get_mut(id.raw() as usize)
                .ok_or(ClusterError::UnknownNode(id))?;
            node.set_state(NodeState::Down);
            let pid = self.node_partition[id.raw() as usize];
            self.free[pid.raw() as usize].remove(&id);
            Ok(self.node_owner.get(&id).copied())
        }

        pub fn restore_node(&mut self, id: NodeId) -> Result<(), ClusterError> {
            let node = self
                .nodes
                .get_mut(id.raw() as usize)
                .ok_or(ClusterError::UnknownNode(id))?;
            node.set_state(NodeState::Up);
            if !self.node_owner.contains_key(&id) {
                let pid = self.node_partition[id.raw() as usize];
                self.free[pid.raw() as usize].insert(id);
            }
            Ok(())
        }

        pub fn node_utilization(
            &self,
            partition: &str,
            until: SimTime,
        ) -> Result<f64, ClusterError> {
            let pid = self.pid(partition)?;
            Ok(self.node_busy[pid.raw() as usize].utilization(until))
        }

        pub fn node_seconds(&self, partition: &str, until: SimTime) -> Result<f64, ClusterError> {
            let pid = self.pid(partition)?;
            Ok(self.node_busy[pid.raw() as usize].busy_unit_seconds(until))
        }

        pub fn gres_utilization(
            &self,
            partition: &str,
            kind: &GresKind,
            until: SimTime,
        ) -> Result<f64, ClusterError> {
            let pid = self.pid(partition)?;
            self.gres_busy
                .get(&(pid, kind.clone()))
                .map(|b| b.utilization(until))
                .ok_or_else(|| ClusterError::NoSuchGres {
                    partition: partition.to_string(),
                    kind: kind.clone(),
                })
        }
    }
}

/// 70 classical nodes (two bitset words) and a 5-node quantum partition
/// with two gres pools, added `qpu` first so pool order and kind order
/// differ.
const CLASSICAL: u32 = 70;
const QUANTUM: u32 = 5;
const PARTITIONS: [&str; 2] = ["classical", "quantum"];

fn kinds() -> [GresKind; 3] {
    [GresKind::qpu(), GresKind::new("aux"), GresKind::new("fpga")]
}

fn pair() -> (Cluster, btree::Cluster) {
    let real = ClusterBuilder::new()
        .partition("classical", CLASSICAL)
        .partition_with_gres("quantum", QUANTUM, GresKind::qpu(), 3)
        .gres(GresKind::new("aux"), 2)
        .build(SimTime::ZERO);
    let model = btree::Cluster::build(
        &[
            ("classical", CLASSICAL, Vec::new()),
            (
                "quantum",
                QUANTUM,
                vec![(GresKind::qpu(), 3), (GresKind::new("aux"), 2)],
            ),
        ],
        SimTime::ZERO,
    );
    (real, model)
}

/// One request group: partition 0/1 (2 is unknown), nodes, and counts of
/// each gres kind (`fpga` exists nowhere).
type GroupSpec = (u8, u32, [u32; 3]);

#[derive(Debug, Clone)]
enum Op {
    Allocate(Vec<GroupSpec>),
    CanAllocate(Vec<GroupSpec>),
    Release { idx: usize },
    Shrink { idx: usize, part: usize, keep: u32 },
    Expand { idx: usize, part: usize, add: u32 },
    Fail { node: u32 },
    Restore { node: u32 },
}

fn group_spec() -> impl Strategy<Value = GroupSpec> {
    (
        prop_oneof![Just(0u8), Just(0u8), Just(1u8), Just(1u8), Just(2u8)],
        0u32..40,
        (
            0u32..3,
            0u32..3,
            prop_oneof![Just(0u32), Just(0u32), Just(0u32), Just(1u32)],
        ),
    )
        .prop_map(|(part, nodes, (q, a, f))| (part, nodes, [q, a, f]))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(group_spec(), 0..3).prop_map(Op::Allocate),
        prop::collection::vec(group_spec(), 0..3).prop_map(Op::Allocate),
        prop::collection::vec(group_spec(), 0..3).prop_map(Op::CanAllocate),
        (0usize..8).prop_map(|idx| Op::Release { idx }),
        (0usize..8, 0usize..2, 0u32..30).prop_map(|(idx, part, keep)| Op::Shrink {
            idx,
            part,
            keep
        }),
        (0usize..8, 0usize..2, 0u32..20).prop_map(|(idx, part, add)| Op::Expand { idx, part, add }),
        (0u32..CLASSICAL + QUANTUM + 2).prop_map(|node| Op::Fail { node }),
        (0u32..CLASSICAL + QUANTUM + 2).prop_map(|node| Op::Restore { node }),
    ]
}

fn request(groups: &[GroupSpec]) -> AllocRequest {
    let mut req = AllocRequest::new();
    for (part, nodes, gres) in groups {
        let name = ["classical", "quantum", "gpu"][*part as usize];
        let mut g = GroupRequest::nodes(name, *nodes);
        for (kind, n) in kinds().into_iter().zip(gres) {
            if *n > 0 {
                g = g.with_gres(kind, *n);
            }
        }
        req = req.group(g);
    }
    req
}

/// Asserts every observable the two clusters share is identical at `now`.
fn same_state(real: &Cluster, model: &btree::Cluster, now: SimTime) -> Result<(), TestCaseError> {
    for part in PARTITIONS {
        prop_assert_eq!(real.free_nodes(part), model.free_nodes(part));
        prop_assert_eq!(
            real.node_utilization(part, now).map(f64::to_bits),
            model.node_utilization(part, now).map(f64::to_bits)
        );
        prop_assert_eq!(
            real.node_seconds(part, now).map(f64::to_bits),
            model.node_seconds(part, now).map(f64::to_bits)
        );
        for kind in kinds() {
            prop_assert_eq!(real.free_gres(part, &kind), model.free_gres(part, &kind));
            prop_assert_eq!(
                real.gres_utilization(part, &kind, now).map(f64::to_bits),
                model.gres_utilization(part, &kind, now).map(f64::to_bits)
            );
        }
    }
    prop_assert_eq!(real.live_allocations(), model.live_allocations());
    real.check_invariants().map_err(TestCaseError::fail)?;
    Ok(())
}

fn groups_of(real: &Cluster, id: AllocationId) -> Option<Vec<AllocatedGroup>> {
    real.allocated_groups(id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_cluster_matches_btree_cluster(ops in prop::collection::vec(op(), 1..80)) {
        let (mut real, mut model) = pair();
        // Every allocation id ever granted, live or not, so stale ids
        // exercise the error paths too.
        let mut ids: Vec<AllocationId> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64 * 7);
            match op {
                Op::Allocate(groups) => {
                    let req = request(&groups);
                    let got = real.allocate(&req, now);
                    prop_assert_eq!(&got, &model.allocate(&req, now));
                    if let Ok(id) = got {
                        prop_assert_eq!(groups_of(&real, id).as_ref(), model.allocation(id));
                        ids.push(id);
                    }
                }
                Op::CanAllocate(groups) => {
                    let req = request(&groups);
                    prop_assert_eq!(real.can_allocate(&req), model.can_allocate(&req));
                }
                Op::Release { idx } => {
                    if let Some(&id) = ids.get(idx % ids.len().max(1)) {
                        prop_assert_eq!(real.release(id, now), model.release(id, now));
                    }
                }
                Op::Shrink { idx, part, keep } => {
                    if let Some(&id) = ids.get(idx % ids.len().max(1)) {
                        let part = PARTITIONS[part];
                        prop_assert_eq!(
                            real.shrink(id, part, keep, now),
                            model.shrink(id, part, keep, now)
                        );
                        prop_assert_eq!(groups_of(&real, id).as_ref(), model.allocation(id));
                    }
                }
                Op::Expand { idx, part, add } => {
                    if let Some(&id) = ids.get(idx % ids.len().max(1)) {
                        let part = PARTITIONS[part];
                        prop_assert_eq!(
                            real.expand(id, part, add, now),
                            model.expand(id, part, add, now)
                        );
                        prop_assert_eq!(groups_of(&real, id).as_ref(), model.allocation(id));
                    }
                }
                Op::Fail { node } => {
                    let node = NodeId::new(node);
                    prop_assert_eq!(real.fail_node(node), model.fail_node(node));
                }
                Op::Restore { node } => {
                    let node = NodeId::new(node);
                    prop_assert_eq!(real.restore_node(node), model.restore_node(node));
                }
            }
            same_state(&real, &model, now)?;
        }
    }
}

/// The error precedence the bitset `can_allocate` must keep: an unknown
/// partition before any shortage, nodes before gres, and gres kinds in
/// name order even when the pools were added in another order.
#[test]
fn error_precedence_matches_the_btree_cluster() {
    let (mut real, mut model) = pair();
    let fill = request(&[(1, QUANTUM, [3, 0, 0])]);
    assert_eq!(
        real.allocate(&fill, SimTime::ZERO),
        model.allocate(&fill, SimTime::ZERO)
    );
    for groups in [
        vec![(1, 1, [1, 1, 0]), (2, 0, [0, 0, 0])],
        vec![(0, 80, [0, 0, 0]), (1, 0, [1, 0, 0])],
        vec![(1, 0, [1, 1, 0])],
        vec![(1, 0, [0, 1, 1]), (1, 0, [1, 2, 0])],
        vec![(0, 10, [0, 0, 1])],
    ] {
        let req = request(&groups);
        let err = real.can_allocate(&req).unwrap_err();
        assert_eq!(Err(err.clone()), model.can_allocate(&req), "{groups:?}");
        assert!(!matches!(err, ClusterError::EmptyRequest));
    }
}
