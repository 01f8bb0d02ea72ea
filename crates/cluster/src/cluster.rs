//! The cluster: nodes + partitions + gres pools + live allocations.
//!
//! All mutating operations are **atomic**: either the whole request is
//! granted (every group of a heterogeneous request) or the cluster state is
//! untouched. Allocated-node and gres accounting is exact time-weighted
//! integration, so utilization figures in the experiments carry no sampling
//! error.
//!
//! `allocate` resolves a request's names to ids once, in the step it shares
//! with `can_allocate`; `release`, `shrink` and `expand` then work on the
//! ids the live [`Allocation`] keeps.

use crate::alloc::{AllocRequest, AllocatedGroup, Allocation, Line, Pool};
use crate::error::ClusterError;
use crate::gres::GresKind;
use crate::ids::{AllocationId, NodeId, PartitionId};
use crate::node::{Node, NodeShape, NodeState};
use crate::nodeset::NodeSet;
use crate::partition::Partition;
use crate::slot::Slot;
use hpcqc_simcore::stats::BusyTracker;
use hpcqc_simcore::time::SimTime;
use hpcqc_simcore::IdMap;

/// Builder for [`Cluster`]; add partitions, then [`ClusterBuilder::build`].
///
/// # Examples
///
/// ```
/// use hpcqc_cluster::{ClusterBuilder, GresKind};
/// use hpcqc_simcore::time::SimTime;
///
/// let cluster = ClusterBuilder::new()
///     .partition("classical", 64)
///     .partition_with_gres("quantum", 1, GresKind::qpu(), 4)
///     .build(SimTime::ZERO);
/// assert_eq!(cluster.free_nodes("classical").unwrap(), 64);
/// assert_eq!(cluster.free_gres("quantum", &GresKind::qpu()).unwrap(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    partitions: Vec<PartitionSpec>,
}

/// A pending partition: `(name, node count, node shape, gres pools)`.
type PartitionSpec = (String, u32, NodeShape, Vec<(GresKind, u32)>);

impl ClusterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// Adds a partition of `nodes` default-shaped nodes.
    pub fn partition(self, name: impl Into<String>, nodes: u32) -> Self {
        self.partition_shaped(name, nodes, NodeShape::default())
    }

    /// Adds a partition of `nodes` nodes with a custom shape.
    pub fn partition_shaped(
        mut self,
        name: impl Into<String>,
        nodes: u32,
        shape: NodeShape,
    ) -> Self {
        self.partitions
            .push((name.into(), nodes, shape, Vec::new()));
        self
    }

    /// Adds a partition carrying a gres pool (e.g. the quantum partition).
    pub fn partition_with_gres(
        mut self,
        name: impl Into<String>,
        nodes: u32,
        kind: GresKind,
        count: u32,
    ) -> Self {
        self.partitions.push((
            name.into(),
            nodes,
            NodeShape::default(),
            vec![(kind, count)],
        ));
        self
    }

    /// Adds a gres pool to the most recently added partition.
    ///
    /// # Panics
    ///
    /// Panics if no partition has been added yet.
    pub fn gres(mut self, kind: GresKind, count: u32) -> Self {
        let last = self
            .partitions
            .last_mut()
            // hpcqc-lint: allow(D004, reason = "documented builder-misuse panic (see # Panics); builders run at setup, not in the event loop")
            .expect("gres() before any partition()");
        last.3.push((kind, count));
        self
    }

    /// Builds the cluster, with accounting starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if two partitions share a name or no partition was added.
    pub fn build(self, start: SimTime) -> Cluster {
        assert!(
            !self.partitions.is_empty(),
            "cluster needs at least one partition"
        );
        let mut nodes = Vec::new();
        let mut partitions: Vec<Partition> = Vec::new();
        let mut free = Vec::new();
        let mut node_partition = Vec::new();
        let mut node_busy = Vec::new();
        let mut gres_busy = Vec::new();
        let mut slots = Vec::new();

        for (idx, (name, count, shape, gres)) in self.partitions.into_iter().enumerate() {
            let pid = PartitionId::new(idx as u32);
            assert!(
                partitions.iter().all(|p| p.name() != name),
                "duplicate partition name `{name}`"
            );
            let first = nodes.len() as u32;
            let mut ids = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let nid = NodeId::new(nodes.len() as u32);
                nodes.push(Node::new(nid, shape));
                node_partition.push(pid);
                ids.push(nid);
            }
            free.push(NodeSet::full(first, count));
            // A node-less partition still needs a non-zero tracker capacity.
            node_busy.push(BusyTracker::new(start, f64::from(count.max(1))));
            if count > 0 {
                slots.push(Slot::nodes(pid, count));
            }
            let mut part = Partition::new(pid, name, ids);
            let mut pools = Vec::with_capacity(gres.len());
            for (pool, (kind, n)) in gres.into_iter().enumerate() {
                slots.push(Slot::gres(pid, pool, n));
                pools.push(BusyTracker::new(start, f64::from(n.max(1))));
                part = part.with_gres(kind, n);
            }
            gres_busy.push(pools);
            partitions.push(part);
        }

        Cluster {
            node_owner: vec![None; nodes.len()],
            nodes,
            partitions,
            free,
            node_partition,
            allocations: IdMap::new(),
            next_alloc: 0,
            start,
            node_busy,
            gres_busy,
            slots,
            version: 0,
        }
    }
}

/// The machine state: nodes, partitions, gres pools and live allocations.
///
/// See [`ClusterBuilder`] for construction.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    partitions: Vec<Partition>,
    /// Free schedulable nodes per partition, picked lowest id first.
    free: Vec<NodeSet>,
    node_partition: Vec<PartitionId>,
    /// The allocation holding each node, indexed by node id.
    node_owner: Vec<Option<AllocationId>>,
    allocations: IdMap<AllocationId, Allocation>,
    next_alloc: u32,
    start: SimTime,
    node_busy: Vec<BusyTracker>,
    /// Allocated-unit trackers, indexed by partition and then by pool in
    /// the partition's pool order.
    gres_busy: Vec<Vec<BusyTracker>>,
    slots: Vec<Slot>,
    /// Bumped by every method that mutates the cluster; see
    /// [`Cluster::version`].
    version: u64,
}

impl Cluster {
    /// The time accounting started.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// A counter that every mutating method (`allocate`, `release`,
    /// `shrink`, `expand`, `fail_node`, `restore_node`) bumps, so a caller
    /// that recorded it can tell in O(1) that nothing changed since. A
    /// moved version does not prove a change: an expand may undo a
    /// shrink.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks up a partition by name.
    pub fn partition(&self, name: &str) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.name() == name)
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.raw() as usize)
    }

    fn pid(&self, name: &str) -> Result<PartitionId, ClusterError> {
        self.partition(name)
            .map(Partition::id)
            .ok_or_else(|| ClusterError::UnknownPartition(name.to_string()))
    }

    /// Free schedulable nodes in a partition.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] if the name is unknown.
    pub fn free_nodes(&self, partition: &str) -> Result<u32, ClusterError> {
        let pid = self.pid(partition)?;
        Ok(self.free[pid.raw() as usize].len())
    }

    /// Total nodes in a partition.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] if the name is unknown.
    pub fn total_nodes(&self, partition: &str) -> Result<u32, ClusterError> {
        let pid = self.pid(partition)?;
        Ok(self.partitions[pid.raw() as usize].node_count() as u32)
    }

    /// Free gres units of `kind` in a partition.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] or [`ClusterError::NoSuchGres`].
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

    /// The resource slots, numbered when the cluster was built: partition
    /// by partition in the order they were added, first the partition's
    /// nodes (only if it has any), then each of its gres pools.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The slot of a partition's nodes; `None` for an unknown partition
    /// or one without nodes.
    pub fn node_slot(&self, partition: &str) -> Option<usize> {
        let pid = self.pid(partition).ok()?;
        self.slots
            .iter()
            .position(|s| s.partition() == pid && !s.is_gres())
    }

    /// The slot of a partition's gres pool of `kind`; `None` for an
    /// unknown partition or a kind the partition lacks.
    pub fn gres_slot(&self, partition: &str, kind: &GresKind) -> Option<usize> {
        let pid = self.pid(partition).ok()?;
        let pool = self.partitions[pid.raw() as usize]
            .gres_pools()
            .iter()
            .position(|p| p.kind() == kind)?;
        self.slots
            .iter()
            .position(|s| s.partition() == pid && s.pool() == Some(pool))
    }

    /// Units of `slot` free right now: schedulable unallocated nodes, or
    /// unallocated gres units. 0 for a slot the cluster does not have.
    pub fn slot_free(&self, slot: usize) -> u32 {
        let Some(s) = self.slots.get(slot) else {
            return 0;
        };
        let pidx = s.partition().raw() as usize;
        match s.pool() {
            None => self.free[pidx].len(),
            Some(pool) => self.partitions[pidx]
                .gres_pools()
                .get(pool)
                .map_or(0, |p| p.available()),
        }
    }

    /// A slot's name for messages: `classical nodes`, `quantum qpu`.
    pub fn slot_label(&self, slot: usize) -> String {
        let Some(s) = self.slots.get(slot) else {
            return format!("slot {slot}");
        };
        let part = &self.partitions[s.partition().raw() as usize];
        match s.pool().and_then(|pool| part.gres_pools().get(pool)) {
            None => format!("{} nodes", part.name()),
            Some(pool) => format!("{} {}", part.name(), pool.kind()),
        }
    }

    /// Checks whether `request` could be granted right now, without granting.
    ///
    /// # Errors
    ///
    /// The error identifies the first unsatisfiable group.
    pub fn can_allocate(&self, request: &AllocRequest) -> Result<(), ClusterError> {
        self.resolve(request).map(|_| ())
    }

    /// The step [`Cluster::can_allocate`] and [`Cluster::allocate`] share:
    /// resolves each group's partition and gres kinds to ids, once, then
    /// checks them against the free pools.
    ///
    /// Errors come in a fixed precedence: an empty request, then the first
    /// unknown partition in group order, then node shortages, then gres
    /// ones (a missing pool or too few free units), each in partition id
    /// order and, within a partition, in gres kind order. Demands on one
    /// pool accumulate across groups.
    fn resolve(&self, request: &AllocRequest) -> Result<Vec<Line>, ClusterError> {
        if request.is_empty() {
            return Err(ClusterError::EmptyRequest);
        }
        let mut lines = Vec::with_capacity(request.groups().iter().map(|g| 1 + g.gres.len()).sum());
        for (group, g) in request.groups().iter().enumerate() {
            let partition = self.pid(&g.partition)?;
            let part = &self.partitions[partition.raw() as usize];
            lines.push(Line {
                group,
                entry: 0,
                partition,
                pool: Pool::Nodes,
                count: g.nodes,
                start: 0,
            });
            for (entry, (kind, count)) in g.gres.iter().enumerate() {
                lines.push(Line {
                    group,
                    entry,
                    partition,
                    pool: part.gres_pool_index(kind).map_or(Pool::Missing, Pool::Gres),
                    count: *count,
                    start: 0,
                });
            }
        }
        let demand = |n: &Line| -> u32 {
            lines
                .iter()
                .filter(|m| m.partition == n.partition && m.pool == n.pool)
                .map(|m| m.count)
                .sum()
        };
        let part = |n: &Line| &self.partitions[n.partition.raw() as usize];
        let short = lines
            .iter()
            .filter(|n| n.pool == Pool::Nodes)
            .map(|n| (n, demand(n), self.free[n.partition.raw() as usize].len()))
            .filter(|(_, need, free)| free < need)
            .min_by_key(|(n, ..)| n.partition);
        if let Some((n, requested, available)) = short {
            return Err(ClusterError::InsufficientNodes {
                partition: part(n).name().to_string(),
                requested,
                available,
            });
        }
        let kind = |n: &Line| &request.groups()[n.group].gres[n.entry].0;
        let short = lines
            .iter()
            .filter_map(|n| match n.pool {
                Pool::Nodes => None,
                Pool::Missing => Some((n, kind(n), None)),
                Pool::Gres(pool) => {
                    let (requested, available) =
                        (demand(n), part(n).gres_pools()[pool].available());
                    (available < requested).then(|| (n, kind(n), Some((requested, available))))
                }
            })
            .min_by(|(a, a_kind, _), (b, b_kind, _)| {
                (a.partition, a_kind).cmp(&(b.partition, b_kind))
            });
        match short {
            None => Ok(lines),
            Some((n, kind, None)) => Err(ClusterError::NoSuchGres {
                partition: part(n).name().to_string(),
                kind: kind.clone(),
            }),
            Some((n, kind, Some((requested, available)))) => Err(ClusterError::InsufficientGres {
                partition: part(n).name().to_string(),
                kind: kind.clone(),
                requested,
                available,
            }),
        }
    }

    /// Atomically grants `request` at time `now`.
    ///
    /// Nodes are picked lowest-id-first (deterministic); gres units likewise.
    ///
    /// # Errors
    ///
    /// On any unsatisfiable group the cluster is left untouched and the error
    /// identifies the shortfall.
    pub fn allocate(
        &mut self,
        request: &AllocRequest,
        now: SimTime,
    ) -> Result<AllocationId, ClusterError> {
        let lines = self.resolve(request)?;
        Ok(self.grant(lines, now))
    }

    /// Grants resolved and checked `lines` at `now`; they become the
    /// live record.
    fn grant(&mut self, mut lines: Vec<Line>, now: SimTime) -> AllocationId {
        self.version += 1;
        let id = AllocationId::new(self.next_alloc);
        self.next_alloc += 1;
        let mut ids = Vec::with_capacity(lines.iter().map(|l| l.count as usize).sum());
        for line in &mut lines {
            let pidx = line.partition.raw() as usize;
            line.start = ids.len();
            match line.pool {
                Pool::Nodes => {
                    self.free[pidx].take_lowest(line.count, &mut ids);
                    for &n in &ids[line.start..] {
                        self.node_owner[n as usize] = Some(id);
                    }
                    if line.count > 0 {
                        self.node_busy[pidx].acquire(now, f64::from(line.count));
                    }
                }
                Pool::Gres(pool) if line.count > 0 => {
                    self.partitions[pidx].gres_pools_mut()[pool].take_lowest(line.count, &mut ids);
                    self.gres_busy[pidx][pool].acquire(now, f64::from(line.count));
                }
                Pool::Gres(_) | Pool::Missing => {}
            }
            debug_assert_eq!(
                ids.len() - line.start,
                line.count as usize,
                "resolve checked capacity"
            );
        }
        self.allocations
            .insert(id, Allocation::new(id, lines, ids, now));
        id
    }

    /// Releases an entire allocation at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownAllocation`] if `id` is not live.
    pub fn release(&mut self, id: AllocationId, now: SimTime) -> Result<(), ClusterError> {
        let alloc = self
            .allocations
            .remove(&id)
            .ok_or(ClusterError::UnknownAllocation(id))?;
        self.version += 1;
        for line in alloc.lines() {
            let pidx = line.partition.raw() as usize;
            let held = alloc.held(line);
            if held.is_empty() {
                continue;
            }
            match line.pool {
                Pool::Nodes => {
                    for &n in held {
                        self.node_owner[n as usize] = None;
                        // Failed nodes do not return to the free pool.
                        if self.nodes[n as usize].is_schedulable() {
                            self.free[pidx].insert(NodeId::new(n));
                        }
                    }
                    self.node_busy[pidx].release(now, held.len() as f64);
                }
                Pool::Gres(pool) => {
                    self.partitions[pidx].gres_pools_mut()[pool].give_back(held);
                    self.gres_busy[pidx][pool].release(now, held.len() as f64);
                }
                Pool::Missing => {}
            }
        }
        Ok(())
    }

    /// Shrinks an allocation's node count in `partition` down to
    /// `keep_nodes`, releasing the highest-id nodes first. Returns the
    /// released node ids. Gres units are untouched.
    ///
    /// This is the malleability primitive: a hybrid job entering its quantum
    /// phase gives classical nodes back to the scheduler (Fig. 4).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownAllocation`] if `id` is not live;
    /// [`ClusterError::InvalidResize`] if the allocation holds fewer than
    /// `keep_nodes` nodes in that partition.
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
        let line = alloc
            .nodes_line(pid)
            .ok_or_else(|| ClusterError::InvalidResize {
                allocation: id,
                reason: format!("allocation holds no group in partition `{partition}`"),
            })?;
        let held = alloc.lines()[line].count;
        if held < keep_nodes {
            return Err(ClusterError::InvalidResize {
                allocation: id,
                reason: format!("holds {held} nodes, cannot keep {keep_nodes}"),
            });
        }
        self.version += 1;
        if held == keep_nodes {
            return Ok(Vec::new());
        }
        // Highest ids leave first so re-expansion tends to reuse the same nodes.
        let released = alloc.split_nodes(line, keep_nodes);
        for n in &released {
            self.node_owner[n.raw() as usize] = None;
            if self.nodes[n.raw() as usize].is_schedulable() {
                self.free[pidx].insert(*n);
            }
        }
        self.node_busy[pidx].release(now, released.len() as f64);
        Ok(released)
    }

    /// Grows an allocation by `add_nodes` nodes in `partition`.
    ///
    /// Returns the added node ids.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownAllocation`] if `id` is not live;
    /// [`ClusterError::InsufficientNodes`] if the partition cannot supply
    /// them right now (the malleable job then waits).
    pub fn expand(
        &mut self,
        id: AllocationId,
        partition: &str,
        add_nodes: u32,
        now: SimTime,
    ) -> Result<Vec<NodeId>, ClusterError> {
        let pid = self.pid(partition)?;
        let pidx = pid.raw() as usize;
        let alloc = self
            .allocations
            .get_mut(&id)
            .ok_or(ClusterError::UnknownAllocation(id))?;
        let have = self.free[pidx].len();
        if have < add_nodes {
            return Err(ClusterError::InsufficientNodes {
                partition: partition.to_string(),
                requested: add_nodes,
                available: have,
            });
        }
        self.version += 1;
        let mut picked = Vec::with_capacity(add_nodes as usize);
        self.free[pidx].take_lowest(add_nodes, &mut picked);
        for &n in &picked {
            self.node_owner[n as usize] = Some(id);
        }
        if add_nodes > 0 {
            self.node_busy[pidx].acquire(now, f64::from(add_nodes));
        }
        alloc.add_nodes(pid, &picked);
        Ok(picked.into_iter().map(NodeId::new).collect())
    }

    /// A live allocation by id.
    pub fn allocation(&self, id: AllocationId) -> Option<&Allocation> {
        self.allocations.get(&id)
    }

    /// The named view of a live allocation: one [`AllocatedGroup`] per
    /// granted group, with partition names and gres kinds looked up.
    /// Built on demand, for tests and debugging; the record keeps ids.
    pub fn allocated_groups(&self, id: AllocationId) -> Option<Vec<AllocatedGroup>> {
        let alloc = self.allocations.get(&id)?;
        let mut groups: Vec<AllocatedGroup> = Vec::new();
        // A group's nodes line comes first, then its gres lines.
        for line in alloc.lines() {
            let part = &self.partitions[line.partition.raw() as usize];
            let held = alloc.held(line);
            match line.pool {
                Pool::Nodes => groups.push(AllocatedGroup {
                    partition: part.name().to_string(),
                    nodes: held.iter().map(|&n| NodeId::new(n)).collect(),
                    gres: Vec::new(),
                }),
                Pool::Gres(pool) if !held.is_empty() => {
                    if let Some(group) = groups.last_mut() {
                        group
                            .gres
                            .push((part.gres_pools()[pool].kind().clone(), held.to_vec()));
                    }
                }
                Pool::Gres(_) | Pool::Missing => {}
            }
        }
        Some(groups)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocations.len()
    }

    /// Marks a node failed. If it was allocated, returns the owning
    /// allocation id so the caller can kill/requeue the job.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an out-of-range id.
    pub fn fail_node(&mut self, id: NodeId) -> Result<Option<AllocationId>, ClusterError> {
        let node = self
            .nodes
            .get_mut(id.raw() as usize)
            .ok_or(ClusterError::UnknownNode(id))?;
        node.set_state(NodeState::Down);
        self.version += 1;
        let pid = self.node_partition[id.raw() as usize];
        self.free[pid.raw() as usize].remove(id);
        Ok(self.node_owner[id.raw() as usize])
    }

    /// Returns a failed/drained node to service.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an out-of-range id.
    pub fn restore_node(&mut self, id: NodeId) -> Result<(), ClusterError> {
        let node = self
            .nodes
            .get_mut(id.raw() as usize)
            .ok_or(ClusterError::UnknownNode(id))?;
        node.set_state(NodeState::Up);
        self.version += 1;
        if self.node_owner[id.raw() as usize].is_none() {
            let pid = self.node_partition[id.raw() as usize];
            self.free[pid.raw() as usize].insert(id);
        }
        Ok(())
    }

    /// Allocated-node utilization of a partition over `[start, until]`,
    /// in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] if the name is unknown.
    pub fn node_utilization(&self, partition: &str, until: SimTime) -> Result<f64, ClusterError> {
        let pid = self.pid(partition)?;
        Ok(self.node_busy[pid.raw() as usize].utilization(until))
    }

    /// Allocated node-seconds of a partition over `[start, until]`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] if the name is unknown.
    pub fn node_seconds(&self, partition: &str, until: SimTime) -> Result<f64, ClusterError> {
        let pid = self.pid(partition)?;
        Ok(self.node_busy[pid.raw() as usize].busy_unit_seconds(until))
    }

    /// Allocated-gres utilization of `kind` in a partition over
    /// `[start, until]`, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPartition`] or [`ClusterError::NoSuchGres`].
    pub fn gres_utilization(
        &self,
        partition: &str,
        kind: &GresKind,
        until: SimTime,
    ) -> Result<f64, ClusterError> {
        let pidx = self.pid(partition)?.raw() as usize;
        self.partitions[pidx]
            .gres_pool_index(kind)
            .map(|pool| self.gres_busy[pidx][pool].utilization(until))
            .ok_or_else(|| ClusterError::NoSuchGres {
                partition: partition.to_string(),
                kind: kind.clone(),
            })
    }

    /// Consistency check: every node is either free, allocated, or
    /// unschedulable; no node is both free and allocated. Used by tests and
    /// debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = NodeId::new(idx as u32);
            let pid = self.node_partition[idx];
            let in_free = self.free[pid.raw() as usize].contains(id);
            let allocated = self.node_owner[idx].is_some();
            if in_free && allocated {
                return Err(format!("{id} is both free and allocated"));
            }
            if in_free && !node.is_schedulable() {
                return Err(format!("{id} is free but not schedulable"));
            }
            if node.is_schedulable() && !in_free && !allocated {
                return Err(format!("{id} leaked: up, not free, not allocated"));
            }
        }
        for (id, alloc) in self.allocations.iter() {
            for n in alloc.node_ids() {
                if self.node_owner[n.raw() as usize] != Some(id) {
                    return Err(format!("{n} owner mismatch for {id}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::GroupRequest;

    fn listing1_cluster() -> Cluster {
        ClusterBuilder::new()
            .partition("classical", 10)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 1)
            .build(SimTime::ZERO)
    }

    fn listing1_request() -> AllocRequest {
        AllocRequest::new()
            .group(GroupRequest::nodes("classical", 10))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1))
    }

    #[test]
    fn listing1_allocates_atomically() {
        let mut c = listing1_cluster();
        let id = c.allocate(&listing1_request(), SimTime::ZERO).unwrap();
        assert_eq!(c.free_nodes("classical").unwrap(), 0);
        assert_eq!(c.free_gres("quantum", &GresKind::qpu()).unwrap(), 0);
        c.check_invariants().unwrap();
        c.release(id, SimTime::from_secs(3600)).unwrap();
        assert_eq!(c.free_nodes("classical").unwrap(), 10);
        assert_eq!(c.free_gres("quantum", &GresKind::qpu()).unwrap(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn failed_group_leaves_state_untouched() {
        let mut c = listing1_cluster();
        // First job takes the QPU.
        let _first = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
                SimTime::ZERO,
            )
            .unwrap();
        // Listing-1 job must fail atomically: nodes must NOT be taken.
        let err = c.allocate(&listing1_request(), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientGres { .. }));
        assert_eq!(c.free_nodes("classical").unwrap(), 10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn utilization_integrates_exactly() {
        let mut c = listing1_cluster();
        let id = c.allocate(&listing1_request(), SimTime::ZERO).unwrap();
        c.release(id, SimTime::from_secs(1800)).unwrap();
        // 10 nodes busy half of the hour.
        let u = c
            .node_utilization("classical", SimTime::from_secs(3600))
            .unwrap();
        assert!((u - 0.5).abs() < 1e-12);
        let q = c
            .gres_utilization("quantum", &GresKind::qpu(), SimTime::from_secs(3600))
            .unwrap();
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nodes_picked_lowest_first() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 3)),
                SimTime::ZERO,
            )
            .unwrap();
        let alloc = c.allocation(id).unwrap();
        let ids: Vec<u32> = alloc.node_ids().map(NodeId::raw).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn shrink_releases_highest_ids() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 8)),
                SimTime::ZERO,
            )
            .unwrap();
        let released = c
            .shrink(id, "classical", 2, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(released.len(), 6);
        assert_eq!(released.iter().map(|n| n.raw()).min(), Some(2));
        assert_eq!(c.free_nodes("classical").unwrap(), 8);
        assert_eq!(c.allocation(id).unwrap().node_count(), 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn expand_after_shrink_restores() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 8)),
                SimTime::ZERO,
            )
            .unwrap();
        c.shrink(id, "classical", 1, SimTime::from_secs(10))
            .unwrap();
        let added = c
            .expand(id, "classical", 7, SimTime::from_secs(20))
            .unwrap();
        assert_eq!(added.len(), 7);
        assert_eq!(c.allocation(id).unwrap().node_count(), 8);
        assert_eq!(c.free_nodes("classical").unwrap(), 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn expand_fails_when_pool_exhausted() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 5)),
                SimTime::ZERO,
            )
            .unwrap();
        let _other = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 5)),
                SimTime::ZERO,
            )
            .unwrap();
        let err = c
            .expand(id, "classical", 1, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientNodes { .. }));
        assert_eq!(c.allocation(id).unwrap().node_count(), 5);
    }

    #[test]
    fn shrink_to_more_than_held_errors() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 2)),
                SimTime::ZERO,
            )
            .unwrap();
        let err = c
            .shrink(id, "classical", 5, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidResize { .. }));
    }

    #[test]
    fn release_unknown_allocation_errors() {
        let mut c = listing1_cluster();
        let err = c.release(AllocationId::new(99), SimTime::ZERO).unwrap_err();
        assert_eq!(err, ClusterError::UnknownAllocation(AllocationId::new(99)));
    }

    #[test]
    fn every_mutation_bumps_the_version() {
        let mut c = listing1_cluster();
        let mut last = c.version();
        let mut bumped = |c: &Cluster, op: &str| {
            assert!(c.version() > last, "{op} must bump the version");
            last = c.version();
        };
        let t = SimTime::ZERO;
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 4)),
                t,
            )
            .unwrap();
        bumped(&c, "allocate");
        c.shrink(id, "classical", 2, t).unwrap();
        bumped(&c, "shrink");
        c.expand(id, "classical", 2, t).unwrap();
        bumped(&c, "expand");
        c.fail_node(NodeId::new(9)).unwrap();
        bumped(&c, "fail_node");
        c.restore_node(NodeId::new(9)).unwrap();
        bumped(&c, "restore_node");
        c.release(id, t).unwrap();
        bumped(&c, "release");
        let before = c.version();
        assert!(c.allocate(&AllocRequest::new(), t).is_err());
        assert!(c.release(id, t).is_err());
        assert_eq!(
            c.version(),
            before,
            "a refused call leaves the cluster as it was"
        );
    }

    #[test]
    fn empty_request_rejected() {
        let mut c = listing1_cluster();
        let err = c.allocate(&AllocRequest::new(), SimTime::ZERO).unwrap_err();
        assert_eq!(err, ClusterError::EmptyRequest);
    }

    #[test]
    fn failed_node_skips_free_pool() {
        let mut c = listing1_cluster();
        assert_eq!(c.fail_node(NodeId::new(0)).unwrap(), None);
        assert_eq!(c.free_nodes("classical").unwrap(), 9);
        // Allocation must avoid the failed node.
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 9)),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(c
            .allocation(id)
            .unwrap()
            .node_ids()
            .all(|n| n != NodeId::new(0)));
        c.check_invariants().unwrap();
        c.restore_node(NodeId::new(0)).unwrap();
        assert_eq!(c.free_nodes("classical").unwrap(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn fail_allocated_node_reports_owner() {
        let mut c = listing1_cluster();
        let id = c
            .allocate(
                &AllocRequest::new().group(GroupRequest::nodes("classical", 3)),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(c.fail_node(NodeId::new(1)).unwrap(), Some(id));
        // Releasing must not return the failed node to the free pool.
        c.release(id, SimTime::from_secs(10)).unwrap();
        assert_eq!(c.free_nodes("classical").unwrap(), 9);
        c.check_invariants().unwrap();
    }

    #[test]
    fn accumulated_demands_checked_across_groups() {
        let mut c = listing1_cluster();
        // Two groups in the same partition totalling 11 > 10 must fail.
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 6))
            .group(GroupRequest::nodes("classical", 5));
        assert!(matches!(
            c.allocate(&req, SimTime::ZERO).unwrap_err(),
            ClusterError::InsufficientNodes { .. }
        ));
        let ok = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 6))
            .group(GroupRequest::nodes("classical", 4));
        assert!(c.allocate(&ok, SimTime::ZERO).is_ok());
        c.check_invariants().unwrap();
    }

    #[test]
    fn slots_number_node_and_gres_pools_at_build() {
        let mut c = ClusterBuilder::new()
            .partition("classical", 4)
            .partition_with_gres("quantum", 0, GresKind::qpu(), 2)
            .gres(GresKind::new("shots"), 8)
            .build(SimTime::ZERO);
        assert_eq!(c.slots().len(), 3, "a node-less partition has no node slot");
        assert_eq!(c.node_slot("classical"), Some(0));
        assert_eq!(c.node_slot("quantum"), None);
        assert_eq!(c.node_slot("gpu"), None);
        assert_eq!(c.gres_slot("quantum", &GresKind::qpu()), Some(1));
        assert_eq!(c.gres_slot("quantum", &GresKind::new("shots")), Some(2));
        assert_eq!(c.gres_slot("classical", &GresKind::qpu()), None);
        let capacities: Vec<u32> = c.slots().iter().map(|s| s.capacity()).collect();
        assert_eq!(capacities, vec![4, 2, 8]);
        assert_eq!(c.slot_label(0), "classical nodes");
        assert_eq!(c.slot_label(1), "quantum qpu");

        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 3))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
        c.allocate(&req, SimTime::ZERO).unwrap();
        c.fail_node(NodeId::new(3)).unwrap();
        let free: Vec<u32> = (0..4).map(|s| c.slot_free(s)).collect();
        assert_eq!(free, vec![0, 1, 8, 0], "slot 3 does not exist");
    }

    #[test]
    fn unknown_partition_error() {
        let c = listing1_cluster();
        assert!(matches!(
            c.free_nodes("gpu"),
            Err(ClusterError::UnknownPartition(_))
        ));
    }
}
