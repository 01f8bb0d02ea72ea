//! Allocation requests and live allocation records.
//!
//! A request is a list of *groups*, one per partition touched — the shape of
//! a SLURM heterogeneous job (`#SBATCH hetjob`). All groups of a request are
//! granted or denied **atomically**, which is exactly the co-scheduling
//! semantics the paper's Listing 1 relies on.
//!
//! A request names its partitions and gres kinds. The cluster resolves
//! those names to ids once, when it checks and grants the request, and
//! the resolved request becomes the live record, [`Allocation`], which
//! keeps only ids: per group the [`PartitionId`] and node ids, per gres
//! kind the pool's index and units. Starts and releases read and return
//! resources through those ids. [`AllocatedGroup`] is the named view of a
//! group, built on demand by
//! [`Cluster::allocated_groups`](crate::Cluster::allocated_groups) for
//! tests and debugging.

use crate::gres::GresKind;
use crate::ids::{AllocationId, NodeId, PartitionId};
use crate::slot::Slot;
use hpcqc_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Resources requested within one partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupRequest {
    /// Target partition name.
    pub partition: String,
    /// Whole nodes requested (may be 0 for gres-only groups).
    pub nodes: u32,
    /// Gres units requested, e.g. `[("qpu", 1)]`.
    pub gres: Vec<(GresKind, u32)>,
}

impl GroupRequest {
    /// A nodes-only group.
    pub fn nodes(partition: impl Into<String>, nodes: u32) -> Self {
        GroupRequest {
            partition: partition.into(),
            nodes,
            gres: Vec::new(),
        }
    }

    /// A gres-only group (e.g. `--gres=qpu:1` with no dedicated nodes).
    pub fn gres(partition: impl Into<String>, kind: GresKind, count: u32) -> Self {
        GroupRequest {
            partition: partition.into(),
            nodes: 0,
            gres: vec![(kind, count)],
        }
    }

    /// Adds a gres demand to this group.
    pub fn with_gres(mut self, kind: GresKind, count: u32) -> Self {
        self.gres.push((kind, count));
        self
    }

    /// `true` if the group asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0 && self.gres.iter().all(|(_, n)| *n == 0)
    }
}

/// An atomic multi-partition allocation request (heterogeneous job shape).
///
/// # Examples
///
/// ```
/// use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
/// use hpcqc_cluster::gres::GresKind;
///
/// // Listing 1 of the paper: 10 classical nodes + 1 QPU.
/// let req = AllocRequest::new()
///     .group(GroupRequest::nodes("classical", 10))
///     .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
/// assert_eq!(req.groups().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AllocRequest {
    groups: Vec<GroupRequest>,
}

impl AllocRequest {
    /// Creates an empty request; add groups with [`AllocRequest::group`].
    pub fn new() -> Self {
        AllocRequest::default()
    }

    /// Appends a group.
    pub fn group(mut self, group: GroupRequest) -> Self {
        self.groups.push(group);
        self
    }

    /// The request's groups.
    pub fn groups(&self) -> &[GroupRequest] {
        &self.groups
    }

    /// Total nodes requested across all groups.
    pub fn total_nodes(&self) -> u32 {
        self.groups.iter().map(|g| g.nodes).sum()
    }

    /// Total units of `kind` requested across all groups.
    pub fn total_gres(&self, kind: &GresKind) -> u32 {
        self.groups
            .iter()
            .flat_map(|g| g.gres.iter())
            .filter(|(k, _)| k == kind)
            .map(|(_, n)| n)
            .sum()
    }

    /// `true` if every group asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(GroupRequest::is_empty)
    }
}

/// Resources granted within one partition: the named view of a
/// [`Allocation`]'s group, from
/// [`Cluster::allocated_groups`](crate::Cluster::allocated_groups).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocatedGroup {
    /// The partition the resources came from.
    pub partition: String,
    /// The specific nodes granted.
    pub nodes: Vec<NodeId>,
    /// The specific gres units granted, per kind.
    pub gres: Vec<(GresKind, Vec<u32>)>,
}

/// What a [`Line`] draws on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pool {
    /// The partition's nodes.
    Nodes,
    /// The partition's gres pool at this index in its
    /// [`gres_pools`](crate::Partition::gres_pools).
    Gres(usize),
    /// A gres kind the partition has no pool of. The cluster refuses a
    /// request with such a line, so no live allocation holds one.
    Missing,
}

/// One line of a request resolved to ids: a group's nodes, or one gres
/// kind of a group. In a live [`Allocation`] the line holds `count` ids
/// from `start` in the allocation's id list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// Index of the request group.
    pub(crate) group: usize,
    /// Position of the gres kind in the group's gres list (0 for nodes).
    pub(crate) entry: usize,
    pub(crate) partition: PartitionId,
    pub(crate) pool: Pool,
    /// Units requested; in a live allocation, units held.
    pub(crate) count: u32,
    /// Where the line's ids start in its allocation's id list.
    pub(crate) start: usize,
}

impl Line {
    /// Positions of the line's ids in its allocation's id list.
    fn span(&self) -> Range<usize> {
        self.start..self.start + self.count as usize
    }
}

/// A live allocation: the concrete resources backing a running job.
///
/// It keeps the request it granted resolved to ids, one line per group's
/// nodes and per gres kind of a group (plus a nodes line for each
/// partition an [`expand`](crate::Cluster::expand) reached first), and
/// the granted raw node ids and gres units, line by line, in one list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    id: AllocationId,
    lines: Vec<Line>,
    ids: Vec<u32>,
    granted_at: SimTime,
}

impl Allocation {
    pub(crate) fn new(
        id: AllocationId,
        lines: Vec<Line>,
        ids: Vec<u32>,
        granted_at: SimTime,
    ) -> Self {
        Allocation {
            id,
            lines,
            ids,
            granted_at,
        }
    }

    /// The allocation's id.
    pub fn id(&self) -> AllocationId {
        self.id
    }

    /// When the allocation was granted.
    pub fn granted_at(&self) -> SimTime {
        self.granted_at
    }

    /// All node ids across groups.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.lines
            .iter()
            .filter(|l| l.pool == Pool::Nodes)
            .flat_map(|l| self.held(l).iter().map(|&n| NodeId::new(n)))
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.pool == Pool::Nodes)
            .map(|l| l.count as usize)
            .sum()
    }

    /// The units granted from the gres pool `slot`, in grant order; none
    /// for a node slot. Slots come from [`Cluster::slots`](crate::Cluster::slots).
    pub fn gres_units(&self, slot: Slot) -> impl Iterator<Item = u32> + '_ {
        let pool = slot.pool().map(Pool::Gres);
        self.lines
            .iter()
            .filter(move |l| l.partition == slot.partition() && Some(l.pool) == pool)
            .flat_map(|l| self.held(l).iter().copied())
    }

    /// The granted lines, in request order.
    pub(crate) fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// The ids `line` holds: raw node ids or gres units.
    pub(crate) fn held(&self, line: &Line) -> &[u32] {
        &self.ids[line.span()]
    }

    /// Position of the first nodes line on `partition`.
    pub(crate) fn nodes_line(&self, partition: PartitionId) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| l.partition == partition && l.pool == Pool::Nodes)
    }

    /// Sorts the nodes of line `at`, keeps its `keep` lowest, and removes
    /// and returns the rest.
    pub(crate) fn split_nodes(&mut self, at: usize, keep: u32) -> Vec<NodeId> {
        let span = self.lines[at].span();
        self.ids[span.clone()].sort_unstable();
        let released: Vec<NodeId> = self
            .ids
            .drain(span.start + keep as usize..span.end)
            .map(NodeId::new)
            .collect();
        self.lines[at].count = keep;
        for line in &mut self.lines[at + 1..] {
            line.start -= released.len();
        }
        released
    }

    /// Appends raw node ids to the first nodes line on `partition`, or to
    /// a new one, a group of its own, if the allocation has none there.
    pub(crate) fn add_nodes(&mut self, partition: PartitionId, nodes: &[u32]) {
        let Some(at) = self.nodes_line(partition) else {
            self.lines.push(Line {
                group: self.lines.last().map_or(0, |l| l.group + 1),
                entry: 0,
                partition,
                pool: Pool::Nodes,
                count: nodes.len() as u32,
                start: self.ids.len(),
            });
            self.ids.extend(nodes);
            return;
        };
        let end = self.lines[at].span().end;
        self.ids.splice(end..end, nodes.iter().copied());
        self.lines[at].count += nodes.len() as u32;
        for line in &mut self.lines[at + 1..] {
            line.start += nodes.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_totals() {
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 10))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 2));
        assert_eq!(req.total_nodes(), 10);
        assert_eq!(req.total_gres(&GresKind::qpu()), 2);
        assert_eq!(req.total_gres(&GresKind::new("fpga")), 0);
        assert!(!req.is_empty());
    }

    #[test]
    fn empty_detection() {
        assert!(AllocRequest::new().is_empty());
        let req = AllocRequest::new().group(GroupRequest::nodes("x", 0));
        assert!(req.is_empty());
    }

    #[test]
    fn group_builders() {
        let g = GroupRequest::nodes("classical", 4).with_gres(GresKind::new("gpu"), 8);
        assert_eq!(g.nodes, 4);
        assert_eq!(g.gres, vec![(GresKind::new("gpu"), 8)]);
    }

    #[test]
    fn allocation_accessors() {
        let quantum = PartitionId::new(1);
        let line = |group, partition, pool, count, start| Line {
            group,
            entry: 0,
            partition,
            pool,
            count,
            start,
        };
        let mut alloc = Allocation::new(
            AllocationId::new(1),
            vec![
                line(0, PartitionId::new(0), Pool::Nodes, 2, 0),
                line(1, quantum, Pool::Nodes, 0, 2),
                line(1, quantum, Pool::Gres(1), 1, 2),
                line(1, quantum, Pool::Gres(0), 2, 3),
            ],
            vec![1, 0, 0, 3, 4],
            SimTime::from_secs(5),
        );
        assert_eq!(alloc.node_count(), 2);
        let units = |alloc: &Allocation, slot: Slot| alloc.gres_units(slot).collect::<Vec<_>>();
        assert_eq!(units(&alloc, Slot::gres(quantum, 0, 8)), vec![3, 4]);
        assert_eq!(units(&alloc, Slot::gres(quantum, 1, 8)), vec![0]);
        assert!(units(&alloc, Slot::nodes(quantum, 8)).is_empty());
        assert!(units(&alloc, Slot::gres(PartitionId::new(0), 0, 8)).is_empty());
        assert_eq!(alloc.granted_at(), SimTime::from_secs(5));

        // Resizes keep every later line's ids in place.
        assert_eq!(alloc.split_nodes(0, 1), vec![NodeId::new(1)]);
        alloc.add_nodes(PartitionId::new(0), &[7, 8]);
        alloc.add_nodes(PartitionId::new(2), &[9]);
        let nodes: Vec<u32> = alloc.node_ids().map(NodeId::raw).collect();
        assert_eq!(nodes, vec![0, 7, 8, 9]);
        assert_eq!(units(&alloc, Slot::gres(quantum, 0, 8)), vec![3, 4]);
        assert_eq!(alloc.lines()[4].group, 2);
    }
}
