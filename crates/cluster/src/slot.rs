//! Dense resource slots.
//!
//! Every schedulable pool of a [`Cluster`](crate::Cluster) — a partition's
//! nodes, or one of its gres pools — gets a small integer id, its *slot*,
//! once, when the cluster is built. Planners keep per-resource counts in a
//! flat array indexed by slot instead of maps keyed by partition and gres
//! names, and resolve a request's names to slots once per job.

use crate::ids::PartitionId;

/// One schedulable resource pool of a cluster: a partition's nodes or one
/// of its gres pools, with its fixed total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    partition: PartitionId,
    /// Index into the partition's gres pools; `None` for its nodes.
    pool: Option<usize>,
    capacity: u32,
}

impl Slot {
    pub(crate) fn nodes(partition: PartitionId, capacity: u32) -> Self {
        Slot {
            partition,
            pool: None,
            capacity,
        }
    }

    pub(crate) fn gres(partition: PartitionId, pool: usize, capacity: u32) -> Self {
        Slot {
            partition,
            pool: Some(pool),
            capacity,
        }
    }

    /// The partition the pool belongs to.
    pub(crate) fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Index of the gres pool within its partition
    /// ([`Partition::gres_pools`](crate::Partition::gres_pools)), or `None`
    /// for the partition's nodes.
    pub(crate) fn pool(&self) -> Option<usize> {
        self.pool
    }

    /// `true` for a gres pool, `false` for a node pool.
    pub fn is_gres(&self) -> bool {
        self.pool.is_some()
    }

    /// Total units: the partition's node count (failed nodes included) or
    /// the gres pool's capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}
