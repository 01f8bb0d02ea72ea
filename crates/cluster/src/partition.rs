//! Partitions: named groups of nodes with shared limits and gres pools.

use crate::gres::{GresKind, GresPool};
use crate::ids::{NodeId, PartitionId};
use hpcqc_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A named slice of the machine, mirroring a SLURM partition.
///
/// Listing 1 of the paper uses two: a `classical` partition holding the CPU
/// nodes and a `quantum` partition exposing QPUs as gres.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    id: PartitionId,
    name: String,
    nodes: Vec<NodeId>,
    max_walltime: Option<SimDuration>,
    gres: Vec<GresPool>,
}

impl Partition {
    /// Creates a partition over the given nodes.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(id: PartitionId, name: impl Into<String>, nodes: Vec<NodeId>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "Partition: name must not be empty");
        Partition {
            id,
            name,
            nodes,
            max_walltime: None,
            gres: Vec::new(),
        }
    }

    /// Sets the maximum job walltime enforced by this partition.
    pub fn with_max_walltime(mut self, limit: SimDuration) -> Self {
        self.max_walltime = Some(limit);
        self
    }

    /// Attaches a gres pool (e.g. 4 × `qpu`).
    ///
    /// # Panics
    ///
    /// Panics if a pool of the same kind is already attached.
    pub fn with_gres(mut self, kind: GresKind, capacity: u32) -> Self {
        assert!(
            !self.gres.iter().any(|p| p.kind() == &kind),
            "Partition {}: duplicate gres kind {kind}",
            self.name
        );
        self.gres.push(GresPool::new(kind, capacity));
        self
    }

    /// The partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The partition's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node ids belonging to this partition.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes in the partition.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The walltime limit, if any.
    pub fn max_walltime(&self) -> Option<SimDuration> {
        self.max_walltime
    }

    /// The gres pools attached to this partition.
    pub fn gres_pools(&self) -> &[GresPool] {
        &self.gres
    }

    /// The position of the pool of the given kind in [`Partition::gres_pools`].
    pub(crate) fn gres_pool_index(&self, kind: &GresKind) -> Option<usize> {
        self.gres.iter().position(|p| p.kind() == kind)
    }

    /// The gres pools, mutably.
    pub(crate) fn gres_pools_mut(&mut self) -> &mut [GresPool] {
        &mut self.gres
    }

    /// The pool of the given kind.
    pub fn gres_pool(&self, kind: &GresKind) -> Option<&GresPool> {
        self.gres.iter().find(|p| p.kind() == kind)
    }

    /// Total capacity of the given gres kind (0 if absent).
    pub fn gres_capacity(&self, kind: &GresKind) -> u32 {
        self.gres_pool(kind).map_or(0, GresPool::capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        Partition::new(PartitionId::new(0), "quantum", vec![NodeId::new(0)])
            .with_max_walltime(SimDuration::from_hours(1))
            .with_gres(GresKind::qpu(), 2)
    }

    #[test]
    fn accessors() {
        let p = part();
        assert_eq!(p.name(), "quantum");
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.max_walltime(), Some(SimDuration::from_hours(1)));
        assert_eq!(p.gres_capacity(&GresKind::qpu()), 2);
        assert_eq!(p.gres_capacity(&GresKind::new("fpga")), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate gres")]
    fn duplicate_gres_panics() {
        let _ = part().with_gres(GresKind::qpu(), 1);
    }

    #[test]
    #[should_panic(expected = "name")]
    fn empty_name_panics() {
        let _ = Partition::new(PartitionId::new(0), "", vec![]);
    }
}
