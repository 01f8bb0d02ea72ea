//! # hpcqc-cluster
//!
//! The machine model for the `hpcqc` hybrid HPC–QC scheduling simulator:
//! nodes, partitions, SLURM-style generic resources (gres), and atomic
//! multi-partition allocations.
//!
//! The paper's Listing 1 is the canonical shape this crate models:
//!
//! ```text
//! #SBATCH --partition classical     →  Partition "classical", 10 nodes
//! #SBATCH --nodes 10
//! #SBATCH hetjob                    →  AllocRequest with two groups,
//! #SBATCH --partition quantum          granted or denied atomically
//! #SBATCH --gres=qpu:1              →  GresPool("qpu") in "quantum"
//! ```
//!
//! Beyond the basics, the crate exposes the two primitives the paper's
//! proposals need:
//!
//! * **gres virtualization hook** — gres units are *indexed*, so a pool of N
//!   units over one physical QPU realizes the paper's Virtual QPUs (Fig. 3);
//! * **[`Cluster::shrink`] / [`Cluster::expand`]** — the malleability
//!   resize primitive (Fig. 4).
//!
//! ## Example
//!
//! ```
//! use hpcqc_cluster::{AllocRequest, ClusterBuilder, GresKind, GroupRequest};
//! use hpcqc_simcore::time::SimTime;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .partition("classical", 10)
//!     .partition_with_gres("quantum", 1, GresKind::qpu(), 1)
//!     .build(SimTime::ZERO);
//!
//! // Listing 1: 10 classical nodes + 1 QPU, atomically.
//! let req = AllocRequest::new()
//!     .group(GroupRequest::nodes("classical", 10))
//!     .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
//! let id = cluster.allocate(&req, SimTime::ZERO)?;
//! assert_eq!(cluster.free_nodes("classical")?, 0);
//! cluster.release(id, SimTime::from_secs(3600))?;
//! # Ok::<(), hpcqc_cluster::ClusterError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod cluster;
pub mod error;
pub mod gres;
pub mod ids;
pub mod node;
mod nodeset;
pub mod partition;
pub mod slot;

pub use alloc::{AllocRequest, AllocatedGroup, Allocation, GroupRequest};
pub use cluster::{Cluster, ClusterBuilder};
pub use error::ClusterError;
pub use gres::{GresKind, GresPool};
pub use ids::{AllocationId, NodeId, PartitionId};
pub use node::{Node, NodeShape, NodeState};
pub use partition::Partition;
pub use slot::Slot;
