//! Property tests: the cluster never loses or duplicates resources under
//! arbitrary operation sequences.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::{GresKind, GresPool};
use hpcqc_cluster::ids::AllocationId;
use hpcqc_simcore::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;

const NODES: u32 = 24;
const QPUS: u32 = 3;

#[derive(Debug, Clone)]
enum Op {
    Allocate { nodes: u32, qpus: u32 },
    Release { idx: usize },
    Shrink { idx: usize, keep: u32 },
    Expand { idx: usize, add: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=NODES, 0u32..=QPUS).prop_map(|(nodes, qpus)| Op::Allocate { nodes, qpus }),
        (0usize..8).prop_map(|idx| Op::Release { idx }),
        (0usize..8, 0u32..=NODES).prop_map(|(idx, keep)| Op::Shrink { idx, keep }),
        (0usize..8, 1u32..=8).prop_map(|(idx, add)| Op::Expand { idx, add }),
    ]
}

fn fresh() -> Cluster {
    ClusterBuilder::new()
        .partition("classical", NODES)
        .partition_with_gres("quantum", 0, GresKind::qpu(), QPUS)
        .build(SimTime::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary alloc/release/shrink/expand sequences preserve the
    /// cluster invariants and conserve total node count.
    #[test]
    fn operations_conserve_resources(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut cluster = fresh();
        let mut live: Vec<AllocationId> = Vec::new();
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            match op {
                Op::Allocate { nodes, qpus } => {
                    let mut req = AllocRequest::new()
                        .group(GroupRequest::nodes("classical", nodes));
                    if qpus > 0 {
                        req = req.group(GroupRequest::gres("quantum", GresKind::qpu(), qpus));
                    }
                    if let Ok(id) = cluster.allocate(&req, now) {
                        live.push(id);
                    }
                }
                Op::Release { idx } => {
                    if !live.is_empty() {
                        let id = live.remove(idx % live.len());
                        cluster.release(id, now).expect("live allocation releases");
                    }
                }
                Op::Shrink { idx, keep } => {
                    if !live.is_empty() {
                        let id = live[idx % live.len()];
                        // May legitimately fail when keep > held; state must
                        // be untouched either way (checked below).
                        let _ = cluster.shrink(id, "classical", keep, now);
                    }
                }
                Op::Expand { idx, add } => {
                    if !live.is_empty() {
                        let id = live[idx % live.len()];
                        let _ = cluster.expand(id, "classical", add, now);
                    }
                }
            }
            cluster.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
            // Conservation: free + allocated == total.
            let free = cluster.free_nodes("classical").unwrap();
            let allocated: u32 = live
                .iter()
                .filter_map(|id| cluster.allocation(*id))
                .map(|a| a.node_count() as u32)
                .sum();
            prop_assert_eq!(free + allocated, NODES, "node conservation broken");
            let free_q = cluster.free_gres("quantum", &GresKind::qpu()).unwrap();
            let qpu = cluster.slots()[cluster.gres_slot("quantum", &GresKind::qpu()).unwrap()];
            let alloc_q: u32 = live
                .iter()
                .filter_map(|id| cluster.allocation(*id))
                .map(|a| a.gres_units(qpu).count() as u32)
                .sum();
            prop_assert_eq!(free_q + alloc_q, QPUS, "gres conservation broken");
        }
        // Releasing everything restores the full machine.
        let mut t_end = t;
        for id in live {
            t_end += 1;
            cluster.release(id, SimTime::from_secs(t_end)).unwrap();
        }
        prop_assert_eq!(cluster.free_nodes("classical").unwrap(), NODES);
        prop_assert_eq!(cluster.free_gres("quantum", &GresKind::qpu()).unwrap(), QPUS);
    }

    /// `can_allocate` exactly predicts `allocate`.
    #[test]
    fn can_allocate_is_exact(requests in prop::collection::vec((1u32..=NODES, 0u32..=QPUS), 1..20)) {
        let mut cluster = fresh();
        let mut t = 0u64;
        for (nodes, qpus) in requests {
            t += 1;
            let now = SimTime::from_secs(t);
            let mut req = AllocRequest::new().group(GroupRequest::nodes("classical", nodes));
            if qpus > 0 {
                req = req.group(GroupRequest::gres("quantum", GresKind::qpu(), qpus));
            }
            let predicted = cluster.can_allocate(&req).is_ok();
            let actual = cluster.allocate(&req, now).is_ok();
            prop_assert_eq!(predicted, actual, "can_allocate mispredicted");
        }
    }

    /// No node id is ever granted to two live allocations.
    #[test]
    fn no_double_booking(sizes in prop::collection::vec(1u32..=8, 1..10)) {
        let mut cluster = fresh();
        let mut seen = std::collections::HashSet::new();
        for (i, nodes) in sizes.iter().enumerate() {
            let req = AllocRequest::new().group(GroupRequest::nodes("classical", *nodes));
            if let Ok(id) = cluster.allocate(&req, SimTime::from_secs(i as u64)) {
                for n in cluster.allocation(id).unwrap().node_ids() {
                    prop_assert!(seen.insert(n), "{} double-booked", n);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bitset `GresPool` against a `BTreeSet<u32>` of free units:
    /// random takes and give-backs (of any held batch, so freed units
    /// interleave) return the same units and leave the same counts, on
    /// capacities that span several 64-bit words.
    #[test]
    fn gres_pool_matches_a_btreeset(
        capacity in 1u32..=200,
        ops in prop::collection::vec((any::<bool>(), 0u32..70, 0usize..16), 1..80),
    ) {
        let mut pool = GresPool::new(GresKind::qpu(), capacity);
        let mut free: BTreeSet<u32> = (0..capacity).collect();
        let mut held: Vec<Vec<u32>> = Vec::new();
        for (take, count, idx) in ops {
            if take || held.is_empty() {
                let want: Option<Vec<u32>> = (free.len() as u32 >= count)
                    .then(|| free.iter().take(count as usize).copied().collect());
                for unit in want.iter().flatten() {
                    free.remove(unit);
                }
                let got = pool.take(count);
                prop_assert_eq!(&got, &want);
                held.extend(got);
            } else {
                let units = held.swap_remove(idx % held.len());
                pool.give_back(&units);
                free.extend(&units);
            }
            prop_assert_eq!(pool.available(), free.len() as u32);
            prop_assert_eq!(pool.in_use(), capacity - free.len() as u32);
        }
    }
}
