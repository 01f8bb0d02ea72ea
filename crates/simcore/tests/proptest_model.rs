//! Differential property tests: [`EventQueue`] against a naive sorted-`Vec`
//! calendar, and [`IdMap`] and [`IdWindow`] against a `BTreeMap`, under
//! random operation sequences.

use hpcqc_simcore::events::{EventKey, EventQueue};
use hpcqc_simcore::time::SimTime;
use hpcqc_simcore::{IdMap, IdWindow};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The obviously-correct calendar: every pending event in a `Vec`, the
/// next one found by a linear scan for the least `(time, lane, seq)`.
#[derive(Default)]
struct NaiveQueue {
    /// `(time, lane, seq, payload)`; lane 0 is the front lane.
    pending: Vec<(SimTime, u8, u64, u32)>,
    next_seq: u64,
}

impl NaiveQueue {
    fn schedule(&mut self, time: SimTime, lane: u8, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((time, lane, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (t, lane, seq, _))| (*t, *lane, *seq))?;
        let (t, _, _, payload) = self.pending.remove(i);
        Some((t, payload))
    }
}

#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule `delay` ns after the clock, in the front lane if set.
    Schedule {
        delay: u64,
        front: bool,
    },
    Pop,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Few distinct delays, so ties (same instant, both lanes) are common.
        (0u64..4, any::<bool>()).prop_map(|(delay, front)| QueueOp::Schedule { delay, front }),
        (0u64..4, any::<bool>()).prop_map(|(delay, front)| QueueOp::Schedule { delay, front }),
        Just(QueueOp::Pop),
    ]
}

#[derive(Debug, Clone)]
enum MapOp {
    /// Insert the next increasing key (`skip` keys past the last one).
    Append {
        skip: u32,
    },
    /// Insert an arbitrary key, usually out of order.
    Insert {
        key: u32,
    },
    Remove {
        key: u32,
    },
    Get {
        key: u32,
    },
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u32..3).prop_map(|skip| MapOp::Append { skip }),
        (0u32..3).prop_map(|skip| MapOp::Append { skip }),
        (0u32..64).prop_map(|key| MapOp::Insert { key }),
        (0u32..64).prop_map(|key| MapOp::Remove { key }),
        (0u32..64).prop_map(|key| MapOp::Remove { key }),
        (0u32..64).prop_map(|key| MapOp::Get { key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pops and `len` agree with the naive calendar on both lanes and at
    /// tied instants, and each popped event carries the key its schedule
    /// returned.
    #[test]
    fn event_queue_matches_naive_model(ops in prop::collection::vec(queue_op(), 1..120)) {
        let mut real = EventQueue::new();
        let mut model = NaiveQueue::default();
        // The key of payload `p` is `keys[p - 1]`.
        let mut keys: Vec<EventKey> = Vec::new();
        let mut payload = 0u32;
        for op in ops {
            match op {
                QueueOp::Schedule { delay, front } => {
                    let at = real.now() + hpcqc_simcore::time::SimDuration::from_nanos(delay);
                    payload += 1;
                    let key = if front {
                        real.schedule_front(at, payload)
                    } else {
                        real.schedule(at, payload)
                    };
                    model.schedule(at, u8::from(!front), payload);
                    keys.push(key);
                }
                QueueOp::Pop => {
                    let got = real.pop();
                    if let Some(s) = &got {
                        prop_assert_eq!(s.key, keys[s.payload as usize - 1]);
                    }
                    prop_assert_eq!(got.map(|s| (s.time, s.payload)), model.pop());
                }
            }
            prop_assert_eq!(real.len(), model.pending.len());
            prop_assert_eq!(real.is_empty(), model.pending.is_empty());
        }
        while let Some(s) = real.pop() {
            prop_assert_eq!(s.key, keys[s.payload as usize - 1]);
            prop_assert_eq!(Some((s.time, s.payload)), model.pop());
        }
        prop_assert!(model.pop().is_none());
    }

    /// `IdMap` answers every insert, remove and get like a `BTreeMap`,
    /// iterates in the same key order, and never holds more than
    /// `2 · len()` slots.
    #[test]
    fn id_map_matches_btree_map(ops in prop::collection::vec(map_op(), 1..200)) {
        let mut real = IdMap::new();
        let mut model = BTreeMap::new();
        let mut next = 0u32;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                MapOp::Append { skip } => {
                    next += skip;
                    prop_assert_eq!(real.insert(next, step), model.insert(next, step));
                    next += 1;
                }
                MapOp::Insert { key } => {
                    prop_assert_eq!(real.insert(key, step), model.insert(key, step));
                    next = next.max(key + 1);
                }
                MapOp::Remove { key } => {
                    prop_assert_eq!(real.remove(&key), model.remove(&key));
                }
                MapOp::Get { key } => {
                    prop_assert_eq!(real.get(&key), model.get(&key));
                    prop_assert_eq!(real.contains_key(&key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert!(real.slots() <= 2 * real.len(), "{} slots for {} live", real.slots(), real.len());
        }
        let pairs: Vec<(u32, usize)> = real.iter().map(|(k, v)| (k, *v)).collect();
        let expected: Vec<(u32, usize)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(pairs, expected);
    }
}

#[derive(Debug, Clone)]
enum WindowOp {
    /// Insert the next increasing id (`skip` ids past the last one), as
    /// a job spawn does.
    Spawn {
        skip: u64,
    },
    /// Insert an arbitrary id: below the window, inside it or past it.
    Insert {
        id: u64,
    },
    /// Remove the live id at position `pick mod len` in id order, so
    /// removes hit live ids in any order.
    Retire {
        pick: usize,
    },
    /// Insert again over the live id at position `pick mod len`.
    Replace {
        pick: usize,
    },
    /// Remove an arbitrary id, live or not.
    Remove {
        id: u64,
    },
    Get {
        id: u64,
    },
    /// Overwrite the value under an id through `get_mut`.
    Touch {
        id: u64,
    },
}

fn window_op() -> impl Strategy<Value = WindowOp> {
    prop_oneof![
        (0u64..3).prop_map(|skip| WindowOp::Spawn { skip }),
        (0u64..3).prop_map(|skip| WindowOp::Spawn { skip }),
        (0usize..1_000).prop_map(|pick| WindowOp::Retire { pick }),
        (0usize..1_000).prop_map(|pick| WindowOp::Retire { pick }),
        (0usize..1_000).prop_map(|pick| WindowOp::Replace { pick }),
        (0u64..96).prop_map(|id| WindowOp::Remove { id }),
        (0u64..96).prop_map(|id| WindowOp::Get { id }),
        (0u64..96).prop_map(|id| WindowOp::Touch { id }),
    ]
}

/// [`window_op`] plus inserts at arbitrary ids, so the window also grows
/// at the front and past holes.
fn window_op_any_order() -> impl Strategy<Value = WindowOp> {
    prop_oneof![
        window_op(),
        (0u64..96).prop_map(|id| WindowOp::Insert { id }),
    ]
}

/// Replays `ops` on an `IdWindow` and a `BTreeMap` and asserts they agree
/// after every step: every answer, `len`, id-ordered iteration, and a
/// window no wider than the ids from the oldest live one to the largest
/// inserted since the window was last empty (no slots once empty).
fn check_window_against_model(ops: Vec<WindowOp>) {
    let mut real = IdWindow::new();
    let mut model = BTreeMap::new();
    let mut next = 0u64;
    // The largest id inserted since the window was last empty.
    let mut newest: Option<u64> = None;
    for (step, op) in ops.into_iter().enumerate() {
        let mut insert = |real: &mut IdWindow<usize>, model: &mut BTreeMap<u64, usize>, id| {
            newest = Some(newest.map_or(id, |n: u64| n.max(id)));
            prop_assert_eq!(real.insert(id, step), model.insert(id, step));
        };
        match op {
            WindowOp::Spawn { skip } => {
                next += skip;
                insert(&mut real, &mut model, next);
                next += 1;
            }
            WindowOp::Insert { id } => insert(&mut real, &mut model, id),
            WindowOp::Retire { pick } => {
                if !model.is_empty() {
                    let id = *model.keys().nth(pick % model.len()).unwrap();
                    prop_assert_eq!(real.remove(id), model.remove(&id));
                }
            }
            WindowOp::Replace { pick } => {
                if !model.is_empty() {
                    let id = *model.keys().nth(pick % model.len()).unwrap();
                    insert(&mut real, &mut model, id);
                }
            }
            WindowOp::Remove { id } => {
                prop_assert_eq!(real.remove(id), model.remove(&id));
            }
            WindowOp::Get { id } => {
                prop_assert_eq!(real.get(id), model.get(&id));
            }
            WindowOp::Touch { id } => {
                if let Some(v) = real.get_mut(id) {
                    *v += 1_000;
                }
                if let Some(v) = model.get_mut(&id) {
                    *v += 1_000;
                }
                prop_assert_eq!(real.get(id), model.get(&id));
            }
        }
        if model.is_empty() {
            newest = None;
        }
        prop_assert_eq!(real.len(), model.len());
        prop_assert_eq!(real.is_empty(), model.is_empty());
        let bound = match (model.keys().next(), newest) {
            (Some(&oldest), Some(newest)) => (newest - oldest + 1) as usize,
            _ => 0,
        };
        prop_assert!(
            real.slots() <= bound,
            "{} slots, bound {}",
            real.slots(),
            bound
        );
        let pairs: Vec<(u64, usize)> = real.iter().map(|(k, v)| (k, *v)).collect();
        let expected: Vec<(u64, usize)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(pairs, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `IdWindow` under increasing inserts answers every remove, get,
    /// get_mut and overwrite like a `BTreeMap` (see
    /// [`check_window_against_model`]).
    #[test]
    fn id_window_matches_btree_map(ops in prop::collection::vec(window_op(), 1..200)) {
        check_window_against_model(ops);
    }

    /// The same, with inserts at arbitrary ids mixed in: below the
    /// window's base, into holes and past its end.
    #[test]
    fn id_window_matches_btree_map_under_out_of_order_inserts(
        ops in prop::collection::vec(window_op_any_order(), 1..200)
    ) {
        check_window_against_model(ops);
    }
}
