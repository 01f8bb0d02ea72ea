//! The event calendar: a deterministic future-event list.
//!
//! [`EventQueue`] is the heart of the discrete-event kernel. It orders
//! pending events by timestamp and breaks ties by insertion order (FIFO), so
//! a simulation driven from a fixed seed always replays the identical event
//! sequence — the determinism invariant every experiment in this repository
//! relies on.
//!
//! Events can be cancelled through the [`EventKey`] returned at scheduling
//! time; cancellation is lazy (the heap entry stays until it surfaces) and
//! O(1), and it only ever affects an event that is still pending.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Keys are unique for the lifetime of the queue that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt#{}", self.seq)
    }
}

/// Bit 63 of an [`Entry::key`]: clear for the front lane, set for the
/// normal one. Sequence numbers stay below it.
const LANE_BIT: u64 = 1 << 63;

#[derive(Debug)]
struct Entry<E> {
    /// The sort key, packed so one integer compare orders entries:
    /// the firing time in the high 64 bits, the lane in bit 63 and the
    /// insertion sequence number below it. Ascending keys are exactly
    /// ascending `(time, lane, seq)`.
    key: u128,
    slot: u32,
    payload: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64 & !LANE_BIT
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want the least key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The state of one heap entry, found by its slot: which event holds the
/// slot and whether it was cancelled. A slot is handed out at schedule and
/// returned when its entry leaves the heap, so a key whose event already
/// fired (or was purged) no longer matches its slot.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    seq: u64,
    cancelled: bool,
}

/// `SlotState::seq` of a slot no heap entry holds; no event gets this seq.
const VACANT: u64 = u64::MAX;

/// A scheduled event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The cancellation key it was scheduled under.
    pub key: EventKey,
    /// The event payload.
    pub payload: E,
}

/// A deterministic future-event list ordered by `(time, lane, insertion
/// order)`.
///
/// # Ordering
///
/// Events pop in ascending time. At equal time, front-lane events
/// ([`EventQueue::schedule_front`]) pop before normal ones, and each lane
/// pops in insertion order (FIFO). A heap entry carries all three as one
/// packed `u128` key: the time in the high 64 bits, the lane in bit 63
/// and the insertion sequence number below it, so each heap step is a
/// single integer compare. Sequence numbers are checked to stay below
/// 2⁶³, where they would spill into the lane bit.
///
/// # Examples
///
/// ```
/// use hpcqc_simcore::events::EventQueue;
/// use hpcqc_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// let first = q.pop().unwrap();
/// assert_eq!(first.payload, "early");
/// assert_eq!(first.time, SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Indexed by [`Entry::slot`]; as long as the largest heap ever was.
    slots: Vec<SlotState>,
    /// Slots no heap entry holds, reused before `slots` grows.
    free_slots: Vec<u32>,
    /// Pending (scheduled, not fired, not cancelled) events.
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time` and returns its cancellation key.
    ///
    /// Events scheduled for a time earlier than the last popped event would
    /// travel backwards in time; that is a simulation-logic bug.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the timestamp of the last event
    /// popped from this queue, or once 2⁶³ events have been scheduled on
    /// it (see [Ordering](EventQueue#ordering)).
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventKey {
        self.schedule_in_lane(time, LANE_BIT, payload)
    }

    /// Like [`EventQueue::schedule`], but the event sorts *before* every
    /// normally-scheduled event at the same timestamp, regardless of when
    /// it was inserted (ties among front-lane events stay FIFO).
    ///
    /// This is how a lazily-fed simulation reproduces the event order of a
    /// fully-materialized one: arrivals scheduled on demand still beat
    /// completion events that share their timestamp but were scheduled
    /// earlier, exactly as if every arrival had been scheduled up front.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped timestamp, or
    /// once 2⁶³ events have been scheduled.
    pub fn schedule_front(&mut self, time: SimTime, payload: E) -> EventKey {
        self.schedule_in_lane(time, 0, payload)
    }

    /// Schedules in the lane whose key bit is `lane` (0 or [`LANE_BIT`]).
    fn schedule_in_lane(&mut self, time: SimTime, lane: u64, payload: E) -> EventKey {
        assert!(
            time >= self.last_popped,
            "scheduled an event at {time} in the past of the clock ({})",
            self.last_popped
        );
        let seq = self.next_seq;
        // A seq reaching the lane bit would sort into the wrong lane.
        assert!(seq < LANE_BIT, "event sequence numbers exhausted");
        self.next_seq += 1;
        let state = SlotState {
            seq,
            cancelled: false,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                self.slots.push(state);
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.heap.push(Entry {
            key: u128::from(time.as_nanos()) << 64 | u128::from(lane | seq),
            slot,
            payload,
        });
        EventKey { seq, slot }
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending, i.e. this call prevented it from firing; `false` for an
    /// event that already fired or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(key.slot as usize) {
            Some(state) if state.seq == key.seq && !state.cancelled => {
                state.cancelled = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Hands `entry`'s slot back and reports whether it was cancelled.
    fn retire(&mut self, entry: &Entry<E>) -> bool {
        let state = &mut self.slots[entry.slot as usize];
        let cancelled = state.cancelled;
        state.seq = VACANT;
        self.free_slots.push(entry.slot);
        cancelled
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// ones, or `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        while let Some(entry) = self.heap.pop() {
            if self.retire(&entry) {
                continue;
            }
            self.live -= 1;
            let time = entry.time();
            self.last_popped = time;
            return Some(Scheduled {
                time,
                key: EventKey {
                    seq: entry.seq(),
                    slot: entry.slot,
                },
                payload: entry.payload,
            });
        }
        None
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Purge cancelled heads so the peeked time is a live event.
        while let Some(entry) = self.heap.peek() {
            if !self.slots[entry.slot as usize].cancelled {
                return Some(entry.time());
            }
            if let Some(dead) = self.heap.pop() {
                self.retire(&dead);
            }
        }
        None
    }

    /// Number of pending (scheduled, not yet fired, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The timestamp of the most recently popped event ([`SimTime::ZERO`]
    /// before the first pop).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn front_lane_beats_equal_time_normal_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, "normal-early");
        q.schedule_front(t, "front-a");
        q.schedule(t, "normal-late");
        q.schedule_front(t, "front-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(
            order,
            vec!["front-a", "front-b", "normal-early", "normal-late"]
        );
    }

    #[test]
    fn packed_keys_order_both_lanes_near_the_end_of_time() {
        let mut q = EventQueue::new();
        let max = SimTime::MAX;
        let below = SimTime::from_nanos(u64::MAX - 1);
        let scheduled = [
            q.schedule(max, "max-normal-a"),
            q.schedule_front(max, "max-front-a"),
            q.schedule(below, "below-normal"),
            q.schedule_front(below, "below-front"),
            q.schedule(max, "max-normal-b"),
            q.schedule_front(max, "max-front-b"),
        ];
        let popped: Vec<(SimTime, &str, EventKey)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.time, s.payload, s.key))).collect();
        let expected = [
            (below, "below-front", scheduled[3]),
            (below, "below-normal", scheduled[2]),
            (max, "max-front-a", scheduled[1]),
            (max, "max-front-b", scheduled[5]),
            (max, "max-normal-a", scheduled[0]),
            (max, "max-normal-b", scheduled[4]),
        ];
        assert_eq!(popped, expected);
        assert_eq!(q.now(), max);
    }

    #[test]
    fn front_lane_still_ordered_by_time() {
        let mut q = EventQueue::new();
        q.schedule_front(SimTime::from_secs(9), "late-front");
        q.schedule(SimTime::from_secs(1), "early-normal");
        assert_eq!(q.pop().unwrap().payload, "early-normal");
        assert_eq!(q.pop().unwrap().payload, "late-front");
    }

    #[test]
    fn front_lane_events_cancel() {
        let mut q = EventQueue::new();
        let k = q.schedule_front(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(1), "b");
        assert!(q.cancel(k));
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut q = EventQueue::new();
        let k1 = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double-cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey { seq: 42, slot: 0 }));
        let mut other = EventQueue::new();
        let foreign = other.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(1), ());
        assert!(
            !q.cancel(EventKey { seq: 7, ..foreign }),
            "a slot held by another seq does not match"
        );
    }

    #[test]
    fn cancel_after_pop_is_false_and_len_stays_exact() {
        let mut q = EventQueue::new();
        let fired = q.schedule(SimTime::from_secs(1), "kill");
        q.schedule(SimTime::from_secs(2), "later");
        assert_eq!(q.pop().unwrap().key, fired);
        assert!(!q.cancel(fired), "an event that fired is not pending");
        assert_eq!(q.len(), 1);
        // The fired event's slot is reused; the stale key must not hit
        // the event that now holds it.
        let reused = q.schedule(SimTime::from_secs(3), "reused");
        assert!(!q.cancel(fired));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(reused));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "later");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(5), "b");
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(9), ());
    }

    #[test]
    fn same_time_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        q.pop();
        q.schedule(SimTime::from_secs(10), 2); // zero-delay follow-up event
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn empty_after_draining() {
        let mut q = EventQueue::new();
        let end = SimTime::ZERO + SimDuration::from_secs(1);
        q.schedule(end, ());
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
