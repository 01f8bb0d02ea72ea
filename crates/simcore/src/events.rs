//! The event calendar: a deterministic future-event list.
//!
//! [`EventQueue`] is the heart of the discrete-event kernel. It orders
//! pending events by timestamp and breaks ties by insertion order (FIFO), so
//! a simulation driven from a fixed seed always replays the identical event
//! sequence — the determinism invariant every experiment in this repository
//! relies on.
//!
//! The queue never cancels: every scheduled event pops, and a heap entry
//! is only its sort key and its payload. A caller that replaces a pending
//! event keeps the [`EventKey`] of the replacement and drops a popped
//! event whose key is not the one it kept.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Opaque handle identifying a scheduled event: its insertion sequence
/// number. A caller keeps the key of the event it expects and compares
/// it with [`Scheduled::key`] to tell a replaced event from the current
/// one.
///
/// Keys are unique for the lifetime of the queue that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey {
    seq: u64,
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

/// A scheduled event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The key it was scheduled under.
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
/// # Replaced events
///
/// There is no cancellation: every scheduled event pops. A caller that
/// replaces a pending event schedules the new one, keeps its
/// [`EventKey`], and drops any popped event whose key is not the one it
/// kept. The stale entry costs one heap slot until it surfaces.
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
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time` and returns its key.
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
        self.heap.push(Entry {
            key: u128::from(time.as_nanos()) << 64 | u128::from(lane | seq),
            payload,
        });
        EventKey { seq }
    }

    /// Removes and returns the earliest pending event, or `None` when the
    /// calendar is exhausted.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        let time = entry.time();
        self.last_popped = time;
        Some(Scheduled {
            time,
            key: EventKey { seq: entry.seq() },
            payload: entry.payload,
        })
    }

    /// Number of pending (scheduled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
