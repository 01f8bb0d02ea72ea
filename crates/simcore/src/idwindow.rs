//! [`IdWindow`]: an id-indexed table for ids issued in increasing order
//! and retired roughly oldest first.
//!
//! A simulation's live jobs are the textbook case: a counter hands out
//! job ids at arrival, and jobs leave when they finish, mostly in the
//! order they came. A window over the live id range finds any entry by
//! subtraction instead of hashing or searching, and its slot count
//! follows the span of live ids rather than every id ever issued.

use std::collections::VecDeque;

/// A table indexed by `id − base`, where `base` is the oldest live id.
///
/// * `get` and `get_mut` are `O(1)`; so are, amortized, an insert of
///   the next id and a remove (retired front slots are trimmed as they
///   surface). Any insert order is correct: an insert past the end
///   fills the gap with empty slots, one below the window grows it at
///   the front.
/// * The window holds one slot per id from the oldest live one to the
///   largest inserted, and nothing once empty. A slot is one pointer:
///   values are boxed, so a retired id between two live ones costs
///   8 bytes, not a whole value.
/// * Iteration visits live entries in increasing id order.
///
/// # Examples
///
/// ```
/// use hpcqc_simcore::IdWindow;
///
/// let mut w = IdWindow::new();
/// for id in 10..14 {
///     w.insert(id, id * 2);
/// }
/// assert_eq!(w.remove(11), Some(22));
/// assert_eq!(w.get(12), Some(&24));
/// assert_eq!(w.remove(10), Some(20)); // the front moves past 10 and 11
/// assert_eq!(w.slots(), 2);
/// assert_eq!(w.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![12, 13]);
/// assert_eq!(w.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IdWindow<V> {
    /// The id of `slots[0]`.
    base: u64,
    /// One slot per id in `base..base + slots.len()`; `None` for an id
    /// not (or no longer) present. The front slot, if any, is live.
    slots: VecDeque<Option<Box<V>>>,
    live: usize,
}

impl<V> Default for IdWindow<V> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<V> IdWindow<V> {
    /// Creates an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the window holds no live entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots in the window: the ids from the oldest live one to the
    /// largest inserted since, or 0 when empty.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The slot index of `id`, if the window covers it.
    fn index(&self, id: u64) -> Option<usize> {
        let offset = id.checked_sub(self.base)? as usize;
        (offset < self.slots.len()).then_some(offset)
    }

    /// Inserts `value` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let offset = (id - self.base) as usize;
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, || None);
        }
        let old = self.slots[offset].replace(Box::new(value));
        if old.is_none() {
            self.live += 1;
        }
        old.map(|b| *b)
    }

    /// The value under `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots[self.index(id)?].as_deref()
    }

    /// The value under `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let i = self.index(id)?;
        self.slots[i].as_deref_mut()
    }

    /// Removes and returns the value under `id`. Retired slots at the
    /// front of the window are dropped, so the window starts at the
    /// oldest live id again.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.index(id)?;
        let old = self.slots[i].take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            // Wraps only when the window empties past `u64::MAX`; the
            // next insert into the empty window resets `base`.
            self.base = self.base.wrapping_add(1);
        }
        Some(*old)
    }

    /// Live entries in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        (0..)
            .zip(&self.slots)
            .filter_map(|(i, slot)| Some((self.base + i, slot.as_deref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_lifecycle_keeps_the_window_tight() {
        let mut w = IdWindow::new();
        for id in 0..100u64 {
            assert_eq!(w.insert(id, id), None);
            if id >= 3 {
                assert_eq!(w.remove(id - 3), Some(id - 3));
            }
            assert!(w.slots() <= 4);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(
            w.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![97, 98, 99]
        );
    }

    #[test]
    fn a_long_lived_front_entry_holds_the_window_open() {
        let mut w = IdWindow::new();
        for id in 0..10u64 {
            w.insert(id, ());
        }
        for id in 1..9 {
            w.remove(id);
        }
        assert_eq!(w.len(), 2);
        assert_eq!(w.slots(), 10, "id 0 is still live");
        w.remove(0);
        assert_eq!(w.slots(), 1, "the front trims up to id 9");
        assert_eq!(w.get(9), Some(&()));
        assert_eq!(w.get(8), None);
        w.remove(9);
        assert!(w.is_empty());
        assert_eq!(w.slots(), 0);
    }

    #[test]
    fn out_of_order_inserts_grow_either_end() {
        let mut w = IdWindow::new();
        w.insert(5, 'f');
        w.insert(2, 'c');
        w.insert(8, 'i');
        assert_eq!(w.slots(), 7);
        assert_eq!(w.insert(5, 'F'), Some('f'));
        *w.get_mut(8).unwrap() = 'I';
        let got: Vec<(u64, char)> = w.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(got, vec![(2, 'c'), (5, 'F'), (8, 'I')]);
        assert_eq!(w.remove(3), None, "an uncovered hole is absent");
        assert_eq!(w.remove(100), None);
        assert_eq!(w.get(1), None);
    }

    #[test]
    fn the_largest_id_inserts_iterates_and_retires() {
        let mut w = IdWindow::new();
        w.insert(u64::MAX - 1, 'a');
        w.insert(u64::MAX, 'b');
        let ids: Vec<u64> = w.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![u64::MAX - 1, u64::MAX]);
        assert_eq!(w.remove(u64::MAX - 1), Some('a'));
        assert_eq!(w.remove(u64::MAX), Some('b'));
        assert!(w.is_empty());
        w.insert(0, 'c');
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(0, &'c')]);
    }
}
