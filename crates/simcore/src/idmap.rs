//! [`IdMap`]: an ordered map for ids that are issued in increasing order.
//!
//! Allocation ids, queue ids and the like are handed out by a counter, so
//! almost every insert carries a key larger than any key already present,
//! and entries leave in roughly the order they arrived. A sorted `Vec`
//! serves that pattern better than a `BTreeMap`: an insert appends, a
//! lookup is a binary search over one contiguous array, and iteration is
//! a linear scan in key order.

/// An ordered map over a sorted `Vec`, tuned for increasing keys.
///
/// * An insert of a key larger than every key present appends; any
///   other insert is a binary search plus a shift (correct, just slower).
/// * A remove leaves a tombstone in place, so it never shifts. Once
///   tombstones outnumber live entries, one pass compacts them away, so
///   the vector holds at most `2 · len()` entries and every operation
///   stays amortized `O(log n)`.
/// * Iteration visits live entries in increasing key order, like a
///   `BTreeMap`.
///
/// # Examples
///
/// ```
/// use hpcqc_simcore::IdMap;
///
/// let mut m = IdMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a"); // out of order: shifted into place
/// m.insert(7, "g");
/// assert_eq!(m.remove(&3), Some("c"));
/// assert_eq!(m.get(&1), Some(&"a"));
/// assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![1, 7]);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IdMap<K, V> {
    /// Sorted by key; `None` is a tombstone.
    entries: Vec<(K, Option<V>)>,
    live: usize,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            entries: Vec::new(),
            live: 0,
        }
    }
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the map holds no live entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots in the backing vector, tombstones included (at most
    /// `2 · len()`).
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        match self.entries.last() {
            Some((last, _)) if key > last => Err(self.entries.len()),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => {
                let old = self.entries[i].1.replace(value);
                if old.is_none() {
                    self.live += 1;
                }
                old
            }
            Err(i) => {
                self.entries.insert(i, (key, Some(value)));
                self.live += 1;
                None
            }
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        self.entries[i].1.as_ref()
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        self.entries[i].1.as_mut()
    }

    /// `true` if `key` has a live entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        let old = self.entries[i].1.take()?;
        self.live -= 1;
        if self.entries.len() - self.live > self.live {
            self.entries.retain(|(_, v)| v.is_some());
        }
        Some(old)
    }

    /// Live entries in increasing key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            entries: self.entries.iter(),
            left: self.live,
        }
    }

    /// Live values in increasing key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

/// The live entries of an [`IdMap`] in increasing key order; see
/// [`IdMap::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a, K, V> {
    entries: std::slice::Iter<'a, (K, Option<V>)>,
    /// Live entries not yet visited.
    left: usize,
}

impl<'a, K: Copy, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        for (k, v) in self.entries.by_ref() {
            if let Some(v) = v {
                self.left -= 1;
                return Some((*k, v));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<K: Copy, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<K: Ord + Copy, V> Extend<(K, V)> for IdMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_inserts_append_and_iterate_in_order() {
        let mut m = IdMap::new();
        for k in 0..10u32 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m.insert(4, 99), Some(40), "an existing key is replaced");
        assert_eq!(m.values().copied().collect::<Vec<_>>()[4], 99);
        let keys: Vec<u32> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn removes_tombstone_then_compact() {
        let mut m = IdMap::new();
        for k in 0..8u32 {
            m.insert(k, ());
        }
        for k in 0..4 {
            assert_eq!(m.remove(&k), Some(()));
        }
        assert_eq!(m.slots(), 8, "four tombstones do not outnumber four live");
        assert_eq!(m.remove(&4), Some(()));
        assert_eq!(m.slots(), 3, "five tombstones over three live compact");
        assert_eq!(m.remove(&4), None, "a removed key stays removed");
        assert!(!m.contains_key(&0));
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![5, 6, 7]);
    }

    #[test]
    fn tombstoned_key_is_revived_in_place() {
        let mut m = IdMap::new();
        m.insert(1, 'a');
        m.insert(2, 'b');
        m.insert(3, 'c');
        m.remove(&2);
        assert_eq!(m.insert(2, 'B'), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.slots(), 3);
        assert_eq!(m.get(&2), Some(&'B'));
    }

    #[test]
    fn emptied_map_holds_nothing() {
        let mut m = IdMap::new();
        m.insert(5u64, 1);
        m.remove(&5);
        assert!(m.is_empty());
        assert_eq!(m.slots(), 0);
        m.insert(2, 2);
        *m.get_mut(&2).unwrap() += 1;
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, &3)]);
    }
}
