//! [`BitSet`]: free resources as a set of small indices.

use serde::{Deserialize, Serialize};

/// A set of the indices `0..len`, one bit each.
///
/// [`BitSet::take_lowest`] hands out indices in increasing order, the
/// order a `BTreeSet<u32>` iterates in, so picks are the same.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    count: u32,
}

impl BitSet {
    /// The full set `0..len`.
    pub(crate) fn full(len: u32) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64) as usize];
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        BitSet { words, count: len }
    }

    /// Number of indices in the set.
    pub(crate) fn len(&self) -> u32 {
        self.count
    }

    /// Word index and bit mask of `bit`.
    fn locate(bit: u32) -> (usize, u64) {
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    /// `true` if `bit` is in the set.
    pub(crate) fn contains(&self, bit: u32) -> bool {
        let (w, mask) = Self::locate(bit);
        self.words[w] & mask != 0
    }

    /// Adds `bit`; returns `false` (and changes nothing) if it was present.
    pub(crate) fn insert(&mut self, bit: u32) -> bool {
        let (w, mask) = Self::locate(bit);
        let absent = self.words[w] & mask == 0;
        if absent {
            self.words[w] |= mask;
            self.count += 1;
        }
        absent
    }

    /// Removes `bit`; a no-op if it is absent.
    pub(crate) fn remove(&mut self, bit: u32) {
        let (w, mask) = Self::locate(bit);
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.count -= 1;
        }
    }

    /// Removes the `n` lowest indices (fewer if the set holds fewer) and
    /// appends them to `out` in increasing order, each plus `base`.
    pub(crate) fn take_lowest(&mut self, n: u32, base: u32, out: &mut Vec<u32>) {
        let want = n.min(self.count);
        let mut left = want;
        for (w, word) in self.words.iter_mut().enumerate() {
            while *word != 0 && left > 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                out.push(base + w as u32 * 64 + bit);
                left -= 1;
            }
            if left == 0 {
                break;
            }
        }
        self.count -= want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_a_present_bit() {
        let mut s = BitSet::full(3);
        assert!(!s.insert(1));
        s.remove(1);
        assert!(s.insert(1));
        assert_eq!(s.len(), 3);
    }
}
