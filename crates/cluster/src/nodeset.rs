//! [`NodeSet`]: a partition's free nodes as a bitset.

use crate::ids::NodeId;

/// A set of node ids within one partition's contiguous id range
/// `first..first + len`, one bit per node.
///
/// Iteration and [`NodeSet::take_lowest`] visit ids in increasing order,
/// the order a `BTreeSet<NodeId>` iterates in, so picks are the same.
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    first: u32,
    words: Vec<u64>,
    count: u32,
}

impl NodeSet {
    /// The full set `first..first + len`.
    pub(crate) fn full(first: u32, len: u32) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64) as usize];
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        NodeSet {
            first,
            words,
            count: len,
        }
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> u32 {
        self.count
    }

    /// Word index and bit mask of `id`.
    fn locate(&self, id: NodeId) -> (usize, u64) {
        let bit = id.raw() - self.first;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    /// `true` if `id` is in the set.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        let (w, mask) = self.locate(id);
        self.words[w] & mask != 0
    }

    /// Adds `id`; a no-op if it is already present.
    pub(crate) fn insert(&mut self, id: NodeId) {
        let (w, mask) = self.locate(id);
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.count += 1;
        }
    }

    /// Removes `id`; a no-op if it is absent.
    pub(crate) fn remove(&mut self, id: NodeId) {
        let (w, mask) = self.locate(id);
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.count -= 1;
        }
    }

    /// Removes and returns the `n` lowest ids (fewer if the set holds
    /// fewer), in increasing order.
    pub(crate) fn take_lowest(&mut self, n: u32) -> Vec<NodeId> {
        let want = n.min(self.count);
        let mut picked = Vec::with_capacity(want as usize);
        for (w, word) in self.words.iter_mut().enumerate() {
            while *word != 0 && (picked.len() as u32) < want {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                picked.push(NodeId::new(self.first + w as u32 * 64 + bit));
            }
            if picked.len() as u32 == want {
                break;
            }
        }
        self.count -= want;
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[NodeId]) -> Vec<u32> {
        v.iter().map(|n| n.raw()).collect()
    }

    #[test]
    fn full_set_spans_its_range() {
        let mut s = NodeSet::full(10, 70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(NodeId::new(10)) && s.contains(NodeId::new(79)));
        assert_eq!(ids(&s.take_lowest(3)), vec![10, 11, 12]);
        assert_eq!(s.take_lowest(100).len(), 67);
        assert_eq!(s.len(), 0);
        assert!(s.take_lowest(1).is_empty());
    }

    #[test]
    fn picks_lowest_across_words() {
        let mut s = NodeSet::full(0, 130);
        for id in 0..128 {
            s.remove(NodeId::new(id));
        }
        s.insert(NodeId::new(70));
        s.insert(NodeId::new(70));
        s.remove(NodeId::new(5));
        assert_eq!(s.len(), 3);
        assert_eq!(ids(&s.take_lowest(2)), vec![70, 128]);
        assert_eq!(ids(&s.take_lowest(2)), vec![129]);
    }
}
