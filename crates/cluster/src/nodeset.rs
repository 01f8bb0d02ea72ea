//! [`NodeSet`]: a partition's free nodes as a bitset.

use crate::bitset::BitSet;
use crate::ids::NodeId;

/// A partition's free nodes: a [`BitSet`] over its contiguous id range
/// `first..first + len`.
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    first: u32,
    bits: BitSet,
}

impl NodeSet {
    /// The full set `first..first + len`.
    pub(crate) fn full(first: u32, len: u32) -> Self {
        NodeSet {
            first,
            bits: BitSet::full(len),
        }
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> u32 {
        self.bits.len()
    }

    /// `true` if `id` is in the set.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.bits.contains(id.raw() - self.first)
    }

    /// Adds `id`; a no-op if it is already present.
    pub(crate) fn insert(&mut self, id: NodeId) {
        self.bits.insert(id.raw() - self.first);
    }

    /// Removes `id`; a no-op if it is absent.
    pub(crate) fn remove(&mut self, id: NodeId) {
        self.bits.remove(id.raw() - self.first);
    }

    /// Removes the `n` lowest ids (fewer if the set holds fewer) and
    /// appends them to `out` as raw ids, in increasing order.
    pub(crate) fn take_lowest(&mut self, n: u32, out: &mut Vec<u32>) {
        self.bits.take_lowest(n, self.first, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(s: &mut NodeSet, n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        s.take_lowest(n, &mut out);
        out
    }

    #[test]
    fn full_set_spans_its_range() {
        let mut s = NodeSet::full(10, 70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(NodeId::new(10)) && s.contains(NodeId::new(79)));
        assert_eq!(take(&mut s, 3), vec![10, 11, 12]);
        assert_eq!(take(&mut s, 100).len(), 67);
        assert_eq!(s.len(), 0);
        assert!(take(&mut s, 1).is_empty());
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
        assert_eq!(take(&mut s, 2), vec![70, 128]);
        assert_eq!(take(&mut s, 2), vec![129]);
    }
}
