//! Generic resources (gres), SLURM-style.
//!
//! The paper's Listing 1 requests a QPU as `--gres=qpu:1` inside a quantum
//! partition. We model a gres as a named kind with a fixed number of
//! *indexed units* per partition; allocation hands out specific unit indices
//! so higher layers can bind, e.g., gres unit `qpu[2]` to a physical or
//! virtual QPU device.

use crate::bitset::BitSet;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// The name of a generic-resource kind, e.g. `"qpu"` or `"qpu:neutral-atom"`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GresKind(String);

impl GresKind {
    /// Creates a gres kind from a name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "GresKind: name must not be empty");
        GresKind(name)
    }

    /// The canonical QPU gres kind used throughout the simulator.
    pub fn qpu() -> Self {
        GresKind::new("qpu")
    }

    /// The kind name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GresKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for GresKind {
    fn from(s: &str) -> Self {
        GresKind::new(s)
    }
}

impl Borrow<str> for GresKind {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A pool of indexed gres units of one kind.
///
/// Free units are a bitset, one bit per unit; [`GresPool::take`] hands out
/// the lowest free units first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GresPool {
    kind: GresKind,
    capacity: u32,
    free: BitSet,
}

impl GresPool {
    /// Creates a pool of `capacity` units, all free.
    pub fn new(kind: GresKind, capacity: u32) -> Self {
        GresPool {
            kind,
            capacity,
            free: BitSet::full(capacity),
        }
    }

    /// The resource kind.
    pub fn kind(&self) -> &GresKind {
        &self.kind
    }

    /// Total units.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Currently free units.
    pub fn available(&self) -> u32 {
        self.free.len()
    }

    /// Units currently handed out.
    pub fn in_use(&self) -> u32 {
        self.capacity - self.available()
    }

    /// Takes `count` units (lowest indices first, for determinism).
    ///
    /// Returns `None` without side effects if not enough units are free.
    pub fn take(&mut self, count: u32) -> Option<Vec<u32>> {
        (self.available() >= count).then(|| {
            let mut units = Vec::with_capacity(count as usize);
            self.take_lowest(count, &mut units);
            units
        })
    }

    /// Takes the `count` lowest free units (every free unit if fewer are
    /// free) and appends them to `out`.
    pub(crate) fn take_lowest(&mut self, count: u32, out: &mut Vec<u32>) {
        self.free.take_lowest(count, 0, out);
    }

    /// Returns units to the pool.
    ///
    /// # Panics
    ///
    /// Panics if a unit is out of range or already free (double-release bug).
    pub fn give_back(&mut self, units: &[u32]) {
        for &u in units {
            assert!(
                u < self.capacity,
                "gres unit {u} out of range for {}",
                self.kind
            );
            assert!(
                self.free.insert(u),
                "gres unit {u} of {} double-released",
                self.kind
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_lowest_first() {
        let mut p = GresPool::new(GresKind::qpu(), 4);
        assert_eq!(p.take(2), Some(vec![0, 1]));
        assert_eq!(p.available(), 2);
        assert_eq!(p.take(2), Some(vec![2, 3]));
        assert_eq!(p.take(1), None);
    }

    #[test]
    fn give_back_reuses_units() {
        let mut p = GresPool::new(GresKind::qpu(), 2);
        let units = p.take(2).unwrap();
        p.give_back(&units);
        assert_eq!(p.available(), 2);
        assert_eq!(p.take(1), Some(vec![0]));
    }

    #[test]
    fn take_too_many_has_no_side_effect() {
        let mut p = GresPool::new(GresKind::qpu(), 2);
        assert_eq!(p.take(3), None);
        assert_eq!(p.available(), 2);
    }

    #[test]
    #[should_panic(expected = "double-released")]
    fn double_release_panics() {
        let mut p = GresPool::new(GresKind::qpu(), 2);
        let units = p.take(1).unwrap();
        p.give_back(&units);
        p.give_back(&units);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics() {
        let mut p = GresPool::new(GresKind::qpu(), 2);
        p.give_back(&[7]);
    }

    #[test]
    fn kind_accessors() {
        let k = GresKind::new("qpu:neutral-atom");
        assert_eq!(k.name(), "qpu:neutral-atom");
        assert_eq!(k.to_string(), "qpu:neutral-atom");
        assert_eq!(GresKind::from("x"), GresKind::new("x"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_kind_panics() {
        let _ = GresKind::new("");
    }
}
