//! The seed's naive change-set representation, preserved as a benchmark
//! baseline.
//!
//! [`NaiveChangeSet`] reproduces the pre-optimization semantics exactly:
//! a bare `BTreeSet<Change>` whose `server_weight`/`total_weight` are
//! O(|C|) scans, whose `merge` inserts element-by-element, whose `clone`
//! deep-copies, and whose `digest` re-hashes the whole set. The
//! `bench_changeset` runner measures it head-to-head against
//! [`awr_types::ChangeSet`]'s incremental accounting so the speedup is
//! tracked release over release.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use awr_types::{Change, Ratio, ServerId};

/// A grow-only change set with from-scratch (non-cached) accounting.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct NaiveChangeSet {
    changes: BTreeSet<Change>,
}

impl NaiveChangeSet {
    /// Creates an empty set.
    pub fn new() -> NaiveChangeSet {
        NaiveChangeSet::default()
    }

    /// Inserts a change; returns `true` if it was new.
    pub fn insert(&mut self, c: Change) -> bool {
        self.changes.insert(c)
    }

    /// Unions another set into this one, element by element.
    pub fn merge(&mut self, other: &NaiveChangeSet) {
        for c in &other.changes {
            self.changes.insert(*c);
        }
    }

    /// Returns the union of the two sets (deep copy + element inserts).
    pub fn union(&self, other: &NaiveChangeSet) -> NaiveChangeSet {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Returns `true` if `self` contains every change in `other`.
    pub fn contains_all(&self, other: &NaiveChangeSet) -> bool {
        other.changes.is_subset(&self.changes)
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Returns `true` if no changes are present.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// O(|C|) scan: the weight of server `s`.
    pub fn server_weight(&self, s: ServerId) -> Ratio {
        self.changes
            .iter()
            .filter(|c| c.target == s)
            .map(|c| c.delta)
            .sum()
    }

    /// O(n·|C|) scan: total weight of an `n`-server system.
    pub fn total_weight(&self, n: usize) -> Ratio {
        ServerId::all(n).map(|s| self.server_weight(s)).sum()
    }

    /// O(|C|) re-hash of the full content.
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for c in &self.changes {
            c.hash(&mut h);
        }
        self.changes.len().hash(&mut h);
        h.finish()
    }
}

impl FromIterator<Change> for NaiveChangeSet {
    fn from_iter<I: IntoIterator<Item = Change>>(iter: I) -> NaiveChangeSet {
        NaiveChangeSet {
            changes: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::ChangeSet;

    #[test]
    fn agrees_with_cached_implementation() {
        let mut cached = ChangeSet::uniform_initial(5, Ratio::ONE);
        cached.insert(Change::new(ServerId(0), 2, ServerId(1), Ratio::dec("0.25")));
        let naive: NaiveChangeSet = cached.iter().copied().collect();
        for i in 0..5 {
            assert_eq!(
                naive.server_weight(ServerId(i)),
                cached.server_weight(ServerId(i))
            );
        }
        assert_eq!(naive.total_weight(5), cached.total_weight(5));
        assert_eq!(naive.len(), cached.len());
    }
}
