//! Dense per-server weight vectors.
//!
//! A [`WeightMap`] is the materialized view of a [`crate::ChangeSet`] at a
//! point in time: one [`Ratio`] per server. It is the input to every quorum
//! computation and integrity check.

use std::fmt;
use std::ops::Index;

use crate::{Ratio, ServerId};

/// A dense map from [`ServerId`] to weight.
///
/// # Examples
///
/// ```
/// use awr_types::{Ratio, ServerId, WeightMap};
///
/// let w = WeightMap::uniform(4, Ratio::ONE);
/// assert_eq!(w.total(), Ratio::integer(4));
/// assert_eq!(w[ServerId(2)], Ratio::ONE);
/// assert_eq!(w.top_f_sum(1), Ratio::ONE);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WeightMap {
    weights: Vec<Ratio>,
}

impl WeightMap {
    /// A map of `n` servers all weighing `w`.
    pub fn uniform(n: usize, w: Ratio) -> WeightMap {
        WeightMap {
            weights: vec![w; n],
        }
    }

    /// Builds a map by evaluating `f` on every server id.
    pub fn from_fn(n: usize, f: impl FnMut(ServerId) -> Ratio) -> WeightMap {
        WeightMap {
            weights: ServerId::all(n).map(f).collect(),
        }
    }

    /// Builds a map from an explicit vector (index = server index).
    pub fn from_vec(weights: Vec<Ratio>) -> WeightMap {
        WeightMap { weights }
    }

    /// Parses decimal literals: `WeightMap::dec(&["1.6", "1.4", "0.8"])`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid literal (see [`Ratio::dec`]).
    pub fn dec(weights: &[&str]) -> WeightMap {
        WeightMap {
            weights: weights.iter().map(|s| Ratio::dec(s)).collect(),
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the map has no servers.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of server `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn weight(&self, s: ServerId) -> Ratio {
        self.weights[s.index()]
    }

    /// Fallible lookup.
    pub fn get(&self, s: ServerId) -> Option<Ratio> {
        self.weights.get(s.index()).copied()
    }

    /// Sets the weight of server `s`.
    pub fn set(&mut self, s: ServerId, w: Ratio) {
        self.weights[s.index()] = w;
    }

    /// Adds `delta` to the weight of server `s`.
    pub fn add(&mut self, s: ServerId, delta: Ratio) {
        self.weights[s.index()] += delta;
    }

    /// Total weight `W_S`.
    pub fn total(&self) -> Ratio {
        self.weights.iter().sum()
    }

    /// Sum of the weights of a subset of servers.
    pub fn sum_of<'a>(&self, servers: impl IntoIterator<Item = &'a ServerId>) -> Ratio {
        servers.into_iter().map(|s| self.weight(*s)).sum()
    }

    /// Sum of the `f` greatest weights — the left-hand side of Property 1.
    ///
    /// O(n) expected via quickselect partitioning rather than a full
    /// O(n log n) sort; `integrity_holds` calls this on every reassignment
    /// step, so the constant matters.
    pub fn top_f_sum(&self, f: usize) -> Ratio {
        if f == 0 {
            return Ratio::ZERO;
        }
        if f >= self.weights.len() {
            return self.total();
        }
        let mut scratch = self.weights.clone();
        let (top, fth, _) = scratch.select_nth_unstable_by(f - 1, |a, b| b.cmp(a));
        top.iter().sum::<Ratio>() + *fth
    }

    /// The servers holding the `f` greatest weights (ties broken by lower
    /// index first, deterministically).
    pub fn top_f_servers(&self, f: usize) -> Vec<ServerId> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| self.weights[b].cmp(&self.weights[a]).then(a.cmp(&b)));
        idx.into_iter()
            .take(f)
            .map(|i| ServerId(i as u32))
            .collect()
    }

    /// Minimum weight across servers.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty.
    pub fn min_weight(&self) -> Ratio {
        *self.weights.iter().min().expect("empty weight map")
    }

    /// Maximum weight across servers.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty.
    pub fn max_weight(&self) -> Ratio {
        *self.weights.iter().max().expect("empty weight map")
    }

    /// Iterates `(server, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, Ratio)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| (ServerId(i as u32), *w))
    }

    /// The underlying vector, index = server index.
    pub fn as_slice(&self) -> &[Ratio] {
        &self.weights
    }
}

impl Index<ServerId> for WeightMap {
    type Output = Ratio;
    fn index(&self, s: ServerId) -> &Ratio {
        &self.weights[s.index()]
    }
}

impl fmt::Debug for WeightMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(s, w)| (s.to_string(), w)))
            .finish()
    }
}

impl fmt::Display for WeightMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Ratio> for WeightMap {
    fn from_iter<I: IntoIterator<Item = Ratio>>(iter: I) -> WeightMap {
        WeightMap {
            weights: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_lookup() {
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        assert_eq!(w.len(), 7);
        assert_eq!(w.total(), Ratio::integer(7));
        assert_eq!(w[ServerId(0)], Ratio::dec("1.6"));
        assert_eq!(w.get(ServerId(7)), None);
    }

    #[test]
    fn top_f() {
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        assert_eq!(w.top_f_sum(2), Ratio::integer(3));
        assert_eq!(w.top_f_servers(2), vec![ServerId(0), ServerId(1)]);
        // Ties broken deterministically by index.
        let u = WeightMap::uniform(4, Ratio::ONE);
        assert_eq!(u.top_f_servers(2), vec![ServerId(0), ServerId(1)]);
    }

    #[test]
    fn mutation() {
        let mut w = WeightMap::uniform(3, Ratio::ONE);
        w.add(ServerId(0), Ratio::dec("0.25"));
        w.set(ServerId(2), Ratio::dec("0.5"));
        assert_eq!(w[ServerId(0)], Ratio::dec("1.25"));
        assert_eq!(w.total(), Ratio::dec("2.75"));
        assert_eq!(w.min_weight(), Ratio::dec("0.5"));
        assert_eq!(w.max_weight(), Ratio::dec("1.25"));
    }

    #[test]
    fn sum_of_subset() {
        let w = WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"]);
        let q = [ServerId(0), ServerId(1), ServerId(2)];
        assert_eq!(w.sum_of(&q), Ratio::dec("3.75"));
    }

    #[test]
    fn display() {
        let w = WeightMap::dec(&["1", "0.5"]);
        assert_eq!(w.to_string(), "[1, 0.5]");
    }
}
