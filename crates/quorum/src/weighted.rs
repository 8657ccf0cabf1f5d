//! The weighted majority quorum system (WMQS, paper Definition 1).
//!
//! Each server carries a weight; a set of servers is a quorum iff its total
//! weight is *strictly greater than half* the total weight of all servers.
//! When a minority of servers holds a majority of the weight, quorums
//! smaller than `⌊n/2⌋ + 1` exist — the performance lever the whole paper is
//! built around.

use std::collections::BTreeSet;

use awr_types::{Ratio, ServerId, WeightMap};

use crate::QuorumSystem;

/// The weighted one-phase (fast-path) read rule: a read may return at the
/// end of phase 1 — skipping the write-back phase entirely — iff the
/// cumulative weight of the phase-1 repliers that reported the *maximum*
/// tag is itself a quorum under the fixed threshold
/// (`Σ w > threshold_total / 2`).
///
/// Safety sketch: every one of those repliers already stores the max-tag
/// register (registers are adopt-if-newer monotone), so the execution is
/// indistinguishable from a two-phase read whose `W` messages to exactly
/// those servers were delivered with zero delay — the write-back would
/// change no server state and each fresh replier's `R`-ack doubles as its
/// `W`-ack. Any quorum a later operation contacts intersects this
/// weight-quorum (Lemma 3), so it sees a tag ≥ the returned one: no
/// new/old inversion. In the dynamic-weight setting the rule is only sound
/// when the weights summed are the ones of the *replier-consistent* change
/// set — the caller must have verified every counted replier accepted its
/// request under the same `C` the weights come from (the storage driver's
/// accept/reject discipline does exactly that).
///
/// This is the weight-based generalization of the count-based early
/// return in dist-register's verified ABD client (SNIPPETS.md, SNIPPET 1).
pub fn fast_path_read_quorum(max_tag_weight: Ratio, threshold_total: Ratio) -> bool {
    max_tag_weight > threshold_total.half()
}

/// A weighted majority quorum system (Definition 1).
///
/// The quorum predicate compares against a fixed threshold `total / 2`. For
/// the paper's dynamic storage, the threshold is `W_{S,0} / 2` (the *initial*
/// total) while per-server weights evolve — constructed via
/// [`WeightedMajorityQuorumSystem::with_threshold_total`].
///
/// # Examples
///
/// ```
/// use awr_quorum::{QuorumSystem, WeightedMajorityQuorumSystem};
/// use awr_types::{Ratio, ServerId, WeightMap};
///
/// // Fig. 1 end state: s1,s2,s3 hold 1.25 each — three servers of seven
/// // form a quorum (3.75 > 3.5).
/// let w = WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"]);
/// let wmqs = WeightedMajorityQuorumSystem::new(w);
/// assert!(wmqs.is_quorum_slice(&[ServerId(0), ServerId(1), ServerId(2)]));
/// assert_eq!(wmqs.min_quorum_size(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedMajorityQuorumSystem {
    weights: WeightMap,
    threshold_total: Ratio,
}

impl WeightedMajorityQuorumSystem {
    /// Creates a WMQS whose threshold is half of the *current* total weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn new(weights: WeightMap) -> WeightedMajorityQuorumSystem {
        assert!(!weights.is_empty(), "WMQS needs at least one server");
        let total = weights.total();
        WeightedMajorityQuorumSystem {
            weights,
            threshold_total: total,
        }
    }

    /// Creates a WMQS whose quorum predicate is
    /// `W_Q > threshold_total / 2` regardless of the current total — this is
    /// the `is_quorum` of Algorithm 5 (`W_{S,0}/2 < Σ w_i`).
    pub fn with_threshold_total(
        weights: WeightMap,
        threshold_total: Ratio,
    ) -> WeightedMajorityQuorumSystem {
        assert!(!weights.is_empty(), "WMQS needs at least one server");
        WeightedMajorityQuorumSystem {
            weights,
            threshold_total,
        }
    }

    /// The weight vector backing this system.
    pub fn weights(&self) -> &WeightMap {
        &self.weights
    }

    /// The total used for the quorum threshold (`W_Q > total/2`).
    pub fn threshold_total(&self) -> Ratio {
        self.threshold_total
    }

    /// Whether an already-summed weight satisfies this system's quorum
    /// predicate — the accumulator-friendly form of
    /// [`QuorumSystem::is_quorum`] used by clients that maintain a running
    /// weight per reply instead of re-summing a set (and by the fast-path
    /// read rule, [`fast_path_read_quorum`]).
    pub fn is_quorum_weight(&self, weight: Ratio) -> bool {
        weight > self.threshold_total.half()
    }

    /// Total weight of a candidate set.
    pub fn set_weight(&self, servers: &BTreeSet<ServerId>) -> Ratio {
        servers
            .iter()
            .filter(|s| s.index() < self.weights.len())
            .map(|s| self.weights.weight(*s))
            .sum()
    }

    /// Greedy smallest quorum: heaviest servers first. For WMQS this greedy
    /// choice is optimal, so the result equals [`QuorumSystem::min_quorum_size`]
    /// in O(n log n) — [`crate::smallest_quorum_avoiding`] with nobody
    /// excluded.
    pub fn smallest_quorum(&self) -> Option<Vec<ServerId>> {
        crate::smallest_quorum_avoiding(self, &BTreeSet::new())
    }
}

impl QuorumSystem for WeightedMajorityQuorumSystem {
    fn universe_size(&self) -> usize {
        self.weights.len()
    }

    fn is_quorum(&self, servers: &BTreeSet<ServerId>) -> bool {
        self.is_quorum_weight(self.set_weight(servers))
    }

    fn min_quorum_size(&self) -> usize {
        match self.smallest_quorum() {
            Some(q) => q.len(),
            None => self.weights.len() + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::verify_intersection;

    #[test]
    fn uniform_weights_reduce_to_majority() {
        for n in 1..=8usize {
            let wmqs = WeightedMajorityQuorumSystem::new(WeightMap::uniform(n, Ratio::ONE));
            assert_eq!(wmqs.min_quorum_size(), n / 2 + 1, "n={n}");
        }
    }

    #[test]
    fn skewed_weights_allow_minority_quorum() {
        // Example 2 / §V.C weights.
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        let wmqs = WeightedMajorityQuorumSystem::new(w);
        // s1 + s2 + any 0.8 = 3.8 > 3.5 → quorum of size 3.
        assert!(wmqs.is_quorum_slice(&[ServerId(0), ServerId(1), ServerId(2)]));
        assert_eq!(wmqs.min_quorum_size(), 3);
        // s1 + s2 alone: 3.0 < 3.5 → not a quorum.
        assert!(!wmqs.is_quorum_slice(&[ServerId(0), ServerId(1)]));
    }

    #[test]
    fn exactly_half_is_not_a_quorum() {
        // Strictness matters: 2.0 of 4.0 must NOT be a quorum.
        let w = WeightMap::dec(&["2", "1", "1"]);
        let wmqs = WeightedMajorityQuorumSystem::new(w);
        assert!(!wmqs.is_quorum_slice(&[ServerId(0)])); // 2 == 4/2
        assert!(wmqs.is_quorum_slice(&[ServerId(0), ServerId(1)]));
    }

    #[test]
    fn fixed_threshold_total_tracks_initial() {
        // Weights changed but threshold stays W_{S,0}/2 = 3.5.
        let current = WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"]);
        let wmqs = WeightedMajorityQuorumSystem::with_threshold_total(current, Ratio::integer(7));
        assert!(wmqs.is_quorum_slice(&[ServerId(0), ServerId(1), ServerId(2)]));
        assert_eq!(wmqs.threshold_total(), Ratio::integer(7));
    }

    #[test]
    fn intersection_exhaustive_random_weights() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.random_range(1..=7);
            let w: WeightMap = (0..n)
                .map(|_| Ratio::new(rng.random_range(1..=20), 10))
                .collect();
            let wmqs = WeightedMajorityQuorumSystem::new(w);
            assert!(verify_intersection(&wmqs));
        }
    }

    #[test]
    fn smallest_quorum_is_actually_a_quorum() {
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        let wmqs = WeightedMajorityQuorumSystem::new(w);
        let q = wmqs.smallest_quorum().unwrap();
        assert!(wmqs.is_quorum_slice(&q));
        assert_eq!(q.len(), wmqs.min_quorum_size());
    }

    #[test]
    fn fast_path_rule_matches_set_predicate() {
        // The accumulator form and the set form must agree on every subset.
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        let wmqs = WeightedMajorityQuorumSystem::with_threshold_total(w, Ratio::integer(7));
        for bits in 0u32..(1 << 7) {
            let set: BTreeSet<ServerId> = (0..7)
                .filter(|i| bits & (1 << i) != 0)
                .map(ServerId)
                .collect();
            let sum = wmqs.set_weight(&set);
            assert_eq!(wmqs.is_quorum(&set), wmqs.is_quorum_weight(sum));
            assert_eq!(
                wmqs.is_quorum(&set),
                fast_path_read_quorum(sum, wmqs.threshold_total())
            );
        }
    }

    #[test]
    fn fast_path_rule_is_strict() {
        // Exactly half the initial total is NOT enough for a one-phase read.
        assert!(!fast_path_read_quorum(Ratio::dec("3.5"), Ratio::integer(7)));
        assert!(fast_path_read_quorum(Ratio::dec("3.6"), Ratio::integer(7)));
        assert!(!fast_path_read_quorum(Ratio::ZERO, Ratio::integer(7)));
    }

    #[test]
    fn no_quorum_with_zero_threshold_weights() {
        // All weight zero: no set can strictly exceed 0/2 = 0... except none,
        // since every set weighs 0. min_quorum_size reports n + 1.
        let wmqs = WeightedMajorityQuorumSystem::new(WeightMap::uniform(3, Ratio::ZERO));
        assert_eq!(wmqs.min_quorum_size(), 4);
    }
}
