//! Linearizable oracles for the two *unsolvable* problems.
//!
//! Theorems 1 and 2 are reductions: *given* a solution to (pairwise) weight
//! reassignment, consensus is solvable. These oracles are that hypothetical
//! solution — shared objects whose operations linearize under a lock and
//! enforce exactly the Validity-I semantics of Definitions 3 and 4 (create
//! the requested change iff Integrity survives, else a zero change).
//!
//! In a real asynchronous failure-prone system such an object cannot be
//! implemented (that is the paper's point); in-process it trivially can,
//! which is what lets us *run* Algorithms 1 and 2 and watch consensus fall
//! out. See [`crate::reduction`].

use std::sync::{Mutex, MutexGuard, PoisonError};

use awr_types::{Change, ChangeSet, ProcessId, Ratio, ServerId, TransferChanges, WeightMap};

/// State shared by both oracles.
#[derive(Debug)]
struct OracleState {
    f: usize,
    changes: ChangeSet,
    /// Current weights (kept in sync with `changes` for O(1) checks).
    weights: WeightMap,
}

impl OracleState {
    fn new(initial: WeightMap, f: usize) -> OracleState {
        OracleState {
            f,
            changes: ChangeSet::from_initial_weights(&initial),
            weights: initial,
        }
    }
}

/// Locks an oracle's state. A panic while it was held does not poison it:
/// the oracle is a lock-linearized object, and a caller that caught a
/// failed step may keep using it.
fn lock(state: &Mutex<OracleState>) -> MutexGuard<'_, OracleState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A linearizable oracle for the **weight reassignment problem**
/// (Definition 3).
///
/// # Examples
///
/// ```
/// use awr_core::WrOracle;
/// use awr_types::{ProcessId, Ratio, ServerId, WeightMap};
///
/// // Example 1 of the paper: n = 4, f = 1, uniform weight 1.
/// let oracle = WrOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);
///
/// // s1 reassigns itself +1.5 → allowed (weights 2.5,1,1,1: top-1 = 2.5 < 2.75).
/// let c = oracle.reassign(ServerId(0).into(), 2, ServerId(0), Ratio::dec("1.5"));
/// assert_eq!(c.delta, Ratio::dec("1.5"));
///
/// // s3 reassigns s2 by −0.5 → would leave top-1 = 2.5 ≥ 2.5 → aborted.
/// let c = oracle.reassign(ServerId(2).into(), 2, ServerId(1), Ratio::dec("-0.5"));
/// assert!(c.is_null());
/// ```
#[derive(Debug)]
pub struct WrOracle {
    state: Mutex<OracleState>,
}

impl WrOracle {
    /// Creates the oracle with initial weights and fault threshold `f`.
    pub fn new(initial: WeightMap, f: usize) -> WrOracle {
        WrOracle {
            state: Mutex::new(OracleState::new(initial, f)),
        }
    }

    /// `reassign(s, Δ)` invoked by `issuer` with local counter `counter`.
    ///
    /// Linearizes atomically: the change `⟨issuer, counter, s, Δ⟩` is created
    /// if applying it keeps Integrity (`top-f < W_S/2` with the *new* total);
    /// otherwise the null change `⟨issuer, counter, s, 0⟩` is created
    /// (Validity-I).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is zero (the problem forbids `reassign(∗, 0)`).
    pub fn reassign(
        &self,
        issuer: ProcessId,
        counter: u64,
        target: ServerId,
        delta: Ratio,
    ) -> Change {
        assert!(!delta.is_zero(), "reassign requires a non-zero delta");
        let mut st = lock(&self.state);
        let mut hypothetical = st.weights.clone();
        hypothetical.add(target, delta);
        let ok = awr_quorum::integrity_holds(&hypothetical, st.f);
        let change = if ok {
            st.weights = hypothetical;
            Change::new(issuer, counter, target, delta)
        } else {
            Change::new(issuer, counter, target, Ratio::ZERO)
        };
        st.changes.insert(change);
        change
    }

    /// `read_changes(s)`: the set of changes created for `s` so far.
    pub fn read_changes(&self, s: ServerId) -> ChangeSet {
        lock(&self.state).changes.restricted_to(s)
    }

    /// Current weights (for auditing; not part of the problem interface).
    pub fn weights(&self) -> WeightMap {
        lock(&self.state).weights.clone()
    }
}

/// A linearizable oracle for the **pairwise weight reassignment problem**
/// (Definition 4): `transfer(s_i, s_j, Δ)` may be invoked by *any* server
/// `s_k` and keeps the total weight constant.
#[derive(Debug)]
pub struct PwOracle {
    state: Mutex<OracleState>,
}

impl PwOracle {
    /// Creates the oracle with initial weights and fault threshold `f`.
    pub fn new(initial: WeightMap, f: usize) -> PwOracle {
        PwOracle {
            state: Mutex::new(OracleState::new(initial, f)),
        }
    }

    /// `transfer(from, to, Δ)` invoked by `issuer` with counter `counter`.
    ///
    /// Creates the effective pair `⟨issuer, counter, from, −Δ⟩`,
    /// `⟨issuer, counter, to, Δ⟩` iff P-Integrity survives; otherwise the
    /// null pair (P-Validity-I).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is zero or `from == to`.
    pub fn transfer(
        &self,
        issuer: ServerId,
        counter: u64,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> TransferChanges {
        assert!(!delta.is_zero(), "transfer requires a non-zero delta");
        assert_ne!(from, to, "transfer requires distinct endpoints");
        let mut st = lock(&self.state);
        let mut hypothetical = st.weights.clone();
        hypothetical.add(from, -delta);
        hypothetical.add(to, delta);
        // Total is unchanged by construction; P-Integrity is the same
        // top-f check.
        let ok = awr_quorum::integrity_holds(&hypothetical, st.f);
        let pair = if ok {
            st.weights = hypothetical;
            TransferChanges {
                debit: Change::new(issuer, counter, from, -delta),
                credit: Change::new(issuer, counter, to, delta),
            }
        } else {
            TransferChanges {
                debit: Change::new(issuer, counter, from, Ratio::ZERO),
                credit: Change::new(issuer, counter, to, Ratio::ZERO),
            }
        };
        st.changes.insert(pair.debit);
        st.changes.insert(pair.credit);
        pair
    }

    /// `read_changes(s)`: the set of changes created for `s` so far.
    pub fn read_changes(&self, s: ServerId) -> ChangeSet {
        lock(&self.state).changes.restricted_to(s)
    }

    /// Current weights (for auditing).
    pub fn weights(&self) -> WeightMap {
        lock(&self.state).weights.clone()
    }

    /// Current total weight — constant forever for a pairwise oracle.
    pub fn total(&self) -> Ratio {
        lock(&self.state).weights.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    #[test]
    fn example1_full_replay() {
        // Paper Example 1: S = {s1..s4}, f = 1, all weights 1.
        let oracle = WrOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);

        // s1 invokes reassign(s1, 1.5) with lc = 2 → completed effective.
        let c1 = oracle.reassign(s(0).into(), 2, s(0), Ratio::dec("1.5"));
        assert_eq!(c1, Change::new(s(0), 2, s(0), Ratio::dec("1.5")));

        // c1 reads s1's changes: initial + the new one; weight 2.5.
        let rc = oracle.read_changes(s(0));
        assert_eq!(rc.len(), 2);
        assert_eq!(rc.server_weight(s(0)), Ratio::dec("2.5"));

        // s3 invokes reassign(s2, −0.5): top-1 would be 2.5 of total 4.5−0.5=4.0
        // → 2.5 ≥ 2.0 → Integrity violated → null change.
        let c2 = oracle.reassign(s(2).into(), 2, s(1), Ratio::dec("-0.5"));
        assert!(c2.is_null());

        // c2 reads s2's changes: initial + null change; weight still 1.
        let rc2 = oracle.read_changes(s(1));
        assert_eq!(rc2.len(), 2);
        assert_eq!(rc2.server_weight(s(1)), Ratio::ONE);
    }

    #[test]
    #[should_panic(expected = "non-zero delta")]
    fn reassign_zero_forbidden() {
        let oracle = WrOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);
        let _ = oracle.reassign(s(0).into(), 2, s(0), Ratio::ZERO);
    }

    #[test]
    fn integrity_never_violated_by_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let oracle = WrOracle::new(WeightMap::uniform(7, Ratio::ONE), 3);
        for i in 0..200u64 {
            let target = s(rng.random_range(0..7));
            let delta = Ratio::new(rng.random_range(-10..=10i128), 10);
            if delta.is_zero() {
                continue;
            }
            let issuer = s(rng.random_range(0..7));
            let _ = oracle.reassign(issuer.into(), i + 2, target, delta);
            assert!(
                awr_quorum::integrity_holds(&oracle.weights(), 3),
                "violated after op {i}"
            );
        }
    }

    #[test]
    fn pairwise_total_constant() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let oracle = PwOracle::new(WeightMap::uniform(7, Ratio::ONE), 2);
        for i in 0..200u64 {
            let from = s(rng.random_range(0..7));
            let to = s(rng.random_range(0..7));
            if from == to {
                continue;
            }
            let delta = Ratio::new(rng.random_range(1..=5i128), 10);
            let _ = oracle.transfer(from, i + 2, from, to, delta);
            assert_eq!(oracle.total(), Ratio::integer(7));
            assert!(awr_quorum::integrity_holds(&oracle.weights(), 2));
        }
    }

    #[test]
    fn pairwise_null_when_p_integrity_would_break() {
        // n = 4, f = 1: move 0.9 from s2 to s1 → s1 = 1.9 < 2.0 ok.
        let oracle = PwOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);
        let t1 = oracle.transfer(s(1), 2, s(1), s(0), Ratio::dec("0.9"));
        assert!(t1.is_effective());
        // Another 0.2 to s1 → s1 = 2.1 > 2.0 → violated → null.
        let t2 = oracle.transfer(s(2), 2, s(2), s(0), Ratio::dec("0.2"));
        assert!(!t2.is_effective());
        assert_eq!(oracle.weights().weight(s(0)), Ratio::dec("1.9"));
    }

    #[test]
    fn read_changes_contains_null_outcomes() {
        let oracle = PwOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);
        let _ = oracle.transfer(s(1), 2, s(1), s(0), Ratio::dec("0.9"));
        let t = oracle.transfer(s(2), 2, s(2), s(0), Ratio::dec("0.2"));
        assert!(!t.is_effective());
        // Validity-II: the null credit for s1 must be readable.
        let c = oracle.read_changes(s(0));
        assert!(c.contains(&t.credit));
    }

    #[test]
    fn oracle_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<WrOracle>();
        assert_sync::<PwOracle>();
    }
}
