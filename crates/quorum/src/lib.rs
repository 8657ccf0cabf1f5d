//! # awr-quorum — majority and weighted-majority quorum systems
//!
//! Implements the quorum machinery of *“How Hard is Asynchronous Weight
//! Reassignment?”* (ICDCS 2023):
//!
//! * [`QuorumSystem`] — the predicate-style abstraction every protocol uses;
//! * [`MajorityQuorumSystem`] — the regular MQS baseline;
//! * [`GridQuorumSystem`] / [`TreeQuorumSystem`] — the grid \[2\] and tree
//!   \[3\] systems the paper's introduction contrasts with majorities,
//!   plus Naor–Wool [`approximate_load`] analysis;
//! * [`WeightedMajorityQuorumSystem`] — Definition 1, with a fixed-threshold
//!   variant matching Algorithm 5's `is_quorum` (`Σ w > W_{S,0}/2`);
//! * availability & integrity checks — Property 1, Integrity, the
//!   RP-Integrity floor `W_{S,0}/(2(n−f))`, and executable Lemma 1;
//! * analysis helpers for the experiment harnesses (smallest quorum avoiding
//!   failed servers, fastest-quorum latency, skew sweeps);
//! * [`placement`] — utilization-driven weight placement: the
//!   [`PlacementPolicy`] trait ([`placement::Static`], [`LatencyGreedy`],
//!   [`UtilizationAware`]) consumes the simulator's per-link latency /
//!   utilization matrices and proposes safe weight maps, and
//!   [`plan_transfers`] decomposes the move into C1-compatible pairwise
//!   transfers, which [`first_infeasible_step`] checks against C2.
//!
//! # Examples
//!
//! ```
//! use awr_quorum::{integrity_holds, QuorumSystem, WeightedMajorityQuorumSystem};
//! use awr_types::{Ratio, ServerId, WeightMap};
//!
//! let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
//! assert!(integrity_holds(&w, 2)); // Property 1 with f = 2
//!
//! let wmqs = WeightedMajorityQuorumSystem::new(w);
//! assert_eq!(wmqs.min_quorum_size(), 3); // minority quorum
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod availability;
mod grid;
mod load;
mod majority;
pub mod placement;
mod system;
mod tree;
mod weighted;

pub use analysis::{fastest_quorum_latency, skew_sweep, smallest_quorum_avoiding, SkewRow};
pub use availability::{
    integrity_holds, integrity_holds_with_total, lemma1_check, max_tolerable_faults,
    max_transferable, rp_floor, rp_integrity_holds, validate_initial_config, ConfigViolation,
};
pub use grid::GridQuorumSystem;
pub use load::{approximate_load, greedy_weighted_load, load_lower_bound, LoadAnalysis};
pub use majority::MajorityQuorumSystem;
pub use placement::{
    first_infeasible_step, plan_transfers, shape_weights, LatencyGreedy, PlacementInputs,
    PlacementPolicy, PlannedTransfer, UtilizationAware,
};
pub use system::{minimal_quorums, verify_intersection, QuorumSystem};
pub use tree::TreeQuorumSystem;
pub use weighted::{fast_path_read_quorum, WeightedMajorityQuorumSystem};

#[cfg(test)]
mod proptests {
    use super::*;
    use awr_types::ServerId;
    use awr_types::{Ratio, WeightMap};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn weights_strategy() -> impl Strategy<Value = WeightMap> {
        proptest::collection::vec(1i128..40, 1..9)
            .prop_map(|ws| ws.into_iter().map(|w| Ratio::new(w, 10)).collect())
    }

    proptest! {
        /// Lemma 3, generalized: any two weighted quorums intersect.
        #[test]
        fn weighted_quorums_intersect(w in weights_strategy()) {
            let q = WeightedMajorityQuorumSystem::new(w);
            prop_assert!(verify_intersection(&q));
        }

        /// Lemma 1: RP-Integrity (with the real total) implies Integrity.
        #[test]
        fn rp_implies_integrity(w in weights_strategy(), f in 1usize..4) {
            let n = w.len();
            prop_assume!(n > f);
            let floor = rp_floor(w.total(), n, f);
            if rp_integrity_holds(&w, floor) {
                prop_assert!(integrity_holds(&w, f));
            }
        }

        /// Property 1 ⇒ survivors of any f crashes still form a quorum.
        #[test]
        fn property1_implies_crash_availability(w in weights_strategy(), f in 0usize..4) {
            let n = w.len();
            prop_assume!(f < n);
            if integrity_holds(&w, f) {
                let q = WeightedMajorityQuorumSystem::new(w.clone());
                // Worst case: crash the f heaviest.
                let crashed: BTreeSet<ServerId> = w.top_f_servers(f).into_iter().collect();
                let survivors: BTreeSet<ServerId> = ServerId::all(n)
                    .filter(|s| !crashed.contains(s))
                    .collect();
                prop_assert!(q.is_quorum(&survivors));
            }
        }

        /// Greedy smallest quorum matches brute force for small universes.
        #[test]
        fn greedy_matches_bruteforce(w in weights_strategy()) {
            prop_assume!(w.len() <= 7);
            let q = WeightedMajorityQuorumSystem::new(w);
            let greedy = q.min_quorum_size();
            struct Wrap<'a>(&'a WeightedMajorityQuorumSystem);
            impl QuorumSystem for Wrap<'_> {
                fn universe_size(&self) -> usize { self.0.universe_size() }
                fn is_quorum(&self, s: &BTreeSet<ServerId>) -> bool { self.0.is_quorum(s) }
            }
            let brute = Wrap(&q).min_quorum_size();
            prop_assert_eq!(greedy, brute);
        }
    }
}
