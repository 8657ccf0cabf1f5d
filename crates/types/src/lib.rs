//! # awr-types — core data types for asynchronous weight reassignment
//!
//! Foundation types shared by every crate in the `awr` workspace, a
//! reproduction of *“How Hard is Asynchronous Weight Reassignment?”*
//! (Heydari, Silvestre, Bessani — ICDCS 2023):
//!
//! * [`Ratio`] — exact rational arithmetic for weights. All of the paper's
//!   safety properties are strict inequalities over reals; exact arithmetic
//!   makes the boundary cases (e.g. the Algorithm 1 construction that lands
//!   *exactly* on `W_S / 2`) decidable rather than float-flaky.
//! * [`ServerId`], [`ClientId`], [`ProcessId`] — the two process classes of
//!   the system model (§II).
//! * [`Change`], [`TransferChanges`] — the change quadruple `⟨p, lc, s, Δ⟩`
//!   (§III) and the debit/credit pair of a pairwise transfer (§V).
//! * [`ChangeSet`] — grow-only sets of changes (`C_{s,t}`) with weight
//!   accounting; the union-semilattice every protocol converges on.
//! * [`sync`] — [`CsRef`] wire references (summary / delta / full) and the
//!   reconciliation API that lets protocols ship an O(1) digest instead of
//!   the whole set.
//! * [`WeightMap`] — dense per-server weight vectors for quorum math.
//! * [`Tag`], [`TaggedValue`] — multi-writer ABD tags (§VII).
//! * [`wire`] — the typed positional codec and its frame: the one format
//!   of every socket message and every persisted record.
//!
//! # Examples
//!
//! ```
//! use awr_types::{Change, ChangeSet, Ratio, ServerId};
//!
//! // A 7-server system with uniform initial weight 1 (Fig. 1 setting).
//! let mut c = ChangeSet::uniform_initial(7, Ratio::ONE);
//!
//! // s4 transfers 0.25 to s1 (as the restricted pairwise protocol would).
//! c.insert(Change::new(ServerId(3), 2, ServerId(3), Ratio::dec("-0.25")));
//! c.insert(Change::new(ServerId(3), 2, ServerId(0), Ratio::dec("0.25")));
//!
//! assert_eq!(c.server_weight(ServerId(0)), Ratio::dec("1.25"));
//! assert_eq!(c.total_weight(7), Ratio::integer(7)); // pairwise ⇒ constant total
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod change;
mod change_set;
mod ids;
mod ratio;
pub mod sync;
mod tag;
mod weight_map;
pub mod wire;

pub use change::{Change, TransferChanges};
pub use change_set::ChangeSet;
pub use ids::{ClientId, ObjectId, ProcessId, ServerId};
pub use ratio::{ParseRatioError, Ratio};
pub use sync::{CsRef, ReconcileOutcome};
pub use tag::{Tag, TaggedValue};
pub use weight_map::WeightMap;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn ratio_strategy() -> impl Strategy<Value = Ratio> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Ratio::new(n, d))
    }

    proptest! {
        #[test]
        fn ratio_add_commutative(a in ratio_strategy(), b in ratio_strategy()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn ratio_add_associative(a in ratio_strategy(), b in ratio_strategy(), c in ratio_strategy()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn ratio_additive_inverse(a in ratio_strategy()) {
            prop_assert_eq!(a + (-a), Ratio::ZERO);
            prop_assert_eq!(a - a, Ratio::ZERO);
        }

        #[test]
        fn ratio_mul_distributes(a in ratio_strategy(), b in ratio_strategy(), c in ratio_strategy()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn ratio_order_total(a in ratio_strategy(), b in ratio_strategy()) {
            let lt = a < b;
            let gt = a > b;
            let eq = a == b;
            prop_assert_eq!(lt as u8 + gt as u8 + eq as u8, 1);
            // Order agrees with f64 approximation away from ties.
            if !eq {
                let (fa, fb) = (a.to_f64(), b.to_f64());
                if (fa - fb).abs() > 1e-9 {
                    prop_assert_eq!(lt, fa < fb);
                }
            }
        }

        #[test]
        fn ratio_parse_roundtrip(a in ratio_strategy()) {
            let s = format!("{}/{}", a.numer(), a.denom());
            prop_assert_eq!(s.parse::<Ratio>().unwrap(), a);
        }

        #[test]
        fn ratio_display_roundtrip(a in ratio_strategy()) {
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Ratio>().unwrap(), a);
        }

        #[test]
        fn ratio_half_doubles_back(a in ratio_strategy()) {
            prop_assert_eq!(a.half() + a.half(), a);
        }
    }

    fn change_strategy() -> impl Strategy<Value = Change> {
        (0u32..8, 1u64..5, 0u32..8, -40i128..40)
            .prop_map(|(i, lc, t, d)| Change::new(ServerId(i), lc, ServerId(t), Ratio::new(d, 10)))
    }

    proptest! {
        #[test]
        fn changeset_union_lattice(
            xs in proptest::collection::vec(change_strategy(), 0..20),
            ys in proptest::collection::vec(change_strategy(), 0..20),
        ) {
            let a: ChangeSet = xs.into_iter().collect();
            let b: ChangeSet = ys.into_iter().collect();
            let u = a.union(&b);
            // join upper bound
            prop_assert!(u.contains_all(&a));
            prop_assert!(u.contains_all(&b));
            // commutative + idempotent
            prop_assert_eq!(&u, &b.union(&a));
            prop_assert_eq!(u.union(&a), u);
        }

        #[test]
        fn changeset_weight_is_sum_of_deltas(
            xs in proptest::collection::vec(change_strategy(), 0..30),
        ) {
            let set: ChangeSet = xs.iter().copied().collect();
            for i in 0..8u32 {
                let s = ServerId(i);
                // Compute expected sum over the deduplicated set.
                let expected: Ratio = set
                    .iter()
                    .filter(|c| c.target == s)
                    .map(|c| c.delta)
                    .sum();
                prop_assert_eq!(set.server_weight(s), expected);
            }
        }

        #[test]
        fn weightmap_top_f_monotone(
            ws in proptest::collection::vec(0i128..100, 1..12),
        ) {
            let wm: WeightMap = ws.iter().map(|&w| Ratio::new(w, 10)).collect();
            let n = wm.len();
            let mut prev = Ratio::ZERO;
            for f in 0..=n {
                let cur = wm.top_f_sum(f);
                prop_assert!(cur >= prev);
                prev = cur;
            }
            prop_assert_eq!(wm.top_f_sum(n), wm.total());
        }
    }
}
