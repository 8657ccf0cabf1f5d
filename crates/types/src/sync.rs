//! Wire references to change sets: ship a digest, not the set.
//!
//! The paper's dynamic storage (§VII, Algorithms 5–6) attaches the full set
//! of completed changes `C` to every `R`/`W`/`RAck`/`WAck` — so
//! steady-state message size grows O(|C|) even when both ends already
//! agree. [`CsRef`] is the delta-aware wire representation that the
//! storage protocol uses instead of a [`ChangeSet`]:
//!
//! * [`CsRef::Summary`] — digest and cardinality only, O(1). Enough to
//!   *test* equality (the only thing Algorithm 6's accept check needs).
//!   With the digest elided ([`CsRef::length_only`]) it is the
//!   cardinality alone, which names a set only to a replica known to
//!   have held that very set: a replica's set only grows, so it holds at
//!   most one set of each length.
//! * [`CsRef::Delta`] — the changes a peer at a known digest is missing,
//!   O(gap). Extracted from the append-order journal by
//!   [`ChangeSet::delta_since`].
//! * [`CsRef::Full`] — the whole set, O(|C|). The unconditional fallback
//!   that keeps every negotiation bounded and liveness intact.
//!
//! The negotiation discipline (used by `awr-storage` only; the
//! `read_changes` of Algorithms 3–4 ships whole sets, as the paper does):
//! senders open with a `Summary` — the length-only one to a receiver that
//! accepted the sender's current set before; a receiver that cannot prove equality
//! replies with its own digest; the sender answers with a `Delta` against
//! that digest when its journal covers the gap, and degrades to `Full`
//! after one failed delta. At most three exchanges separate any pair of
//! replicas, and the content-carrying fallback is exactly the pre-delta
//! protocol — so the §VII restart/refresh semantics are untouched.
//!
//! Digest equality implies set equality only w.h.p. (collision ≈ 2⁻⁶⁴, see
//! the `change_set` module docs); every equality conclusion drawn from a
//! [`CsRef`] carries that standard caveat.
//!
//! # Examples
//!
//! A receiver reconciling against a sender's reference:
//!
//! ```
//! use awr_types::sync::{CsRef, ReconcileOutcome};
//! use awr_types::{Change, ChangeSet, Ratio, ServerId};
//!
//! let mut sender = ChangeSet::uniform_initial(3, Ratio::ONE);
//! let mut receiver = sender.clone();
//! sender.insert(Change::new(ServerId(0), 2, ServerId(1), Ratio::dec("0.1")));
//!
//! // O(1) summary: the receiver detects the mismatch and reports its digest.
//! let summary = CsRef::summary(&sender);
//! let ReconcileOutcome::Diverged { local_digest, .. } = receiver.apply_ref(&summary) else {
//!     panic!("stale receiver must diverge on summary");
//! };
//!
//! // The sender's journal covers the gap: an O(gap) delta closes it.
//! let delta = CsRef::for_peer(&sender, local_digest);
//! assert!(matches!(delta, CsRef::Delta { .. }));
//! assert!(matches!(
//!     receiver.apply_ref(&delta),
//!     ReconcileOutcome::InSync { added: 1 }
//! ));
//! assert_eq!(receiver, sender);
//! ```

use crate::change_set::change_mix;
use crate::{Change, ChangeSet};

/// A wire reference to a [`ChangeSet`]: summary, delta, or full content.
///
/// See the [module docs](self) for the negotiation discipline. The
/// real-transport runtime frames all three forms (`awr_net::wire`), so
/// the negotiation crosses sockets exactly as the sim models it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CsRef {
    /// Digest and cardinality of the sender's set — O(1) on the wire.
    Summary {
        /// The sender's [`ChangeSet::digest`].
        digest: u64,
        /// The sender's [`ChangeSet::len`].
        len: usize,
    },
    /// The changes a peer whose set digests to `base_digest` is missing.
    Delta {
        /// The digest the delta applies on top of.
        base_digest: u64,
        /// The missing changes, in the sender's append order.
        adds: Vec<Change>,
    },
    /// The sender's whole set — the unconditional fallback.
    Full(ChangeSet),
}

impl CsRef {
    /// The reference that names no set: the length-only summary of the
    /// empty set, which no change set of a running deployment holds. A
    /// reply whose receiver reads no reference carries it, and the codec
    /// writes nothing for it (`awr_storage`'s `RAck`/`WAck` flags byte).
    pub const NONE: CsRef = CsRef::length_only(0);

    /// The O(1) reference: digest and cardinality of `set`. A non-empty
    /// set digests to 0 only by a ≈ 2⁻⁶⁴ collision, and such a summary
    /// reads as the [length-only](CsRef::length_only) form.
    pub fn summary(set: &ChangeSet) -> CsRef {
        CsRef::Summary {
            digest: set.digest(),
            len: set.len(),
        }
    }

    /// The length-only summary of a set of `len` changes: a
    /// [`CsRef::Summary`] with the digest elided (zero), and on the wire
    /// its own tag and the length. It names a set only to a replica known
    /// to have held a set of `len` changes that equals the sender's —
    /// since a replica's set only grows, that replica holds the sender's
    /// set exactly while its own length is `len` (see
    /// [`ChangeSet::len`]). To anyone else it names nothing.
    pub const fn length_only(len: usize) -> CsRef {
        CsRef::Summary { digest: 0, len }
    }

    /// The length a [`CsRef::length_only`] summary names; `None` for
    /// every other reference.
    pub fn named_len(&self) -> Option<usize> {
        match self {
            CsRef::Summary { digest: 0, len } => Some(*len),
            _ => None,
        }
    }

    /// The cheapest reference that brings a peer whose set digests to
    /// `peer_digest` up to `set`: a [`CsRef::Summary`] when the peer
    /// already matches, a [`CsRef::Delta`] when the sender's journal covers
    /// the gap, and [`CsRef::Full`] otherwise (peer ahead, diverged, or
    /// unknown order). `peer_digest == 0` means "peer has nothing" and
    /// always yields the whole content (as a delta from the empty set).
    pub fn for_peer(set: &ChangeSet, peer_digest: u64) -> CsRef {
        if peer_digest == set.digest() {
            return CsRef::summary(set);
        }
        match set.delta_since(peer_digest) {
            Some(adds) => CsRef::Delta {
                base_digest: peer_digest,
                adds: adds.to_vec(),
            },
            None => CsRef::Full(set.clone()),
        }
    }

    /// The digest of the set this reference describes (for `Delta`, the
    /// digest the receiver ends at after applying the adds on `base`; 0,
    /// no set's digest, for a length-only summary).
    pub fn implied_digest(&self) -> u64 {
        match self {
            CsRef::Summary { digest, .. } => *digest,
            CsRef::Full(set) => set.digest(),
            CsRef::Delta { base_digest, adds } => adds
                .iter()
                .fold(*base_digest, |d, c| d.wrapping_add(change_mix(c))),
        }
    }
}

/// What [`ChangeSet::apply_ref`] concluded about the local set relative to
/// the sender's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconcileOutcome {
    /// The local set now provably (w.h.p.) equals the sender's snapshot;
    /// `added` changes were absorbed on the way.
    InSync {
        /// Changes newly inserted by this reconciliation.
        added: usize,
    },
    /// The local set absorbed the reference and is a strict superset of
    /// the sender's snapshot — the *sender* is behind.
    Ahead {
        /// Changes newly inserted by this reconciliation.
        added: usize,
    },
    /// Equality with the sender could not be established from this
    /// reference (summary mismatch, or a delta whose base is not the local
    /// digest). Any delta changes were still absorbed — they are facts
    /// regardless of the failed base — and the local digest is reported so
    /// the sender can answer with a better reference.
    Diverged {
        /// The local digest after absorbing whatever was absorbable.
        local_digest: u64,
        /// The local cardinality after absorption.
        local_len: usize,
        /// Changes newly inserted by this reconciliation.
        added: usize,
    },
}

impl ReconcileOutcome {
    /// Changes newly inserted by the reconciliation.
    pub fn added(&self) -> usize {
        match self {
            ReconcileOutcome::InSync { added }
            | ReconcileOutcome::Ahead { added }
            | ReconcileOutcome::Diverged { added, .. } => *added,
        }
    }

    /// Whether the reconciliation taught the local set anything new.
    pub fn learned(&self) -> bool {
        self.added() > 0
    }
}

impl ChangeSet {
    /// Reconciles this set against a wire reference, absorbing whatever
    /// content the reference carries, and reports where the two replicas
    /// now stand. This is the *receiver* half of the negotiation: see the
    /// [module docs](self) for the full exchange.
    ///
    /// * `Summary` — pure comparison, never mutates. A length-only one
    ///   carries no digest to compare with, so it is never in sync
    ///   (except as the empty set's).
    /// * `Delta` — applies cleanly when `base_digest` matches the local
    ///   digest ([`ReconcileOutcome::InSync`]); on a base mismatch the adds
    ///   are still inserted (grow-only sets make that always safe) but the
    ///   outcome is [`ReconcileOutcome::Diverged`] so the caller re-asks.
    /// * `Full` — a lattice merge; [`ReconcileOutcome::Ahead`] when the
    ///   local set strictly contains the sender's.
    pub fn apply_ref(&mut self, r: &CsRef) -> ReconcileOutcome {
        match r {
            CsRef::Summary { digest, len } => {
                if self.digest() == *digest && self.len() == *len {
                    ReconcileOutcome::InSync { added: 0 }
                } else {
                    ReconcileOutcome::Diverged {
                        local_digest: self.digest(),
                        local_len: self.len(),
                        added: 0,
                    }
                }
            }
            CsRef::Delta { base_digest, adds } => {
                let clean_base = *base_digest == self.digest();
                let before = self.len();
                for c in adds {
                    self.insert(*c);
                }
                let added = self.len() - before;
                if clean_base {
                    ReconcileOutcome::InSync { added }
                } else {
                    ReconcileOutcome::Diverged {
                        local_digest: self.digest(),
                        local_len: self.len(),
                        added,
                    }
                }
            }
            CsRef::Full(set) => {
                let before = self.len();
                self.merge(set);
                let added = self.len() - before;
                if self.len() == set.len() {
                    ReconcileOutcome::InSync { added }
                } else {
                    ReconcileOutcome::Ahead { added }
                }
            }
        }
    }

    /// Read-only equality test against a wire reference — the accept check
    /// of Algorithm 6 (`C = C_i`) without materializing the sender's set.
    /// Never mutates. Digest-based conclusions hold w.h.p. (≈ 2⁻⁶⁴
    /// collision), the same contract as the digest fast paths in
    /// [`ChangeSet::merge`].
    pub fn matches_ref(&self, r: &CsRef) -> bool {
        match r {
            CsRef::Summary { digest, len } => self.digest() == *digest && self.len() == *len,
            CsRef::Full(set) => self == set,
            CsRef::Delta { adds, .. } => {
                self.digest() == r.implied_digest() && adds.iter().all(|c| self.contains(c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ratio, ServerId};

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    fn ch(issuer: u32, counter: u64, target: u32, d: &str) -> Change {
        Change::new(s(issuer), counter, s(target), Ratio::dec(d))
    }

    #[test]
    fn summary_roundtrip_in_sync() {
        let a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut b = a.clone();
        assert_eq!(
            b.apply_ref(&CsRef::summary(&a)),
            ReconcileOutcome::InSync { added: 0 }
        );
        assert!(b.matches_ref(&CsRef::summary(&a)));
    }

    #[test]
    fn summary_mismatch_reports_local_digest() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut b = a.clone();
        a.insert(ch(0, 2, 1, "0.1"));
        let out = b.apply_ref(&CsRef::summary(&a));
        assert_eq!(
            out,
            ReconcileOutcome::Diverged {
                local_digest: b.digest(),
                local_len: b.len(),
                added: 0,
            }
        );
        assert!(!b.matches_ref(&CsRef::summary(&a)));
    }

    /// The length-only form: a summary with digest 0, named by its
    /// length alone, matching no set by digest (the empty set's aside).
    #[test]
    fn a_length_only_summary_names_a_length_and_matches_no_set() {
        let a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let named = CsRef::length_only(a.len());
        assert_eq!(named, CsRef::Summary { digest: 0, len: 3 });
        assert_eq!(named.named_len(), Some(3));
        assert_eq!(CsRef::NONE.named_len(), Some(0));
        assert_eq!(CsRef::summary(&a).named_len(), None);
        assert_eq!(CsRef::Full(a.clone()).named_len(), None);
        assert!(!a.matches_ref(&named));
        let mut b = a.clone();
        assert!(matches!(
            b.apply_ref(&named),
            ReconcileOutcome::Diverged { added: 0, .. }
        ));
        assert!(ChangeSet::new().matches_ref(&CsRef::NONE));
    }

    #[test]
    fn for_peer_picks_cheapest_reference() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let behind = a.clone();
        a.insert(ch(0, 2, 1, "0.1"));
        // Equal peer → summary.
        assert!(matches!(
            CsRef::for_peer(&a, a.digest()),
            CsRef::Summary { .. }
        ));
        // Behind-along-journal peer → delta with exactly the gap.
        match CsRef::for_peer(&a, behind.digest()) {
            CsRef::Delta { base_digest, adds } => {
                assert_eq!(base_digest, behind.digest());
                assert_eq!(adds, vec![ch(0, 2, 1, "0.1")]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        // Unknown digest → full.
        assert!(matches!(CsRef::for_peer(&a, 0xDEAD_BEEF), CsRef::Full(_)));
        // Empty peer → delta from the empty prefix, carrying everything.
        match CsRef::for_peer(&a, 0) {
            CsRef::Delta { base_digest, adds } => {
                assert_eq!(base_digest, 0);
                assert_eq!(adds.len(), a.len());
            }
            other => panic!("expected full-content delta, got {other:?}"),
        }
    }

    #[test]
    fn delta_applies_cleanly_on_matching_base() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut b = a.clone();
        a.insert(ch(0, 2, 1, "0.1"));
        a.insert(ch(1, 2, 2, "-0.1"));
        let r = CsRef::for_peer(&a, b.digest());
        assert_eq!(b.apply_ref(&r), ReconcileOutcome::InSync { added: 2 });
        assert_eq!(a, b);
        assert_eq!(r.implied_digest(), a.digest());
    }

    #[test]
    fn delta_with_unknown_base_absorbs_but_diverges() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        // b diverged: it knows a change a doesn't.
        let mut b = a.clone();
        b.insert(ch(2, 2, 0, "0.3"));
        a.insert(ch(0, 2, 1, "0.1"));
        let delta = CsRef::Delta {
            base_digest: ChangeSet::uniform_initial(3, Ratio::ONE).digest(),
            adds: vec![ch(0, 2, 1, "0.1")],
        };
        let out = b.apply_ref(&delta);
        // The add is a fact and was kept, but equality is not established.
        assert!(b.contains(&ch(0, 2, 1, "0.1")));
        assert_eq!(
            out,
            ReconcileOutcome::Diverged {
                local_digest: b.digest(),
                local_len: b.len(),
                added: 1,
            }
        );
        let _ = a;
    }

    #[test]
    fn empty_delta_is_in_sync_noop() {
        let mut b = ChangeSet::uniform_initial(2, Ratio::ONE);
        let r = CsRef::Delta {
            base_digest: b.digest(),
            adds: Vec::new(),
        };
        assert_eq!(b.apply_ref(&r), ReconcileOutcome::InSync { added: 0 });
    }

    #[test]
    fn full_merge_detects_ahead_receiver() {
        let base = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut ahead = base.clone();
        ahead.insert(ch(0, 2, 1, "0.1"));
        let out = ahead.apply_ref(&CsRef::Full(base.clone()));
        assert_eq!(out, ReconcileOutcome::Ahead { added: 0 });
        // And a behind receiver converges.
        let mut behind = base;
        let out = behind.apply_ref(&CsRef::Full(ahead.clone()));
        assert_eq!(out, ReconcileOutcome::InSync { added: 1 });
        assert_eq!(behind, ahead);
    }

    #[test]
    fn concurrent_merge_then_delta_falls_back_to_full() {
        // Two replicas extend a common base concurrently: neither digest is
        // in the other's journal, so for_peer degrades to Full, and the
        // lattice merge converges both.
        let base = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut x = base.clone();
        x.insert(ch(0, 2, 1, "0.1"));
        let mut y = base.clone();
        y.insert(ch(2, 2, 0, "-0.1"));
        let to_y = CsRef::for_peer(&x, y.digest());
        assert!(matches!(to_y, CsRef::Full(_)));
        assert_eq!(y.apply_ref(&to_y), ReconcileOutcome::Ahead { added: 1 });
        let to_x = CsRef::for_peer(&y, x.digest());
        assert_eq!(x.apply_ref(&to_x), ReconcileOutcome::InSync { added: 1 });
        assert_eq!(x, y);
    }

    #[test]
    fn matches_ref_on_delta_checks_containment_and_digest() {
        let mut a = ChangeSet::uniform_initial(2, Ratio::ONE);
        let base_digest = a.digest();
        let add = ch(0, 2, 1, "0.2");
        a.insert(add);
        let r = CsRef::Delta {
            base_digest,
            adds: vec![add],
        };
        assert!(a.matches_ref(&r));
        // A set missing the add does not match.
        let b = ChangeSet::uniform_initial(2, Ratio::ONE);
        assert!(!b.matches_ref(&r));
    }
}
