//! The `change` data structure (paper §III).
//!
//! A change is the quadruple `⟨p_i, lc_i, s, Δ⟩`: process `p_i`, at local
//! counter value `lc_i`, changed the weight of server `s` by `Δ`. Changes are
//! the *only* way weights evolve; a server's weight at time `t` is the sum of
//! the deltas of all changes created for it by completed operations.

use std::fmt;

use crate::{ProcessId, Ratio, ServerId};

/// A single weight change `⟨issuer, counter, target, delta⟩`.
///
/// Two changes with the same `(issuer, counter, target)` are the same
/// logical change; the paper guarantees this by requiring each process to
/// increment its local counter after every reassignment invocation.
///
/// By convention (paper §III) the *weight of the change* is `delta` and the
/// change *is created for* `target`.
///
/// # Examples
///
/// ```
/// use awr_types::{Change, ProcessId, Ratio, ServerId};
///
/// // Initial weight of s1: ⟨s1, 1, s1, 1⟩ completed at time 0.
/// let init = Change::initial(ServerId(0), Ratio::ONE);
/// assert_eq!(init.target, ServerId(0));
/// assert!(!init.is_null());
///
/// // s3 aborts a reassignment of s2: a zero-weight change is created.
/// let aborted = Change::new(ProcessId::Server(ServerId(2)), 2, ServerId(1), Ratio::ZERO);
/// assert!(aborted.is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Change {
    /// The process whose reassignment/transfer invocation produced this change.
    pub issuer: ProcessId,
    /// The issuer's local counter at invocation time.
    pub counter: u64,
    /// The server whose weight the change affects.
    pub target: ServerId,
    /// The signed weight delta (zero for aborted/null outcomes).
    pub delta: Ratio,
}

impl Change {
    /// Creates a change `⟨issuer, counter, target, delta⟩`.
    pub fn new(
        issuer: impl Into<ProcessId>,
        counter: u64,
        target: ServerId,
        delta: Ratio,
    ) -> Change {
        Change {
            issuer: issuer.into(),
            counter,
            target,
            delta,
        }
    }

    /// The conventional initial-weight change `⟨s, 1, s, w⟩` completed at
    /// time 0 (paper §III assumes `reassign(s, w)` completes at `t = 0`;
    /// Algorithm 4 line 2 initializes `C = {⟨s, 1, s, 1⟩ | s ∈ S}`).
    pub fn initial(server: ServerId, weight: Ratio) -> Change {
        Change::new(server, 1, server, weight)
    }

    /// Returns `true` if this change has zero weight (an aborted outcome).
    pub fn is_null(&self) -> bool {
        self.delta.is_zero()
    }

    /// The key that identifies the *operation* this change came from.
    pub fn op_key(&self) -> (ProcessId, u64) {
        (self.issuer, self.counter)
    }
}

impl fmt::Debug for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {:?}⟩",
            self.issuer, self.counter, self.target, self.delta
        )
    }
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The pair of changes produced by a completed `transfer(s_i, s_j, Δ)`
/// (paper §V.A): `⟨s_i, lc, s_i, −Δ'⟩` and `⟨s_i, lc, s_j, Δ'⟩` where `Δ'`
/// is `Δ` for an *effective* transfer and `0` for a *null* one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TransferChanges {
    /// The change debiting the source server.
    pub debit: Change,
    /// The change crediting the destination server.
    pub credit: Change,
}

impl TransferChanges {
    /// Builds the change pair for `transfer(from, to, delta)` issued with
    /// local counter `counter`. `effective == false` produces the null pair.
    pub fn new(from: ServerId, to: ServerId, counter: u64, delta: Ratio, effective: bool) -> Self {
        let d = if effective { delta } else { Ratio::ZERO };
        TransferChanges {
            debit: Change::new(from, counter, from, -d),
            credit: Change::new(from, counter, to, d),
        }
    }

    /// Returns `true` if the transfer moved non-zero weight.
    ///
    /// Both constituent changes are null or both are non-null (P-Validity-I),
    /// so inspecting the debit suffices — mirroring the paper's remark that
    /// returning only `c` in `⟨Complete, c⟩` is enough.
    pub fn is_effective(&self) -> bool {
        !self.debit.is_null()
    }

    /// Both changes, debit first.
    pub fn both(&self) -> [Change; 2] {
        [self.debit, self.credit]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    #[test]
    fn initial_change_convention() {
        let c = Change::initial(s(3), Ratio::ONE);
        assert_eq!(c.issuer, ProcessId::Server(s(3)));
        assert_eq!(c.counter, 1);
        assert_eq!(c.target, s(3));
        assert_eq!(c.delta, Ratio::ONE);
    }

    #[test]
    fn transfer_pair_effective() {
        let t = TransferChanges::new(s(0), s(1), 2, Ratio::dec("0.25"), true);
        assert!(t.is_effective());
        assert_eq!(t.debit.delta, Ratio::dec("-0.25"));
        assert_eq!(t.credit.delta, Ratio::dec("0.25"));
        assert_eq!(t.debit.target, s(0));
        assert_eq!(t.credit.target, s(1));
        assert_eq!(t.debit.op_key(), t.credit.op_key());
    }

    #[test]
    fn transfer_pair_null() {
        let t = TransferChanges::new(s(0), s(1), 2, Ratio::dec("0.25"), false);
        assert!(!t.is_effective());
        assert!(t.debit.is_null() && t.credit.is_null());
        // Null changes still record who tried what.
        assert_eq!(t.debit.issuer, ProcessId::Server(s(0)));
    }

    #[test]
    fn display_matches_paper_notation() {
        let c = Change::new(s(0), 2, s(0), Ratio::dec("1.5"));
        assert_eq!(format!("{c}"), "⟨s1, 2, s1, 3/2⟩");
    }

    #[test]
    fn changes_order_deterministically() {
        let a = Change::new(s(0), 1, s(0), Ratio::ONE);
        let b = Change::new(s(0), 2, s(0), Ratio::ONE);
        let c = Change::new(s(1), 1, s(1), Ratio::ONE);
        let mut v = vec![c, b, a];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
