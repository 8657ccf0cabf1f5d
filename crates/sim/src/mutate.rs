//! Seeded protocol mutations: each one removes a mechanism the protocol's
//! safety rests on, so that a test can show the mechanism is load-bearing
//! and that the validators notice its absence.
//!
//! A checker that has never caught a bug proves nothing. This module holds
//! a thread-local switch that arms exactly one deliberate protocol bug at a
//! time; the protocol crates (`awr_core`, `awr_storage`, `awr_rb`) consult
//! it at the mutated decision points, and `crates/check` asserts that every
//! armed mutation is caught: five by the explorer on a 3-server scenario,
//! two ([`Mutation::SkipRestartOnStale`], [`Mutation::SkipRefreshOnGain`])
//! by the linearizability checker on a pinned 7-server schedule, one
//! ([`Mutation::StaleValueTarget`]) by the linearizability checker on a
//! pinned 3-server schedule, and one ([`Mutation::UnprovenLengthRef`]) by
//! Algorithm 6's accept check on a pinned 3-server schedule.
//!
//! The switch is thread-local because each simulated [`crate::World`] runs
//! on a single thread while `cargo test` runs many tests in parallel — a
//! process-global switch would leak mutations across unrelated tests.
//!
//! Only compiled with the `mutate` feature; production builds carry none of
//! these code paths.

use std::cell::Cell;

/// One deliberate protocol bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Drop the Property-1 floor clamp in `TransferCore::start_batch`: a
    /// transfer that would take the issuer below the RP-Integrity floor
    /// proceeds instead of degrading to a null transfer. Caught by the
    /// RP-Integrity audit invariant.
    DropFloorClamp,
    /// Skip the tag comparison when absorbing `RefreshAck` registers: the
    /// refresher adopts whatever the ack carries instead of
    /// strictly-newer-only, so a stale replier can roll a register's tag
    /// backwards. Caught by the tag-monotonicity invariant.
    SkipRefreshTagCheck,
    /// Reuse the previous RB sequence number when broadcasting: peers
    /// deduplicate the second broadcast as already-seen, so a transfer
    /// batch is silently swallowed. Caught by the join-liveness invariant
    /// (the transfer never completes and restrictions never converge).
    ReuseRbSeq,
    /// Disarm the weighted fast-path read check in `awr_storage`: a read
    /// returns after phase 1 off the max-tag repliers even when their
    /// cumulative weight is *not* a quorum, so a lone fresh replier can
    /// serve a value a concurrent write has not yet propagated to a
    /// quorum — a new/old inversion. Caught by the read-atomicity
    /// invariant.
    DisarmFastPathWeightCheck,
    /// Count the servers a quorum-targeted phase 2 sends `W` to as having
    /// acked it (the analogy the design invites: fresh fast-path repliers
    /// *are* pre-counted, because they already store the value — these do
    /// not yet): the first `W_A` completes a write that a single server
    /// stores, and a reader whose quorum misses that server returns the old
    /// value after the write's response. Caught by the read-atomicity
    /// invariant.
    CountPhase2TargetsAsAcked,
    /// Skip Algorithm 5's restart on a stale `C` (lines 14–16 and 30–32):
    /// a client counts a server's rejecting reply as an accept, so it
    /// judges quorums under weights the system has moved past and can read
    /// a value older than a completed write. Caught by the linearizability
    /// checker on a pinned 7-server schedule.
    SkipRestartOnStale,
    /// Skip Algorithm 4's register refresh before a weight gain (lines
    /// 8–9): a gaining server applies the change with whatever register it
    /// holds, so a quorum the gain makes possible can miss the last
    /// completed write. Caught by the linearizability checker on a pinned
    /// 7-server schedule.
    SkipRefreshOnGain,
    /// Name the client's `C` by its length alone to every server, not only
    /// to those proven to hold that very set: a server whose set differs
    /// but has the same length — two issuers' concurrent transfers reach
    /// servers in different orders — accepts an operation Algorithm 6
    /// rejects. Caught by the accept check on a pinned schedule where two
    /// servers hold different sets of one length.
    UnprovenLengthRef,
    /// Complete a read with the newest register a server sent whole — the
    /// `RV` target's — when the replies at the max tag answered tag
    /// queries only, instead of asking a max-tag replier for its value: a
    /// read can return a value older than a write that completed before
    /// it began. Caught by the linearizability checker on a pinned
    /// 3-server schedule where the `RV` target missed a completed write.
    StaleValueTarget,
}

thread_local! {
    static ARMED: Cell<Option<Mutation>> = const { Cell::new(None) };
}

/// Arms `m` on this thread (replacing any previously armed mutation).
pub fn arm(m: Mutation) {
    ARMED.with(|a| a.set(Some(m)));
}

/// Disarms all mutations on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// Is `m` armed on this thread?
pub fn armed(m: Mutation) -> bool {
    ARMED.with(|a| a.get()) == Some(m)
}

/// Runs `f` with `m` armed, disarming afterwards even on panic-free early
/// return paths.
pub fn with_mutation<R>(m: Mutation, f: impl FnOnce() -> R) -> R {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            disarm();
        }
    }
    let _guard = Disarm;
    arm(m);
    f()
}
