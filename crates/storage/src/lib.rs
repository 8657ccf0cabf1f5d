//! # awr-storage — dynamic-weighted atomic storage
//!
//! The case study of *“How Hard is Asynchronous Weight Reassignment?”*
//! (§VII): a multi-writer atomic register whose quorums are weighted and
//! whose weights are reassigned online by the restricted pairwise protocol —
//! plus a linearizability checker that makes Theorem 6 testable.
//!
//! The static baselines it is evaluated against (majority ABD, and weighted
//! ABD with fixed weights) are not a second implementation: they are the
//! same client and server under an [`awr_core::RpConfig`] that is never
//! reassigned — `RpConfig::uniform(n, f)` is MQS, `RpConfig::new(f, w)`
//! with no transfer issued is static WMQS (`tests/baselines.rs` pins the
//! identity and the §VII ordering).
//!
//! * [`DynClient`]/[`DynServer`] — Algorithms 5 & 6: change-set-referencing
//!   phases over the delta-negotiated wire of [`awr_types::sync`]
//!   (steady-state payloads O(1) in |C|; [`WireMode::ForceFull`] restores
//!   the paper-literal full sets on the ABD phases), stale-`C` rejection
//!   with client restart,
//!   and the Algorithm 4 register refresh on weight gain;
//! * [`StorageHarness`] — a wired world for experiments;
//! * [`OpLog`] — a client's completed operations, as compact records;
//! * [`check_linearizable`] — Wing&Gong-style atomicity checking with
//!   quiescent partitioning and memoization;
//! * [`workload`] — random closed-loop workload generators;
//! * [`placement`] — the [`PlacementDriver`] closing the
//!   observe→decide→reassign loop: it feeds the simulator's per-link
//!   metrics to an `awr_quorum` [`awr_quorum::PlacementPolicy`], validates
//!   the proposal, and issues the planned transfers through the restricted
//!   protocol (decision telemetry lands in a [`DecisionLog`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod dynamic;
mod harness;
mod history;
mod lin;
pub mod openloop;
pub mod oplog;
pub mod placement;
mod wire;
pub mod workload;

pub use durable::{
    CheckpointCadence, FileStorage, MemStorage, Recovered, Snapshot, Storage, StorageHandle,
    WalRecord, WAL_FILE,
};
pub use dynamic::{
    reg_tag_digest, DynClient, DynCompletedOp, DynMsg, DynOpDriver, DynOptions, DynServer, Fanout,
    ReadMode, RefreshHave, RetryPolicy, WireMode,
};
pub use harness::StorageHarness;
pub use history::{HistOp, History, OpKind};
pub use lin::{check_linearizable, check_linearizable_keyed, KeyedLinError, LinError};
pub use openloop::{OpenLoopClient, OpenLoopHarness, OpenLoopSpec, OpenLoopStats};
pub use oplog::OpLog;
pub use placement::{DecisionLog, PlacementDriver, PolicyDecision};

/// Values stored in registers. A register value crosses sockets and the
/// WAL, so it has a [`Wire`](awr_types::wire::Wire) layout.
pub trait Value:
    Clone + Eq + std::hash::Hash + std::fmt::Debug + Send + awr_types::wire::Wire + 'static
{
}
impl<T> Value for T where
    T: Clone + Eq + std::hash::Hash + std::fmt::Debug + Send + awr_types::wire::Wire + 'static
{
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use awr_core::{audit_transfers, RpConfig};
    use awr_sim::UniformLatency;
    use awr_types::{Ratio, ServerId};

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    fn harness(seed: u64) -> StorageHarness<u64> {
        StorageHarness::build(
            RpConfig::uniform(7, 2),
            3,
            seed,
            UniformLatency::new(1_000, 60_000),
            DynOptions::default(),
        )
    }

    #[test]
    fn write_then_read() {
        let mut h = harness(1);
        h.write(0, 42).unwrap();
        let (v, _) = h.read(1).unwrap();
        assert_eq!(v, Some(42));
    }

    #[test]
    fn read_before_write_is_none() {
        let mut h = harness(2);
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, None);
    }

    #[test]
    fn storage_survives_transfers_mid_stream() {
        let mut h = harness(3);
        h.write(0, 1).unwrap();
        // Shift weight so {s1, s2, s3} becomes a quorum.
        for (from, to) in [(3, 0), (4, 1), (5, 2)] {
            let out = h
                .transfer_and_wait(s(from), s(to), Ratio::dec("0.25"))
                .unwrap();
            assert!(out.is_effective());
        }
        h.write(1, 2).unwrap();
        let (v, _) = h.read(2).unwrap();
        assert_eq!(v, Some(2));
        // The audit certifies RP-Integrity throughout.
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn storage_survives_f_crashes_after_reassignment() {
        let mut h = harness(4);
        h.write(0, 10).unwrap();
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.25")).unwrap();
        h.crash_server(s(5));
        h.crash_server(s(6));
        h.write(1, 20).unwrap();
        let (v, _) = h.read(2).unwrap();
        assert_eq!(v, Some(20));
    }

    #[test]
    fn interleaved_ops_and_transfers_linearizable() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..5 {
            let mut h = harness(100 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next_val = 1u64;
            for round in 0..15 {
                for k in 0..3 {
                    if !h.client_busy(k) && rng.random_range(0..10) < 6 {
                        if rng.random_range(0..2) == 0 {
                            h.begin_async(k, Some(next_val));
                            next_val += 1;
                        } else {
                            h.begin_async(k, None);
                        }
                    }
                }
                if round % 3 == 0 {
                    let from = s(rng.random_range(0..7));
                    let to = s(rng.random_range(0..7));
                    if from != to {
                        let _ = h.transfer_async(from, to, Ratio::dec("0.05"));
                    }
                }
                h.world.run_for(150_000);
            }
            h.settle();
            let hist = h.history();
            assert!(hist.len() >= 10, "seed {seed}: history too small");
            check_linearizable(&hist).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let report = audit_transfers(h.config(), &h.all_completed_transfers());
            assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn minority_quorum_weight_after_reassignment() {
        // After concentrating weight on {s1,s2,s3}, those three alone carry
        // a quorum by weight.
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            2,
            5,
            UniformLatency::new(1_000, 30_000),
            DynOptions::default(),
        );
        h.write(0, 7).unwrap();
        for (from, to) in [(3, 0), (4, 1), (5, 2)] {
            h.transfer_and_wait(s(from), s(to), Ratio::dec("0.25"))
                .unwrap();
        }
        h.settle();
        let server_changes = h
            .world
            .actor::<DynServer<u64>>(h.server_actor(s(0)))
            .unwrap()
            .changes()
            .clone();
        let weights = server_changes.weights(7);
        let fast: Ratio = [s(0), s(1), s(2)].iter().map(|x| weights.weight(*x)).sum();
        assert!(fast > Ratio::dec("3.5"), "minority quorum should suffice");
    }

    #[test]
    fn restarts_happen_when_client_is_stale() {
        let mut h = harness(6);
        h.write(0, 1).unwrap();
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.25")).unwrap();
        h.settle();
        // Client 1 never operated: its C is stale → first op restarts.
        let (v, op) = h.read(1).unwrap();
        assert_eq!(v, Some(1));
        assert!(op.restarts > 0, "expected a stale-C restart");
    }

    #[test]
    fn writer_conflict_resolved_by_tags() {
        let mut h = harness(8);
        h.begin_async(0, Some(100));
        h.begin_async(1, Some(200));
        h.settle();
        let (v1, _) = h.read(2).unwrap();
        let (v2, _) = h.read(2).unwrap();
        assert!(v1 == Some(100) || v1 == Some(200));
        assert_eq!(v1, v2, "reads after quiescence must agree");
        check_linearizable(&h.history()).unwrap();
    }

    #[test]
    fn a_gaining_server_refreshes_first() {
        let mut h = harness(9);
        h.write(0, 5).unwrap();
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.2")).unwrap();
        h.settle();
        let srv = h
            .world
            .actor::<DynServer<u64>>(h.server_actor(s(0)))
            .unwrap();
        assert!(srv.refreshes >= 1, "the gaining server must refresh");
        assert_eq!(srv.weight(), Ratio::dec("1.2"));
    }
}

#[cfg(test)]
mod cadence_tests {
    use crate::CheckpointCadence;

    #[test]
    fn due_is_threshold_with_floor_of_one() {
        let c = CheckpointCadence::new(0, 0);
        assert!(!c.due(0));
        assert!(c.due(1), "every=0 clamps to 1, not to never");
        let c = CheckpointCadence::new(5, 2);
        assert!(!c.due(4));
        assert!(c.due(5) && c.due(50));
    }

    #[test]
    fn retain_floors_at_min() {
        let c = CheckpointCadence::new(8, 6);
        assert_eq!(c.retain(0), 6);
        assert_eq!(c.retain(6), 6);
        assert_eq!(c.retain(7), 7);
    }

    #[test]
    fn default_is_sane() {
        let c = CheckpointCadence::default();
        assert!(c.every > c.min_retain);
        assert!(c.due(c.every));
    }
}
