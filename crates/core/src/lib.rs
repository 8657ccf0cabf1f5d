//! # awr-core — asynchronous weight reassignment (the paper's contribution)
//!
//! Implements the complete technical content of *“How Hard is Asynchronous
//! Weight Reassignment?”* (Heydari, Silvestre, Bessani — ICDCS 2023):
//!
//! * **Problem definitions** ([`problem`]) — the weight reassignment,
//!   pairwise, and restricted pairwise problems (Definitions 3–5) with the
//!   validated [`RpConfig`] deployment parameters.
//! * **Impossibility, operationally** ([`reduction`], [`naive`]) —
//!   Algorithms 1 and 2 run against linearizable oracles ([`WrOracle`],
//!   [`PwOracle`]) and solve consensus (Theorems 1–2); the naive
//!   asynchronous implementation demonstrably violates Integrity under
//!   concurrency.
//! * **The implementable protocol** ([`restricted`]) — Algorithms 3 and 4:
//!   `read_changes` with write-back, and `transfer` with the local C2 check
//!   plus reliable broadcast (Theorems 4–5).
//! * **Auditing** ([`audit_transfers`]) — executable RP-Integrity,
//!   P-Integrity, C1, conservation, and Validity checks over recorded
//!   executions.
//!
//! # Quick tour
//!
//! ```
//! use awr_core::{audit_transfers, RpConfig, RpHarness};
//! use awr_sim::UniformLatency;
//! use awr_types::{Ratio, ServerId};
//!
//! // Fig. 1's system: seven servers, f = 2, uniform weight 1.
//! let cfg = RpConfig::uniform(7, 2);
//! let mut h = RpHarness::build(cfg.clone(), 1, 1, UniformLatency::new(1_000, 60_000));
//!
//! // s4, s5, s6 each donate 0.25 to s1, s2, s3.
//! for (from, to) in [(3, 0), (4, 1), (5, 2)] {
//!     let out = h
//!         .transfer_and_wait(ServerId(from), ServerId(to), Ratio::dec("0.25"))
//!         .unwrap();
//!     assert!(out.is_effective());
//! }
//!
//! // The audit replays the execution and certifies every safety property.
//! let report = audit_transfers(&cfg, &h.all_completed());
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod naive;
pub mod oracle;
pub mod problem;
pub mod reduction;
pub mod restricted;
mod swmr;

pub use audit::{audit_transfers, check_validity_ii, AuditReport, Violation};
pub use oracle::{PwOracle, WrOracle};
pub use problem::{RpConfig, TransferError, TransferOutcome};
pub use restricted::{
    ReadChangesClient, ReadChangesResult, RpClient, RpHarness, RpServer, TransferCore,
    TransferStart, WrMsg,
};
pub use swmr::SwmrArray;

/// The reliable-broadcast envelope inside [`restricted::WrMsg::Rb`],
/// re-exported so that a crate naming every field of a `WrMsg` (the wire
/// codec in `awr_net`) needs no dependency on `awr_rb` itself.
pub use awr_rb::RbEnvelope;

// Re-exported for downstream convenience (auditor signatures use sim time).
pub use awr_sim::Time;

#[cfg(test)]
mod protocol_tests {
    use super::*;
    use awr_sim::{five_region_wan, ActorId, UniformLatency};
    use awr_types::{Ratio, ServerId};

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    fn harness(n: usize, f: usize, seed: u64) -> RpHarness {
        RpHarness::build(
            RpConfig::uniform(n, f),
            2,
            seed,
            UniformLatency::new(1_000, 80_000),
        )
    }

    #[test]
    fn effective_transfer_reaches_all_servers() {
        let mut h = harness(7, 2, 1);
        let out = h.transfer_and_wait(s(3), s(0), Ratio::dec("0.25")).unwrap();
        assert!(out.is_effective());
        h.settle();
        for i in 0..7 {
            let w = h.weights_seen_by(s(i));
            assert_eq!(w.weight(s(0)), Ratio::dec("1.25"), "server {i}");
            assert_eq!(w.weight(s(3)), Ratio::dec("0.75"), "server {i}");
        }
    }

    #[test]
    fn null_transfer_changes_nothing() {
        let mut h = harness(7, 2, 2);
        // 0.4 > 1 − 0.7 = 0.3 → must abort.
        let out = h.transfer_and_wait(s(3), s(0), Ratio::dec("0.4")).unwrap();
        assert!(!out.is_effective());
        h.settle();
        for i in 0..7 {
            assert_eq!(h.weights_seen_by(s(i)).weight(s(3)), Ratio::ONE);
        }
        // Null outcomes are not broadcast: no T messages at all.
        assert_eq!(h.world.metrics().sent_of_kind("T"), 0);
    }

    #[test]
    fn boundary_exactly_at_floor_aborts() {
        let mut h = harness(7, 2, 3);
        // weight 1, floor 0.7: Δ = 0.3 needs 1 > 1.0 → false → null.
        let out = h.transfer_and_wait(s(3), s(0), Ratio::dec("0.3")).unwrap();
        assert!(!out.is_effective());
        // Δ = 0.29 passes.
        let out = h.transfer_and_wait(s(3), s(0), Ratio::dec("0.29")).unwrap();
        assert!(out.is_effective());
    }

    #[test]
    fn read_changes_sees_completed_transfer() {
        let mut h = harness(7, 2, 4);
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.25")).unwrap();
        let rc = h.read_changes(0, s(0)).unwrap();
        assert_eq!(rc.weight(), Ratio::dec("1.25"));
        // Definition 2: the response contains the credit change.
        assert!(rc
            .changes
            .iter()
            .any(|c| c.issuer == s(3).into() && c.counter == 2 && c.target == s(0)));
    }

    #[test]
    fn transfers_survive_f_crashes() {
        for seed in 0..10 {
            let mut h = harness(7, 2, seed);
            h.crash_server(s(5));
            h.crash_server(s(6));
            let out = h
                .transfer_and_wait(s(3), s(0), Ratio::dec("0.2"))
                .expect("liveness with f crashes");
            assert!(out.is_effective());
            let rc = h.read_changes(0, s(0)).expect("read_changes liveness");
            assert_eq!(rc.weight(), Ratio::dec("1.2"), "seed {seed}");
        }
    }

    #[test]
    fn audit_clean_over_random_workload() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = harness(7, 2, seed);
            for _ in 0..30 {
                let from = s(rng.random_range(0..7));
                let to = s(rng.random_range(0..7));
                if from == to {
                    continue;
                }
                let delta = Ratio::new(rng.random_range(1..=4i128), 20); // 0.05..0.2
                let _ = h.transfer_and_wait(from, to, delta);
            }
            let report = audit_transfers(h.config(), &h.all_completed());
            assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn sequentiality_enforced() {
        let mut h = harness(7, 2, 9);
        h.transfer_async(s(3), s(0), Ratio::dec("0.1")).unwrap();
        // Second invocation while the first is pending must be rejected.
        let err = h.transfer_async(s(3), s(1), Ratio::dec("0.1")).unwrap_err();
        assert_eq!(err, TransferError::Busy);
        h.settle();
        // After completion it works again.
        let out = h.transfer_and_wait(s(3), s(1), Ratio::dec("0.1")).unwrap();
        assert!(out.is_effective());
    }

    #[test]
    fn concurrent_transfers_from_distinct_servers_all_complete() {
        for seed in 0..10 {
            let mut h = harness(7, 2, 100 + seed);
            h.transfer_async(s(3), s(0), Ratio::dec("0.2")).unwrap();
            h.transfer_async(s(4), s(1), Ratio::dec("0.2")).unwrap();
            h.transfer_async(s(5), s(2), Ratio::dec("0.2")).unwrap();
            h.settle();
            let report = audit_transfers(h.config(), &h.all_completed());
            assert!(report.is_clean(), "seed {seed}");
            assert_eq!(report.effective, 3, "seed {seed}");
            let w = h.weights_seen_by(s(0));
            assert_eq!(w.weight(s(0)), Ratio::dec("1.2"));
            assert_eq!(w.total(), Ratio::integer(7));
        }
    }

    #[test]
    fn validity_ii_across_sequential_reads() {
        let mut h = harness(7, 2, 11);
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.1")).unwrap();
        let r1 = h.read_changes(0, s(0)).unwrap();
        h.transfer_and_wait(s(4), s(0), Ratio::dec("0.1")).unwrap();
        let r2 = h.read_changes(1, s(0)).unwrap();
        assert!(check_validity_ii(&r1, &r2).is_none());
        assert!(r2.weight() > r1.weight());
    }

    /// Algorithm 3's write-back (lines 7–8) is what makes Validity-II hold.
    /// An origin crashes mid-broadcast, so one server alone holds the
    /// change pair. A "weak read" (the union of f + 1 replies, no
    /// write-back) that touches that server returns the change; a later
    /// weak read that misses the server does not contain it — on every
    /// seed. The real `read_changes` stores what it returns at n − f
    /// servers, so every later read, however weak, contains it.
    #[test]
    fn validity_ii_needs_the_write_back() {
        use awr_sim::{TargetedDelay, Time, SECOND};
        use awr_types::ChangeSet;
        let weak = |h: &RpHarness, ids: [u32; 3]| -> ChangeSet {
            ids.iter().fold(ChangeSet::new(), |acc, &i| {
                acc.union(&h.server_changes(s(i)).restricted_to(s(0)))
            })
        };
        for seed in 0..10 {
            // Hold every server→server message out of s4 (the origin) and
            // s1 (its sole recipient), except s4→s1 itself. Client links
            // stay open.
            let is_srv = |a: ActorId| a.index() < 7;
            let held = move |f: ActorId, t: ActorId| {
                (f == ActorId(3) && is_srv(t) && t != ActorId(0) && t != ActorId(3))
                    || (f == ActorId(0) && is_srv(t) && t != ActorId(0))
            };
            let latency =
                TargetedDelay::new(UniformLatency::new(1_000, 10_000), held, Time(600 * SECOND));
            let mut h = RpHarness::build(RpConfig::uniform(7, 2), 2, seed, latency);
            // s4 starts transfer(s4, s1, 0.2); only s1 ever hears it; s4
            // crashes.
            h.transfer_async(s(3), s(0), Ratio::dec("0.2")).unwrap();
            h.world.run_for(50_000_000);
            h.world.crash_now(ActorId(3));
            // A weak read over {s1, s2, s3} sees the stranded pair; one
            // over {s5, s6, s7} misses it: Validity-II fails.
            let r1 = weak(&h, [0, 1, 2]);
            let r2 = weak(&h, [4, 5, 6]);
            assert!(
                !r2.contains_all(&r1),
                "seed {seed}: weak reads kept Validity-II"
            );
            // The real read need not return the stranded pair (that
            // transfer never completed), but whatever it returns, every
            // later weak read contains.
            let real = h.read_changes(0, s(0)).expect("read_changes");
            assert!(
                weak(&h, [4, 5, 6]).contains_all(&real.changes),
                "seed {seed}: the write-back must store the returned set at n − f servers"
            );
        }
    }

    #[test]
    fn invalid_arguments_rejected() {
        let mut h = harness(7, 2, 12);
        assert!(matches!(
            h.transfer_async(s(0), s(0), Ratio::dec("0.1")),
            Err(TransferError::InvalidArguments { .. })
        ));
        assert!(matches!(
            h.transfer_async(s(0), s(1), Ratio::dec("-0.1")),
            Err(TransferError::InvalidArguments { .. })
        ));
        assert!(matches!(
            h.transfer_async(s(0), ServerId(99), Ratio::dec("0.1")),
            Err(TransferError::InvalidArguments { .. })
        ));
    }

    #[test]
    fn message_complexity_is_quadratic_in_n() {
        // One effective transfer costs O(n²) messages (eager-relay RB)
        // plus an ack from each of the n − 1 others.
        let mut h = harness(7, 2, 13);
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.1")).unwrap();
        h.settle();
        let m = h.world.metrics();
        // RB: origin sends 6, each of 6 receivers relays ≤ 5 → ≤ 36.
        assert!(m.sent_of_kind("T") >= 6);
        assert!(m.sent_of_kind("T") <= 36);
        assert_eq!(m.sent_of_kind("T_Ack"), 6);

        // Ten transfers among s1..s(n−1), each followed by a read_changes,
        // on the five-region WAN: every transfer costs the eager relay's
        // (n−1)² `T` plus n − 1 `T_Ack`, and every read_changes one
        // message of each of its four kinds per server. Latency stays near
        // two one-way delays whatever n is.
        let mut pinned = Vec::new();
        for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (19, 6), (25, 8)] {
            let mut h =
                RpHarness::build(RpConfig::uniform(n, f), 1, 42, five_region_wan(n + 1, 0.1));
            let (mut transfer_ms, mut read_ms) = (Vec::new(), Vec::new());
            for round in 0..10 {
                let (from, to) = (s(round % (n as u32 - 1)), s((round + 1) % (n as u32 - 1)));
                let t0 = h.world.now();
                h.transfer_and_wait(from, to, Ratio::new(1, 50)).unwrap();
                transfer_ms.push((h.world.now() - t0) as f64 / 1e6);
                let t0 = h.world.now();
                h.read_changes(0, to).unwrap();
                read_ms.push((h.world.now() - t0) as f64 / 1e6);
            }
            h.settle();
            let m = h.world.metrics();
            assert_eq!(m.sent_of_kind("T"), 10 * (n as u64 - 1).pow(2), "n = {n}");
            assert_eq!(m.sent_of_kind("T_Ack"), 10 * (n as u64 - 1), "n = {n}");
            for kind in ["RC", "RC_Ack", "WC", "WC_Ack"] {
                assert_eq!(m.sent_of_kind(kind), 10 * n as u64, "n = {n}, {kind}");
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
            pinned.push(format!(
                "n={n} {:.2} {:.2} {:.2} {:.2}",
                mean(&transfer_ms),
                max(&transfer_ms),
                mean(&read_ms),
                max(&read_ms)
            ));
        }
        // Mean and max transfer latency, then read_changes (virtual ms).
        assert_eq!(
            pinned,
            [
                "n=4 158.85 196.35 458.89 492.95",
                "n=7 175.60 253.02 310.63 315.05",
                "n=10 201.57 258.44 220.39 230.17",
                "n=13 187.06 248.49 353.41 364.30",
                "n=19 204.15 249.21 365.16 378.03",
                "n=25 204.86 247.38 220.66 226.45",
            ]
        );
    }

    /// Algorithm 3 on the wire: each call sends one ⟨RC⟩, ⟨RC_Ack⟩, ⟨WC⟩
    /// and ⟨WC_Ack⟩ per server, and every ⟨RC_Ack⟩ carries the replier's
    /// whole restriction — a second read of the same target included.
    #[test]
    fn read_changes_ships_whole_restrictions() {
        use awr_sim::Message;
        let (n, target) = (7, s(0));
        let mut h = harness(n, 2, 21);
        h.transfer_and_wait(s(3), target, Ratio::dec("0.1"))
            .unwrap();
        h.settle();
        let first = h.read_changes(0, target).unwrap();
        let second = h.read_changes(0, target).unwrap();
        h.settle();
        assert_eq!(first.changes, second.changes);
        assert_eq!(
            first.changes,
            h.server_changes(target).restricted_to(target)
        );
        let m = h.world.metrics();
        for kind in ["RC", "RC_Ack", "WC", "WC_Ack"] {
            assert_eq!(m.sent_of_kind(kind), 2 * n as u64, "{kind}");
        }
        let kinds: Vec<&str> = m.sent_by_kind.keys().collect();
        assert_eq!(kinds, ["RC", "RC_Ack", "T", "T_Ack", "WC", "WC_Ack"]);
        let replies: u64 = (0..2)
            .flat_map(|op| (0..n as u32).map(move |i| (op, s(i))))
            .map(|(op, i)| {
                let changes = h.server_changes(i).restricted_to(target);
                WrMsg::RcAck { op, changes }.wire_size() as u64
            })
            .sum();
        assert_eq!(m.bytes_of_kind("RC_Ack"), replies);
    }

    #[test]
    fn client_read_changes_on_quiet_system() {
        let mut h = harness(4, 1, 14);
        let rc = h.read_changes(0, s(2)).unwrap();
        assert_eq!(rc.weight(), Ratio::ONE);
        assert_eq!(rc.changes.len(), 1); // just the initial change
    }

    #[test]
    fn crashed_reader_never_completes_but_system_lives() {
        let mut h = harness(7, 2, 15);
        let client = h.client_actor(0);
        h.world.with_actor_ctx::<RpClient, _>(client, |c, ctx| {
            c.read_changes(s(0), ctx).unwrap();
        });
        h.world.crash_now(client);
        h.settle();
        // The system is unaffected; a transfer still completes.
        let out = h.transfer_and_wait(s(3), s(0), Ratio::dec("0.1")).unwrap();
        assert!(out.is_effective());
    }

    #[test]
    fn queued_transfers_batch_into_one_envelope() {
        let mut h = harness(7, 2, 17);
        // The first request starts immediately; the next two queue behind
        // it and drain as ONE batched ⟨T⟩ envelope when it completes.
        h.transfer_queued(s(3), s(0), Ratio::dec("0.05")).unwrap();
        h.transfer_queued(s(3), s(1), Ratio::dec("0.05")).unwrap();
        h.transfer_queued(s(3), s(2), Ratio::dec("0.05")).unwrap();
        h.settle();
        let report = audit_transfers(h.config(), &h.all_completed());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.effective, 3);
        // Eager-relay RB costs exactly (n−1)² = 36 T messages per
        // broadcast instance: two instances (first + drained batch), not
        // three — the batching saved a full relay wave.
        assert_eq!(h.world.metrics().sent_of_kind("T"), 2 * 36);
        // Every server converged on all three credits.
        for i in 0..7 {
            let w = h.weights_seen_by(s(i));
            assert_eq!(w.weight(s(3)), Ratio::dec("0.85"), "server {i}");
            assert_eq!(w.total(), Ratio::integer(7), "server {i}");
        }
    }

    #[test]
    fn queued_null_transfers_complete_via_events() {
        let mut h = harness(7, 2, 18);
        h.transfer_queued(s(3), s(0), Ratio::dec("0.25")).unwrap();
        // At drain time the donor holds 0.75: 0.2 fails C2 (needs > 0.9),
        // 0.04 passes (needs > 0.74) — the null must still complete.
        h.transfer_queued(s(3), s(1), Ratio::dec("0.2")).unwrap();
        h.transfer_queued(s(3), s(2), Ratio::dec("0.04")).unwrap();
        h.settle();
        let all = h.all_completed();
        assert_eq!(all.len(), 3, "every queued request must complete");
        let report = audit_transfers(h.config(), &all);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.effective, 2);
        // The null outcome reached the host's completion log too.
        let logged = &h.world.actor::<RpServer>(ActorId(3)).unwrap().complete_log;
        assert_eq!(logged.len(), 3);
        assert_eq!(logged.iter().filter(|o| !o.is_effective()).count(), 1);
    }

    #[test]
    fn with_actor_ctx_effects_flow() {
        // Regression guard: effects from with_actor_ctx must enter the queue.
        let mut h = harness(4, 1, 16);
        h.transfer_async(s(1), s(0), Ratio::dec("0.1")).unwrap();
        assert!(h.world.metrics().sent_of_kind("T") > 0);
        let busy = h.world.actor::<RpServer>(ActorId(1)).unwrap().is_busy();
        assert!(busy);
        h.settle();
        assert!(!h.world.actor::<RpServer>(ActorId(1)).unwrap().is_busy());
    }
}
