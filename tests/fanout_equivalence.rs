//! Quorum-targeted phase 1, observed from outside: `Fanout::Quorum` must be
//! indistinguishable from the paper-literal `Fanout::All` except in the
//! phase-1 traffic it saves — and must not cost the liveness the paper's
//! fanout has.
//!
//! * **seed-pinned equivalence** — the same fixed invocation schedule, with
//!   reassignments in the middle of it, runs under both fanouts: identical
//!   completed operations, identical converged registers, both histories
//!   keyed-linearizable, strictly fewer `R`/`R_A` under `Quorum`, phase 2
//!   untouched, and not one widen on a healthy run;
//! * **a quorum member killed mid-phase** — with `retry: None`, the read
//!   whose targeted quorum loses a member completes through the measured
//!   widen deadline, and the next one asks around the suspect.
//!
//! The same kill over real threads and sockets is
//! `crates/net/tests/transport_loopback.rs`.

use awr::core::RpConfig;
use awr::sim::UniformLatency;
use awr::storage::{
    check_linearizable_keyed, DynClient, DynOptions, DynServer, Fanout, OpKind, StorageHarness,
};
use awr::types::{ObjectId, Ratio, ServerId};

const N: usize = 5;

/// A fixed invocation schedule both fanouts replay identically: rounds are
/// spaced so every op completes before the next begins, writes never
/// overlap each other (so the last write per key is schedule-determined),
/// and three transfers in the middle shrink the smallest quorum from three
/// servers to {s0, s1}.
fn drive(fanout: Fanout, seed: u64) -> StorageHarness<u64> {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(N, 1),
        2,
        seed,
        UniformLatency::new(1_000, 20_000),
        DynOptions {
            fanout,
            ..DynOptions::default()
        },
    );
    let mut val = 0u64;
    for round in 0..16u64 {
        assert!(
            !h.client_busy(0) && !h.client_busy(1),
            "round spacing must make invocations fanout-independent"
        );
        let obj = ObjectId(round % 3);
        let (writer, reader) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
        val += 1;
        h.begin_async_obj(writer, obj, Some(val));
        h.begin_async_obj(reader, ObjectId((round + 1) % 3), None);
        match round {
            4 => h.transfer_async(ServerId(3), ServerId(0), Ratio::dec("0.25")),
            5 => h.transfer_async(ServerId(4), ServerId(0), Ratio::dec("0.25")),
            6 => h.transfer_async(ServerId(2), ServerId(1), Ratio::dec("0.25")),
            _ => Ok(()),
        }
        .expect("transfer accepted at issue time");
        // Far longer than one op's worst case, restarts included.
        h.world.run_for(1_000_000);
    }
    h.settle();
    h
}

#[test]
fn quorum_fanout_is_observationally_equivalent_to_asking_everyone() {
    for seed in [0, 1, 7] {
        let quorum = drive(Fanout::Quorum, seed);
        let all = drive(Fanout::All, seed);

        // Same ops completed: identical (client, object, kind) stream,
        // identical written values. Read *values* may legitimately differ
        // where a read raced a write — linearizability is the contract.
        let shape = |h: &StorageHarness<u64>| {
            let mut v: Vec<(usize, ObjectId, Option<u64>)> = h
                .history()
                .ops
                .iter()
                .map(|o| match &o.kind {
                    OpKind::Write(v) => (o.client, o.obj, Some(*v)),
                    OpKind::Read(_) => (o.client, o.obj, None),
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            shape(&quorum),
            shape(&all),
            "seed {seed}: op stream diverged"
        );
        assert_eq!(shape(&all).len(), 32, "seed {seed}: every op completed");
        check_linearizable_keyed(&quorum.history())
            .unwrap_or_else(|e| panic!("seed {seed} quorum fanout: {e}"));
        check_linearizable_keyed(&all.history())
            .unwrap_or_else(|e| panic!("seed {seed} ask-all: {e}"));

        // Converged state is fanout-independent: phase 2 still reaches
        // every server, and the last write per key wins either way. (Its
        // *tag* may differ: a write restarted out of phase 2 by a racing
        // reassignment re-tags above its own first attempt, and where a
        // restart lands depends on who was asked.)
        let state = |h: &StorageHarness<u64>| {
            (0..N as u32)
                .map(|i| {
                    let srv = h
                        .world
                        .actor::<DynServer<u64>>(h.server_actor(ServerId(i)))
                        .unwrap();
                    let values: Vec<_> =
                        srv.registers().iter().map(|(o, r)| (*o, r.value)).collect();
                    (values, srv.weight())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(state(&quorum), state(&all), "seed {seed}: final state");
        assert_eq!(state(&all)[0].0.len(), 3, "seed {seed}: three keys written");

        // The saving lives in phase 1 …
        let (qm, am) = (quorum.world.metrics(), all.world.metrics());
        for kind in ["R", "R_A"] {
            assert!(
                qm.sent_of_kind(kind) < am.sent_of_kind(kind),
                "seed {seed}: targeted phase 1 must send fewer {kind} ({} vs {})",
                qm.sent_of_kind(kind),
                am.sent_of_kind(kind)
            );
        }
        // … where every phase after a client's first is targeted, at three
        // servers under the uniform map and two once weight has moved …
        assert!(qm.counter("phase1_targeted") >= 30, "seed {seed}");
        assert_eq!(
            qm.sample_count("phase1_fanout"),
            qm.counter("phase1_targeted")
        );
        let fanouts = qm.sample_hist("phase1_fanout").expect("samples");
        assert!(
            fanouts.keys().copied().eq([2, 3]),
            "seed {seed}: {fanouts:?}"
        );
        // … and nowhere else: a healthy run never widens or suspects, and
        // the paper-literal arm never targets.
        for key in ["phase1_widened", "server_suspected"] {
            assert_eq!(qm.counter(key), 0, "seed {seed}: {key}");
        }
        assert_eq!(am.counter("phase1_targeted"), 0, "seed {seed}");
        assert_eq!(am.timers_fired, 0, "seed {seed}: ask-all arms no timer");
    }
}

#[test]
fn a_quorum_member_killed_mid_phase_costs_one_widen_in_the_simulator() {
    let options = DynOptions::default();
    assert!(options.retry.is_none() && options.fanout == Fanout::Quorum);
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(3, 1),
        1,
        11,
        UniformLatency::new(1_000, 20_000),
        options,
    );
    h.write(0, 7).unwrap();
    assert_eq!(h.read(0).unwrap().0, Some(7));
    let before = h.world.metrics().clone();

    // The read's `R` is in flight to {s0, s1} when s1 dies.
    let client = h.client_actor(0);
    h.begin_async(0, None);
    h.crash_server(ServerId(1));
    h.world
        .run_until(|w| !w.actor::<DynClient<u64>>(client).unwrap().driver.is_busy());
    assert!(!h.client_busy(0), "the read completed with retry: None");
    let stalled = h.world.metrics().since(&before);
    assert_eq!(stalled.counter("phase1_widened"), 1);
    assert_eq!(stalled.counter("server_suspected"), 1);
    assert_eq!(
        stalled.sent_of_kind("R"),
        2 + 3,
        "the quorum, then everyone"
    );

    // The suspect is asked neither by the next read nor by the phase 1 of
    // the next write; its phase 2 still broadcasts.
    let before = h.world.metrics().clone();
    assert_eq!(h.read(0).unwrap().0, Some(7));
    h.write(0, 8).unwrap();
    assert_eq!(h.read(0).unwrap().0, Some(8));
    let after = h.world.metrics().since(&before);
    assert_eq!(after.counter("phase1_widened"), 0);
    assert_eq!(after.sent_of_kind("R"), 3 * 2);
    assert_eq!(after.sent_of_kind("W"), 3);
    check_linearizable_keyed(&h.history()).unwrap();
}
