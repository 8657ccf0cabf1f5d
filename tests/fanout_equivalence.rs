//! Quorum-targeted phases, observed from outside: `Fanout::Quorum` must be
//! indistinguishable from the paper-literal `Fanout::All` except in the
//! traffic it saves and in *which* servers store a write — and must not
//! cost the liveness the paper's fanout has.
//!
//! * **seed-pinned equivalence** — the same fixed invocation schedule, with
//!   reassignments in the middle of it, runs under both fanouts: identical
//!   completed operations, the same value per key readable through *every*
//!   weighted quorum of servers, both histories keyed-linearizable,
//!   strictly fewer phase-1 requests (`R` + `RV`) and fewer
//!   `R_A`/`W`/`W_A` under `Quorum`, and not one widen on a healthy run;
//! * **a quorum member killed mid-phase** — with `retry: None`, the
//!   operation whose targeted quorum loses a member (a read's in phase 1, a
//!   write's between its `R_A` and its `W`) completes through the measured
//!   widen deadline, which re-sends only what is still unanswered, and the
//!   next operation asks around the suspect;
//! * **suspicion lapses** — a suspect nobody asks never speaks, so it
//!   re-enters the quorum on a timer: a recovered server is targeted again
//!   within one lapse, a dead one costs logarithmically many deadlines.
//!
//! The same kills over real threads and sockets are in
//! `crates/net/tests/transport_loopback.rs`.

use awr::core::RpConfig;
use awr::sim::{ActorId, Metrics, UniformLatency};
use awr::storage::{
    check_linearizable_keyed, DynClient, DynOptions, DynServer, Fanout, OpKind, StorageHarness,
};
use awr::types::{ObjectId, Ratio, ServerId, TaggedValue};
use std::collections::BTreeMap;

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

        // Converged state: the weights agree server by server; the
        // registers agree *quorum by quorum*. Under `All` phase 2 reaches
        // every server, so all five hold the last write per key; under
        // `Quorum` a write lives on the quorum it was sent to, and what
        // must not depend on the fanout is the value a read returns —
        // the max-tag register of whichever weighted quorum it asks. (The
        // *tag* may differ: a write restarted out of phase 2 by a racing
        // reassignment re-tags above its own first attempt, and where a
        // restart lands depends on who was asked.)
        let servers = |h: &StorageHarness<u64>| -> Vec<(Ratio, BTreeMap<_, _>)> {
            (0..N as u32)
                .map(|i| {
                    let srv = h
                        .world
                        .actor::<DynServer<u64>>(h.server_actor(ServerId(i)))
                        .unwrap();
                    (srv.weight(), srv.registers().clone())
                })
                .collect()
        };
        let (qs, als) = (servers(&quorum), servers(&all));
        let weights = |s: &[(Ratio, BTreeMap<_, _>)]| s.iter().map(|x| x.0).collect::<Vec<_>>();
        assert_eq!(weights(&qs), weights(&als), "seed {seed}: final weights");
        let last_written: BTreeMap<ObjectId, Option<u64>> =
            als[0].1.iter().map(|(o, r)| (*o, r.value)).collect();
        assert_eq!(last_written.len(), 3, "seed {seed}: three keys written");
        let half = weights(&als).into_iter().sum::<Ratio>().half();
        let mut quorums = 0;
        for members in 1u32..1 << N {
            let inside = |i: &usize| members >> i & 1 == 1;
            if (0..N).filter(inside).map(|i| als[i].0).sum::<Ratio>() <= half {
                continue;
            }
            quorums += 1;
            for (runs, name) in [(&qs, "quorum fanout"), (&als, "ask-all")] {
                let read: BTreeMap<ObjectId, Option<u64>> = last_written
                    .keys()
                    .map(|obj| {
                        let newest = (0..N)
                            .filter(inside)
                            .filter_map(|i| runs[i].1.get(obj))
                            .max_by_key(|r| r.tag);
                        (*obj, newest.and_then(|r: &TaggedValue<u64>| r.value))
                    })
                    .collect();
                assert_eq!(
                    read, last_written,
                    "seed {seed}, {name}: a read through servers {members:#07b}"
                );
            }
        }
        // {s0, s1} hold 2.75 of 5 by now: the eight sets containing both,
        // and eight larger ones around one of them.
        assert_eq!(quorums, 16, "seed {seed}: weighted quorums");
        assert!(
            qs.iter().any(|(_, regs)| regs.len() < 3),
            "seed {seed}: some server outside the quorums never stored a key"
        );

        // The saving lives in both phases (phase 1 asks by `R` and `RV`) …
        let (qm, am) = (quorum.world.metrics(), all.world.metrics());
        for kinds in [&["R", "RV"][..], &["R_A"], &["W"], &["W_A"]] {
            let sent = |m: &Metrics| kinds.iter().map(|k| m.sent_of_kind(k)).sum::<u64>();
            assert!(
                sent(qm) < sent(am),
                "seed {seed}: targeted phases must send fewer {kinds:?} ({} vs {})",
                sent(qm),
                sent(am)
            );
        }
        // … where every attempt after a client's first is targeted, at
        // three servers under the uniform map and two once weight has
        // moved, and phase 2 goes where phase 1 went (a read that misses
        // the fast path writes back to fewer) …
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
        assert!(qm.counter("phase2_targeted") >= 14, "seed {seed}");
        assert_eq!(
            qm.sample_count("phase2_fanout"),
            qm.counter("phase2_targeted")
        );
        let fanouts = qm.sample_hist("phase2_fanout").expect("samples");
        assert!(
            fanouts.keys().all(|k| (1..=3).contains(k)) && fanouts.contains_key(&2),
            "seed {seed}: {fanouts:?}"
        );
        // … and nowhere else: a healthy run never widens or suspects, and
        // the paper-literal arm never targets.
        for key in [
            "phase1_widened",
            "phase2_widened",
            "server_suspected",
            "suspicion_lapsed",
        ] {
            assert_eq!(qm.counter(key), 0, "seed {seed}: {key}");
        }
        for key in ["phase1_targeted", "phase2_targeted"] {
            assert_eq!(am.counter(key), 0, "seed {seed}: {key}");
        }
        assert_eq!(am.timers_fired, 0, "seed {seed}: ask-all arms no timer");
    }
}

/// Three uniform servers behind one default-option client that has a write
/// of key 0 (sent to everyone: a client's first operation has no deadline
/// to widen on) and a read behind it, so that every later attempt is
/// targeted at {s0, s1}. Server-to-client latency is at most 20 µs, so the
/// measured widen deadline sits on its 5 ms floor.
fn warmed(durable: bool) -> StorageHarness<u64> {
    let options = DynOptions::default();
    assert!(options.retry.is_none() && options.fanout == Fanout::Quorum);
    let build = if durable {
        StorageHarness::build_durable
    } else {
        StorageHarness::build
    };
    let mut h = build(
        RpConfig::uniform(3, 1),
        1,
        11,
        UniformLatency::new(1_000, 20_000),
        options,
    );
    h.write(0, 7).unwrap();
    assert_eq!(h.read(0).unwrap().0, Some(7));
    h
}

const DEADLINE: u64 = 5_000_000;

fn run_until_idle(h: &mut StorageHarness<u64>) {
    let client = h.client_actor(0);
    h.world
        .run_until(|w| !w.actor::<DynClient<u64>>(client).unwrap().driver.is_busy());
    assert!(
        !h.client_busy(0),
        "the operation completed with retry: None"
    );
}

#[test]
fn a_quorum_member_killed_mid_phase_costs_one_widen_in_the_simulator() {
    let mut h = warmed(false);
    let before = h.world.metrics().clone();

    // The read's `RV` to s0 and `R` to s1 are in flight when s1 dies.
    h.begin_async(0, None);
    h.crash_server(ServerId(1));
    run_until_idle(&mut h);
    let stalled = h.world.metrics().since(&before);
    assert_eq!(stalled.counter("phase1_widened"), 1);
    assert_eq!(stalled.counter("server_suspected"), 1);
    assert_eq!(
        (stalled.sent_of_kind("R"), stalled.sent_of_kind("RV")),
        (1, 1 + 2),
        "the quorum, then every server whose register is not in"
    );

    // The suspect is asked by neither phase of what follows.
    let before = h.world.metrics().clone();
    assert_eq!(h.read(0).unwrap().0, Some(7));
    h.write(0, 8).unwrap();
    assert_eq!(h.read(0).unwrap().0, Some(8));
    let after = h.world.metrics().since(&before);
    assert_eq!(after.counter("phase1_widened"), 0);
    // Each read asks s0 for the register and s2 for its tag.
    assert_eq!((after.sent_of_kind("R"), after.sent_of_kind("RV")), (4, 2));
    assert_eq!(after.sent_of_kind("W"), 2);
    assert_eq!(after.msgs_on_link(h.client_actor(0), ActorId(1)), 0);
    check_linearizable_keyed(&h.history()).unwrap();
}

#[test]
fn a_quorum_member_killed_between_r_a_and_w_costs_one_widen_of_the_unacked() {
    let mut h = warmed(false);
    let before = h.world.metrics().clone();

    // The write's `W` is in flight to {s0, s1} when s1 dies.
    h.begin_async(0, Some(8));
    h.world
        .run_until(|w| w.metrics().sent_of_kind("W") > before.sent_of_kind("W"));
    h.crash_server(ServerId(1));
    run_until_idle(&mut h);
    let stalled = h.world.metrics().since(&before);
    assert_eq!(stalled.counter("phase2_targeted"), 1);
    assert_eq!(stalled.counter("phase2_widened"), 1);
    assert_eq!(stalled.counter("phase1_widened"), 0);
    assert_eq!(stalled.counter("server_suspected"), 1);
    assert_eq!(
        (stalled.sent_of_kind("R"), stalled.sent_of_kind("RV")),
        (2, 0)
    );
    assert_eq!(
        stalled.sent_of_kind("W"),
        2 + 2,
        "the quorum, then whoever has not acked: s0's ack is in already"
    );
    assert!(
        h.world.now().0 >= DEADLINE,
        "one deadline, spent in phase 2"
    );

    // Around the suspect from here on, in both phases.
    let before = h.world.metrics().clone();
    assert_eq!(h.read(0).unwrap().0, Some(8));
    h.write(0, 9).unwrap();
    let after = h.world.metrics().since(&before);
    assert_eq!(
        after.counter("phase1_widened") + after.counter("phase2_widened"),
        0
    );
    let asked = ["R", "RV", "W"].map(|k| after.sent_of_kind(k));
    assert_eq!(asked, [3, 1, 2]);
    assert_eq!(after.msgs_on_link(h.client_actor(0), ActorId(1)), 0);
    check_linearizable_keyed(&h.history()).unwrap();
}

#[test]
fn a_failover_costs_one_targeted_write_back_per_key() {
    const K: u64 = 12;
    let mut h = warmed(false);
    for key in 1..=K {
        h.write_obj(0, ObjectId(key), 100 + key).unwrap();
    }
    // Those K writes live on {s0, s1} alone …
    let s2 = h.world.actor::<DynServer<u64>>(ActorId(2)).unwrap();
    assert_eq!(s2.registers().len(), 1, "s2 stores the warm-up write only");
    // … so once s0 is gone each key's first read through {s1, s2} finds s2
    // stale and writes back to it alone, and every later read hits.
    h.crash_server(ServerId(0));
    let before = h.world.metrics().clone();
    for round in 0..3 {
        for key in 1..=K {
            assert_eq!(h.read_obj(0, ObjectId(key)).unwrap().0, Some(100 + key));
        }
        let m = h.world.metrics().since(&before);
        assert_eq!(m.counter("read_fastpath_miss"), K, "round {round}");
        assert_eq!(m.counter("read_fastpath_hit"), round * K, "round {round}");
    }
    let m = h.world.metrics().since(&before);
    assert_eq!(
        m.sample_hist("read_writeback_fanout"),
        Some(&[(1, K)].into())
    );
    assert_eq!(m.sent_of_kind("W"), K);
    assert_eq!(
        m.counter("phase1_widened"),
        1,
        "the first read found s0 dead"
    );
    check_linearizable_keyed(&h.history()).unwrap();
}

#[test]
fn a_recovered_server_is_targeted_again_within_one_lapse() {
    let mut h = warmed(true);
    let (client, s0) = (h.client_actor(0), ActorId(0));
    h.begin_async(0, None);
    h.crash_server(ServerId(0));
    run_until_idle(&mut h);
    // Back at once, and never asked: a suspect is cleared when it speaks,
    // and a server outside every quorum is sent nothing to answer.
    h.restart_server(ServerId(0));
    let suspected_at = h.world.now().0;
    let before = h.world.metrics().clone();
    while h.world.metrics().counter("suspicion_lapsed") == 0 {
        assert_eq!(h.read(0).unwrap().0, Some(7));
        h.world.run_for(100_000);
    }
    let around = h.world.metrics().since(&before);
    assert_eq!(around.msgs_on_link(client, s0), 0);
    // The first suspicion lapses after two deadlines; nothing else failed,
    // so the timer is the only way back.
    assert!(h.world.now().0 - suspected_at <= 2 * DEADLINE + 200_000);
    let before = h.world.metrics().clone();
    h.write(0, 8).unwrap();
    assert_eq!(h.read(0).unwrap().0, Some(8));
    let back = h.world.metrics().since(&before);
    assert_eq!(back.msgs_on_link(client, s0), 3, "R, W and R again");
    assert_eq!(back.msgs_on_link(client, ActorId(2)), 0);
    let m = h.world.metrics();
    assert_eq!(m.counter("phase1_widened"), 1);
    assert_eq!(m.counter("server_suspected"), 1);
    check_linearizable_keyed(&h.history()).unwrap();
}

#[test]
fn a_dead_quorum_member_costs_logarithmically_many_deadlines() {
    let mut h = warmed(false);
    h.crash_server(ServerId(0));
    // One read per 100 µs of virtual time. Each lapse lets s0 back into
    // the quorum for exactly one operation, which pays one deadline and
    // doubles the next lapse: 2, 4, 8, … deadlines apart.
    let mut widened_by = Vec::new();
    for reads in 1..=4_000u64 {
        assert_eq!(h.read(0).unwrap().0, Some(7));
        h.world.run_for(100_000);
        if reads.is_power_of_two() || reads == 4_000 {
            widened_by.push((reads, h.world.metrics().counter("phase1_widened")));
        }
    }
    let at = |n: u64| widened_by.iter().find(|(r, _)| *r == n).unwrap().1;
    assert_eq!(at(1), 1, "the first read pays");
    assert!(at(256) >= 3, "{widened_by:?}");
    // Some 0.45 s of virtual time, 90 deadlines: 2 + 4 + … + 32 = 62 of
    // lapse fit, with a deadline spent between each two.
    assert!((5..=7).contains(&at(4_000)), "{widened_by:?}");
    for w in widened_by.windows(2) {
        assert!(
            w[1].1 <= w[0].1 + 1,
            "doubling the run adds a widen at most: {widened_by:?}"
        );
    }
    let m = h.world.metrics();
    assert_eq!(m.counter("server_suspected"), m.counter("phase1_widened"));
    assert_eq!(
        m.counter("suspicion_lapsed"),
        m.counter("phase1_widened") - 1
    );
    check_linearizable_keyed(&h.history()).unwrap();
}
