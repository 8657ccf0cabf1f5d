//! The weighted fast-path read, observed from outside: `ReadMode::FastPath`
//! must be indistinguishable from the paper-literal `ReadMode::TwoPhase`
//! except in the wire traffic it saves.
//!
//! Three angles:
//!
//! * **seed-pinned equivalence** — the same fixed invocation schedule runs
//!   under both modes: identical completed writes, identical converged
//!   registers, both histories linearizable, and the byte deltas confined
//!   to the phase-2 kinds (`W`/`W_A` shrink, `R`/`R_A` do not move);
//! * **denial under a stale replier** — a read whose (targeted) phase-1
//!   quorum contains a server that missed the write must *not* fast-path (the
//!   max-tag weight fails the rule) and must write back to exactly that
//!   stale replier;
//! * **hot-key crash campaign** — a Zipf-skewed keyed workload over
//!   durable servers with crash/restart injections stays keyed-linearizable
//!   with the fast path on, and actually takes the fast path.

use awr::core::RpConfig;
use awr::sim::{ActorId, PendingKind, UniformLatency};
use awr::storage::workload::{
    run_keyed_workload, KeyDistribution, KeyedWorkloadSpec, WorkloadSpec,
};
use awr::storage::{
    check_linearizable_keyed, DynOptions, DynServer, OpKind, ReadMode, StorageHarness,
};
use awr::types::{ObjectId, Ratio, ServerId};

/// A fixed invocation schedule both modes replay identically: rounds are
/// spaced so every op completes before the next round begins under either
/// mode, making the invocation stream mode-independent even though the
/// fast path responds earlier.
fn drive(read: ReadMode, seed: u64) -> StorageHarness<u64> {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(5, 1),
        2,
        seed,
        UniformLatency::new(1_000, 20_000),
        DynOptions {
            read,
            ..DynOptions::default()
        },
    );
    let mut val = 0u64;
    for round in 0..12u64 {
        assert!(
            !h.client_busy(0) && !h.client_busy(1),
            "round spacing must make invocations mode-independent"
        );
        // Client 0 writes every third round, reads otherwise; client 1
        // does the opposite phase — so rounds mix read/read, read/write,
        // and write/write concurrency.
        if round % 3 == 0 {
            val += 1;
            h.begin_async_obj(0, ObjectId::DEFAULT, Some(val));
        } else {
            h.begin_async_obj(0, ObjectId::DEFAULT, None);
        }
        if round % 2 == 0 {
            h.begin_async_obj(1, ObjectId::DEFAULT, None);
        } else {
            val += 1;
            h.begin_async_obj(1, ObjectId::DEFAULT, Some(val));
        }
        // Far longer than one op's worst case (~8 hops × 20 µs).
        h.world.run_for(1_000_000);
    }
    h.settle();
    h
}

#[test]
fn fastpath_is_observationally_equivalent_to_twophase() {
    for seed in [0, 1, 7] {
        let fast = drive(ReadMode::FastPath, seed);
        let two = drive(ReadMode::TwoPhase, seed);

        // Same ops completed: identical (client, kind) stream per client,
        // identical written values. Read *values* may legitimately differ
        // where a read raced a write — linearizability is the contract.
        let shape = |h: &StorageHarness<u64>| {
            let mut v: Vec<(usize, bool, Option<u64>)> = h
                .history()
                .ops
                .iter()
                .map(|o| match &o.kind {
                    OpKind::Write(v) => (o.client, true, Some(*v)),
                    OpKind::Read(_) => (o.client, false, None),
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(shape(&fast), shape(&two), "seed {seed}: op stream diverged");
        check_linearizable_keyed(&fast.history())
            .unwrap_or_else(|e| panic!("seed {seed} fast-path: {e}"));
        check_linearizable_keyed(&two.history())
            .unwrap_or_else(|e| panic!("seed {seed} two-phase: {e}"));

        // Converged state is mode-independent: the last write wins either
        // way.
        let regs = |h: &StorageHarness<u64>| {
            (0..5u32)
                .map(|i| {
                    h.world
                        .actor::<DynServer<u64>>(h.server_actor(ServerId(i)))
                        .unwrap()
                        .register_of(ObjectId::DEFAULT)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(regs(&fast), regs(&two), "seed {seed}: final registers");

        // The byte delta lives exactly in phase 2. Phase 1 does not move:
        // same invocations, same `R` and `RV` broadcasts, same acks.
        let (fm, tm) = (fast.world.metrics(), two.world.metrics());
        for kind in ["R", "RV"] {
            assert_eq!(fm.sent_of_kind(kind), tm.sent_of_kind(kind), "seed {seed}");
            assert_eq!(
                fm.bytes_of_kind(kind),
                tm.bytes_of_kind(kind),
                "seed {seed}"
            );
        }
        assert_eq!(
            fm.sent_of_kind("R_A"),
            tm.sent_of_kind("R_A"),
            "seed {seed}"
        );
        let reads = fast
            .history()
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Read(_)))
            .count() as u64;
        let hits = fm.counter("read_fastpath_hit");
        let misses = fm.counter("read_fastpath_miss");
        assert_eq!(hits + misses, reads, "seed {seed}: every read classified");
        assert!(hits > 0, "seed {seed}: settled reads must fast-path");
        assert_eq!(tm.counter("read_fastpath_hit"), 0, "seed {seed}");
        assert_eq!(tm.counter("read_fastpath_miss"), 0, "seed {seed}");
        assert_eq!(
            fm.sample_count("read_writeback_fanout"),
            misses,
            "seed {seed}: one fanout sample per non-fast read"
        );
        // Each hit saves a full 5-server write-back round trip; misses
        // save whatever was fresh. Strict inequality once any hit landed.
        assert!(
            fm.sent_of_kind("W") < tm.sent_of_kind("W"),
            "seed {seed}: fast path must send fewer W ({} vs {})",
            fm.sent_of_kind("W"),
            tm.sent_of_kind("W")
        );
        assert!(
            fm.bytes_of_kind("W") < tm.bytes_of_kind("W"),
            "seed {seed}: fast path must send fewer W bytes"
        );
        assert!(
            fm.sent_of_kind("W_A") < tm.sent_of_kind("W_A"),
            "seed {seed}: fewer W deliveries, fewer acks"
        );
    }
}

/// Steps pending events in time order — skipping deliveries that match
/// `withhold` — until `until` holds. Panics on a stall.
fn step_until(
    h: &mut StorageHarness<u64>,
    withhold: impl Fn(ActorId, &str) -> bool,
    mut until: impl FnMut(&StorageHarness<u64>) -> bool,
) {
    loop {
        if until(h) {
            return;
        }
        let next = h.world.pending_events().into_iter().find(
            |e| !matches!(e.kind, PendingKind::Deliver { to, kind, .. } if withhold(to, kind)),
        );
        match next {
            Some(e) => {
                h.world.step_seq(e.seq);
            }
            None => panic!("stepping stalled before reaching the target state"),
        }
    }
}

#[test]
fn fastpath_denied_when_a_quorum_replier_is_stale() {
    // Regression for the rule itself: complete a write through {s0, s2}
    // while s1 never hears its `W`, then let the read's phase-1 quorum be
    // {s1, s0} — which is also the quorum a targeted phase 1 asks (heaviest
    // first, ties by id), so the stale server is inside it under either
    // fanout. The max tag's weight (s0 alone, 1 of 3) fails the strict
    // majority rule, so the read must take the two-phase route — and its
    // write-back must go to exactly the stale s1.
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(3, 1),
        1,
        0,
        UniformLatency::new(1_000, 1_000),
        DynOptions::default(),
    );
    let stale = h.server_actor(ServerId(1));
    h.begin_async_obj(0, ObjectId::DEFAULT, Some(7));
    step_until(&mut h, |to, _| to == stale, |h| !h.history().is_empty());
    // Flush the stale server's harmless leftovers (the completed write's
    // phase-1 `R` and its stale ack) but keep its `W` withheld: it stays
    // at bottom.
    step_until(
        &mut h,
        |to, kind| to == stale && kind == "W",
        |h| {
            h.world.pending_events().iter().all(
                |e| matches!(e.kind, PendingKind::Deliver { to, kind, .. } if to == stale && kind == "W"),
            )
        },
    );

    h.begin_async_obj(0, ObjectId::DEFAULT, None);
    // Quorum order s1 first, then s0: deliver the read's tag query to s1
    // and its bottom ack, then its `RV` to s0 (the first target, asked for
    // the register) and the ack — quorum reached with a split register
    // view.
    for server in [stale, h.server_actor(ServerId(0))] {
        let r = h
            .world
            .pending_events()
            .into_iter()
            .find(|e| {
                matches!(e.kind, PendingKind::Deliver { to, kind: "R" | "RV", .. }
                if to == server)
            })
            .expect("read's phase-1 request pending");
        h.world.step_seq(r.seq);
        let ack = h
            .world
            .pending_events()
            .into_iter()
            .find(|e| {
                matches!(e.kind, PendingKind::Deliver { from, kind, .. }
                if from == server && kind == "R_A")
            })
            .expect("server's R_A pending");
        h.world.step_seq(ack.seq);
    }
    let m = h.world.metrics();
    assert_eq!(
        m.counter("read_fastpath_hit"),
        0,
        "stale quorum fast-pathed"
    );
    assert_eq!(m.counter("read_fastpath_miss"), 1);
    let fanout = m
        .sample_hist("read_writeback_fanout")
        .expect("miss records its fanout");
    assert_eq!(
        fanout.get(&1).copied(),
        Some(1),
        "write-back must target exactly the one stale replier: {fanout:?}"
    );

    // Drain through the explorer seam: `step_seq` delivers the withheld
    // (now virtually "late") events without the in-order stepper's
    // time-monotonicity assertion.
    while let Some(e) = h.world.pending_events().into_iter().next() {
        h.world.step_seq(e.seq);
    }
    let read = h
        .history()
        .ops
        .iter()
        .find(|o| matches!(o.kind, OpKind::Read(_)))
        .cloned()
        .expect("read completed");
    assert_eq!(
        read.kind,
        OpKind::Read(Some(7)),
        "write-back read the value"
    );
    // One full-fanout write round (3) plus the single targeted write-back.
    assert_eq!(h.world.metrics().sent_of_kind("W"), 4);
}

#[test]
fn hot_key_crash_campaign_stays_keyed_linearizable() {
    // Zipf-hot keys, durable servers, a crash/restart between every
    // workload burst: the fast path must neither break per-key atomicity
    // nor stop firing.
    let mut h: StorageHarness<u64> = StorageHarness::build_durable(
        RpConfig::uniform(5, 1),
        3,
        42,
        UniformLatency::new(1_000, 40_000),
        DynOptions::default(),
    );
    let spec = KeyedWorkloadSpec {
        base: WorkloadSpec {
            rounds: 10,
            transfer_percent: 20,
            transfer_delta: Ratio::dec("0.05"),
            ..WorkloadSpec::default()
        },
        n_objects: 8,
        dist: KeyDistribution::Zipfian { exponent: 1.2 },
    };
    for (burst, victim) in [(0u64, ServerId(0)), (1, ServerId(3)), (2, ServerId(1))] {
        run_keyed_workload(&mut h, 3, &spec, 42 + burst);
        h.crash_server(victim);
        run_keyed_workload(&mut h, 3, &spec, 142 + burst);
        h.restart_server(victim);
        h.settle();
    }
    let hist = h.history();
    assert!(hist.len() > 50, "campaign too small to mean anything");
    check_linearizable_keyed(&hist).unwrap_or_else(|e| panic!("{e}"));
    let m = h.world.metrics();
    assert!(
        m.counter("read_fastpath_hit") > 0,
        "hot keys under skew must take the fast path"
    );
    assert_eq!(
        m.counter("read_fastpath_hit") + m.counter("read_fastpath_miss"),
        hist.ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Read(_)))
            .count() as u64,
        "every completed read classified as hit or miss"
    );
}
