//! Checker validation by mutation: arm each seeded protocol bug
//! (`awr_sim::mutate`) and assert the explorer finds a counterexample for
//! it within the CI budget — then that the minimized schedule still
//! reproduces the violation, and that the *unmutated* protocol replays the
//! same schedule clean. Two bugs no 3-server scenario can expose (see the
//! section on mutations 6 and 7) are caught instead by the history checker
//! on a pinned 7-server schedule that the unmutated protocol runs clean,
//! an eighth by Algorithm 6's accept check on a pinned 3-server schedule
//! (see the section on mutation 8), and a ninth by the history checker on
//! a pinned 3-server schedule (see the section on mutation 9).
//!
//! Only meaningful with the seeded bugs compiled in:
//! `cargo test -p awr_check --features mutate --test mutation_detect`.

#![cfg(feature = "mutate")]

use awr_check::scenario::{ask_all, ask_quorum, write3q, Val};
use awr_check::{
    default_invariants, minimize, schedule_violates, ClientOp, Explorer, Outcome, RunState,
    Scenario, ViolationReport,
};
use awr_core::RpConfig;
use awr_sim::mutate::{with_mutation, Mutation};
use awr_sim::{
    Actor, ActorId, Context, PendingEvent, PendingKind, TargetedDelay, Time, UniformLatency, World,
    SECOND,
};
use awr_storage::{
    check_linearizable, DynClient, DynMsg, DynOptions, DynServer, Fanout, StorageHarness,
};
use awr_types::{ClientId, ObjectId, ProcessId, Ratio, ServerId, Tag};

/// Runs the full detection pipeline under `mutation`: explore, assert the
/// expected invariant fails, minimize, assert the minimized schedule still
/// reproduces — then, disarmed, assert the same schedule replays clean
/// (the violation is the mutation's fault, not the scenario's).
fn assert_caught(
    scenario: &Scenario,
    mutation: Mutation,
    expected_invariant: &str,
    explore: impl FnOnce(&Explorer) -> Outcome,
) -> ViolationReport {
    let (report, minimized) = with_mutation(mutation, || {
        let explorer = Explorer {
            scenario: scenario.clone(),
            invariants: default_invariants(),
            max_depth: None,
            max_states: Some(500_000),
        };
        let outcome = explore(&explorer);
        let report = outcome
            .violation()
            .unwrap_or_else(|| {
                panic!(
                    "{mutation:?} not caught in {} ({:?})",
                    scenario.name,
                    outcome.stats()
                )
            })
            .clone();
        let minimized = minimize(scenario, &report);
        assert!(
            schedule_violates(scenario, &minimized, report.invariant),
            "{mutation:?}: minimized schedule must still reproduce the violation"
        );
        (report, minimized)
    });
    assert_eq!(
        report.invariant, expected_invariant,
        "{mutation:?} caught by the wrong invariant: {}",
        report.detail
    );
    assert!(
        !minimized.is_empty(),
        "counterexample minimized away to nothing"
    );
    assert!(
        !schedule_violates(scenario, &minimized, report.invariant),
        "unmutated protocol also violates {} on the minimized schedule — \
         the scenario is broken, not the mutation",
        report.invariant
    );
    report
}

/// Bounded clean sweep of the scenario without any mutation armed.
fn assert_clean_unmutated(scenario: &Scenario, depth: usize, states: u64) {
    let explorer = Explorer {
        scenario: scenario.clone(),
        invariants: default_invariants(),
        max_depth: Some(depth),
        max_states: Some(states),
    };
    let outcome = explorer.run();
    assert!(
        outcome.violation().is_none(),
        "unmutated {} must explore clean: {:?}",
        scenario.name,
        outcome.violation()
    );
}

/// Mutation 1 target: a transfer of 1/2 from a weight-1 issuer in
/// uniform(3,1). The floor is W/(2(n−f)) = 3/4, so the honest protocol
/// nullifies this at issue time (zero explorable events). With the clamp
/// dropped the transfer proceeds and its completion record puts s0 at
/// weight 1/2 < 3/4 — an RP-Integrity audit violation.
fn floor_scenario() -> Scenario {
    Scenario {
        name: "mut-floor",
        about: "3 servers, one below-floor transfer (null when honest)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![],
        transfers: vec![(ServerId(0), ServerId(1), Ratio::new(1, 2))],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: None,
    }
}

#[test]
fn drop_floor_clamp_is_caught() {
    let scenario = floor_scenario();
    assert_clean_unmutated(&scenario, 14, 60_000);
    let report = assert_caught(
        &scenario,
        Mutation::DropFloorClamp,
        "rp-integrity-audit",
        |e| e.run(),
    );
    assert!(report.detail.contains("audit"), "{}", report.detail);
}

/// Count of pending `kind` deliveries addressed to `to`.
fn pending_kind_to(rs: &RunState, to: ActorId, kind: &str) -> usize {
    rs.harness
        .world
        .pending_events()
        .iter()
        .filter(
            |e| matches!(e.kind, PendingKind::Deliver { to: t, kind: k, .. } if t == to && k == kind),
        )
        .count()
}

/// The tag server `i` currently stores for the default object.
fn reg_tag(rs: &RunState, i: usize) -> Tag {
    rs.harness
        .world
        .actor::<DynServer<Val>>(ActorId(i))
        .expect("server actor")
        .register_of(ObjectId::DEFAULT)
        .tag
}

/// Deterministic setup driver: repeatedly steps the earliest pending
/// event `step_ok` admits (running the closure after each) until `until`
/// holds. Panics on a stall — a scenario authoring error.
fn run_until(
    rs: &mut RunState,
    step_ok: impl Fn(&PendingEvent) -> bool,
    mut until: impl FnMut(&RunState) -> bool,
) {
    loop {
        if until(rs) {
            return;
        }
        let next = rs.harness.world.pending_events().into_iter().find(&step_ok);
        match next {
            Some(e) => {
                rs.harness.world.step_seq(e.seq);
                rs.closure();
            }
            None => panic!("setup stalled before reaching its target state"),
        }
    }
}

/// Mutation 2 target: server s0 gains weight (refresh on gain) while
/// writes race it. The refresh's `have` is fixed when the read starts,
/// and a server's change set only advances when the *paused* apply runs —
/// so the dangerous order is: the refresh starts while s0 is blank, s0
/// then adopts racing writes (accepted precisely because its change set
/// is still the initial one an unaware client references), and only
/// *then* does a replier's ack — carrying the older write — arrive. The
/// honest absorb compares tags and keeps the newer register; the mutated
/// one installs the stale ack, rolling s0's register back: tag
/// monotonicity.
///
/// Setup pins everything up to that race so the explorer only has to
/// order the refresh traffic, not rediscover a 20-step preamble. The
/// transfer issuer s1's change set advances synchronously at issue time,
/// so the client must never hear from s1 or it stops matching s0's stale
/// set — both writes run through the quorum {s0, s2} with s1 frozen:
///   1. deliver exactly the ⟨T⟩ envelope to s0: the weight gain pauses
///      behind a register refresh whose `have` is still empty;
///   2. complete write(1) through {s0, s2} — every party still holds the
///      initial change set, so the rounds accept cleanly (s0 adopting
///      tag1 is fine: `have` was fixed at bottom when the read started);
///   3. continue until write(2)'s W round is in flight;
///   4. deliver write(2)'s W to s0 only — s0 now holds tag2 while s2
///      still holds tag1, and the refresh acks are all still pending.
fn refresh_setup(rs: &mut RunState) {
    let envelope = rs
        .harness
        .world
        .pending_events()
        .iter()
        .find(|e| {
            matches!(e.kind, PendingKind::Deliver { to, kind, .. }
            if to == ActorId(0) && kind == "T")
        })
        .map(|e| e.seq)
        .expect("setup: no ⟨T⟩ envelope pending at s0");
    rs.harness.world.step_seq(envelope);
    rs.closure();
    let client = rs.harness.client_actor(0);
    let quorum = move |e: &PendingEvent| match e.kind {
        PendingKind::Deliver { to, kind, .. } => {
            (to == ActorId(0) || to == ActorId(2) || to == client)
                && matches!(kind, "R" | "RV" | "R_A" | "W" | "W_A")
        }
        _ => false,
    };
    run_until(rs, quorum, |rs| !rs.harness.history().is_empty());
    run_until(rs, quorum, |rs| pending_kind_to(rs, ActorId(0), "W") >= 1);
    let w2 = rs
        .harness
        .world
        .pending_events()
        .iter()
        .find(|e| {
            matches!(e.kind, PendingKind::Deliver { to, kind, .. }
            if to == ActorId(0) && kind == "W")
        })
        .map(|e| e.seq)
        .expect("setup: write(2)'s W is not pending at s0");
    rs.harness.world.step_seq(w2);
    rs.closure();
    assert!(
        reg_tag(rs, 0) > reg_tag(rs, 2),
        "setup: s0 must hold the newer register while s2 holds the older"
    );
}

/// See [`refresh_setup`] for the staged race this scenario pins.
fn refresh_scenario() -> Scenario {
    Scenario {
        name: "mut-refresh",
        about: "weight gain refresh racing a second write (stale-ack adopt)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![vec![
            ClientOp::Write(ObjectId::DEFAULT, 1),
            ClientOp::Write(ObjectId::DEFAULT, 2),
        ]],
        transfers: vec![(ServerId(1), ServerId(0), Ratio::new(1, 8))],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: Some(refresh_setup),
    }
}

#[test]
fn skip_refresh_tag_check_is_caught() {
    let scenario = refresh_scenario();
    assert_clean_unmutated(&scenario, 12, 60_000);
    let report = assert_caught(
        &scenario,
        Mutation::SkipRefreshTagCheck,
        "tag-monotonicity",
        |e| e.run_deepening(6),
    );
    assert!(report.detail.contains("rolled"), "{}", report.detail);
}

/// Mutation 3 target: two transfers from the same issuer. The second is
/// queued behind the first and drained in a fresh RB broadcast on
/// completion; with the sequence number reused, every peer deduplicates
/// that broadcast as already-seen, nobody acks, and the second transfer
/// never completes — caught at quiescence by join-liveness.
///
/// Deltas are 1/16 so *both* transfers clear the uniform(3,1) floor of 3/4
/// (after a 1/8 debit the issuer sits exactly at floor + 1/8 and the clamp
/// is strict, so a second 1/8 would be nullified and never broadcast).
fn reuse_scenario() -> Scenario {
    Scenario {
        name: "mut-reuse",
        about: "same-issuer transfer pair; drained second broadcast swallowed",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![],
        transfers: vec![
            (ServerId(0), ServerId(1), Ratio::new(1, 16)),
            (ServerId(0), ServerId(2), Ratio::new(1, 16)),
        ],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: None,
    }
}

/// Mutation 4 target: a fast-path read served off a max-tag replier set
/// whose cumulative weight is *not* a quorum. Setup pins the split
/// register state the disarmed rule turns into a new/old inversion:
/// writer c0 completes write(1) everywhere, then write(2)'s `W` round is
/// delivered to s0 *only* — s0 holds tag2/v2 while s1 and s2 still hold
/// tag1/v1 — with reader c1 frozen throughout (its phase-1 `R`s stay
/// pending, so its reads observe the split at delivery time). The
/// explorer then owns the order: deliver read(1)'s phase 1 to {s0, s1}
/// and the disarmed check serves v2 off the lone fresh replier s0 (weight
/// 1 < 3/2, honestly a miss); deliver read(2)'s phase 1 to {s1, s2} and
/// it *legitimately* fast-paths v1 (fresh weight 2). Same client, reads
/// back-to-back: v2 then v1 is a new/old inversion, flagged by
/// read-atomicity once write(2)'s stragglers drain and the run completes.
fn fastpath_inversion_setup(rs: &mut RunState) {
    // Setup runs before `build`'s trailing closure; start the scripted
    // ops now so there is traffic to schedule.
    rs.closure();
    let reader = rs.harness.client_actor(1);
    let not_reader = move |e: &PendingEvent| match e.kind {
        PendingKind::Deliver { from, to, .. } => from != reader && to != reader,
        _ => false,
    };
    run_until(rs, not_reader, |rs| !rs.harness.history().is_empty());
    run_until(rs, not_reader, |rs| {
        pending_kind_to(rs, ActorId(0), "W") >= 1
    });
    let w2 = rs
        .harness
        .world
        .pending_events()
        .iter()
        .find(|e| {
            matches!(e.kind, PendingKind::Deliver { to, kind, .. }
            if to == ActorId(0) && kind == "W")
        })
        .map(|e| e.seq)
        .expect("setup: write(2)'s W is not pending at s0");
    rs.harness.world.step_seq(w2);
    rs.closure();
    assert!(
        reg_tag(rs, 0) > reg_tag(rs, 1) && reg_tag(rs, 0) > reg_tag(rs, 2),
        "setup: s0 must hold write(2)'s register while s1/s2 hold write(1)'s"
    );
}

/// See [`fastpath_inversion_setup`] for the split this scenario pins.
fn fastpath_scenario() -> Scenario {
    Scenario {
        name: "mut-fastpath",
        about: "split registers; weight-free fast path serves a new/old inversion",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![
            vec![
                ClientOp::Write(ObjectId::DEFAULT, 1),
                ClientOp::Write(ObjectId::DEFAULT, 2),
            ],
            vec![
                ClientOp::Read(ObjectId::DEFAULT),
                ClientOp::Read(ObjectId::DEFAULT),
            ],
        ],
        transfers: vec![],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: Some(fastpath_inversion_setup),
    }
}

#[test]
fn disarm_fastpath_weight_check_is_caught() {
    let scenario = fastpath_scenario();
    assert_clean_unmutated(&scenario, 12, 60_000);
    let report = assert_caught(
        &scenario,
        Mutation::DisarmFastPathWeightCheck,
        "read-atomicity",
        |e| e.run(),
    );
    assert!(report.detail.contains("linearizable"), "{}", report.detail);
}

/// The same split under quorum-targeted phase 1. Both reads now ask
/// {s0, s1}, so the legitimate v1 read needs its widen — a timer firing
/// the explorer chooses — to be answered by {s1, s2} first. Timers make
/// the free space an order of magnitude larger than the ask-everyone
/// one, so setup also pins read(1): its phase 1 is delivered to both
/// targets and answered, which under the disarmed rule serves v2 off the
/// lone fresh replier s0 and honestly is a miss with a write-back to s1.
/// What the explorer owns is read(2), its widen, and write(2)'s
/// stragglers.
fn fastpath_inversion_setup_quorum(rs: &mut RunState) {
    fastpath_inversion_setup(rs);
    let reader = rs.harness.client_actor(1);
    run_until(
        rs,
        |e| {
            matches!(e.kind, PendingKind::Deliver { from, to, kind: "R" | "RV" | "R_A", .. }
            if from == reader || to == reader)
        },
        |rs| {
            let m = rs.harness.world.metrics();
            m.counter("read_fastpath_hit") + m.counter("read_fastpath_miss") == 1
        },
    );
}

#[test]
fn disarm_fastpath_weight_check_is_caught_under_quorum_fanout() {
    let scenario = Scenario {
        name: "mut-fastpath-q",
        about: "split registers under a targeted phase 1; the inversion needs the widen",
        options: ask_quorum(),
        setup: Some(fastpath_inversion_setup_quorum),
        ..fastpath_scenario()
    };
    assert_clean_unmutated(&scenario, 12, 60_000);
    let report = assert_caught(
        &scenario,
        Mutation::DisarmFastPathWeightCheck,
        "read-atomicity",
        // Twice the shared budget: a targeted read asks its first target
        // for the register and the other for its tag, and a widened read
        // counts registers only, which grows the states the search visits
        // before the counterexample from 427 577 to 634 219.
        |e| {
            Explorer {
                scenario: e.scenario.clone(),
                invariants: default_invariants(),
                max_depth: None,
                max_states: Some(1_000_000),
            }
            .run()
        },
    );
    assert!(report.detail.contains("linearizable"), "{}", report.detail);
}

/// Mutation 5 target: `write3q` as it is, minus the crash (the bug needs
/// none). The frontier opens with the write's `W` in flight to {s0, s1};
/// the mutated driver has already counted both as acked, so the first
/// `W_A` — s0's, with s1's `W` still undelivered — completes the write on
/// one stored copy. The read that follows asks {s0, s1}: s1 answers
/// before the write's `W` reaches it, the widen timer fires before s0's
/// answer is in, and s2's bottom register completes a quorum that never
/// saw the write — a fast-path hit on a value older than a completed
/// write.
#[test]
fn count_phase2_targets_as_acked_is_caught() {
    let scenario = Scenario {
        name: "mut-phase2",
        about: "a write sent to its quorum only; acks taken for granted",
        crash_budget: 0,
        ..write3q()
    };
    assert_clean_unmutated(&scenario, 12, 60_000);
    let report = assert_caught(
        &scenario,
        Mutation::CountPhase2TargetsAsAcked,
        "read-atomicity",
        |e| e.run_deepening(8),
    );
    assert!(report.detail.contains("linearizable"), "{}", report.detail);
}

#[test]
fn reuse_rb_seq_is_caught() {
    let scenario = reuse_scenario();
    assert_clean_unmutated(&scenario, 10, 60_000);
    let report = assert_caught(&scenario, Mutation::ReuseRbSeq, "join-liveness", |e| {
        e.run()
    });
    assert!(
        report.detail.contains("transfers completed"),
        "{}",
        report.detail
    );
}

// ---------------------------------------------------------------------------
// Mutations 6 and 7: caught by the history checker on pinned schedules.
// ---------------------------------------------------------------------------
//
// Removing Algorithm 5's restart on a stale `C`, or Algorithm 4's register
// refresh before a weight gain, breaks atomicity — but the explorer cannot
// show it in any 3-server scenario. Property 1 leaves no single server a
// quorum, so under every reachable weight map each quorum holds at least two
// of the three servers, and any two such sets intersect: a client judging
// quorums under a stale map, or a gainer serving an unrefreshed register,
// still meets the last completed write. It takes seven servers for a quorum
// under one map to miss a quorum under another. So each of these two is
// caught by `check_linearizable` on one pinned 7-server `TargetedDelay`
// schedule: disarmed, the run is linearizable; armed, it is not.

/// Holds a message that matches the adversary's predicate for ten virtual
/// minutes — past the end of every operation in these schedules.
const HOLD: Time = Time(600 * SECOND);

/// Gives client `k` server s1's change set, so its next operation runs
/// under the current weights without a restart.
fn sync_client(h: &mut StorageHarness<u64>, k: usize) {
    let changes = h
        .world
        .actor::<DynServer<u64>>(ActorId(0))
        .expect("server actor")
        .changes()
        .clone();
    let c = h.client_actor(k);
    h.world
        .actor_mut::<DynClient<u64>>(c)
        .expect("client actor")
        .driver
        .changes = changes;
}

/// The stale-`C` schedule on uniform(7, 2). A reader that still judges
/// quorums under the *old* weights assembles an old-weight quorum of four
/// light servers that never saw the latest write — {s1..s4}, exactly the
/// quorum its targeted phase 1 asks (heaviest first, ties by id, under the
/// old uniform map). The adversary (allowed in an asynchronous system)
/// merely delays two flows:
///   * reader ↔ heavy trio {s5, s6, s7} (what keeps the stale quorum the
///     first to answer),
///   * writer → light quartet {s1..s4}.
///
/// With the restart, the light servers reject the reader's stale `C`, it
/// learns the transfers, restarts, and reads the latest value. Returns the
/// stale reader's value, whether the history is linearizable, and how many
/// phase 1s the run sent targeted.
fn stale_c_read() -> (Option<u64>, bool, u64) {
    let reader = ActorId(7); // client 0
    let writer = ActorId(8); // client 1
    let heavy = |a: ActorId| (4..7).contains(&a.index());
    let light = |a: ActorId| a.index() < 4;
    let base = UniformLatency::new(1_000, 10_000);
    let d1 = TargetedDelay::new(
        base,
        move |f, t| (f == reader && heavy(t)) || (heavy(f) && t == reader),
        HOLD,
    );
    let d2 = TargetedDelay::new(d1, move |f, t| f == writer && light(t), HOLD);
    let mut h: StorageHarness<u64> =
        StorageHarness::build(RpConfig::uniform(7, 2), 3, 42, d2, DynOptions::default());
    // The reader has one operation behind it, so its next phase 1 is
    // targeted rather than the first-ever ask-everyone.
    assert_eq!(h.read(0).unwrap().0, None);
    // Client 2 (unconstrained) writes v1 everywhere under the initial C.
    h.write(2, 1).unwrap();
    // Concentrate weight: {s5, s6, s7} = 3.75 becomes a quorum.
    for (from, to) in [(0, 4), (1, 5), (2, 6)] {
        let out = h
            .transfer_and_wait(ServerId(from), ServerId(to), Ratio::dec("0.25"))
            .unwrap();
        assert!(out.is_effective());
    }
    // The writer's v2 completes on the heavy trio alone (its W messages
    // to the lights are held by the adversary).
    sync_client(&mut h, 1);
    h.write(1, 2).unwrap();
    // The reader, still on the old map, asks {s1..s4} = 4.0.
    let (v, _) = h.read(0).unwrap();
    let linearizable = check_linearizable(&h.history()).is_ok();
    (
        v,
        linearizable,
        h.world.metrics().counter("phase1_targeted"),
    )
}

#[test]
fn skipped_stale_c_restart_is_caught() {
    let (v, linearizable, _) = stale_c_read();
    assert_eq!(
        v,
        Some(2),
        "with the restart, the reader sees the last write"
    );
    assert!(linearizable, "the paper's protocol must be atomic");
    let (v, linearizable, targeted) = with_mutation(Mutation::SkipRestartOnStale, stale_c_read);
    assert_eq!(
        targeted, 1,
        "the stale read is the run's one targeted phase 1"
    );
    assert_eq!(v, Some(1), "the stale quorum serves the old value");
    assert!(!linearizable, "check_linearizable must flag the stale read");
}

/// The refresh-on-gain schedule on uniform(7, 2). v = 9 is written under
/// the initial map to the four light servers {s4..s7} (the writer cannot
/// reach the heavy trio); then weight concentrates on the trio {s1, s2,
/// s3}; a reader on the *new* map, hearing only the trio, reads it alone.
/// With the refresh, the gaining servers pulled v before their gain
/// applied; without it they serve their initial (empty) register — a read
/// of ⊥ after a completed write. Returns the reader's value and whether the
/// history is linearizable.
fn unrefreshed_gain_read() -> (Option<u64>, bool) {
    let reader = ActorId(7); // client 0
    let writer = ActorId(8); // client 1
    let heavy = |a: ActorId| a.index() < 3;
    let light = |a: ActorId| (3..7).contains(&a.index());
    let base = UniformLatency::new(1_000, 10_000);
    // The writer cannot reach the heavy trio: its write lands on the lights.
    let d1 = TargetedDelay::new(base, move |f, t| f == writer && heavy(t), HOLD);
    // The reader cannot hear the light servers: its quorum is the trio.
    let d = TargetedDelay::new(
        d1,
        move |f, t| (f == reader && light(t)) || (light(f) && t == reader),
        HOLD,
    );
    let mut h: StorageHarness<u64> =
        StorageHarness::build(RpConfig::uniform(7, 2), 3, 43, d, DynOptions::default());
    // v = 9 under the initial uniform map: {s4..s7} = 4 > 3.5.
    h.write(1, 9).unwrap();
    // Weight concentrates on the trio (the donors are light servers).
    for (from, to) in [(3, 0), (4, 1), (5, 2)] {
        h.transfer_and_wait(ServerId(from), ServerId(to), Ratio::dec("0.25"))
            .unwrap();
    }
    // Bounded advance: let applies and refreshes finish without draining
    // the adversary's held messages (settling would fast-forward past the
    // hold).
    h.world.run_for(SECOND);
    // The reader reads under the new map; sync its C so it needs no
    // restart.
    sync_client(&mut h, 0);
    let (v, _) = h.read(0).unwrap();
    (v, check_linearizable(&h.history()).is_ok())
}

#[test]
fn skipped_gain_refresh_is_caught() {
    assert_eq!(
        unrefreshed_gain_read(),
        (Some(9), true),
        "with the refresh, the gainers serve the last write"
    );
    assert_eq!(
        with_mutation(Mutation::SkipRefreshOnGain, unrefreshed_gain_read),
        (None, false),
        "unrefreshed gainers serve bottom after a completed write, and \
         check_linearizable must flag it"
    );
}

// ---------------------------------------------------------------------------
// Mutation 8: a length-only summary sent without a proof.
// ---------------------------------------------------------------------------
//
// A client names its `C` by its length alone only to a server that accepted
// that very set: a server's set only grows, so it holds that set exactly
// while its length is `C`'s. Two servers can hold different sets of one
// length, though — each issuer of two concurrent transfers holds its own
// change pair before either has spread. Named by length to such a server,
// a client is accepted under a `C` that server does not hold, which
// Algorithm 6's accept check (`C = C_i`) forbids.

/// An actor that keeps every message it receives.
struct Recorded<A> {
    actor: A,
    inbox: Vec<DynMsg<u64>>,
}

impl<A: Actor<Msg = DynMsg<u64>>> Actor for Recorded<A> {
    type Msg = DynMsg<u64>;
    fn on_message(&mut self, from: ActorId, msg: DynMsg<u64>, ctx: &mut Context<'_, DynMsg<u64>>) {
        self.inbox.push(msg.clone());
        self.actor.on_message(from, msg, ctx);
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, DynMsg<u64>>) {
        self.actor.on_timer(tag, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn recorded<A>(actor: A) -> Recorded<A> {
    Recorded {
        actor,
        inbox: Vec::new(),
    }
}

/// Delivers the newest pending `kind` message from `from` to `to`.
fn deliver(w: &mut World<DynMsg<u64>>, from: ActorId, to: ActorId, kind: &str) {
    let seq = w
        .pending_events()
        .into_iter()
        .filter(|e| {
            matches!(e.kind, PendingKind::Deliver { from: f, to: t, kind: k, .. }
            if f == from && t == to && k == kind)
        })
        .map(|e| e.seq)
        .max()
        .unwrap_or_else(|| panic!("no {kind} pending from {from:?} to {to:?}"));
    assert!(w.step_seq(seq));
}

/// On uniform(3, 1), s0 and s2 each issue a transfer to s1, and no `⟨T⟩`
/// is delivered: s0 holds I + A and s2 holds I + B, five changes each. A
/// client reads: s0 rejects the read and the client learns A, and its
/// restarted read reaches s2 while the two sets still differ. Returns the
/// form of `C` in that read's `RV` (`"length"` or `"summary"`) and whether
/// s2 accepted it.
fn read_across_equal_length_sets() -> (&'static str, bool) {
    type Server = Recorded<DynServer<u64>>;
    type Client = Recorded<DynClient<u64>>;
    let cfg = RpConfig::uniform(3, 1);
    let options = DynOptions {
        fanout: Fanout::All,
        ..DynOptions::default()
    };
    let mut w = World::new(8, UniformLatency::new(1_000, 2_000));
    for s in cfg.servers() {
        w.add_actor(recorded(DynServer::<u64>::new(cfg.clone(), s, options)));
    }
    let pid = ProcessId::Client(ClientId(0));
    let client = w.add_actor(recorded(DynClient::<u64>::new(pid, cfg, options)));
    for (from, to) in [(0, 1), (2, 1)] {
        w.with_actor_ctx(ActorId(from), |s: &mut Server, ctx| {
            s.actor
                .begin_transfer(ServerId(to), Ratio::new(1, 10), ctx)
                .expect("the transfer starts");
        })
        .expect("a live server");
    }
    w.with_actor_ctx(client, |c: &mut Client, ctx| c.actor.begin_read(ctx))
        .expect("a live client");
    let (s0, s2) = (ActorId(0), ActorId(2));
    // A read that asks everyone asks each server for the register.
    deliver(&mut w, client, s0, "RV");
    deliver(&mut w, s0, client, "R_A");
    // The newest `RV` to s2 is the restarted read's.
    deliver(&mut w, client, s2, "RV");
    let held = |a: ActorId| w.actor::<Server>(a).expect("a server").actor.changes();
    let mine = &w
        .actor::<Client>(client)
        .expect("the client")
        .actor
        .driver
        .changes;
    assert_eq!(mine, held(s0), "the client learned A");
    assert_eq!(mine.len(), held(s2).len());
    assert_ne!(mine, held(s2), "s2 holds B, not A");
    let sent = match w.actor::<Server>(s2).expect("a server").inbox.last() {
        Some(DynMsg::RV { changes, .. }) if changes.named_len().is_some() => "length",
        Some(DynMsg::RV { .. }) => "summary",
        m => panic!("not an RV: {m:?}"),
    };
    deliver(&mut w, s2, client, "R_A");
    let accepted = match w.actor::<Client>(client).expect("the client").inbox.last() {
        Some(DynMsg::RAck { accepted, .. }) => *accepted,
        m => panic!("not an R_A: {m:?}"),
    };
    (sent, accepted)
}

#[test]
fn unproven_length_ref_is_caught() {
    assert_eq!(
        read_across_equal_length_sets(),
        ("summary", false),
        "the client has no proof that s2 holds its new C: it sends the \
         summary, and s2 rejects it"
    );
    assert_eq!(
        with_mutation(Mutation::UnprovenLengthRef, read_across_equal_length_sets),
        ("length", true),
        "named by its length, C is accepted by a server that holds another \
         set: Algorithm 6's accept check C = C_i fails"
    );
}

// ---------------------------------------------------------------------------
// Mutation 9: a read settling for its `RV` target's register.
// ---------------------------------------------------------------------------
//
// A targeted read asks its first target for the register and the rest for
// tags. When a tag-only reply names a newer tag than the register it was
// sent, the value of that tag is elsewhere, and the read must ask for it:
// the register it holds may be older than a completed write.

/// On uniform(3, 1) the writer cannot reach s0, so its first write — sent
/// to everyone — completes on {s1, s2} with s0 still at bottom. The reader,
/// with one read behind it, then asks {s0, s1}: s0, the first target, for
/// the register, and s1 for its tag. Returns the second read's value,
/// whether the history is linearizable, and how often the read asked for a
/// value again.
fn read_past_a_behind_value_target() -> (Option<u64>, bool, u64) {
    let writer = ActorId(4); // client 1
    let d = TargetedDelay::new(
        UniformLatency::new(1_000, 10_000),
        move |f, t| f == writer && t == ActorId(0),
        HOLD,
    );
    let mut h: StorageHarness<u64> =
        StorageHarness::build(RpConfig::uniform(3, 1), 2, 44, d, DynOptions::default());
    assert_eq!(h.read(0).unwrap().0, None);
    h.write(1, 1).unwrap();
    let (v, _) = h.read(0).unwrap();
    let m = h.world.metrics();
    assert_eq!(
        m.counter("phase1_targeted"),
        1,
        "the second read is targeted"
    );
    (
        v,
        check_linearizable(&h.history()).is_ok(),
        m.counter("read_value_reasked"),
    )
}

#[test]
fn stale_value_target_is_caught() {
    assert_eq!(
        read_past_a_behind_value_target(),
        (Some(1), true, 1),
        "s1's tag names the write: the read asks s1 for its value once, and \
         returns it"
    );
    assert_eq!(
        with_mutation(Mutation::StaleValueTarget, read_past_a_behind_value_target),
        (None, false, 0),
        "settling for s0's register reads bottom after a completed write, and \
         check_linearizable must flag it"
    );
}
