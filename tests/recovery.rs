//! Crash/restart recovery: durability must be invisible when nothing
//! crashes, and safe when things do.
//!
//! The claims, each pinned by seed so a regression is a deterministic
//! failure, not a flake:
//!
//! 1. **No-crash transparency** — attaching durable storage (WAL +
//!    snapshots) to every server changes *nothing* about a crash-free
//!    schedule: identical operation records, identical message counts and
//!    bytes per kind. Durability is observation, not participation.
//! 2. **Compaction transparency** — journal compaction bounds the
//!    in-memory journal while leaving the completed-operation schedule
//!    untouched (payload bytes may differ when a delta degrades to full;
//!    under a latency-only network that cannot reorder anything).
//! 3. **Recovery equivalence** — a server that crashes mid-workload and
//!    reboots from snapshot + WAL, then rejoins through the sync round and
//!    count-based refresh, converges to the digest and registers of a
//!    replica that never crashed; histories stay linearizable and the
//!    transfer audit stays clean throughout the campaign.
//! 4. **Retry safety** — the client-side rebroadcast rescues operations
//!    whose quorum contacts died mid-phase, and duplicate deliveries are
//!    tag-idempotent: they can neither double-apply a write nor
//!    double-count a quorum member.
//! 5. **Streaming replay** — `Storage::replay` hands over exactly what
//!    `load` returns, on both backends, and a server recovered by folding
//!    the stream holds the state the record-by-record replay of the
//!    loaded WAL yields.
//! 6. **Length names after a restart** — a server recovered from a
//!    snapshot, whose journal decodes in set order rather than the order
//!    it learned its changes in, accepts a length-only summary at exactly
//!    its recovered length, and brings a client naming a shorter length
//!    to equality within two exchanges.
//! 7. **Flat under churn** — over 2 100 reassignments with a server
//!    crashed and rebooted every epoch, the journal and the WAL stay under
//!    a cadence-derived bound and recovery time does not drift, while |C|
//!    and the bytes of each recovery grow.

use std::collections::BTreeMap;

use std::any::Any;

use awr::core::{audit_transfers, RpConfig};
use awr::sim::{Actor, ActorId, Context, Fault, FaultPlan, Time, UniformLatency, World};
use awr::storage::workload::{run_mixed_workload, WorkloadSpec};
use awr::storage::{
    check_linearizable, check_linearizable_keyed, CheckpointCadence, DynMsg, DynOptions, DynServer,
    OpKind, RetryPolicy, Snapshot, StorageHandle, StorageHarness, WalRecord,
};
use awr::types::{
    Change, ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

/// One recorded op: (client, object key, is_write, value, invoke, response).
type OpRec = (usize, u64, bool, Option<u64>, u64, u64);

fn op_records(h: &StorageHarness<u64>) -> Vec<OpRec> {
    let mut ops: Vec<OpRec> = h
        .history()
        .ops
        .iter()
        .map(|o| {
            let (w, v) = match &o.kind {
                OpKind::Read(v) => (false, *v),
                OpKind::Write(v) => (true, Some(*v)),
            };
            (
                o.client,
                o.obj.key(),
                w,
                v,
                o.invoke.nanos(),
                o.response.nanos(),
            )
        })
        .collect();
    ops.sort();
    ops
}

fn run_workload(mut h: StorageHarness<u64>, seed: u64) -> StorageHarness<u64> {
    run_mixed_workload(&mut h, 3, &WorkloadSpec::default(), seed);
    h.settle();
    h
}

#[test]
fn durable_storage_is_invisible_without_crashes() {
    for seed in 0..4u64 {
        let cfg = RpConfig::uniform(7, 2);
        let net = || UniformLatency::new(1_000, 50_000);
        let plain = run_workload(
            StorageHarness::build(cfg.clone(), 3, seed, net(), DynOptions::default()),
            seed,
        );
        let durable = run_workload(
            StorageHarness::build_durable(cfg.clone(), 3, seed, net(), DynOptions::default()),
            seed,
        );
        assert_eq!(
            op_records(&plain),
            op_records(&durable),
            "seed {seed}: durable run diverged from plain run"
        );
        let (mp, md) = (plain.world.metrics(), durable.world.metrics());
        assert_eq!(mp.bytes_sent, md.bytes_sent, "seed {seed}: bytes diverged");
        assert_eq!(
            mp.sent_by_kind, md.sent_by_kind,
            "seed {seed}: message counts diverged"
        );
        assert_eq!(
            mp.bytes_by_kind, md.bytes_by_kind,
            "seed {seed}: per-kind bytes diverged"
        );
        // The durable run actually wrote something: every server's WAL (or
        // snapshot) saw the adopted registers and completed changes.
        let persisted_anything = cfg.servers().any(|sv| {
            durable
                .storage_handle(sv)
                .map(|st| st.load().is_some())
                .unwrap_or(false)
        });
        assert!(persisted_anything, "seed {seed}: nothing was persisted");
    }
}

#[test]
fn compaction_bounds_journal_without_changing_the_schedule() {
    let cadence = CheckpointCadence {
        every: 64,
        min_retain: 16,
    };
    for seed in 0..4u64 {
        let cfg = RpConfig::uniform(7, 2);
        let net = || UniformLatency::new(1_000, 50_000);
        let build = |options| {
            let mut h: StorageHarness<u64> =
                StorageHarness::build(cfg.clone(), 3, seed, net(), options);
            // A large converged |C| so compaction has a prefix to drop.
            h.seed_converged_changes(200);
            h
        };
        let full = run_workload(build(DynOptions::default()), seed);
        let compacted = run_workload(
            build(DynOptions {
                checkpoint: Some(cadence),
                ..DynOptions::default()
            }),
            seed,
        );
        assert_eq!(
            op_records(&full),
            op_records(&compacted),
            "seed {seed}: compaction changed the completed-op schedule"
        );
        for sv in cfg.servers() {
            let journal = |h: &StorageHarness<u64>| {
                h.world
                    .actor::<DynServer<u64>>(h.server_actor(sv))
                    .unwrap()
                    .changes()
                    .journal_len()
            };
            let (jf, jc) = (journal(&full), journal(&compacted));
            assert!(jf >= 200, "seed {seed} s{sv}: uncompacted journal shrank");
            assert!(
                jc < cadence.every + cadence.min_retain,
                "seed {seed} s{sv}: compacted journal not bounded (len {jc})"
            );
            let changes = |h: &StorageHarness<u64>| {
                h.world
                    .actor::<DynServer<u64>>(h.server_actor(sv))
                    .unwrap()
                    .changes()
                    .len()
            };
            assert_eq!(
                changes(&full),
                changes(&compacted),
                "seed {seed} s{sv}: compaction changed set membership"
            );
        }
    }
}

/// Durable options for crash campaigns: compaction on, retries on.
fn crash_options() -> DynOptions {
    DynOptions {
        checkpoint: Some(CheckpointCadence::default()),
        retry: Some(RetryPolicy::default()),
        ..DynOptions::default()
    }
}

#[test]
fn crash_restart_campaign_stays_linearizable() {
    let cfg = RpConfig::uniform(7, 2);
    let servers: Vec<_> = (0..7).map(awr::sim::ActorId).collect();
    for seed in 10..14u64 {
        let mut h: StorageHarness<u64> = StorageHarness::build_durable(
            cfg.clone(),
            3,
            seed,
            UniformLatency::new(1_000, 50_000),
            crash_options(),
        );
        // Random kills across the workload window, each rebooting from its
        // durable store after a short outage.
        let plan = FaultPlan::random(seed, &servers, Time(3_000_000), 700_000, 250_000);
        assert!(!plan.is_empty(), "seed {seed}: empty fault plan");
        h.install_fault_plan(&plan);
        run_mixed_workload(&mut h, 3, &WorkloadSpec::default(), seed);
        h.settle();
        assert_eq!(
            h.world.metrics().restarts,
            plan.len() as u64,
            "seed {seed}: not every kill rebooted"
        );
        let hist = h.history();
        assert!(hist.len() >= 10, "seed {seed}: too few completed ops");
        check_linearizable(&hist).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
    }
}

/// One soak epoch, sampled once its crashed server has rebooted and the
/// world has settled.
struct SoakEpoch {
    /// Largest |C| across servers; it grows forever.
    changes: usize,
    /// Largest in-memory journal across servers.
    journal: usize,
    /// Largest WAL across servers.
    wal: usize,
    /// Virtual ns from the reboot to a settled world (sync round and
    /// count-based refresh done).
    recovery_ns: u64,
    /// Bytes sent and received by the rebooted server in that window.
    recovery_bytes: u64,
}

/// The durable shard's long-run claim: a server's footprint follows the
/// checkpoint cadence, not the history. 50 epochs of 42 weight ping-pong
/// transfers (2 100 reassignments, each one Algorithm 4 run on the wire)
/// race register traffic while one server sits the epoch out crashed, then
/// reboots from snapshot + WAL. Every number is virtual time, so the run
/// repeats exactly and its summary is pinned.
///
/// Recovery is flat in time but not in bytes: every `SyA` a peer sends
/// the rebooted server is `Full`, because an epoch adds 84 changes, more
/// than the ≤ 62-entry compacted journal can cut a delta from. So the
/// recovery bytes grow with |C| — the pin at the first and last epoch
/// records an O(|C|) catch-up that per-issuer frontiers would flatten.
#[test]
fn soak_keeps_journal_wal_and_recovery_time_flat_over_2100_reassignments() {
    const N: usize = 7;
    const EPOCHS: usize = 50;
    const TRANSFERS: usize = 42;
    let cadence = CheckpointCadence {
        every: 64,
        min_retain: 16,
    };
    let cfg = RpConfig::uniform(N, 2);
    let options = DynOptions {
        checkpoint: Some(cadence),
        retry: Some(RetryPolicy::default()),
        ..DynOptions::default()
    };
    let mut h: StorageHarness<u64> = StorageHarness::build_durable(
        cfg.clone(),
        2,
        0x50AC,
        UniformLatency::new(1_000, 20_000),
        options,
    );
    let mut epochs = Vec::with_capacity(EPOCHS);
    let mut next_val = 1u64;
    for epoch in 0..EPOCHS {
        let victim = s((epoch % N) as u32);
        h.crash_server(victim);
        for t in 0..TRANSFERS {
            // Ping-pong between rotating live pairs: weights return to
            // uniform every two transfers, so the RP floor is never at risk.
            let a = s(((epoch + 1 + 2 * (t % 3)) % N) as u32);
            let b = s(((epoch + 2 + 2 * (t % 3)) % N) as u32);
            let (from, to) = if t % 2 == 0 { (a, b) } else { (b, a) };
            h.transfer_and_wait(from, to, Ratio::dec("0.05"))
                .expect("soak transfer");
            if t % 4 == 0 {
                h.write(epoch % 2, next_val).expect("soak write");
                next_val += 1;
            } else if t % 4 == 2 {
                h.read((epoch + 1) % 2).expect("soak read");
            }
        }
        let actor = h.server_actor(victim);
        let (t0, b0) = (h.world.now(), h.world.metrics().incident_bytes(actor));
        h.restart_server(victim);
        h.settle();
        let recovery_ns = h.world.now() - t0;
        let recovery_bytes = h.world.metrics().incident_bytes(actor) - b0;
        let mut sample = SoakEpoch {
            changes: 0,
            journal: 0,
            wal: 0,
            recovery_ns,
            recovery_bytes,
        };
        for sv in cfg.servers() {
            let ch = h
                .world
                .actor::<DynServer<u64>>(h.server_actor(sv))
                .expect("server")
                .changes();
            // A full ping-pong cycle lands every view back on the uniform
            // weights (read off the `ChangeSet` weight caches).
            assert_eq!(
                ch.total_weight(N),
                cfg.initial_total(),
                "epoch {epoch}: {sv}"
            );
            for peer in cfg.servers() {
                assert_eq!(
                    Some(ch.server_weight(peer)),
                    cfg.initial_weights.get(peer),
                    "epoch {epoch}: {sv}'s view of {peer} left the uniform point"
                );
            }
            sample.changes = sample.changes.max(ch.len());
            sample.journal = sample.journal.max(ch.journal_len());
            let wal = h.storage_handle(sv).expect("durable").wal_len();
            sample.wal = sample.wal.max(wal);
        }
        epochs.push(sample);
    }

    check_linearizable(&h.history()).expect("soak history must stay linearizable");
    let report = audit_transfers(h.config(), &h.all_completed_transfers());
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(
        h.world.metrics().restarts,
        EPOCHS as u64,
        "every crash must reboot exactly once"
    );

    // Memory is cadence-shaped: a compacted journal holds at most one
    // interval plus the retained suffix, and the retention may keep a
    // straggler's delta on top, bounded by the same interval. A snapshot
    // resets the WAL, so it obeys the same bound.
    let bound = 2 * cadence.every + cadence.min_retain;
    for (i, e) in epochs.iter().enumerate() {
        assert!(
            e.journal <= bound,
            "epoch {i}: journal {} > {bound}",
            e.journal
        );
        assert!(e.wal <= bound, "epoch {i}: WAL {} > {bound}", e.wal);
    }
    // Flat, not merely bounded: the second half's maxima stay within a
    // slack of the first half's.
    let halves = |f: fn(&SoakEpoch) -> u64| {
        let (first, second) = epochs.split_at(EPOCHS / 2);
        let max = |es: &[SoakEpoch]| es.iter().map(f).max().expect("epochs");
        (max(first), max(second))
    };
    let journal = halves(|e| e.journal as u64);
    let wal = halves(|e| e.wal as u64);
    let recovery = halves(|e| e.recovery_ns);
    for (what, (first, second), slack) in [
        ("journal", journal, 1.25),
        ("WAL", wal, 1.25),
        ("recovery time", recovery, 1.5),
    ] {
        assert!(
            second as f64 <= first as f64 * slack,
            "{what} drifts: first-half max {first}, second-half max {second}"
        );
    }
    let (first, last) = (&epochs[0], &epochs[EPOCHS - 1]);
    assert!(last.changes > first.changes, "|C| did not grow");

    // The run's summary, deterministic to the byte.
    assert_eq!((first.changes, last.changes), (91, 4_207), "|C|");
    assert_eq!(journal, (62, 62), "journal maxima per half");
    assert_eq!(wal, (63, 63), "WAL maxima per half");
    assert_eq!(
        (first.recovery_bytes, last.recovery_bytes),
        (3_472, 166_424),
        "recovery bytes at the first and last reboot"
    );
    assert_eq!(
        recovery,
        (3_143_589, 3_139_233),
        "recovery ns maxima per half"
    );
}

#[test]
fn recovered_server_converges_with_never_crashed_replicas() {
    let mut h: StorageHarness<u64> = StorageHarness::build_durable(
        RpConfig::uniform(7, 2),
        2,
        77,
        UniformLatency::new(1_000, 40_000),
        crash_options(),
    );
    h.write(0, 1).unwrap();
    h.transfer_and_wait(s(3), s(1), Ratio::dec("0.1")).unwrap();
    h.settle();
    // s0 dies; the world moves on without it: new writes, new weights.
    h.crash_server(s(0));
    h.write(0, 2).unwrap();
    h.write_obj(1, ObjectId(9), 3).unwrap();
    h.transfer_and_wait(s(4), s(2), Ratio::dec("0.1")).unwrap();
    h.settle();
    // Reboot from snapshot + WAL; the rejoin round (SyncR + refresh) runs
    // on restart, then the world settles.
    h.restart_server(s(0));
    h.settle();
    assert_eq!(h.world.metrics().restarts, 1);
    let server = |h: &StorageHarness<u64>, i: u32| {
        let a = h.server_actor(s(i));
        let srv = h.world.actor::<DynServer<u64>>(a).unwrap();
        (
            srv.changes().digest(),
            [ObjectId::DEFAULT, ObjectId(9)].map(|obj| srv.register_of(obj)),
        )
    };
    // Same change set as every replica that never crashed, and per key the
    // newest register any of them holds. (Not *every* replica's register:
    // a write lives on the quorum it was sent to; the rejoin refresh reads
    // n − f servers, which meets every such quorum.)
    let (digest, registers) = server(&h, 0);
    for live in 1..7u32 {
        assert_eq!(digest, server(&h, live).0, "s0 diverged from live s{live}");
    }
    for (k, recovered) in registers.iter().enumerate() {
        let newest = (1..7u32)
            .map(|live| server(&h, live).1[k])
            .max_by_key(|r| r.tag)
            .unwrap();
        assert_eq!(*recovered, newest, "key {k}");
        assert!(
            recovered.value.is_some(),
            "key {k} was written while s0 was down"
        );
    }
    // And the recovered digest reflects the transfer it slept through.
    let (v, _) = h.read(0).unwrap();
    assert_eq!(v, Some(2));
    check_linearizable_keyed(&h.history()).unwrap();
    // Regression pin: the rebooted server must also be able to *donate*
    // weight again. Its RB sequence resumes past its pre-crash broadcasts
    // (peers' dedup sets survive the crash); if it restarted at zero, this
    // transfer's ⟨T⟩ envelope would be swallowed as a duplicate everywhere
    // and the call would stall until the world quiesced.
    h.transfer_and_wait(s(0), s(5), Ratio::dec("0.1"))
        .expect("recovered server must complete a fresh transfer");
    h.settle();
}

#[test]
fn retry_rescues_ops_whose_quorum_contacts_died_mid_phase() {
    // Adversarial transient: four servers are down when the client's
    // phase-1 broadcast lands (more than f *concurrently*, but each
    // reboots — safety is durability's job, liveness is retry's). The
    // three live responders hold weight 3 ≤ 3.5, so the op stalls until
    // the rebroadcast reaches the rebooted majority.
    let cfg = RpConfig::uniform(7, 2);
    let net = || UniformLatency::new(1_000_000, 2_000_000); // 1–2 ms
    let plan = FaultPlan::scheduled([
        Fault::kill_restart(awr::sim::ActorId(0), Time(100_000), 5_000_000),
        Fault::kill_restart(awr::sim::ActorId(1), Time(100_000), 5_000_000),
        Fault::kill_restart(awr::sim::ActorId(5), Time(100_000), 6_000_000),
        Fault::kill_restart(awr::sim::ActorId(6), Time(100_000), 6_000_000),
    ]);
    // Without retry the op waits forever on replies that were dropped.
    let mut stalled: StorageHarness<u64> = StorageHarness::build_durable(
        cfg.clone(),
        1,
        5,
        net(),
        DynOptions {
            checkpoint: Some(CheckpointCadence::default()),
            ..DynOptions::default()
        },
    );
    stalled.install_fault_plan(&plan);
    assert!(
        stalled.write(0, 42).is_err(),
        "op should stall without retry"
    );
    // With retry the rebroadcast completes it.
    let mut rescued: StorageHarness<u64> = StorageHarness::build_durable(
        cfg,
        1,
        5,
        net(),
        DynOptions {
            checkpoint: Some(CheckpointCadence::default()),
            retry: Some(RetryPolicy {
                base: 8_000_000,
                max_attempts: 4,
            }),
            ..DynOptions::default()
        },
    );
    rescued.install_fault_plan(&plan);
    rescued.write(0, 42).unwrap();
    let (v, _) = rescued.read(0).unwrap();
    assert_eq!(v, Some(42));
    rescued.settle();
    check_linearizable(&rescued.history()).unwrap();
}

#[test]
fn duplicate_write_delivery_is_tag_idempotent() {
    // The property retry leans on: delivering the same W twice (as a
    // rebroadcast does to servers that already processed it) changes
    // nothing — the register tag decides, not the delivery count.
    let cfg = RpConfig::uniform(5, 1);
    let mut h: StorageHarness<u64> = StorageHarness::build(
        cfg.clone(),
        1,
        8,
        UniformLatency::new(1_000, 10_000),
        DynOptions::default(),
    );
    h.write(0, 42).unwrap();
    let reg_before = h
        .world
        .actor::<DynServer<u64>>(h.server_actor(s(0)))
        .unwrap()
        .register();
    // Forge a duplicate of the completed write, twice over.
    for _ in 0..2 {
        let dup = DynMsg::W {
            op: 1,
            obj: ObjectId::DEFAULT,
            reg: reg_before,
            changes: awr::types::CsRef::summary(
                h.world
                    .actor::<DynServer<u64>>(h.server_actor(s(0)))
                    .unwrap()
                    .changes(),
            ),
        };
        h.world.inject(h.client_actor(0), h.server_actor(s(0)), dup);
    }
    h.settle();
    let reg_after = h
        .world
        .actor::<DynServer<u64>>(h.server_actor(s(0)))
        .unwrap()
        .register();
    assert_eq!(reg_before.tag, reg_after.tag, "duplicate W moved the tag");
    assert_eq!(
        reg_before.value, reg_after.value,
        "duplicate W moved the value"
    );
    let (v, _) = h.read(0).unwrap();
    assert_eq!(v, Some(42));
    check_linearizable(&h.history()).unwrap();
}

/// A WAL that exercises every replay rule: changes (one of them twice),
/// and per object registers that arrive newer, older and with equal tags.
fn tricky_wal() -> Vec<WalRecord<u64>> {
    let reg = |ts: u64, client: u32, v: u64| {
        TaggedValue::new(Tag::new(ts, ProcessId::Client(ClientId(client))), v)
    };
    let change = |counter: u64, to: u32| {
        WalRecord::Change(Change::new(s(0), counter, s(to), Ratio::dec("0.01")))
    };
    vec![
        change(2, 1),
        WalRecord::Register(ObjectId(1), reg(5, 0, 50)),
        WalRecord::Register(ObjectId(2), reg(9, 1, 90)),
        change(3, 2),
        WalRecord::Register(ObjectId(1), reg(4, 1, 40)), // older: ignored
        WalRecord::Register(ObjectId(2), reg(9, 1, 91)), // equal tag: the first stays
        change(2, 1),                                    // already known
        WalRecord::Register(ObjectId(3), reg(1, 0, 10)),
        WalRecord::Register(ObjectId(1), reg(6, 0, 60)), // newer: adopted
    ]
}

fn tricky_snapshot(cfg: &RpConfig) -> Snapshot<u64> {
    let mut changes = ChangeSet::from_initial_weights(&cfg.initial_weights);
    changes.insert(Change::new(s(1), 2, s(2), Ratio::dec("0.02")));
    let newer_than_the_wal = TaggedValue::new(Tag::new(7, ProcessId::Client(ClientId(0))), 70);
    let older_than_the_wal = TaggedValue::new(Tag::new(2, ProcessId::Client(ClientId(0))), 20);
    Snapshot {
        changes,
        registers: [
            (ObjectId(1), newer_than_the_wal),
            (ObjectId(2), older_than_the_wal),
            (ObjectId(4), older_than_the_wal),
        ]
        .into_iter()
        .collect(),
    }
}

fn scratch_dir(case: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("awr_replay_{}_{case}", std::process::id()))
}

/// The stores under test: each backend, empty, WAL-only, and snapshot
/// followed by a suffix. The file backend's live under [`scratch_dir`].
fn stores(cfg: &RpConfig, case: &str) -> Vec<(String, StorageHandle<u64>, bool)> {
    let dir = scratch_dir(case);
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = Vec::new();
    for backend in ["mem", "file"] {
        for shape in ["empty", "wal", "snapshot+wal"] {
            let handle = match backend {
                "mem" => StorageHandle::in_memory(),
                _ => StorageHandle::file(dir.join(shape.replace('+', "_"))),
            };
            if shape == "snapshot+wal" {
                // Records before the snapshot are truncated by it.
                handle.append(tricky_wal().remove(0));
                handle.install_snapshot(tricky_snapshot(cfg));
            }
            if shape != "empty" {
                tricky_wal().into_iter().for_each(|r| handle.append(r));
            }
            out.push((format!("{backend}/{shape}"), handle, shape == "empty"));
        }
    }
    out
}

#[test]
fn replay_streams_exactly_what_load_returns() {
    let cfg = RpConfig::uniform(5, 2);
    for (name, handle, empty) in stores(&cfg, "stream") {
        let mut streamed = Vec::new();
        let snapshot = handle.replay(&mut |r| streamed.push(r));
        match handle.load() {
            None => {
                assert!(empty, "{name}: a written store loaded nothing");
                assert!(snapshot.is_none() && streamed.is_empty(), "{name}");
            }
            Some((loaded_snapshot, wal)) => {
                assert!(!empty, "{name}");
                assert_eq!(snapshot, Some(loaded_snapshot), "{name}");
                assert_eq!(streamed, wal, "{name}");
                assert_eq!(wal, tricky_wal(), "{name}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(scratch_dir("stream"));
}

#[test]
fn folding_the_stream_recovers_the_state_the_loaded_wal_replays_to() {
    let cfg = RpConfig::uniform(5, 2);
    for (name, handle, _) in stores(&cfg, "fold") {
        // The reference: load everything, then replay record by record.
        let mut changes = ChangeSet::from_initial_weights(&cfg.initial_weights);
        let mut registers: BTreeMap<ObjectId, TaggedValue<u64>> = BTreeMap::new();
        if let Some((snapshot, wal)) = handle.load() {
            if let Some(snap) = snapshot {
                (changes, registers) = (snap.changes, snap.registers);
            }
            for record in wal {
                match record {
                    WalRecord::Change(c) => {
                        changes.insert(c);
                    }
                    WalRecord::Register(obj, reg) => {
                        let cur = registers.entry(obj).or_insert_with(|| reg);
                        cur.adopt_if_newer(&reg);
                    }
                }
            }
        }

        let server = DynServer::recover(cfg.clone(), s(0), DynOptions::default(), handle);
        assert_eq!(server.changes(), &changes, "{name}");
        assert_eq!(
            server.changes().delta_since(0),
            changes.delta_since(0),
            "{name}: journal order"
        );
        assert_eq!(server.registers(), &registers, "{name}");
    }
    let _ = std::fs::remove_dir_all(scratch_dir("fold"));
}

/// Stands in for a client: keeps the `R_A`s it receives.
#[derive(Default)]
struct Probe {
    replies: Vec<(bool, CsRef)>,
}

impl Actor for Probe {
    type Msg = DynMsg<u64>;
    fn on_message(&mut self, _: ActorId, msg: DynMsg<u64>, _: &mut Context<'_, DynMsg<u64>>) {
        if let DynMsg::RAck {
            accepted, changes, ..
        } = msg
        {
            self.replies.push((accepted, changes));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends `R` with `changes` from the probe to server 0 and returns its
/// answer.
fn ask(w: &mut World<DynMsg<u64>>, probe: ActorId, changes: CsRef) -> (bool, CsRef) {
    let obj = ObjectId::DEFAULT;
    w.inject(
        probe,
        ActorId(0),
        DynMsg::R {
            op: 1,
            obj,
            changes,
        },
    );
    w.run_to_quiescence();
    let replies = &mut w.actor_mut::<Probe>(probe).expect("the probe").replies;
    assert_eq!(replies.len(), 1, "one answer per request");
    replies.pop().expect("an answer")
}

#[test]
fn a_server_recovered_from_a_snapshot_accepts_only_its_own_length() {
    let cfg = RpConfig::uniform(3, 1);
    let options = DynOptions {
        // A snapshot every two WAL records: every transfer below ends in
        // one, so the recovered set is decoded from the snapshot alone.
        // The journal keeps everything.
        checkpoint: Some(CheckpointCadence::new(2, 16)),
        ..DynOptions::default()
    };
    let dir = scratch_dir("named");
    let _ = std::fs::remove_dir_all(&dir);
    let store = StorageHandle::<u64>::file(&dir);
    let mut w: World<DynMsg<u64>> = World::new(11, UniformLatency::new(1_000, 2_000));
    w.add_actor(DynServer::with_storage(
        cfg.clone(),
        s(0),
        options,
        store.clone(),
    ));
    for i in 1..3 {
        w.add_actor(DynServer::new(cfg.clone(), s(i), options));
    }
    let probe = w.add_actor(Probe::default());
    let server = |w: &World<DynMsg<u64>>| -> ChangeSet {
        w.actor::<DynServer<u64>>(ActorId(0))
            .expect("server 0")
            .changes()
            .clone()
    };
    // Server 0 learns s2's transfer before s1's; in set order s1's
    // changes come first. Record each set it held.
    let mut held = vec![server(&w)];
    for (from, to) in [(2, 1), (1, 0)] {
        w.with_actor_ctx(ActorId(from), |srv: &mut DynServer<u64>, ctx| {
            srv.begin_transfer(s(to), Ratio::new(1, 10), ctx)
                .expect("the transfer starts");
        })
        .expect("a live server");
        w.run_to_quiescence();
        held.push(server(&w));
    }
    let lens: Vec<usize> = held.iter().map(ChangeSet::len).collect();
    assert_eq!(lens, [3, 5, 7]);
    let before = server(&w);
    assert_eq!(before.prefix_digest(5), Some(held[1].digest()));

    w.crash_now(ActorId(0));
    let recovered = DynServer::<u64>::recover(cfg, s(0), options, store);
    w.restart_now(ActorId(0), Box::new(recovered));
    w.run_to_quiescence();
    let after = server(&w);
    assert_eq!(after, before);
    assert_ne!(
        after.prefix_digest(5),
        Some(held[1].digest()),
        "the snapshot decoded in the order the server learned its changes"
    );

    // Its own length is accepted; no other length is, the ones it held
    // included.
    for len in 0..10 {
        let (accepted, _) = ask(&mut w, probe, CsRef::length_only(len));
        assert_eq!(accepted, len == after.len(), "length {len}");
    }
    // A client that was accepted at 3 or 5 changes reaches equality in
    // one exchange and is accepted in the second.
    for set in &held[..2] {
        let mut client = set.clone();
        let (accepted, reply) = ask(&mut w, probe, CsRef::length_only(client.len()));
        assert!(!accepted);
        assert!(client.apply_ref(&reply).learned());
        assert_eq!(client, after, "after one exchange");
        let (accepted, _) = ask(&mut w, probe, CsRef::summary(&client));
        assert!(accepted, "the second exchange");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
