//! Classic multi-writer ABD atomic storage over a *static* quorum rule —
//! the MQS and static-WMQS baselines the dynamic-weighted storage is
//! compared against (experiment E7).
//!
//! The client runs the two-phase protocol of Algorithm 5 minus the change
//! sets; the server is Algorithm 6 minus the change sets. Like the dynamic
//! engine, servers host a keyed register *map* ([`ObjectId`]) under one
//! quorum rule; the single-object entry points operate on
//! [`ObjectId::DEFAULT`].

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

use awr_epoch::CheckpointCadence;
use awr_sim::{Actor, ActorId, Context, Message, Time};
use awr_types::{ChangeSet, ObjectId, ProcessId, ServerId, Tag, TaggedValue};

use crate::durable::{Snapshot, StorageHandle, WalRecord};
use crate::dynamic::ReadMode;
use crate::history::{HistOp, OpKind};
use crate::quorum_rule::QuorumRule;

/// Values stored in registers.
pub trait Value: Clone + Eq + std::hash::Hash + fmt::Debug + Send + 'static {}
impl<T: Clone + Eq + std::hash::Hash + fmt::Debug + Send + 'static> Value for T {}

/// Wire messages of static ABD.
#[derive(Clone, Debug)]
pub enum AbdMsg<V> {
    /// Phase-1 request (`⟨R, obj, opCnt⟩`).
    R {
        /// Client-local operation counter.
        op: u64,
        /// The object being read or written.
        obj: ObjectId,
    },
    /// Phase-1 reply (`⟨R_A, obj, reg, opCnt⟩`).
    RAck {
        /// Echo of the request counter.
        op: u64,
        /// Echo of the object key.
        obj: ObjectId,
        /// The server's register content for that object.
        reg: TaggedValue<V>,
    },
    /// Phase-2 request (`⟨W, obj, ⟨tag, val⟩, opCnt⟩`).
    W {
        /// Client-local operation counter.
        op: u64,
        /// The object being written back.
        obj: ObjectId,
        /// The tagged value to store.
        reg: TaggedValue<V>,
    },
    /// Phase-2 reply (`⟨W_A, obj, opCnt⟩`).
    WAck {
        /// Echo of the request counter.
        op: u64,
        /// Echo of the object key.
        obj: ObjectId,
    },
}

impl<V: Value> Message for AbdMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            AbdMsg::R { .. } => "R",
            AbdMsg::RAck { .. } => "R_A",
            AbdMsg::W { .. } => "W",
            AbdMsg::WAck { .. } => "W_A",
        }
    }

    fn object_key(&self) -> Option<u64> {
        match self {
            AbdMsg::R { obj, .. }
            | AbdMsg::RAck { obj, .. }
            | AbdMsg::W { obj, .. }
            | AbdMsg::WAck { obj, .. } => Some(obj.key()),
        }
    }
}

/// A static-ABD server: stores a sparse map of tagged registers, one per
/// object (absent = bottom). Optionally durable: with a
/// [`StorageHandle`] attached, every adopted register is WAL-logged (and
/// folded into a snapshot on the configured cadence), and
/// [`AbdServer::recover`] rebuilds a crashed server from that state. The
/// static protocol has no change set, so its WAL carries
/// [`WalRecord::Register`] entries only.
#[derive(Debug)]
pub struct AbdServer<V> {
    registers: BTreeMap<ObjectId, TaggedValue<V>>,
    storage: Option<StorageHandle<V>>,
    checkpoint: Option<CheckpointCadence>,
}

impl<V: Value> AbdServer<V> {
    /// Creates an empty server.
    pub fn new() -> AbdServer<V> {
        AbdServer {
            registers: BTreeMap::new(),
            storage: None,
            checkpoint: None,
        }
    }

    /// Creates an empty *durable* server: adopted registers are appended
    /// to `storage`'s WAL and snapshotted on the `checkpoint` cadence
    /// (`None` = WAL only, never snapshot).
    pub fn with_storage(
        storage: StorageHandle<V>,
        checkpoint: Option<CheckpointCadence>,
    ) -> AbdServer<V> {
        AbdServer {
            registers: BTreeMap::new(),
            storage: Some(storage),
            checkpoint,
        }
    }

    /// Rebuilds a crashed server from its durable state: snapshot
    /// registers, then the WAL suffix replayed with the same
    /// adopt-if-newer rule the live path uses. No rejoin round is needed —
    /// static ABD's phase-2 write-back re-propagates anything this server
    /// missed while down, exactly as it does for a slow server.
    pub fn recover(
        storage: StorageHandle<V>,
        checkpoint: Option<CheckpointCadence>,
    ) -> AbdServer<V> {
        // The static protocol logs no changes: only the registers matter.
        let (_, registers) = storage.recover_state(ChangeSet::default());
        AbdServer {
            registers,
            storage: Some(storage),
            checkpoint,
        }
    }

    /// The [default object](ObjectId::DEFAULT)'s register (inspection).
    pub fn register(&self) -> TaggedValue<V> {
        self.register_of(ObjectId::DEFAULT)
    }

    /// The register stored for `obj` (bottom if never written).
    pub fn register_of(&self, obj: ObjectId) -> TaggedValue<V> {
        self.registers
            .get(&obj)
            .cloned()
            .unwrap_or_else(TaggedValue::bottom)
    }

    fn adopt_register(&mut self, obj: ObjectId, incoming: &TaggedValue<V>) {
        let adopted = match self.registers.get_mut(&obj) {
            Some(cur) => cur.adopt_if_newer(incoming),
            None => {
                if incoming.tag > Tag::bottom() {
                    self.registers.insert(obj, incoming.clone());
                    true
                } else {
                    false
                }
            }
        };
        if !adopted {
            return;
        }
        if let Some(st) = &self.storage {
            st.append(WalRecord::Register(obj, incoming.clone()));
            if let Some(cad) = self.checkpoint {
                if cad.due(st.wal_len()) {
                    st.install_snapshot(Snapshot {
                        changes: ChangeSet::default(),
                        registers: self.registers.clone(),
                    });
                }
            }
        }
    }
}

impl<V: Value> Default for AbdServer<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Actor for AbdServer<V> {
    type Msg = AbdMsg<V>;

    fn on_message(&mut self, from: ActorId, msg: AbdMsg<V>, ctx: &mut Context<'_, AbdMsg<V>>) {
        match msg {
            AbdMsg::R { op, obj } => {
                ctx.send(
                    from,
                    AbdMsg::RAck {
                        op,
                        obj,
                        reg: self.register_of(obj),
                    },
                );
            }
            AbdMsg::W { op, obj, reg } => {
                self.adopt_register(obj, &reg);
                ctx.send(from, AbdMsg::WAck { op, obj });
            }
            AbdMsg::RAck { .. } | AbdMsg::WAck { .. } => { /* client messages; ignore */ }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a completed client operation looked like (for histories/metrics).
#[derive(Clone, Debug)]
pub struct CompletedOp<V> {
    /// The object the operation targeted.
    pub obj: ObjectId,
    /// Read result (`None` = register unwritten) or the written value.
    pub kind: OpKind<V>,
    /// Invocation time.
    pub invoke: Time,
    /// Response time.
    pub response: Time,
}

#[derive(Debug)]
enum Phase<V> {
    Idle,
    One {
        op: u64,
        obj: ObjectId,
        write_value: Option<V>, // None = read
        invoke: Time,
        replies: BTreeMap<ServerId, TaggedValue<V>>,
    },
    Two {
        op: u64,
        obj: ObjectId,
        write_value: Option<V>,
        invoke: Time,
        chosen: TaggedValue<V>,
        acks: std::collections::BTreeSet<ServerId>,
    },
}

/// A static-ABD client (reader/writer).
#[derive(Debug)]
pub struct AbdClient<V> {
    id: ProcessId,
    n_servers: usize,
    rule: QuorumRule,
    read: ReadMode,
    op_cnt: u64,
    phase: Phase<V>,
    /// Completed operations, oldest first.
    pub completed: Vec<CompletedOp<V>>,
}

impl<V: Value> AbdClient<V> {
    /// Creates a client. Servers must occupy world indices `0..n_servers`.
    /// Reads use the one-phase fast path by default
    /// ([`ReadMode::FastPath`]); see [`AbdClient::with_read_mode`].
    pub fn new(id: ProcessId, n_servers: usize, rule: QuorumRule) -> AbdClient<V> {
        AbdClient {
            id,
            n_servers,
            rule,
            read: ReadMode::default(),
            op_cnt: 0,
            phase: Phase::Idle,
            completed: Vec::new(),
        }
    }

    /// Sets the read completion strategy (builder style). The static
    /// baseline shares the [`ReadMode`] knob of the dynamic engine: under
    /// [`ReadMode::FastPath`] a read returns after phase 1 when the
    /// repliers reporting the max tag are themselves a quorum under
    /// `rule`, and an incomplete phase 2 write-backs only the stale
    /// repliers.
    pub fn with_read_mode(mut self, read: ReadMode) -> AbdClient<V> {
        self.read = read;
        self
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// Begins a read of the [default object](ObjectId::DEFAULT)
    /// (`read() ≡ read_write(⊥)`).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight (processes are
    /// sequential).
    pub fn begin_read(&mut self, ctx: &mut Context<'_, AbdMsg<V>>) {
        self.begin(ObjectId::DEFAULT, None, ctx);
    }

    /// Begins a write of `value` to the [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_write(&mut self, value: V, ctx: &mut Context<'_, AbdMsg<V>>) {
        self.begin(ObjectId::DEFAULT, Some(value), ctx);
    }

    /// Begins a read of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_read_obj(&mut self, obj: ObjectId, ctx: &mut Context<'_, AbdMsg<V>>) {
        self.begin(obj, None, ctx);
    }

    /// Begins a write of `value` to `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_write_obj(&mut self, obj: ObjectId, value: V, ctx: &mut Context<'_, AbdMsg<V>>) {
        self.begin(obj, Some(value), ctx);
    }

    fn begin(&mut self, obj: ObjectId, write_value: Option<V>, ctx: &mut Context<'_, AbdMsg<V>>) {
        assert!(!self.is_busy(), "client already has an operation in flight");
        self.op_cnt += 1;
        let op = self.op_cnt;
        self.phase = Phase::One {
            op,
            obj,
            write_value,
            invoke: ctx.now(),
            replies: BTreeMap::new(),
        };
        for i in 0..self.n_servers {
            ctx.send(ActorId(i), AbdMsg::R { op, obj });
        }
    }

    fn server_of(&self, a: ActorId) -> ServerId {
        ServerId(a.index() as u32)
    }

    fn handle(&mut self, from: ActorId, msg: AbdMsg<V>, ctx: &mut Context<'_, AbdMsg<V>>) {
        let sid = self.server_of(from);
        match (&mut self.phase, msg) {
            (
                Phase::One {
                    op,
                    obj,
                    write_value,
                    invoke,
                    replies,
                },
                AbdMsg::RAck {
                    op: mop,
                    obj: mobj,
                    reg,
                },
            ) if mop == *op && mobj == *obj => {
                replies.insert(sid, reg);
                let responders: std::collections::BTreeSet<ServerId> =
                    replies.keys().copied().collect();
                if self.rule.is_quorum(&responders) {
                    // Select the highest tag.
                    let maxreg = replies
                        .values()
                        .max_by_key(|r| r.tag)
                        .expect("nonempty replies")
                        .clone();
                    let is_read = write_value.is_none();
                    // The fast-path read rule, static form: the repliers
                    // already storing the max tag (they need no write-back;
                    // their phase-1 acks double as phase-2 acks).
                    let mut fresh: std::collections::BTreeSet<ServerId> = Default::default();
                    if is_read && self.read == ReadMode::FastPath {
                        fresh = replies
                            .iter()
                            .filter(|(_, r)| r.tag == maxreg.tag)
                            .map(|(s, _)| *s)
                            .collect();
                        if self.rule.is_quorum(&fresh) {
                            ctx.record_counter("read_fastpath_hit", 1);
                            self.completed.push(CompletedOp {
                                obj: *obj,
                                kind: OpKind::Read(maxreg.value.clone()),
                                invoke: *invoke,
                                response: ctx.now(),
                            });
                            self.phase = Phase::Idle;
                            return;
                        }
                        ctx.record_counter("read_fastpath_miss", 1);
                    }
                    let (chosen, wv) = match write_value.take() {
                        None => (maxreg, None), // read: write back as-is
                        Some(v) => {
                            let tag = Tag::new(maxreg.tag.ts + 1, self.id);
                            (TaggedValue::new(tag, v.clone()), Some(v))
                        }
                    };
                    let op = *op;
                    let obj = *obj;
                    let invoke = *invoke;
                    // Targeted write-back (see the dynamic driver): fresh
                    // repliers are pre-counted as acks, W goes only to the
                    // stale repliers. Empty `fresh` = full broadcast.
                    let stale: Vec<ServerId> = replies
                        .keys()
                        .filter(|s| !fresh.contains(s))
                        .copied()
                        .collect();
                    let full_fanout = fresh.is_empty();
                    if is_read && self.read == ReadMode::FastPath {
                        let fan = if full_fanout {
                            self.n_servers
                        } else {
                            stale.len()
                        };
                        ctx.record_sample("read_writeback_fanout", fan as u64);
                    }
                    self.phase = Phase::Two {
                        op,
                        obj,
                        write_value: wv,
                        invoke,
                        chosen: chosen.clone(),
                        acks: fresh,
                    };
                    ctx.broadcast_filter(
                        (0..self.n_servers).map(ActorId),
                        AbdMsg::W {
                            op,
                            obj,
                            reg: chosen.clone(),
                        },
                        |a| full_fanout || stale.iter().any(|s| s.index() == a.index()),
                    );
                }
            }
            (
                Phase::Two {
                    op,
                    obj,
                    write_value,
                    invoke,
                    chosen,
                    acks,
                },
                AbdMsg::WAck { op: mop, obj: mobj },
            ) if mop == *op && mobj == *obj => {
                acks.insert(sid);
                if self.rule.is_quorum(acks) {
                    let kind = match write_value.take() {
                        None => OpKind::Read(chosen.value.clone()),
                        Some(v) => OpKind::Write(v),
                    };
                    self.completed.push(CompletedOp {
                        obj: *obj,
                        kind,
                        invoke: *invoke,
                        response: ctx.now(),
                    });
                    self.phase = Phase::Idle;
                }
            }
            _ => { /* stale or mismatched reply */ }
        }
    }

    /// Converts completed ops into history entries for client index `ci`.
    pub fn history_ops(&self, ci: usize) -> Vec<HistOp<V>> {
        self.completed
            .iter()
            .map(|c| HistOp {
                client: ci,
                obj: c.obj,
                kind: c.kind.clone(),
                invoke: c.invoke,
                response: c.response,
            })
            .collect()
    }
}

impl<V: Value> Actor for AbdClient<V> {
    type Msg = AbdMsg<V>;

    fn on_message(&mut self, from: ActorId, msg: AbdMsg<V>, ctx: &mut Context<'_, AbdMsg<V>>) {
        self.handle(from, msg, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::lin::check_linearizable;
    use awr_sim::{UniformLatency, World};
    use awr_types::ClientId;

    fn build(
        n: usize,
        clients: usize,
        rule: QuorumRule,
        seed: u64,
    ) -> (World<AbdMsg<u64>>, Vec<ActorId>) {
        let mut w = World::new(seed, UniformLatency::new(1_000, 60_000));
        for _ in 0..n {
            w.add_actor(AbdServer::<u64>::new());
        }
        let mut ids = Vec::new();
        for c in 0..clients {
            ids.push(w.add_actor(AbdClient::<u64>::new(
                ProcessId::Client(ClientId(c as u32)),
                n,
                rule.clone(),
            )));
        }
        (w, ids)
    }

    fn run_op(w: &mut World<AbdMsg<u64>>, client: ActorId, value: Option<u64>) -> CompletedOp<u64> {
        let before = w.actor::<AbdClient<u64>>(client).unwrap().completed.len();
        w.with_actor_ctx::<AbdClient<u64>, _>(client, |c, ctx| match value {
            Some(v) => c.begin_write(v, ctx),
            None => c.begin_read(ctx),
        });
        assert!(w.run_until(|w| {
            w.actor::<AbdClient<u64>>(client).unwrap().completed.len() > before
        }));
        w.actor::<AbdClient<u64>>(client).unwrap().completed[before].clone()
    }

    #[test]
    fn write_then_read_majority() {
        let (mut w, ids) = build(5, 2, QuorumRule::majority(5), 1);
        run_op(&mut w, ids[0], Some(42));
        let r = run_op(&mut w, ids[1], None);
        assert_eq!(r.kind, OpKind::Read(Some(42)));
    }

    #[test]
    fn read_before_any_write_returns_none() {
        let (mut w, ids) = build(5, 1, QuorumRule::majority(5), 2);
        let r = run_op(&mut w, ids[0], None);
        assert_eq!(r.kind, OpKind::Read(None));
    }

    #[test]
    fn survives_f_crashes() {
        let (mut w, ids) = build(5, 2, QuorumRule::majority(5), 3);
        w.crash_now(ActorId(0));
        w.crash_now(ActorId(1));
        run_op(&mut w, ids[0], Some(7));
        let r = run_op(&mut w, ids[1], None);
        assert_eq!(r.kind, OpKind::Read(Some(7)));
    }

    #[test]
    fn weighted_rule_uses_fast_heavy_servers() {
        // Heavy servers 0,1 form a quorum alone.
        let rule = QuorumRule::weighted(awr_types::WeightMap::dec(&["2", "2", "1", "1", "1"]));
        let (mut w, ids) = build(5, 1, rule, 4);
        // Crash all three light servers: the heavy pair still serves.
        w.crash_now(ActorId(2));
        w.crash_now(ActorId(3));
        w.crash_now(ActorId(4));
        run_op(&mut w, ids[0], Some(9));
        let r = run_op(&mut w, ids[0], None);
        assert_eq!(r.kind, OpKind::Read(Some(9)));
    }

    #[test]
    fn quiescent_read_is_one_phase() {
        let (mut w, ids) = build(5, 2, QuorumRule::majority(5), 9);
        run_op(&mut w, ids[0], Some(42));
        w.run_to_quiescence();
        let before = w.metrics().clone();
        let r = run_op(&mut w, ids[1], None);
        assert_eq!(r.kind, OpKind::Read(Some(42)));
        let win = w.metrics().since(&before);
        assert_eq!(win.sent_of_kind("W"), 0, "settled read must skip phase 2");
        assert_eq!(win.counter("read_fastpath_hit"), 1);
    }

    #[test]
    fn two_phase_mode_restores_full_write_back() {
        let mut w = World::new(10, UniformLatency::new(1_000, 60_000));
        for _ in 0..5 {
            w.add_actor(AbdServer::<u64>::new());
        }
        let cid = w.add_actor(
            AbdClient::<u64>::new(ProcessId::Client(ClientId(0)), 5, QuorumRule::majority(5))
                .with_read_mode(ReadMode::TwoPhase),
        );
        run_op(&mut w, cid, Some(7));
        w.run_to_quiescence();
        let before = w.metrics().clone();
        let r = run_op(&mut w, cid, None);
        assert_eq!(r.kind, OpKind::Read(Some(7)));
        let win = w.metrics().since(&before);
        assert_eq!(win.sent_of_kind("W"), 5, "two-phase read broadcasts W");
        assert_eq!(win.counter("read_fastpath_hit"), 0);
    }

    #[test]
    fn partially_propagated_value_takes_targeted_write_back() {
        // Write to all five, then crash nothing but deliver the read's
        // phase-1 before any state diverges: all fresh. To force a miss,
        // use a weighted rule where a *heavy* stale server must be caught
        // up: write with only heavy servers alive is not possible without
        // crashes, so instead drive the divergence by hand: store a newer
        // register on two of five servers via a direct W injection.
        let (mut w, ids) = build(5, 1, QuorumRule::majority(5), 12);
        run_op(&mut w, ids[0], Some(1));
        w.run_to_quiescence();
        // Hand-adopt a newer tag on servers 0 and 1 only (a write that
        // died mid-phase-2).
        let newer = TaggedValue::new(Tag::new(99, ProcessId::Client(ClientId(9))), 5u64);
        for i in 0..2 {
            w.with_actor_ctx::<AbdServer<u64>, _>(ActorId(i), |s, _| {
                s.adopt_register(ObjectId::DEFAULT, &newer);
            });
        }
        let before = w.metrics().clone();
        let r = run_op(&mut w, ids[0], None);
        // The read must return the newer value and write it back to the
        // stale repliers only — fewer than the full fanout of 5.
        assert_eq!(r.kind, OpKind::Read(Some(5)));
        let win = w.metrics().since(&before);
        assert_eq!(win.counter("read_fastpath_miss"), 1);
        let w_sent = win.sent_of_kind("W");
        assert!(
            (1..5).contains(&w_sent),
            "write-back must target only stale repliers, sent {w_sent}"
        );
        // A follow-up read now finds the value settled on a quorum.
        let r2 = run_op(&mut w, ids[0], None);
        assert_eq!(r2.kind, OpKind::Read(Some(5)));
    }

    #[test]
    fn random_workload_is_linearizable() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..5 {
            let (mut w, ids) = build(5, 3, QuorumRule::majority(5), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            // Issue 60 random ops round-robin; run to completion each time
            // on a random subset to create overlap.
            let mut next_val = 100;
            for _ in 0..20 {
                // Start an op on every idle client with 70% probability.
                for &cid in &ids {
                    let idle = !w.actor::<AbdClient<u64>>(cid).unwrap().is_busy();
                    if idle && rng.random_range(0..10) < 7 {
                        let write = rng.random_range(0..2) == 0;
                        w.with_actor_ctx::<AbdClient<u64>, _>(cid, |c, ctx| {
                            if write {
                                c.begin_write(next_val, ctx);
                            } else {
                                c.begin_read(ctx);
                            }
                        });
                        next_val += 1;
                    }
                }
                // Let the world advance a bit (ops interleave).
                w.run_for(120_000);
            }
            w.run_to_quiescence();
            let mut h = History::new();
            for (ci, &cid) in ids.iter().enumerate() {
                for op in w.actor::<AbdClient<u64>>(cid).unwrap().history_ops(ci) {
                    h.record(op);
                }
            }
            assert!(h.len() > 10, "seed {seed}: too few completed ops");
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
