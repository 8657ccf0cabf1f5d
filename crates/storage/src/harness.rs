//! A wired world for the dynamic-weighted storage: `n` servers at indices
//! `0..n`, clients after them.

use std::collections::BTreeMap;

use awr_core::{RpConfig, TransferError, TransferOutcome};
use awr_sim::{ActorId, FaultPlan, NetworkModel, Time, World};
use awr_types::{Change, ChangeSet, ClientId, ObjectId, ProcessId, Ratio, ServerId};

use crate::durable::StorageHandle;
use crate::dynamic::{DynClient, DynCompletedOp, DynMsg, DynOptions, DynServer};
use crate::history::History;
use crate::Value;

/// A ready-to-run dynamic-weighted atomic storage system.
///
/// # Examples
///
/// ```
/// use awr_core::RpConfig;
/// use awr_sim::UniformLatency;
/// use awr_storage::{DynOptions, StorageHarness};
/// use awr_types::{Ratio, ServerId};
///
/// let cfg = RpConfig::uniform(7, 2);
/// let mut h: StorageHarness<u64> =
///     StorageHarness::build(cfg, 2, 7, UniformLatency::new(1_000, 50_000), DynOptions::default());
///
/// h.write(0, 42).unwrap();
/// // Weights move while the register keeps serving.
/// h.transfer_and_wait(ServerId(3), ServerId(0), Ratio::dec("0.25")).unwrap();
/// assert_eq!(h.read(1).unwrap().0, Some(42));
/// ```
pub struct StorageHarness<V: Value> {
    /// The simulated world (exposed for metrics and custom driving).
    pub world: World<DynMsg<V>>,
    cfg: RpConfig,
    n_clients: usize,
    options: DynOptions,
    /// Per-server durable stores (empty unless built with
    /// [`StorageHarness::build_durable`]). Index = server index. The
    /// handles outlive crashed incarnations — that is what recovery reads.
    storage: Vec<StorageHandle<V>>,
}

impl<V: Value> StorageHarness<V> {
    /// Builds the system. `network` is any [`NetworkModel`]: a plain
    /// latency model (infinite bandwidth) or a bandwidth-aware topology
    /// like [`awr_sim::constrained_uplink`] where message sizes shape the
    /// schedule.
    pub fn build(
        cfg: RpConfig,
        n_clients: usize,
        seed: u64,
        network: impl NetworkModel + 'static,
        options: DynOptions,
    ) -> StorageHarness<V> {
        let mut world = World::new(seed, network);
        for s in cfg.servers() {
            world.add_actor(DynServer::<V>::new(cfg.clone(), s, options));
        }
        for c in 0..n_clients {
            world.add_actor(DynClient::<V>::new(
                ProcessId::Client(ClientId(c as u32)),
                cfg.clone(),
                options,
            ));
        }
        StorageHarness {
            world,
            cfg,
            n_clients,
            options,
            storage: Vec::new(),
        }
    }

    /// Like [`StorageHarness::build`], but every server runs durably over
    /// its own in-memory [`StorageHandle`] (WAL + snapshots on the
    /// [`DynOptions::checkpoint`] cadence), which makes the harness's
    /// crash/restart machinery — [`StorageHarness::install_fault_plan`]
    /// and [`StorageHarness::restart_server`] — available.
    pub fn build_durable(
        cfg: RpConfig,
        n_clients: usize,
        seed: u64,
        network: impl NetworkModel + 'static,
        options: DynOptions,
    ) -> StorageHarness<V> {
        let mut world = World::new(seed, network);
        let mut storage = Vec::new();
        for s in cfg.servers() {
            let handle = StorageHandle::in_memory();
            world.add_actor(DynServer::<V>::with_storage(
                cfg.clone(),
                s,
                options,
                handle.clone(),
            ));
            storage.push(handle);
        }
        for c in 0..n_clients {
            world.add_actor(DynClient::<V>::new(
                ProcessId::Client(ClientId(c as u32)),
                cfg.clone(),
                options,
            ));
        }
        StorageHarness {
            world,
            cfg,
            n_clients,
            options,
            storage,
        }
    }

    /// Server `s`'s durable store, if the harness was built durable.
    pub fn storage_handle(&self, s: ServerId) -> Option<&StorageHandle<V>> {
        self.storage.get(s.index())
    }

    /// Installs a crash/restart campaign: every kill in `plan` becomes a
    /// scheduled crash, and every restart rebuilds that server via
    /// [`DynServer::recover`] from its durable store (so the rebooted
    /// incarnation replays snapshot + WAL and rejoins through the sync +
    /// refresh round).
    ///
    /// # Panics
    ///
    /// Panics if the harness was not built with
    /// [`StorageHarness::build_durable`], or if the plan targets a
    /// non-server actor.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        assert!(
            !self.storage.is_empty(),
            "fault plans need a durable harness (build_durable)"
        );
        for f in &plan.faults {
            assert!(
                f.actor.index() < self.cfg.n,
                "fault plan targets non-server actor {:?}",
                f.actor
            );
        }
        let cfg = self.cfg.clone();
        let options = self.options;
        let storage = self.storage.clone();
        plan.apply(&mut self.world, move |a| {
            Box::new(DynServer::<V>::recover(
                cfg.clone(),
                ServerId(a.index() as u32),
                options,
                storage[a.index()].clone(),
            ))
        });
    }

    /// Immediately reboots a previously crashed server from its durable
    /// store (the manual counterpart of a planned restart).
    ///
    /// # Panics
    ///
    /// Panics if the harness is not durable or the server is not down.
    pub fn restart_server(&mut self, s: ServerId) {
        let handle = self
            .storage
            .get(s.index())
            .expect("restart needs a durable harness (build_durable)")
            .clone();
        let server = DynServer::<V>::recover(self.cfg.clone(), s, self.options, handle);
        self.world
            .restart_now(self.server_actor(s), Box::new(server));
    }

    /// The configuration.
    pub fn config(&self) -> &RpConfig {
        &self.cfg
    }

    /// Actor id of server `s`.
    pub fn server_actor(&self, s: ServerId) -> ActorId {
        ActorId(s.index())
    }

    /// Actor id of client `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ n_clients`.
    pub fn client_actor(&self, k: usize) -> ActorId {
        assert!(k < self.n_clients, "client {k} out of range");
        ActorId(self.cfg.n + k)
    }

    /// Crashes server `s` immediately.
    pub fn crash_server(&mut self, s: ServerId) {
        self.world.crash_now(self.server_actor(s));
    }

    /// Test/bench hook: pre-seeds every server *and* every client with the
    /// same converged set of at least `extra` additional changes, so
    /// subsequent operations run in a large-|C| steady state. The changes
    /// come in cancelling ±1/1000 pairs on one target, leaving every weight
    /// (and hence quorum behaviour) untouched — what varies is purely the
    /// wire cost of referencing `C`. Call before driving any operation.
    /// Returns the seeded set (shared, copy-on-write, by all participants).
    pub fn seed_converged_changes(&mut self, extra: usize) -> ChangeSet {
        let n = self.cfg.n;
        let mut set = ChangeSet::new();
        let mut i = 0u64;
        while set.len() < extra {
            let t = ServerId((i % n as u64) as u32);
            set.insert(Change::new(t, 1_000 + i, t, Ratio::new(1, 1000)));
            set.insert(Change::new(t, 1_000 + i, t, Ratio::new(-1, 1000)));
            i += 1;
        }
        for s in self.cfg.servers() {
            let a = self.server_actor(s);
            self.world
                .actor_mut::<DynServer<V>>(a)
                .expect("server")
                .seed_changes(&set);
        }
        for k in 0..self.n_clients {
            let a = self.client_actor(k);
            self.world
                .actor_mut::<DynClient<V>>(a)
                .expect("client")
                .driver
                .changes
                .merge(&set);
        }
        set
    }

    fn run_client_op(
        &mut self,
        k: usize,
        start: impl FnOnce(&mut DynClient<V>, &mut awr_sim::Context<'_, DynMsg<V>>),
    ) -> Result<DynCompletedOp<V>, TransferError> {
        let actor = self.client_actor(k);
        let before = self
            .world
            .actor::<DynClient<V>>(actor)
            .expect("client")
            .driver
            .completed
            .len();
        self.world
            .with_actor_ctx::<DynClient<V>, _>(actor, start)
            .ok_or(TransferError::Crashed)?;
        let done = self.world.run_until(|w| {
            w.actor::<DynClient<V>>(actor)
                .map(|c| c.driver.completed.len() > before)
                .unwrap_or(false)
        });
        if !done {
            return Err(TransferError::InvalidArguments {
                reason: "world quiesced before the operation completed".into(),
            });
        }
        // Nudge virtual time forward so an operation invoked right after
        // this one strictly follows it in real-time order (the harness is
        // the "global clock" of §II; checker precedence is strict).
        self.world.run_for(1);
        Ok(self
            .world
            .actor::<DynClient<V>>(actor)
            .expect("client")
            .driver
            .completed
            .get(before)
            .expect("the operation's record"))
    }

    /// Client `k` writes `v` to the [default object](ObjectId::DEFAULT),
    /// running the world until completion.
    ///
    /// # Errors
    ///
    /// Errors if client `k` has crashed, or if the world quiesces first
    /// (too many crashes).
    pub fn write(&mut self, k: usize, v: V) -> Result<DynCompletedOp<V>, TransferError> {
        self.write_obj(k, ObjectId::DEFAULT, v)
    }

    /// Client `k` reads the [default object](ObjectId::DEFAULT), returning
    /// `(value, op record)`.
    ///
    /// # Errors
    ///
    /// Errors if client `k` has crashed, or if the world quiesces first.
    pub fn read(&mut self, k: usize) -> Result<(Option<V>, DynCompletedOp<V>), TransferError> {
        self.read_obj(k, ObjectId::DEFAULT)
    }

    /// Client `k` writes `v` to `obj`, running the world until completion.
    ///
    /// # Errors
    ///
    /// Errors if client `k` has crashed, or if the world quiesces first
    /// (too many crashes).
    pub fn write_obj(
        &mut self,
        k: usize,
        obj: ObjectId,
        v: V,
    ) -> Result<DynCompletedOp<V>, TransferError> {
        self.run_client_op(k, |c, ctx| c.begin_write_obj(obj, v, ctx))
    }

    /// Client `k` reads `obj`, returning `(value, op record)`.
    ///
    /// # Errors
    ///
    /// Errors if client `k` has crashed, or if the world quiesces first.
    pub fn read_obj(
        &mut self,
        k: usize,
        obj: ObjectId,
    ) -> Result<(Option<V>, DynCompletedOp<V>), TransferError> {
        let op = self.run_client_op(k, |c, ctx| c.begin_read_obj(obj, ctx))?;
        let v = match &op.kind {
            crate::history::OpKind::Read(v) => v.clone(),
            crate::history::OpKind::Write(_) => unreachable!("read returned a write record"),
        };
        Ok((v, op))
    }

    /// Starts a client op on the [default object](ObjectId::DEFAULT)
    /// without waiting (for concurrency experiments).
    pub fn begin_async(&mut self, k: usize, value: Option<V>) {
        self.begin_async_obj(k, ObjectId::DEFAULT, value);
    }

    /// Starts a client op on `obj` without waiting.
    ///
    /// # Panics
    ///
    /// Panics if client `k` has crashed: a crashed process takes no step.
    pub fn begin_async_obj(&mut self, k: usize, obj: ObjectId, value: Option<V>) {
        let actor = self.client_actor(k);
        self.world
            .with_actor_ctx::<DynClient<V>, _>(actor, |c, ctx| match value {
                Some(v) => c.begin_write_obj(obj, v, ctx),
                None => c.begin_read_obj(obj, ctx),
            })
            .unwrap_or_else(|| panic!("client {k} has crashed"));
    }

    /// Whether client `k` has an operation in flight.
    pub fn client_busy(&self, k: usize) -> bool {
        self.world
            .actor::<DynClient<V>>(self.client_actor(k))
            .map(|c| c.driver.is_busy())
            .unwrap_or(false)
    }

    /// Server `from` transfers `Δ` to `to`; runs until the invocation
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates invocation errors, and [`TransferError::Crashed`] if
    /// `from` has crashed; errors if the world quiesces first.
    pub fn transfer_and_wait(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<TransferOutcome, TransferError> {
        let actor = self.server_actor(from);
        let before = self
            .world
            .actor::<DynServer<V>>(actor)
            .expect("server")
            .completed_transfers()
            .len();
        self.world
            .with_actor_ctx::<DynServer<V>, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.begin_transfer(to, delta, ctx).map(|_| ())
            })
            .unwrap_or(Err(TransferError::Crashed))?;
        let done = self.world.run_until(|w| {
            w.actor::<DynServer<V>>(actor)
                .map(|s| s.completed_transfers().len() > before)
                .unwrap_or(false)
        });
        if !done {
            return Err(TransferError::InvalidArguments {
                reason: "world quiesced before the transfer completed".into(),
            });
        }
        Ok(self
            .world
            .actor::<DynServer<V>>(actor)
            .expect("server")
            .completed_transfers()[before]
            .0
            .clone())
    }

    /// Starts a transfer without waiting.
    ///
    /// # Errors
    ///
    /// Propagates invocation errors; [`TransferError::Crashed`] if `from`
    /// has crashed.
    pub fn transfer_async(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<(), TransferError> {
        let actor = self.server_actor(from);
        self.world
            .with_actor_ctx::<DynServer<V>, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.begin_transfer(to, delta, ctx).map(|_| ())
            })
            .unwrap_or(Err(TransferError::Crashed))
    }

    /// Starts a transfer in queued mode without waiting: requests issued
    /// while `from` is busy queue up and are announced batched in one
    /// `⟨T⟩` envelope when the in-flight transfer completes.
    ///
    /// # Errors
    ///
    /// Propagates invocation errors (never [`TransferError::Busy`]);
    /// [`TransferError::Crashed`] if `from` has crashed.
    pub fn transfer_queued(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<(), TransferError> {
        let actor = self.server_actor(from);
        self.world
            .with_actor_ctx::<DynServer<V>, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.begin_transfer_queued(to, delta, ctx).map(|_| ())
            })
            .unwrap_or(Err(TransferError::Crashed))
    }

    /// Runs the world to quiescence.
    pub fn settle(&mut self) {
        self.world.run_to_quiescence();
    }

    /// Collects the full operation history across clients (all objects;
    /// each op carries its [`ObjectId`]).
    pub fn history(&self) -> History<V> {
        let mut h = History::new();
        for k in 0..self.n_clients {
            if let Some(c) = self.world.actor::<DynClient<V>>(self.client_actor(k)) {
                for op in c.history_ops(k) {
                    h.record(op);
                }
            }
        }
        h
    }

    /// The history split per object — the input shape of
    /// [`crate::check_linearizable_keyed`]'s underlying partition, exposed
    /// for per-object reporting.
    pub fn keyed_history(&self) -> BTreeMap<ObjectId, History<V>> {
        self.history().partition_by_object()
    }

    /// Per-object operation counts and mean latency (virtual ms) over the
    /// *whole* recorded history — the latency side of the per-object
    /// metrics (the byte side lives in
    /// [`awr_sim::Metrics::bytes_of_object`]).
    pub fn per_object_latency(&self) -> BTreeMap<ObjectId, (usize, f64)> {
        self.history().per_object_latency()
    }

    /// All completed transfers across servers, sorted by completion time
    /// (the auditor's input).
    pub fn all_completed_transfers(&self) -> Vec<(TransferOutcome, Time)> {
        let mut all = Vec::new();
        for s in self.cfg.servers() {
            let a = self.server_actor(s);
            if let Some(srv) = self.world.actor::<DynServer<V>>(a) {
                all.extend(srv.completed_transfers().iter().cloned());
            }
            // A crash wipes the live list; the auditor is an omniscient
            // observer, so completions recorded by dead incarnations still
            // count (incarnations are disjoint — a recovered server starts
            // with an empty list).
            for dead in self.world.dead_incarnations::<DynServer<V>>(a) {
                all.extend(dead.completed_transfers().iter().cloned());
            }
        }
        all.sort_by_key(|(o, t)| (*t, o.from, o.counter));
        all
    }

    /// Total restarts across all clients (staleness metric).
    pub fn total_restarts(&self) -> u64 {
        (0..self.n_clients)
            .filter_map(|k| self.world.actor::<DynClient<V>>(self.client_actor(k)))
            .flat_map(|c| c.driver.completed.iter().map(|o| o.restarts))
            .sum()
    }
}
