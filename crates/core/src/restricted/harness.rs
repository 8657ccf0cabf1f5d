//! A convenience harness wiring servers + clients into a simulated world.

use awr_sim::{ActorId, NetworkModel, World};
use awr_types::{ChangeSet, Ratio, ServerId, WeightMap};

use crate::problem::{RpConfig, TransferError, TransferOutcome};
use crate::restricted::core::{server_actor, ReadChangesResult};
use crate::restricted::messages::WrMsg;
use crate::restricted::server::{RpClient, RpServer};

/// A ready-to-run restricted pairwise weight reassignment system:
/// `n` servers at world indices `0..n`, `k` clients at `n..n+k`.
///
/// This harness is the *configuration layer* and is deliberately
/// object-agnostic: the weighted configuration it reassigns is shared
/// infrastructure beneath any number of keyed registers (see
/// `awr_storage`'s multi-object `StorageHarness`, where one transfer
/// issued through these same APIs re-weights the whole shard). Nothing
/// here needs an `ObjectId` — that is the point.
///
/// # Examples
///
/// ```
/// use awr_core::{RpConfig, RpHarness};
/// use awr_sim::UniformLatency;
/// use awr_types::{Ratio, ServerId};
///
/// let cfg = RpConfig::uniform(7, 2); // floor = 7/(2·5) = 0.7
/// let mut h = RpHarness::build(cfg, 1, 42, UniformLatency::new(1_000, 80_000));
///
/// // s4 moves 0.25 to s1: allowed, since 1 > 0.25 + 0.7.
/// let out = h.transfer_and_wait(ServerId(3), ServerId(0), Ratio::dec("0.25")).unwrap();
/// assert!(out.is_effective());
///
/// // s4 tries another 0.1: 0.75 > 0.1 + 0.7 fails → null outcome.
/// let out = h.transfer_and_wait(ServerId(3), ServerId(1), Ratio::dec("0.1")).unwrap();
/// assert!(!out.is_effective());
/// ```
pub struct RpHarness {
    /// The simulated world (exposed for metrics and custom driving).
    pub world: World<WrMsg>,
    cfg: RpConfig,
    n_clients: usize,
}

impl RpHarness {
    /// Builds a world with `n` servers and `n_clients` clients. `network`
    /// is any [`NetworkModel`] — a plain latency model or a bandwidth-aware
    /// topology.
    pub fn build(
        cfg: RpConfig,
        n_clients: usize,
        seed: u64,
        network: impl NetworkModel + 'static,
    ) -> RpHarness {
        let mut world = World::new(seed, network);
        for s in cfg.servers() {
            world.add_actor(RpServer::new(cfg.clone(), s));
        }
        for _ in 0..n_clients {
            world.add_actor(RpClient::new(cfg.clone()));
        }
        RpHarness {
            world,
            cfg,
            n_clients,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RpConfig {
        &self.cfg
    }

    /// Actor id of server `s`.
    pub fn server_actor(&self, s: ServerId) -> ActorId {
        server_actor(s)
    }

    /// Actor id of client `k` (0-based).
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

    /// Starts `transfer(from, to, Δ)` on server `from` and runs the world
    /// until the invocation completes. Returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`TransferError`] from the invocation; errors if the
    /// world quiesces without completing (e.g. too many crashes).
    pub fn transfer_and_wait(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<TransferOutcome, TransferError> {
        let actor = self.server_actor(from);
        let before = self
            .world
            .actor::<RpServer>(actor)
            .expect("server")
            .completed()
            .len();
        self.world
            .with_actor_ctx::<RpServer, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.transfer(to, delta, ctx).map(|_| ())
            })?;
        let done = self.world.run_until(|w| {
            w.actor::<RpServer>(actor)
                .map(|s| s.completed().len() > before)
                .unwrap_or(false)
        });
        if !done {
            return Err(TransferError::InvalidArguments {
                reason: "world quiesced before transfer completed (too many crashes?)".into(),
            });
        }
        Ok(self
            .world
            .actor::<RpServer>(actor)
            .expect("server")
            .completed()[before]
            .0
            .clone())
    }

    /// Starts `transfer` without waiting (for concurrency experiments).
    ///
    /// # Errors
    ///
    /// Propagates invocation errors.
    pub fn transfer_async(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<(), TransferError> {
        let actor = self.server_actor(from);
        self.world
            .with_actor_ctx::<RpServer, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.transfer(to, delta, ctx).map(|_| ())
            })
    }

    /// Starts a transfer in queued mode without waiting: a request issued
    /// while `from` is busy queues and is announced — batched with every
    /// other queued request — in a single `⟨T⟩` envelope when the in-flight
    /// transfer completes.
    ///
    /// # Errors
    ///
    /// Propagates invocation errors (never [`TransferError::Busy`]).
    pub fn transfer_queued(
        &mut self,
        from: ServerId,
        to: ServerId,
        delta: Ratio,
    ) -> Result<(), TransferError> {
        let actor = self.server_actor(from);
        self.world
            .with_actor_ctx::<RpServer, Result<_, TransferError>>(actor, |srv, ctx| {
                srv.transfer_queued(to, delta, ctx).map(|_| ())
            })
    }

    /// Invokes `read_changes(target)` from client `k` and runs until it
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates [`TransferError::Busy`]; errors if the world quiesces
    /// without completion.
    pub fn read_changes(
        &mut self,
        k: usize,
        target: ServerId,
    ) -> Result<ReadChangesResult, TransferError> {
        let actor = self.client_actor(k);
        let before = self
            .world
            .actor::<RpClient>(actor)
            .expect("client")
            .reader
            .results
            .len();
        self.world
            .with_actor_ctx::<RpClient, Result<_, TransferError>>(actor, |cl, ctx| {
                cl.read_changes(target, ctx)
            })?;
        let done = self.world.run_until(|w| {
            w.actor::<RpClient>(actor)
                .map(|c| c.reader.results.len() > before)
                .unwrap_or(false)
        });
        if !done {
            return Err(TransferError::InvalidArguments {
                reason: "world quiesced before read_changes completed".into(),
            });
        }
        Ok(self
            .world
            .actor::<RpClient>(actor)
            .expect("client")
            .reader
            .results[before]
            .clone())
    }

    /// Drives the deployment toward `target`: plans the current→target
    /// move as pairwise transfers (from server 0's view of the weights)
    /// and issues each one on its donor in queued mode — the reassignment
    /// half of the observe→decide→reassign loop for the bare restricted
    /// protocol (the storage-level driver lives in
    /// `awr_storage::PlacementDriver`). Returns the number of transfers
    /// issued; call [`RpHarness::settle`] to let them complete.
    ///
    /// # Errors
    ///
    /// Propagates the first invocation error.
    ///
    /// # Panics
    ///
    /// Panics if `target` has a different length or total than the current
    /// weights (see `awr_quorum::plan_transfers`).
    pub fn reassign_toward(&mut self, target: &WeightMap) -> Result<usize, TransferError> {
        let current = self.weights_seen_by(ServerId(0));
        let plan = awr_quorum::plan_transfers(&current, target);
        for t in &plan {
            self.transfer_queued(t.from, t.to, t.delta)?;
        }
        Ok(plan.len())
    }

    /// Runs until every server is idle (no pending transfer) and the event
    /// queue drains.
    pub fn settle(&mut self) {
        self.world.run_to_quiescence();
    }

    /// The change set of server `s` (its local `C`).
    pub fn server_changes(&self, s: ServerId) -> &ChangeSet {
        self.world
            .actor::<RpServer>(self.server_actor(s))
            .expect("server")
            .changes()
    }

    /// The weight vector as seen by server `s`.
    pub fn weights_seen_by(&self, s: ServerId) -> WeightMap {
        self.server_changes(s).weights(self.cfg.n)
    }

    /// All completed transfer outcomes across servers, with completion
    /// times, sorted by completion time (the auditor's input).
    pub fn all_completed(&self) -> Vec<(TransferOutcome, awr_sim::Time)> {
        let mut all = Vec::new();
        for s in self.cfg.servers() {
            if let Some(srv) = self.world.actor::<RpServer>(self.server_actor(s)) {
                all.extend(srv.completed().iter().cloned());
            }
        }
        all.sort_by_key(|(o, t)| (*t, o.from, o.counter));
        all
    }
}
