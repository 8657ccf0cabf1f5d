//! The pure weight-reassignment server actor (Algorithm 4 host without a
//! register — change application is immediate).

use std::any::Any;

use awr_sim::{Actor, ActorId, Context};
use awr_types::{ChangeSet, Ratio, ServerId};

use crate::problem::{RpConfig, TransferError, TransferOutcome};
use crate::restricted::core::{CoreEvent, TransferCore, TransferStart};
use crate::restricted::messages::WrMsg;
use crate::Time;

/// A server running the restricted pairwise weight reassignment protocol.
///
/// Hosts a [`TransferCore`]; applies learned changes immediately (there is
/// no register to refresh). Use
/// [`RpHarness`](crate::restricted::RpHarness) to build a full system, or
/// drive servers directly through
/// [`World::with_actor_ctx`](awr_sim::World::with_actor_ctx).
#[derive(Debug)]
pub struct RpServer {
    core: TransferCore,
    /// Completion notifications (the `⟨Complete, c⟩` messages), oldest first.
    pub complete_log: Vec<TransferOutcome>,
}

impl RpServer {
    /// Creates the server for `me`. Servers must occupy world indices
    /// `0..n`.
    pub fn new(cfg: RpConfig, me: ServerId) -> RpServer {
        RpServer {
            core: TransferCore::new(cfg, me),
            complete_log: Vec::new(),
        }
    }

    /// This server's current weight (from its local change set).
    pub fn weight(&self) -> Ratio {
        self.core.weight()
    }

    /// The local change set `C`.
    pub fn changes(&self) -> &ChangeSet {
        self.core.changes()
    }

    /// Completed own transfers with completion times.
    pub fn completed(&self) -> &[(TransferOutcome, Time)] {
        self.core.completed()
    }

    /// Whether a transfer is in flight.
    pub fn is_busy(&self) -> bool {
        self.core.is_busy()
    }

    /// Invokes `transfer(me, to, Δ)`.
    ///
    /// # Errors
    ///
    /// See [`TransferCore::transfer`].
    pub fn transfer(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, WrMsg>,
    ) -> Result<TransferStart, TransferError> {
        let r = self.core.transfer(to, delta, ctx, |m| m)?;
        if let TransferStart::Null(o) = &r {
            self.complete_log.push(o.clone());
        }
        Ok(r)
    }

    /// Like [`RpServer::transfer`], but queues behind an in-flight transfer
    /// instead of failing `Busy`; drained requests are announced batched in
    /// one `⟨T⟩` envelope (see [`TransferCore::transfer_queued`]).
    ///
    /// # Errors
    ///
    /// See [`TransferCore::transfer_queued`].
    pub fn transfer_queued(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, WrMsg>,
    ) -> Result<TransferStart, TransferError> {
        let r = self.core.transfer_queued(to, delta, ctx, |m| m)?;
        if let TransferStart::Null(o) = &r {
            self.complete_log.push(o.clone());
        }
        Ok(r)
    }
}

impl Actor for RpServer {
    type Msg = WrMsg;

    fn on_message(&mut self, from: ActorId, msg: WrMsg, ctx: &mut Context<'_, WrMsg>) {
        if let WrMsg::Invoke { to, delta } = msg {
            // Management RPC (e.g. from a monitoring process): start the
            // transfer if idle; a busy or invalid request is dropped — the
            // monitor will simply re-plan from observed weights.
            let _ = self.transfer(to, delta, ctx);
            return;
        }
        for ev in self.core.handle(from, msg, ctx, |m| m) {
            match ev {
                CoreEvent::NeedApply(req) => {
                    // Pure mode: apply immediately (no register refresh).
                    self.core.apply(req, ctx, |m| m);
                }
                CoreEvent::Completed(outcome) => {
                    self.complete_log.push(outcome);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A client process (member of Π) that can invoke `read_changes`.
#[derive(Debug)]
pub struct RpClient {
    /// The embedded Algorithm 3 engine; results accumulate in
    /// [`ReadChangesClient::results`](crate::restricted::ReadChangesClient::results).
    pub reader: crate::restricted::core::ReadChangesClient,
}

impl RpClient {
    /// Creates a client for a system whose servers are actors `0..n`.
    pub fn new(cfg: RpConfig) -> RpClient {
        RpClient {
            reader: crate::restricted::core::ReadChangesClient::new(cfg),
        }
    }

    /// Invokes `read_changes(target)`.
    ///
    /// # Errors
    ///
    /// [`TransferError::Busy`] if an invocation is already in flight.
    pub fn read_changes(
        &mut self,
        target: ServerId,
        ctx: &mut Context<'_, WrMsg>,
    ) -> Result<(), TransferError> {
        self.reader.start(target, ctx, |m| m)
    }
}

impl Actor for RpClient {
    type Msg = WrMsg;

    fn on_message(&mut self, from: ActorId, msg: WrMsg, ctx: &mut Context<'_, WrMsg>) {
        let _ = self.reader.on_message(from, &msg, ctx, |m| m);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
