//! The restricted pairwise weight reassignment protocol (paper §VI,
//! Algorithms 3 and 4) — the variant that *is* implementable in
//! asynchronous failure-prone systems (Theorem 5).
//!
//! Structure:
//!
//! * [`messages`] — the wire protocol as the paper states it (`T`,
//!   `T_Ack`, `RC`, `RC_Ack`, `WC`, `WC_Ack`), the `read_changes` legs
//!   carrying whole change sets;
//! * [`TransferCore`] — the per-server engine: local C2 check, reliable
//!   broadcast of the change pair, `n − f − 1` ack collection, and the
//!   server side of `read_changes`. Embeddable (the dynamic-weighted
//!   storage hosts it behind a register refresh);
//! * [`ReadChangesClient`] — the requester side of Algorithm 3: union
//!   `f + 1` replies, write the union back, return it at `n − f` acks;
//! * [`RpServer`] / [`RpClient`] — ready-made actors;
//! * [`RpHarness`] — a wired world for tests and experiments.

pub mod core;
pub mod harness;
pub mod messages;
pub mod server;
#[cfg(test)]
mod threaded_tests;

pub use self::core::{
    server_actor, ApplyRequest, CoreEvent, ReadChangesClient, ReadChangesResult, TransferCore,
    TransferStart,
};
pub use harness::RpHarness;
pub use messages::WrMsg;
pub use server::{RpClient, RpServer};
