//! # awr — Asynchronous Weight Reassignment
//!
//! A comprehensive Rust reproduction of *“How Hard is Asynchronous Weight
//! Reassignment?”* (Hasan Heydari, Guthemberg Silvestre, Alysson Bessani —
//! ICDCS 2023, extended version arXiv:2306.03185).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — exact rational weights, change quadruples, change sets, tags;
//! * [`quorum`] — majority & weighted-majority quorum systems, Property 1,
//!   and the weight placement policies (`quorum::placement`);
//! * [`sim`] — deterministic discrete-event simulator for asynchronous
//!   message-passing systems, with bandwidth-aware networks and
//!   cross-traffic workloads (`sim::workload`), plus the `Transport` /
//!   `NodeHost` seam of the wall-clock runtime;
//! * [`rb`] — uniform reliable broadcast for the crash model;
//! * [`core`] — the paper's contribution: the weight-reassignment problem
//!   family, the consensus reductions (Algorithms 1–2), and the restricted
//!   pairwise weight reassignment protocol (Algorithms 3–4);
//! * [`storage`] — dynamic-weighted atomic storage (Algorithms 5–6; the
//!   static baselines are the same protocol over a configuration that is
//!   never reassigned), linearizability checkers, and the adaptive
//!   placement driver (`storage::placement`);
//! * [`consensus`] — single-decree Paxos and the consensus-based
//!   reassignment baseline;
//! * [`epoch`] — the epoch-based reassignment baseline.
//!
//! See `README.md` for a tour, `docs/PAPER_MAP.md` for the paper→code
//! table, and `ROADMAP.md` for the open items.
//!
//! # Quickstart
//!
//! ```
//! use awr::types::{Ratio, ServerId};
//!
//! // Weights are exact rationals; 0.1 is really one tenth.
//! let w = Ratio::dec("0.1");
//! assert_eq!(w + w + w, Ratio::dec("0.3"));
//! # let _ = ServerId(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use awr_consensus as consensus;
pub use awr_core as core;
pub use awr_epoch as epoch;
pub use awr_quorum as quorum;
pub use awr_rb as rb;
pub use awr_sim as sim;
pub use awr_storage as storage;
pub use awr_types as types;
