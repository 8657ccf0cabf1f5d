//! # awr-check — a bounded model checker over the simulated protocols
//!
//! Seed-driven simulation (the rest of this workspace) samples schedules;
//! this crate *enumerates* them. For tiny configurations — 3–4 servers,
//! 1–2 clients, a reassignment or two — the explorer drives the existing
//! discrete-event simulator through **every** message-delivery order (plus
//! crash/restart points for durable scenarios, within a fault budget),
//! deduplicating states by canonical hash, and evaluates an invariant
//! battery at every reachable state:
//!
//! | invariant | paper property |
//! |---|---|
//! | `quorum-intersection` | Property 1 / Definition 1 (WMQS consistency across views) |
//! | `tag-monotonicity`    | atomicity machinery (timestamps only grow) |
//! | `rp-integrity-audit`  | RP-Integrity (Def. 5), Property 1, RP-Validity-I, C1 |
//! | `wal-soundness`       | durable extension: recoverable ⊇ advertised state |
//! | `join-liveness`       | RP-Liveness / Validity-II at quiescence |
//! | `read-atomicity`      | Theorem 6 (completed histories linearize) |
//!
//! On a violation the explorer emits the reaching schedule,
//! [`minimize`]s it by greedy deletion, and renders a replayable
//! counterexample through the simulator's trace machinery. See
//! `docs/CHECKING.md` for the state-space model and usage, and the
//! `check_awr` binary for the command-line entry point.
//!
//! The `mutate` feature compiles seeded protocol bugs into the crates
//! under test; `tests/mutation_detect.rs` asserts the explorer catches
//! every one of them — a checker that has never caught a bug proves
//! nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counterexample;
pub mod explore;
pub mod invariant;
pub mod scenario;

pub use counterexample::{minimize, render, schedule_violates};
pub use explore::{Explorer, Outcome, Stats, ViolationReport};
pub use invariant::{default_invariants, Invariant, StateView};
pub use scenario::{
    builtin_scenarios, parse_schedule, render_schedule, scenario_by_name, Choice, ClientOp,
    RunState, Scenario,
};
