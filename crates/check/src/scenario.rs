//! Checkable configurations: a tiny system plus the stimulus to drive it.
//!
//! A [`Scenario`] pins everything the explorer needs to rebuild the world
//! from scratch — configuration, client scripts, transfer requests, fault
//! budget — because the actors are not clonable: backtracking in the
//! search is *replay*, re-running a prefix of scheduling choices against a
//! fresh build. Determinism of the simulator (fixed seed, explicit event
//! choice) makes any choice sequence a complete, reproducible name for a
//! state.

use awr_core::RpConfig;
use awr_sim::{ActorId, PendingEvent, PendingKind, UniformLatency};
use awr_storage::{DynOptions, Fanout, RetryPolicy, StorageHandle, StorageHarness};
use awr_types::{ObjectId, Ratio, ServerId};

/// The register value type every scenario uses.
pub type Val = u64;

/// One scripted client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// `write(obj, value)`.
    Write(ObjectId, Val),
    /// `read(obj)`.
    Read(ObjectId),
}

/// One scheduling decision of the explorer. A sequence of choices, applied
/// to a freshly built scenario, deterministically names a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Process the pending simulator event with this sequence number
    /// (a message delivery or a timer — whatever [`awr_sim::World::pending_events`]
    /// reported).
    Deliver(u64),
    /// Crash this server (within the fault budget only).
    Crash(usize),
    /// Rebuild and reboot this crashed server from its durable store.
    Restart(usize),
}

impl std::fmt::Display for Choice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Choice::Deliver(seq) => write!(f, "deliver:{seq}"),
            Choice::Crash(s) => write!(f, "crash:{s}"),
            Choice::Restart(s) => write!(f, "restart:{s}"),
        }
    }
}

/// Parses a whitespace-separated choice schedule (`deliver:12 crash:0 …`),
/// the wire format counterexamples are written in.
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_schedule(s: &str) -> Result<Vec<Choice>, String> {
    s.split_whitespace()
        .map(|tok| {
            let (kind, arg) = tok
                .split_once(':')
                .ok_or_else(|| format!("malformed choice {tok:?} (want kind:number)"))?;
            let num: u64 = arg
                .parse()
                .map_err(|_| format!("malformed choice argument in {tok:?}"))?;
            match kind {
                "deliver" => Ok(Choice::Deliver(num)),
                "crash" => Ok(Choice::Crash(num as usize)),
                "restart" => Ok(Choice::Restart(num as usize)),
                _ => Err(format!("unknown choice kind {kind:?}")),
            }
        })
        .collect()
}

/// Renders a schedule in the format [`parse_schedule`] reads.
pub fn render_schedule(schedule: &[Choice]) -> String {
    schedule
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// A small checkable configuration: the system, the stimulus, and the
/// fault budget.
#[derive(Clone)]
pub struct Scenario {
    /// Display name (also the counterexample file stem).
    pub name: &'static str,
    /// One line on what the scenario exercises.
    pub about: &'static str,
    /// The reassignment-problem configuration (n, f, initial weights).
    pub cfg: RpConfig,
    /// Per-client operation scripts, run sequentially per client; the
    /// explorer starts the next op the moment the client goes idle.
    pub scripts: Vec<Vec<ClientOp>>,
    /// Transfers issued at initialization, in order, via the queued entry
    /// point (same-issuer bursts batch, matching the protocol).
    pub transfers: Vec<(ServerId, ServerId, Ratio)>,
    /// Build servers over durable in-memory stores, enabling restart
    /// choices and the WAL-accounting invariant.
    pub durable: bool,
    /// Maximum number of crash choices the explorer may inject (at most `f`
    /// servers are ever down at once). Under `durable: false` a crashed
    /// server stays down: the paper's crash-stop model.
    pub crash_budget: usize,
    /// Protocol options every server and client is built with. A scenario
    /// that arms timers must bound them ([`RetryPolicy::max_attempts`]):
    /// timer firings are explorer choices like any delivery, and an
    /// unbounded rebroadcast makes the state space infinite.
    pub options: DynOptions,
    /// Optional deterministic pre-run: steps a prefix of the schedule
    /// before exploration starts (e.g. complete a first write while
    /// withholding deliveries to one server) so the explored frontier
    /// starts at an interesting protocol state instead of paying the
    /// interleaving cost of reaching it.
    pub setup: Option<fn(&mut RunState)>,
}

/// A built scenario mid-schedule: the harness plus the bookkeeping that is
/// not recoverable from actor state alone.
pub struct RunState {
    /// The system under test.
    pub harness: StorageHarness<Val>,
    scenario: Scenario,
    /// Next unscripted op index per client.
    next_op: Vec<usize>,
    /// Crash choices consumed so far.
    pub crashes_used: usize,
}

impl RunState {
    /// Builds the scenario fresh and brings it to its initial explored
    /// state: start events drained, transfers issued, scripts begun,
    /// optional setup applied.
    pub fn build(scenario: &Scenario) -> RunState {
        let network = UniformLatency::new(1, 1);
        let options = scenario.options;
        let harness = if scenario.durable {
            StorageHarness::build_durable(
                scenario.cfg.clone(),
                scenario.scripts.len(),
                0,
                network,
                options,
            )
        } else {
            StorageHarness::build(
                scenario.cfg.clone(),
                scenario.scripts.len(),
                0,
                network,
                options,
            )
        };
        let mut rs = RunState {
            harness,
            scenario: scenario.clone(),
            next_op: vec![0; scenario.scripts.len()],
            crashes_used: 0,
        };
        // Start events are protocol no-ops for fresh servers and clients;
        // drain them deterministically so the explored frontier begins at
        // the first real scheduling decision.
        loop {
            let starts: Vec<u64> = rs
                .harness
                .world
                .pending_events()
                .iter()
                .filter(|e| matches!(e.kind, PendingKind::Start { .. }))
                .map(|e| e.seq)
                .collect();
            if starts.is_empty() {
                break;
            }
            for seq in starts {
                rs.harness.world.step_seq(seq);
            }
        }
        for (from, to, delta) in &scenario.transfers {
            rs.harness
                .transfer_queued(*from, *to, *delta)
                .expect("scenario transfer rejected at issue time");
        }
        if let Some(setup) = scenario.setup {
            setup(&mut rs);
        }
        rs.closure();
        rs
    }

    /// The scenario this run was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Transfers the scenario issues in total.
    pub fn transfers_issued(&self) -> usize {
        self.scenario.transfers.len()
    }

    /// Whether every scripted client op has been *started* and every
    /// client is idle (with an empty event queue this means all completed).
    pub fn clients_done(&self) -> bool {
        (0..self.scenario.scripts.len()).all(|k| {
            self.next_op[k] >= self.scenario.scripts[k].len() && !self.harness.client_busy(k)
        })
    }

    /// Count of currently crashed servers.
    pub fn servers_down(&self) -> usize {
        (0..self.scenario.cfg.n)
            .filter(|&i| self.harness.world.is_crashed(ActorId(i)))
            .count()
    }

    /// The deterministic transition closure: drains deliveries addressed
    /// to crashed actors (dropping them is a protocol no-op, so forcing
    /// the drop order loses no generality) and starts the next scripted op
    /// of every idle client, until neither applies. Run after every
    /// choice so the explorer's branching points are only the decisions
    /// that matter.
    pub fn closure(&mut self) {
        loop {
            let mut progressed = false;
            loop {
                let doomed = self.harness.world.pending_events().into_iter().find(|e| {
                    matches!(e.kind, PendingKind::Deliver { to, .. }
                        if self.harness.world.is_crashed(to))
                });
                match doomed {
                    Some(e) => {
                        self.harness.world.step_seq(e.seq);
                        progressed = true;
                    }
                    None => break,
                }
            }
            for k in 0..self.scenario.scripts.len() {
                if self.next_op[k] < self.scenario.scripts[k].len() && !self.harness.client_busy(k)
                {
                    let op = self.scenario.scripts[k][self.next_op[k]];
                    self.next_op[k] += 1;
                    match op {
                        ClientOp::Write(obj, v) => self.harness.begin_async_obj(k, obj, Some(v)),
                        ClientOp::Read(obj) => self.harness.begin_async_obj(k, obj, None),
                    }
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// The choices available in this state, in a deterministic order:
    /// every pending event (time order), then crash choices, then restart
    /// choices. Empty means the state is terminal.
    pub fn choices(&self) -> Vec<Choice> {
        let mut out: Vec<Choice> = self
            .harness
            .world
            .pending_events()
            .iter()
            .map(|e| Choice::Deliver(e.seq))
            .collect();
        if self.crashes_used < self.scenario.crash_budget
            && self.servers_down() < self.scenario.cfg.f
        {
            for i in 0..self.scenario.cfg.n {
                if !self.harness.world.is_crashed(ActorId(i)) {
                    out.push(Choice::Crash(i));
                }
            }
        }
        if self.scenario.durable {
            for i in 0..self.scenario.cfg.n {
                if self.harness.world.is_crashed(ActorId(i)) {
                    out.push(Choice::Restart(i));
                }
            }
        }
        out
    }

    /// Applies one choice and runs the closure. Returns `false` if the
    /// choice was not applicable in this state (only possible when
    /// replaying an edited schedule, e.g. during minimization — the
    /// explorer itself only applies choices it enumerated).
    pub fn apply(&mut self, choice: Choice) -> bool {
        let applied = match choice {
            Choice::Deliver(seq) => self.harness.world.step_seq(seq),
            Choice::Crash(i) => {
                let ok = i < self.scenario.cfg.n
                    && self.crashes_used < self.scenario.crash_budget
                    && self.servers_down() < self.scenario.cfg.f
                    && !self.harness.world.is_crashed(ActorId(i));
                if ok {
                    self.harness.world.crash_now(ActorId(i));
                    self.crashes_used += 1;
                }
                ok
            }
            Choice::Restart(i) => {
                let ok = self.scenario.durable
                    && i < self.scenario.cfg.n
                    && self.harness.world.is_crashed(ActorId(i));
                if ok {
                    self.harness.restart_server(ServerId(i as u32));
                }
                ok
            }
        };
        if applied {
            self.closure();
        }
        applied
    }

    /// A canonical digest of the whole run state: the world's logical
    /// state, the durable stores' contents, the script cursors, and the
    /// consumed fault budget. Two schedules colliding here have identical
    /// futures, which is exactly what the explorer's dedup needs.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.harness
            .world
            .canonical_digest()
            .expect("all checkable actors and messages must be diggestible")
            .hash(&mut h);
        self.next_op.hash(&mut h);
        self.crashes_used.hash(&mut h);
        if self.scenario.durable {
            for i in 0..self.scenario.cfg.n {
                if let Some(st) = self.harness.storage_handle(ServerId(i as u32)) {
                    storage_digest(st).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Runs the given schedule with skip-if-inapplicable semantics (used
    /// by minimization, where removing one choice can invalidate later
    /// sequence numbers). Returns how many choices actually applied.
    pub fn apply_all_lenient(&mut self, schedule: &[Choice]) -> usize {
        schedule.iter().filter(|c| self.apply(**c)).count()
    }
}

/// Digest of one durable store's recoverable content (snapshot + WAL).
fn storage_digest(st: &StorageHandle<Val>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match st.load() {
        None => false.hash(&mut h),
        Some((snap, wal)) => {
            true.hash(&mut h);
            match snap {
                None => false.hash(&mut h),
                Some(s) => {
                    true.hash(&mut h);
                    s.changes.digest().hash(&mut h);
                    s.registers.hash(&mut h);
                }
            }
            for rec in wal {
                match rec {
                    awr_storage::WalRecord::Change(c) => (0u8, c).hash(&mut h),
                    awr_storage::WalRecord::Register(o, r) => (1u8, o, r).hash(&mut h),
                }
            }
        }
    }
    h.finish()
}

/// Deterministic setup helper: steps pending events — never crash/restart,
/// never a delivery to `avoid` — in `(time, seq)` order until `until`
/// holds or nothing steppable remains. A timer is stepped only when
/// nothing else can be: that is a client whose targeted phase waits on
/// `avoid`, and the firing is the widen that gets it past. Panics if the
/// predicate is never reached (a scenario authoring error, not a protocol
/// state).
pub fn run_avoiding(rs: &mut RunState, avoid: ActorId, mut until: impl FnMut(&RunState) -> bool) {
    loop {
        if until(rs) {
            return;
        }
        let pending = rs.harness.world.pending_events();
        let withheld =
            |e: &PendingEvent| matches!(e.kind, PendingKind::Deliver { to, .. } if to == avoid);
        let is_timer = |e: &PendingEvent| matches!(e.kind, PendingKind::Timer { .. });
        let next = pending
            .iter()
            .find(|e| !withheld(e) && !is_timer(e))
            .or_else(|| pending.iter().find(|e| is_timer(e)));
        match next {
            Some(e) => {
                rs.harness.world.step_seq(e.seq);
                rs.closure();
            }
            None => panic!("setup stalled before reaching its target state"),
        }
    }
}

/// The built-in scenario registry.
pub fn builtin_scenarios() -> Vec<Scenario> {
    vec![
        basic3(),
        concurrent4(),
        durable3(),
        fastpath3(),
        fastpath3q(),
        write3q(),
    ]
}

/// The paper-literal fanout with no timers: what every scenario but
/// [`fastpath3q`] and [`write3q`] runs, so their state counts are those of
/// the protocol as the paper states it.
pub fn ask_all() -> DynOptions {
    DynOptions {
        fanout: Fanout::All,
        ..DynOptions::default()
    }
}

/// Quorum-targeted phases under a one-shot widen budget: every attempt
/// arms one timer, whose firing — an explorer choice like any delivery —
/// re-sends the phase in flight once, to every server whose answer is not
/// in, and is not re-armed, which keeps the space finite; each suspicion it raises arms one lapse
/// timer, a choice too. The delays are irrelevant to the explorer (it does
/// not order by time); the deadline only has to be there, since a client
/// with none asks everyone.
pub fn ask_quorum() -> DynOptions {
    DynOptions {
        fanout: Fanout::Quorum,
        retry: Some(RetryPolicy {
            base: 1_000_000,
            max_attempts: 1,
        }),
        ..DynOptions::default()
    }
}

/// Looks up a built-in scenario by name.
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

/// The acceptance workhorse: 3 servers, 1 client writing once, 1
/// reassignment running concurrently. The fully free interleaving of the
/// write with the whole reassignment is beyond exhaustion (>30M edges), so
/// setup pins the cheap half: it steps events in time order — withholding
/// every delivery to s2 — until the issuer records the transfer complete.
/// Exploration then still owns the whole two-phase write, the gainer's
/// in-flight refresh, and s2 discovering the reassignment late, which is
/// where the quorum-intersection risk actually lives.
pub fn basic3() -> Scenario {
    Scenario {
        name: "basic3",
        about: "3 servers, 1 client write, 1 concurrent reassignment (exhaustive)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![vec![ClientOp::Write(ObjectId::DEFAULT, 7)]],
        transfers: vec![(ServerId(0), ServerId(1), Ratio::new(1, 8))],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: Some(|rs: &mut RunState| {
            run_avoiding(rs, ActorId(2), |rs| {
                !rs.harness.all_completed_transfers().is_empty()
            });
        }),
    }
}

/// A wider config: 4 servers, 2 clients on 2 objects, 2 reassignments
/// from the same issuer (exercising the batching path). Bounded-depth
/// territory.
pub fn concurrent4() -> Scenario {
    Scenario {
        name: "concurrent4",
        about: "4 servers, 2 clients / 2 objects, batched double reassignment (bounded)",
        cfg: RpConfig::uniform(4, 1),
        scripts: vec![
            vec![ClientOp::Write(ObjectId::DEFAULT, 1)],
            vec![ClientOp::Write(ObjectId(1), 2), ClientOp::Read(ObjectId(1))],
        ],
        transfers: vec![
            (ServerId(0), ServerId(1), Ratio::new(1, 8)),
            (ServerId(0), ServerId(2), Ratio::new(1, 8)),
        ],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: None,
    }
}

/// The fast-path read under a reassignment: the converse of [`basic3`]'s
/// pinning. Setup deterministically completes the transfer *and* the
/// write — both through {s0, s1}, withholding every delivery to s2 — and
/// then drains the reassignment/refresh traffic, so the explored frontier
/// is exactly the ABD deliveries: the completed write's stragglers at s2
/// (a stale-`C` `R`, its restarted `R`, and the `W` that finally lands
/// the value) freely interleaved with the read's phase 1. Depending on
/// the order, the read's max-tag replier weight carries the fast-path
/// rule (one phase), or s2's still-bottom register forces a *targeted*
/// write-back to s2 alone — every branch of the optimization, exhausted.
/// The `read-atomicity` invariant is the one a broken fast path fails.
pub fn fastpath3() -> Scenario {
    Scenario {
        name: "fastpath3",
        about: "3 servers, fast-path read vs a reassigned config and straggler writes (exhaustive)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![vec![
            ClientOp::Write(ObjectId::DEFAULT, 7),
            ClientOp::Read(ObjectId::DEFAULT),
        ]],
        transfers: vec![(ServerId(0), ServerId(1), Ratio::new(1, 8))],
        durable: false,
        crash_budget: 0,
        options: ask_all(),
        setup: Some(fastpath3_setup),
    }
}

/// The pinned prefix of [`fastpath3`] and [`fastpath3q`]: transfer and
/// write completed through {s0, s1}, then everything drained in time
/// order except the ABD-phase deliveries and (under [`ask_quorum`]) the
/// read's widen timer, which are the explorer's.
fn fastpath3_setup(rs: &mut RunState) {
    run_avoiding(rs, ActorId(2), |rs| {
        !rs.harness.all_completed_transfers().is_empty() && !rs.harness.history().is_empty()
    });
    // Drain everything that is not an ABD-phase delivery (the RB
    // relays of the change pair and the refresh leg headed for
    // s2, plus their consequences) in deterministic time order.
    loop {
        let next = rs.harness.world.pending_events().into_iter().find(|e| {
            !matches!(
                e.kind,
                PendingKind::Deliver {
                    kind: "R" | "RV" | "R_A" | "W" | "W_A",
                    ..
                } | PendingKind::Timer { .. }
            )
        });
        match next {
            Some(e) => {
                rs.harness.world.step_seq(e.seq);
                rs.closure();
            }
            None => break,
        }
    }
}

/// [`fastpath3`] under quorum-targeted phase 1 ([`ask_quorum`]). After
/// the reassignment the smallest quorum by weight is {s1, s2} — the
/// gainer and the one server that has heard of neither the transfer nor
/// the write — so the write's restarted phase 1 asks exactly the server
/// whose deliveries setup withholds, and gets through only by its widen
/// (the timer is the one event left to step), which leaves s2 a suspect.
/// The explored frontier is then the read's targeted phase 1 at the
/// quorum avoiding the suspect, {s1, s0}; its one widen timer — firing
/// before, between or after the acks, or never — which asks s2 after all
/// and makes every split quorum of [`fastpath3`] reachable again; the
/// lapse of s2's suspicion, which may fire at any point or never; and
/// the write's stragglers at s2 (whose answers also clear the
/// suspicion), all freely interleaved. A quorum judged over *fewer asked*
/// servers, a phase widened half-way, a late answer from a server no
/// longer asked: every way targeting could break the fast-path rule is
/// in there.
pub fn fastpath3q() -> Scenario {
    Scenario {
        name: "fastpath3q",
        about:
            "fastpath3 asking a quorum by weight, widen and lapse timers as choices (exhaustive)",
        options: ask_quorum(),
        ..fastpath3()
    }
}

/// A write sent to its quorum only, a crash, and the read that must see
/// it. The client asks {s0, s1} from its first operation ([`ask_quorum`]
/// supplies the deadline a first operation otherwise lacks); setup pins the
/// write's phase 1 — both `R_A`s in — so the explored frontier opens
/// *between the `R_A` and the `W`*: two `W`s in flight to {s0, s1}, none to
/// s2, and the attempt's widen timer. From there the explorer owns the one
/// crash in the budget (a quorum member dying before its `W` lands, after
/// it stored the value, or s2 dying so that no widen can help), the widen
/// that re-sends `W` to whoever has not acked and leaves the silent
/// suspects, every lapse firing, and the whole read that follows on the
/// same client — targeted around the suspects, or widened to everyone by
/// its own timer, so it completes on every quorum of live servers. The
/// read is invoked after the write's response and must return 7: whatever
/// quorum it completes on has to contain a server that *acked* `W`, which
/// is what judging completion over ackers — never over the servers `W` was
/// sent to — guarantees.
///
/// Crash-stop only (`durable: false`, so no restart choice): a restart's
/// rejoin traffic alone multiplies this space past exhaustion, and
/// recovery is [`durable3`]'s subject. The reader is the writer's own
/// client because the explorer invokes every client's first operation at
/// time zero: a second client's lone read would be concurrent with the
/// write and linearizable whatever it returned.
pub fn write3q() -> Scenario {
    Scenario {
        name: "write3q",
        about: "3 servers, a write sent to its quorum only, 1 crash, then the read (exhaustive)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![vec![
            ClientOp::Write(ObjectId::DEFAULT, 7),
            ClientOp::Read(ObjectId::DEFAULT),
        ]],
        transfers: vec![],
        durable: false,
        crash_budget: 1,
        options: ask_quorum(),
        setup: Some(|rs: &mut RunState| {
            // Setup runs before `build`'s closure: start the write first.
            rs.closure();
            run_avoiding(rs, ActorId(2), |rs| {
                rs.harness.world.metrics().counter("phase2_targeted") == 1
            });
        }),
    }
}

/// Durable servers with one crash/restart in the budget and no clients:
/// explores fault points against the WAL-accounting and audit invariants.
pub fn durable3() -> Scenario {
    Scenario {
        name: "durable3",
        about: "3 durable servers, 1 reassignment, 1 crash/restart in budget (bounded)",
        cfg: RpConfig::uniform(3, 1),
        scripts: vec![],
        transfers: vec![(ServerId(0), ServerId(1), Ratio::new(1, 8))],
        durable: true,
        crash_budget: 1,
        options: ask_all(),
        setup: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastpath3q_frontier_is_the_targeted_read_and_its_widen_timer() {
        let rs = RunState::build(&fastpath3q());
        let m = rs.harness.world.metrics();
        // The write's two attempts and the read were all targeted; the
        // write's second attempt needed its widen and left s2 a suspect.
        assert_eq!(m.counter("phase1_targeted"), 3);
        assert_eq!(m.counter("phase1_widened"), 1);
        assert_eq!(m.counter("server_suspected"), 1);
        let pending = rs.harness.world.pending_events();
        let client = rs.harness.client_actor(0);
        let asked: Vec<(&str, usize)> = pending
            .iter()
            .filter_map(|e| match e.kind {
                PendingKind::Deliver {
                    from,
                    to,
                    kind: kind @ ("R" | "RV"),
                    ..
                } if from == client => Some((kind, to.index())),
                _ => None,
            })
            .collect();
        // Two stragglers of the write at s2, then the read's phase 1 to the
        // quorum that avoids it, heaviest first: the register from s1, the
        // tag from s0.
        assert_eq!(asked, [("R", 2), ("R", 2), ("RV", 1), ("R", 0)]);
        let timers = pending
            .iter()
            .filter(|e| matches!(e.kind, PendingKind::Timer { .. }))
            .count();
        assert_eq!(
            timers, 2,
            "the read's widen timer and the lapse of s2's suspicion are explorer choices"
        );
    }

    #[test]
    fn write3q_frontier_opens_between_the_r_a_and_the_w() {
        let rs = RunState::build(&write3q());
        let m = rs.harness.world.metrics();
        assert_eq!(m.counter("phase1_targeted"), 1);
        assert_eq!(m.counter("phase2_targeted"), 1);
        assert_eq!(
            m.counter("phase1_widened") + m.counter("server_suspected"),
            0
        );
        let pending = rs.harness.world.pending_events();
        let kinds: Vec<(&str, usize)> = pending
            .iter()
            .filter_map(|e| match e.kind {
                PendingKind::Deliver { to, kind, .. } => Some((kind, to.index())),
                PendingKind::Timer { .. } => Some(("timer", 0)),
                _ => None,
            })
            .collect();
        // The write's `W` to its quorum, heaviest first with ties by id —
        // nothing for s2 — and the attempt's one widen timer.
        assert_eq!(kinds.len(), pending.len());
        assert_eq!(kinds, [("W", 0), ("W", 1), ("timer", 0)]);
        // A crash is on offer for each server; nothing restarts.
        let crashes: Vec<Choice> = rs
            .choices()
            .into_iter()
            .filter(|c| !matches!(c, Choice::Deliver(_)))
            .collect();
        assert_eq!(
            crashes,
            [Choice::Crash(0), Choice::Crash(1), Choice::Crash(2)]
        );
    }
}
