//! Whom a client asks: the [`Fanout::Quorum`] policy, apart from the phase
//! machine that follows it.
//!
//! [`QuorumSelector`] decides which servers a phase 1 is sent to, when a
//! stalled attempt widens to everyone, which silent servers become suspects
//! and when their suspicion lapses. It never touches a
//! [`Context`](awr_sim::Context): the driver sends to the servers it names
//! and arms the timers it asks for. Under [`Fanout::All`] it never targets,
//! never suspects and never samples, so the driver needs no fanout branch.

use std::hash::{Hash, Hasher};

use awr_core::RpConfig;
use awr_quorum::{smallest_quorum_avoiding, WeightedMajorityQuorumSystem};
use awr_sim::{Nanos, Time, TimerId};
use awr_types::{ChangeSet, Ratio, ServerId};

use super::{Fanout, RetryPolicy};

/// Timer tags with this bit set are suspicion lapses (the server's index in
/// the low bits); rebroadcast timers are tagged with the operation counter.
/// Clear of the top bit, which [`crate::OpenLoopClient`] reserves.
const LAPSE_TAG: u64 = 1 << 62;
/// A lapse is at most 2^8 widen deadlines: 1.3 s at the deadline's floor,
/// and a dead quorum member costs its clients under 0.4 % of their time.
const LAPSE_CAP_LOG2: u32 = 8;

/// The widen deadline is this many times the phase-1 EWMA …
const WIDEN_FACTOR: u64 = 8;
/// … and never shorter than this (5 ms). Two reasons, both measured on the
/// loopback mesh, where the EWMA is tens of microseconds: a deadline under
/// a scheduler timeslice fires whenever a server thread is descheduled;
/// and a deadline under the embedding loop's own step timeout (2 ms in
/// `benchmark/` and `tcp_demo`) makes every wait of the hot path the
/// earliest timer on its CPU, which costs two clock-event reprogrammings
/// per wait (33.4 k → 28.0 k ops/s on `tcp_read_mostly` at a 1 ms floor).
const WIDEN_FLOOR: Nanos = 5_000_000;

/// What a client holds against one server.
#[derive(Clone, Copy, Debug, Default)]
struct Suspicion {
    /// Suspicions in a row with no message from the server in between: the
    /// next lapse is 2^`strikes` widen deadlines.
    strikes: u32,
    /// The armed lapse timer — `Some` exactly while the server is a suspect.
    lapse: Option<TimerId>,
}

/// The quorum-selection policy of one client (see [`Fanout`]).
#[derive(Debug)]
pub(crate) struct QuorumSelector {
    fanout: Fanout,
    /// An explicit rebroadcast policy ([`super::DynOptions::retry`]); it
    /// overrides the measured deadline.
    retry: Option<RetryPolicy>,
    /// `W_{S,0}`: quorums are judged against half of it.
    total: Ratio,
    /// The smallest quorum by weight avoiding the current suspects under
    /// the `C` digested in `targets_for` — heaviest first, empty if the
    /// unsuspected servers cannot form one. Recomputed when an attempt
    /// begins after `C` or the suspect set moved, so a steady-state send
    /// neither sorts nor allocates.
    targets: Vec<ServerId>,
    /// Digest of the `C` that `targets` was computed under; `None` when the
    /// suspect set changed since.
    targets_for: Option<u64>,
    /// One slot per server (index = [`ServerId`]): a server that was asked
    /// and stayed silent past a widen deadline is skipped until it next
    /// speaks or its suspicion lapses.
    suspicion: Vec<Suspicion>,
    /// Whether the attempt in flight has been sent to `targets` only — its
    /// phase 1, and the phase 2 that follows — and not widened since.
    targeted: bool,
    /// When the attempt's phase 1 was sent, until it is widened: the start
    /// of the next EWMA sample. Only ever set under [`Fanout::Quorum`].
    phase1_sent: Option<Time>,
    /// EWMA (α = 1/8) of un-widened phase-1 completion times — the measured
    /// half of the widen deadline.
    phase1_ewma: Option<Nanos>,
}

impl QuorumSelector {
    /// A selector with no sample and no suspect.
    pub(crate) fn new(fanout: Fanout, retry: Option<RetryPolicy>, cfg: &RpConfig) -> Self {
        QuorumSelector {
            fanout,
            retry,
            total: cfg.initial_total(),
            targets: Vec::new(),
            targets_for: None,
            suspicion: vec![Suspicion::default(); cfg.n],
            targeted: false,
            phase1_sent: None,
            phase1_ewma: None,
        }
    }

    /// The rebroadcast policy in force: the configured one, else — once a
    /// phase 1 has been sampled — the measured widen deadline under the
    /// default budget. `None` means no timer is ever armed and every phase 1
    /// asks everyone: [`Fanout::All`] without a configured policy, or no
    /// sample yet.
    pub(crate) fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry.or_else(|| {
            Some(RetryPolicy {
                base: self
                    .phase1_ewma?
                    .saturating_mul(WIDEN_FACTOR)
                    .max(WIDEN_FLOOR),
                ..RetryPolicy::default()
            })
        })
    }

    /// The smallest quorum by weight under `c` that avoids every suspect —
    /// heaviest first, ties by id ([`smallest_quorum_avoiding`]) — or
    /// nothing when the unsuspected servers cannot form one, and always
    /// nothing under [`Fanout::All`]. Cached by the digest of `c`.
    fn targets(&mut self, c: &ChangeSet) -> &[ServerId] {
        if self.fanout == Fanout::All {
            return &[];
        }
        let digest = c.digest();
        if self.targets_for != Some(digest) {
            let n = self.suspicion.len();
            let q = WeightedMajorityQuorumSystem::with_threshold_total(c.weights(n), self.total);
            let suspects = (0..n)
                .filter(|&i| self.suspicion[i].lapse.is_some())
                .map(|i| ServerId(i as u32))
                .collect();
            self.targets = smallest_quorum_avoiding(&q, &suspects).unwrap_or_default();
            self.targets_for = Some(digest);
        }
        &self.targets
    }

    /// An attempt's phase 1 is sent at `now` under `c`: whom it asks, or
    /// nothing for everyone. It asks a quorum only when a timer will widen
    /// it if it stalls, and when the servers not under suspicion can still
    /// form one.
    pub(crate) fn begin(&mut self, now: Time, c: &ChangeSet) -> &[ServerId] {
        self.phase1_sent = (self.fanout == Fanout::Quorum).then_some(now);
        self.targeted = self.retry_policy().is_some() && !self.targets(c).is_empty();
        if self.targeted {
            &self.targets
        } else {
            &[]
        }
    }

    /// Whether the attempt in flight asked `targets` only and has not been
    /// widened since.
    pub(crate) fn targeted(&self) -> bool {
        self.targeted
    }

    /// The attempt's phase 1 reached a quorum at `now`: one sample of how
    /// long this client's quorums take to answer, unless it was widened.
    pub(crate) fn on_quorum(&mut self, now: Time) {
        if let Some(sent) = self.phase1_sent.take() {
            let took = now.0.saturating_sub(sent.0);
            self.phase1_ewma = Some(match self.phase1_ewma {
                None => took,
                Some(e) => e - e / 8 + took / 8,
            });
        }
    }

    /// `server` spoke: it is no longer a suspect, whatever it said, and its
    /// strikes are forgiven. Returns the lapse timer to cancel, if any.
    pub(crate) fn on_reply(&mut self, server: usize) -> Option<TimerId> {
        let lapse = std::mem::take(&mut self.suspicion[server]).lapse;
        if lapse.is_some() {
            self.targets_for = None;
        }
        lapse
    }

    /// A widen deadline passed: every server the attempt asked that has not
    /// `answered` the phase in flight becomes a suspect, its lapse armed
    /// through `arm(delay, tag)`, and the attempt is no longer targeted.
    /// While the attempt was targeted the asked are `targets` — in phase 2
    /// too, where they are exactly the phase-1 repliers; otherwise every
    /// server was sent this attempt's `R` or `W`. Returns whether the
    /// attempt was targeted until now.
    pub(crate) fn on_widen(
        &mut self,
        answered: impl Fn(usize) -> bool,
        mut arm: impl FnMut(Nanos, u64) -> TimerId,
    ) -> bool {
        self.phase1_sent = None;
        let deadline = match (self.fanout, self.retry_policy()) {
            (Fanout::Quorum, Some(rp)) => rp.base,
            _ => return false,
        };
        for (i, s) in self.suspicion.iter_mut().enumerate() {
            let asked = !self.targeted || self.targets.contains(&ServerId(i as u32));
            if asked && !answered(i) && s.lapse.is_none() {
                let lapse = deadline.saturating_mul(2 << s.strikes.min(LAPSE_CAP_LOG2 - 1));
                s.lapse = Some(arm(lapse, LAPSE_TAG | i as u64));
                s.strikes += 1;
                self.targets_for = None;
            }
        }
        std::mem::take(&mut self.targeted)
    }

    /// A timer fired: if it is a suspicion's lapse, that server is a
    /// candidate again — its strikes stand until it speaks, so a dead one
    /// is retried ever more rarely — and this returns `true`.
    pub(crate) fn on_lapse(&mut self, tag: u64) -> bool {
        if tag & LAPSE_TAG == 0 {
            return false;
        }
        self.suspicion[(tag & !LAPSE_TAG) as usize].lapse = None;
        self.targets_for = None;
        true
    }

    /// Feeds the policy state the model checker tells apart. The measured
    /// deadline enters only as "is there one", and a suspicion only as
    /// "is there one": their values scale a timer's delay, which the
    /// explorer does not order by.
    pub(crate) fn hash_into(&self, h: &mut impl Hasher) {
        self.targeted.then_some(&self.targets).hash(h);
        for s in &self.suspicion {
            s.lapse.is_some().hash(h);
        }
        self.phase1_ewma.is_some().hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::{Change, WeightMap};

    const MS: Nanos = 1_000_000;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    /// A selector over `weights` with an explicit 1 ms deadline, so every
    /// attempt is timed from the start.
    fn timed(fanout: Fanout, weights: &[&str]) -> (QuorumSelector, ChangeSet) {
        let w = WeightMap::dec(weights);
        let cfg = RpConfig::new(0, w.clone()).expect("valid weights");
        let retry = RetryPolicy {
            base: MS,
            ..RetryPolicy::default()
        };
        let sel = QuorumSelector::new(fanout, Some(retry), &cfg);
        (sel, ChangeSet::from_initial_weights(&w))
    }

    /// Widens the attempt in flight with `silent` the only servers that did
    /// not answer; returns the `(delay, tag)` of every lapse armed.
    fn widen(sel: &mut QuorumSelector, silent: &[usize]) -> Vec<(Nanos, u64)> {
        let mut armed = Vec::new();
        sel.on_widen(
            |i| !silent.contains(&i),
            |delay, tag| {
                armed.push((delay, tag));
                TimerId(armed.len() as u64)
            },
        );
        armed
    }

    #[test]
    fn targets_the_smallest_quorum_heaviest_first_ties_by_id() {
        let (mut sel, mut c) = timed(Fanout::Quorum, &["1", "1.5", "1", "1.5", "1"]);
        // 1.5 + 1.5 = 3 is not above half of 6; the lightest tie goes to s0.
        assert_eq!(sel.begin(Time::ZERO, &c), [s(1), s(3), s(0)]);
        assert!(sel.targeted());
        // The cache follows `C`: once s0 and s2 each give 0.5 to s4, s4 is
        // the heaviest.
        c.insert(Change::new(s(0), 2, s(0), Ratio::dec("-0.5")));
        c.insert(Change::new(s(0), 2, s(4), Ratio::dec("0.5")));
        c.insert(Change::new(s(2), 2, s(2), Ratio::dec("-0.5")));
        c.insert(Change::new(s(2), 2, s(4), Ratio::dec("0.5")));
        assert_eq!(sel.begin(Time::ZERO, &c), [s(4), s(1)]);
    }

    #[test]
    fn a_suspect_is_skipped_and_no_quorum_asks_everyone() {
        let (mut sel, c) = timed(Fanout::Quorum, &["1", "1", "1"]);
        assert_eq!(sel.begin(Time::ZERO, &c), [s(0), s(1)]);
        // s0 stays silent; s2 was not asked, so it is no suspect.
        assert_eq!(widen(&mut sel, &[0, 2]), [(2 * MS, LAPSE_TAG)]);
        assert!(!sel.targeted(), "a widened attempt is no longer targeted");
        assert_eq!(sel.begin(Time::ZERO, &c), [s(1), s(2)]);
        // With s1 a suspect too, s2 alone is no quorum: ask everyone.
        widen(&mut sel, &[1]);
        assert!(sel.begin(Time::ZERO, &c).is_empty());
        assert!(!sel.targeted());
    }

    #[test]
    fn a_lapse_doubles_per_strike_up_to_two_to_the_eighth_deadlines() {
        let (mut sel, c) = timed(Fanout::Quorum, &["1", "1", "1"]);
        let mut delays = Vec::new();
        for _ in 0..10 {
            sel.begin(Time::ZERO, &c);
            let armed = widen(&mut sel, &[0]);
            assert_eq!(armed.len(), 1);
            let (delay, tag) = armed[0];
            delays.push(delay / MS);
            // The lapse makes s0 a candidate again without forgiving it.
            assert!(sel.on_lapse(tag));
        }
        assert_eq!(delays, [2, 4, 8, 16, 32, 64, 128, 256, 256, 256]);
        // A rebroadcast tag is not a lapse.
        assert!(!sel.on_lapse(7));
    }

    #[test]
    fn speaking_clears_the_suspicion_and_its_strikes() {
        let (mut sel, c) = timed(Fanout::Quorum, &["1", "1", "1"]);
        sel.begin(Time::ZERO, &c);
        let (_, tag) = widen(&mut sel, &[0])[0];
        assert!(sel.on_lapse(tag));
        sel.begin(Time::ZERO, &c);
        assert_eq!(widen(&mut sel, &[0]), [(4 * MS, LAPSE_TAG)]);
        // s0 answers while suspected: its lapse timer is handed back to be
        // cancelled, and it is asked again at once.
        assert_eq!(sel.on_reply(0), Some(TimerId(1)));
        assert_eq!(sel.on_reply(0), None);
        assert_eq!(sel.begin(Time::ZERO, &c), [s(0), s(1)]);
        // Its next suspicion starts over at two deadlines.
        assert_eq!(widen(&mut sel, &[0]), [(2 * MS, LAPSE_TAG)]);
    }

    #[test]
    fn the_deadline_is_eight_ewmas_of_unwidened_phase_ones_floored_at_5_ms() {
        let cfg = RpConfig::uniform(3, 1);
        let c = ChangeSet::from_initial_weights(&cfg.initial_weights);
        let mut sel = QuorumSelector::new(Fanout::Quorum, None, &cfg);
        let base = |sel: &QuorumSelector| sel.retry_policy().map(|p| p.base);
        // No sample: no deadline, and the first phase 1 asks everyone.
        assert_eq!(base(&sel), None);
        assert!(sel.begin(Time::ZERO, &c).is_empty());
        sel.on_quorum(Time(MS));
        assert_eq!(base(&sel), Some(8 * MS));
        // α = 1/8: 1 ms − 1/8 ms + 9/8 ms = 2 ms.
        assert!(!sel.begin(Time(10 * MS), &c).is_empty());
        sel.on_quorum(Time(19 * MS));
        assert_eq!(base(&sel), Some(16 * MS));
        // A widened phase 1 is no sample, however long it took.
        sel.begin(Time(20 * MS), &c);
        widen(&mut sel, &[]);
        sel.on_quorum(Time(900 * MS));
        assert_eq!(base(&sel), Some(16 * MS));
        // Fast quorums pull the EWMA down to 0.25 ms; the deadline stops
        // at the floor.
        for k in 0..64 {
            let t = Time(MS * (1_000 + k));
            sel.begin(t, &c);
            sel.on_quorum(Time(t.0 + MS / 4));
        }
        assert_eq!(base(&sel), Some(WIDEN_FLOOR));
    }

    #[test]
    fn fanout_all_never_targets_suspects_or_samples() {
        let (mut sel, c) = timed(Fanout::All, &["1", "1", "1"]);
        assert!(sel.begin(Time::ZERO, &c).is_empty());
        assert!(widen(&mut sel, &[0, 1, 2]).is_empty());
        assert!(sel.begin(Time::ZERO, &c).is_empty());
        // Only the configured policy is ever in force: no sample replaces
        // it, and without one nothing is armed.
        sel.on_quorum(Time(MS));
        assert_eq!(sel.retry_policy().map(|p| p.base), Some(MS));
        let cfg = RpConfig::uniform(3, 1);
        let mut untimed = QuorumSelector::new(Fanout::All, None, &cfg);
        untimed.begin(Time::ZERO, &c);
        untimed.on_quorum(Time(MS));
        assert_eq!(untimed.retry_policy(), None);
    }
}
