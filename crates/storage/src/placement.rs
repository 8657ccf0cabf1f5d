//! The adaptive placement driver: closes the observe→decide→reassign loop
//! over a live [`StorageHarness`].
//!
//! Each [`PlacementDriver::tick`] snapshots the world's per-link
//! [`awr_sim::Metrics`] (the *observe* step), asks its
//! [`PlacementPolicy`] for a target weight map (*decide*), validates the
//! proposal against the RP-Integrity floor and Property 1, plans the move
//! as pairwise transfers, and issues each on its donor through the
//! restricted protocol in queued mode (*reassign* — C1 is preserved
//! because every transfer is invoked by the server that loses the weight,
//! and C2 is enforced by the protocol's own local check even if the plan
//! raced with concurrent reassignment). Every tick is recorded in a
//! [`DecisionLog`] so experiments can audit why weights moved.

use awr_quorum::placement::{plan_transfers, PlacementInputs, PlacementPolicy};
use awr_quorum::{integrity_holds, rp_integrity_holds};
use awr_sim::{ActorId, Metrics};
use awr_types::{Ratio, ServerId, WeightMap};

use crate::dynamic::DynServer;
use crate::harness::StorageHarness;
use crate::Value;

/// One recorded placement decision: what the policy saw, what it proposed,
/// and what was issued to the protocol.
#[derive(Clone, Debug)]
pub struct PolicyDecision {
    /// Virtual time of the decision, nanoseconds.
    pub at_nanos: u64,
    /// The deciding policy's name.
    pub policy: &'static str,
    /// The weight map in force when the policy ran.
    pub current: WeightMap,
    /// The map the policy proposed.
    pub proposed: WeightMap,
    /// Whether the proposal passed safety validation (RP-Integrity floor
    /// and Property 1). Invalid proposals are recorded but never issued.
    pub accepted: bool,
    /// Transfers the plan decomposed into (post hysteresis filtering).
    pub planned: usize,
    /// Transfers actually handed to the protocol.
    pub issued: usize,
}

impl PolicyDecision {
    /// Whether this tick changed anything (a no-op decision proposes the
    /// current map back, or plans zero transfers).
    pub fn is_noop(&self) -> bool {
        self.issued == 0
    }
}

/// An append-only log of placement decisions — the policy-side audit trail
/// mirroring what `awr_core::audit_transfers` does for the protocol side.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    entries: Vec<PolicyDecision>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> DecisionLog {
        DecisionLog::default()
    }

    /// Appends a decision.
    pub fn push(&mut self, d: PolicyDecision) {
        self.entries.push(d);
    }

    /// All decisions, oldest first.
    pub fn entries(&self) -> &[PolicyDecision] {
        &self.entries
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether any decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recent decision.
    pub fn last(&self) -> Option<&PolicyDecision> {
        self.entries.last()
    }

    /// Total transfers issued across all decisions.
    pub fn transfers_issued(&self) -> usize {
        self.entries.iter().map(|d| d.issued).sum()
    }
}

/// Drives a [`PlacementPolicy`] against a [`StorageHarness`].
pub struct PlacementDriver {
    policy: Box<dyn PlacementPolicy>,
    observers: Vec<ActorId>,
    /// Hysteresis: planned transfers smaller than this are dropped, so the
    /// loop does not churn the protocol over rounding-grade imbalances.
    pub min_step: Ratio,
    /// Observe over the *window since the previous tick*
    /// ([`Metrics::since`]) instead of the cumulative run. Off by default
    /// (the historical behaviour). Windowing is what makes re-deciding
    /// through a regime shift work: cumulative means dilute the new regime
    /// under the old one's samples, so a driver that decided once under
    /// congestion would keep seeing that congestion forever. Either way the
    /// policy is handed [`Metrics::links_only`] — `bytes_sent`, the
    /// per-link records and `last_time`, all a policy reads — so a tick
    /// copies and windows the link rows, not the per-kind, per-object or
    /// named tables.
    pub windowed: bool,
    /// The links-only snapshot taken at the previous windowed tick.
    last_snapshot: Option<Metrics>,
    /// The decision audit trail.
    pub log: DecisionLog,
}

impl PlacementDriver {
    /// A driver for `policy` optimizing the latency of `observers`
    /// (typically the harness's client actors). The default hysteresis
    /// drops planned transfers below 1/100.
    pub fn new(policy: impl PlacementPolicy + 'static, observers: Vec<ActorId>) -> PlacementDriver {
        PlacementDriver {
            policy: Box::new(policy),
            observers,
            min_step: Ratio::new(1, 100),
            windowed: false,
            last_snapshot: None,
            log: DecisionLog::new(),
        }
    }

    /// The weight map currently in force, as seen by server 0.
    pub fn current_weights<V: Value>(&self, h: &StorageHarness<V>) -> WeightMap {
        let n = h.config().n;
        h.world
            .actor::<DynServer<V>>(h.server_actor(ServerId(0)))
            .expect("server 0")
            .changes()
            .weights(n)
    }

    /// One observe→decide→reassign round. Returns the number of transfers
    /// issued (0 for a no-op decision); run the world afterwards to let
    /// them complete.
    pub fn tick<V: Value>(&mut self, h: &mut StorageHarness<V>) -> usize {
        let cfg = h.config().clone();
        let current = self.current_weights(h);
        // Windowed mode: the policy sees only what happened since the last
        // tick; cumulative mode (default) sees the whole run.
        let now = h.world.metrics().links_only();
        let observed = match (self.windowed, &self.last_snapshot) {
            (false, _) => now,
            (true, Some(base)) => {
                let window = now.since(base);
                self.last_snapshot = Some(now);
                window
            }
            (true, None) => self.last_snapshot.insert(now).clone(),
        };
        let proposed = {
            let inputs = PlacementInputs::for_prefix_servers(
                &observed,
                &current,
                cfg.floor(),
                cfg.f,
                self.observers.clone(),
            );
            self.policy.propose(&inputs)
        };
        // Defense in depth: a policy proposal must already be safe by
        // construction, but nothing unsafe may reach the wire either way.
        let accepted = proposed.len() == current.len()
            && proposed.total() == current.total()
            && rp_integrity_holds(&proposed, cfg.floor())
            && integrity_holds(&proposed, cfg.f);
        let plan: Vec<_> = if accepted {
            plan_transfers(&current, &proposed)
                .into_iter()
                .filter(|t| t.delta >= self.min_step)
                .collect()
        } else {
            Vec::new()
        };
        let mut issued = 0;
        for t in &plan {
            // Queued mode: a donor already mid-transfer batches instead of
            // failing Busy; the protocol's C2 check still guards the floor.
            if h.transfer_queued(t.from, t.to, t.delta).is_ok() {
                issued += 1;
            }
        }
        self.log.push(PolicyDecision {
            at_nanos: h.world.now().nanos(),
            policy: self.policy.name(),
            current,
            proposed,
            accepted,
            planned: plan.len(),
            issued,
        });
        issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynOptions;
    use crate::lin::check_linearizable;
    use awr_core::{audit_transfers, RpConfig};
    use awr_quorum::placement::{LatencyGreedy, Static};
    use awr_sim::{geo_network, Region};

    fn geo_placement(n_clients: usize) -> Vec<Region> {
        // One server per region, clients co-located with Virginia.
        let mut p = Region::ALL.to_vec();
        p.extend(std::iter::repeat_n(Region::Virginia, n_clients));
        p
    }

    fn build(seed: u64) -> StorageHarness<u64> {
        StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            seed,
            geo_network(&geo_placement(1), 0.0),
            DynOptions::default(),
        )
    }

    #[test]
    fn static_policy_never_moves_weight() {
        let mut h = build(41);
        let mut d = PlacementDriver::new(Static, vec![h.client_actor(0)]);
        h.write(0, 1).unwrap();
        assert_eq!(d.tick(&mut h), 0);
        h.settle();
        assert_eq!(d.log.len(), 1);
        let rec = d.log.last().unwrap();
        assert!(rec.accepted && rec.is_noop());
        assert_eq!(rec.proposed, rec.current);
        assert_eq!(
            d.current_weights(&h),
            h.config().initial_weights,
            "static must leave the deployment untouched"
        );
    }

    #[test]
    fn latency_greedy_concentrates_weight_near_the_client() {
        let mut h = build(42);
        let mut d = PlacementDriver::new(LatencyGreedy::default(), vec![h.client_actor(0)]);
        // Observe: a few ops populate the per-link delay matrices.
        for v in 0..6 {
            h.write(0, v).unwrap();
            h.read(0).unwrap();
        }
        // Decide + reassign.
        let issued = d.tick(&mut h);
        assert!(issued > 0, "geo imbalance must trigger transfers");
        h.settle();
        let w = d.current_weights(&h);
        // Virginia (server 0, co-located with the client) gained weight.
        assert_eq!(w.max_weight(), w.weight(ServerId(0)), "{w}");
        assert!(w.weight(ServerId(0)) > Ratio::ONE, "{w}");
        assert_eq!(w.total(), h.config().initial_total());
        // The run stays linearizable and the protocol audit stays clean.
        h.write(0, 99).unwrap();
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some(99));
        h.settle();
        check_linearizable(&h.history()).expect("linearizable under adaptive reassignment");
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "{:?}", report.violations);
        // Telemetry captured the decision.
        assert_eq!(d.log.len(), 1);
        assert_eq!(d.log.last().unwrap().policy, "latency-greedy");
        assert_eq!(d.log.transfers_issued(), issued);
    }

    /// Proposes one fixed map whatever it observes.
    struct Fixed(WeightMap);

    impl PlacementPolicy for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn propose(&self, _: &PlacementInputs<'_>) -> WeightMap {
            self.0.clone()
        }
    }

    #[test]
    fn unsafe_proposals_are_refused_and_logged() {
        // n = 5, f = 1: total 5, floor 5/8.
        let floor = Ratio::new(5, 8);
        let rest = Ratio::new(35, 32);
        let at_floor = WeightMap::from_vec(vec![floor, rest, rest, rest, rest]);
        let minted = WeightMap::dec(&["1.1", "1", "1", "1", "1"]);
        for (seed, proposal) in [(44, at_floor), (45, minted)] {
            let mut h = build(seed);
            assert_eq!(h.config().floor(), floor);
            let mut d = PlacementDriver::new(Fixed(proposal.clone()), vec![h.client_actor(0)]);
            h.write(0, 1).unwrap();
            assert_eq!(d.tick(&mut h), 0, "{proposal}");
            h.settle();
            assert_eq!(d.log.len(), 1);
            let rec = d.log.last().unwrap();
            assert!(!rec.accepted, "{proposal} must be refused");
            assert_eq!((rec.planned, rec.issued), (0, 0), "{proposal}");
            assert_eq!(rec.proposed, proposal);
            assert_eq!(d.current_weights(&h), h.config().initial_weights);
        }
    }
}
