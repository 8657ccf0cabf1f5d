//! Utilization-driven weight placement: the *decide* step of the
//! observe→decide→reassign loop.
//!
//! The paper assumes weights are reassigned "based on the information
//! provided by a monitoring system" (§VI, citing WHEAT/AWARE) and leaves
//! the decision out of scope. This module supplies it: a
//! [`PlacementPolicy`] consumes a [`PlacementInputs`] — the simulator's
//! per-link [`Metrics`] (latency and utilization matrices) plus the
//! current [`WeightMap`] — and proposes a new weight map that the
//! restricted pairwise protocol can then reach through C1/C2-compatible
//! transfers (see [`plan_transfers`]).
//!
//! Three policies ship:
//!
//! * [`Static`] — the do-nothing baseline every benchmark compares
//!   against;
//! * [`LatencyGreedy`] — WHEAT-style: weight shifts toward the servers
//!   with the lowest observed mean round-trip *propagation* to the
//!   observers, so the fastest quorum under the active network model
//!   carries a majority of the weight;
//! * [`UtilizationAware`] — additionally penalizes servers behind hot
//!   links: observed queueing delay enters the score directly, and link /
//!   uplink utilization ([`Metrics::link_utilization`],
//!   [`Metrics::uplink_utilization`], with the [`Metrics::bytes_on_link`]
//!   traffic share as fallback where no transmission time is charged)
//!   scales it further. Under cross traffic this is the policy that routes
//!   weight *around* contention rather than merely toward proximity.
//!
//! Every proposal is safe by construction: each server's target weight is
//! clamped strictly above the RP-Integrity floor (times a margin), which
//! by Lemma 1 implies Property 1 — so the proposed map always preserves
//! quorum intersection and `f`-crash availability, and the total weight is
//! preserved exactly (transfers cannot mint weight). The
//! `tests/placement.rs` property suite pins all three invariants for every
//! policy.

use awr_sim::{ActorId, Metrics};
use awr_types::{Ratio, ServerId, WeightMap};

/// Everything a placement policy may look at when proposing a weight map.
///
/// The servers are identified by their world [`ActorId`]s (index-aligned
/// with the [`WeightMap`]); `observers` are the actors whose operation
/// latency the policy optimizes — typically the storage clients.
pub struct PlacementInputs<'a> {
    /// The run's per-link observation matrices.
    pub metrics: &'a Metrics,
    /// The weight map in force (the proposal must preserve its total).
    pub current: &'a WeightMap,
    /// The RP-Integrity floor `W_{S,0} / (2(n − f))`: every proposed
    /// weight stays strictly above it.
    pub floor: Ratio,
    /// Crash-fault tolerance the proposal must keep (Property 1).
    pub f: usize,
    /// Actor id of each server, index-aligned with `current`.
    pub server_actors: Vec<ActorId>,
    /// Actors whose operation latency is being optimized (clients).
    pub observers: Vec<ActorId>,
}

impl<'a> PlacementInputs<'a> {
    /// The common harness layout: servers at world indices `0..n`,
    /// observers listed explicitly.
    pub fn for_prefix_servers(
        metrics: &'a Metrics,
        current: &'a WeightMap,
        floor: Ratio,
        f: usize,
        observers: Vec<ActorId>,
    ) -> PlacementInputs<'a> {
        PlacementInputs {
            metrics,
            current,
            floor,
            f,
            server_actors: (0..current.len()).map(ActorId).collect(),
            observers,
        }
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.current.len()
    }
}

/// A weight placement policy: proposes the weight map the system should
/// move to, given what has been observed.
///
/// Implementations must preserve the current total exactly and keep every
/// server strictly above `inputs.floor` (use [`shape_weights`], which
/// guarantees both plus Property 1).
pub trait PlacementPolicy {
    /// A short stable name for telemetry and benchmark reports.
    fn name(&self) -> &'static str;

    /// Proposes a new weight map.
    fn propose(&self, inputs: &PlacementInputs<'_>) -> WeightMap;
}

impl PlacementPolicy for Box<dyn PlacementPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn propose(&self, inputs: &PlacementInputs<'_>) -> WeightMap {
        (**self).propose(inputs)
    }
}

/// The baseline: never moves weight.
#[derive(Clone, Copy, Debug, Default)]
pub struct Static;

impl PlacementPolicy for Static {
    fn name(&self) -> &'static str {
        "static"
    }

    fn propose(&self, inputs: &PlacementInputs<'_>) -> WeightMap {
        inputs.current.clone()
    }
}

/// Shifts weight toward the servers with the lowest observed mean RTT to
/// the observers, so the fastest quorum under the active network model
/// holds a weighted majority. Uses *propagation* means only — deliberately
/// blind to queueing, which is [`UtilizationAware`]'s job.
#[derive(Clone, Copy, Debug)]
pub struct LatencyGreedy {
    /// Safety margin above the floor as a fraction (0.1 keeps every target
    /// ≥ 1.1 × floor).
    pub margin: f64,
}

impl Default for LatencyGreedy {
    fn default() -> LatencyGreedy {
        LatencyGreedy { margin: 0.1 }
    }
}

impl PlacementPolicy for LatencyGreedy {
    fn name(&self) -> &'static str {
        "latency-greedy"
    }

    fn propose(&self, inputs: &PlacementInputs<'_>) -> WeightMap {
        let scores = fill_unobserved(
            inputs
                .server_actors
                .iter()
                .map(|&s| observed_rtt(inputs, s))
                .collect(),
        );
        shape_weights(&scores, inputs.current.total(), inputs.floor, self.margin)
    }
}

/// Penalizes servers behind hot links and uplinks: the score is observed
/// RTT *plus* observed mean queueing on the observer links, scaled by
/// `1 + utilization_weight × busy` where `busy` is the worst incident
/// link/uplink utilization (falling back to the server's share of all
/// bytes on the wire when the network model charges no transmission time).
#[derive(Clone, Copy, Debug)]
pub struct UtilizationAware {
    /// Safety margin above the floor (see [`LatencyGreedy::margin`]).
    pub margin: f64,
    /// How hard utilization multiplies the latency score. Zero reduces
    /// this policy to latency-plus-queueing.
    pub utilization_weight: f64,
}

impl Default for UtilizationAware {
    fn default() -> UtilizationAware {
        UtilizationAware {
            margin: 0.1,
            utilization_weight: 4.0,
        }
    }
}

impl PlacementPolicy for UtilizationAware {
    fn name(&self) -> &'static str {
        "utilization-aware"
    }

    fn propose(&self, inputs: &PlacementInputs<'_>) -> WeightMap {
        let m = inputs.metrics;
        let total_bytes = m.bytes_sent.max(1);
        let scores = fill_unobserved(
            inputs
                .server_actors
                .iter()
                .map(|&s| {
                    let rtt = observed_rtt(inputs, s)?;
                    let queue = observed_queueing(inputs, s);
                    // Worst saturation among the server's uplink and its
                    // observer-facing links.
                    let mut busy = m.uplink_utilization(s);
                    for &o in &inputs.observers {
                        busy = busy.max(m.link_utilization(s, o));
                        busy = busy.max(m.link_utilization(o, s));
                    }
                    if busy == 0.0 {
                        // Pure-propagation model or wall-clock runtime: fall
                        // back to the share of wire bytes touching this
                        // server.
                        busy = m.incident_bytes(s) as f64 / total_bytes as f64;
                    }
                    Some((rtt + queue) * (1.0 + self.utilization_weight * busy))
                })
                .collect(),
        );
        shape_weights(&scores, inputs.current.total(), inputs.floor, self.margin)
    }
}

/// Substitutes the *worst* observed score for servers with no
/// observations at all: weight must never drift toward a server just
/// because nothing is known about it. With no observations anywhere,
/// every score is equal and the shaping degenerates to uniform.
fn fill_unobserved(scores: Vec<Option<f64>>) -> Vec<f64> {
    let worst = scores
        .iter()
        .flatten()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let default = if worst.is_finite() { worst } else { 1.0 };
    scores.into_iter().map(|s| s.unwrap_or(default)).collect()
}

/// Mean observed round-trip propagation between server `s` and the
/// observers, falling back to the mean propagation over every link
/// touching `s` when no observer link has samples yet.
fn observed_rtt(inputs: &PlacementInputs<'_>, s: ActorId) -> Option<f64> {
    let m = inputs.metrics;
    let from_observers: Vec<f64> = inputs
        .observers
        .iter()
        .filter_map(|&o| m.mean_link_rtt(o, s))
        .collect();
    if !from_observers.is_empty() {
        return Some(from_observers.iter().sum::<f64>() / from_observers.len() as f64);
    }
    // Fallback: any link touching s (e.g. server-to-server traffic only).
    let (mut sum, mut k) = (0.0, 0u64);
    for ((f, t), link) in m.links() {
        if (f == s || t == s) && f != t {
            if let Some(p) = link.delay.mean_propagation() {
                sum += 2.0 * p; // one-way → RTT estimate
                k += 1;
            }
        }
    }
    (k > 0).then(|| sum / k as f64)
}

/// Mean observed *round-trip* queueing between `s` and the observers:
/// per observer, queueing on the request and reply directions is summed
/// (congestion on either leg delays the operation), then averaged across
/// observers. Zero where nothing has queued.
fn observed_queueing(inputs: &PlacementInputs<'_>, s: ActorId) -> f64 {
    let m = inputs.metrics;
    let (mut sum, mut k) = (0.0, 0u64);
    for &o in &inputs.observers {
        let fwd = m.mean_link_queueing(o, s);
        let back = m.mean_link_queueing(s, o);
        if fwd.is_some() || back.is_some() {
            sum += fwd.unwrap_or(0.0) + back.unwrap_or(0.0);
            k += 1;
        }
    }
    if k == 0 {
        0.0
    } else {
        sum / k as f64
    }
}

/// Turns per-server scores (lower = better) into a safe weight map:
/// weights proportional to `1 / score`, clamped so every server stays at
/// least `floor × (1 + margin)` (strictly above the RP-Integrity floor,
/// hence Property 1 holds by Lemma 1), quantized to an exact rational
/// grid (1/1000, refined by the total's denominator so any exact total
/// is representable) that preserves `total` to the last unit. `margin` is
/// clamped to at least 1 % so the strictly-above-floor guarantee cannot
/// be configured away, and a post-quantization repair pass bumps any
/// lane that f64 rounding left at or below the floor.
///
/// Degenerate inputs (all scores equal, no headroom above the clamp) fall
/// back to the uniform map, which is safe whenever the deployment itself
/// was valid.
///
/// # Panics
///
/// Panics if `scores` is empty or `total` is non-positive.
pub fn shape_weights(scores: &[f64], total: Ratio, floor: Ratio, margin: f64) -> WeightMap {
    let n = scores.len();
    assert!(n > 0, "cannot shape an empty deployment");
    assert!(total.is_positive(), "total weight must be positive");
    let total_f = total.to_f64();
    let min_w = floor.to_f64() * (1.0 + margin.max(0.01));

    // Inverse-score shares (scores clamped away from zero/NaN).
    let inv: Vec<f64> = scores
        .iter()
        .map(|&s| 1.0 / if s.is_finite() && s > 1e-9 { s } else { 1e-9 })
        .collect();
    let inv_sum: f64 = inv.iter().sum();
    let mut w: Vec<f64> = inv.iter().map(|i| total_f * i / inv_sum).collect();

    // Clamp to the floor+margin, redistributing the deficit from lanes
    // with headroom (fixed point in ≤ n rounds; n is small).
    for _ in 0..n {
        let mut deficit = 0.0;
        for x in w.iter_mut() {
            if *x < min_w {
                deficit += min_w - *x;
                *x = min_w;
            }
        }
        if deficit <= 1e-12 {
            break;
        }
        let headroom: f64 = w.iter().map(|x| (x - min_w).max(0.0)).sum();
        if headroom <= deficit {
            // No valid skew exists within the clamp: fall back to uniform.
            let u = total_f / n as f64;
            for x in w.iter_mut() {
                *x = u;
            }
            break;
        }
        for x in w.iter_mut() {
            let h = (*x - min_w).max(0.0);
            *x -= deficit * h / headroom;
        }
    }

    // Quantize to exact rationals, preserving the total to the last
    // unit. The grid is 1/1000 refined by the total's own denominator,
    // so any exact total (e.g. 5/3) is representable — `total` is
    // `1000 · numer` units on the `1/(1000 · denom)` grid by definition.
    let scale = 1000i128 * total.denom();
    let mut q: Vec<i128> = w
        .iter()
        .map(|x| (x * scale as f64).round() as i128)
        .collect();
    let target_total = 1000i128 * total.numer();
    let drift: i128 = target_total - q.iter().sum::<i128>();
    if let Some(max_idx) = (0..q.len()).max_by_key(|&i| q[i]) {
        q[max_idx] += drift;
    }

    // Repair pass: rounding (or the drift dump) may have left a lane at
    // or below the floor. Bump any such lane to the smallest grid value
    // strictly above the floor, paid by the richest lane; if no donor
    // has headroom, no skewed map on this grid is safe — go uniform.
    let u_min = if floor.is_positive() && n > 1 {
        floor.numer() * scale / floor.denom() + 1
    } else {
        0
    };
    for i in 0..n {
        while q[i] < u_min {
            let donor = (0..n)
                .filter(|&j| j != i)
                .max_by_key(|&j| q[j])
                .expect("n > 1 when a lane is deficient");
            let spare = q[donor] - u_min;
            if spare <= 0 {
                let (base, rem) = (target_total / n as i128, target_total % n as i128);
                for (k, u) in q.iter_mut().enumerate() {
                    *u = base + i128::from((k as i128) < rem);
                }
                break;
            }
            let take = spare.min(u_min - q[i]);
            q[donor] -= take;
            q[i] += take;
        }
    }
    WeightMap::from_vec(q.into_iter().map(|v| Ratio::new(v, scale)).collect())
}

/// One planned pairwise transfer: `from` donates `delta` to `to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedTransfer {
    /// The donating server (must invoke the transfer itself — C1).
    pub from: ServerId,
    /// The receiving server.
    pub to: ServerId,
    /// The amount to move.
    pub delta: Ratio,
}

/// Decomposes `current → target` into pairwise transfers.
///
/// Donors are servers whose current weight exceeds their target; receivers
/// the opposite. A greedy matching pairs the largest donor surplus with the
/// largest receiver deficit, so the plan has at most `n − 1` transfers.
///
/// Returns an empty plan when the vectors already match.
///
/// # Panics
///
/// Panics if the totals differ (pairwise reassignment cannot change the
/// total) or the vectors have different lengths.
///
/// # Examples
///
/// ```
/// use awr_quorum::{plan_transfers, PlannedTransfer};
/// use awr_types::{Ratio, WeightMap};
///
/// let current = WeightMap::uniform(4, Ratio::ONE);
/// let target = WeightMap::dec(&["1.2", "1", "1", "0.8"]);
/// let plan = plan_transfers(&current, &target);
/// assert_eq!(plan.len(), 1);
/// assert_eq!(plan[0].delta, Ratio::dec("0.2"));
/// ```
pub fn plan_transfers(current: &WeightMap, target: &WeightMap) -> Vec<PlannedTransfer> {
    assert_eq!(current.len(), target.len(), "vector lengths differ");
    assert_eq!(
        current.total(),
        target.total(),
        "pairwise transfers preserve the total; totals differ"
    );
    let mut surplus: Vec<(ServerId, Ratio)> = Vec::new();
    let mut deficit: Vec<(ServerId, Ratio)> = Vec::new();
    for (s, cur) in current.iter() {
        let t = target.weight(s);
        if cur > t {
            surplus.push((s, cur - t));
        } else if t > cur {
            deficit.push((s, t - cur));
        }
    }
    // Largest first for a short plan.
    surplus.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    deficit.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut plan = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < surplus.len() && j < deficit.len() {
        let d = surplus[i].1.min(deficit[j].1);
        plan.push(PlannedTransfer {
            from: surplus[i].0,
            to: deficit[j].0,
            delta: d,
        });
        surplus[i].1 -= d;
        deficit[j].1 -= d;
        if surplus[i].1.is_zero() {
            i += 1;
        }
        if deficit[j].1.is_zero() {
            j += 1;
        }
    }
    plan
}

/// Validates that a plan is executable under C2: simulating the transfers
/// in order, every donor stays strictly above the floor. Returns the index
/// of the first infeasible step, or `None` if the plan is clean.
pub fn first_infeasible_step(
    floor: Ratio,
    current: &WeightMap,
    plan: &[PlannedTransfer],
) -> Option<usize> {
    let mut w = current.clone();
    for (i, t) in plan.iter().enumerate() {
        if w.weight(t.from) <= t.delta + floor {
            return Some(i);
        }
        w.add(t.from, -t.delta);
        w.add(t.to, t.delta);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{integrity_holds, rp_floor, rp_integrity_holds};
    use awr_sim::Delivery;

    fn a(i: usize) -> ActorId {
        ActorId(i)
    }

    /// Synthetic metrics: clients at indices ≥ n, per-link propagation
    /// from a matrix, optional queueing and busy time.
    fn metrics_with(prop: &[(usize, usize, u64)], queued: &[(usize, usize, u64)]) -> Metrics {
        let mut m = Metrics::default();
        for &(f, t, p) in prop {
            m.record_send(
                "R",
                100,
                a(f),
                a(t),
                Delivery {
                    queued: 0,
                    transmission: 0,
                    propagation: p,
                },
            );
        }
        for &(f, t, q) in queued {
            m.record_send(
                "R",
                100,
                a(f),
                a(t),
                Delivery {
                    queued: q,
                    transmission: 0,
                    propagation: 0,
                },
            );
        }
        m
    }

    fn inputs<'x>(m: &'x Metrics, w: &'x WeightMap, f: usize) -> PlacementInputs<'x> {
        let n = w.len();
        let floor = rp_floor(w.total(), n, f);
        PlacementInputs::for_prefix_servers(m, w, floor, f, vec![a(n)])
    }

    #[test]
    fn static_is_identity() {
        let w = WeightMap::dec(&["1.2", "0.9", "0.9"]);
        let m = Metrics::default();
        let inp = inputs(&m, &w, 1);
        assert_eq!(Static.propose(&inp), w);
    }

    #[test]
    fn latency_greedy_prefers_near_servers() {
        // Observer is actor 3; server 0 is near, 1 and 2 far.
        let w = WeightMap::uniform(3, Ratio::ONE);
        let m = metrics_with(
            &[
                (3, 0, 1_000),
                (0, 3, 1_000),
                (3, 1, 50_000),
                (1, 3, 50_000),
                (3, 2, 80_000),
                (2, 3, 80_000),
            ],
            &[],
        );
        let inp = inputs(&m, &w, 1);
        let p = LatencyGreedy::default().propose(&inp);
        assert_eq!(p.total(), w.total());
        assert_eq!(p.max_weight(), p.weight(ServerId(0)));
        // Both far servers clamp to the floor margin; the near server
        // holds all the headroom.
        assert!(p.weight(ServerId(1)) >= p.weight(ServerId(2)));
        assert!(p.weight(ServerId(0)) > Ratio::ONE);
        assert!(rp_integrity_holds(&p, inp.floor), "{p}");
        assert!(integrity_holds(&p, 1), "{p}");
    }

    #[test]
    fn latency_greedy_without_data_is_uniform() {
        let w = WeightMap::dec(&["1.5", "0.75", "0.75"]);
        let m = Metrics::default();
        let inp = inputs(&m, &w, 1);
        let p = LatencyGreedy::default().propose(&inp);
        assert_eq!(p, WeightMap::uniform(3, Ratio::ONE));
    }

    #[test]
    fn utilization_aware_penalizes_queued_links() {
        // Two equally-near servers, but server 1's observer link queues
        // badly (cross traffic): weight should prefer server 0.
        let w = WeightMap::uniform(3, Ratio::ONE);
        let m = metrics_with(
            &[
                (3, 0, 10_000),
                (0, 3, 10_000),
                (3, 1, 10_000),
                (1, 3, 10_000),
                (3, 2, 90_000),
                (2, 3, 90_000),
            ],
            &[(1, 3, 400_000)],
        );
        let inp = inputs(&m, &w, 1);
        let p = UtilizationAware::default().propose(&inp);
        assert!(
            p.weight(ServerId(0)) > p.weight(ServerId(1)),
            "hot link must shed weight: {p}"
        );
        assert_eq!(p.total(), w.total());
        assert!(rp_integrity_holds(&p, inp.floor));
    }

    #[test]
    fn utilization_aware_uses_busy_time() {
        // Same propagation everywhere; server 1's uplink is saturated.
        let w = WeightMap::uniform(3, Ratio::ONE);
        let mut m = metrics_with(
            &[
                (3, 0, 10_000),
                (0, 3, 10_000),
                (3, 1, 10_000),
                (1, 3, 10_000),
                (3, 2, 10_000),
                (2, 3, 10_000),
            ],
            &[],
        );
        m.last_time = awr_sim::Time(1_000_000);
        // 90 % busy, at the propagation every other sample has.
        m.record_send(
            "R",
            100,
            a(1),
            a(3),
            Delivery {
                queued: 0,
                transmission: 900_000,
                propagation: 10_000,
            },
        );
        let inp = inputs(&m, &w, 1);
        let p = UtilizationAware::default().propose(&inp);
        assert_eq!(p.min_weight(), p.weight(ServerId(1)), "{p}");
        assert!(p.weight(ServerId(0)) > p.weight(ServerId(1)));
    }

    #[test]
    fn shape_weights_clamps_and_preserves_total() {
        let total = Ratio::integer(5);
        let floor = rp_floor(total, 5, 1); // 5/8
        let w = shape_weights(&[1.0, 100.0, 100.0, 100.0, 100.0], total, floor, 0.1);
        assert_eq!(w.total(), total);
        let min_allowed = floor; // strictly above
        for (_, x) in w.iter() {
            assert!(x > min_allowed, "{x} <= floor {min_allowed}");
        }
        assert!(integrity_holds(&w, 1), "{w}");
        assert!(rp_integrity_holds(&w, floor), "{w}");
        // The fast server got nearly all the headroom.
        assert!(w.weight(ServerId(0)) > Ratio::integer(2));
    }

    #[test]
    fn shape_weights_margin_zero_still_clears_the_floor() {
        // margin = 0 must not be able to configure away the
        // strictly-above-floor guarantee (C2 feasibility).
        let total = Ratio::integer(5);
        let floor = rp_floor(total, 5, 1);
        let w = shape_weights(&[1.0, 50.0, 50.0, 50.0, 50.0], total, floor, 0.0);
        assert_eq!(w.total(), total);
        for (_, x) in w.iter() {
            assert!(x > floor, "{x} <= floor {floor}");
        }
        assert!(rp_integrity_holds(&w, floor), "{w}");
    }

    #[test]
    fn unobserved_servers_do_not_attract_weight() {
        // Servers 0–1 observed (fast/slow), server 2 never observed: it
        // must score like the worst observed server, not the best.
        let w = WeightMap::uniform(3, Ratio::ONE);
        let m = metrics_with(
            &[(3, 0, 5_000), (0, 3, 5_000), (3, 1, 80_000), (1, 3, 80_000)],
            &[],
        );
        let inp = inputs(&m, &w, 1);
        for policy in [
            &LatencyGreedy::default() as &dyn PlacementPolicy,
            &UtilizationAware::default(),
        ] {
            let p = policy.propose(&inp);
            assert_eq!(
                p.weight(ServerId(2)),
                p.min_weight(),
                "{}: unknown server must not gain: {p}",
                policy.name()
            );
            assert_eq!(p.max_weight(), p.weight(ServerId(0)), "{}", policy.name());
        }
    }

    #[test]
    fn shape_weights_handles_off_grid_totals() {
        // Total 5/3 is not on the 1/1000 grid; the refined grid must
        // represent it exactly instead of panicking.
        let w = WeightMap::uniform(5, Ratio::new(1, 3)); // total 5/3
        let m = metrics_with(
            &[(5, 0, 1_000), (0, 5, 1_000), (5, 1, 50_000), (1, 5, 50_000)],
            &[],
        );
        let floor = rp_floor(w.total(), 5, 1);
        let inp = PlacementInputs::for_prefix_servers(&m, &w, floor, 1, vec![a(5)]);
        let p = LatencyGreedy::default().propose(&inp);
        assert_eq!(p.total(), w.total());
        assert!(rp_integrity_holds(&p, floor), "{p}");
    }

    #[test]
    fn shape_weights_degenerate_falls_back_to_uniform() {
        // One server (n = f impossible; use tight clamp): margin so large
        // that no headroom remains → uniform.
        let total = Ratio::integer(4);
        let floor = rp_floor(total, 4, 1); // 4/6 = 2/3; 2/3 × 1.5 = 1 ⇒ no headroom
        let w = shape_weights(&[1.0, 2.0, 3.0, 4.0], total, floor, 0.5);
        assert_eq!(w, WeightMap::uniform(4, Ratio::ONE));
    }

    #[test]
    fn plan_roundtrip_reaches_target() {
        let current = WeightMap::uniform(7, Ratio::ONE);
        let target = WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"]);
        let plan = plan_transfers(&current, &target);
        assert!(!plan.is_empty());
        let floor = rp_floor(current.total(), 7, 2);
        assert!(first_infeasible_step(floor, &current, &plan).is_none());
        let mut w = current.clone();
        for t in &plan {
            assert!(t.from != t.to);
            w.add(t.from, -t.delta);
            w.add(t.to, t.delta);
        }
        assert_eq!(w, target);
    }

    #[test]
    fn plan_empty_at_target() {
        let w = WeightMap::uniform(4, Ratio::ONE);
        assert!(plan_transfers(&w, &w).is_empty());
    }

    #[test]
    #[should_panic(expected = "totals differ")]
    fn plan_rejects_total_mismatch() {
        let a = WeightMap::dec(&["1", "1"]);
        let b = WeightMap::dec(&["1", "2"]);
        let _ = plan_transfers(&a, &b);
    }

    #[test]
    fn infeasible_step_detected() {
        let w = WeightMap::uniform(4, Ratio::ONE);
        let floor = rp_floor(w.total(), 4, 1); // 4/6 = 2/3
        let plan = vec![PlannedTransfer {
            from: ServerId(0),
            to: ServerId(1),
            delta: Ratio::dec("0.4"), // 1 > 0.4 + 2/3 is false
        }];
        assert_eq!(first_infeasible_step(floor, &w, &plan), Some(0));
    }
}
