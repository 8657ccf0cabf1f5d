//! # awr-epoch — the epoch-based weight reassignment baseline
//!
//! A reconstruction of the consensus-free, epoch-based protocol of
//! Heydari, Silvestre & Arantes (NCA 2021) — reference \[11\] of the paper —
//! capturing the two properties the paper criticizes (§VIII):
//!
//! 1. reassignment requests issued during an epoch are only **applied at
//!    the end of the epoch**, so the epoch length lower-bounds reassignment
//!    latency; and
//! 2. the **total weight can shrink** over time: at an epoch boundary every
//!    requested *decrease* applies unconditionally, while an *increase*
//!    applies only up to the weight actually released in the same epoch —
//!    unmatched decreases leak voting power.
//!
//! The restricted pairwise protocol of `awr-core` is *epochless* and
//! conserves the total; experiment E8 quantifies both advantages.
//!
//! The reconstruction is deliberately simulator-local (a [`EpochEngine`]
//! driven by the harness at epoch boundaries) rather than a full
//! message-passing re-implementation of \[11\]: the compared quantities —
//! application delay and total weight — depend only on the epoch semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use awr_quorum::rp_floor;
use awr_sim::Time;
use awr_types::{Ratio, ServerId, WeightMap};

/// A reassignment request submitted during an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRequest {
    /// The server whose weight changes.
    pub server: ServerId,
    /// The signed delta (positive = increase, negative = decrease).
    pub delta: Ratio,
    /// Submission time (for latency accounting).
    pub submitted: Time,
}

/// The outcome of one applied request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochApplied {
    /// The original request.
    pub request: EpochRequest,
    /// The delta actually applied (may be clipped for increases).
    pub applied: Ratio,
    /// The epoch boundary at which it took effect.
    pub applied_at: Time,
}

/// Epoch-based reassignment engine: collects requests, applies them in
/// batch at each epoch boundary.
///
/// # Examples
///
/// ```
/// use awr_epoch::{EpochEngine, EpochRequest};
/// use awr_sim::Time;
/// use awr_types::{Ratio, ServerId, WeightMap};
///
/// let mut e = EpochEngine::new(WeightMap::uniform(5, Ratio::ONE), 1);
/// e.submit(EpochRequest { server: ServerId(0), delta: Ratio::dec("-0.2"),
///                         submitted: Time(10) });
/// // Nothing applies until the boundary.
/// assert_eq!(e.weights().weight(ServerId(0)), Ratio::ONE);
/// let applied = e.end_epoch(Time(1_000));
/// assert_eq!(applied.len(), 1);
/// assert_eq!(e.weights().weight(ServerId(0)), Ratio::dec("0.8"));
/// // The decrease was unmatched: total weight shrank from 5 to 4.8.
/// assert_eq!(e.weights().total(), Ratio::dec("4.8"));
/// ```
#[derive(Clone, Debug)]
pub struct EpochEngine {
    weights: WeightMap,
    f: usize,
    floor: Ratio,
    pending: Vec<EpochRequest>,
    /// Everything applied so far, in application order.
    pub applied_log: Vec<EpochApplied>,
    /// Requests rejected at a boundary (would breach the floor or
    /// Property 1).
    pub rejected: Vec<EpochRequest>,
}

impl EpochEngine {
    /// Creates an engine with the given initial weights and fault
    /// threshold.
    pub fn new(initial: WeightMap, f: usize) -> EpochEngine {
        let floor = rp_floor(initial.total(), initial.len(), f);
        EpochEngine {
            weights: initial,
            f,
            floor,
            pending: Vec::new(),
            applied_log: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// Current weights (reflecting all closed epochs).
    pub fn weights(&self) -> &WeightMap {
        &self.weights
    }

    /// Requests waiting for the next boundary.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Submits a request during the current epoch.
    pub fn submit(&mut self, req: EpochRequest) {
        self.pending.push(req);
    }

    /// Closes the epoch at time `boundary`: applies the batch and returns
    /// what was applied.
    ///
    /// Application rule (the \[11\] reconstruction):
    /// * decreases apply first, clipped so no server falls to or below the
    ///   floor (a fully infeasible decrease is rejected);
    /// * increases then apply, but only up to the *pool* of weight released
    ///   by this epoch's decreases — weight is never minted, and any
    ///   unmatched released weight is lost (the total-shrink property);
    /// * any application that would break Property 1 is rejected.
    pub fn end_epoch(&mut self, boundary: Time) -> Vec<EpochApplied> {
        let mut batch: Vec<EpochRequest> = std::mem::take(&mut self.pending);
        // Deterministic order: decreases first, then by (server, submitted).
        batch.sort_by_key(|r| (r.delta.is_positive(), r.server, r.submitted));

        let mut released = Ratio::ZERO;
        let mut applied = Vec::new();
        for req in batch {
            if req.delta.is_negative() {
                let decrease = -req.delta; // positive magnitude
                let headroom = self.weights.weight(req.server) - self.floor;
                if headroom <= Ratio::ZERO {
                    self.rejected.push(req);
                    continue;
                }
                // Clip so the server stays strictly above the floor — use
                // the largest grid step below headroom.
                let take = if decrease < headroom {
                    decrease
                } else {
                    // leave a hair above the floor
                    headroom - headroom.min(Ratio::new(1, 100))
                };
                if !take.is_positive() {
                    self.rejected.push(req);
                    continue;
                }
                self.weights.add(req.server, -take);
                released += take;
                applied.push(EpochApplied {
                    request: req,
                    applied: -take,
                    applied_at: boundary,
                });
            } else {
                // Increase: only from the released pool.
                let grant = req.delta.min(released);
                if !grant.is_positive() {
                    self.rejected.push(req);
                    continue;
                }
                let mut hypothetical = self.weights.clone();
                hypothetical.add(req.server, grant);
                if !awr_quorum::integrity_holds(&hypothetical, self.f) {
                    self.rejected.push(req);
                    continue;
                }
                released -= grant;
                self.weights = hypothetical;
                applied.push(EpochApplied {
                    request: req,
                    applied: grant,
                    applied_at: boundary,
                });
            }
        }
        // `released` that nobody claimed is gone — the leak the paper
        // criticizes. Nothing to do: the weights already reflect it.
        self.applied_log.extend(applied.iter().cloned());
        applied
    }

    /// Mean request→application delay over the applied log, in virtual ms.
    pub fn mean_apply_delay_ms(&self) -> f64 {
        if self.applied_log.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .applied_log
            .iter()
            .map(|a| (a.applied_at - a.request.submitted) as f64 / 1e6)
            .sum();
        total / self.applied_log.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    fn engine() -> EpochEngine {
        EpochEngine::new(WeightMap::uniform(7, Ratio::ONE), 2)
    }

    #[test]
    fn requests_wait_for_boundary() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.1"),
            submitted: Time(5),
        });
        assert_eq!(e.pending_count(), 1);
        assert_eq!(e.weights().weight(s(0)), Ratio::ONE);
        e.end_epoch(Time(100));
        assert_eq!(e.pending_count(), 0);
        assert_eq!(e.weights().weight(s(0)), Ratio::dec("0.9"));
    }

    #[test]
    fn matched_transfer_conserves_total() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.2"),
            submitted: Time(1),
        });
        e.submit(EpochRequest {
            server: s(1),
            delta: Ratio::dec("0.2"),
            submitted: Time(2),
        });
        let applied = e.end_epoch(Time(100));
        assert_eq!(applied.len(), 2);
        assert_eq!(e.weights().total(), Ratio::integer(7));
        assert_eq!(e.weights().weight(s(1)), Ratio::dec("1.2"));
    }

    #[test]
    fn unmatched_decrease_leaks_total() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.2"),
            submitted: Time(1),
        });
        e.end_epoch(Time(100));
        assert_eq!(e.weights().total(), Ratio::dec("6.8"));
    }

    #[test]
    fn increase_without_release_rejected() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("0.2"),
            submitted: Time(1),
        });
        let applied = e.end_epoch(Time(100));
        assert!(applied.is_empty());
        assert_eq!(e.rejected.len(), 1);
        assert_eq!(e.weights().total(), Ratio::integer(7));
    }

    #[test]
    fn increase_clipped_to_released_pool() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.1"),
            submitted: Time(1),
        });
        e.submit(EpochRequest {
            server: s(1),
            delta: Ratio::dec("0.5"),
            submitted: Time(2),
        });
        let applied = e.end_epoch(Time(100));
        assert_eq!(applied.len(), 2);
        // The increase got only the released 0.1.
        assert_eq!(e.weights().weight(s(1)), Ratio::dec("1.1"));
        assert_eq!(e.weights().total(), Ratio::integer(7));
    }

    #[test]
    fn floor_respected_with_clipping() {
        let mut e = engine(); // floor 0.7
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.5"), // headroom is only 0.3
            submitted: Time(1),
        });
        e.end_epoch(Time(100));
        assert!(e.weights().weight(s(0)) > Ratio::dec("0.7"));
        assert!(awr_quorum::rp_integrity_holds(
            e.weights(),
            Ratio::dec("0.7")
        ));
    }

    #[test]
    fn apply_delay_tracks_epoch_length() {
        let mut e = engine();
        e.submit(EpochRequest {
            server: s(0),
            delta: Ratio::dec("-0.1"),
            submitted: Time(0),
        });
        e.end_epoch(Time(1_000_000_000)); // 1 s boundary
        assert!((e.mean_apply_delay_ms() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn property1_never_violated_across_epochs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = engine();
        for epoch in 0..50u64 {
            for _ in 0..4 {
                let server = s(rng.random_range(0..7));
                let mag = Ratio::new(rng.random_range(1..=3i128), 10);
                let delta = if rng.random_range(0..2) == 0 {
                    mag
                } else {
                    -mag
                };
                e.submit(EpochRequest {
                    server,
                    delta,
                    submitted: Time(epoch * 1000),
                });
            }
            e.end_epoch(Time((epoch + 1) * 1000));
            assert!(
                awr_quorum::integrity_holds(e.weights(), 2),
                "epoch {epoch}: {:?}",
                e.weights()
            );
            // Total never grows.
            assert!(e.weights().total() <= Ratio::integer(7));
        }
    }
}
