//! Problem definitions (paper §III and §V).
//!
//! Three problems, strictest last:
//!
//! 1. **Weight reassignment** (Definition 3): any process may `reassign(s, Δ)`
//!    any server's weight. Properties: Integrity, Validity-I, Validity-II,
//!    Liveness. *Not implementable* in asynchronous failure-prone systems
//!    (Theorem 1 / Corollary 1) — see [`crate::reduction`].
//! 2. **Pairwise weight reassignment** (Definition 4): reassignment happens
//!    only through `transfer(s_i, s_j, Δ)`, keeping the total constant.
//!    *Still not implementable* (Theorem 2).
//! 3. **Restricted pairwise weight reassignment** (Definition 5): adds
//!    condition **C1** (only `s_i` may transfer `s_i`'s weight) and **C2**
//!    (weights stay strictly above `W_{S,0}/(2(n−f))`). Implementable —
//!    [`crate::restricted`] is Algorithms 3–4.

use awr_types::{Change, Ratio, ServerId, TransferChanges, WeightMap};

/// Static parameters of a restricted-pairwise deployment: the server count,
/// the fault threshold, and the initial weights (which fix `W_{S,0}` and the
/// RP-Integrity floor forever).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpConfig {
    /// Number of servers `n`.
    pub n: usize,
    /// Fault threshold `f` (at most `f` servers may crash).
    pub f: usize,
    /// Initial weights `W_{s,0}`.
    pub initial_weights: WeightMap,
}

impl RpConfig {
    /// Creates a configuration, validating it against Property 1 and the
    /// RP-Integrity floor.
    ///
    /// # Errors
    ///
    /// Returns the list of violations if the configuration is unusable (see
    /// [`awr_quorum::validate_initial_config`]).
    pub fn new(
        f: usize,
        initial_weights: WeightMap,
    ) -> Result<RpConfig, Vec<awr_quorum::ConfigViolation>> {
        let v = awr_quorum::validate_initial_config(&initial_weights, f);
        if !v.is_empty() {
            return Err(v);
        }
        Ok(RpConfig {
            n: initial_weights.len(),
            f,
            initial_weights,
        })
    }

    /// The canonical `n`-server, uniform-weight-1 configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n ≤ 2f` (no valid uniform configuration exists).
    pub fn uniform(n: usize, f: usize) -> RpConfig {
        RpConfig::new(f, WeightMap::uniform(n, Ratio::ONE))
            .unwrap_or_else(|v| panic!("invalid uniform config n={n} f={f}: {v:?}"))
    }

    /// The initial total weight `W_{S,0}`.
    pub fn initial_total(&self) -> Ratio {
        self.initial_weights.total()
    }

    /// The RP-Integrity floor `W_{S,0} / (2(n − f))`.
    pub fn floor(&self) -> Ratio {
        awr_quorum::rp_floor(self.initial_total(), self.n, self.f)
    }

    /// The weighted-quorum threshold `W_{S,0} / 2` used by `is_quorum`.
    pub fn quorum_threshold(&self) -> Ratio {
        self.initial_total().half()
    }

    /// All server ids.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        ServerId::all(self.n)
    }
}

/// The outcome of a completed `transfer` invocation, i.e. the
/// `⟨Complete, c⟩` message of §V plus bookkeeping for the auditor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TransferOutcome {
    /// The source server (and, under C1, the issuer).
    pub from: ServerId,
    /// The destination server.
    pub to: ServerId,
    /// The requested amount.
    pub requested: Ratio,
    /// The change pair actually created (null pair if aborted).
    pub changes: TransferChanges,
    /// The issuer's local counter used for the invocation.
    pub counter: u64,
}

impl TransferOutcome {
    /// Whether weight actually moved.
    pub fn is_effective(&self) -> bool {
        self.changes.is_effective()
    }

    /// The `c` of the paper's `⟨Complete, c⟩` (the debit change).
    pub fn complete_change(&self) -> Change {
        self.changes.debit
    }
}

/// Why a `transfer` invocation could not even start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferError {
    /// The previous transfer by this server has not completed yet
    /// (processes are sequential, §II).
    Busy,
    /// `Δ ≤ 0`, or `from == to`, or an unknown server id.
    InvalidArguments {
        /// Human-readable reason.
        reason: String,
    },
    /// The invoking process has crashed, and a crashed process takes no
    /// step (§II): nothing was invoked.
    Crashed,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Busy => write!(f, "previous transfer still in progress"),
            TransferError::InvalidArguments { reason } => {
                write!(f, "invalid transfer arguments: {reason}")
            }
            TransferError::Crashed => write!(f, "the invoking process has crashed"),
        }
    }
}

impl std::error::Error for TransferError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_config() {
        let cfg = RpConfig::uniform(7, 2);
        assert_eq!(cfg.n, 7);
        assert_eq!(cfg.initial_total(), Ratio::integer(7));
        assert_eq!(cfg.floor(), Ratio::dec("0.7"));
        assert_eq!(cfg.quorum_threshold(), Ratio::dec("3.5"));
        assert_eq!(cfg.servers().count(), 7);
    }

    #[test]
    #[should_panic(expected = "invalid uniform config")]
    fn uniform_config_rejects_f_too_large() {
        // n = 4, f = 2: uniform weight 1 vs floor 4/4 = 1 → not strictly above.
        let _ = RpConfig::uniform(4, 2);
    }

    #[test]
    fn custom_weights_validated() {
        // §V.C weights are a valid f=2 configuration (floor 0.7, min 0.8).
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        let cfg = RpConfig::new(2, w).unwrap();
        assert_eq!(cfg.floor(), Ratio::dec("0.7"));
        // But with f = 3 the floor is 7/8 and the 0.8s violate it.
        let w2 = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        assert!(RpConfig::new(3, w2).is_err());
    }

    #[test]
    fn outcome_accessors() {
        let tc = TransferChanges::new(ServerId(0), ServerId(1), 2, Ratio::dec("0.2"), true);
        let o = TransferOutcome {
            from: ServerId(0),
            to: ServerId(1),
            requested: Ratio::dec("0.2"),
            changes: tc,
            counter: 2,
        };
        assert!(o.is_effective());
        assert_eq!(o.complete_change().delta, Ratio::dec("-0.2"));
    }

    #[test]
    fn error_display() {
        assert!(TransferError::Busy.to_string().contains("in progress"));
        assert!(TransferError::Crashed.to_string().contains("crashed"));
        let e = TransferError::InvalidArguments {
            reason: "zero delta".into(),
        };
        assert!(e.to_string().contains("zero delta"));
    }
}
