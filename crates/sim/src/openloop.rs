//! Open-loop arrival processes.
//!
//! A *closed-loop* workload issues the next operation when the previous
//! one completes, so the offered rate sags exactly when the system slows
//! down — it can never expose the latency-vs-throughput knee. An
//! *open-loop* workload draws arrival instants from a stochastic process
//! fixed up front: arrivals keep coming at the target rate whether or not
//! the system keeps up, and queueing delay shows up in the recorded
//! latency.
//!
//! The generators here are pure functions of their own seed: they own a
//! private RNG, never touch the simulation's RNG, and never observe
//! completions. That is the open-loop invariant — the arrival sequence
//! for a given `(spec, seed)` is byte-identical no matter what the
//! system under load does — and it is pinned by
//! `tests/arrival_determinism.rs`.
//!
//! Splitting one offered load across `n` logical clients uses Poisson
//! superposition: `n` independent processes at `rate / n` are exactly a
//! Poisson process at `rate` (and in-phase on/off processes sum the same
//! way), so [`ArrivalSpec::split`] preserves the aggregate process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::{Nanos, Time};

/// A stream of absolute arrival instants, exhausted at a horizon.
pub trait ArrivalProcess {
    /// The next arrival time (non-decreasing), or `None` once the
    /// process has run past its horizon.
    fn next_arrival(&mut self) -> Option<Time>;
}

impl ArrivalProcess for Box<dyn ArrivalProcess> {
    fn next_arrival(&mut self) -> Option<Time> {
        (**self).next_arrival()
    }
}

/// Draws an exponential inter-arrival gap in nanoseconds at `rate`
/// arrivals/second: `-ln(U) / rate`, `U` uniform in `(0, 1]`.
fn exp_gap_ns(rng: &mut StdRng, rate_per_sec: f64) -> f64 {
    // 1 - U ∈ (0, 1]: never ln(0).
    let u = 1.0 - rng.random_f64();
    -u.ln() / rate_per_sec * 1e9
}

/// A homogeneous Poisson arrival process at a target rate.
pub struct PoissonArrivals {
    rng: StdRng,
    rate_per_sec: f64,
    cursor_ns: f64,
    end: Time,
}

impl PoissonArrivals {
    /// Arrivals at `rate_per_sec` from time zero until `end`.
    pub fn new(seed: u64, rate_per_sec: f64, end: Time) -> Self {
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_per_sec,
            cursor_ns: 0.0,
            end,
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self) -> Option<Time> {
        if self.rate_per_sec <= 0.0 {
            return None;
        }
        self.cursor_ns += exp_gap_ns(&mut self.rng, self.rate_per_sec);
        if self.cursor_ns >= self.end.0 as f64 {
            return None;
        }
        Some(Time(self.cursor_ns as u64))
    }
}

/// An on/off modulated Poisson process: `on_rate` arrivals/second for
/// `on_ns`, silence for `off_ns`, repeating. Phase boundaries are exact:
/// a draw that crosses into the next phase is clamped to the boundary
/// and redrawn there, which by memorylessness samples the
/// piecewise-constant-rate process without approximation.
pub struct BurstyArrivals {
    rng: StdRng,
    on_rate_per_sec: f64,
    on_ns: Nanos,
    off_ns: Nanos,
    cursor_ns: f64,
    end: Time,
}

impl BurstyArrivals {
    /// An on/off process from time zero until `end`, starting in the
    /// "on" phase.
    ///
    /// # Panics
    ///
    /// Panics if `on_ns` is zero (the process would never emit).
    pub fn new(seed: u64, on_rate_per_sec: f64, on_ns: Nanos, off_ns: Nanos, end: Time) -> Self {
        assert!(on_ns > 0, "bursty process needs a non-empty on phase");
        BurstyArrivals {
            rng: StdRng::seed_from_u64(seed),
            on_rate_per_sec,
            on_ns,
            off_ns,
            cursor_ns: 0.0,
            end,
        }
    }

    /// Start of the next "on" window at or after `t_ns`.
    fn skip_off(&self, t_ns: f64) -> f64 {
        let period = (self.on_ns + self.off_ns) as f64;
        let phase = t_ns % period;
        if phase < self.on_ns as f64 {
            t_ns
        } else {
            t_ns - phase + period
        }
    }

    /// End of the "on" window containing `t_ns` (callers ensure `t_ns`
    /// is inside one).
    fn on_window_end(&self, t_ns: f64) -> f64 {
        let period = (self.on_ns + self.off_ns) as f64;
        let phase = t_ns % period;
        t_ns - phase + self.on_ns as f64
    }
}

impl ArrivalProcess for BurstyArrivals {
    fn next_arrival(&mut self) -> Option<Time> {
        if self.on_rate_per_sec <= 0.0 {
            return None;
        }
        let end = self.end.0 as f64;
        loop {
            let t = self.skip_off(self.cursor_ns);
            if t >= end {
                return None;
            }
            let window_end = self.on_window_end(t);
            let candidate = t + exp_gap_ns(&mut self.rng, self.on_rate_per_sec);
            if candidate < window_end {
                if candidate >= end {
                    return None;
                }
                self.cursor_ns = candidate;
                return Some(Time(candidate as u64));
            }
            // Crossed into the off phase: clamp and redraw from the next
            // on-window (memoryless, so this is exact).
            self.cursor_ns = window_end;
        }
    }
}

/// A declarative arrival-process shape a harness can split across many
/// logical clients.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalSpec {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Aggregate offered rate, arrivals/second.
        rate_per_sec: f64,
    },
    /// On/off modulated Poisson arrivals (all clients phase-aligned).
    Bursty {
        /// Offered rate while "on", arrivals/second.
        on_rate_per_sec: f64,
        /// "On" window length.
        on_ns: Nanos,
        /// "Off" window length.
        off_ns: Nanos,
    },
}

impl ArrivalSpec {
    /// This spec's share for one of `n` clients (Poisson superposition:
    /// the aggregate of the `n` split processes is exactly `self`).
    pub fn split(&self, n: usize) -> ArrivalSpec {
        let n = n.max(1) as f64;
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => ArrivalSpec::Poisson {
                rate_per_sec: rate_per_sec / n,
            },
            ArrivalSpec::Bursty {
                on_rate_per_sec,
                on_ns,
                off_ns,
            } => ArrivalSpec::Bursty {
                on_rate_per_sec: on_rate_per_sec / n,
                on_ns,
                off_ns,
            },
        }
    }

    /// Long-run mean offered rate in arrivals/second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalSpec::Bursty {
                on_rate_per_sec,
                on_ns,
                off_ns,
            } => on_rate_per_sec * on_ns as f64 / (on_ns + off_ns) as f64,
        }
    }

    /// Instantiates the process with its own private RNG.
    pub fn build(&self, seed: u64, end: Time) -> Box<dyn ArrivalProcess> {
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => {
                Box::new(PoissonArrivals::new(seed, rate_per_sec, end))
            }
            ArrivalSpec::Bursty {
                on_rate_per_sec,
                on_ns,
                off_ns,
            } => Box::new(BurstyArrivals::new(
                seed,
                on_rate_per_sec,
                on_ns,
                off_ns,
                end,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SECOND;

    fn collect(p: &mut dyn ArrivalProcess) -> Vec<Time> {
        std::iter::from_fn(|| p.next_arrival()).collect()
    }

    #[test]
    fn poisson_same_seed_identical_sequence() {
        let end = Time(2 * SECOND);
        let a = collect(&mut PoissonArrivals::new(9, 5_000.0, end));
        let b = collect(&mut PoissonArrivals::new(9, 5_000.0, end));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let c = collect(&mut PoissonArrivals::new(10, 5_000.0, end));
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn poisson_mean_rate_within_tolerance() {
        // 200k expected arrivals: the empirical rate is within ~1%.
        let end = Time(20 * SECOND);
        let n = collect(&mut PoissonArrivals::new(1, 10_000.0, end)).len() as f64;
        let rate = n / 20.0;
        assert!(
            (rate - 10_000.0).abs() < 150.0,
            "empirical rate {rate} too far from 10000"
        );
    }

    #[test]
    fn poisson_arrivals_strictly_ordered_and_bounded() {
        let end = Time(SECOND);
        let a = collect(&mut PoissonArrivals::new(3, 50_000.0, end));
        for w in a.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(a.iter().all(|t| *t < end));
    }

    #[test]
    fn bursty_same_seed_identical_sequence() {
        let end = Time(2 * SECOND);
        let mk = |seed| {
            collect(&mut BurstyArrivals::new(
                seed, 20_000.0, 10_000_000, 30_000_000, end,
            ))
        };
        assert!(!mk(7).is_empty());
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn bursty_arrivals_only_in_on_windows() {
        let on = 5_000_000u64; // 5 ms
        let off = 15_000_000u64; // 15 ms
        let end = Time(4 * SECOND);
        let a = collect(&mut BurstyArrivals::new(2, 40_000.0, on, off, end));
        assert!(!a.is_empty());
        for t in &a {
            let phase = t.0 % (on + off);
            assert!(phase < on, "arrival at {t} lands in an off window");
        }
    }

    #[test]
    fn bursty_mean_rate_matches_duty_cycle() {
        // on_rate 40k with 25% duty cycle → 10k/s long-run mean.
        let spec = ArrivalSpec::Bursty {
            on_rate_per_sec: 40_000.0,
            on_ns: 5_000_000,
            off_ns: 15_000_000,
        };
        assert!((spec.mean_rate() - 10_000.0).abs() < 1e-9);
        let end = Time(20 * SECOND);
        let n = collect(&mut spec.build(5, end)).len() as f64;
        let rate = n / 20.0;
        assert!(
            (rate - 10_000.0).abs() < 200.0,
            "empirical rate {rate} too far from 10000"
        );
    }

    #[test]
    fn split_preserves_aggregate_rate() {
        let spec = ArrivalSpec::Poisson {
            rate_per_sec: 30_000.0,
        };
        let end = Time(5 * SECOND);
        let total: usize = (0..16)
            .map(|i| collect(&mut spec.split(16).build(100 + i, end)).len())
            .sum();
        let rate = total as f64 / 5.0;
        assert!(
            (rate - 30_000.0).abs() < 400.0,
            "aggregate of split processes {rate} too far from 30000"
        );
    }

    #[test]
    fn zero_rate_emits_nothing() {
        assert!(PoissonArrivals::new(1, 0.0, Time(SECOND))
            .next_arrival()
            .is_none());
    }
}
