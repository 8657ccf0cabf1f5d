//! Fault plans: declarative crash/restart schedules for a run.
//!
//! The paper's system model (§II) allows up to `f` servers to crash; the
//! simulator has always been able to *kill* an actor
//! ([`crate::World::crash_now`]), but a killed actor stayed dead. A
//! [`FaultPlan`] describes a whole campaign of kills — scheduled, or random
//! at a rate — each optionally followed by a restart, and
//! [`apply_fault_plan`](FaultPlan::apply) installs it into a [`World`] with
//! a caller-supplied rebuild function (typically one that recovers the
//! actor from a durable store it shares with the dead incarnation).
//!
//! Plans are plain data built from a seed, so the same plan replays
//! identically run after run — crash schedules are part of the
//! deterministic schedule, not an extra source of nondeterminism.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, ActorId, Message};
use crate::time::{Nanos, Time};
use crate::world::World;

/// One injected fault: kill `actor` at `at` and, if `down_for` is set,
/// rebuild and reboot it that many nanoseconds later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// When the kill fires.
    pub at: Time,
    /// The actor to kill.
    pub actor: ActorId,
    /// Downtime before the restart (`None` = stays dead, the classic
    /// crash-stop fault).
    pub down_for: Option<Nanos>,
}

impl Fault {
    /// A kill at `at` followed by a restart `down_for` nanoseconds later.
    pub fn kill_restart(actor: ActorId, at: Time, down_for: Nanos) -> Fault {
        Fault {
            at,
            actor,
            down_for: Some(down_for),
        }
    }

    /// A permanent kill at `at` (crash-stop).
    pub fn kill(actor: ActorId, at: Time) -> Fault {
        Fault {
            at,
            actor,
            down_for: None,
        }
    }

    /// When the restart fires, if one is scheduled.
    pub fn restart_at(&self) -> Option<Time> {
        self.down_for.map(|d| self.at + d)
    }
}

/// A deterministic schedule of kill/restart events for one run.
///
/// # Examples
///
/// ```
/// use awr_sim::{ActorId, Fault, FaultPlan, Time};
///
/// // Two scheduled kills; the second one is permanent.
/// let plan = FaultPlan::scheduled([
///     Fault::kill_restart(ActorId(1), Time(5_000_000), 2_000_000),
///     Fault::kill(ActorId(2), Time(9_000_000)),
/// ]);
/// assert_eq!(plan.len(), 2);
/// assert!(plan.max_concurrently_down() >= 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, sorted by kill time.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan from explicit faults (sorted by kill time for determinism).
    pub fn scheduled(faults: impl IntoIterator<Item = Fault>) -> FaultPlan {
        let mut faults: Vec<Fault> = faults.into_iter().collect();
        faults.sort_by_key(|f| (f.at, f.actor));
        FaultPlan { faults }
    }

    /// Random kills at a rate: over `(0, horizon]`, successive kills are
    /// separated by a uniformly random gap in `[mean_interval / 2,
    /// 3 · mean_interval / 2]`, each targeting a uniformly random actor
    /// from `targets` and restarting after `down_for`. Deterministic per
    /// `seed`.
    pub fn random(
        seed: u64,
        targets: &[ActorId],
        horizon: Time,
        mean_interval: Nanos,
        down_for: Nanos,
    ) -> FaultPlan {
        assert!(!targets.is_empty(), "random fault plan needs targets");
        assert!(mean_interval > 0, "mean_interval must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        let mut t = Time::ZERO;
        loop {
            let lo = mean_interval.div_ceil(2).max(1);
            let hi = (mean_interval.saturating_mul(3) / 2).max(lo);
            t += rng.random_range(lo..=hi);
            if t > horizon {
                break;
            }
            let actor = targets[rng.random_range(0..targets.len())];
            faults.push(Fault::kill_restart(actor, t, down_for));
        }
        FaultPlan { faults }
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The largest number of plan targets simultaneously down at any
    /// instant — what a harness compares against the system's fault
    /// threshold `f` before trusting liveness under the plan.
    pub fn max_concurrently_down(&self) -> usize {
        let mut edges: Vec<(Time, i32)> = Vec::new();
        for f in &self.faults {
            edges.push((f.at, 1));
            if let Some(up) = f.restart_at() {
                edges.push((up, -1));
            }
        }
        // Restarts at the same instant as a kill resolve first, matching
        // the event queue only when they were scheduled first; counting
        // the kill first is the conservative reading.
        edges.sort_by_key(|&(t, d)| (t, -d));
        let (mut down, mut max) = (0i32, 0i32);
        for (_, d) in edges {
            down += d;
            max = max.max(down);
        }
        max as usize
    }

    /// Installs the plan into `world`: every kill becomes a scheduled
    /// crash, and every restart rebuilds the actor via `rebuild` (called
    /// at the restart instant with the actor's id). The rebuild function
    /// typically recovers state from a durable store shared with the dead
    /// incarnation.
    pub fn apply<M, F>(&self, world: &mut World<M>, rebuild: F)
    where
        M: Message,
        F: FnMut(ActorId) -> Box<dyn Actor<Msg = M>> + 'static,
    {
        let rebuild = Rc::new(RefCell::new(rebuild));
        for f in &self.faults {
            world.schedule_crash(f.actor, f.at);
            if let Some(up) = f.restart_at() {
                let r = Rc::clone(&rebuild);
                let actor = f.actor;
                world.schedule_restart(actor, up, move || (r.borrow_mut())(actor));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> ActorId {
        ActorId(i)
    }

    #[test]
    fn scheduled_sorts_by_time() {
        let plan = FaultPlan::scheduled([
            Fault::kill(a(2), Time(300)),
            Fault::kill_restart(a(1), Time(100), 50),
        ]);
        assert_eq!(plan.faults[0].actor, a(1));
        assert_eq!(plan.faults[1].actor, a(2));
        assert_eq!(plan.faults[0].restart_at(), Some(Time(150)));
        assert_eq!(plan.faults[1].restart_at(), None);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let targets = [a(0), a(1), a(2)];
        let p1 = FaultPlan::random(9, &targets, Time(10_000_000), 1_000_000, 100_000);
        let p2 = FaultPlan::random(9, &targets, Time(10_000_000), 1_000_000, 100_000);
        assert_eq!(p1, p2, "same seed must replay the same plan");
        assert!(!p1.is_empty());
        assert!(p1.faults.iter().all(|f| f.at <= Time(10_000_000)));
        assert!(p1.faults.iter().all(|f| targets.contains(&f.actor)));
        // Mean gap ~1ms over a 10ms horizon: roughly 7-13 kills.
        assert!(p1.len() >= 5 && p1.len() <= 20, "got {}", p1.len());
        let p3 = FaultPlan::random(10, &targets, Time(10_000_000), 1_000_000, 100_000);
        assert_ne!(p1, p3, "different seeds should differ");
    }

    #[test]
    fn max_concurrently_down_overlap() {
        // Two overlapping downtimes plus one disjoint.
        let plan = FaultPlan::scheduled([
            Fault::kill_restart(a(0), Time(100), 100), // down 100..200
            Fault::kill_restart(a(1), Time(150), 100), // down 150..250
            Fault::kill_restart(a(2), Time(300), 10),  // down 300..310
        ]);
        assert_eq!(plan.max_concurrently_down(), 2);
        // A permanent kill never comes back up.
        let plan = FaultPlan::scheduled([
            Fault::kill(a(0), Time(0)),
            Fault::kill_restart(a(1), Time(1_000), 1),
        ]);
        assert_eq!(plan.max_concurrently_down(), 2);
        assert_eq!(FaultPlan::default().max_concurrently_down(), 0);
    }
}
