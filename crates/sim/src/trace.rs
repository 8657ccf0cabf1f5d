//! Execution tracing: an optional ring buffer of delivery/crash/timer
//! records for debugging protocols and validating schedules.
//!
//! Tracing is off by default (zero cost beyond a branch); enable it with
//! [`crate::World::enable_trace`]. Records carry the message *kind* labels
//! and per-delivery wire sizes (not payloads), which is enough to
//! reconstruct protocol phases and attribute bandwidth.

use std::collections::VecDeque;
use std::fmt;

use crate::actor::ActorId;
use crate::time::{Nanos, Time};

/// What happened at one traced instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message of the given kind was delivered.
    Deliver {
        /// Sending actor.
        from: ActorId,
        /// Receiving actor.
        to: ActorId,
        /// The message's kind label.
        kind: &'static str,
        /// The message's wire size in bytes.
        bytes: usize,
        /// Transmission component of the delivery delay (`size/bandwidth`
        /// plus link queueing; 0 under pure-propagation models).
        transmission: Nanos,
        /// Propagation component of the delivery delay.
        propagation: Nanos,
    },
    /// A message to a crashed actor was dropped.
    DropCrashed {
        /// Sending actor.
        from: ActorId,
        /// The crashed destination.
        to: ActorId,
        /// The message's kind label.
        kind: &'static str,
        /// The message's wire size in bytes.
        bytes: usize,
    },
    /// A timer fired.
    Timer {
        /// The timer's owner.
        actor: ActorId,
        /// The timer tag.
        tag: u64,
    },
    /// An actor crashed.
    Crash {
        /// The crashed actor.
        actor: ActorId,
    },
    /// A crashed actor was rebuilt and rebooted.
    Restart {
        /// The restarted actor.
        actor: ActorId,
    },
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: Time,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TraceKind::Deliver {
                from,
                to,
                kind,
                bytes,
                transmission,
                propagation,
            } => {
                write!(f, "[{}] {from} → {to} : {kind} ({bytes}B)", self.at)?;
                if *transmission > 0 {
                    write!(
                        f,
                        " [tx {:.3}ms + prop {:.3}ms]",
                        *transmission as f64 / 1e6,
                        *propagation as f64 / 1e6
                    )?;
                }
                Ok(())
            }
            TraceKind::DropCrashed {
                from,
                to,
                kind,
                bytes,
            } => {
                write!(
                    f,
                    "[{}] {from} → {to} : {kind} ({bytes}B) (dropped; crashed)",
                    self.at
                )
            }
            TraceKind::Timer { actor, tag } => {
                write!(f, "[{}] {actor} timer #{tag}", self.at)
            }
            TraceKind::Crash { actor } => write!(f, "[{}] {actor} CRASH", self.at),
            TraceKind::Restart { actor } => write!(f, "[{}] {actor} RESTART", self.at),
        }
    }
}

/// A bounded trace buffer (oldest records evicted first).
#[derive(Debug)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    total_recorded: u64,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` records.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total_recorded: 0,
        }
    }

    pub(crate) fn record(&mut self, at: Time, kind: TraceKind) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord { at, kind });
        self.total_recorded += 1;
    }

    /// Records currently retained (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Total records ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Retained deliveries of a given message kind.
    pub fn deliveries_of(&self, kind: &str) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(&r.kind, TraceKind::Deliver { kind: k, .. } if *k == kind))
            .count()
    }

    /// Total `(transmission, propagation)` nanoseconds across retained
    /// deliveries of a given message kind — how much of a phase's latency
    /// was bandwidth versus distance.
    pub fn delivered_delay_components_of(&self, kind: &str) -> (Nanos, Nanos) {
        self.records
            .iter()
            .filter_map(|r| match &r.kind {
                TraceKind::Deliver {
                    kind: k,
                    transmission,
                    propagation,
                    ..
                } if *k == kind => Some((*transmission, *propagation)),
                _ => None,
            })
            .fold((0, 0), |(t, p), (dt, dp)| {
                (t.saturating_add(dt), p.saturating_add(dp))
            })
    }

    /// Renders the retained records, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::new(2);
        for i in 0..5u64 {
            t.record(
                Time(i),
                TraceKind::Timer {
                    actor: ActorId(0),
                    tag: i,
                },
            );
        }
        assert_eq!(t.total_recorded(), 5);
        let kept: Vec<_> = t.records().map(|r| r.at).collect();
        assert_eq!(kept, vec![Time(3), Time(4)]);
    }

    #[test]
    fn display_formats() {
        let r = TraceRecord {
            at: Time(1_000_000),
            kind: TraceKind::Deliver {
                from: ActorId(0),
                to: ActorId(1),
                kind: "T",
                bytes: 64,
                transmission: 0,
                propagation: 1_000_000,
            },
        };
        assert_eq!(r.to_string(), "[t=1.000ms] a0 → a1 : T (64B)");
        let sized = TraceRecord {
            at: Time(3_000_000),
            kind: TraceKind::Deliver {
                from: ActorId(0),
                to: ActorId(1),
                kind: "W",
                bytes: 4096,
                transmission: 2_000_000,
                propagation: 1_000_000,
            },
        };
        assert_eq!(
            sized.to_string(),
            "[t=3.000ms] a0 → a1 : W (4096B) [tx 2.000ms + prop 1.000ms]"
        );
        let c = TraceRecord {
            at: Time(0),
            kind: TraceKind::Crash { actor: ActorId(2) },
        };
        assert!(c.to_string().contains("CRASH"));
    }

    #[test]
    fn deliveries_of_filters() {
        let mut t = Trace::new(10);
        t.record(
            Time(0),
            TraceKind::Deliver {
                from: ActorId(0),
                to: ActorId(1),
                kind: "T",
                bytes: 48,
                transmission: 300,
                propagation: 700,
            },
        );
        t.record(
            Time(1),
            TraceKind::Deliver {
                from: ActorId(1),
                to: ActorId(0),
                kind: "T_Ack",
                bytes: 16,
                transmission: 0,
                propagation: 500,
            },
        );
        assert_eq!(t.deliveries_of("T"), 1);
        assert_eq!(t.deliveries_of("T_Ack"), 1);
        assert_eq!(t.deliveries_of("nope"), 0);
        assert_eq!(t.delivered_delay_components_of("T"), (300, 700));
        assert_eq!(t.delivered_delay_components_of("nope"), (0, 0));
        assert!(t.render().contains("T_Ack"));
    }
}
