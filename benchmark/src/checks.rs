//! Output checks. A run whose outputs fail any of these is invalid: the
//! workload is marked incorrect and the process exits non-zero.

use std::collections::BTreeMap;
use std::time::Instant;

use awr_core::{audit_transfers, RpConfig, TransferOutcome};
use awr_sim::Time;
use awr_storage::{check_linearizable_keyed, HistOp, History, OpKind, Recovered, WalRecord};
use awr_types::{ObjectId, Ratio, ServerId, TaggedValue, WeightMap};

use crate::metrics::Outcome;

/// One completed client operation, stamped with the benchmark's own
/// monotonic invoke/response times (hosted actors only ever see
/// `Time::ZERO`).
#[derive(Clone, Debug)]
pub struct OpRec {
    pub invoke: u64,
    pub response: u64,
    pub obj: ObjectId,
    pub kind: OpKind<u64>,
    pub restarts: u64,
}

impl OpRec {
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read(_))
    }

    pub fn latency(&self) -> u64 {
        self.response - self.invoke
    }
}

/// The history of all clients' completed operations.
pub fn history<'a>(clients: impl IntoIterator<Item = &'a Vec<OpRec>>) -> History<u64> {
    let mut h = History::new();
    for (client, ops) in clients.into_iter().enumerate() {
        for op in ops {
            h.record(HistOp {
                client,
                obj: op.obj,
                kind: op.kind.clone(),
                invoke: Time(op.invoke),
                response: Time(op.response),
            });
        }
    }
    h
}

/// Operations one per-key window of the checker can hold (its search
/// keeps the linearized subset in a `u64`).
const LIN_WINDOW: usize = 64;

/// The first window of one key's operations (`ids`, sorted by invocation)
/// that is over the checker's capacity. Windows are the checker's own:
/// each grows while the next operation is invoked no later than
/// everything in it so far has responded.
fn oversized_window(h: &History<u64>, ids: &[usize]) -> Option<std::ops::Range<usize>> {
    let mut start = 0;
    while start < ids.len() {
        let mut end = start + 1;
        let mut max_resp = h.ops[ids[start]].response;
        while end < ids.len() && h.ops[ids[end]].invoke <= max_resp {
            max_resp = max_resp.max(h.ops[ids[end]].response);
            end += 1;
        }
        if end - start > LIN_WINDOW {
            return Some(start..end);
        }
        start = end;
    }
    None
}

/// `h` without the long operations that keep a per-key window — a chain
/// of operations overlapping in time, cut where the key is quiescent —
/// over the checker's capacity (the longest operation of an oversized
/// window goes first), and how many were set aside.
///
/// One operation that stalls for tens of milliseconds (the host took the
/// CPU away in the middle of it) overlaps every operation the other
/// client completes on the same key meanwhile, and a hot key gets a
/// sixth of them. Setting operations aside cannot turn a linearizable
/// history into a non-linearizable one as long as a write goes together
/// with every read of its (unique) value: delete them from a legal
/// sequential order and each remaining read still follows the write it
/// returns. So the check stays free of false alarms and loses sight of
/// the few operations it drops, which the output states.
fn fit_windows(h: &History<u64>) -> (History<u64>, usize) {
    let mut by_key: BTreeMap<ObjectId, Vec<usize>> = BTreeMap::new();
    for (i, op) in h.ops.iter().enumerate() {
        by_key.entry(op.obj).or_default().push(i);
    }
    let mut aside = vec![false; h.ops.len()];
    for ids in by_key.values_mut() {
        ids.sort_by_key(|i| (h.ops[*i].invoke, h.ops[*i].response));
        while let Some(window) = oversized_window(h, ids) {
            let longest = *ids[window]
                .iter()
                .max_by_key(|i| h.ops[**i].response.0 - h.ops[**i].invoke.0)
                .expect("an oversized window is not empty");
            let written = match h.ops[longest].kind {
                OpKind::Write(v) => Some(v),
                OpKind::Read(_) => None,
            };
            ids.retain(|i| {
                let goes =
                    *i == longest || (written.is_some() && h.ops[*i].kind == OpKind::Read(written));
                aside[*i] |= goes;
                !goes
            });
        }
    }
    // Record order within a client is its session order: keep it.
    let kept = h.ops.iter().zip(&aside).filter(|(_, a)| !**a);
    let fitted = History {
        ops: kept.map(|(op, _)| op.clone()).collect(),
    };
    (fitted, aside.iter().filter(|a| **a).count())
}

/// Runs the keyed linearizability checker; returns how long it took and
/// how many operations had to be set aside for it to run at all.
pub fn linearizable(h: &History<u64>) -> Result<(f64, usize), String> {
    let started = Instant::now();
    // The checker panics when a per-key window outgrows its capacity.
    let check = |h: &History<u64>| match std::panic::catch_unwind(|| check_linearizable_keyed(h)) {
        Ok(Ok(())) => Ok(true),
        Ok(Err(e)) => Err(format!("history not linearizable: {e}")),
        Err(_) => Ok(false),
    };
    let mut aside = 0;
    if !check(h)? {
        let (fitted, n) = fit_windows(h);
        aside = n;
        if !check(&fitted)? {
            return Err("linearizability checker overflowed its window capacity".to_string());
        }
    }
    Ok((started.elapsed().as_secs_f64() * 1e3, aside))
}

/// [`linearizable`], with the verdict written into `out`: a note and the
/// check's duration on success, a failed check otherwise.
pub fn linearizable_into(out: &mut Outcome, h: &History<u64>) -> Option<f64> {
    match linearizable(h) {
        Ok((ms, aside)) => {
            let mut note = format!(
                "linearizable: {} ops checked in {ms:.1} ms",
                h.len() - aside
            );
            if aside > 0 {
                note.push_str(&format!(
                    "; {aside} stalled operation(s) set aside so that every per-key window fits the checker's {LIN_WINDOW}"
                ));
            }
            out.notes.push(note);
            Some(ms)
        }
        Err(e) => {
            out.fail_check(e);
            None
        }
    }
}

/// The checker's own cost, as `awr_storage` per-layer metrics.
pub fn lin_cost_layers(out: &mut Outcome, ms: f64, ops: u64) {
    out.layer_value("storage.lin.check_ms", ms, ops);
    out.layer_value(
        "storage.lin.ops_per_s",
        ops as f64 / (ms / 1e3).max(1e-9),
        ops,
    );
}

/// RP audit over all servers' completed transfers, re-stamped with the
/// benchmark's completion times and replayed in that order.
pub fn audit(cfg: &RpConfig, mut completed: Vec<(TransferOutcome, u64)>) -> Result<(), String> {
    completed.sort_by_key(|(_, at)| *at);
    let stamped: Vec<(TransferOutcome, Time)> =
        completed.into_iter().map(|(o, at)| (o, Time(at))).collect();
    let report = audit_transfers(cfg, &stamped);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "transfer audit found {} violation(s), first: {}",
            report.violations.len(),
            report.violations[0]
        ))
    }
}

/// Every server's final view keeps each weight strictly above the RP
/// floor (RP-Integrity) and the total at its initial value.
pub fn weights_sound(cfg: &RpConfig, views: &[WeightMap]) -> Result<(), String> {
    for (i, w) in views.iter().enumerate() {
        if w.total() != cfg.initial_total() {
            return Err(format!(
                "server {i}'s view sums to {}, not the initial total {}",
                w.total(),
                cfg.initial_total()
            ));
        }
        if let Some((s, weight)) = w.iter().find(|(_, weight)| *weight <= cfg.floor()) {
            return Err(format!(
                "server {i}'s view has {s} at {weight}, not above the floor {}",
                cfg.floor()
            ));
        }
    }
    Ok(())
}

/// The register map a server would recover from what its store holds.
pub fn replay(recovered: Option<Recovered<u64>>) -> BTreeMap<ObjectId, TaggedValue<u64>> {
    let Some((snapshot, wal)) = recovered else {
        return BTreeMap::new();
    };
    let mut regs = snapshot.map(|s| s.registers).unwrap_or_default();
    for rec in wal {
        if let WalRecord::Register(obj, reg) = rec {
            regs.entry(obj)
                .or_insert_with(TaggedValue::bottom)
                .adopt_if_newer(&reg);
        }
    }
    regs
}

/// Every key's last acknowledged write (or a later one — each key has a
/// single writer whose values only grow) is stored on a weighted quorum.
pub fn acked_on_quorum(
    acked: &BTreeMap<ObjectId, u64>,
    stores: &[BTreeMap<ObjectId, TaggedValue<u64>>],
    weights: &WeightMap,
) -> Result<(), String> {
    let half = weights.total().half();
    for (obj, want) in acked {
        let holding: Ratio = stores
            .iter()
            .enumerate()
            .filter(|(_, regs)| regs.get(obj).and_then(|r| r.value) >= Some(*want))
            .map(|(i, _)| weights.weight(ServerId(i as u32)))
            .sum();
        if holding <= half {
            return Err(format!(
                "acknowledged write {want:#x} to {obj} is durable on weight {holding} only (quorum needs > {half})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::{ClientId, ProcessId, Tag};

    fn reg(ts: u64, v: u64) -> TaggedValue<u64> {
        TaggedValue::new(Tag::new(ts, ProcessId::Client(ClientId(0))), v)
    }

    #[test]
    fn stale_read_is_flagged() {
        let ops = |reads: u64| {
            vec![vec![
                OpRec {
                    invoke: 0,
                    response: 10,
                    obj: ObjectId(1),
                    kind: OpKind::Write(5),
                    restarts: 0,
                },
                OpRec {
                    invoke: 20,
                    response: 30,
                    obj: ObjectId(1),
                    kind: OpKind::Read(Some(reads)),
                    restarts: 0,
                },
            ]]
        };
        assert!(linearizable(&history(&ops(5))).is_ok());
        assert!(linearizable(&history(&ops(4))).is_err());
    }

    /// Client 0 stalls in one long operation on key 1 while client 1
    /// completes `n` short ones on the same key, the first a write.
    fn stalled(long: OpKind<u64>, n: u64, last_read: u64) -> History<u64> {
        let short = |k: u64, kind| OpRec {
            invoke: 10 + 10 * k,
            response: 15 + 10 * k,
            obj: ObjectId(1),
            kind,
            restarts: 0,
        };
        let mut other = vec![short(0, OpKind::Write(7))];
        other.extend((1..n - 1).map(|k| short(k, OpKind::Read(Some(7)))));
        other.push(short(n - 1, OpKind::Read(Some(last_read))));
        let long = OpRec {
            invoke: 0,
            response: 20 + 10 * n,
            obj: ObjectId(1),
            kind: long,
            restarts: 0,
        };
        history(&[vec![long], other])
    }

    #[test]
    fn oversized_windows_are_checked_without_the_stalled_operation() {
        // 200 operations under one stalled read: over capacity as it is.
        let h = stalled(OpKind::Read(None), 200, 7);
        assert_eq!(fit_windows(&h).1, 1);
        assert_eq!(linearizable(&h).map(|(_, aside)| aside), Ok(1));
        // What is left is still checked: a read of a value never written.
        assert!(linearizable(&stalled(OpKind::Read(None), 200, 8)).is_err());
        // A stalled write goes together with the reads of its value.
        let h = stalled(OpKind::Write(9), 200, 9);
        assert_eq!(linearizable(&h).map(|(_, aside)| aside), Ok(2));
        // Windows that fit are left alone.
        let h = stalled(OpKind::Read(None), 20, 7);
        assert_eq!(fit_windows(&h).1, 0);
        assert_eq!(linearizable(&h).map(|(_, aside)| aside), Ok(0));
    }

    #[test]
    fn quorum_durability_counts_weight() {
        let weights = WeightMap::uniform(3, Ratio::ONE);
        let acked: BTreeMap<ObjectId, u64> = [(ObjectId(0), 7)].into();
        let with =
            |v: u64| -> BTreeMap<ObjectId, TaggedValue<u64>> { [(ObjectId(0), reg(1, v))].into() };
        // Two of three hold it (one even holds a later write): fine.
        assert!(acked_on_quorum(&acked, &[with(7), with(9), BTreeMap::new()], &weights).is_ok());
        // One of three: an acknowledged write was lost.
        assert!(acked_on_quorum(&acked, &[with(7), with(3), BTreeMap::new()], &weights).is_err());
    }

    #[test]
    fn replay_keeps_the_newest_register() {
        let wal = vec![
            WalRecord::Register(ObjectId(2), reg(1, 10)),
            WalRecord::Register(ObjectId(2), reg(3, 30)),
            WalRecord::Register(ObjectId(2), reg(2, 20)),
        ];
        let regs = replay(Some((None, wal)));
        assert_eq!(regs[&ObjectId(2)].value, Some(30));
        assert!(replay(None).is_empty());
    }

    #[test]
    fn weight_views_must_conserve_and_stay_above_floor() {
        let cfg = RpConfig::uniform(5, 1);
        assert!(weights_sound(&cfg, std::slice::from_ref(&cfg.initial_weights)).is_ok());
        let mut low = cfg.initial_weights.clone();
        low.add(ServerId(0), Ratio::new(-1, 2));
        low.add(ServerId(1), Ratio::new(1, 2));
        assert!(
            weights_sound(&cfg, &[low.clone()]).is_err(),
            "0.5 < floor 0.625"
        );
        low.add(ServerId(1), Ratio::ONE);
        assert!(weights_sound(&cfg, &[low]).is_err(), "total changed");
    }
}
