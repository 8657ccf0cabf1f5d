//! The ledger: public functions of single layers timed directly, with
//! allocations counted, on inputs shaped like the workloads' own.
//!
//! Inputs are built here rather than captured from a live run so that a
//! ledger line depends on nothing but the code it times: the message
//! shapes are the steady-state ones of the TCP workloads (summary
//! references, one register, a one-pair `⟨T⟩` envelope) plus the one
//! expensive outlier — a rejecting `R_A` carrying the whole change set at
//! the size `tcp_reassign` ends with. The ledger is the same on every
//! workload; it runs in traced runs only, where allocation counting is on.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use awr_check::explore::Explorer;
use awr_check::scenario::fastpath3;
use awr_core::restricted::WrMsg;
use awr_net::{decode_frame, encode_frame};
use awr_quorum::{fast_path_read_quorum, WeightedMajorityQuorumSystem};
use awr_rb::RbEnvelope;
use awr_sim::{ActorId, BinaryHeapScheduler, Scheduler, Time, TimingWheel};
use awr_storage::DynMsg;
use awr_types::{
    ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
    TransferChanges, WeightMap,
};

use crate::alloc;
use crate::metrics::{changeset_metric, frame_metric, Outcome, CHANGESET_SIZES, FRAME_KINDS};
use crate::script::splitmix64;
use crate::trace::Msg;

const SERVERS: usize = 5;

/// Runs `body` `iters` times with allocation counting on; returns (ns per
/// iteration, allocations per iteration). For bodies that allocate less
/// than once per call, where the counter's atomic traffic is noise.
fn time_counted<R>(iters: u64, mut body: impl FnMut(u64) -> R) -> (f64, f64) {
    let allocs = alloc::allocations();
    let started = Instant::now();
    for i in 0..iters {
        black_box(body(black_box(i)));
    }
    let ns = started.elapsed().as_nanos() as f64;
    let allocs = alloc::allocations() - allocs;
    (ns / iters as f64, allocs as f64 / iters as f64)
}

/// Ns per iteration with allocation counting paused, so that a body
/// allocating dozens of times per call is not slowed by being counted.
fn time<R>(iters: u64, body: impl FnMut(u64) -> R) -> f64 {
    alloc::set_counting(false);
    let (ns, _) = time_counted(iters, body);
    alloc::set_counting(true);
    ns
}

/// The `k`-th ring transfer's change pair, as `tcp_reassign` produces
/// them: donor `k mod n` gives 1/100 to its neighbour.
fn ring_pair(k: u64) -> TransferChanges {
    let from = (k % SERVERS as u64) as u32;
    TransferChanges::new(
        ServerId(from),
        ServerId((from + 1) % SERVERS as u32),
        2 + k / SERVERS as u64,
        Ratio::new(1, 100),
        true,
    )
}

/// A change set of (at least) `len` changes: the initial weights plus
/// ring transfers.
fn change_set(len: usize) -> ChangeSet {
    let mut cs = ChangeSet::from_initial_weights(&WeightMap::uniform(SERVERS, Ratio::ONE));
    let mut k = 0;
    while cs.len() < len {
        let pair = ring_pair(k);
        cs.insert(pair.debit);
        cs.insert(pair.credit);
        k += 1;
    }
    cs
}

/// A transfer no ring schedule produces (counter far above any round),
/// so it is new to every set built by [`change_set`].
fn fresh_pair(i: u64) -> TransferChanges {
    TransferChanges::new(
        ServerId(0),
        ServerId(1),
        1_000_000 + i,
        Ratio::new(1, 1000),
        true,
    )
}

fn message(kind: &str, small: &ChangeSet, big: &ChangeSet) -> Msg {
    let reg = TaggedValue::new(
        Tag::new(41, ProcessId::Client(ClientId(1))),
        (2u64 << 40) | 41,
    );
    let obj = ObjectId(17);
    let summary = CsRef::summary(small);
    match kind {
        "R" => DynMsg::R {
            op: 1234,
            obj,
            changes: summary,
        },
        "R_A" => DynMsg::RAck {
            op: 1234,
            obj,
            reg,
            changes: summary,
            accepted: true,
        },
        "W" => DynMsg::W {
            op: 1234,
            obj,
            reg,
            changes: summary,
        },
        "W_A" => DynMsg::WAck {
            op: 1234,
            obj,
            changes: summary,
            accepted: true,
        },
        "T" => DynMsg::Wr(WrMsg::Rb(RbEnvelope {
            origin: ActorId(2),
            seq: 77,
            payload: vec![ring_pair(77)],
        })),
        "RefA" => DynMsg::RefreshAck {
            op: 9,
            regs: (0..4)
                .map(|k| (ObjectId(k), reg))
                .collect::<BTreeMap<_, _>>(),
            need_tags: false,
        },
        "R_A_full" => DynMsg::RAck {
            op: 1234,
            obj,
            reg,
            changes: CsRef::Full(big.clone()),
            accepted: false,
        },
        other => unreachable!("no ledger message for kind {other}"),
    }
}

fn frames(out: &mut Outcome, scale: u64) {
    let small = change_set(3);
    let big = change_set(*CHANGESET_SIZES.last().expect("sizes"));
    for kind in FRAME_KINDS {
        let msg = message(kind, &small, &big);
        let iters = (if kind == "R_A_full" { 50 } else { 20_000 } / scale).max(5);
        let buf = encode_frame(&msg);
        let decode = |_| {
            decode_frame::<Msg>(&buf)
                .expect("own frame decodes")
                .expect("whole frame present")
        };
        let enc_ns = time(iters, |_| encode_frame(&msg));
        let dec_ns = time(iters, decode);
        let (_, enc_allocs) = time_counted((iters / 10).max(1), |_| encode_frame(&msg));
        let (_, dec_allocs) = time_counted((iters / 10).max(1), decode);
        out.layer_value(&frame_metric("encode_ns", kind), enc_ns, iters);
        out.layer_value(&frame_metric("decode_ns", kind), dec_ns, iters);
        out.layer_value(&frame_metric("encode_allocs", kind), enc_allocs, iters);
        out.layer_value(&frame_metric("decode_allocs", kind), dec_allocs, iters);
    }
}

fn change_sets(out: &mut Outcome, scale: u64) {
    for size in CHANGESET_SIZES {
        let iters = (if size > 1000 { 64 } else { 512 } / scale).max(8);
        let base = change_set(size);

        // merge: a peer's full set that diverged from ours by one
        // transfer each way — the case that actually inserts.
        let peers: Vec<ChangeSet> = (0..iters)
            .map(|i| {
                let mut p = base.clone();
                let pair = fresh_pair(2 * i);
                p.insert(pair.debit);
                p.insert(pair.credit);
                p
            })
            .collect();
        let mut mine = base.clone();
        let own = fresh_pair(1);
        mine.insert(own.debit);
        mine.insert(own.credit);
        let (ns, allocs) = time_counted(iters, |i| mine.merge(&peers[i as usize]));
        out.layer_value(&changeset_metric("merge", "ns", size), ns, iters);
        out.layer_value(&changeset_metric("merge", "allocs", size), allocs, iters);

        // delta_since: cutting the journal suffix a peer one transfer
        // behind is missing.
        let behind = base.digest();
        let mut ahead = base.clone();
        let pair = fresh_pair(3);
        ahead.insert(pair.debit);
        ahead.insert(pair.credit);
        let (ns, allocs) = time_counted(iters * 16, |_| {
            ahead.delta_since(black_box(behind)).map(<[_]>::len)
        });
        out.layer_value(&changeset_metric("delta_since", "ns", size), ns, iters * 16);
        out.layer_value(
            &changeset_metric("delta_since", "allocs", size),
            allocs,
            iters * 16,
        );

        // apply_ref: catching up by a one-transfer delta.
        let mut target = base.clone();
        target.insert(own.debit); // take sole ownership of the storage first
        let deltas: Vec<CsRef> = (0..iters)
            .map(|i| CsRef::Delta {
                base_digest: 0,
                adds: fresh_pair(2 * i).both().to_vec(),
            })
            .collect();
        let (ns, allocs) = time_counted(iters, |i| target.apply_ref(&deltas[i as usize]));
        out.layer_value(&changeset_metric("apply_ref", "ns", size), ns, iters);
        out.layer_value(
            &changeset_metric("apply_ref", "allocs", size),
            allocs,
            iters,
        );

        // insert: one new change into a uniquely owned set.
        let mut target = base.clone();
        target.insert(own.credit);
        let (ns, allocs) = time_counted(iters, |i| target.insert(fresh_pair(2 * i + 1).debit));
        out.layer_value(&changeset_metric("insert", "ns", size), ns, iters);
        out.layer_value(&changeset_metric("insert", "allocs", size), allocs, iters);
    }
}

/// Steady-state churn: 1 024 events pending, each pop schedules one push
/// a protocol-scale delay (50 µs – 20 ms) ahead.
fn scheduler(sched: &mut dyn Scheduler<u64>, iters: u64) -> f64 {
    let delay = |i: u64| 50_000 + splitmix64(i) % 19_950_000;
    let mut seq = 0u64;
    for i in 0..1024 {
        sched.push(Time(delay(i)), seq, i);
        seq += 1;
    }
    time(iters, |i| {
        let (at, _, item) = sched.pop().expect("queue never drains");
        sched.push(Time(at.0 + delay(i ^ item)), seq, item);
        seq += 1;
    })
}

fn quorum(out: &mut Outcome, scale: u64) {
    let iters = 200_000 / scale;
    let system = WeightedMajorityQuorumSystem::new(change_set(100).weights(SERVERS));
    let set: BTreeSet<ServerId> = [ServerId(0), ServerId(2), ServerId(3)].into();
    let ns = time(iters, |_| system.set_weight(black_box(&set)));
    out.layer_value("quorum.set_weight_ns", ns, iters);
    let weight = system.set_weight(&set);
    let total = Ratio::integer(SERVERS as i64);
    let ns = time(iters, |_| {
        fast_path_read_quorum(black_box(weight), black_box(total))
    });
    out.layer_value("quorum.fast_path_check_ns", ns, iters);
}

/// Exhausts `fastpath3`. The state count must repeat exactly.
fn explore(out: &mut Outcome) {
    let started = Instant::now();
    let outcome = Explorer::new(fastpath3()).run();
    let secs = started.elapsed().as_secs_f64();
    let states = outcome.stats().states_visited;
    if outcome.violation().is_some() {
        out.fail_check("the fastpath3 exploration found an invariant violation");
    }
    out.layer_value("check.explore.states", states as f64, states);
    out.layer_value("check.explore.states_per_s", states as f64 / secs, states);
}

/// Fills every ledger line into `out`. `smoke` cuts the iteration counts
/// by ten and skips nothing.
pub fn run(out: &mut Outcome, smoke: bool) {
    let scale = if smoke { 10 } else { 1 };
    frames(out, scale);
    change_sets(out, scale);
    let iters = 400_000 / scale;
    out.layer_value(
        "sim.sched.wheel_push_pop_ns",
        scheduler(&mut TimingWheel::new(), iters),
        iters,
    );
    out.layer_value(
        "sim.sched.heap_push_pop_ns",
        scheduler(&mut BinaryHeapScheduler::new(), iters),
        iters,
    );
    quorum(out, scale);
    explore(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_change_sets_have_the_asked_size_and_conserve_weight() {
        for size in CHANGESET_SIZES {
            let cs = change_set(size);
            assert!(cs.len() >= size && cs.len() <= size + 1, "{}", cs.len());
            assert_eq!(cs.total_weight(SERVERS), Ratio::integer(SERVERS as i64));
        }
        assert!(!change_set(3000).contains(&fresh_pair(0).debit));
    }

    #[test]
    fn every_ledger_message_round_trips_through_the_codec() {
        let (small, big) = (change_set(3), change_set(100));
        for kind in FRAME_KINDS {
            let msg = message(kind, &small, &big);
            let buf = encode_frame(&msg);
            let (back, used) = decode_frame::<Msg>(&buf).unwrap().unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{kind}");
        }
    }
}
