//! Pins the allocation contract of [`OpLog`], a client's log of completed
//! operations: once warm, a push followed by a pop (the TCP client's loop,
//! which takes every record out as it completes) allocates nothing, and a
//! log that only grows allocates once per chunk, never reallocating one.
//!
//! The counting shim is the one place this crate's tests touch `unsafe`:
//! a `GlobalAlloc` that delegates verbatim to the system allocator and
//! counts the calls the measuring thread makes while its flag is up, in a
//! counter of that thread's own. The test harness's own threads allocate
//! whenever they like, and the two tests here measure at the same time,
//! so a process-wide count would charge one thread's allocations to
//! another. The crate-level lint is `deny`, overridden here only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use awr_sim::Time;
use awr_storage::{DynCompletedOp, OpKind, OpLog};
use awr_types::ObjectId;

thread_local! {
    /// The calling thread's allocations while it measures; `None` when it
    /// does not.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts an allocation if the calling thread is measuring.
fn count() {
    // `try_with`: a thread tearing down its locals still allocates.
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(Some(0)));
    f();
    ALLOCS.with(|a| a.replace(None)).expect("measuring")
}

/// Delegates to [`System`], counting the measuring thread's allocations.
struct CountingAlloc;

// SAFETY: forwards every call unchanged to the system allocator; the
// only addition is a read and a write of a const-initialized,
// destructor-free thread-local cell, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Operation `i` of a run shaped like the simulated WAN workload: 2 048
/// keys, a third of them writes, ~150 ms each, now and then restarted.
fn op(i: u64) -> DynCompletedOp<u64> {
    let invoke = i * 25_000_000;
    DynCompletedOp {
        obj: ObjectId(i % 2_048),
        kind: match i % 3 {
            0 => OpKind::Write(i),
            1 => OpKind::Read(Some(i / 2)),
            _ => OpKind::Read(None),
        },
        invoke: Time(invoke),
        response: Time(invoke + 150_000_000 + i % 1_000),
        restarts: u64::from(i.is_multiple_of(7)),
    }
}

/// The longest record [`op`] can make: every varint at its widest.
fn widest() -> DynCompletedOp<u64> {
    DynCompletedOp {
        obj: ObjectId(u64::MAX),
        kind: OpKind::Write(u64::MAX),
        invoke: Time(0),
        response: Time(u64::MAX),
        restarts: u64::MAX,
    }
}

#[test]
fn push_then_pop_allocates_nothing_once_warm() {
    let mut log = OpLog::new();
    // Warm-up: one round with the widest record sizes the encoding buffer
    // and allocates the chunk the pop keeps.
    log.push(&widest());
    assert_eq!(log.pop(), Some(widest()));
    assert!(log.is_empty());

    let mut last = None;
    let allocs = allocations_in(|| {
        for i in 0..10_000 {
            log.push(&op(i));
            last = log.pop();
        }
    });
    assert_eq!(allocs, 0, "10 000 push-then-pop rounds allocated");
    assert_eq!(last, Some(op(9_999)));
    assert_eq!((log.len(), log.chunks()), (0, 1));
}

#[test]
fn a_growing_log_allocates_once_per_chunk() {
    let mut log = OpLog::new();
    log.push(&widest());
    let (chunks_before, bytes_before) = (log.chunks(), log.bytes());
    const OPS: u64 = 100_000;
    let allocs = allocations_in(|| {
        for i in 0..OPS {
            log.push(&op(i));
        }
    });
    let chunks = log.chunks();
    let new_chunks = (chunks - chunks_before) as u64;
    // The chunk table is a `Vec` of chunk headers, so it doubles now and
    // then; that is the only allocation besides a chunk's own.
    let table_growths = u64::from(usize::BITS - chunks.leading_zeros());
    assert!(
        new_chunks <= allocs && allocs <= new_chunks + table_growths,
        "{allocs} allocations for {new_chunks} new chunks"
    );
    let per_op = (log.bytes() - bytes_before) as f64 / OPS as f64;
    // 14.9 B: flags 1, key 2, value 3, invoke 6, latency 4, restarts 1/7.
    assert!(per_op < 16.0, "{per_op:.2} B per record");
    assert_eq!(log.len() as u64, OPS + 1);
    assert_eq!(log.get(OPS as usize), Some(op(OPS - 1)));
}
