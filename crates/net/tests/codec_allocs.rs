//! Pins the zero-allocation contract of the frame codec's hot path: the
//! four ABD kinds with a summary reference are every frame of a steady
//! read or write, so one allocation in either direction — or in metering
//! the send, which measures the frame — is paid per message, on the
//! node's only thread; and a server's WAL append is one more frame of a
//! `Register` or `Change` record, on the same thread. A frame over 127 B,
//! whose payload moves up to make room for its longer length, allocates
//! no more than one under it.
//!
//! The counting shim is the one place this crate's tests touch `unsafe`:
//! a `GlobalAlloc` that delegates verbatim to the system allocator and
//! counts the calls the measuring thread makes while its flag is up. The
//! test harness's own threads allocate whenever they like, so a
//! process-wide count would charge their allocations to the code under
//! test. The crate-level lint is `deny`, overridden here only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use awr_sim::Message;
use awr_storage::{DynMsg, WalRecord};
use awr_types::wire::{decode_frame, encode_frame_into, Wire};
use awr_types::{
    Change, ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Up only on the measuring thread, around the measured code.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocation if the calling thread is measuring.
fn count() {
    // `try_with`: a thread tearing down its locals still allocates.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    allocs
}

/// Delegates to [`System`], counting the measuring thread's allocations.
struct CountingAlloc;

// SAFETY: forwards every call unchanged to the system allocator; the
// only additions are a read of a const-initialized, destructor-free
// thread-local flag and a relaxed counter bump, neither of which
// allocates.
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

/// Allocations made encoding `values` into a warm buffer and decoding
/// them back, 1 000 times over.
fn allocations<T: Wire + PartialEq + std::fmt::Debug>(values: &[T]) -> u64 {
    // The write buffer a transport keeps per peer, already grown.
    let mut wbuf = Vec::with_capacity(4096);
    allocations_in(|| {
        for _ in 0..1_000 {
            wbuf.clear();
            let mut at = 0;
            for value in values {
                encode_frame_into(black_box(value), &mut wbuf);
            }
            for value in values {
                let (back, used) = decode_frame::<T>(black_box(&wbuf[at..]))
                    .expect("own frame decodes")
                    .expect("whole frame present");
                assert_eq!(&back, value);
                at += used;
            }
            assert_eq!(at, wbuf.len());
        }
    })
}

#[test]
fn steady_state_frames_encode_and_decode_without_allocating() {
    let changes = CsRef::summary(&ChangeSet::uniform_initial(5, Ratio::ONE));
    let reg = TaggedValue::new(
        Tag::new(41, ProcessId::Client(ClientId(1))),
        (2u64 << 40) | 41,
    );
    let (op, obj) = (1234, ObjectId(17));
    let msgs: [DynMsg<u64>; 8] = [
        DynMsg::R {
            op,
            obj,
            changes: changes.clone(),
        },
        // Named by length alone, as to a server that accepted the set.
        DynMsg::R {
            op,
            obj,
            changes: CsRef::length_only(5),
        },
        // A read's request for the whole register.
        DynMsg::RV {
            op,
            obj,
            changes: CsRef::length_only(5),
        },
        DynMsg::W {
            op,
            obj,
            reg,
            changes: CsRef::length_only(300),
        },
        // An accept carries no reference.
        DynMsg::RAck {
            op,
            obj,
            reg,
            changes: CsRef::NONE,
            accepted: true,
        },
        // The answer to a tag query: no value either.
        DynMsg::RAck {
            op,
            obj,
            reg: TaggedValue {
                tag: reg.tag,
                value: None,
            },
            changes: CsRef::NONE,
            accepted: true,
        },
        DynMsg::W {
            op,
            obj,
            reg,
            changes,
        },
        DynMsg::WAck {
            op,
            obj,
            changes: CsRef::NONE,
            accepted: true,
        },
    ];
    assert_eq!(allocations(&msgs), 0, "the codec's hot path allocated");

    // Every send is metered by its frame length; once the thread's scratch
    // buffer has grown, that costs no allocation either.
    let sizes: Vec<usize> = msgs.iter().map(Message::wire_size).collect();
    let metered = allocations_in(|| {
        for _ in 0..1_000 {
            for (msg, size) in msgs.iter().zip(&sizes) {
                assert_eq!(black_box(msg).wire_size(), *size);
            }
        }
    });
    assert_eq!(metered, 0, "metering a send allocated");

    let records = [
        WalRecord::Register(obj, reg),
        WalRecord::Change(Change::new(
            ServerId(3),
            7,
            ServerId(4),
            Ratio::new(-1, 100),
        )),
    ];
    assert_eq!(allocations(&records), 0, "a WAL record's frame allocated");

    // A whole change set of 40: a payload over 127 B, so its length takes
    // two bytes and the payload, encoded behind one, moves up by one —
    // within the buffer's capacity. (In this test, not one of its own:
    // the counter is shared, so two tests counting at once would each
    // see the other's allocations.)
    let long: DynMsg<u64> = DynMsg::SyncAck {
        changes: CsRef::Full(ChangeSet::uniform_initial(40, Ratio::ONE)),
    };
    let mut wbuf = Vec::with_capacity(4096);
    let size = encode_frame_into(&long, &mut wbuf);
    assert!(
        wbuf[0] & 0x80 != 0 && wbuf[1] & 0x80 == 0,
        "a two-byte length"
    );
    assert_eq!((size, wbuf.len()), (long.wire_size(), long.wire_size()));
    let moved = allocations_in(|| {
        for _ in 0..1_000 {
            wbuf.clear();
            encode_frame_into(black_box(&long), &mut wbuf);
        }
    });
    assert_eq!(moved, 0, "moving a long frame's payload allocated");
    let (back, used) = decode_frame::<DynMsg<u64>>(&wbuf).unwrap().unwrap();
    assert_eq!((back, used), (long, size));
}
