//! Pins the allocation contract of the simulator's event loop: once its
//! buffers are warm, popping an event, running the callback, applying its
//! effects, deciding the delivery, and recording the send in [`Metrics`]
//! allocate nothing. Every protocol comparison and virtual-time gate runs
//! millions of these, so one allocation per event is most of what a run
//! costs.
//!
//! The counting shim is the one place this crate's tests touch `unsafe`:
//! a `GlobalAlloc` that delegates verbatim to the system allocator and
//! counts the calls the measuring thread makes while its flag is up. The
//! test harness's own threads allocate whenever they like, so a
//! process-wide count would charge their allocations to the code under
//! test. The crate-level lint is `deny`, overridden here only.
//!
//! [`Metrics`]: awr_sim::Metrics
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use awr_sim::{
    Actor, ActorId, BandwidthLinks, BandwidthMatrix, ConstantLatency, Context, Message,
    SchedulerKind, World, MICRO,
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

/// A keyed message, so every send also lands in the per-object table.
#[derive(Clone, Debug)]
struct Ball(u64);

impl Message for Ball {
    fn kind(&self) -> &'static str {
        "ball"
    }
    fn wire_size(&self) -> usize {
        // Non-zero transmission time on the 1 MB/s links below.
        1_000
    }
    fn object_key(&self) -> Option<u64> {
        Some(self.0 % 4)
    }
}

/// Returns every ball to its sender; actor 0 serves.
struct Player;

impl Actor for Player {
    type Msg = Ball;
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if ctx.id() == ActorId(0) {
            ctx.send(ActorId(1), Ball(0));
        }
    }
    fn on_message(&mut self, from: ActorId, ball: Ball, ctx: &mut Context<'_, Ball>) {
        ctx.send(from, Ball(ball.0 + 1));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 100_000;

/// Allocations over `MEASURED` ping-pong events after `WARM_UP`.
fn allocations_per_run(kind: SchedulerKind) -> u64 {
    let net = BandwidthLinks::new(
        ConstantLatency(50 * MICRO),
        BandwidthMatrix::uniform(2, 1_000_000),
    );
    let mut world: World<Ball> = World::new_with_scheduler(7, net, kind);
    world.add_actor(Player);
    world.add_actor(Player);
    for _ in 0..WARM_UP {
        assert!(world.step());
    }
    let allocs = allocations_in(|| {
        for _ in 0..MEASURED {
            assert!(world.step());
        }
    });

    // The loop did what it was measured doing: one delivery and one
    // accounted send per event, queued behind nothing.
    let m = world.metrics();
    let events = WARM_UP + MEASURED;
    assert_eq!(m.events_processed, events);
    assert_eq!(m.messages_sent, events - 1);
    assert_eq!(m.bytes_sent, (events - 1) * 1_000);
    let (to, fro) = (
        m.link(ActorId(0), ActorId(1))
            .expect("0 → 1 carried traffic"),
        m.link(ActorId(1), ActorId(0))
            .expect("1 → 0 carried traffic"),
    );
    assert_eq!(to.msgs + fro.msgs, events - 1);
    assert_eq!(to.delay.count, to.msgs);
    assert_eq!(to.busy, to.msgs * 1_000 * MICRO);
    assert_eq!((0..4).map(|o| m.msgs_of_object(o)).sum::<u64>(), events - 1);
    allocs
}

#[test]
fn warm_event_loop_allocates_nothing() {
    // The heap scheduler holds its one in-flight event in a buffer that is
    // warm after the first push, so every allocation counted here would be
    // `dispatch`'s, `send_message`'s, the link horizons' or `Metrics`'s.
    assert_eq!(
        allocations_per_run(SchedulerKind::BinaryHeap),
        0,
        "the event loop allocated on the heap scheduler"
    );
    // The timing wheel's slot vectors may still grow as slots first see
    // traffic; that is bounded by the slots, not by the events.
    let wheel = allocations_per_run(SchedulerKind::TimingWheel);
    assert!(
        wheel < MEASURED / 100,
        "{wheel} allocations over {MEASURED} events on the timing wheel"
    );
}
