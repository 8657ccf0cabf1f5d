//! Pins the allocation contract of the simulator's event loop: once its
//! buffers are warm, popping an event, running the callback, applying its
//! effects (a send, a timer armed, a timer cancelled), deciding the
//! delivery, recording the send in [`Metrics`], and popping a cancelled
//! timer as a no-op allocate nothing. Every protocol comparison and
//! virtual-time gate runs millions of these, so one allocation per event
//! is most of what a run costs.
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
    SchedulerKind, TimerId, World, MICRO, MILLI,
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

/// Returns every ball to its sender; actor 0 serves. Every delivery arms
/// a deadline timer, and every other delivery cancels the one armed at the
/// delivery before it, still pending — as a completed operation cancels
/// its deadline — so half the timers fire and half pop as no-ops.
#[derive(Default)]
struct Player {
    received: u64,
    armed: Option<TimerId>,
}

/// Outlasts a round trip (two 1 ms transmissions plus propagation), so a
/// timer armed at one delivery is still pending at the next.
const DEADLINE: u64 = 3 * MILLI;

impl Actor for Player {
    type Msg = Ball;
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if ctx.id() == ActorId(0) {
            ctx.send(ActorId(1), Ball(0));
        }
    }
    fn on_message(&mut self, from: ActorId, ball: Ball, ctx: &mut Context<'_, Ball>) {
        ctx.send(from, Ball(ball.0 + 1));
        self.received += 1;
        let previous = self.armed.replace(ctx.set_timer(DEADLINE, ball.0));
        if self.received.is_multiple_of(2) {
            ctx.cancel_timer(previous.expect("armed at the previous delivery"));
        }
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

/// Allocations over `MEASURED` ping-pong and timer events after
/// `WARM_UP`.
fn allocations_per_run(kind: SchedulerKind) -> u64 {
    let net = BandwidthLinks::new(
        ConstantLatency(50 * MICRO),
        BandwidthMatrix::uniform(2, 1_000_000),
    );
    let mut world: World<Ball> = World::new_with_scheduler(7, net, kind);
    world.add_actor(Player::default());
    world.add_actor(Player::default());
    for _ in 0..WARM_UP {
        assert!(world.step());
    }
    let allocs = allocations_in(|| {
        for _ in 0..MEASURED {
            assert!(world.step());
        }
    });

    // The loop did what it was measured doing: per delivery one accounted
    // send queued behind nothing and one timer armed, half of them
    // cancelled before they came due.
    let m = world.metrics();
    let events = WARM_UP + MEASURED;
    let delivered = m.messages_delivered;
    let timer_events = events - 2 - delivered; // less the two starts
    assert_eq!(m.messages_sent, delivered + 1, "one ball in flight");
    assert!(
        timer_events.abs_diff(delivered) <= 4,
        "{timer_events} timer events against {delivered} deliveries"
    );
    let cancelled = timer_events - m.timers_fired;
    assert!(
        cancelled.abs_diff(m.timers_fired) <= 2,
        "{cancelled} cancelled timers popped against {} fired",
        m.timers_fired
    );
    assert_eq!(m.bytes_sent, m.messages_sent * 1_000);
    let (to, fro) = (
        m.link(ActorId(0), ActorId(1))
            .expect("0 → 1 carried traffic"),
        m.link(ActorId(1), ActorId(0))
            .expect("1 → 0 carried traffic"),
    );
    assert_eq!(to.msgs + fro.msgs, m.messages_sent);
    assert_eq!(to.delay.count, to.msgs);
    assert_eq!(to.busy, to.msgs * 1_000 * MICRO);
    assert_eq!(
        (0..4).map(|o| m.msgs_of_object(o)).sum::<u64>(),
        m.messages_sent
    );
    allocs
}

#[test]
fn warm_event_loop_allocates_nothing() {
    // The heap scheduler holds its few pending events in a buffer that is
    // warm after the first pushes, so every allocation counted here would
    // be `dispatch`'s, `send_message`'s, the link horizons', `Metrics`'s or
    // the cancelled-timer set's.
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
