//! Pluggable event schedulers for [`crate::World`].
//!
//! The simulator's hot loop is "pop the earliest event, run it". At
//! millions of simulated ops a [`std::collections::BinaryHeap`] pays
//! `O(log n)` comparisons per push *and* pop; a hierarchical timing
//! wheel pays amortized `O(1)` for both. This module puts both behind
//! one small [`Scheduler`] trait so the heap stays available as the
//! reference implementation.
//!
//! # The tie-break contract
//!
//! Every scheduler must pop events in ascending `(at, seq)` order, where
//! `seq` is the world's insertion sequence number (unique per event).
//! That is a *total* order, so any two conforming schedulers replay the
//! same run identically — same trace, same latencies, same bytes. The
//! contract is pinned by `tests/scheduler_equivalence.rs`: the timing
//! wheel must be byte-for-byte indistinguishable from the heap on every
//! pinned scenario, including same-timestamp ties.
//!
//! # Timing-wheel shape
//!
//! [`TimingWheel`] is a classic hierarchical wheel: 6 levels of 64 slots,
//! level 0 slots spanning `2^16` ns (≈ 65.5 µs — protocol-scale delays
//! of 50 µs – 20 ms land at levels 0–1, at most one cascade hop), each
//! higher level spanning 64× more. A `u64` occupancy bitmap per level
//! finds the next non-empty slot in one `trailing_zeros`. Events beyond
//! the top level's horizon (≈ 52 virtual days; in practice only `Time`
//! saturations at `u64::MAX`) park in an overflow heap. Expiring a
//! higher-level slot cascades its events down; expiring a level-0 slot
//! sorts the (tiny) slot by `(at, seq)` to honor the tie-break contract.
//! Slot buffers are recycled across expiries, so the steady state
//! allocates nothing; under [`crate::World`] what they hold is keys (see
//! below).
//!
//! # What the queue holds
//!
//! [`crate::World`] runs either scheduler as `Scheduler<u32>`: the item is
//! the slot where the world parked the event's payload, so an entry is a
//! 24-byte `(at, seq, slot)` key and the payload (a protocol message, a
//! restart builder) never moves while the event waits. The queue owns the
//! keys and their order; `World` owns the payloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// The event-queue abstraction [`crate::World`] schedules through.
///
/// Implementations must pop in ascending `(at, seq)` order — see the
/// module docs for why this exact total order is load-bearing.
pub trait Scheduler<T> {
    /// Inserts an event. `seq` is unique and assigned in insertion order
    /// by the caller; `at` never precedes the `at` of the last [`Scheduler::pop`].
    fn push(&mut self, at: Time, seq: u64, item: T);
    /// Removes and returns the minimum event by `(at, seq)`.
    fn pop(&mut self) -> Option<(Time, u64, T)>;
    /// The `(at, seq)` key the next [`Scheduler::pop`] would return.
    /// Takes `&mut self` so implementations may reorganize internally.
    fn next_key(&mut self) -> Option<(Time, u64)>;
    /// Removes the event with sequence number `seq`, wherever it sits in
    /// the time order — the explorer seam behind
    /// [`crate::World::step_seq`]. May be `O(n)`.
    fn take_seq(&mut self, seq: u64) -> Option<(Time, u64, T)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Visits every pending event in unspecified order (callers that
    /// need an order sort by `(at, seq)` themselves).
    fn for_each(&self, f: &mut dyn FnMut(Time, u64, &T));
}

/// Which [`Scheduler`] a [`crate::World`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel — amortized `O(1)` push/pop (default).
    TimingWheel,
    /// Binary heap — the `O(log n)` reference implementation.
    BinaryHeap,
}

pub(crate) fn build_scheduler<T: 'static>(kind: SchedulerKind) -> Box<dyn Scheduler<T>> {
    match kind {
        SchedulerKind::TimingWheel => Box::new(TimingWheel::new()),
        SchedulerKind::BinaryHeap => Box::new(BinaryHeapScheduler::new()),
    }
}

struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

// ---------------------------------------------------------------------------
// Binary heap reference implementation
// ---------------------------------------------------------------------------

struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time first, then insertion sequence: a deterministic total order.
        self.0.key().cmp(&other.0.key())
    }
}

/// The pre-existing `BinaryHeap` event queue behind the [`Scheduler`]
/// trait — kept as the reference implementation the timing wheel is
/// pinned against.
pub struct BinaryHeapScheduler<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T> BinaryHeapScheduler<T> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Default for BinaryHeapScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> for BinaryHeapScheduler<T> {
    fn push(&mut self, at: Time, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEntry(Entry { at, seq, item })));
    }

    fn pop(&mut self) -> Option<(Time, u64, T)> {
        let Reverse(HeapEntry(e)) = self.heap.pop()?;
        Some((e.at, e.seq, e.item))
    }

    fn next_key(&mut self) -> Option<(Time, u64)> {
        self.heap.peek().map(|Reverse(HeapEntry(e))| e.key())
    }

    fn take_seq(&mut self, seq: u64) -> Option<(Time, u64, T)> {
        if !self.heap.iter().any(|Reverse(HeapEntry(e))| e.seq == seq) {
            return None;
        }
        let mut found = None;
        let mut rest = Vec::with_capacity(self.heap.len());
        for Reverse(HeapEntry(e)) in std::mem::take(&mut self.heap).drain() {
            if e.seq == seq && found.is_none() {
                found = Some(e);
            } else {
                rest.push(Reverse(HeapEntry(e)));
            }
        }
        self.heap = rest.into();
        found.map(|e| (e.at, e.seq, e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(Time, u64, &T)) {
        for Reverse(HeapEntry(e)) in self.heap.iter() {
            f(e.at, e.seq, &e.item);
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// Bits per wheel level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Wheel levels; ticks beyond `2^(SLOT_BITS * LEVELS)` slots park in the
/// overflow heap.
const LEVELS: usize = 6;
/// Level-0 slot width exponent: slots span `2^GRANULARITY_SHIFT` ns.
/// 65.5 µs batches ~a dozen events per slot under heavy load, so the
/// per-slot machinery (bitmap scan, buffer swap, sort) amortizes over
/// the batch, and protocol-scale delays (50 µs – 20 ms) land at levels
/// 0–1 — at most one cascade hop per event. Measured against finer
/// granularities (2^7, 2^12, 2^14) on an open-loop run at 8 000 ops/s,
/// this is the knee of the tuning curve; coarser (2^18) loses to the
/// sorted `current` inserts that sub-slot deltas then pay.
const GRANULARITY_SHIFT: u32 = 16;

struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry.
        other.0.key().cmp(&self.0.key())
    }
}

/// A hierarchical timing wheel honoring the `(at, seq)` tie-break
/// contract (see module docs). Amortized `O(1)` push and pop.
///
/// Internal invariants (upheld because [`crate::World`] never schedules
/// into the past):
///
/// * every event in a slot has `tick > cursor`; events with
///   `tick <= cursor` live in the sorted `current` buffer;
/// * the cursor's own slot at every level is empty, so the "next
///   occupied slot strictly after the cursor" bitmap scan never skips
///   an event;
/// * everything in `current` precedes everything in the slots, which
///   precedes everything in the overflow heap.
pub struct TimingWheel<T> {
    /// Level-0 tick (`at >> GRANULARITY_SHIFT`) the wheel has expired up to.
    cursor: u64,
    /// The expired slot being drained: sorted by `(at, seq)` *descending*
    /// so the minimum pops from the back in O(1).
    current: Vec<Entry<T>>,
    /// Slot `s` of level `l` is `slots[l * SLOTS + s]`, unsorted — one
    /// flat allocation so a push touches one cache line of `Vec` headers.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Events beyond the top level's horizon.
    overflow: BinaryHeap<OverflowEntry<T>>,
    len: usize,
}

impl<T> TimingWheel<T> {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            cursor: 0,
            current: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn tick_of(at: Time) -> u64 {
        at.0 >> GRANULARITY_SHIFT
    }

    /// Files `e` relative to the current cursor. Does not touch `len`.
    fn place(&mut self, e: Entry<T>) {
        let tick = Self::tick_of(e.at);
        if tick <= self.cursor {
            // Lands in the slot being drained (sub-slot-width delay, or a
            // zero-delay send): sorted insert keeps `current` descending.
            let key = e.key();
            let i = self.current.partition_point(|x| x.key() > key);
            self.current.insert(i, e);
            return;
        }
        let diff = tick ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(OverflowEntry(e));
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Advances the cursor to the next occupied slot (or overflow batch)
    /// and reloads `current`. Returns `false` iff the wheel is empty.
    /// `current` may still be empty on a `true` return (a higher-level
    /// cascade); callers loop.
    fn advance(&mut self) -> bool {
        for level in 0..LEVELS {
            let idx = ((self.cursor >> (SLOT_BITS * level as u32)) & SLOT_MASK) as u32;
            // Occupied slots strictly after the cursor's position at this
            // level; the cursor's own slot is empty by invariant.
            let mask = if idx >= 63 { 0 } else { u64::MAX << (idx + 1) };
            let avail = self.occupied[level] & mask;
            if avail == 0 {
                continue;
            }
            let slot = avail.trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            // Move the cursor to the base tick of the expiring slot.
            let width = SLOT_BITS * (level as u32 + 1);
            let kept_above = if width >= 64 {
                0
            } else {
                (self.cursor >> width) << width
            };
            self.cursor = kept_above | ((slot as u64) << (SLOT_BITS * level as u32));
            if level == 0 {
                // `current` is empty here (callers only advance when it
                // is), so swapping hands its spent buffer back to the slot
                // for reuse — no allocation on either side of the cycle.
                std::mem::swap(&mut self.current, &mut self.slots[slot]);
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            } else {
                // Cascade: relative to the new cursor these all land in
                // strictly lower levels (or `current`), so this terminates
                // and never re-enters the slot being drained — which makes
                // it safe to give the drained buffer back afterwards.
                let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                for e in entries.drain(..) {
                    self.place(e);
                }
                self.slots[level * SLOTS + slot] = entries;
            }
            return true;
        }
        // All levels drained: jump to the earliest overflow batch.
        let Some(OverflowEntry(min)) = self.overflow.pop() else {
            return false;
        };
        self.cursor = Self::tick_of(min.at);
        self.place(min);
        while let Some(OverflowEntry(e)) = self.overflow.peek() {
            let within = (Self::tick_of(e.at) ^ self.cursor) >> (SLOT_BITS * LEVELS as u32) == 0;
            if !within {
                break;
            }
            let OverflowEntry(e) = self.overflow.pop().expect("peeked entry");
            self.place(e);
        }
        true
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> for TimingWheel<T> {
    fn push(&mut self, at: Time, seq: u64, item: T) {
        self.place(Entry { at, seq, item });
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(Time, u64, T)> {
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                return Some((e.at, e.seq, e.item));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn next_key(&mut self) -> Option<(Time, u64)> {
        loop {
            if let Some(e) = self.current.last() {
                return Some(e.key());
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn take_seq(&mut self, seq: u64) -> Option<(Time, u64, T)> {
        if let Some(i) = self.current.iter().position(|e| e.seq == seq) {
            let e = self.current.remove(i);
            self.len -= 1;
            return Some((e.at, e.seq, e.item));
        }
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let bucket = &mut self.slots[level * SLOTS + slot];
                if let Some(i) = bucket.iter().position(|e| e.seq == seq) {
                    let e = bucket.swap_remove(i);
                    if bucket.is_empty() {
                        self.occupied[level] &= !(1u64 << slot);
                    }
                    self.len -= 1;
                    return Some((e.at, e.seq, e.item));
                }
            }
        }
        if self.overflow.iter().any(|OverflowEntry(e)| e.seq == seq) {
            let mut found = None;
            let mut rest = Vec::with_capacity(self.overflow.len());
            for OverflowEntry(e) in std::mem::take(&mut self.overflow).drain() {
                if e.seq == seq && found.is_none() {
                    found = Some(e);
                } else {
                    rest.push(OverflowEntry(e));
                }
            }
            self.overflow = rest.into();
            if let Some(e) = found {
                self.len -= 1;
                return Some((e.at, e.seq, e.item));
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each(&self, f: &mut dyn FnMut(Time, u64, &T)) {
        for e in &self.current {
            f(e.at, e.seq, &e.item);
        }
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                for e in &self.slots[level * SLOTS + slot] {
                    f(e.at, e.seq, &e.item);
                }
            }
        }
        for OverflowEntry(e) in self.overflow.iter() {
            f(e.at, e.seq, &e.item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn drain<T>(s: &mut dyn Scheduler<T>) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = s.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        for kind in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let mut s = build_scheduler::<u32>(kind);
            // Same timestamp, out-of-order seqs; plus earlier and later times.
            s.push(Time(5_000), 0, 0);
            s.push(Time(1_000), 1, 1);
            s.push(Time(5_000), 2, 2);
            s.push(Time(1_000), 3, 3);
            s.push(Time(0), 4, 4);
            let order = drain(s.as_mut());
            assert_eq!(
                order,
                vec![
                    (Time(0), 4),
                    (Time(1_000), 1),
                    (Time(1_000), 3),
                    (Time(5_000), 0),
                    (Time(5_000), 2),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn wheel_matches_heap_on_random_interleavings() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..50 {
            let mut wheel = TimingWheel::<u64>::new();
            let mut heap = BinaryHeapScheduler::<u64>::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..400 {
                if rng.random_bool(0.6) {
                    // Push a batch at/after the current virtual time, with
                    // deliberate timestamp collisions and huge outliers.
                    let n = rng.random_range(1usize..6);
                    for _ in 0..n {
                        let at = match rng.random_range(0u32..10) {
                            0 => now, // exact tie with the clock
                            1..=6 => now + rng.random_range(0u64..50_000),
                            7 | 8 => now + rng.random_range(0u64..10_000_000_000),
                            _ => u64::MAX, // Time saturation → overflow path
                        };
                        wheel.push(Time(at), seq, seq);
                        heap.push(Time(at), seq, seq);
                        seq += 1;
                    }
                } else {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "round {round}");
                    if let Some((at, _, _)) = a {
                        if at.0 != u64::MAX {
                            now = at.0;
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            // Drain the remainder: orders must agree exactly.
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "round {round} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn take_seq_from_every_region() {
        let mut s = TimingWheel::<&'static str>::new();
        s.push(Time(10), 0, "current-ish");
        s.push(Time(100_000), 1, "low level");
        s.push(Time(3_000_000_000), 2, "high level");
        s.push(Time(u64::MAX), 3, "overflow");
        // Force entry 0 into `current` by peeking.
        assert_eq!(s.next_key(), Some((Time(10), 0)));
        assert_eq!(s.take_seq(3).map(|e| e.1), Some(3));
        assert_eq!(s.take_seq(1).map(|e| e.1), Some(1));
        assert_eq!(s.take_seq(0).map(|e| e.1), Some(0));
        assert_eq!(s.take_seq(0), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().map(|e| e.1), Some(2));
        assert!(s.is_empty());
    }

    #[test]
    fn for_each_visits_everything_once() {
        let mut s = TimingWheel::<u64>::new();
        for i in 0..100u64 {
            s.push(Time(i * 997), i, i);
        }
        // Partially drain so entries spread across current/slots/overflow.
        s.push(Time(u64::MAX), 100, 100);
        for _ in 0..10 {
            s.pop();
        }
        let mut seen = Vec::new();
        s.for_each(&mut |_, seq, _| seen.push(seq));
        seen.sort_unstable();
        let expect: Vec<u64> = (10..=100).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn pop_after_take_seq_keeps_global_order() {
        // take_seq must not disturb ordering among the survivors.
        let mut wheel = TimingWheel::<u64>::new();
        let mut heap = BinaryHeapScheduler::<u64>::new();
        for (i, at) in [700u64, 50, 700, 9_000_000, 128, 50].iter().enumerate() {
            wheel.push(Time(*at), i as u64, i as u64);
            heap.push(Time(*at), i as u64, i as u64);
        }
        assert_eq!(wheel.take_seq(2), heap.take_seq(2));
        assert_eq!(wheel.take_seq(5), heap.take_seq(5));
        let a: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(a, b);
    }
}
