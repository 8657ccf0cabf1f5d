//! Allocation counting for the ledger and `proc.allocs_per_op`.
//!
//! Same shape as the shim in `vendor/hist/tests/alloc.rs`: a
//! `GlobalAlloc` that forwards verbatim to the system allocator and bumps
//! a counter. Counting is gated by [`set_counting`], which only traced
//! runs switch on — with it off the allocator adds one relaxed load of a
//! never-written flag per allocation, so end-to-end runs stay
//! uninstrumented in every way that could move a number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`], counting allocations while counting is on.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are relaxed atomic operations, which allocate nothing
// and publish no other data (the counter is a statistic).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off, process-wide.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (alloc + realloc calls) counted so far, all threads.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
