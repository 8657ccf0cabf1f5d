//! Single-writer multi-reader register arrays.
//!
//! Algorithms 1 and 2 assume "a shared array of SWMR registers R of size n
//! to store servers' proposals". The registers are an *assumed primitive* of
//! the reduction (they are implementable from message passing with f < n/2
//! via ABD, which `awr-storage` also provides); here we give the in-process
//! linearizable version the reductions run against.

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A shared array of single-writer multi-reader registers.
///
/// Slot `i` must only be written by process `i`; this is enforced at
/// runtime.
///
/// # Examples
///
/// ```
/// use awr_core::SwmrArray;
///
/// let r: SwmrArray<u64> = SwmrArray::new(3);
/// r.write(0, 42);
/// assert_eq!(r.read(0), Some(42));
/// assert_eq!(r.read(1), None);
/// ```
#[derive(Debug)]
pub struct SwmrArray<V> {
    slots: Vec<RwLock<Option<V>>>,
    written: Vec<RwLock<bool>>,
}

impl<V: Clone> SwmrArray<V> {
    /// Creates `n` empty registers.
    pub fn new(n: usize) -> SwmrArray<V> {
        SwmrArray {
            slots: (0..n).map(|_| RwLock::new(None)).collect(),
            written: (0..n).map(|_| RwLock::new(false)).collect(),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the array has no registers.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes register `i` (caller must be the unique writer of slot `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slot was written twice — the
    /// reduction algorithms write each slot exactly once, so a double write
    /// indicates a harness bug.
    pub fn write(&self, i: usize, v: V) {
        let mut wr = write_lock(&self.written[i]);
        assert!(!*wr, "SWMR register {i} written twice");
        *wr = true;
        *write_lock(&self.slots[i]) = Some(v);
    }

    /// Reads register `i` (`None` if unwritten).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn read(&self, i: usize) -> Option<V> {
        read_lock(&self.slots[i]).clone()
    }
}

// A panic while a slot was held (the double-write assert) does not poison
// it: both accessors recover the guard.
fn read_lock<T>(slot: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    slot.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(slot: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    slot.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn write_then_read() {
        let r: SwmrArray<String> = SwmrArray::new(2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        r.write(1, "v".into());
        assert_eq!(r.read(1).as_deref(), Some("v"));
        assert_eq!(r.read(0), None);
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_panics() {
        let r: SwmrArray<u32> = SwmrArray::new(1);
        r.write(0, 1);
        r.write(0, 2);
    }

    #[test]
    fn a_panic_holding_a_slot_leaves_it_usable() {
        let r: SwmrArray<u32> = SwmrArray::new(1);
        r.write(0, 1);
        // The double-write assert fires while the slot's guard is held.
        let write_again = || std::panic::catch_unwind(|| r.write(0, 2)).unwrap_err();
        write_again();
        let again = write_again();
        let msg = again.downcast_ref::<String>().expect("a formatted assert");
        assert!(msg.contains("written twice"), "{msg}");
        assert_eq!(r.read(0), Some(1));
    }

    #[test]
    fn concurrent_readers_see_writes() {
        let r: Arc<SwmrArray<u64>> = Arc::new(SwmrArray::new(8));
        let writers: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || r.write(i, i as u64 * 10))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for i in 0..8 {
            assert_eq!(r.read(i), Some(i as u64 * 10));
        }
    }
}
