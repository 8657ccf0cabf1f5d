//! Read/write tags for the atomic storage (paper §VII, footnote 3).
//!
//! A tag is a pair `(ts, pid)`: the timestamp and the writer's process id.
//! Tags are totally ordered lexicographically — first by timestamp, then by
//! writer id — which is what makes multi-writer ABD registers atomic.

use std::fmt;

use crate::ProcessId;

/// A totally ordered write tag `(ts, pid)`.
///
/// # Examples
///
/// ```
/// use awr_types::{ClientId, ProcessId, Tag};
///
/// let w1 = ProcessId::Client(ClientId(0));
/// let w2 = ProcessId::Client(ClientId(1));
/// let a = Tag::new(1, w2);
/// let b = Tag::new(2, w1);
/// assert!(a < b);                       // higher timestamp wins
/// assert!(Tag::new(2, w1) < Tag::new(2, w2)); // ties broken by writer id
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// Logical timestamp, incremented by writers.
    pub ts: u64,
    /// The id of the writer that produced this tag.
    pub pid: ProcessId,
}

impl Tag {
    /// Creates a tag.
    pub fn new(ts: u64, pid: ProcessId) -> Tag {
        Tag { ts, pid }
    }

    /// The initial tag `⟨0, ⊥⟩` of an unwritten register; smaller than any
    /// tag a real writer can produce. We encode `⊥` as server 0 with ts 0,
    /// which no writer emits because written tags have `ts ≥ 1`.
    pub fn bottom() -> Tag {
        Tag {
            ts: 0,
            pid: ProcessId::Server(crate::ServerId(0)),
        }
    }

    /// The tag a writer `pid` produces after observing `self` as the highest
    /// tag: `(ts + 1, pid)` (Algorithm 5 lines 24–25).
    pub fn next_for(&self, pid: ProcessId) -> Tag {
        Tag {
            ts: self.ts + 1,
            pid,
        }
    }
}

impl Default for Tag {
    fn default() -> Tag {
        Tag::bottom()
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.ts, self.pid)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A tagged register value: what servers store and what phase-1 reads return.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TaggedValue<V> {
    /// The tag under which `value` was written.
    pub tag: Tag,
    /// The stored value (`None` until the first write).
    pub value: Option<V>,
}

impl<V> TaggedValue<V> {
    /// The initial register content `⟨⟨0, ⊥⟩, ⊥⟩` (Algorithm 4 line 3).
    pub fn bottom() -> TaggedValue<V> {
        TaggedValue {
            tag: Tag::bottom(),
            value: None,
        }
    }

    /// Creates a tagged value.
    pub fn new(tag: Tag, value: V) -> TaggedValue<V> {
        TaggedValue {
            tag,
            value: Some(value),
        }
    }

    /// Adopts `other` if its tag is strictly greater (Algorithm 6 lines 2–3).
    /// Returns `true` if the register content changed.
    pub fn adopt_if_newer(&mut self, other: &TaggedValue<V>) -> bool
    where
        V: Clone,
    {
        if self.tag < other.tag {
            *self = other.clone();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    fn client(i: u32) -> ProcessId {
        ProcessId::Client(ClientId(i))
    }

    #[test]
    fn bottom_is_least() {
        let b = Tag::bottom();
        assert!(b < Tag::new(1, client(0)));
        assert!(b < Tag::new(1, ProcessId::Server(ServerId(0))));
        // bottom < any server-issued tag with ts >= 1 and even (0, client).
        assert!(b < Tag::new(0, client(0)));
    }

    #[test]
    fn lexicographic_order_matches_footnote3() {
        // tg1 < tg2 iff ts1 < ts2, or ts1 == ts2 and pid1 < pid2.
        assert!(Tag::new(1, client(9)) < Tag::new(2, client(0)));
        assert!(Tag::new(2, client(0)) < Tag::new(2, client(1)));
    }

    #[test]
    fn next_for_increments() {
        let t = Tag::new(3, client(0));
        let n = t.next_for(client(1));
        assert_eq!(n.ts, 4);
        assert_eq!(n.pid, client(1));
        assert!(t < n);
    }

    #[test]
    fn adopt_if_newer() {
        let mut reg: TaggedValue<u64> = TaggedValue::bottom();
        assert!(reg.adopt_if_newer(&TaggedValue::new(Tag::new(1, client(0)), 42)));
        assert_eq!(reg.value, Some(42));
        // Stale write is ignored.
        assert!(!reg.adopt_if_newer(&TaggedValue::new(Tag::new(1, client(0)), 7)));
        assert_eq!(reg.value, Some(42));
        // Equal tag is ignored too (idempotent redelivery).
        let again = TaggedValue::new(Tag::new(1, client(0)), 42);
        assert!(!reg.adopt_if_newer(&again));
    }

    #[test]
    fn tag_total_order_never_ties_for_distinct_writers() {
        let a = Tag::new(5, client(0));
        let b = Tag::new(5, client(1));
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn tagged_value_default_is_bottom() {
        let t: TaggedValue<u32> = TaggedValue::default();
        assert_eq!(t.tag, Tag::bottom());
        assert!(t.value.is_none());
    }
}
