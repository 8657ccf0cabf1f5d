//! Sets of changes and the weights they induce (paper §III).
//!
//! `C_{s,t}` — the set of changes created for server `s` by operations
//! completed at time `t` — only ever grows, and the weight of `s` is the sum
//! of the deltas in it. [`ChangeSet`] is the canonical grow-only
//! (union-semilattice) representation used by every protocol in this
//! repository: servers union what they learn, clients union what they read,
//! and two sets are comparable exactly when one contains the other.
//!
//! # Performance model
//!
//! Change sets ride on every protocol message (clients attach their `C` to
//! every `R`/`W`, servers echo theirs on rejection), and every quorum check
//! re-reads weights — so this type is the hottest data structure in the
//! repository. It is engineered around two ideas:
//!
//! 1. **Incremental accounting.** The per-server weight sums, the total
//!    weight, and a content digest are maintained on every mutation, so
//!    [`ChangeSet::server_weight`] and [`ChangeSet::total_weight`] are O(1)
//!    and [`ChangeSet::weights`] is O(n), instead of the O(|C|) scans a raw
//!    set would need.
//! 2. **Copy-on-write sharing.** The storage lives behind an
//!    [`Arc`]: `clone()` — the clone-onto-every-message pattern of
//!    Algorithms 3–6 — is a reference-count bump, and mutation goes through
//!    [`Arc::make_mut`], deep-copying only when the storage is actually
//!    shared. Clones that are never mutated (the overwhelming steady-state
//!    case in quorum rounds) never copy.
//!
//! Nothing is kept per target: an insert touches one weight slot, the
//! total, the digest and the journal, and a deep copy copies the set and
//! the journal once. [`ChangeSet::restricted_to`] — the `get_changes(s)`
//! of `read_changes` (Algorithm 3) — is an O(|C|) filter.
//!
//! # Cached invariants
//!
//! For every reachable `ChangeSet` the following hold (checked exhaustively
//! by the `cached_accounting_matches_rescan` differential property test):
//!
//! * `weights[s] == Σ {c.delta | c ∈ changes, c.target == s}` for every
//!   server `s < weights.len()`, and `weights.len()` is exactly
//!   `1 + max(c.target)` (zero when empty);
//! * `total == Σ {c.delta | c ∈ changes}`;
//! * `digest == Σ {mix(c) | c ∈ changes}` (wrapping), a commutative
//!   combination of per-change SipHash values, so it is order-insensitive
//!   and updatable in O(1) per insert;
//! * `journal` holds a *suffix* of the changes in the order this replica
//!   learned them — every change exactly once until
//!   [`ChangeSet::compact_journal`] checkpoints and truncates a prefix
//!   (whose digest is folded into `checkpoint`) — so
//!   [`ChangeSet::delta_since`] can roll the digest back to any *retained*
//!   historical prefix.
//!
//! Equal sets therefore always have equal digests; *unequal* sets collide
//! with probability ≈ 2⁻⁶⁴. Fast paths that conclude *inequality* from a
//! digest mismatch (with equal cardinalities) are exact; the one place a
//! digest match short-circuits work ([`ChangeSet::merge`] of
//! equal-cardinality sets) is guarded by a debug assertion and documented
//! below.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{Change, Ratio, ServerId, WeightMap};

/// The owned storage behind a [`ChangeSet`], shared copy-on-write.
#[derive(Clone, Default)]
struct Inner {
    changes: BTreeSet<Change>,
    /// Cached per-server weight sums; index = server index, length =
    /// 1 + highest server index targeted by any change.
    weights: Vec<Ratio>,
    /// Cached sum of every delta in the set.
    total: Ratio,
    /// Commutative content digest (wrapping sum of per-change hashes).
    digest: u64,
    /// Append-order journal: every change exactly once, in the order this
    /// replica learned it — possibly *truncated from the front* by
    /// [`ChangeSet::compact_journal`], in which case `checkpoint` digests
    /// the dropped prefix. Because the digest is a commutative sum, the
    /// digest of any *retained* journal prefix can be recovered by
    /// subtracting the suffix mixes — which is what
    /// [`ChangeSet::delta_since`] exploits to extract wire deltas without
    /// storing historical snapshots.
    journal: Vec<Change>,
    /// The precomputed mix of each journal entry (parallel to `journal`),
    /// so the digest-rollback walk of [`ChangeSet::delta_since`] is
    /// subtraction-only instead of one SipHash per step.
    journal_mixes: Vec<u64>,
    /// Commutative digest of the journal prefix dropped by compaction
    /// (zero while the journal is complete). The digest-rollback walk of
    /// [`ChangeSet::delta_since`] bottoms out here: a `base` digesting a
    /// dropped prefix is no longer recoverable and the caller degrades to
    /// [`crate::sync::CsRef::Full`].
    checkpoint: u64,
}

/// One change's contribution to the digest: a well-mixed 64-bit hash,
/// combined by wrapping addition so the digest is order-independent.
pub(crate) fn change_mix(c: &Change) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    c.hash(&mut h);
    h.finish() | 1 // never zero, so inserting a change always moves the digest
}

impl Inner {
    /// Applies one *new* change's bookkeeping (the change must already be
    /// known to be absent from `changes` or just inserted).
    fn account(&mut self, c: &Change) {
        let idx = c.target.index();
        if idx >= self.weights.len() {
            self.weights.resize(idx + 1, Ratio::ZERO);
        }
        self.weights[idx] += c.delta;
        self.total += c.delta;
        let mix = change_mix(c);
        self.digest = self.digest.wrapping_add(mix);
        self.journal.push(*c);
        self.journal_mixes.push(mix);
    }

    fn from_changes(changes: BTreeSet<Change>) -> Inner {
        let mut inner = Inner::default();
        for c in &changes {
            inner.account(c);
        }
        inner.changes = changes;
        inner
    }
}

/// A grow-only set of [`Change`]s with incremental weight accounting and
/// copy-on-write sharing (see the module docs for the performance model).
///
/// # Examples
///
/// ```
/// use awr_types::{Change, ChangeSet, Ratio, ServerId};
///
/// let mut c = ChangeSet::uniform_initial(3, Ratio::ONE);
/// assert_eq!(c.server_weight(ServerId(0)), Ratio::ONE);
/// assert_eq!(c.total_weight(3), Ratio::integer(3));
///
/// c.insert(Change::new(ServerId(1), 2, ServerId(0), Ratio::dec("0.5")));
/// assert_eq!(c.server_weight(ServerId(0)), Ratio::dec("1.5"));
///
/// // Cloning is a reference-count bump; the clone reads the same cache.
/// let snapshot = c.clone();
/// assert_eq!(snapshot.server_weight(ServerId(0)), Ratio::dec("1.5"));
/// ```
#[derive(Clone, Default)]
pub struct ChangeSet {
    inner: Arc<Inner>,
}

impl ChangeSet {
    /// Creates an empty change set.
    pub fn new() -> ChangeSet {
        ChangeSet::default()
    }

    /// The conventional initial set `{⟨s, 1, s, w⟩ | s ∈ S}` with uniform
    /// weight `w` (Algorithm 4 line 2 uses `w = 1`).
    pub fn uniform_initial(n: usize, w: Ratio) -> ChangeSet {
        ServerId::all(n).map(|s| Change::initial(s, w)).collect()
    }

    /// Initial set from per-server weights.
    pub fn from_initial_weights(weights: &WeightMap) -> ChangeSet {
        weights.iter().map(|(s, w)| Change::initial(s, w)).collect()
    }

    /// Inserts a change; returns `true` if it was new. O(log |C|), plus a
    /// one-off deep copy if the storage is currently shared.
    pub fn insert(&mut self, c: Change) -> bool {
        if self.inner.changes.contains(&c) {
            return false;
        }
        let inner = Arc::make_mut(&mut self.inner);
        inner.changes.insert(c);
        inner.account(&c);
        true
    }

    /// Unions another set into this one (the lattice join).
    ///
    /// Fast paths, in order:
    /// * same storage (`Arc::ptr_eq`) or empty `other` — O(1) no-op;
    /// * empty `self`, or `self ⊂ other` — adopt `other`'s storage
    ///   (reference-count bump), re-establishing sharing;
    /// * equal cardinality and equal digest — O(1) no-op. This is the one
    ///   probabilistic fast path (collision ≈ 2⁻⁶⁴); a debug assertion
    ///   validates it in test builds;
    /// * `other ⊆ self` — subset-scan no-op: no copy, no allocation. This
    ///   is the idempotent-merge steady state of quorum rounds.
    ///
    /// Only when `other` genuinely contains changes `self` lacks does the
    /// merge mutate (copy-on-write), inserting the difference.
    pub fn merge(&mut self, other: &ChangeSet) {
        if Arc::ptr_eq(&self.inner, &other.inner) || other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.inner = Arc::clone(&other.inner);
            return;
        }
        let (sl, ol) = (self.len(), other.len());
        if sl == ol && self.inner.digest == other.inner.digest {
            debug_assert_eq!(
                self.inner.changes, other.inner.changes,
                "digest collision between unequal change sets"
            );
            return;
        }
        if sl <= ol && other.contains_all(self) {
            // self ⊆ other: adopting other's storage makes this — and every
            // later — merge against it O(1) via pointer equality.
            self.inner = Arc::clone(&other.inner);
            return;
        }
        if ol < sl && self.contains_all(other) {
            return;
        }
        let inner = Arc::make_mut(&mut self.inner);
        for c in &other.inner.changes {
            if inner.changes.insert(*c) {
                inner.account(c);
            }
        }
    }

    /// Returns the union of the two sets without mutating either.
    pub fn union(&self, other: &ChangeSet) -> ChangeSet {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Changes in `self` but not `other`.
    pub fn difference(&self, other: &ChangeSet) -> Vec<Change> {
        self.inner
            .changes
            .difference(&other.inner.changes)
            .copied()
            .collect()
    }

    /// Returns `true` if `self` contains every change in `other`.
    ///
    /// O(1) when the sets share storage, when `other` is larger (certain
    /// `false`), or when the cardinalities match but the digests differ
    /// (subset ⟺ equality there, so a digest mismatch is a certain `false`).
    /// Every remaining case — including equal cardinality with matching
    /// digests — pays a subset scan, keeping the positive answer exact.
    pub fn contains_all(&self, other: &ChangeSet) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        let (sl, ol) = (self.len(), other.len());
        if ol > sl {
            return false;
        }
        if ol == sl {
            // Same cardinality: containment is equality, and equal sets
            // always have equal digests, so a mismatch is a certain "no".
            if self.inner.digest != other.inner.digest {
                return false;
            }
        }
        other.inner.changes.is_subset(&self.inner.changes)
    }

    /// Returns `true` if the specific change is present.
    pub fn contains(&self, c: &Change) -> bool {
        self.inner.changes.contains(c)
    }

    /// Number of changes.
    ///
    /// A set only grows, so a replica's `len` never falls and a replica
    /// holds at most one set of each length: a length names a set to a
    /// replica that once held one of that length. `awr_storage`'s
    /// length-only summaries ([`crate::CsRef::length_only`]) rest on
    /// this, so a representation that folds changes away must keep `len`
    /// counting every change it folds.
    pub fn len(&self) -> usize {
        self.inner.changes.len()
    }

    /// Returns `true` if no changes are present.
    pub fn is_empty(&self) -> bool {
        self.inner.changes.is_empty()
    }

    /// Iterates over all changes in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Change> {
        self.inner.changes.iter()
    }

    /// The subset of changes created for `s` (the `get_changes(s)` of
    /// Algorithm 4 line 6), as an owned set. O(|C|).
    pub fn restricted_to(&self, s: ServerId) -> ChangeSet {
        self.iter().filter(|c| c.target == s).copied().collect()
    }

    /// The weight of server `s` induced by this set:
    /// `W_s = Σ_{⟨*,*,s,Δ⟩ ∈ C} Δ`. O(1) — reads the cache.
    pub fn server_weight(&self, s: ServerId) -> Ratio {
        self.inner
            .weights
            .get(s.index())
            .copied()
            .unwrap_or(Ratio::ZERO)
    }

    /// Total weight of an `n`-server system under this set. O(1) when every
    /// change targets a server `< n` (the cached grand total applies),
    /// O(n) otherwise.
    pub fn total_weight(&self, n: usize) -> Ratio {
        if self.inner.weights.len() <= n {
            self.inner.total
        } else {
            self.inner.weights[..n].iter().sum()
        }
    }

    /// Materializes the full weight map of an `n`-server system. O(n).
    pub fn weights(&self, n: usize) -> WeightMap {
        WeightMap::from_fn(n, |s| self.server_weight(s))
    }

    /// A compact content digest for cheap comparison in message headers,
    /// maintained incrementally (O(1) to read).
    ///
    /// Equal sets have equal digests; unequal sets collide with negligible
    /// probability. Protocol code must still fall back to full comparison on
    /// digest equality when correctness depends on it.
    pub fn digest(&self) -> u64 {
        self.inner.digest
    }

    /// Returns `true` if the two handles share the same storage — the O(1)
    /// witness that the sets are equal without any comparison.
    pub fn shares_storage_with(&self, other: &ChangeSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The changes this replica appended *after* the historical point at
    /// which its digest was `base` — the wire delta a peer whose set digests
    /// to `base` needs to catch up (see [`crate::sync::CsRef::Delta`]).
    ///
    /// Works by rolling the commutative digest backwards over the
    /// append-order journal: starting from the current digest, suffix mixes
    /// are subtracted until `base` is hit; the remaining suffix *is* the
    /// delta. O(k) where `k` is the delta length — O(1)-ish when the peer is
    /// barely behind, O(|C|) when `base` is not found.
    ///
    /// Returns `None` if no *retained* journal prefix digests to `base`:
    /// the peer is ahead, diverged, followed a different append order, or
    /// sits behind the compaction checkpoint (see
    /// [`ChangeSet::compact_journal`]). Callers fall back to
    /// [`crate::sync::CsRef::Full`]. On an uncompacted set,
    /// `delta_since(0)` always succeeds with the entire journal (the empty
    /// prefix digests to 0); after compaction the walk bottoms out at the
    /// checkpoint digest instead.
    ///
    /// A hit means the peer's *content* equals the prefix only w.h.p.
    /// (digest collision ≈ 2⁻⁶⁴) — the same probabilistic contract as the
    /// digest fast paths in [`ChangeSet::merge`].
    pub fn delta_since(&self, base: u64) -> Option<&[Change]> {
        let journal = &self.inner.journal;
        let mixes = &self.inner.journal_mixes;
        let mut d = self.inner.digest;
        let mut i = journal.len();
        loop {
            if d == base {
                return Some(&journal[i..]);
            }
            if i == 0 {
                return None;
            }
            i -= 1;
            d = d.wrapping_sub(mixes[i]);
        }
    }

    /// The digest of the first `len` changes this replica learned: the
    /// set it held when it had `len` changes, as far as the journal's
    /// order is the order it learned them in (a merge can adopt another
    /// replica's journal, and a decoded set's journal is in set order).
    /// `None` when `len` exceeds [`ChangeSet::len`] or lies behind the
    /// compaction checkpoint. O(|C| − `len`).
    pub fn prefix_digest(&self, len: usize) -> Option<u64> {
        let dropped = self.len() - self.inner.journal.len();
        let keep = len.checked_sub(dropped)?;
        let suffix = self.inner.journal_mixes.get(keep..)?;
        Some(
            suffix
                .iter()
                .fold(self.inner.digest, |d, m| d.wrapping_sub(*m)),
        )
    }

    /// Number of journal entries currently retained — equal to
    /// [`ChangeSet::len`] until [`ChangeSet::compact_journal`] drops a
    /// prefix. This, times `size_of::<Change>() + 8`, is the journal's
    /// resident memory: the quantity the soak bench gates as flat.
    pub fn journal_len(&self) -> usize {
        self.inner.journal.len()
    }

    /// Commutative digest of the journal prefix dropped by compaction
    /// (zero while the journal is complete). Peers whose summary digests a
    /// prefix of the dropped region can no longer be served a
    /// [`crate::sync::CsRef::Delta`] and degrade to
    /// [`crate::sync::CsRef::Full`].
    pub fn checkpoint_digest(&self) -> u64 {
        self.inner.checkpoint
    }

    /// Checkpoints and truncates the journal to at most `keep` most-recent
    /// entries, folding the dropped prefix into the checkpoint digest.
    /// Returns the number of entries dropped.
    ///
    /// Set membership, weights and the content digest are all untouched — compaction only narrows what
    /// [`ChangeSet::delta_since`] can reconstruct. A peer whose acked
    /// digest still lands in the retained suffix keeps getting
    /// [`crate::sync::CsRef::Delta`]s; one that has fallen behind the
    /// checkpoint degrades to [`crate::sync::CsRef::Full`], so the
    /// negotiation ladder (and every liveness argument built on it) is
    /// unchanged. Servers key `keep` on an acked watermark: the longest
    /// suffix any tracked peer still needs, floored by the cadence's
    /// minimum retention (see `awr_storage::CheckpointCadence`).
    pub fn compact_journal(&mut self, keep: usize) -> usize {
        let drop = self.inner.journal.len().saturating_sub(keep);
        if drop == 0 {
            return 0;
        }
        let inner = Arc::make_mut(&mut self.inner);
        for m in &inner.journal_mixes[..drop] {
            inner.checkpoint = inner.checkpoint.wrapping_add(*m);
        }
        inner.journal.drain(..drop);
        inner.journal_mixes.drain(..drop);
        drop
    }

    #[cfg(test)]
    pub(crate) fn journal_for_tests(&self) -> &[Change] {
        &self.inner.journal
    }
}

impl PartialEq for ChangeSet {
    fn eq(&self, other: &ChangeSet) -> bool {
        // Shared storage and digest/cardinality mismatches decide in O(1);
        // only equal-digest distinct-storage pairs pay for the full walk.
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        if self.len() != other.len() || self.inner.digest != other.inner.digest {
            return false;
        }
        self.inner.changes == other.inner.changes
    }
}

impl Eq for ChangeSet {}

/// Hashes the digest and cardinality — the two fields [`PartialEq`]
/// compares first — so equal sets hash equally in O(1).
impl Hash for ChangeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.inner.digest, self.len()).hash(state);
    }
}

impl fmt::Debug for ChangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.inner.changes.iter()).finish()
    }
}

impl FromIterator<Change> for ChangeSet {
    fn from_iter<I: IntoIterator<Item = Change>>(iter: I) -> ChangeSet {
        ChangeSet {
            inner: Arc::new(Inner::from_changes(iter.into_iter().collect())),
        }
    }
}

impl Extend<Change> for ChangeSet {
    fn extend<I: IntoIterator<Item = Change>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl<'a> IntoIterator for &'a ChangeSet {
    type Item = &'a Change;
    type IntoIter = std::collections::btree_set::Iter<'a, Change>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.changes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientId;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    /// From-scratch recomputation of every cached quantity.
    fn rescan(set: &ChangeSet) -> (Vec<Ratio>, Ratio, u64) {
        let max = set.iter().map(|c| c.target.index()).max();
        let len = max.map(|m| m + 1).unwrap_or(0);
        let mut weights = vec![Ratio::ZERO; len];
        let mut total = Ratio::ZERO;
        let mut digest = 0u64;
        for c in set.iter() {
            weights[c.target.index()] += c.delta;
            total += c.delta;
            digest = digest.wrapping_add(change_mix(c));
        }
        (weights, total, digest)
    }

    fn assert_caches_exact(set: &ChangeSet) {
        let (weights, total, digest) = rescan(set);
        assert_eq!(set.inner.weights, weights, "per-server cache drifted");
        assert_eq!(set.inner.total, total, "total cache drifted");
        assert_eq!(set.inner.digest, digest, "digest cache drifted");
        assert_journal_exact(set);
    }

    /// The journal must mirror the set exactly: the retained journal is a
    /// duplicate-free subset whose length accounts for every compacted
    /// entry, the checkpoint digest plus retained mixes re-sum to the
    /// content digest, every restriction is the naive filter of the set,
    /// and `delta_since` round-trips every *retained* prefix.
    fn assert_journal_exact(set: &ChangeSet) {
        let journal = set.journal_for_tests();
        assert_eq!(journal.len(), set.journal_len());
        assert!(journal.len() <= set.len(), "journal longer than the set");
        let as_set: BTreeSet<Change> = journal.iter().copied().collect();
        assert_eq!(as_set.len(), journal.len(), "journal holds duplicates");
        let model: BTreeSet<Change> = set.iter().copied().collect();
        assert!(as_set.is_subset(&model), "journal membership drifted");
        let mixes: Vec<u64> = journal.iter().map(change_mix).collect();
        assert_eq!(set.inner.journal_mixes, mixes, "journal mixes drifted");
        let resum = mixes
            .iter()
            .fold(set.checkpoint_digest(), |d, m| d.wrapping_add(*m));
        assert_eq!(resum, set.digest(), "checkpoint + retained mixes drifted");
        if set.checkpoint_digest() == 0 {
            assert_eq!(journal.len(), set.len(), "uncompacted journal length");
            assert_eq!(as_set, model, "uncompacted journal membership");
        }
        for t in 0..=set.inner.weights.len() {
            let s = ServerId(t as u32);
            let naive: BTreeSet<Change> = model.iter().filter(|c| c.target == s).copied().collect();
            let got: BTreeSet<Change> = set.restricted_to(s).iter().copied().collect();
            assert_eq!(got, naive, "restriction to {s} drifted");
        }
        // delta_since round-trips every retained journal prefix...
        let mut prefix_digest = set.checkpoint_digest();
        for k in 0..=journal.len() {
            assert_eq!(
                set.delta_since(prefix_digest),
                Some(&journal[k..]),
                "delta_since missed prefix {k}"
            );
            if k < journal.len() {
                prefix_digest = prefix_digest.wrapping_add(change_mix(&journal[k]));
            }
        }
        // ...and refuses pre-checkpoint bases once compacted (0 digests
        // the empty prefix, which compaction dropped).
        if set.checkpoint_digest() != 0 && set.digest() != 0 {
            assert_eq!(set.delta_since(0), None, "compacted prefix resurfaced");
        }
    }

    #[test]
    fn uniform_initial_weights() {
        let c = ChangeSet::uniform_initial(4, Ratio::ONE);
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            assert_eq!(c.server_weight(s(i)), Ratio::ONE);
        }
        assert_eq!(c.total_weight(4), Ratio::integer(4));
        assert_caches_exact(&c);
    }

    #[test]
    fn weight_accumulates() {
        let mut c = ChangeSet::uniform_initial(2, Ratio::ONE);
        c.insert(Change::new(s(0), 2, s(0), Ratio::dec("-0.25")));
        c.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.25")));
        assert_eq!(c.server_weight(s(0)), Ratio::dec("0.75"));
        assert_eq!(c.server_weight(s(1)), Ratio::dec("1.25"));
        // Pairwise transfers preserve the total.
        assert_eq!(c.total_weight(2), Ratio::integer(2));
        assert_caches_exact(&c);
    }

    #[test]
    fn null_changes_do_not_affect_weight() {
        let mut c = ChangeSet::uniform_initial(2, Ratio::ONE);
        c.insert(Change::new(s(1), 2, s(0), Ratio::ZERO));
        assert_eq!(c.server_weight(s(0)), Ratio::ONE);
        assert_eq!(c.len(), 3);
        assert_caches_exact(&c);
    }

    #[test]
    fn merge_is_union() {
        let mut a = ChangeSet::uniform_initial(2, Ratio::ONE);
        let mut b = a.clone();
        a.insert(Change::new(s(0), 2, s(0), Ratio::dec("0.5")));
        b.insert(Change::new(s(1), 2, s(1), Ratio::dec("0.5")));
        let u = a.union(&b);
        assert_eq!(u.len(), 4);
        assert!(u.contains_all(&a) && u.contains_all(&b));
        a.merge(&b);
        assert_eq!(a, u);
        let hash = |c: &ChangeSet| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&u), "equal sets hash equally");
        assert_caches_exact(&a);
        assert_caches_exact(&u);
    }

    #[test]
    fn merge_is_idempotent_commutative_associative() {
        let base = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut x = base.clone();
        x.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.1")));
        let mut y = base.clone();
        y.insert(Change::new(s(2), 2, s(0), Ratio::dec("-0.1")));

        assert_eq!(x.union(&x), x); // idempotent
        assert_eq!(x.union(&y), y.union(&x)); // commutative
        let z = base.clone();
        assert_eq!(x.union(&y).union(&z), x.union(&y.union(&z))); // associative
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut c = ChangeSet::new();
        let ch = Change::new(s(0), 1, s(0), Ratio::ONE);
        assert!(c.insert(ch));
        assert!(!c.insert(ch));
        assert_eq!(c.len(), 1);
        assert_eq!(c.server_weight(s(0)), Ratio::ONE);
        assert_caches_exact(&c);
    }

    #[test]
    fn restricted_to_single_server() {
        let mut c = ChangeSet::uniform_initial(3, Ratio::ONE);
        c.insert(Change::new(s(1), 2, s(0), Ratio::dec("0.5")));
        let r = c.restricted_to(s(0));
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|ch| ch.target == s(0)));
        assert_eq!(r.server_weight(s(0)), Ratio::dec("1.5"));
        assert_caches_exact(&r);
    }

    #[test]
    fn digest_distinguishes_and_matches() {
        let a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let b = ChangeSet::uniform_initial(3, Ratio::ONE);
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.insert(Change::new(s(0), 2, s(0), Ratio::dec("0.5")));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        // Redundant insert does not break sharing.
        assert!(!a.insert(Change::initial(s(0), Ratio::ONE)));
        assert!(a.shares_storage_with(&b));
        // A real mutation copies; the clone is unaffected.
        a.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.5")));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(b.server_weight(s(1)), Ratio::ONE);
        assert_eq!(a.server_weight(s(1)), Ratio::dec("1.5"));
        assert_caches_exact(&a);
        assert_caches_exact(&b);
    }

    #[test]
    fn merge_adopts_superset_storage() {
        let base = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut bigger = base.clone();
        bigger.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.2")));
        let mut lagging = base.clone();
        lagging.merge(&bigger);
        assert_eq!(lagging, bigger);
        assert!(lagging.shares_storage_with(&bigger));
        // Idempotent re-merge is a pointer-equality no-op.
        lagging.merge(&bigger);
        assert!(lagging.shares_storage_with(&bigger));
        assert_caches_exact(&lagging);
    }

    #[test]
    fn merge_subset_into_superset_is_noop() {
        let mut big = ChangeSet::uniform_initial(4, Ratio::ONE);
        big.insert(Change::new(s(0), 2, s(2), Ratio::dec("0.3")));
        let small = ChangeSet::uniform_initial(2, Ratio::ONE);
        let before = big.clone();
        big.merge(&small);
        assert_eq!(big, before);
        assert!(
            big.shares_storage_with(&before),
            "no-op merge must not copy"
        );
    }

    #[test]
    fn merge_overlapping_sets_accounts_difference_only_once() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        a.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.1")));
        let mut b = ChangeSet::uniform_initial(3, Ratio::ONE);
        b.insert(Change::new(s(2), 2, s(1), Ratio::dec("0.2")));
        a.merge(&b);
        assert_eq!(a.server_weight(s(1)), Ratio::dec("1.3"));
        assert_eq!(a.len(), 5);
        assert_caches_exact(&a);
    }

    #[test]
    fn total_weight_ignores_out_of_range_targets() {
        let mut c = ChangeSet::uniform_initial(2, Ratio::ONE);
        c.insert(Change::new(s(0), 2, s(5), Ratio::dec("0.5")));
        // Only servers 0..2 count toward a 2-server system's total.
        assert_eq!(c.total_weight(2), Ratio::integer(2));
        assert_eq!(c.total_weight(6), Ratio::dec("2.5"));
        assert_eq!(c.server_weight(s(5)), Ratio::dec("0.5"));
        assert_eq!(c.server_weight(s(4)), Ratio::ZERO);
        assert_caches_exact(&c);
    }

    /// Differential oracle for the incremental accounting: random
    /// interleavings of `insert` / `merge` / `union` / `restricted_to`
    /// over a pool of sets, each step checked against (a) a plain
    /// `BTreeSet` model — catching any fast path that drops or invents
    /// changes — and (b) a from-scratch recomputation of the weight,
    /// total, and digest caches.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = (u8, usize, usize, Change, u32)> {
            (
                0u8..5,
                0usize..3,
                0usize..3,
                (0u32..6, 1u64..5, 0u32..6, -30i128..30).prop_map(|(i, lc, t, d)| {
                    Change::new(ServerId(i), lc, ServerId(t), Ratio::new(d, 10))
                }),
                0u32..6,
            )
        }

        proptest! {
            #[test]
            fn cached_accounting_matches_rescan(
                ops in proptest::collection::vec(op_strategy(), 1..60),
            ) {
                let mut sets: Vec<ChangeSet> =
                    vec![ChangeSet::new(), ChangeSet::uniform_initial(3, Ratio::ONE), ChangeSet::new()];
                let mut models: Vec<BTreeSet<Change>> =
                    sets.iter().map(|s| s.iter().copied().collect()).collect();
                for (op, i, j, change, server) in ops {
                    match op {
                        0 => {
                            let was_new = sets[i].insert(change);
                            prop_assert_eq!(was_new, models[i].insert(change));
                        }
                        1 => {
                            let other = sets[j].clone();
                            sets[i].merge(&other);
                            let other_model = models[j].clone();
                            models[i].extend(other_model);
                        }
                        2 => {
                            let u = sets[i].union(&sets[j]);
                            let model: BTreeSet<Change> =
                                models[i].union(&models[j]).copied().collect();
                            sets[i] = u;
                            models[i] = model;
                        }
                        3 => {
                            let s = ServerId(server);
                            sets[i] = sets[i].restricted_to(s);
                            models[i] = models[i]
                                .iter()
                                .filter(|c| c.target == s)
                                .copied()
                                .collect();
                        }
                        _ => {
                            // Compaction must be invisible to everything
                            // except delta extraction; the model is
                            // untouched on purpose.
                            let before = sets[i].journal_len();
                            let keep = server as usize;
                            let dropped = sets[i].compact_journal(keep);
                            prop_assert_eq!(dropped, before.saturating_sub(keep));
                            prop_assert_eq!(sets[i].journal_len(), before - dropped);
                        }
                    }
                    // (a) The set's content matches the model exactly.
                    let got: BTreeSet<Change> = sets[i].iter().copied().collect();
                    prop_assert_eq!(&got, &models[i]);
                    prop_assert_eq!(sets[i].len(), models[i].len());
                    // (b) Every cached quantity matches a from-scratch scan,
                    // the journal mirrors the set, and every restriction is
                    // the naive filter.
                    let (weights, total, digest) = super::rescan(&sets[i]);
                    prop_assert_eq!(&sets[i].inner.weights, &weights);
                    prop_assert_eq!(sets[i].inner.total, total);
                    prop_assert_eq!(sets[i].inner.digest, digest);
                    super::assert_journal_exact(&sets[i]);
                    // (c) Public accessors agree with naive recomputation.
                    for srv in 0..6u32 {
                        let naive: Ratio = models[i]
                            .iter()
                            .filter(|c| c.target == ServerId(srv))
                            .map(|c| c.delta)
                            .sum();
                        prop_assert_eq!(sets[i].server_weight(ServerId(srv)), naive);
                    }
                    let naive_total: Ratio = models[i].iter().map(|c| c.delta).sum();
                    prop_assert_eq!(sets[i].total_weight(6), naive_total);
                    prop_assert_eq!(sets[i].weights(6).total(), naive_total);
                }
                // Cross-set equality semantics agree with the models.
                for a in 0..3 {
                    for b in 0..3 {
                        prop_assert_eq!(sets[a] == sets[b], models[a] == models[b]);
                        prop_assert_eq!(
                            sets[a].contains_all(&sets[b]),
                            models[b].is_subset(&models[a])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compact_journal_preserves_content_and_recent_deltas() {
        let mut c = ChangeSet::uniform_initial(3, Ratio::ONE);
        for lc in 2..12u64 {
            c.insert(Change::new(s(0), lc, s(1), Ratio::new(1, 100)));
        }
        let full = c.clone();
        // A peer that acked 4 entries ago.
        let near = {
            let j = c.journal_for_tests();
            let cut = j.len() - 4;
            j[..cut]
                .iter()
                .fold(0u64, |d, ch| d.wrapping_add(change_mix(ch)))
        };
        assert_eq!(c.compact_journal(6), 7); // 13 entries -> keep 6
        assert_eq!(c.journal_len(), 6);
        assert_ne!(c.checkpoint_digest(), 0);
        // Content, weights, digest: untouched.
        assert_eq!(c, full);
        assert_eq!(c.digest(), full.digest());
        assert_eq!(c.server_weight(s(1)), full.server_weight(s(1)));
        assert_eq!(
            c.restricted_to(s(1)).iter().collect::<Vec<_>>(),
            full.restricted_to(s(1)).iter().collect::<Vec<_>>()
        );
        // A recently-acked peer still gets a delta; an ancient one (and
        // the empty prefix) degrade to None -> CsRef::Full.
        assert_eq!(c.delta_since(near).map(<[Change]>::len), Some(4));
        assert_eq!(c.delta_since(0), None);
        assert_eq!(c.delta_since(c.digest()).map(<[Change]>::len), Some(0));
        assert_caches_exact(&c);
        // Compacting an already-short journal is a no-op.
        assert_eq!(c.compact_journal(6), 0);
        assert_eq!(c.compact_journal(100), 0);
        // Repeated compaction keeps folding into the checkpoint.
        assert_eq!(c.compact_journal(0), 6);
        assert_eq!(c.journal_len(), 0);
        assert_eq!(c.checkpoint_digest(), c.digest());
        assert_eq!(c.delta_since(c.digest()).map(<[Change]>::len), Some(0));
        assert_caches_exact(&c);
        assert_eq!(c, full);
    }

    /// Every retained prefix digests to the set held at that length;
    /// a length past the set or behind the checkpoint names nothing.
    #[test]
    fn prefix_digest_names_the_set_held_at_each_length() {
        let mut c = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut held = vec![(c.len(), c.digest())];
        for lc in 2..8u64 {
            c.insert(Change::new(s(lc as u32 % 3), lc, s(1), Ratio::new(1, 100)));
            held.push((c.len(), c.digest()));
        }
        for &(len, digest) in &held {
            assert_eq!(c.prefix_digest(len), Some(digest), "{len}");
        }
        assert_eq!(c.prefix_digest(0), Some(0));
        assert_eq!(c.prefix_digest(c.len() + 1), None);
        c.compact_journal(4);
        let floor = c.len() - 4;
        for &(len, digest) in &held {
            let named = (len >= floor).then_some(digest);
            assert_eq!(c.prefix_digest(len), named, "{len}");
        }
        assert_eq!(c.prefix_digest(0), None);
    }

    #[test]
    fn compaction_is_copy_on_write() {
        let mut a = ChangeSet::uniform_initial(4, Ratio::ONE);
        let b = a.clone();
        assert_eq!(a.compact_journal(1), 3);
        assert!(!a.shares_storage_with(&b), "compaction must deep-copy");
        assert_eq!(b.journal_len(), 4, "clone keeps its full journal");
        assert_eq!(b.checkpoint_digest(), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn growth_after_compaction_journals_normally() {
        let mut c = ChangeSet::uniform_initial(2, Ratio::ONE);
        c.compact_journal(0);
        let base = c.digest();
        c.insert(Change::new(s(0), 2, s(1), Ratio::dec("0.5")));
        c.insert(Change::new(s(1), 2, s(0), Ratio::dec("-0.5")));
        assert_eq!(c.journal_len(), 2);
        assert_eq!(c.delta_since(base).map(<[Change]>::len), Some(2));
        assert_caches_exact(&c);
    }

    #[test]
    fn contains_all_equal_cardinality_uses_digest() {
        let mut a = ChangeSet::uniform_initial(3, Ratio::ONE);
        let mut b = ChangeSet::uniform_initial(3, Ratio::ONE);
        a.insert(Change::new(s(0), 2, s(0), Ratio::dec("0.1")));
        b.insert(Change::new(s(1), 2, s(1), Ratio::dec("0.1")));
        // Same cardinality, different content: certain false.
        assert!(!a.contains_all(&b));
        assert!(!b.contains_all(&a));
        // Equal content without shared storage: true.
        let c: ChangeSet = a.iter().copied().collect();
        assert!(!a.shares_storage_with(&c));
        assert!(a.contains_all(&c) && c.contains_all(&a));
        assert_eq!(a, c);
    }

    #[test]
    fn change_set_weights_of_mixed_targets() {
        let mut c = ChangeSet::uniform_initial(3, Ratio::ONE);
        // Changes issued by a client (allowed by the general problem).
        c.insert(Change::new(ClientId(0), 2, ServerId(1), Ratio::dec("0.5")));
        assert_eq!(c.server_weight(ServerId(1)), Ratio::dec("1.5"));
        assert_eq!(c.weights(3).total(), Ratio::dec("3.5"));
    }
}
