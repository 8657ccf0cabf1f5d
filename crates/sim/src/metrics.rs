//! Simulation metrics: message, byte, event, per-link and per-object
//! accounting.
//!
//! Besides the classic counters, [`Metrics`] keeps three tables, sized so
//! that recording a send is array work:
//!
//! * **per name** — [`Metrics::sent_by_kind`] / [`Metrics::bytes_by_kind`]
//!   per message kind, and the named [`Metrics::counters`] and
//!   [`Metrics::samples`]: each a [`NameTable`], a short vector in name
//!   order that finds a label by its address before comparing text (a
//!   protocol has ~10 kinds and passes the same `&'static str` every time);
//! * **per directed link** — one [`LinkStat`] (messages, bytes,
//!   transmission busy time, delivery-delay components split into queueing
//!   / transmission / propagation) in rows indexed by sender then
//!   receiver, read through [`Metrics::bytes_on_link`],
//!   [`Metrics::link_utilization`], [`Metrics::link_delay`] and iterated
//!   in ascending `(from, to)` order by [`Metrics::links`];
//! * **per object** — one [`ObjectStat`] per keyed register, in a vector
//!   indexed by key for keys below a fixed bound (16 384: workloads number
//!   their objects from 0) and in a [`U64Hasher`] map above it, read
//!   through [`Metrics::bytes_of_object`] and iterated in ascending key
//!   order by [`Metrics::objects`].
//!
//! The link table is the observation side of the observe→decide→reassign
//! loop: placement policies consume it to decide where weight should
//! live, usually over a window cut with [`Metrics::since`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::actor::ActorId;
use crate::network::Delivery;
use crate::rows::LinkRows;
use crate::time::{Nanos, Time};

/// Accumulated delivery-delay components of one directed link, recorded at
/// send time from the [`Delivery`] the network model decided. The split
/// matters to placement policies: `propagation` is the geometry of the
/// topology (what a latency-greedy policy should act on), while `queued`
/// is contention — cross traffic or protocol bursts occupying the link —
/// which only a utilization-aware policy reacts to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkDelayStat {
    /// Messages whose delay contributed to the sums.
    pub count: u64,
    /// Total time spent waiting for the link to free up.
    pub queued: Nanos,
    /// Total transmission time (`wire_size / bandwidth`).
    pub transmission: Nanos,
    /// Total propagation delay.
    pub propagation: Nanos,
}

impl LinkDelayStat {
    /// Mean propagation delay in nanoseconds (`None` before any sample).
    pub fn mean_propagation(&self) -> Option<f64> {
        (self.count > 0).then(|| self.propagation as f64 / self.count as f64)
    }

    /// Mean queueing delay in nanoseconds (`None` before any sample).
    pub fn mean_queued(&self) -> Option<f64> {
        (self.count > 0).then(|| self.queued as f64 / self.count as f64)
    }
}

/// Everything recorded about one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Messages sent on the link. Tracked by every runtime; with `bytes`
    /// it gives placement policies a traffic-share signal even where no
    /// virtual time exists.
    pub msgs: u64,
    /// Bytes sent on the link.
    pub bytes: u64,
    /// Nanoseconds the link spent actually transmitting. Zero under
    /// pure-propagation models and outside [`crate::World`] (no virtual
    /// time).
    pub busy: Nanos,
    /// Delivery-delay accounting (queueing, transmission, propagation).
    /// `count` stays zero outside [`crate::World`]: only a network model
    /// decides a [`Delivery`].
    pub delay: LinkDelayStat,
}

impl LinkStat {
    fn since(&self, base: &LinkStat) -> LinkStat {
        LinkStat {
            msgs: self.msgs.saturating_sub(base.msgs),
            bytes: self.bytes.saturating_sub(base.bytes),
            busy: self.busy.saturating_sub(base.busy),
            delay: LinkDelayStat {
                count: self.delay.count.saturating_sub(base.delay.count),
                queued: self.delay.queued.saturating_sub(base.delay.queued),
                transmission: self
                    .delay
                    .transmission
                    .saturating_sub(base.delay.transmission),
                propagation: self
                    .delay
                    .propagation
                    .saturating_sub(base.delay.propagation),
            },
        }
    }

    fn absorb(&mut self, other: &LinkStat) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.busy += other.busy;
        self.delay.count += other.delay.count;
        self.delay.queued = self.delay.queued.saturating_add(other.delay.queued);
        self.delay.transmission = self
            .delay
            .transmission
            .saturating_add(other.delay.transmission);
        self.delay.propagation = self
            .delay
            .propagation
            .saturating_add(other.delay.propagation);
    }
}

/// Traffic attributed to one object (keyed register).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectStat {
    /// Messages that named the object.
    pub msgs: u64,
    /// Their bytes.
    pub bytes: u64,
}

/// Hasher of the tables keyed by one `u64` (an object key) on the
/// per-event path — the per-object tally here above its dense bound, and
/// the register table of `awr_storage`'s `DynServer`: one multiply and a
/// fold, instead of SipHash on every keyed send and every request. Object
/// keys are chosen by the clients, and a client is trusted with its keys
/// as with its writes: these tables give up SipHash's resistance to keys
/// crafted to collide, so a client that chose such keys could slow the
/// servers it talks to. A key type must hash as one `write_u64` (a `u64`,
/// or a newtype over one deriving `Hash`); any other write panics.
#[derive(Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keyed by u64 only");
    }

    fn write_u64(&mut self, key: u64) {
        // Fibonacci hashing; the fold brings the well-mixed high bits down
        // to where the table takes its bucket index from.
        let x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`U64Hasher`]s for a `HashMap`/`HashSet`.
pub type U64Build = BuildHasherDefault<U64Hasher>;

/// Object keys below this are tallied in a vector indexed by key.
const DENSE_OBJECTS: u64 = 1 << 14;

/// The per-object tally: a vector indexed by key below [`DENSE_OBJECTS`]
/// (grown to the largest such key named so far), a map above it. A key is
/// in the table iff some message named it, i.e. its `msgs` is not zero.
#[derive(Clone, Debug, Default)]
struct ObjectTable {
    dense: Vec<ObjectStat>,
    sparse: HashMap<u64, ObjectStat, U64Build>,
}

impl ObjectTable {
    /// `key`'s record, zero if no message named it.
    fn get(&self, key: u64) -> ObjectStat {
        if key < DENSE_OBJECTS {
            self.dense.get(key as usize).copied().unwrap_or_default()
        } else {
            self.sparse.get(&key).copied().unwrap_or_default()
        }
    }

    /// `key`'s record, for update.
    fn slot(&mut self, key: u64) -> &mut ObjectStat {
        if key < DENSE_OBJECTS {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, ObjectStat::default());
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(key).or_default()
        }
    }

    /// Every named key's record, in ascending key order.
    fn sorted(&self) -> Vec<(u64, ObjectStat)> {
        let mut sparse: Vec<(u64, ObjectStat)> =
            self.sparse.iter().map(|(&k, &s)| (k, s)).collect();
        sparse.sort_unstable_by_key(|&(k, _)| k);
        let dense = self.dense.iter().enumerate();
        dense
            .filter(|(_, s)| s.msgs > 0)
            .map(|(k, &s)| (k as u64, s))
            .chain(sparse)
            .collect()
    }
}

/// Values keyed by `&'static str` names — message kinds, counter and
/// histogram names — in name order.
///
/// A lookup compares addresses first: the labels come from `&'static str`
/// literals, so a warm lookup finds its entry with one pointer-and-length
/// comparison per name ahead of it and reads no text. Only a label not
/// found by address — a new name, or the same text at another address —
/// is searched for by content, so equal texts always share one entry.
/// Iteration (`for (name, value) in &table`) yields `(&&'static str, &V)`
/// in name order, as the `BTreeMap` it replaces did.
#[derive(Clone, PartialEq, Eq)]
pub struct NameTable<V> {
    entries: Vec<(&'static str, V)>,
}

impl<V> Default for NameTable<V> {
    fn default() -> Self {
        NameTable {
            entries: Vec::new(),
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for NameTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self).finish()
    }
}

impl<V> NameTable<V> {
    /// `Ok(index)` of `name`'s entry, or `Err(index)` where it would go.
    #[inline]
    fn find(&self, name: &str) -> Result<usize, usize> {
        match self
            .entries
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, name))
        {
            Some(i) => Ok(i),
            None => self.entries.binary_search_by(|(k, _)| (*k).cmp(name)),
        }
    }

    /// The value under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&V> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `name`, inserted in name order as `V::default()` if
    /// absent.
    #[inline]
    pub fn slot(&mut self, name: &'static str) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(name) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (name, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Every `(name, value)`, in name order.
    pub fn iter<'a>(&'a self) -> NameIter<'a, V> {
        let pair: fn(&'a (&'static str, V)) -> (&'a &'static str, &'a V) = |(k, v)| (k, v);
        self.entries.iter().map(pair)
    }

    /// Every name, in order.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Every value, in name order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no name has an entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Each entry of `self` against `base`'s entry of the same name (if
    /// any): what [`Metrics::since`] does per name. Every name of `self`
    /// stays, also where the window leaves it at zero.
    fn since(&self, base: &Self, sub: impl Fn(&V, Option<&V>) -> V) -> Self {
        NameTable {
            entries: self
                .entries
                .iter()
                .map(|(k, v)| (*k, sub(v, base.get(k))))
                .collect(),
        }
    }

    /// Adds each entry of `other` into the entry of the same name:
    /// what [`Metrics::absorb`] does per name.
    fn absorb(&mut self, other: &Self, add: impl Fn(&mut V, &V))
    where
        V: Default,
    {
        for (k, v) in other {
            add(self.slot(k), v);
        }
    }
}

/// The iterator of [`NameTable::iter`].
pub type NameIter<'a, V> = std::iter::Map<
    std::slice::Iter<'a, (&'static str, V)>,
    fn(&'a (&'static str, V)) -> (&'a &'static str, &'a V),
>;

impl<'a, V> IntoIterator for &'a NameTable<V> {
    type Item = (&'a &'static str, &'a V);
    type IntoIter = NameIter<'a, V>;

    fn into_iter(self) -> NameIter<'a, V> {
        self.iter()
    }
}

/// Counters accumulated by a [`crate::World`] run, or by one
/// [`crate::NodeHost`] (one per node; [`Metrics::absorb`] sums them).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total events processed (deliveries + timers + crashes).
    pub events_processed: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Bytes handed to the network (sum of [`crate::Message::wire_size`]
    /// over every send).
    pub bytes_sent: u64,
    /// Messages delivered to a live actor.
    pub messages_delivered: u64,
    /// Messages dropped because the destination had crashed.
    pub messages_dropped_crashed: u64,
    /// Actors rebuilt and rebooted after a crash (fault injection).
    pub restarts: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Per message-kind send counts.
    pub sent_by_kind: NameTable<u64>,
    /// Per message-kind byte totals.
    pub bytes_by_kind: NameTable<u64>,
    /// Per directed-link records, `[from][to]`. A cell whose `msgs` is
    /// zero is a link that does not exist (yet, or in this window).
    links: LinkRows<LinkStat>,
    /// Per-object records, fed by [`crate::Message::object_key`]. Only
    /// messages that name an object are attributed; shared traffic
    /// (reassignment, refreshes) is not.
    objects: ObjectTable,
    /// Named protocol counters fed by [`crate::Context::record_counter`] —
    /// e.g. the storage layer's fast-path read hits/misses. Tracked by both
    /// runtimes.
    pub counters: NameTable<u64>,
    /// Named value histograms (`value → occurrences`) fed by
    /// [`crate::Context::record_sample`] — e.g. the phase-2 write-back
    /// fanout distribution. Tracked by both runtimes.
    pub samples: NameTable<BTreeMap<u64, u64>>,
    /// Latest virtual time reached.
    pub last_time: Time,
}

impl Metrics {
    /// The part of a send every runtime knows: totals, the per-kind tables,
    /// and the link's message and byte counts.
    #[inline]
    fn tally_send(
        &mut self,
        kind: &'static str,
        bytes: usize,
        from: ActorId,
        to: ActorId,
    ) -> &mut LinkStat {
        let bytes = bytes as u64;
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        *self.sent_by_kind.slot(kind) += 1;
        *self.bytes_by_kind.slot(kind) += bytes;
        let link = self.links.cell_mut(from.index(), to.index());
        link.msgs += 1;
        link.bytes += bytes;
        link
    }

    /// Records a send of a message with the given kind label, wire size,
    /// endpoints, and decided delivery components. Called by
    /// [`crate::World`] on every send; public so harnesses and tests can
    /// build synthetic observation matrices for placement policies.
    pub fn record_send(
        &mut self,
        kind: &'static str,
        bytes: usize,
        from: ActorId,
        to: ActorId,
        delivery: Delivery,
    ) {
        let link = self.tally_send(kind, bytes, from, to);
        link.busy += delivery.transmission;
        let stat = &mut link.delay;
        stat.count += 1;
        stat.queued = stat.queued.saturating_add(delivery.queued);
        stat.transmission = stat.transmission.saturating_add(delivery.transmission);
        stat.propagation = stat.propagation.saturating_add(delivery.propagation);
    }

    /// Records a send on a runtime with no virtual time, hence no
    /// [`Delivery`]: the tally of [`Metrics::record_send`] minus the busy
    /// time and the delay sample, plus the object attribution. The one
    /// send-accounting path of [`crate::NodeHost`].
    pub fn record_untimed_send(
        &mut self,
        kind: &'static str,
        bytes: usize,
        from: ActorId,
        to: ActorId,
        object: Option<u64>,
    ) {
        self.tally_send(kind, bytes, from, to);
        if let Some(object) = object {
            self.record_object(object, bytes);
        }
    }

    /// Attributes a send to an object (keyed register). [`crate::World`]
    /// calls this alongside [`Metrics::record_send`] whenever
    /// [`crate::Message::object_key`] names one.
    pub fn record_object(&mut self, object: u64, bytes: usize) {
        let stat = self.objects.slot(object);
        stat.msgs += 1;
        stat.bytes += bytes as u64;
    }

    /// Bumps a named protocol counter (the runtimes route
    /// [`crate::Context::record_counter`] effects here).
    pub fn record_counter(&mut self, key: &'static str, add: u64) {
        *self.counters.slot(key) += add;
    }

    /// Records one observation into a named histogram (the runtimes route
    /// [`crate::Context::record_sample`] effects here).
    pub fn record_sample(&mut self, key: &'static str, value: u64) {
        *self.samples.slot(key).entry(value).or_insert(0) += 1;
    }

    /// The value of a named protocol counter (0 if never bumped).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The histogram recorded under `key` (`value → occurrences`), if any
    /// sample landed.
    pub fn sample_hist(&self, key: &str) -> Option<&BTreeMap<u64, u64>> {
        self.samples.get(key)
    }

    /// Total observations recorded under `key`.
    pub fn sample_count(&self, key: &str) -> u64 {
        self.samples.get(key).map(|h| h.values().sum()).unwrap_or(0)
    }

    /// Mean of the observations recorded under `key` (0 if none).
    pub fn sample_mean(&self, key: &str) -> f64 {
        let Some(h) = self.samples.get(key) else {
            return 0.0;
        };
        let n: u64 = h.values().sum();
        if n == 0 {
            return 0.0;
        }
        let sum: u128 = h.iter().map(|(v, c)| *v as u128 * *c as u128).sum();
        sum as f64 / n as f64
    }

    /// Bytes attributed to an object key.
    pub fn bytes_of_object(&self, object: u64) -> u64 {
        self.objects.get(object).bytes
    }

    /// Messages attributed to an object key.
    pub fn msgs_of_object(&self, object: u64) -> u64 {
        self.objects.get(object).msgs
    }

    /// Every object that was named by a message, in ascending key order.
    pub fn objects(&self) -> impl Iterator<Item = (u64, ObjectStat)> {
        self.objects.sorted().into_iter()
    }

    /// Messages sent with a specific kind label.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Bytes sent with a specific kind label.
    pub fn bytes_of_kind(&self, kind: &str) -> u64 {
        self.bytes_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Mean bytes per sent message of a specific kind (0 if none sent).
    pub fn mean_bytes_of_kind(&self, kind: &str) -> f64 {
        let n = self.sent_of_kind(kind);
        if n == 0 {
            0.0
        } else {
            self.bytes_of_kind(kind) as f64 / n as f64
        }
    }

    /// The record of the directed link `from → to`, if it carried a
    /// message.
    pub fn link(&self, from: ActorId, to: ActorId) -> Option<&LinkStat> {
        self.links
            .get(from.index(), to.index())
            .filter(|s| s.msgs > 0)
    }

    /// Every directed link that carried a message, in ascending
    /// `(from, to)` order — the order consumers that fold floats over the
    /// links rely on.
    pub fn links(&self) -> impl Iterator<Item = ((ActorId, ActorId), &LinkStat)> {
        self.links
            .cells()
            .filter(|(_, s)| s.msgs > 0)
            .map(|((f, t), s)| ((ActorId(f), ActorId(t)), s))
    }

    /// Bytes sent on the directed link `from → to`.
    pub fn bytes_on_link(&self, from: ActorId, to: ActorId) -> u64 {
        self.link(from, to).map_or(0, |s| s.bytes)
    }

    /// Messages sent on the directed link `from → to`.
    pub fn msgs_on_link(&self, from: ActorId, to: ActorId) -> u64 {
        self.link(from, to).map_or(0, |s| s.msgs)
    }

    /// The directed link that carried the most bytes, if any traffic
    /// flowed (ties go to the lowest `(from, to)`).
    pub fn busiest_link(&self) -> Option<((ActorId, ActorId), u64)> {
        self.links()
            .max_by_key(|(link, s)| (s.bytes, std::cmp::Reverse(*link)))
            .map(|(l, s)| (l, s.bytes))
    }

    /// `busy` nanoseconds as a fraction of the run so far (0 before any
    /// time has passed).
    fn busy_fraction(&self, busy: u128) -> f64 {
        match self.last_time.nanos() {
            0 => 0.0,
            elapsed => busy as f64 / elapsed as f64,
        }
    }

    /// Busy time summed over row `from`: what its uplink transmitted.
    fn uplink_busy(row: &[LinkStat]) -> u128 {
        row.iter().map(|s| s.busy as u128).sum()
    }

    /// Fraction of the run the `from → to` link spent transmitting
    /// (`busy / last_time`; 0 before any time has passed). Under
    /// pure-propagation models this is always 0 — utilization only becomes
    /// meaningful once a bandwidth-aware [`crate::NetworkModel`] charges
    /// transmission time.
    pub fn link_utilization(&self, from: ActorId, to: ActorId) -> f64 {
        self.busy_fraction(self.link(from, to).map_or(0, |s| s.busy as u128))
    }

    /// The highest per-link utilization across all links (0 if no
    /// transmission time was charged).
    pub fn max_link_utilization(&self) -> f64 {
        // The busiest link is the most utilized one: every link divides by
        // the same elapsed time.
        self.busy_fraction(self.links().map(|(_, s)| s.busy as u128).max().unwrap_or(0))
    }

    /// Fraction of the run actor `from`'s *uplink* spent transmitting:
    /// busy time summed over every outgoing link. This is the right
    /// saturation measure under [`crate::LinkDiscipline::SharedUplink`],
    /// where all outgoing transmissions serialize on one pipe —
    /// per-(from, to) utilization splits that pipe's busy time across
    /// destinations and understates it. Transmission time is charged at
    /// send, so a saturated uplink with messages still queued when the
    /// run ends can report slightly above 1.0.
    pub fn uplink_utilization(&self, from: ActorId) -> f64 {
        self.busy_fraction(Self::uplink_busy(self.links.row(from.index())))
    }

    /// The highest uplink utilization across all senders.
    pub fn max_uplink_utilization(&self) -> f64 {
        self.busy_fraction(self.links.rows().map(Self::uplink_busy).max().unwrap_or(0))
    }

    /// Delay accounting of the directed link `from → to`. `None` until a
    /// delay sample landed on it: links seen only through
    /// [`Metrics::record_untimed_send`] have traffic but no delays.
    pub fn link_delay(&self, from: ActorId, to: ActorId) -> Option<&LinkDelayStat> {
        self.link(from, to)
            .map(|s| &s.delay)
            .filter(|d| d.count > 0)
    }

    /// Mean observed *propagation* delay on `from → to`, nanoseconds —
    /// the topology signal, free of contention.
    pub fn mean_link_propagation(&self, from: ActorId, to: ActorId) -> Option<f64> {
        self.link_delay(from, to).and_then(|s| s.mean_propagation())
    }

    /// Mean observed *queueing* delay on `from → to`, nanoseconds — the
    /// contention signal (cross traffic or protocol bursts holding the
    /// link).
    pub fn mean_link_queueing(&self, from: ActorId, to: ActorId) -> Option<f64> {
        self.link_delay(from, to).and_then(|s| s.mean_queued())
    }

    /// Mean observed round-trip propagation between two actors: mean
    /// one-way `a → b` plus mean one-way `b → a`. `None` until both
    /// directions carried traffic.
    pub fn mean_link_rtt(&self, a: ActorId, b: ActorId) -> Option<f64> {
        Some(self.mean_link_propagation(a, b)? + self.mean_link_propagation(b, a)?)
    }

    /// Bytes sent on links touching `a` (either direction) — the
    /// traffic-share signal placement policies fall back to where no
    /// transmission time is charged (pure-propagation models, the
    /// wall-clock runtime).
    pub fn incident_bytes(&self, a: ActorId) -> u64 {
        let i = a.index();
        let sent: u64 = self.links.row(i).iter().map(|s| s.bytes).sum();
        let received: u64 = self
            .links
            .rows()
            .enumerate()
            .filter(|&(from, _)| from != i)
            .filter_map(|(_, row)| row.get(i))
            .map(|s| s.bytes)
            .sum();
        sent + received
    }

    /// A copy of what the link queries read — `bytes_sent`, the per-link
    /// records and `last_time` — with every other tally empty: the
    /// observation a placement policy is handed
    /// (`awr_quorum::placement::PlacementInputs::metrics`), snapshotted
    /// and windowed without the per-kind, per-object and named tables.
    pub fn links_only(&self) -> Metrics {
        Metrics {
            bytes_sent: self.bytes_sent,
            links: self.links.clone(),
            last_time: self.last_time,
            ..Metrics::default()
        }
    }

    /// The counters accumulated *since* `baseline` was snapshotted: every
    /// total, per-kind, per-link, per-object, and delay tally is the
    /// component-wise difference, and `last_time` becomes the window
    /// *length* — so ratio queries ([`Metrics::link_utilization`],
    /// [`Metrics::uplink_utilization`]) read as utilization over the
    /// window, not over the whole run. A link or object with no message
    /// in the window is absent from it ([`Metrics::links`],
    /// [`Metrics::link_delay`], [`Metrics::objects`]).
    ///
    /// This is what lets an observe→decide loop re-decide mid-run on fresh
    /// evidence: a regime shift is invisible in cumulative means (the old
    /// regime's samples dilute the new ones) but obvious in a window.
    /// `baseline` must be an earlier snapshot of the same run; counters
    /// saturate at zero rather than underflow.
    pub fn since(&self, baseline: &Metrics) -> Metrics {
        fn sub(new: &u64, old: Option<&u64>) -> u64 {
            new.saturating_sub(old.copied().unwrap_or(0))
        }
        let samples = self.samples.since(&baseline.samples, |h, old| {
            h.iter()
                .map(|(v, n)| (*v, sub(n, old.and_then(|o| o.get(v)))))
                .collect()
        });
        let mut links = self.links.clone();
        for ((from, to), old) in baseline.links.cells() {
            let link = links.cell_mut(from, to);
            *link = link.since(old);
        }
        let mut objects = ObjectTable::default();
        for (k, s) in self.objects.sorted() {
            let old = baseline.objects.get(k);
            if s.msgs > old.msgs {
                *objects.slot(k) = ObjectStat {
                    msgs: s.msgs - old.msgs,
                    bytes: s.bytes.saturating_sub(old.bytes),
                };
            }
        }
        Metrics {
            events_processed: self
                .events_processed
                .saturating_sub(baseline.events_processed),
            messages_sent: self.messages_sent.saturating_sub(baseline.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(baseline.bytes_sent),
            messages_delivered: self
                .messages_delivered
                .saturating_sub(baseline.messages_delivered),
            messages_dropped_crashed: self
                .messages_dropped_crashed
                .saturating_sub(baseline.messages_dropped_crashed),
            restarts: self.restarts.saturating_sub(baseline.restarts),
            timers_fired: self.timers_fired.saturating_sub(baseline.timers_fired),
            sent_by_kind: self.sent_by_kind.since(&baseline.sent_by_kind, sub),
            bytes_by_kind: self.bytes_by_kind.since(&baseline.bytes_by_kind, sub),
            links,
            objects,
            counters: self.counters.since(&baseline.counters, sub),
            samples,
            last_time: Time(
                self.last_time
                    .nanos()
                    .saturating_sub(baseline.last_time.nanos()),
            ),
        }
    }

    /// Adds every tally of `other` into `self` (and keeps the later
    /// `last_time`): how the per-node [`Metrics`] of several
    /// [`crate::NodeHost`]s merge into one run-wide view.
    pub fn absorb(&mut self, other: &Metrics) {
        fn add(into: &mut u64, n: &u64) {
            *into += n;
        }
        self.events_processed += other.events_processed;
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped_crashed += other.messages_dropped_crashed;
        self.restarts += other.restarts;
        self.timers_fired += other.timers_fired;
        self.sent_by_kind.absorb(&other.sent_by_kind, add);
        self.bytes_by_kind.absorb(&other.bytes_by_kind, add);
        for ((from, to), s) in other.links.cells().filter(|(_, s)| s.msgs > 0) {
            self.links.cell_mut(from, to).absorb(s);
        }
        for (k, s) in other.objects.sorted() {
            let mine = self.objects.slot(k);
            mine.msgs += s.msgs;
            mine.bytes += s.bytes;
        }
        self.counters.absorb(&other.counters, add);
        self.samples.absorb(&other.samples, |into, h| {
            for (v, n) in h {
                add(into.entry(*v).or_insert(0), n);
            }
        });
        self.last_time = self.last_time.max(other.last_time);
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "events={} sent={} bytes={} delivered={} dropped={} timers={} t_end={}",
            self.events_processed,
            self.messages_sent,
            self.bytes_sent,
            self.messages_delivered,
            self.messages_dropped_crashed,
            self.timers_fired,
            self.last_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> ActorId {
        ActorId(i)
    }

    /// A delivery that only charges transmission time (the legacy shape of
    /// the accounting tests).
    fn tx(transmission: Nanos) -> Delivery {
        Delivery {
            queued: 0,
            transmission,
            propagation: 0,
        }
    }

    #[test]
    fn record_and_query() {
        let mut m = Metrics::default();
        m.record_send("RC", 24, a(0), a(1), tx(0));
        m.record_send("RC", 36, a(0), a(2), tx(0));
        m.record_send("T", 100, a(1), a(0), tx(0));
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 160);
        assert_eq!(m.sent_of_kind("RC"), 2);
        assert_eq!(m.bytes_of_kind("RC"), 60);
        assert_eq!(m.mean_bytes_of_kind("RC"), 30.0);
        assert_eq!(m.sent_of_kind("T"), 1);
        assert_eq!(m.sent_of_kind("nope"), 0);
        assert_eq!(m.bytes_of_kind("nope"), 0);
        assert_eq!(m.mean_bytes_of_kind("nope"), 0.0);
        assert!(m.summary().contains("sent=3"));
        assert!(m.summary().contains("bytes=160"));
    }

    #[test]
    fn per_object_accounting() {
        let mut m = Metrics::default();
        m.record_object(0, 100);
        m.record_object(0, 50);
        m.record_object(7, 20);
        assert_eq!(m.bytes_of_object(0), 150);
        assert_eq!(m.msgs_of_object(0), 2);
        assert_eq!(m.bytes_of_object(7), 20);
        assert_eq!(m.bytes_of_object(99), 0);
    }

    #[test]
    fn per_link_accounting() {
        let mut m = Metrics::default();
        m.record_send("R", 1_000, a(0), a(1), tx(100));
        m.record_send("R", 3_000, a(0), a(1), tx(300));
        m.record_send("W", 500, a(1), a(0), tx(50));
        assert_eq!(m.bytes_on_link(a(0), a(1)), 4_000);
        assert_eq!(m.bytes_on_link(a(1), a(0)), 500);
        assert_eq!(m.bytes_on_link(a(0), a(2)), 0);
        assert_eq!(m.busiest_link(), Some(((a(0), a(1)), 4_000)));
        // Utilization: 400 ns busy over a 1000 ns run.
        m.last_time = Time(1_000);
        assert_eq!(m.link_utilization(a(0), a(1)), 0.4);
        assert_eq!(m.link_utilization(a(2), a(0)), 0.0);
        assert_eq!(m.max_link_utilization(), 0.4);
        // A shared uplink's saturation is the *sum* over destinations.
        m.record_send("R", 1_000, a(0), a(2), tx(500));
        assert_eq!(m.link_utilization(a(0), a(2)), 0.5);
        assert_eq!(m.uplink_utilization(a(0)), 0.9);
        assert_eq!(m.uplink_utilization(a(2)), 0.0);
        assert_eq!(m.max_uplink_utilization(), 0.9);
    }

    #[test]
    fn since_windows_the_counters() {
        let mut m = Metrics::default();
        m.record_send("R", 1_000, a(0), a(1), tx(100));
        m.record_object(3, 1_000);
        m.last_time = Time(1_000);
        let snapshot = m.clone();
        m.record_send("R", 3_000, a(0), a(1), tx(300));
        m.record_send("W", 500, a(1), a(0), tx(50));
        m.record_object(3, 3_000);
        m.last_time = Time(2_000);
        let w = m.since(&snapshot);
        assert_eq!(w.messages_sent, 2);
        assert_eq!(w.bytes_sent, 3_500);
        assert_eq!(w.sent_of_kind("R"), 1);
        assert_eq!(w.bytes_of_kind("R"), 3_000);
        assert_eq!(w.bytes_on_link(a(0), a(1)), 3_000);
        assert_eq!(w.bytes_of_object(3), 3_000);
        assert_eq!(w.last_time, Time(1_000));
        // Utilization reads over the window: 300 ns busy / 1000 ns window.
        assert_eq!(w.link_utilization(a(0), a(1)), 0.3);
        let d = w.link_delay(a(0), a(1)).unwrap();
        assert_eq!(d.count, 1);
        assert_eq!(d.transmission, 300);
        // A zero-width window is all zeros.
        let z = m.since(&m.clone());
        assert_eq!(z.messages_sent, 0);
        assert_eq!(z.max_link_utilization(), 0.0);
    }

    #[test]
    fn counters_and_samples() {
        let mut m = Metrics::default();
        m.record_counter("hit", 1);
        m.record_counter("hit", 2);
        m.record_sample("fanout", 2);
        m.record_sample("fanout", 2);
        m.record_sample("fanout", 5);
        assert_eq!(m.counter("hit"), 3);
        assert_eq!(m.counter("miss"), 0);
        assert_eq!(m.sample_count("fanout"), 3);
        assert_eq!(m.sample_mean("fanout"), 3.0);
        assert_eq!(m.sample_hist("fanout").unwrap()[&2], 2);
        assert_eq!(m.sample_mean("absent"), 0.0);
        let snap = m.clone();
        m.record_counter("hit", 1);
        m.record_sample("fanout", 5);
        let w = m.since(&snap);
        assert_eq!(w.counter("hit"), 1);
        assert_eq!(w.sample_count("fanout"), 1);
        assert_eq!(w.sample_hist("fanout").unwrap()[&5], 1);
    }

    #[test]
    fn utilization_zero_without_time_or_transmission() {
        let mut m = Metrics::default();
        assert_eq!(m.link_utilization(a(0), a(1)), 0.0);
        m.record_send("R", 100, a(0), a(1), tx(0));
        m.last_time = Time(1_000);
        assert_eq!(m.max_link_utilization(), 0.0, "no transmission charged");
    }

    #[test]
    fn delay_components_split_and_average() {
        let mut m = Metrics::default();
        m.record_send(
            "R",
            100,
            a(0),
            a(1),
            Delivery {
                queued: 300,
                transmission: 100,
                propagation: 1_000,
            },
        );
        m.record_send(
            "R",
            100,
            a(0),
            a(1),
            Delivery {
                queued: 100,
                transmission: 100,
                propagation: 3_000,
            },
        );
        m.record_send("W", 50, a(1), a(0), tx(0));
        let s = m.link_delay(a(0), a(1)).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(m.mean_link_propagation(a(0), a(1)), Some(2_000.0));
        assert_eq!(m.mean_link_queueing(a(0), a(1)), Some(200.0));
        // RTT needs both directions; the reverse has zero propagation here.
        assert_eq!(m.mean_link_rtt(a(0), a(1)), Some(2_000.0));
        assert_eq!(m.mean_link_rtt(a(0), a(2)), None);
        // Counts and traffic shares.
        assert_eq!(m.msgs_on_link(a(0), a(1)), 2);
        assert_eq!(m.msgs_on_link(a(2), a(0)), 0);
        assert_eq!(m.incident_bytes(a(0)), 250);
        assert_eq!(m.incident_bytes(a(1)), 250);
        assert_eq!(m.incident_bytes(a(2)), 0);
    }

    // -----------------------------------------------------------------
    // Differential oracle: the `BTreeMap`s the tables replaced — eight
    // keyed by kind, link or object, and the two of named counters and
    // histograms — updated and queried the way they were, against
    // `Metrics` over generated send sequences.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    type Link = (ActorId, ActorId);

    /// The map-based accounting `Metrics` had before the tables, kept as
    /// the reference: `record_*` and every query are that code verbatim.
    #[derive(Clone, Default)]
    struct MapMetrics {
        messages_sent: u64,
        bytes_sent: u64,
        sent_by_kind: BTreeMap<&'static str, u64>,
        bytes_by_kind: BTreeMap<&'static str, u64>,
        bytes_by_object: BTreeMap<u64, u64>,
        msgs_by_object: BTreeMap<u64, u64>,
        bytes_by_link: BTreeMap<Link, u64>,
        link_busy: BTreeMap<Link, Nanos>,
        msgs_by_link: BTreeMap<Link, u64>,
        delay_by_link: BTreeMap<Link, LinkDelayStat>,
        counters: BTreeMap<&'static str, u64>,
        samples: BTreeMap<&'static str, BTreeMap<u64, u64>>,
        last_time: Time,
    }

    impl MapMetrics {
        /// What `NodeHost::record_send` did by hand.
        fn record_untimed_send(
            &mut self,
            kind: &'static str,
            bytes: usize,
            from: ActorId,
            to: ActorId,
            object: Option<u64>,
        ) {
            let bytes = bytes as u64;
            self.messages_sent += 1;
            self.bytes_sent += bytes;
            *self.sent_by_kind.entry(kind).or_default() += 1;
            *self.bytes_by_kind.entry(kind).or_default() += bytes;
            *self.msgs_by_link.entry((from, to)).or_default() += 1;
            *self.bytes_by_link.entry((from, to)).or_default() += bytes;
            if let Some(o) = object {
                *self.msgs_by_object.entry(o).or_default() += 1;
                *self.bytes_by_object.entry(o).or_default() += bytes;
            }
        }

        fn record_send(
            &mut self,
            kind: &'static str,
            bytes: usize,
            from: ActorId,
            to: ActorId,
            delivery: Delivery,
        ) {
            self.messages_sent += 1;
            self.bytes_sent += bytes as u64;
            *self.sent_by_kind.entry(kind).or_insert(0) += 1;
            *self.bytes_by_kind.entry(kind).or_insert(0) += bytes as u64;
            *self.bytes_by_link.entry((from, to)).or_insert(0) += bytes as u64;
            *self.msgs_by_link.entry((from, to)).or_insert(0) += 1;
            if delivery.transmission > 0 {
                *self.link_busy.entry((from, to)).or_insert(0) += delivery.transmission;
            }
            let stat = self.delay_by_link.entry((from, to)).or_default();
            stat.count += 1;
            stat.queued = stat.queued.saturating_add(delivery.queued);
            stat.transmission = stat.transmission.saturating_add(delivery.transmission);
            stat.propagation = stat.propagation.saturating_add(delivery.propagation);
        }

        fn record_object(&mut self, object: u64, bytes: usize) {
            *self.bytes_by_object.entry(object).or_insert(0) += bytes as u64;
            *self.msgs_by_object.entry(object).or_insert(0) += 1;
        }

        fn record_counter(&mut self, key: &'static str, add: u64) {
            *self.counters.entry(key).or_insert(0) += add;
        }

        fn record_sample(&mut self, key: &'static str, value: u64) {
            *self
                .samples
                .entry(key)
                .or_default()
                .entry(value)
                .or_insert(0) += 1;
        }

        fn absorb(&mut self, other: &MapMetrics) {
            fn add_map<K: Ord + Copy>(into: &mut BTreeMap<K, u64>, from: &BTreeMap<K, u64>) {
                for (k, v) in from {
                    *into.entry(*k).or_insert(0) += v;
                }
            }
            add_map(&mut self.sent_by_kind, &other.sent_by_kind);
            add_map(&mut self.bytes_by_kind, &other.bytes_by_kind);
            add_map(&mut self.counters, &other.counters);
            for (k, h) in &other.samples {
                add_map(self.samples.entry(k).or_default(), h);
            }
        }

        fn since(&self, baseline: &MapMetrics) -> MapMetrics {
            fn sub_map<K: Ord + Copy>(
                new: &BTreeMap<K, u64>,
                old: &BTreeMap<K, u64>,
            ) -> BTreeMap<K, u64> {
                new.iter()
                    .map(|(k, v)| (*k, v.saturating_sub(old.get(k).copied().unwrap_or(0))))
                    .collect()
            }
            let delay_by_link = self
                .delay_by_link
                .iter()
                .map(|(k, s)| {
                    let o = baseline.delay_by_link.get(k).copied().unwrap_or_default();
                    (
                        *k,
                        LinkDelayStat {
                            count: s.count.saturating_sub(o.count),
                            queued: s.queued.saturating_sub(o.queued),
                            transmission: s.transmission.saturating_sub(o.transmission),
                            propagation: s.propagation.saturating_sub(o.propagation),
                        },
                    )
                })
                .collect();
            MapMetrics {
                messages_sent: self.messages_sent.saturating_sub(baseline.messages_sent),
                bytes_sent: self.bytes_sent.saturating_sub(baseline.bytes_sent),
                sent_by_kind: sub_map(&self.sent_by_kind, &baseline.sent_by_kind),
                bytes_by_kind: sub_map(&self.bytes_by_kind, &baseline.bytes_by_kind),
                bytes_by_object: sub_map(&self.bytes_by_object, &baseline.bytes_by_object),
                msgs_by_object: sub_map(&self.msgs_by_object, &baseline.msgs_by_object),
                bytes_by_link: sub_map(&self.bytes_by_link, &baseline.bytes_by_link),
                link_busy: sub_map(&self.link_busy, &baseline.link_busy),
                msgs_by_link: sub_map(&self.msgs_by_link, &baseline.msgs_by_link),
                delay_by_link,
                counters: sub_map(&self.counters, &baseline.counters),
                samples: self
                    .samples
                    .iter()
                    .map(|(k, h)| {
                        let empty = BTreeMap::new();
                        let old = baseline.samples.get(k).unwrap_or(&empty);
                        (*k, sub_map(h, old))
                    })
                    .collect(),
                last_time: Time(
                    self.last_time
                        .nanos()
                        .saturating_sub(baseline.last_time.nanos()),
                ),
            }
        }

        fn link_utilization(&self, from: ActorId, to: ActorId) -> f64 {
            let elapsed = self.last_time.nanos();
            if elapsed == 0 {
                return 0.0;
            }
            let busy = self.link_busy.get(&(from, to)).copied().unwrap_or(0);
            busy as f64 / elapsed as f64
        }

        fn max_link_utilization(&self) -> f64 {
            self.link_busy
                .keys()
                .map(|&(f, t)| self.link_utilization(f, t))
                .fold(0.0, f64::max)
        }

        fn uplink_utilization(&self, from: ActorId) -> f64 {
            let elapsed = self.last_time.nanos();
            if elapsed == 0 {
                return 0.0;
            }
            let busy: u128 = self
                .link_busy
                .iter()
                .filter(|((f, _), _)| *f == from)
                .map(|(_, &b)| b as u128)
                .sum();
            busy as f64 / elapsed as f64
        }

        fn max_uplink_utilization(&self) -> f64 {
            self.link_busy
                .keys()
                .map(|&(f, _)| self.uplink_utilization(f))
                .fold(0.0, f64::max)
        }

        fn incident_bytes(&self, a: ActorId) -> u64 {
            self.bytes_by_link
                .iter()
                .filter(|((f, t), _)| *f == a || *t == a)
                .map(|(_, &b)| b)
                .sum()
        }

        /// The one place the tables narrowed the maps' behaviour: a
        /// `since` window used to keep a zero entry for every link and
        /// object of the whole run; now a link or object without a message
        /// in the window is absent from it. On a cumulative `MapMetrics`
        /// every entry has a message, so these filters change nothing.
        fn live(&self, link: &Link) -> bool {
            self.msgs_by_link.get(link).is_some_and(|&m| m > 0)
        }

        fn busiest_link(&self) -> Option<(Link, u64)> {
            self.bytes_by_link
                .iter()
                .filter(|(link, _)| self.live(link))
                .max_by_key(|(link, bytes)| (**bytes, std::cmp::Reverse(**link)))
                .map(|(l, b)| (*l, *b))
        }

        fn link_delay(&self, from: ActorId, to: ActorId) -> Option<&LinkDelayStat> {
            self.delay_by_link.get(&(from, to)).filter(|s| s.count > 0)
        }

        fn links(&self) -> Vec<(Link, LinkStat)> {
            self.msgs_by_link
                .iter()
                .filter(|(link, _)| self.live(link))
                .map(|(link, &msgs)| {
                    let stat = LinkStat {
                        msgs,
                        bytes: self.bytes_by_link[link],
                        busy: self.link_busy.get(link).copied().unwrap_or(0),
                        delay: self.delay_by_link.get(link).copied().unwrap_or_default(),
                    };
                    (*link, stat)
                })
                .collect()
        }

        fn objects(&self) -> Vec<(u64, ObjectStat)> {
            self.msgs_by_object
                .iter()
                .filter(|(_, &msgs)| msgs > 0)
                .map(|(&o, &msgs)| {
                    let bytes = self.bytes_by_object[&o];
                    (o, ObjectStat { msgs, bytes })
                })
                .collect()
        }
    }

    /// Actor ids the generated sends use: enough to force every row and
    /// several rows' worth of columns to grow mid-sequence.
    const ACTORS: usize = 9;
    /// The names kinds, counters and histograms are drawn from: the last
    /// is the text of the first at another address, as a label built at
    /// run time (or merged differently by another crate) would be.
    fn names() -> [&'static str; 5] {
        static COPY: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();
        let copy = *COPY.get_or_init(|| Box::leak(String::from("R").into_boxed_str()));
        ["R", "RAck", "W", "T", copy]
    }

    /// `table`'s entries in iteration order, owned.
    fn entries<V: Clone>(table: &NameTable<V>) -> Vec<(&'static str, V)> {
        table.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// `map`'s entries in key order, owned.
    fn map_entries<V: Clone>(map: &BTreeMap<&'static str, V>) -> Vec<(&'static str, V)> {
        map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }
    /// Selectors [`object_of`] maps.
    const OBJECT_SELECTORS: u64 = 11;

    /// Object keys by selector: none, the extremes, the keys either side
    /// of the dense bound, a few small keys, then a few far above the
    /// bound.
    fn object_of(sel: u64) -> Option<u64> {
        match sel {
            0 => None,
            1 => Some(u64::MAX),
            2 => Some(0),
            3 => Some(DENSE_OBJECTS - 1),
            4 => Some(DENSE_OBJECTS),
            5 => Some(DENSE_OBJECTS + 1),
            k @ 6..=8 => Some(k - 5),
            k => Some(k * 1_000_003),
        }
    }

    /// Every query of `m` against the reference `r`, over all links among
    /// `ACTORS + 1` actors (one id past any that sent) and all object keys.
    fn assert_same_view(m: &Metrics, r: &MapMetrics) -> Result<(), TestCaseError> {
        prop_assert_eq!(m.messages_sent, r.messages_sent);
        prop_assert_eq!(m.bytes_sent, r.bytes_sent);
        // The named tables iterate as the maps did: one entry per text
        // (the two addresses of "R" share one), in name order, zero entries
        // included.
        prop_assert_eq!(entries(&m.sent_by_kind), map_entries(&r.sent_by_kind));
        prop_assert_eq!(entries(&m.bytes_by_kind), map_entries(&r.bytes_by_kind));
        prop_assert_eq!(entries(&m.counters), map_entries(&r.counters));
        prop_assert_eq!(entries(&m.samples), map_entries(&r.samples));
        for table in [&m.sent_by_kind, &m.bytes_by_kind, &m.counters] {
            let keys: Vec<&str> = table.keys().collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
        }
        prop_assert_eq!(m.last_time, r.last_time);
        for name in names() {
            prop_assert_eq!(
                m.sent_of_kind(name),
                r.sent_by_kind.get(name).copied().unwrap_or(0)
            );
            prop_assert_eq!(
                m.bytes_of_kind(name),
                r.bytes_by_kind.get(name).copied().unwrap_or(0)
            );
            prop_assert_eq!(m.counter(name), r.counters.get(name).copied().unwrap_or(0));
            prop_assert_eq!(m.sample_hist(name), r.samples.get(name));
            prop_assert_eq!(
                m.sample_count(name),
                r.samples.get(name).map_or(0, |h| h.values().sum())
            );
        }
        for f in (0..=ACTORS).map(ActorId) {
            for t in (0..=ACTORS).map(ActorId) {
                let link = (f, t);
                prop_assert_eq!(
                    m.bytes_on_link(f, t),
                    r.bytes_by_link.get(&link).copied().unwrap_or(0)
                );
                prop_assert_eq!(
                    m.msgs_on_link(f, t),
                    r.msgs_by_link.get(&link).copied().unwrap_or(0)
                );
                prop_assert_eq!(
                    m.link_delay(f, t),
                    r.link_delay(f, t),
                    "delay of {:?}",
                    link
                );
                prop_assert_eq!(
                    m.mean_link_propagation(f, t),
                    r.link_delay(f, t).and_then(|s| s.mean_propagation())
                );
                prop_assert_eq!(
                    m.mean_link_queueing(f, t),
                    r.link_delay(f, t).and_then(|s| s.mean_queued())
                );
                let rtt = (|| {
                    Some(
                        r.link_delay(f, t)?.mean_propagation()?
                            + r.link_delay(t, f)?.mean_propagation()?,
                    )
                })();
                prop_assert_eq!(m.mean_link_rtt(f, t), rtt);
                prop_assert_eq!(m.link_utilization(f, t), r.link_utilization(f, t));
            }
            prop_assert_eq!(m.uplink_utilization(f), r.uplink_utilization(f));
            prop_assert_eq!(m.incident_bytes(f), r.incident_bytes(f));
        }
        prop_assert_eq!(m.max_link_utilization(), r.max_link_utilization());
        prop_assert_eq!(m.max_uplink_utilization(), r.max_uplink_utilization());
        prop_assert_eq!(m.busiest_link(), r.busiest_link());
        // Iteration: same links, same records, ascending (from, to).
        let links: Vec<(Link, LinkStat)> = m.links().map(|(l, s)| (l, *s)).collect();
        prop_assert_eq!(&links, &r.links());
        prop_assert!(links.windows(2).all(|w| w[0].0 < w[1].0));
        let objects: Vec<(u64, ObjectStat)> = m.objects().collect();
        prop_assert_eq!(&objects, &r.objects());
        prop_assert!(objects.windows(2).all(|w| w[0].0 < w[1].0));
        for sel in 0..OBJECT_SELECTORS {
            let Some(o) = object_of(sel) else { continue };
            prop_assert_eq!(
                m.bytes_of_object(o),
                r.bytes_by_object.get(&o).copied().unwrap_or(0)
            );
            prop_assert_eq!(
                m.msgs_of_object(o),
                r.msgs_by_object.get(&o).copied().unwrap_or(0)
            );
        }
        Ok(())
    }

    /// One generated send: `((kind, from, to, bytes), (object selector,
    /// timed?, (queued, transmission, propagation), clock advance),
    /// (counter or sample?, name, amount))`.
    type GenSend = (
        (usize, usize, usize, usize),
        (u64, u8, (u64, u64, u64), u64),
        (u8, usize, u64),
    );

    fn apply(m: &mut Metrics, r: &mut MapMetrics, send: &GenSend) {
        let (
            (kind, from, to, bytes),
            (object, timed, (queued, tx, propagation), advance),
            (named, name, amount),
        ) = *send;
        let (kind, from, to) = (names()[kind], a(from), a(to));
        let object = object_of(object);
        if timed > 0 {
            // Two sends in three carry a delivery; half of those charge no
            // transmission time (an unlimited link, a self-send).
            let delivery = Delivery {
                queued,
                transmission: if timed == 1 { 0 } else { tx },
                propagation,
            };
            m.record_send(kind, bytes, from, to, delivery);
            r.record_send(kind, bytes, from, to, delivery);
            if let Some(o) = object {
                m.record_object(o, bytes);
                r.record_object(o, bytes);
            }
        } else {
            m.record_untimed_send(kind, bytes, from, to, object);
            r.record_untimed_send(kind, bytes, from, to, object);
        }
        // Half the sends come with a counter bump (by 0 too: an entry with
        // nothing counted) or a histogram sample under a drawn name.
        let name = names()[name];
        match named {
            0 => {
                m.record_counter(name, amount);
                r.record_counter(name, amount);
            }
            1 => {
                m.record_sample(name, amount);
                r.record_sample(name, amount);
            }
            _ => {}
        }
        m.last_time = Time(m.last_time.nanos() + advance);
        r.last_time = m.last_time;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tables_agree_with_the_maps_they_replaced(
            sends in proptest::collection::vec(
                (
                    (0usize..5, 0usize..ACTORS, 0usize..ACTORS, 0usize..5_000),
                    (0u64..OBJECT_SELECTORS, 0u8..3, (0u64..1_000_000, 1u64..50_000, 0u64..200_000_000), 0u64..3_000_000),
                    (0u8..4, 0usize..5, 0u64..4),
                ),
                0..120,
            ),
            cut in 0usize..121,
        ) {
            let cut = cut.min(sends.len());
            let (mut m, mut r) = (Metrics::default(), MapMetrics::default());
            for send in &sends[..cut] {
                apply(&mut m, &mut r, send);
            }
            assert_same_view(&m, &r)?;
            // A snapshot is a copy: recording on goes unseen by it.
            let (m_cut, r_cut) = (m.clone(), r.clone());
            for send in &sends[cut..] {
                apply(&mut m, &mut r, send);
            }
            assert_same_view(&m, &r)?;
            assert_same_view(&m_cut, &r_cut)?;
            // The window since the cut, and the zero-width window.
            assert_same_view(&m.since(&m_cut), &r.since(&r_cut))?;
            let zero = m.since(&m.clone());
            assert_same_view(&zero, &r.since(&r.clone()))?;
            prop_assert_eq!(zero.messages_sent, 0);
            prop_assert_eq!(zero.links().count(), 0);
            prop_assert_eq!(zero.objects().count(), 0);
            prop_assert_eq!(zero.max_uplink_utilization(), 0.0);
            // A window keeps every name of the run, at zero where nothing
            // happened in it.
            prop_assert_eq!(zero.sent_by_kind.len(), m.sent_by_kind.len());
            prop_assert!(zero.sent_by_kind.values().all(|&n| n == 0));
            prop_assert_eq!(zero.counters.len(), m.counters.len());
            prop_assert_eq!(zero.samples.len(), m.samples.len());
            // Absorbing the window into the snapshot rebuilds the total.
            let mut rebuilt = m_cut.clone();
            rebuilt.absorb(&m.since(&m_cut));
            rebuilt.last_time = m.last_time;
            assert_same_view(&rebuilt, &r)?;
            let mut r_rebuilt = r_cut.clone();
            r_rebuilt.absorb(&r.since(&r_cut));
            prop_assert_eq!(entries(&rebuilt.counters), map_entries(&r_rebuilt.counters));
            prop_assert_eq!(entries(&rebuilt.samples), map_entries(&r_rebuilt.samples));
            // Absorbing into an empty table takes the other's names in
            // order, zero entries included.
            let mut fresh = Metrics::default();
            fresh.absorb(&zero);
            prop_assert_eq!(entries(&fresh.sent_by_kind), entries(&zero.sent_by_kind));
            prop_assert_eq!(entries(&fresh.samples), entries(&zero.samples));
        }
    }

    #[test]
    fn one_name_at_two_addresses_is_one_entry() {
        let [r, .., copy] = names();
        assert_eq!(r, copy);
        assert!(!std::ptr::eq(r, copy), "two addresses");
        let mut m = Metrics::default();
        m.record_send("W", 5, a(0), a(1), tx(0));
        m.record_send(copy, 10, a(0), a(1), tx(0));
        m.record_send(r, 20, a(0), a(1), tx(0));
        m.record_counter(r, 1);
        m.record_counter(copy, 2);
        m.record_sample(copy, 4);
        m.record_sample(r, 4);
        assert_eq!(entries(&m.sent_by_kind), [("R", 2), ("W", 1)]);
        assert_eq!(entries(&m.bytes_by_kind), [("R", 30), ("W", 5)]);
        assert_eq!(entries(&m.counters), [("R", 3)]);
        assert_eq!(m.sample_hist("R"), Some(&BTreeMap::from([(4, 2)])));
        // Lookups by either address, or by text built at run time, agree.
        let text = String::from("R");
        for name in [r, copy, text.as_str()] {
            assert_eq!(m.sent_of_kind(name), 2);
            assert_eq!(m.counter(name), 3);
        }
        // The first address stays the key, whichever address asks.
        assert!(m.sent_by_kind.keys().any(|k| std::ptr::eq(k, copy)));
        // `for (kind, n) in &table` binds `&&'static str` and `&u64`.
        let mut seen = Vec::new();
        for (kind, n) in &m.sent_by_kind {
            let kind: &&'static str = kind;
            seen.push((*kind, *n + m.bytes_of_kind(kind)));
        }
        assert_eq!(seen, [("R", 32), ("W", 6)]);
        assert_eq!(format!("{:?}", m.sent_by_kind), r#"{"R": 2, "W": 1}"#);
    }

    #[test]
    fn untimed_sends_carry_traffic_but_no_delay_sample() {
        let mut m = Metrics::default();
        m.record_untimed_send("R", 40, a(2), a(0), Some(u64::MAX));
        m.record_untimed_send("R", 60, a(2), a(0), None);
        assert_eq!(m.msgs_on_link(a(2), a(0)), 2);
        assert_eq!(m.bytes_on_link(a(2), a(0)), 100);
        assert_eq!(m.link_delay(a(2), a(0)), None);
        assert_eq!(m.mean_link_rtt(a(2), a(0)), None);
        assert_eq!(
            (m.bytes_of_object(u64::MAX), m.msgs_of_object(u64::MAX)),
            (40, 1)
        );
        assert_eq!(m.sent_of_kind("R"), 2);
        // Rows grew only as far as the traffic reached.
        assert_eq!(m.links().count(), 1);
        assert_eq!(m.link(a(0), a(2)), None);
    }
}
