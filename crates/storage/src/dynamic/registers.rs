//! The registers one [`DynServer`](super::DynServer) stores, keyed by
//! object.
//!
//! Every `R`, `RV` and `W` looks one key up, so the store is a hash table
//! ([`awr_sim::U64Hasher`]: one multiply per probe), not a tree walked
//! key by key. Wherever order shows — a snapshot, a `RefreshAck`, the
//! state digest — the entries are read sorted ([`Registers::sorted`]);
//! the ordered map `DynServer::registers` hands out (what the checker's
//! invariants read) is built on its first call and dropped by the next
//! change, so nothing on the request path builds it.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use awr_sim::U64Build;
use awr_types::{ObjectId, Tag, TaggedValue};

use crate::Value;

/// A sparse register map: a key is absent until a register newer than
/// bottom is stored for it, and an absent key reads as bottom.
#[derive(Debug)]
pub(super) struct Registers<V> {
    table: HashMap<ObjectId, TaggedValue<V>, U64Build>,
    /// `table` in key order, built by [`Registers::view`] and dropped by
    /// every change.
    view: OnceCell<BTreeMap<ObjectId, TaggedValue<V>>>,
}

impl<V: Value> Registers<V> {
    /// A store holding `map`'s registers (a recovered state).
    pub(super) fn from_map(map: BTreeMap<ObjectId, TaggedValue<V>>) -> Registers<V> {
        Registers {
            table: map.into_iter().collect(),
            view: OnceCell::new(),
        }
    }

    /// The register stored for `obj`, if any.
    pub(super) fn get(&self, obj: ObjectId) -> Option<&TaggedValue<V>> {
        self.table.get(&obj)
    }

    /// The tag stored for `obj` — bottom if none.
    pub(super) fn tag(&self, obj: ObjectId) -> Tag {
        self.get(obj).map_or_else(Tag::bottom, |r| r.tag)
    }

    /// Number of stored registers.
    pub(super) fn len(&self) -> usize {
        self.table.len()
    }

    /// The stored registers in no particular order: for what does not
    /// depend on it (a filter into a map, a commutative digest).
    pub(super) fn unordered(&self) -> impl Iterator<Item = (&ObjectId, &TaggedValue<V>)> {
        self.table.iter()
    }

    /// The stored registers in ascending key order.
    pub(super) fn sorted(&self) -> Vec<(ObjectId, &TaggedValue<V>)> {
        let mut all: Vec<(ObjectId, &TaggedValue<V>)> =
            self.table.iter().map(|(o, r)| (*o, r)).collect();
        all.sort_unstable_by_key(|&(o, _)| o);
        all
    }

    /// An owned ordered copy (a snapshot's register map).
    pub(super) fn to_map(&self) -> BTreeMap<ObjectId, TaggedValue<V>> {
        self.table.iter().map(|(o, r)| (*o, r.clone())).collect()
    }

    /// The ordered copy kept until the next change.
    pub(super) fn view(&self) -> &BTreeMap<ObjectId, TaggedValue<V>> {
        self.view.get_or_init(|| self.to_map())
    }

    /// Feeds `state` exactly what hashing the registers as a
    /// `BTreeMap<ObjectId, TaggedValue<V>>` feeds it: the length, then
    /// every `(key, register)` pair in key order.
    pub(super) fn hash_sorted<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for pair in self.sorted() {
            pair.hash(state);
        }
    }

    /// Stores `incoming` for `obj` if it is strictly newer than what the
    /// store holds (absent = bottom); returns whether the store changed.
    pub(super) fn adopt(&mut self, obj: ObjectId, incoming: &TaggedValue<V>) -> bool {
        let adopted = match self.table.get_mut(&obj) {
            Some(cur) => cur.adopt_if_newer(incoming),
            None if incoming.tag > Tag::bottom() => {
                self.table.insert(obj, incoming.clone());
                true
            }
            None => false,
        };
        if adopted {
            self.view.take();
        }
        adopted
    }

    /// Stores `reg` for `obj` whatever the store holds.
    #[cfg(feature = "mutate")]
    pub(super) fn overwrite(&mut self, obj: ObjectId, reg: TaggedValue<V>) {
        self.table.insert(obj, reg);
        self.view.take();
    }
}

impl<V> Default for Registers<V> {
    fn default() -> Registers<V> {
        Registers {
            table: HashMap::default(),
            view: OnceCell::new(),
        }
    }
}
