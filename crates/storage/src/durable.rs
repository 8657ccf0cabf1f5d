//! Durable server state: a write-ahead log plus snapshots behind a
//! [`Storage`] trait.
//!
//! The paper's model (§II) is crash-stop: a crashed process never returns,
//! and fault tolerance comes entirely from redundancy (`n − f` live
//! servers). Real deployments restart processes, and a restarted server
//! must come back with a state that is *consistent with what it
//! acknowledged* before dying — otherwise its acknowledgements were lies
//! and quorum intersection arguments collapse. This module provides that
//! durability contract for the storage servers:
//!
//! * every change entering the server's journal and every register
//!   adoption is appended to a WAL **before** the effects of the step that
//!   produced it are released (the simulator buffers outgoing messages
//!   until the callback returns, so persist-before-send holds by
//!   construction);
//! * on a cadence (driven by [`awr_epoch::CheckpointCadence`]) the server
//!   writes a [`Snapshot`] — its full change set and register map — and
//!   truncates the WAL;
//! * recovery loads the snapshot, replays the WAL suffix, and rejoins via
//!   the existing transfer/refresh paths (see `DynServer::recover`).
//!
//! Two backends: [`MemStorage`] (the default for simulation — state
//! survives the *actor*, not the process) and [`FileStorage`] (JSON
//! snapshot + JSON-lines WAL through a buffered writer, for wall-clock
//! runs and inspection). Both are shared with the server through a
//! cloneable [`StorageHandle`], which is what survives a simulated crash:
//! the dead incarnation's handle and the rebuilt server's handle point at
//! the same store, exactly like a restarted process re-opening its data
//! directory.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use awr_types::{Change, ChangeSet, ObjectId, TaggedValue};
use serde::{Deserialize, DeserializeOwned, Serialize, Value as JsonValue};

use crate::Value;

/// One write-ahead-log record: the unit of durability between snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord<V> {
    /// A change entered the server's journal (append order preserved).
    Change(Change),
    /// A register was adopted for an object (strictly newer tag).
    Register(ObjectId, TaggedValue<V>),
}

/// A point-in-time image of a server's durable state. Loading a snapshot
/// and replaying the WAL records appended after it reproduces the state at
/// the last persisted step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot<V> {
    /// The full set of completed changes `C` at snapshot time. Serialized
    /// as content; journal compaction state is rebuilt by the owner.
    pub changes: ChangeSet,
    /// The keyed register map at snapshot time.
    pub registers: BTreeMap<ObjectId, TaggedValue<V>>,
}

/// What a [`Storage`] backend hands back on recovery: the latest installed
/// snapshot (if any) and the WAL suffix appended after it, in append order.
pub type Recovered<V> = (Option<Snapshot<V>>, Vec<WalRecord<V>>);

/// A durable store for one server's state: an appendable WAL and an
/// installable snapshot that truncates it.
///
/// Implementations must make `load` return exactly what was stored:
/// the latest installed snapshot (if any) and every record appended after
/// it, in append order. They do **not** interpret the records — replay
/// semantics belong to the recovering server.
pub trait Storage<V>: fmt::Debug + Send {
    /// Appends one record to the WAL.
    fn append(&mut self, rec: WalRecord<V>);

    /// Installs `snap` as the recovery baseline and truncates the WAL:
    /// records appended before this call are no longer needed.
    fn install_snapshot(&mut self, snap: Snapshot<V>);

    /// Reads back the recovery baseline and the WAL suffix appended after
    /// it. `None` means nothing was ever persisted (a fresh store).
    fn load(&mut self) -> Option<Recovered<V>>;

    /// [`Storage::load`] without the `Vec`: hands every record of the WAL
    /// suffix to `each`, in append order, and returns the snapshot they
    /// follow — so a recovering server can fold a long WAL in the memory
    /// of its result. `None` means nothing was ever persisted. The
    /// default goes through `load`; a backend that can read its log
    /// incrementally overrides it.
    fn replay(&mut self, each: &mut dyn FnMut(WalRecord<V>)) -> Option<Option<Snapshot<V>>> {
        let (snapshot, wal) = self.load()?;
        wal.into_iter().for_each(each);
        Some(snapshot)
    }

    /// Records currently in the WAL (since the last snapshot).
    fn wal_len(&self) -> usize;
}

/// In-memory [`Storage`]: state survives the simulated actor, not the
/// process. The default backend for crash/restart experiments in the
/// deterministic simulator.
#[derive(Debug)]
pub struct MemStorage<V> {
    snapshot: Option<Snapshot<V>>,
    wal: Vec<WalRecord<V>>,
    appended_total: u64,
}

impl<V> Default for MemStorage<V> {
    fn default() -> MemStorage<V> {
        MemStorage {
            snapshot: None,
            wal: Vec::new(),
            appended_total: 0,
        }
    }
}

impl<V: Value> Storage<V> for MemStorage<V> {
    fn append(&mut self, rec: WalRecord<V>) {
        self.wal.push(rec);
        self.appended_total += 1;
    }

    fn install_snapshot(&mut self, snap: Snapshot<V>) {
        self.snapshot = Some(snap);
        self.wal.clear();
    }

    fn load(&mut self) -> Option<(Option<Snapshot<V>>, Vec<WalRecord<V>>)> {
        if self.snapshot.is_none() && self.wal.is_empty() && self.appended_total == 0 {
            return None;
        }
        Some((self.snapshot.clone(), self.wal.clone()))
    }

    fn wal_len(&self) -> usize {
        self.wal.len()
    }
}

// --- JSON encoding shared by the file backend ---------------------------

impl<V: Serialize> Serialize for WalRecord<V> {
    fn to_value(&self) -> JsonValue {
        match self {
            WalRecord::Change(c) => JsonValue::Map(vec![("change".to_string(), c.to_value())]),
            WalRecord::Register(obj, reg) => JsonValue::Map(vec![(
                "register".to_string(),
                JsonValue::Seq(vec![obj.to_value(), reg.to_value()]),
            )]),
        }
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for WalRecord<V> {
    fn from_value(v: &JsonValue) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for WalRecord"))?;
        if let Ok(c) = serde::map_get(m, "change") {
            return Ok(WalRecord::Change(Change::from_value(c)?));
        }
        let pair = serde::map_get(m, "register")?
            .as_seq()
            .ok_or_else(|| serde::Error::custom("expected [obj, reg] pair"))?;
        if pair.len() != 2 {
            return Err(serde::Error::custom("register pair must have 2 elements"));
        }
        Ok(WalRecord::Register(
            ObjectId::from_value(&pair[0])?,
            TaggedValue::from_value(&pair[1])?,
        ))
    }
}

impl<V: Serialize> Serialize for Snapshot<V> {
    fn to_value(&self) -> JsonValue {
        let regs: Vec<JsonValue> = self
            .registers
            .iter()
            .map(|(o, r)| JsonValue::Seq(vec![o.to_value(), r.to_value()]))
            .collect();
        JsonValue::Map(vec![
            ("changes".to_string(), self.changes.to_value()),
            ("registers".to_string(), JsonValue::Seq(regs)),
        ])
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for Snapshot<V> {
    fn from_value(v: &JsonValue) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Snapshot"))?;
        let changes = ChangeSet::from_value(serde::map_get(m, "changes")?)?;
        let mut registers = BTreeMap::new();
        for pair in serde::map_get(m, "registers")?
            .as_seq()
            .ok_or_else(|| serde::Error::custom("expected register sequence"))?
        {
            let pair = pair
                .as_seq()
                .ok_or_else(|| serde::Error::custom("expected [obj, reg] pair"))?;
            if pair.len() != 2 {
                return Err(serde::Error::custom("register pair must have 2 elements"));
            }
            registers.insert(
                ObjectId::from_value(&pair[0])?,
                TaggedValue::<V>::from_value(&pair[1])?,
            );
        }
        Ok(Snapshot { changes, registers })
    }
}

/// File-backed [`Storage`]: `snapshot.json` plus a `wal.jsonl` append log
/// (one JSON record per line) under a directory, written through a
/// buffered writer. Human-inspectable and usable from the wall-clock
/// runtime. The buffer is flushed before every `load`, so a simulated
/// crash (which never kills the hosting process) always recovers the full
/// log.
pub struct FileStorage<V> {
    dir: PathBuf,
    writer: Option<BufWriter<File>>,
    wal_len: usize,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V> fmt::Debug for FileStorage<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileStorage")
            .field("dir", &self.dir)
            .field("wal_len", &self.wal_len)
            .finish()
    }
}

impl<V> FileStorage<V> {
    /// Opens (creating if needed) a store rooted at `dir`. An existing
    /// store is reused: the WAL is appended to, not truncated.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the WAL is unreadable.
    pub fn open(dir: impl AsRef<Path>) -> FileStorage<V> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).expect("create storage dir");
        let wal_len = match File::open(dir.join("wal.jsonl")) {
            Ok(f) => BufReader::new(f).lines().count(),
            Err(_) => 0,
        };
        FileStorage {
            dir,
            writer: None,
            wal_len,
            _marker: std::marker::PhantomData,
        }
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.jsonl")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    fn writer(&mut self) -> &mut BufWriter<File> {
        if self.writer.is_none() {
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.wal_path())
                .expect("open WAL for append");
            self.writer = Some(BufWriter::new(f));
        }
        self.writer.as_mut().expect("just ensured")
    }

    fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            w.flush().expect("flush WAL");
        }
    }
}

impl<V: Value + Serialize + DeserializeOwned> Storage<V> for FileStorage<V> {
    fn append(&mut self, rec: WalRecord<V>) {
        let line = serde_json::to_string(&rec).expect("encode WAL record");
        let w = self.writer();
        w.write_all(line.as_bytes()).expect("append WAL record");
        w.write_all(b"\n").expect("append WAL newline");
        self.wal_len += 1;
    }

    fn install_snapshot(&mut self, snap: Snapshot<V>) {
        // Write-then-rename so a half-written snapshot never shadows a
        // good one; the WAL is truncated only after the rename lands.
        let tmp = self.dir.join("snapshot.json.tmp");
        std::fs::write(&tmp, serde_json::to_string(&snap).expect("encode snapshot"))
            .expect("write snapshot");
        std::fs::rename(&tmp, self.snapshot_path()).expect("publish snapshot");
        self.writer = None; // drop the append handle before truncating
        std::fs::write(self.wal_path(), b"").expect("truncate WAL");
        self.wal_len = 0;
    }

    fn load(&mut self) -> Option<(Option<Snapshot<V>>, Vec<WalRecord<V>>)> {
        let mut wal = Vec::new();
        let snap = self.replay(&mut |rec| wal.push(rec))?;
        Some((snap, wal))
    }

    fn replay(&mut self, each: &mut dyn FnMut(WalRecord<V>)) -> Option<Option<Snapshot<V>>> {
        self.flush();
        let snap = std::fs::read_to_string(self.snapshot_path())
            .ok()
            .map(|s| serde_json::from_str::<Snapshot<V>>(&s).expect("decode snapshot"));
        let mut records = 0usize;
        if let Ok(f) = File::open(self.wal_path()) {
            let mut wal = BufReader::new(f);
            let mut line = String::new();
            while wal.read_line(&mut line).expect("read WAL line") > 0 {
                if !line.trim().is_empty() {
                    each(serde_json::from_str::<WalRecord<V>>(&line).expect("decode WAL record"));
                    records += 1;
                }
                line.clear();
            }
        }
        if snap.is_none() && records == 0 {
            return None;
        }
        Some(snap)
    }

    fn wal_len(&self) -> usize {
        self.wal_len
    }
}

/// A cloneable, shareable handle onto a [`Storage`] backend — the thing
/// that survives a crash. The dying server and its recovered replacement
/// hold handles to the same store, like a restarted process re-opening its
/// data directory. Interior mutability is a mutex: contention is nil in
/// the single-threaded simulator and negligible in the threaded runtime
/// (one writer per store).
#[derive(Clone)]
pub struct StorageHandle<V> {
    inner: Arc<Mutex<Box<dyn Storage<V>>>>,
}

impl<V> fmt::Debug for StorageHandle<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => write!(f, "StorageHandle({:?})", &*g),
            Err(_) => write!(f, "StorageHandle(<locked>)"),
        }
    }
}

impl<V: Value> StorageHandle<V> {
    /// A handle onto a fresh [`MemStorage`].
    pub fn in_memory() -> StorageHandle<V> {
        StorageHandle::new(MemStorage::default())
    }

    /// Wraps any backend.
    pub fn new(storage: impl Storage<V> + 'static) -> StorageHandle<V> {
        StorageHandle {
            inner: Arc::new(Mutex::new(Box::new(storage))),
        }
    }

    /// Appends one WAL record.
    pub fn append(&self, rec: WalRecord<V>) {
        self.lock().append(rec);
    }

    /// Installs a snapshot (truncating the WAL).
    pub fn install_snapshot(&self, snap: Snapshot<V>) {
        self.lock().install_snapshot(snap);
    }

    /// Loads the recovery baseline and WAL suffix; `None` if nothing was
    /// ever persisted.
    pub fn load(&self) -> Option<Recovered<V>> {
        self.lock().load()
    }

    /// Streams the WAL suffix through `each` and returns the snapshot it
    /// follows ([`Storage::replay`]). The store is locked for the whole
    /// call: `each` must not use this handle.
    pub fn replay(&self, each: &mut dyn FnMut(WalRecord<V>)) -> Option<Option<Snapshot<V>>> {
        self.lock().replay(each)
    }

    /// Folds the store into the state a recovering server resumes from,
    /// in memory proportional to that state and not to the WAL: the
    /// snapshot if there is one (else `initial` and no registers), then
    /// the WAL's changes in append order, then per object the newest
    /// register the WAL holds. An empty store yields `initial` untouched.
    pub fn recover_state(
        &self,
        initial: ChangeSet,
    ) -> (ChangeSet, BTreeMap<ObjectId, TaggedValue<V>>) {
        let mut wal_changes = Vec::new();
        let mut wal_registers = BTreeMap::new();
        let snapshot = self.replay(&mut |record| match record {
            WalRecord::Change(c) => wal_changes.push(c),
            WalRecord::Register(obj, reg) => adopt_newest(&mut wal_registers, obj, reg),
        });
        let (mut changes, mut registers) = match snapshot.flatten() {
            Some(snap) => (snap.changes, snap.registers),
            None => (initial, BTreeMap::new()),
        };
        changes.extend(wal_changes);
        for (obj, reg) in wal_registers {
            adopt_newest(&mut registers, obj, reg);
        }
        (changes, registers)
    }

    /// Records currently in the WAL.
    pub fn wal_len(&self) -> usize {
        self.lock().wal_len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn Storage<V>>> {
        self.inner.lock().expect("storage mutex poisoned")
    }
}

/// The replay rule for registers, the same one the live path applies: a
/// strictly newer tag replaces what is held, the first of equals stays.
fn adopt_newest<V: Clone>(
    registers: &mut BTreeMap<ObjectId, TaggedValue<V>>,
    obj: ObjectId,
    reg: TaggedValue<V>,
) {
    match registers.get_mut(&obj) {
        Some(cur) => {
            cur.adopt_if_newer(&reg);
        }
        None => {
            registers.insert(obj, reg);
        }
    }
}

impl<V: Value + Serialize + DeserializeOwned> StorageHandle<V> {
    /// A handle onto a [`FileStorage`] rooted at `dir`.
    pub fn file(dir: impl AsRef<Path>) -> StorageHandle<V> {
        StorageHandle::new(FileStorage::open(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::{ProcessId, Ratio, ServerId, Tag};

    fn chg(counter: u64, delta: &str) -> Change {
        Change::new(
            ProcessId::Server(ServerId(0)),
            counter,
            ServerId(1),
            Ratio::dec(delta),
        )
    }

    fn reg(ts: u64, v: u64) -> TaggedValue<u64> {
        TaggedValue::new(Tag::new(ts, ProcessId::Server(ServerId(0))), v)
    }

    fn exercise(handle: StorageHandle<u64>) {
        assert!(handle.load().is_none(), "fresh store must load None");
        handle.append(WalRecord::Change(chg(2, "0.1")));
        handle.append(WalRecord::Register(ObjectId(7), reg(3, 99)));
        assert_eq!(handle.wal_len(), 2);
        let (snap, wal) = handle.load().expect("something persisted");
        assert!(snap.is_none());
        assert_eq!(wal.len(), 2);
        assert_eq!(wal[0], WalRecord::Change(chg(2, "0.1")));
        assert_eq!(wal[1], WalRecord::Register(ObjectId(7), reg(3, 99)));

        // Snapshot truncates; later appends form the new suffix.
        let mut set = ChangeSet::new();
        set.insert(chg(2, "0.1"));
        let mut registers = BTreeMap::new();
        registers.insert(ObjectId(7), reg(3, 99));
        handle.install_snapshot(Snapshot {
            changes: set.clone(),
            registers: registers.clone(),
        });
        assert_eq!(handle.wal_len(), 0);
        handle.append(WalRecord::Change(chg(3, "0.2")));
        let (snap, wal) = handle.load().expect("snapshot + suffix");
        let snap = snap.expect("snapshot present");
        assert_eq!(snap.changes, set);
        assert_eq!(snap.registers, registers);
        assert_eq!(wal, vec![WalRecord::Change(chg(3, "0.2"))]);
    }

    #[test]
    fn mem_storage_round_trips() {
        exercise(StorageHandle::in_memory());
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "awr_durable_test_{}_{}",
            std::process::id(),
            "round_trip"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(StorageHandle::file(&dir));
        // Re-opening the same directory sees the same state (a process
        // restart, not just an actor restart).
        let reopened: StorageHandle<u64> = StorageHandle::file(&dir);
        let (snap, wal) = reopened.load().expect("state survives reopen");
        assert!(snap.is_some());
        assert_eq!(wal.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_is_shared() {
        let a: StorageHandle<u64> = StorageHandle::in_memory();
        let b = a.clone();
        a.append(WalRecord::Change(chg(2, "0.5")));
        assert_eq!(b.wal_len(), 1, "clones see the same store");
    }
}
