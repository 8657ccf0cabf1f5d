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
//! * on a cadence (driven by [`CheckpointCadence`]) the server
//!   writes a [`Snapshot`] — its full change set and register map — and
//!   truncates the WAL;
//! * recovery loads the snapshot, replays the WAL suffix, and rejoins via
//!   the existing transfer/refresh paths (see `DynServer::recover`).
//!
//! Two backends: [`MemStorage`] (the default for simulation — state
//! survives the *actor*, not the process) and [`FileStorage`] (a snapshot
//! file and a WAL file of [`awr_types::wire`] frames — the format the same
//! changes and registers cross sockets in — written through a buffered
//! writer, for wall-clock runs). Both are shared with the server through a
//! cloneable [`StorageHandle`], which is what survives a simulated crash:
//! the dead incarnation's handle and the rebuilt server's handle point at
//! the same store, exactly like a restarted process re-opening its data
//! directory.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use awr_types::wire::{
    decode_frame, encode_frame, encode_frame_into, get_map, put_map, FrameError, Reader, Sink,
    Wire, MAX_FRAME,
};
use awr_types::{Change, ChangeSet, ObjectId, TaggedValue};

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
    /// The full set of completed changes `C` at snapshot time. Persisted
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

/// Tag `0` Change: the change · `1` Register: `obj` `reg`.
impl<V: Wire> Wire for WalRecord<V> {
    fn put(&self, out: &mut impl Sink) {
        match self {
            WalRecord::Change(c) => {
                out.push(0);
                c.put(out);
            }
            WalRecord::Register(obj, reg) => {
                out.push(1);
                obj.put(out);
                reg.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<WalRecord<V>, FrameError> {
        match r.byte()? {
            0 => Ok(WalRecord::Change(Change::get(r)?)),
            1 => Ok(WalRecord::Register(ObjectId::get(r)?, TaggedValue::get(r)?)),
            _ => Err(FrameError::Codec("unknown WalRecord tag")),
        }
    }
}

/// `changes`, then the map `ObjectId → TaggedValue<V>`.
impl<V: Wire> Wire for Snapshot<V> {
    fn put(&self, out: &mut impl Sink) {
        self.changes.put(out);
        put_map(out, &self.registers);
    }

    fn get(r: &mut Reader<'_>) -> Result<Snapshot<V>, FrameError> {
        Ok(Snapshot {
            changes: ChangeSet::get(r)?,
            // An object id, a tag and the option byte: at least 5 bytes.
            registers: get_map(r, 5)?,
        })
    }
}

/// The WAL's file name inside a [`FileStorage`] directory.
pub const WAL_FILE: &str = "wal.frames";

/// The snapshot's file name inside a [`FileStorage`] directory.
const SNAPSHOT_FILE: &str = "snapshot.frame";

/// File-backed [`Storage`]: under a directory, a snapshot file holding
/// one frame and a WAL file ([`WAL_FILE`]) holding one frame per record,
/// in the [`awr_types::wire`] format, appended through a buffered writer.
/// The buffer is flushed before every `load`, so a simulated crash (which
/// never kills the hosting process) always recovers the full log; a real
/// crash can leave a torn final frame, which the next [`FileStorage::open`]
/// cuts off.
pub struct FileStorage<V> {
    dir: PathBuf,
    writer: Option<BufWriter<File>>,
    /// The record being appended, kept so an append does not allocate.
    frame: Vec<u8>,
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

impl<V: Value> FileStorage<V> {
    /// Opens (creating if needed) a store rooted at `dir`. An existing
    /// store is reused: the WAL is appended to, not truncated — but a
    /// torn final frame, an append a crash cut short, is cut off first so
    /// that later appends never follow it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the WAL holds a
    /// corrupt frame.
    pub fn open(dir: impl AsRef<Path>) -> FileStorage<V> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).expect("create storage dir");
        let wal = dir.join(WAL_FILE);
        let (wal_len, whole) = read_wal::<V>(&wal, |_| {});
        if std::fs::metadata(&wal).is_ok_and(|m| m.len() > whole) {
            OpenOptions::new()
                .write(true)
                .open(&wal)
                .and_then(|f| f.set_len(whole))
                .expect("cut the torn WAL tail");
        }
        FileStorage {
            dir,
            writer: None,
            frame: Vec::new(),
            wal_len,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Decodes the frames of the WAL at `path` in order, one at a time, and
/// hands each record to `each`. Returns how many there were and the
/// offset where they end: the file's length, or the start of a torn final
/// frame. A missing file is an empty one.
///
/// # Panics
///
/// Panics on a read error or a corrupt frame.
fn read_wal<V: Wire>(path: &Path, mut each: impl FnMut(WalRecord<V>)) -> (usize, u64) {
    let Ok(file) = File::open(path) else {
        return (0, 0);
    };
    let mut file = BufReader::new(file);
    let (mut frame, mut frames, mut end) = (Vec::new(), 0, 0);
    loop {
        frame.clear();
        file.by_ref()
            .take(4)
            .read_to_end(&mut frame)
            .expect("read frame");
        if let Some(header) = frame.get(..4) {
            let len = u32::from_le_bytes(header.try_into().expect("4 bytes"));
            // Bounded before it sizes a read; `decode_frame` refuses a
            // longer frame from its header alone.
            file.by_ref()
                .take(u64::from(len).min(MAX_FRAME as u64))
                .read_to_end(&mut frame)
                .expect("read frame");
        }
        match decode_frame(&frame).unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            Some((rec, used)) => {
                each(rec);
                frames += 1;
                end += used as u64;
            }
            None => return (frames, end),
        }
    }
}

impl<V: Value> Storage<V> for FileStorage<V> {
    fn append(&mut self, rec: WalRecord<V>) {
        self.frame.clear();
        encode_frame_into(&rec, &mut self.frame);
        let wal = self.writer.get_or_insert_with(|| {
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(WAL_FILE))
                .expect("open WAL for append");
            BufWriter::new(f)
        });
        wal.write_all(&self.frame).expect("append WAL record");
        self.wal_len += 1;
    }

    fn install_snapshot(&mut self, snap: Snapshot<V>) {
        // Write-then-rename so a half-written snapshot never shadows a
        // good one; the WAL is truncated only after the rename lands.
        let frame = encode_frame(&snap);
        let len = frame.len();
        assert!(
            len - 4 <= MAX_FRAME,
            "a {len}-byte snapshot could not be read back"
        );
        let tmp = self.dir.join("snapshot.frame.tmp");
        std::fs::write(&tmp, frame).expect("write snapshot");
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE)).expect("publish snapshot");
        self.writer = None; // drop the append handle before truncating
        std::fs::write(self.dir.join(WAL_FILE), b"").expect("truncate WAL");
        self.wal_len = 0;
    }

    fn load(&mut self) -> Option<(Option<Snapshot<V>>, Vec<WalRecord<V>>)> {
        let mut wal = Vec::new();
        let snap = self.replay(&mut |rec| wal.push(rec))?;
        Some((snap, wal))
    }

    fn replay(&mut self, each: &mut dyn FnMut(WalRecord<V>)) -> Option<Option<Snapshot<V>>> {
        if let Some(w) = self.writer.as_mut() {
            w.flush().expect("flush WAL");
        }
        let snap = std::fs::read(self.dir.join(SNAPSHOT_FILE))
            .ok()
            .map(|frame| {
                let whole = decode_frame(&frame).expect("decode snapshot");
                whole.expect("a whole snapshot frame").0
            });
        let (records, _) = read_wal(&self.dir.join(WAL_FILE), each);
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

    /// A handle onto a [`FileStorage`] rooted at `dir`.
    pub fn file(dir: impl AsRef<Path>) -> StorageHandle<V> {
        StorageHandle::new(FileStorage::open(dir))
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

/// When a durable replica checkpoints, and how much history it keeps.
///
/// A checkpoint is a boundary over the replica's *private*, append-order
/// state — its `ChangeSet` journal (compacted via
/// `ChangeSet::compact_journal`) and its write-ahead log (folded into a
/// [`Snapshot`]) — not over the shared weight map.
///
/// Two knobs govern the trade:
///
/// * [`every`](CheckpointCadence::every) bounds how much un-checkpointed
///   log a crash can force recovery to replay (and how much journal memory
///   a replica carries between checkpoints);
/// * [`min_retain`](CheckpointCadence::min_retain) keeps a tail of recent
///   journal entries alive past each checkpoint so slightly-behind peers
///   still negotiate cheap deltas instead of degrading to full change
///   sets.
///
/// # Examples
///
/// ```
/// use awr_storage::CheckpointCadence;
///
/// let cadence = CheckpointCadence::new(8, 4);
/// assert!(!cadence.due(7));
/// assert!(cadence.due(8));
/// // Keep whichever is larger: the floor, or what the slowest acked
/// // peer still needs for a delta.
/// assert_eq!(cadence.retain(2), 4);
/// assert_eq!(cadence.retain(9), 9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointCadence {
    /// Checkpoint whenever the log has grown by this many entries since
    /// the last checkpoint (clamped to at least 1).
    pub every: usize,
    /// Always retain at least this many of the most recent journal
    /// entries across a compaction.
    pub min_retain: usize,
}

impl CheckpointCadence {
    /// Creates a cadence that checkpoints every `every` log entries and
    /// retains at least `min_retain` journal entries.
    pub const fn new(every: usize, min_retain: usize) -> CheckpointCadence {
        CheckpointCadence { every, min_retain }
    }

    /// Whether a log that has accumulated `grown` entries since the last
    /// checkpoint is due for one.
    pub fn due(&self, grown: usize) -> bool {
        grown >= self.every.max(1)
    }

    /// How many journal entries a compaction should keep, given the
    /// longest suffix any acked peer still needs for a delta.
    pub fn retain(&self, deepest_peer_suffix: usize) -> usize {
        self.min_retain.max(deepest_peer_suffix)
    }
}

/// Checkpoint every 64 log entries, retaining a 16-entry delta tail —
/// frequent enough that recovery replay and journal memory stay small,
/// sparse enough that checkpoint work is amortized across many operations.
impl Default for CheckpointCadence {
    fn default() -> CheckpointCadence {
        CheckpointCadence::new(64, 16)
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
    fn a_torn_final_frame_is_cut_off_on_open() {
        let dir = std::env::temp_dir().join(format!(
            "awr_durable_test_{}_{}",
            std::process::id(),
            "torn_tail"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![
            WalRecord::Change(chg(2, "0.1")),
            WalRecord::Register(ObjectId(7), reg(3, 99)),
            WalRecord::Register(ObjectId(8), reg(4, 5)),
        ];
        let store: StorageHandle<u64> = StorageHandle::file(&dir);
        for rec in &records {
            store.append(rec.clone());
        }
        drop(store);
        // A crash in the middle of writing the third record.
        let wal = OpenOptions::new()
            .write(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        wal.set_len(wal.metadata().unwrap().len() - 2).unwrap();

        let reopened: StorageHandle<u64> = StorageHandle::file(&dir);
        assert_eq!(reopened.wal_len(), 2);
        assert_eq!(reopened.load(), Some((None, records[..2].to_vec())));
        // The next append follows the whole frames, not the torn bytes.
        reopened.append(records[2].clone());
        assert_eq!(reopened.load(), Some((None, records)));
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
