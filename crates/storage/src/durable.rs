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
    decode_frame, encode_frame_into, frame_prefix, get_map, put_map, FrameError, Reader, Sink,
    Wire, MAX_FRAME, MAX_PREFIX, WIRE_VERSION,
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

/// The first bytes of a WAL file: its magic, then the wire version of
/// every frame after it.
const WAL_HEADER: [u8; 5] = [b'A', b'W', b'R', b'L', WIRE_VERSION];

/// The first bytes of a snapshot file, as [`WAL_HEADER`] is of a WAL.
const SNAPSHOT_HEADER: [u8; 5] = [b'A', b'W', b'R', b'S', WIRE_VERSION];

/// File-backed [`Storage`]: under a directory, a snapshot file holding
/// one frame and a WAL file ([`WAL_FILE`]) holding one frame per record,
/// in the [`awr_types::wire`] format, appended through a buffered writer.
/// Each file opens with a 5-byte header — a magic and [`WIRE_VERSION`] —
/// so the version is stated once per file, not per frame, and a file
/// written in another version is refused before any of it is parsed. The
/// buffer is flushed before every `load`, so a simulated crash (which
/// never kills the hosting process) always recovers the full log; a real
/// crash can leave a torn final frame or a torn header, which the next
/// [`FileStorage::open`] cuts off.
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
    /// Panics if the directory cannot be created, the WAL holds a corrupt
    /// frame, or the WAL or the snapshot was written in another wire
    /// version (or before files carried a header, version 3 and earlier).
    pub fn open(dir: impl AsRef<Path>) -> FileStorage<V> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).expect("create storage dir");
        let snapshot = dir.join(SNAPSHOT_FILE);
        if let Ok(file) = File::open(&snapshot) {
            let mut head = Vec::new();
            file.take(SNAPSHOT_HEADER.len() as u64)
                .read_to_end(&mut head)
                .expect("read snapshot header");
            expect_header(&snapshot, &head, &SNAPSHOT_HEADER);
        }
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

/// Panics unless `head`, the first bytes of the file at `path`, is
/// `header`: the file's magic, then [`WIRE_VERSION`].
fn expect_header(path: &Path, head: &[u8], header: &[u8; 5]) {
    match head.split_at_checked(4) {
        Some((magic, [version, ..])) if *magic == header[..4] && *version != WIRE_VERSION => {
            panic!("{}: {}", path.display(), FrameError::BadVersion(*version))
        }
        _ if head != header => panic!(
            "{}: no wire-version-{WIRE_VERSION} file header (files written before version 4 \
             have none)",
            path.display()
        ),
        _ => {}
    }
}

/// Decodes the frames of the WAL at `path` in order, one at a time, and
/// hands each record to `each`. Returns how many there were and the
/// offset where they end: the file's length, the start of a torn final
/// frame, or 0 if the crash tore the file's header. A missing file is an
/// empty one.
///
/// # Panics
///
/// Panics on a read error, a corrupt frame or a foreign file header.
fn read_wal<V: Wire>(path: &Path, mut each: impl FnMut(WalRecord<V>)) -> (usize, u64) {
    let Ok(file) = File::open(path) else {
        return (0, 0);
    };
    let mut file = BufReader::new(file);
    let mut frame = Vec::new();
    file.by_ref()
        .take(WAL_HEADER.len() as u64)
        .read_to_end(&mut frame)
        .expect("read WAL header");
    if frame.len() < WAL_HEADER.len() && WAL_HEADER.starts_with(&frame) {
        return (0, 0);
    }
    expect_header(path, &frame, &WAL_HEADER);
    let (mut frames, mut end) = (0, WAL_HEADER.len() as u64);
    loop {
        frame.clear();
        // The length a byte at a time, until `frame_prefix` has it — or
        // refuses it, before it sizes a read — then the payload it
        // announces.
        let mut prefix = Ok(None);
        while matches!(prefix, Ok(None)) {
            let read = file.by_ref().take(1).read_to_end(&mut frame);
            if read.expect("read frame") == 0 {
                break;
            }
            prefix = frame_prefix(&frame);
        }
        if let Some((len, _)) = prefix.unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            file.by_ref()
                .take(len as u64)
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
            let empty = f.metadata().expect("stat WAL").len() == 0;
            let mut wal = BufWriter::new(f);
            if empty {
                wal.write_all(&WAL_HEADER).expect("write WAL header");
            }
            wal
        });
        wal.write_all(&self.frame).expect("append WAL record");
        self.wal_len += 1;
    }

    fn install_snapshot(&mut self, snap: Snapshot<V>) {
        // Write-then-rename so a half-written snapshot never shadows a
        // good one; the WAL is truncated only after the rename lands.
        let mut file = SNAPSHOT_HEADER.to_vec();
        let len = encode_frame_into(&snap, &mut file);
        assert!(
            len <= MAX_FRAME + MAX_PREFIX,
            "a {len}-byte snapshot could not be read back"
        );
        let tmp = self.dir.join("snapshot.frame.tmp");
        std::fs::write(&tmp, file).expect("write snapshot");
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
        let path = self.dir.join(SNAPSHOT_FILE);
        let snap = std::fs::read(&path).ok().map(|file| {
            let (head, frame) = file.split_at(SNAPSHOT_HEADER.len().min(file.len()));
            expect_header(&path, head, &SNAPSHOT_HEADER);
            let whole = decode_frame(frame).expect("decode snapshot");
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
    use awr_types::wire::frame_len;
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
        let dir = test_dir("round_trip");
        exercise(StorageHandle::file(&dir));
        // Re-opening the same directory sees the same state (a process
        // restart, not just an actor restart).
        let reopened: StorageHandle<u64> = StorageHandle::file(&dir);
        let (snap, wal) = reopened.load().expect("state survives reopen");
        assert!(snap.is_some());
        assert_eq!(wal.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("awr_durable_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_torn_final_frame_is_cut_off_on_open() {
        let dir = test_dir("torn_tail");
        let reg = |ts, v: &str| {
            TaggedValue::new(Tag::new(ts, ProcessId::Server(ServerId(0))), v.to_string())
        };
        let records = vec![
            WalRecord::Change(chg(2, "0.1")),
            WalRecord::Register(ObjectId(7), reg(3, "99")),
            // A payload over 127 B: its length takes two bytes.
            WalRecord::Register(ObjectId(8), reg(4, &"5".repeat(200))),
        ];
        let frames: Vec<u64> = records.iter().map(|r| frame_len(r) as u64).collect();
        assert_eq!(frames[2], 2 + 208, "a two-byte length, then the payload");
        let whole = WAL_HEADER.len() as u64 + frames.iter().sum::<u64>();
        // Where a crash stopped the file, and the records left whole: in
        // the last record's payload, between the two bytes of its length,
        // and in the header written with the first record.
        for (keep, survive) in [
            (whole - 2, 2),
            (whole - frames[2] + 1, 2),
            (WAL_HEADER.len() as u64 - 2, 0),
        ] {
            let store: StorageHandle<String> = StorageHandle::file(&dir);
            for rec in &records {
                store.append(rec.clone());
            }
            drop(store);
            let wal = OpenOptions::new()
                .write(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            assert_eq!(wal.metadata().unwrap().len(), whole);
            wal.set_len(keep).unwrap();

            let reopened: StorageHandle<String> = StorageHandle::file(&dir);
            assert_eq!(reopened.wal_len(), survive, "cut at {keep}");
            let expected = (survive > 0).then(|| (None, records[..survive].to_vec()));
            assert_eq!(reopened.load(), expected, "cut at {keep}");
            // The next append follows the whole frames, not the torn bytes.
            for rec in &records[survive..] {
                reopened.append(rec.clone());
            }
            assert_eq!(reopened.load(), Some((None, records.clone())));
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Why opening a store of the files `files` panics, if it does.
    fn refusal(name: &str, files: &[(&str, Vec<u8>)]) -> Option<String> {
        let dir = test_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        for (file, bytes) in files {
            std::fs::write(dir.join(file), bytes).unwrap();
        }
        let opened = std::panic::catch_unwind(|| StorageHandle::<u64>::file(&dir).load());
        let _ = std::fs::remove_dir_all(&dir);
        Some(*opened.err()?.downcast::<String>().ok()?)
    }

    #[test]
    fn files_written_in_another_version_are_refused_at_open() {
        // A version-3 file: every frame a `u32` length, the version byte
        // and the payload, and no file header.
        let v3_frame = |value: &dyn Fn(&mut Vec<u8>)| {
            let mut payload = vec![3];
            value(&mut payload);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            frame
        };
        let v3_wal = v3_frame(&|out| WalRecord::<u64>::Change(chg(2, "0.1")).put(out));
        let v3_snapshot = v3_frame(&|out| {
            Snapshot::<u64> {
                changes: ChangeSet::new(),
                registers: BTreeMap::new(),
            }
            .put(out)
        });
        let headerless = format!("no wire-version-{WIRE_VERSION} file header");
        for (file, bytes) in [(WAL_FILE, v3_wal), (SNAPSHOT_FILE, v3_snapshot)] {
            let why = refusal("v3", &[(file, bytes)]).expect("a version-3 file opened");
            assert!(why.contains(file) && why.contains(&headerless), "{why}");
        }

        // A header that names another version: version 4's, whose
        // `read_changes` messages had another layout, version 5's, which
        // had no length-only summary, version 6's, whose phase-1 reply
        // always carried the register's value, and the next one.
        for (file, header) in [(WAL_FILE, WAL_HEADER), (SNAPSHOT_FILE, SNAPSHOT_HEADER)] {
            for version in [4, 5, 6, WIRE_VERSION + 1] {
                let mut foreign = header.to_vec();
                foreign[4] = version;
                let why = refusal("foreign", &[(file, foreign)]).expect("a foreign header opened");
                assert!(
                    why.contains(file) && why.contains(&format!("wire version {version} ")),
                    "{why}"
                );
            }
        }

        // The other store's magic is no header either.
        let why = refusal("swapped", &[(WAL_FILE, SNAPSHOT_HEADER.to_vec())]);
        assert!(why
            .expect("a snapshot header opened as a WAL")
            .contains(&headerless));
        assert_eq!(refusal("own", &[(WAL_FILE, WAL_HEADER.to_vec())]), None);
    }

    #[test]
    fn handle_is_shared() {
        let a: StorageHandle<u64> = StorageHandle::in_memory();
        let b = a.clone();
        a.append(WalRecord::Change(chg(2, "0.5")));
        assert_eq!(b.wal_len(), 1, "clones see the same store");
    }
}
