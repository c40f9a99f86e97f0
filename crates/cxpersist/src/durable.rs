//! [`DurableStore`]: a [`cxstore::Store`] whose mutations survive process
//! death.
//!
//! Every mutation is appended to the write-ahead log *before* it touches
//! the in-memory store (via [`cxstore::Store::edit_with_log`], the append
//! runs under the document's write lock, after validation, before the
//! mutation), and fsynced according to the configured [`FsyncPolicy`].
//! [`DurableStore::checkpoint`] writes a stand-off snapshot of every
//! document plus a manifest and rotates the log (keeping the previous
//! snapshot and the records past it as a fallback generation);
//! [`DurableStore::open`] loads the newest snapshot that validates —
//! falling back to the previous one — and replays the log tail past it,
//! dropping only a torn/corrupt tail.
//!
//! Lock order (deadlock-free by construction): `gate → document → wal`.
//! Mutators hold the checkpoint gate shared, then the document lock, then
//! the WAL mutex for the append; the checkpointer holds the gate
//! exclusively, which drains all in-flight mutators before it reads
//! documents and rotates the log.

use crate::blob::DocBlob;
use crate::codec::{encode_record, scan_tail, skip_record, WalOp, WAL_HEADER};
use crate::error::{PersistError, Result};
use crate::snapshot::{
    list_snapshots, load_snapshot, prune_snapshots, sync_dir, validated_manifest, write_snapshot,
    StoreSnapshot,
};
use cxobs::{Exposition, Gauge, Histogram, Layer, Observable, Registry};
use cxstore::{DocId, EditOp, EditOutcome, Store, StoreStats};
use goddag::Goddag;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// When the WAL file is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record — maximum durability, one `fdatasync` per edit.
    EveryOp,
    /// After every `n` records (and on [`DurableStore::sync`],
    /// checkpoints, and drop). A crash loses at most `n - 1` acknowledged
    /// edits.
    EveryN(u32),
    /// At most one sync per interval, piggybacked on appends.
    Interval(Duration),
    /// Never automatically — only explicit [`DurableStore::sync`],
    /// checkpoints, and drop. For bulk loads and tests.
    Never,
}

/// Open-time configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// WAL fsync policy. Default: [`FsyncPolicy::EveryOp`].
    pub fsync: FsyncPolicy,
}

impl Default for Options {
    fn default() -> Options {
        Options { fsync: FsyncPolicy::EveryOp }
    }
}

/// Write-path health of a [`DurableStore`].
///
/// A store degrades — once, explicitly — when a WAL append or fsync
/// fails (the ENOSPC / pulled-volume class): every already-acknowledged
/// edit is still durable and every read keeps working, but further
/// writes are refused with [`PersistError::Degraded`] instead of
/// half-failing one by one. [`DurableStore::heal`] re-probes the disk
/// and, on success, returns the store to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Writes and reads both served.
    Healthy,
    /// Read-only: the WAL could not be extended or made durable.
    Degraded,
}

/// What [`DurableStore::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// LSN of the snapshot that was loaded (`None` on a cold start).
    pub snapshot_lsn: Option<u64>,
    /// Newer snapshot directories that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// Documents restored from the snapshot.
    pub recovered_docs: usize,
    /// WAL records applied during replay.
    pub replayed_ops: u64,
    /// Replayed records the store rejected — the deterministic re-failure
    /// of operations that were logged but failed structurally pre-crash.
    pub replayed_rejected: u64,
    /// Bytes of torn/corrupt WAL tail dropped (never replayed).
    pub torn_bytes_dropped: usize,
}

/// Outcome of a checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    /// The snapshot's LSN (WAL records at or below it are now retired).
    pub lsn: u64,
    /// Documents written.
    pub docs: usize,
    /// Snapshot bytes referenced (fresh and reused blobs + manifest).
    pub bytes: u64,
    /// Blobs newly captured because the document changed since the
    /// previous generation (or there was none).
    pub fresh_docs: usize,
    /// Blobs reused from the previous generation — the document's edit
    /// epoch was unchanged, so the checkpoint hard-linked (or copied) the
    /// existing file instead of re-serializing the document.
    pub reused_docs: usize,
}

/// A WAL position: the last assigned LSN plus the byte length of the
/// valid log prefix that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Last assigned log sequence number.
    pub lsn: u64,
    /// Valid log bytes (header included).
    pub bytes: u64,
}

/// What [`DurableStore::wal_tail`] can hand a log-shipping caller.
#[derive(Debug)]
pub enum TailShipment {
    /// No records past the requested LSN — the follower is caught up.
    CaughtUp,
    /// Raw record bytes (each self-framed and CRC'd by the WAL codec),
    /// LSN-contiguous starting at `first`.
    Records {
        /// LSN of the first shipped record (always `after + 1`).
        first: u64,
        /// LSN of the last shipped record.
        last: u64,
        /// The record bytes, sliceable straight into a shipping batch.
        bytes: Vec<u8>,
    },
    /// The requested LSN predates the oldest retained record (a checkpoint
    /// retired it) — the follower needs a snapshot bootstrap instead.
    SnapshotNeeded,
}

/// The WAL writer: file handle plus append/sync bookkeeping, behind one
/// mutex so record order equals file order.
struct WalState {
    file: File,
    /// Last assigned LSN.
    lsn: u64,
    /// Logical file length (valid bytes); used to truncate away a
    /// partially written record after an append error.
    len: u64,
    /// Appends since the last sync.
    dirty: u32,
    last_sync: Instant,
}

#[derive(Default)]
struct PersistCounters {
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    wal_fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    tail_cache_hits: AtomicU64,
    tail_cache_misses: AtomicU64,
}

/// The durability layer's timed layers and metrics, registered on the
/// wrapped store's [`Registry`] so one exposition covers both layers.
struct PersistMetrics {
    /// One WAL append (encode + write + any policy-due fsync).
    wal_append: Layer,
    /// One `fdatasync` of the log.
    wal_fsync: Layer,
    /// A whole checkpoint (snapshot + rotation + pruning).
    checkpoint: Layer,
    /// The WAL replay phase of [`DurableStore::open`].
    recovery_replay_ns: Arc<Histogram>,
    /// 1 while the store is in the read-only Degraded state, else 0.
    degraded: Arc<Gauge>,
}

impl PersistMetrics {
    fn new(r: &Registry) -> PersistMetrics {
        PersistMetrics {
            wal_append: r.layer("wal.append"),
            wal_fsync: r.layer("wal.fsync"),
            checkpoint: r.layer("checkpoint"),
            recovery_replay_ns: r.histogram("cx_recovery_replay_ns"),
            degraded: r.gauge("cx_store_degraded"),
        }
    }
}

/// Cap on remembered tail positions. Each tailing follower occupies one
/// slot (its `after` advances fetch by fetch, replacing its old entry);
/// 16 covers a realistic fan-out without unbounded growth.
const TAIL_CACHE_CAP: usize = 16;

/// The per-follower WAL offset cache: `lsn → byte offset of the first
/// record past it`, learned from previous [`DurableStore::wal_tail`]
/// slices. Steady-state tailing seeks straight to the position instead of
/// frame-skipping the whole file — O(slice) per fetch, not O(file).
/// Entries are valid for one rotation epoch (a checkpoint's log rotation
/// rewrites the file and shifts every offset); the fast path additionally
/// CRC-verifies the first record it lands on, so a stale entry can only
/// ever cost a fallback scan, never ship wrong bytes.
#[derive(Default)]
struct TailCache {
    /// Rotation epoch the offsets describe.
    rotation: u64,
    /// `(after, absolute byte offset where record `after + 1` starts)`.
    entries: Vec<(u64, u64)>,
}

/// Poison-tolerant: the WAL mutex guards plain state (file handle,
/// LSN/byte counters, tail cache). A panic while it is held — an
/// injected `cxfault::Fault::Panic` at a WAL failpoint, or an
/// out-of-memory mid-append — leaves counters that describe whatever
/// actually reached the file; recovering the guard lets `Drop` still
/// flush and `wal_tail` still ship, and reopen-time recovery re-derives
/// the authoritative tail from the bytes themselves.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A durable, warm-restartable document store. See the module docs.
pub struct DurableStore {
    store: Store,
    dir: PathBuf,
    /// Checkpoint gate: mutators shared, checkpoint exclusive.
    gate: RwLock<()>,
    wal: Mutex<WalState>,
    policy: FsyncPolicy,
    counters: PersistCounters,
    metrics: PersistMetrics,
    recovery: RecoveryReport,
    /// Bumped (under the WAL mutex) whenever the log file is rewritten —
    /// the [`TailCache`] invalidation signal.
    rotations: AtomicU64,
    tail_cache: Mutex<TailCache>,
    /// Set on the first WAL append/fsync failure; checked (one relaxed
    /// load) at the top of every mutation. See [`StoreHealth`].
    degraded: AtomicBool,
    /// Human-readable cause of the degradation (empty while healthy).
    degraded_reason: Mutex<String>,
}

impl DurableStore {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Open (or create) the store at `dir` with default [`Options`],
    /// recovering whatever state the directory holds.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DurableStore> {
        DurableStore::open_with(dir, Options::default())
    }

    /// [`DurableStore::open`] with explicit options.
    pub fn open_with(dir: impl Into<PathBuf>, options: Options) -> Result<DurableStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();

        // 1. Newest snapshot that validates end-to-end. Snapshots that
        // fail validation are quarantined (renamed aside) so they can
        // never be mistaken for a live generation again — in particular,
        // the next checkpoint must not pick a known-bad snapshot as its
        // retention floor and retire the WAL records the good fallback
        // still needs.
        let mut store = None;
        let mut snap_lsn = 0u64;
        for (lsn, path) in list_snapshots(&dir)? {
            match load_snapshot(&path) {
                Ok((s, manifest)) => {
                    report.snapshot_lsn = Some(lsn);
                    report.recovered_docs = manifest.docs.len();
                    snap_lsn = lsn;
                    store = Some(s);
                    break;
                }
                Err(_) => {
                    report.snapshots_skipped += 1;
                    let mut bad = path.clone();
                    bad.as_mut_os_string().push(".bad");
                    let _ = fs::remove_dir_all(&bad);
                    let _ = fs::rename(&path, &bad);
                }
            }
        }
        let store = store.unwrap_or_default();
        let metrics = PersistMetrics::new(store.registry());

        // 2. Scan the log and replay the tail past the snapshot.
        let replay_start = Instant::now();
        let wal_path = dir.join("wal.log");
        let mut lsn = snap_lsn;
        let mut valid_len = WAL_HEADER.len() as u64;
        let mut fresh = true;
        if wal_path.exists() {
            let bytes = fs::read(&wal_path)?;
            // A strict prefix of the header is the residue of a first open
            // that crashed between writing and syncing it — nothing can
            // have been acknowledged yet, so the file is provably fresh,
            // not corrupt.
            if !bytes.is_empty() && !WAL_HEADER.as_bytes().starts_with(&bytes) {
                fresh = false;
                // Frame-skip the snapshot-covered prefix: its content is
                // superseded, so cold start pays only for the live tail.
                let scan = scan_tail(&bytes, snap_lsn).map_err(|e| PersistError::Corrupt {
                    path: wal_path.clone(),
                    detail: format!("unreadable WAL: {e}"),
                })?;
                report.torn_bytes_dropped = scan.dropped_bytes;
                valid_len = scan.valid_len as u64;
                let mut removed = std::collections::HashSet::new();
                for rec in scan.records {
                    if rec.lsn <= snap_lsn {
                        continue; // retired by the snapshot
                    }
                    lsn = rec.lsn;
                    Self::replay(&store, &wal_path, rec.lsn, rec.op, &mut removed, &mut report)?;
                }
            }
        }

        if !fresh {
            metrics.recovery_replay_ns.record(replay_start.elapsed());
            store.registry().event(
                "recovery",
                format!(
                    "snapshot {:?}: {} docs, {} ops replayed, {} torn bytes dropped",
                    report.snapshot_lsn,
                    report.recovered_docs,
                    report.replayed_ops,
                    report.torn_bytes_dropped
                ),
            );
        }

        // 3. Re-open the log for appending, with the torn tail cut off.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&wal_path)?;
        if fresh {
            file.write_all(WAL_HEADER.as_bytes())?;
            file.sync_all()?;
            sync_dir(&dir)?;
            valid_len = WAL_HEADER.len() as u64;
        } else {
            file.set_len(valid_len)?;
            if report.torn_bytes_dropped > 0 {
                file.sync_all()?;
            }
        }
        file.seek(SeekFrom::Start(valid_len))?;

        Ok(DurableStore {
            store,
            dir,
            gate: RwLock::new(()),
            wal: Mutex::new(WalState {
                file,
                lsn,
                len: valid_len,
                dirty: 0,
                last_sync: Instant::now(),
            }),
            policy: options.fsync,
            counters: PersistCounters::default(),
            metrics,
            recovery: report,
            rotations: AtomicU64::new(0),
            tail_cache: Mutex::default(),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
        })
    }

    fn replay(
        store: &Store,
        wal_path: &Path,
        lsn: u64,
        op: WalOp,
        removed: &mut std::collections::HashSet<u64>,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let corrupt = |detail: String| PersistError::Corrupt {
            path: wal_path.to_path_buf(),
            detail: format!("record {lsn}: {detail}"),
        };
        match op {
            WalOp::Edit { doc, epoch, op } => {
                let cur = match store.epoch(doc) {
                    Ok(cur) => cur,
                    // An edit may be logged just after a concurrent remove
                    // of the same document (the remove appends under the
                    // store gate, not the document lock): the pre-crash
                    // outcome was a mutation on an already-detached entry,
                    // observably gone either way. Only edits targeting a
                    // document the log never removed indicate real
                    // corruption.
                    Err(_) if removed.contains(&doc.raw()) => {
                        report.replayed_rejected += 1;
                        return Ok(());
                    }
                    Err(_) => return Err(corrupt(format!("edit targets unknown document {doc}"))),
                };
                if cur != epoch {
                    return Err(corrupt(format!(
                        "replay diverged on {doc}: log expects epoch {epoch}, document is at {cur}"
                    )));
                }
                // Ungated apply: the pre-crash gate already passed this op
                // (gate-rejected edits never reach the log), so replay
                // skips re-paying prevalidation — the same contract the
                // replication followers rely on.
                match store.apply_replicated(doc, op) {
                    Ok(_) => report.replayed_ops += 1,
                    // A logged op that failed structurally pre-crash fails
                    // identically here (the log runs ahead of the mutation).
                    Err(_) => report.replayed_rejected += 1,
                }
            }
            WalOp::DocInsert { doc, name, blob } => {
                let g = blob.restore()?;
                store.insert_with_id(doc, g).map_err(|e| corrupt(format!("insert: {e}")))?;
                if let Some(name) = name {
                    store.bind_name(name, doc).map_err(|e| corrupt(format!("bind: {e}")))?;
                }
                report.replayed_ops += 1;
            }
            WalOp::DocRemove { doc } => {
                store.remove(doc);
                removed.insert(doc.raw());
                report.replayed_ops += 1;
            }
            WalOp::BindName { doc, name } => match store.bind_name(name, doc) {
                Ok(()) => report.replayed_ops += 1,
                // Same remove-race tolerance as edits.
                Err(_) => report.replayed_rejected += 1,
            },
            WalOp::UnbindName { name } => {
                // Unbinding an already-unbound name is a no-op, not
                // corruption (the snapshot may already reflect the unbind).
                store.unbind_name(&name);
                report.replayed_ops += 1;
            }
        }
        Ok(())
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last log sequence number assigned.
    pub fn last_lsn(&self) -> u64 {
        lock(&self.wal).lsn
    }

    /// The current WAL position: last assigned LSN plus valid byte length.
    /// Replication lag is observable as the difference between a primary's
    /// position and a follower's last applied LSN.
    pub fn wal_position(&self) -> WalPosition {
        let w = lock(&self.wal);
        WalPosition { lsn: w.lsn, bytes: w.len }
    }

    /// Read the raw WAL tail past `after` for log shipping: up to
    /// `max_bytes` of record bytes (always at least one whole record),
    /// LSN-contiguous from `after + 1`. Returns
    /// [`TailShipment::SnapshotNeeded`] when a checkpoint already retired
    /// the requested records, and [`TailShipment::CaughtUp`] when `after`
    /// is the head. Errors when `after` lies beyond the head — a follower
    /// claiming records this primary never wrote (split history).
    pub fn wal_tail(&self, after: u64, max_bytes: usize) -> Result<TailShipment> {
        // Under the WAL mutex: validate the position and make everything
        // about to be shipped durable. Shipping implies durability —
        // under the lazy fsync policies a record can sit in the page
        // cache, and a follower must never *apply* a record the primary
        // could still lose in a crash (the follower would hold history no
        // recovered primary ever had, and the re-assigned LSN would make
        // the streams diverge permanently). The fsync batches whatever is
        // pending (a no-op under `EveryOp` or when clean). The rotation
        // epoch is read under the same mutex (rotations bump it there), so
        // `(head, rotation)` is a coherent pair.
        let (head, rotation) = {
            let mut w = lock(&self.wal);
            if after == w.lsn {
                return Ok(TailShipment::CaughtUp);
            }
            if after > w.lsn {
                return Err(PersistError::Corrupt {
                    path: self.dir.join("wal.log"),
                    detail: format!(
                        "follower claims LSN {after}, but this log ends at {} — diverged history",
                        w.lsn
                    ),
                });
            }
            self.sync_locked(&mut w)?;
            (w.lsn, self.rotations.load(Ordering::Relaxed))
        };
        // All file reads run *outside* the mutex so shipping never stalls
        // the edit path. Two races are possible and both are benign,
        // because records defend themselves (framing + LSN): a checkpoint
        // may swap in the rotated file (retired records are gone — if the
        // follower needed them the contiguity check below reports
        // `SnapshotNeeded`), and a concurrent append may leave a torn
        // record at the end (the frame walk stops before it; shipping is
        // capped at `head`, the LSN made durable above, regardless).
        let wal_path = self.dir.join("wal.log");

        // Fast path: a previous slice remembered where record `after + 1`
        // starts in this rotation epoch, so steady-state tailing seeks and
        // reads only the live tail — O(slice), not O(file). The landing is
        // verified with a full CRC decode of the first record before
        // anything ships: a stale or raced entry costs a fallback scan,
        // never wrong bytes.
        let cached = {
            let c = lock(&self.tail_cache);
            if c.rotation == rotation {
                c.entries.iter().find(|&&(a, _)| a == after).map(|&(_, off)| off)
            } else {
                None
            }
        };
        if let Some(offset) = cached {
            let mut file = File::open(&wal_path)?;
            if offset <= file.metadata()?.len() {
                file.seek(SeekFrom::Start(offset))?;
                // Bounded read: the slice cap plus one record's worth of
                // slack, not offset..EOF — a follower far behind must pay
                // O(batch) per fetch, not O(remaining tail). A record cut
                // off by the window reads as a torn tail, which the frame
                // walk stops at cleanly; if even the *first* record
                // exceeds the window (one giant blob), its decode fails
                // and the full scan below ships it regardless of size.
                let window = (max_bytes as u64).saturating_add(1 << 20);
                let mut bytes = Vec::new();
                file.take(window).read_to_end(&mut bytes)?;
                if matches!(crate::codec::decode_record(&bytes, 1), Ok((rec, _)) if rec.lsn == after + 1)
                {
                    self.counters.tail_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.slice_tail(bytes, 0, offset, after, head, max_bytes, rotation));
                }
            }
        }

        // Slow path (a follower's first fetch; any cache anomaly): read
        // the whole file and frame-skip the records the follower already
        // holds.
        self.counters.tail_cache_misses.fetch_add(1, Ordering::Relaxed);
        let bytes = fs::read(&wal_path)?;
        let mut pos = if bytes.starts_with(WAL_HEADER.as_bytes()) { WAL_HEADER.len() } else { 0 };
        let mut first = None;
        while pos < bytes.len() {
            match skip_record(&bytes[pos..]) {
                Some((lsn, used)) if lsn <= after => pos += used,
                Some((lsn, _)) => {
                    first = Some(lsn);
                    break;
                }
                None => break,
            }
        }
        // The tail must continue exactly at `after + 1`; anything else
        // means a checkpoint retired the records in between.
        if first != Some(after + 1) {
            return Ok(TailShipment::SnapshotNeeded);
        }
        Ok(self.slice_tail(bytes, pos, 0, after, head, max_bytes, rotation))
    }

    /// Slice LSN-contiguous records out of `bytes`: the record with LSN
    /// `after + 1` is known to start at `bytes[start]` (both callers
    /// verified it), `base` is the absolute file offset of `bytes[0]`.
    /// Ships at least one record, caps near `max_bytes`, stops at `head`
    /// (records appended after the durability sync), and remembers the end
    /// position so the next fetch at the shipped LSN seeks instead of
    /// scanning.
    #[allow(clippy::too_many_arguments)]
    fn slice_tail(
        &self,
        mut bytes: Vec<u8>,
        start: usize,
        base: u64,
        after: u64,
        head: u64,
        max_bytes: usize,
        rotation: u64,
    ) -> TailShipment {
        let mut pos = start;
        let mut last = after;
        while pos < bytes.len() {
            let Some((lsn, used)) = skip_record(&bytes[pos..]) else { break };
            if lsn > head {
                break; // appended after the sync — not durable yet
            }
            if pos + used - start > max_bytes && last > after {
                break; // cap reached (but always ship at least one record)
            }
            last = lsn;
            pos += used;
        }
        {
            let mut c = lock(&self.tail_cache);
            // Never poison a newer epoch's entries with offsets read from
            // an older file (`c.rotation > rotation`: a rotation completed
            // while this slice ran and someone already repopulated).
            if c.rotation < rotation {
                c.rotation = rotation;
                c.entries.clear();
            }
            if c.rotation == rotation {
                // Two positions were just learned: where this slice began
                // (a retrying follower re-fetches the same `after`) and
                // where it ended (a healthy follower fetches `last` next).
                for (lsn, off) in [(after, base + start as u64), (last, base + pos as u64)] {
                    if let Some(e) = c.entries.iter_mut().find(|e| e.0 == lsn) {
                        e.1 = off;
                    } else {
                        if c.entries.len() >= TAIL_CACHE_CAP {
                            c.entries.remove(0);
                        }
                        c.entries.push((lsn, off));
                    }
                }
            }
        }
        bytes.drain(..start);
        bytes.truncate(pos - start);
        TailShipment::Records { first: after + 1, last, bytes }
    }

    /// Capture a consistent [`StoreSnapshot`] of the whole store at the
    /// current WAL position — the replication bootstrap artifact. Briefly
    /// blocks mutations (holds the checkpoint gate exclusively) so the
    /// captured state is exactly the state at the returned LSN, and syncs
    /// the log first — a shipped snapshot, like shipped records, must not
    /// contain state the primary could still lose.
    pub fn capture_snapshot(&self) -> Result<StoreSnapshot> {
        let _exclusive = write_gate(&self.gate);
        let lsn = {
            let mut w = lock(&self.wal);
            self.sync_locked(&mut w)?;
            w.lsn
        };
        // Failpoint: a bootstrap capture that fails after the sync — the
        // fetch errors (the follower retries), nothing degrades.
        cxfault::io_check("snapshot.capture")?;
        StoreSnapshot::capture(&self.store, lsn)
    }

    /// Turn an in-memory store into a durable one at `dir` — the promotion
    /// path: a replica that must start accepting writes adopts its applied
    /// state as the new authoritative history. Writes a full snapshot at
    /// `lsn` (durable before any new edit is acknowledged) and opens a
    /// fresh WAL continuing from that LSN. Refuses a directory that
    /// already holds a store.
    pub fn adopt(
        dir: impl Into<PathBuf>,
        store: Store,
        lsn: u64,
        options: Options,
    ) -> Result<DurableStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join("wal.log").exists() || !list_snapshots(&dir)?.is_empty() {
            return Err(PersistError::Corrupt {
                path: dir,
                detail: "refusing to adopt into a directory that already holds a store".into(),
            });
        }
        let write = write_snapshot(&dir, &store, lsn, None)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(dir.join("wal.log"))?;
        file.write_all(WAL_HEADER.as_bytes())?;
        file.sync_all()?;
        sync_dir(&dir)?;
        let metrics = PersistMetrics::new(store.registry());
        Ok(DurableStore {
            store,
            dir,
            gate: RwLock::new(()),
            wal: Mutex::new(WalState {
                file,
                lsn,
                len: WAL_HEADER.len() as u64,
                dirty: 0,
                last_sync: Instant::now(),
            }),
            policy: options.fsync,
            counters: PersistCounters::default(),
            metrics,
            recovery: RecoveryReport {
                snapshot_lsn: Some(lsn),
                recovered_docs: write.docs,
                ..RecoveryReport::default()
            },
            rotations: AtomicU64::new(0),
            tail_cache: Mutex::default(),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
        })
    }

    /// The wrapped in-memory store, for the read paths ([`Store::query`],
    /// [`Store::query_all`], [`Store::suggest_tags`], …).
    ///
    /// **Do not mutate through this reference** — `Store::insert`,
    /// `Store::edit`, `Store::remove` and `Store::with_doc_mut` called
    /// here bypass the log, and the bypassed changes are silently lost on
    /// restart (worse: later logged edits may fail to replay against the
    /// diverged state). All mutations go through the `DurableStore`
    /// methods.
    pub fn store(&self) -> &Store {
        &self.store
    }

    // ------------------------------------------------------------------
    // Logged mutations
    // ------------------------------------------------------------------

    /// Apply one [`EditOp`], durably: the record is appended (and synced
    /// per policy) before the document changes.
    pub fn edit(&self, id: DocId, op: EditOp) -> Result<EditOutcome> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        match self.store.edit_with_log(id, op, |op, epoch| {
            self.append(WalOp::Edit { doc: id, epoch, op: op.clone() })
        }) {
            Ok(result) => result.map_err(PersistError::Store),
            Err(log_err) => Err(log_err),
        }
    }

    /// [`DurableStore::edit`] with a compare-and-set guard: the op
    /// applies only if the document's pre-op epoch equals `expected`,
    /// failing with [`PersistError::StaleEdit`] otherwise. The check runs
    /// inside the [`cxstore::Store::edit_with_log`] hook — under the
    /// document's write lock, before anything reaches the WAL — so it is
    /// a true CAS, not a racy check-then-edit: two guarded writers with
    /// the same expectation cannot both apply.
    pub fn edit_guarded(&self, id: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        // The closure's error type distinguishes "guard mismatch" (the
        // document is untouched and nothing was logged) from a real
        // append failure.
        enum GuardFail {
            Stale(u64),
            Log(PersistError),
        }
        match self.store.edit_with_log(id, op, |op, epoch| {
            if epoch != expected {
                return Err(GuardFail::Stale(epoch));
            }
            self.append(WalOp::Edit { doc: id, epoch, op: op.clone() }).map_err(GuardFail::Log)
        }) {
            Ok(result) => result.map_err(PersistError::Store),
            Err(GuardFail::Stale(current)) => Err(PersistError::StaleEdit { expected, current }),
            Err(GuardFail::Log(e)) => Err(e),
        }
    }

    /// Add a document; its full blob rides in the log so it survives a
    /// crash before the next checkpoint.
    pub fn insert(&self, g: Goddag) -> Result<DocId> {
        self.insert_inner(None, g, None)
    }

    /// Add a document under a name.
    pub fn insert_named(&self, name: impl Into<String>, g: Goddag) -> Result<DocId> {
        self.insert_inner(Some(name.into()), g, None)
    }

    /// Add a document whose id is drawn from the `residue (mod modulus)`
    /// range — the write-sharding insert: shard `i` of `n` primaries mints
    /// only ids `≡ i (mod n)`, so a hash router maps every unmoved
    /// document back to the shard that owns it without any lookup table.
    pub fn insert_aligned(
        &self,
        name: Option<String>,
        g: Goddag,
        modulus: u64,
        residue: u64,
    ) -> Result<DocId> {
        self.insert_inner(name, g, Some((modulus, residue)))
    }

    fn insert_inner(
        &self,
        name: Option<String>,
        g: Goddag,
        align: Option<(u64, u64)>,
    ) -> Result<DocId> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        let blob = DocBlob::capture(&g);
        // The WAL mutex serializes id allocation among durable inserts, so
        // the logged id and the applied id cannot be interleaved apart.
        let mut w = lock(&self.wal);
        let id = DocId::from_raw(match align {
            None => self.store.next_doc_raw(),
            Some((m, r)) => self.store.allocate_doc_raw_aligned(m, r),
        });
        self.append_locked(&mut w, WalOp::DocInsert { doc: id, name: name.clone(), blob })?;
        self.store.insert_with_id(id, g)?;
        if let Some(name) = name {
            self.store.bind_name(name, id)?;
        }
        Ok(id)
    }

    /// Install a migrated document under its original handle — the
    /// receiving half of a cluster `move_doc`. The blob (captured on the
    /// source primary under the document's lock) is logged verbatim as a
    /// `DocInsert` record, so the hand-off is durable before the source
    /// tombstones its copy, and the restored document is id-for-id and
    /// epoch-for-epoch the source's (future edits replay identically).
    /// `names` are the source's bindings for the document, re-bound (and
    /// logged) here. Refuses a live handle.
    pub fn receive_doc(&self, id: DocId, blob: &DocBlob, names: &[String]) -> Result<()> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        let g = blob.restore()?;
        {
            // The liveness check runs under the WAL mutex — the lock every
            // durable id claim holds — so a racing insert cannot take the
            // handle between the check and the append. Checking outside
            // would let a durably-logged DocInsert record precede a failed
            // local apply, and replicas of this shard would diverge on it.
            let mut w = lock(&self.wal);
            if self.store.contains(id) {
                return Err(PersistError::Store(cxstore::StoreError::IdInUse(id)));
            }
            self.append_locked(
                &mut w,
                WalOp::DocInsert { doc: id, name: None, blob: blob.clone() },
            )?;
            self.store.insert_with_id(id, g)?;
        }
        for name in names {
            self.append(WalOp::BindName { doc: id, name: name.clone() })?;
            self.store.bind_name(name.clone(), id)?;
        }
        Ok(())
    }

    /// Drop a document (and all of its name bindings), durably. Returns
    /// whether the handle was live.
    pub fn remove(&self, id: DocId) -> Result<bool> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        if !self.store.contains(id) {
            return Ok(false); // nothing to log
        }
        self.append(WalOp::DocRemove { doc: id })?;
        Ok(self.store.remove(id))
    }

    /// Resolve a name and drop that document, durably.
    pub fn remove_named(&self, name: &str) -> Result<DocId> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        let id = self.store.id_by_name(name)?;
        self.append(WalOp::DocRemove { doc: id })?;
        self.store.remove(id);
        Ok(id)
    }

    /// Bind (or rebind) a name to a live document, durably.
    pub fn bind_name(&self, name: impl Into<String>, id: DocId) -> Result<()> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        let name = name.into();
        if !self.store.contains(id) {
            return Err(PersistError::Store(cxstore::StoreError::NoSuchDoc(id)));
        }
        self.append(WalOp::BindName { doc: id, name: name.clone() })?;
        self.store.bind_name(name, id)?;
        Ok(())
    }

    /// Drop a name binding without touching its document, durably. Returns
    /// the id the name was bound to (`None` — and nothing logged — when it
    /// was unbound already).
    pub fn unbind_name(&self, name: &str) -> Result<Option<DocId>> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        if self.store.id_by_name(name).is_err() {
            return Ok(None); // nothing to log
        }
        self.append(WalOp::UnbindName { name: name.to_string() })?;
        Ok(self.store.unbind_name(name))
    }

    fn append(&self, op: WalOp) -> Result<()> {
        let mut w = lock(&self.wal);
        self.append_locked(&mut w, op)
    }

    fn append_locked(&self, w: &mut WalState, op: WalOp) -> Result<()> {
        let trace = cxtrace::enter(&self.metrics.wal_append);
        trace.attr("lsn", w.lsn + 1);
        let pre_len = w.len;
        let line = encode_record(w.lsn + 1, &op);
        // Failpoint: an append that never reaches the disk (`Io`, the
        // ENOSPC class) or gets cut mid-record (`TornWrite`). Both take
        // the same cleanup path a real `write_all` failure would: cut the
        // file back to the last good record — the log stays a valid
        // prefix, the operation is refused before it mutates memory — and
        // degrade the store.
        if let Some(fault) = cxfault::fire("wal.append") {
            if let cxfault::InjectedFault::Torn(frac) = fault {
                let keep = cxfault::torn_len(line.len(), frac);
                let _ = w.file.write_all(&line.as_bytes()[..keep]);
            }
            let _ = w.file.set_len(pre_len);
            let _ = w.file.seek(SeekFrom::Start(pre_len));
            let e = cxfault::io_error("wal.append");
            self.enter_degraded(&format!("WAL append failed: {e}"));
            trace.err(format!("injected: {e}"));
            return Err(e.into());
        }
        if let Err(e) = w.file.write_all(line.as_bytes()) {
            // Cut any partial write back to the last good record so the
            // file stays a valid prefix.
            let _ = w.file.set_len(pre_len);
            let _ = w.file.seek(SeekFrom::Start(pre_len));
            self.enter_degraded(&format!("WAL append failed: {e}"));
            trace.err(e.to_string());
            return Err(e.into());
        }
        w.lsn += 1;
        w.len += line.len() as u64;
        w.dirty += 1;
        self.counters.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.counters.wal_bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        let due = match self.policy {
            FsyncPolicy::EveryOp => true,
            FsyncPolicy::EveryN(n) => w.dirty >= n.max(1),
            FsyncPolicy::Interval(d) => w.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if due {
            if let Err(e) = self.sync_locked(w) {
                // The append error aborts the caller's operation before it
                // is applied in memory, so the record must not survive
                // either — a phantom record would poison a later replay
                // (the next edit re-logs the same pre-op epoch, and the
                // phantom would consume it first).
                let _ = w.file.set_len(pre_len);
                let _ = w.file.seek(SeekFrom::Start(pre_len));
                w.len = pre_len;
                w.lsn -= 1;
                w.dirty = w.dirty.saturating_sub(1);
                return Err(e);
            }
        }
        Ok(())
    }

    fn sync_locked(&self, w: &mut WalState) -> Result<()> {
        if w.dirty > 0 {
            let trace = cxtrace::enter(&self.metrics.wal_fsync);
            // Failpoint + real fsync share one error path: records are
            // sitting in the page cache with no way to make them durable,
            // so the store degrades (the caller additionally rolls back
            // its own record when this failure aborts an append).
            let r = cxfault::io_check("wal.fsync").and_then(|()| w.file.sync_data());
            if let Err(e) = r {
                self.enter_degraded(&format!("WAL fsync failed: {e}"));
                trace.err(e.to_string());
                return Err(e.into());
            }
            self.counters.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            w.dirty = 0;
        }
        w.last_sync = Instant::now();
        Ok(())
    }

    /// Force an fsync of everything appended so far (a durability barrier
    /// under the lazier policies).
    pub fn sync(&self) -> Result<()> {
        let mut w = lock(&self.wal);
        self.sync_locked(&mut w)
    }

    // ------------------------------------------------------------------
    // Health
    // ------------------------------------------------------------------

    /// Current write-path health.
    pub fn health(&self) -> StoreHealth {
        if self.degraded.load(Ordering::Acquire) {
            StoreHealth::Degraded
        } else {
            StoreHealth::Healthy
        }
    }

    /// Why the store is degraded (`None` while healthy).
    pub fn degraded_reason(&self) -> Option<String> {
        if self.degraded.load(Ordering::Acquire) {
            Some(lock(&self.degraded_reason).clone())
        } else {
            None
        }
    }

    /// Refuse a mutation while degraded — the check every logged write
    /// starts with. One relaxed-ish atomic load when healthy.
    fn ensure_writable(&self) -> Result<()> {
        if self.degraded.load(Ordering::Acquire) {
            return Err(PersistError::Degraded { detail: lock(&self.degraded_reason).clone() });
        }
        Ok(())
    }

    /// Transition to Degraded (idempotent — only the first failure logs
    /// the event and records the reason).
    fn enter_degraded(&self, reason: &str) {
        if self.degraded.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            *lock(&self.degraded_reason) = reason.to_string();
            self.metrics.degraded.set(1);
            self.store.registry().event("store.degraded", reason.to_string());
        }
    }

    /// Re-probe the write path and, if the disk answers, return the store
    /// to [`StoreHealth::Healthy`]. The probe exercises the same seams
    /// that degrade the store — the failpoints and a real fsync of the
    /// log — so a still-broken disk (or a still-armed fault schedule)
    /// keeps it degraded and returns the probe error. Pending unsynced
    /// records from before the failure become durable as a side effect.
    /// No-op when already healthy.
    pub fn heal(&self) -> Result<StoreHealth> {
        if !self.degraded.load(Ordering::Acquire) {
            return Ok(StoreHealth::Healthy);
        }
        let mut w = lock(&self.wal);
        cxfault::io_check("wal.append")?;
        cxfault::io_check("wal.fsync")?;
        let fsync = cxtrace::enter(&self.metrics.wal_fsync);
        w.file.sync_data()?;
        drop(fsync);
        w.dirty = 0;
        w.last_sync = Instant::now();
        self.degraded.store(false, Ordering::Release);
        *lock(&self.degraded_reason) = String::new();
        self.metrics.degraded.set(0);
        self.store.registry().event("store.healed", "write path re-probed OK");
        Ok(StoreHealth::Healthy)
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Write a snapshot of every document plus the manifest, durably, then
    /// rotate the log and prune retired snapshots. Blocks mutations for
    /// the duration (reads continue).
    ///
    /// Retention keeps *two* generations: the new snapshot plus the
    /// previous one, and every WAL record past the previous snapshot's
    /// LSN. Should the new snapshot later fail validation (bit rot, torn
    /// disk), recovery falls back to the previous snapshot and reaches the
    /// exact same state by replaying the retained log tail. Only records
    /// covered by *both* snapshots are dropped.
    ///
    /// Checkpoints are *incremental*: a document whose edit epoch is
    /// unchanged since the previous validated generation reuses that
    /// generation's blob file (hard link where the filesystem allows),
    /// so cost scales with the dirty set. The reuse means both retained
    /// generations share one inode for such a document — the fallback
    /// guarantee above is byte-independent for dirty documents and the
    /// manifests, while rot in a shared clean-doc blob fails both
    /// generations for that document and recovery refuses loudly rather
    /// than serving partial state (reuse sources are CRC-validated
    /// end-to-end at checkpoint time, so rot never launders forward).
    pub fn checkpoint(&self) -> Result<CheckpointInfo> {
        // A checkpoint must rotate the log it retires; while the write
        // path is broken that is exactly the kind of half-completed disk
        // surgery the degraded state exists to prevent.
        self.ensure_writable()?;
        let _layer = cxtrace::enter(&self.metrics.checkpoint);
        let _exclusive = write_gate(&self.gate);
        let mut w = lock(&self.wal);
        // Everything up to w.lsn is in memory (mutators are drained); the
        // snapshot captures exactly that state.
        self.sync_locked(&mut w)?;
        let lsn = w.lsn;
        // The newest *older* snapshot that validates end-to-end (manifest
        // + blob CRCs + epochs) serves two roles: its blobs are reused for
        // documents whose epoch is unchanged (incremental checkpointing),
        // and it is the retention floor — a bit-rotted snapshot must
        // neither contribute blobs nor retire the WAL records (and the
        // older good snapshot) that real fallback needs.
        let prev = list_snapshots(&self.dir)?
            .into_iter()
            .filter(|&(l, _)| l < lsn)
            .find_map(|(l, path)| validated_manifest(l, &path).map(|m| (l, path, m)));
        let write = write_snapshot(
            &self.dir,
            &self.store,
            lsn,
            prev.as_ref().map(|(_, path, m)| (path.as_path(), m)),
        )?;
        let floor = prev.as_ref().map_or(0, |&(l, _, _)| l);
        self.drop_wal_prefix(&mut w, floor)?;
        prune_snapshots(&self.dir, floor);
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.store.registry().event(
            "checkpoint",
            format!(
                "lsn {lsn}: {} docs ({} fresh, {} reused), {} bytes",
                write.docs, write.fresh_docs, write.reused_docs, write.bytes
            ),
        );
        Ok(CheckpointInfo {
            lsn,
            docs: write.docs,
            bytes: write.bytes,
            fresh_docs: write.fresh_docs,
            reused_docs: write.reused_docs,
        })
    }

    /// Rewrite the WAL without its retired prefix (records with
    /// `lsn <= keep_after` — covered by every retained snapshot), via a
    /// durable tmp-file + rename swap. No-op when nothing is retired.
    fn drop_wal_prefix(&self, w: &mut WalState, keep_after: u64) -> Result<()> {
        let dir = &self.dir;
        let wal_path = dir.join("wal.log");
        let bytes = fs::read(&wal_path)?;
        // Records are LSN-ordered in the file, so the retired part is a
        // byte prefix; walk record framing (payload blocks skipped, not
        // parsed — the file is our own, synced output) until the first
        // record past `keep_after`.
        let mut cut = WAL_HEADER.len();
        while cut < bytes.len() {
            match crate::codec::skip_record(&bytes[cut..]) {
                Some((lsn, used)) if lsn <= keep_after => cut += used,
                _ => break,
            }
        }
        if cut == WAL_HEADER.len() {
            return Ok(()); // nothing retired
        }
        let tmp_path = dir.join("wal.log.tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(WAL_HEADER.as_bytes())?;
        tmp.write_all(&bytes[cut..])?;
        tmp.sync_all()?;
        // `tmp` (cursor already at end) becomes the writer handle *before*
        // the rename: once the rename unlinks the old inode there must be
        // no failure window in which the writer could keep appending
        // acknowledged, fsynced edits to a file nothing will ever read
        // again. If the rename fails, the old file is untouched and the
        // old handle stays in place.
        fs::rename(&tmp_path, &wal_path)?;
        w.file = tmp;
        w.len = (WAL_HEADER.len() + (bytes.len() - cut)) as u64;
        w.dirty = 0;
        // Every byte offset the tail cache learned describes the unlinked
        // file; bump the epoch (still under the WAL mutex) so tailers
        // re-scan once and re-learn positions in the rewritten log.
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.store.registry().event("wal.rotate", format!("retired through lsn {keep_after}"));
        sync_dir(dir)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Tail fetches served from the offset cache (seek instead of a whole
    /// -file scan) since this store was opened.
    pub fn tail_cache_hits(&self) -> u64 {
        self.counters.tail_cache_hits.load(Ordering::Relaxed)
    }

    /// Tail fetches that fell back to a whole-file scan (first fetch per
    /// follower; any cache anomaly or rotation).
    pub fn tail_cache_misses(&self) -> u64 {
        self.counters.tail_cache_misses.load(Ordering::Relaxed)
    }

    /// [`Store::stats`] plus the WAL / checkpoint / recovery counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.store.stats();
        s.wal_appends = self.counters.wal_appends.load(Ordering::Relaxed);
        s.wal_bytes = self.counters.wal_bytes.load(Ordering::Relaxed);
        s.wal_fsyncs = self.counters.wal_fsyncs.load(Ordering::Relaxed);
        s.checkpoints = self.counters.checkpoints.load(Ordering::Relaxed);
        s.replayed_ops = self.recovery.replayed_ops;
        s.recovered_docs = self.recovery.recovered_docs as u64;
        s.tail_cache_hits = self.counters.tail_cache_hits.load(Ordering::Relaxed);
        s.tail_cache_misses = self.counters.tail_cache_misses.load(Ordering::Relaxed);
        s
    }

    /// The metric registry shared with the wrapped store (the layers
    /// above — replication, clustering — hang their metrics here too).
    pub fn registry(&self) -> &Arc<Registry> {
        self.store.registry()
    }
}

/// Append `cx_fault_hits_total` / `cx_fault_fires_total` series — one
/// pair per configured failpoint site — to an exposition page. The
/// failpoint registry is process-global (sites are reached from any
/// layer), so callers emit this once per page rather than once per
/// store; the cluster exposition does.
pub fn expose_faults(out: &mut Exposition) {
    for s in cxfault::site_stats() {
        out.write_with("cx_fault_hits_total", &[("site", &s.site)], s.hits);
        out.write_with("cx_fault_fires_total", &[("site", &s.site)], s.fires);
    }
}

impl Observable for DurableStore {
    /// The durable stats snapshot (WAL, checkpoint, recovery, and tail
    /// -cache counters included) plus every registry metric.
    fn expose_into(&self, out: &mut Exposition) {
        self.stats().expose_into(out);
        self.store.registry().expose_into(out);
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // Best-effort flush of anything a lazy policy left unsynced.
        let mut w = lock(&self.wal);
        let _ = self.sync_locked(&mut w);
    }
}

// Poison-tolerant: the checkpoint gate guards `()` — there is no data a
// panicked holder could have half-written; the lock exists purely to
// order mutators against checkpoints.
fn read_gate(gate: &RwLock<()>) -> std::sync::RwLockReadGuard<'_, ()> {
    gate.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_gate(gate: &RwLock<()>) -> std::sync::RwLockWriteGuard<'_, ()> {
    gate.write().unwrap_or_else(PoisonError::into_inner)
}
