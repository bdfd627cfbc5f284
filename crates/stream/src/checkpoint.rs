//! Checkpointed recovery: epoch-aligned snapshots and a write-ahead
//! checkpoint log.
//!
//! The subsystem follows the classic asynchronous-barrier-snapshot
//! design, specialised to this runtime's watermark-aligned epochs
//! (the same boundaries runtime reconfiguration swaps plans at — see
//! [`crate::control`]): a [`CheckpointBarrier`] is injected by the
//! source driver right after every `interval`-th watermark and flows
//! through every stage as a regular [`StreamElement::Barrier`]
//! control element. Each stateful operator contributes its exact state
//! to the barrier's shared `PendingCheckpoint` as the barrier passes
//! (RNG stream positions, sorter buffers, temporal-polluter heaps, …);
//! the sink-side committer finalises the frame — recording how many
//! records it had written — into the run's [`CheckpointStore`] and,
//! when a directory is configured, appends it to a versioned
//! write-ahead log (length-prefixed frames + CRC32,
//! the same codec shape as [`crate::net`]).
//!
//! On a supervised retry the runner restores the latest *complete*
//! frame instead of restarting from tuple zero: the sink is truncated
//! to the committed prefix, operator state is restored, and the
//! (replayable) source resumes from the recorded offset. The
//! non-negotiable invariant is that recovered output is byte-identical
//! to an undisturbed run, which is why snapshots capture RNG positions
//! exactly rather than re-seeding.
//!
//! [`StreamElement::Barrier`]: crate::element::StreamElement::Barrier

use icewafl_types::{Error, Result, Timestamp};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamped into every WAL header and frame.
///
/// 2: the sorter's state document lists every held record in release
/// order (keys are re-extracted on restore), and a sub-stream's
/// `log_len` counts its own log segment rather than a log shared by all
/// sub-streams. A version-1 log would restore to different bytes, so
/// [`CheckpointStore::read_wal`] refuses it.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Magic bytes opening a checkpoint log file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"IWCK";

/// Largest accepted frame payload (a corrupt length prefix must not
/// trigger a giant allocation).
pub const MAX_CHECKPOINT_FRAME_BYTES: usize = 64 << 20;

/// Operators that can capture and restore their exact runtime state.
///
/// `snapshot_state` must capture *everything* that influences future
/// output — RNG stream positions, buffered records, pending counters —
/// because the recovery invariant is byte-identical output, not
/// approximate resumption. Stateless operators keep the defaults.
///
/// State travels as a *typed* JSON document (each implementor
/// serialises its own state struct), never as a dynamic
/// `serde_json::Value`: the dynamic value stores all numbers as `f64`,
/// which would silently corrupt 64-bit RNG state words.
pub trait StateSnapshot {
    /// This operator's complete state as a JSON document, or `None`
    /// when stateless.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`StateSnapshot::snapshot_state`] on
    /// a freshly built instance of the same configuration.
    fn restore_state(&mut self, state: &str) -> Result<()> {
        let _ = state;
        Ok(())
    }
}

/// Watermark-generator position at a barrier, captured so a replayed
/// source resumes the exact emission cadence (`seen` drives the
/// periodic trigger; `last_emitted` the monotonicity filter).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WatermarkGenState {
    /// Maximum event timestamp observed (millis).
    pub max_ts: i64,
    /// Records seen by the generator.
    pub seen: u64,
    /// Last emitted watermark (millis), if any.
    pub last_emitted: Option<i64>,
}

/// One complete, committed checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointFrame {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The epoch this barrier closed (1-based).
    pub epoch: u64,
    /// The watermark the barrier was aligned to.
    pub watermark: Timestamp,
    /// Records the source had emitted when the barrier was injected —
    /// the replay offset.
    pub source_offset: u64,
    /// Records the sink had committed when the barrier arrived — the
    /// truncation point for shared sinks on restore.
    pub sink_committed: u64,
    /// Source watermark-generator position.
    pub wm_state: WatermarkGenState,
    /// Per-operator state contributions (typed JSON documents), keyed
    /// by stable operator key (`substream_0`, `chaos_0`, `sorter`, …).
    pub states: BTreeMap<String, String>,
}

/// In-flight snapshot shared by every clone of one barrier.
#[derive(Debug)]
struct PendingCheckpoint {
    epoch: u64,
    watermark: Timestamp,
    source_offset: u64,
    wm_state: WatermarkGenState,
    states: Mutex<BTreeMap<String, String>>,
    store: Arc<CheckpointStore>,
}

/// The control element injected at epoch boundaries.
///
/// Clones share one `PendingCheckpoint`, so contributions from
/// fanned-out sub-streams all land in the same frame.
#[derive(Debug, Clone)]
pub struct CheckpointBarrier {
    pending: Arc<PendingCheckpoint>,
}

impl PartialEq for CheckpointBarrier {
    /// Two barriers are equal iff they are clones of the same injection
    /// (they share one `PendingCheckpoint`).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.pending, &other.pending)
    }
}

impl CheckpointBarrier {
    /// The epoch this barrier closes (1-based).
    pub fn epoch(&self) -> u64 {
        self.pending.epoch
    }

    /// The watermark this barrier rides behind.
    pub fn watermark(&self) -> Timestamp {
        self.pending.watermark
    }

    /// The source replay offset captured at injection.
    pub fn source_offset(&self) -> u64 {
        self.pending.source_offset
    }

    /// Records an operator's state contribution under `key`. Keys must
    /// be unique per operator; the last write wins.
    pub fn contribute(&self, key: impl Into<String>, state: String) {
        self.pending.states.lock().insert(key.into(), state);
    }

    /// Sink-side commit: finalises the frame with the number of records
    /// the sink had written and hands it to the [`CheckpointStore`]
    /// (which appends it to the WAL when one is open).
    pub fn commit(&self, sink_committed: u64) {
        let frame = CheckpointFrame {
            version: CHECKPOINT_VERSION,
            epoch: self.pending.epoch,
            watermark: self.pending.watermark,
            source_offset: self.pending.source_offset,
            sink_committed,
            wm_state: self.pending.wm_state.clone(),
            states: self.pending.states.lock().clone(),
        };
        self.pending.store.commit(frame);
    }
}

/// Decides when barriers are injected and builds them.
///
/// Lives in the source driver: counts watermarks and, after every
/// `interval`-th one, emits a barrier capturing the source offset and
/// watermark-generator position at that instant.
pub struct CheckpointCoordinator {
    store: Arc<CheckpointStore>,
    interval: u64,
    next_epoch: u64,
    wms_since: u64,
}

impl CheckpointCoordinator {
    /// A coordinator checkpointing every `interval_epochs` watermarks
    /// (clamped to ≥ 1), numbering epochs from `start_epoch + 1`.
    pub fn new(store: Arc<CheckpointStore>, interval_epochs: u64, start_epoch: u64) -> Self {
        CheckpointCoordinator {
            store,
            interval: interval_epochs.max(1),
            next_epoch: start_epoch + 1,
            wms_since: 0,
        }
    }

    /// Called by the source driver after pushing watermark `wm`;
    /// returns a barrier to inject when this watermark closes an epoch.
    /// `source_offset` is the *absolute* record offset (including any
    /// replayed prefix); the terminal `Timestamp::MAX` watermark never
    /// triggers a barrier.
    pub fn on_watermark(
        &mut self,
        wm: Timestamp,
        source_offset: u64,
        wm_state: WatermarkGenState,
    ) -> Option<CheckpointBarrier> {
        if wm == Timestamp::MAX {
            return None;
        }
        self.wms_since += 1;
        if self.wms_since < self.interval {
            return None;
        }
        self.wms_since = 0;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        Some(CheckpointBarrier {
            pending: Arc::new(PendingCheckpoint {
                epoch,
                watermark: wm,
                source_offset,
                wm_state,
                states: Mutex::new(BTreeMap::new()),
                store: Arc::clone(&self.store),
            }),
        })
    }
}

/// Holds the latest complete checkpoint of a run and (optionally) the
/// on-disk write-ahead log; shared across supervised attempts.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    latest: Mutex<Option<CheckpointFrame>>,
    taken: AtomicU64,
    wal: Option<Mutex<BufWriter<File>>>,
    wal_path: Option<PathBuf>,
}

impl CheckpointStore {
    /// An in-memory store (no WAL).
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// A store appending every committed frame to `path` (the file is
    /// created with a magic + version header; an existing file is
    /// truncated — recover from it *first* via
    /// [`CheckpointStore::read_wal`]).
    pub fn with_wal(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| Error::Io(e.to_string()))?;
            }
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Io(e.to_string()))?;
        let mut w = BufWriter::new(file);
        w.write_all(&CHECKPOINT_MAGIC)
            .and_then(|_| w.write_all(&CHECKPOINT_VERSION.to_le_bytes()))
            .and_then(|_| w.flush())
            .map_err(|e| Error::Io(e.to_string()))?;
        Ok(CheckpointStore {
            latest: Mutex::new(None),
            taken: AtomicU64::new(0),
            wal: Some(Mutex::new(w)),
            wal_path: Some(path.to_path_buf()),
        })
    }

    /// Path of the WAL file, when one is open.
    pub fn wal_path(&self) -> Option<&Path> {
        self.wal_path.as_deref()
    }

    /// Commits a completed frame: appends it to the WAL (when open),
    /// then publishes it as the latest restore point. WAL write errors
    /// are swallowed after poisoning nothing — a failed checkpoint
    /// must never fail the run, it only forfeits the restore point.
    pub fn commit(&self, frame: CheckpointFrame) {
        if let Some(wal) = &self.wal {
            let payload = match serde_json::to_string(&frame) {
                Ok(p) => p.into_bytes(),
                Err(_) => return,
            };
            let mut w = wal.lock();
            let ok = w
                .write_all(&(payload.len() as u32).to_le_bytes())
                .and_then(|_| w.write_all(&crc32(&payload).to_le_bytes()))
                .and_then(|_| w.write_all(&payload))
                .and_then(|_| w.flush());
            if ok.is_err() {
                return;
            }
        }
        self.taken.fetch_add(1, Ordering::Relaxed);
        *self.latest.lock() = Some(frame);
    }

    /// The latest complete frame, if any checkpoint committed yet.
    pub fn latest(&self) -> Option<CheckpointFrame> {
        self.latest.lock().clone()
    }

    /// Number of checkpoints committed through this store.
    pub fn checkpoints_taken(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }

    /// Reads every intact frame from a WAL file, stopping at the first
    /// truncated or corrupt record (a torn tail from a crash is
    /// expected, not an error). Fails only when the header itself is
    /// unreadable or from a different version.
    pub fn read_wal(path: impl AsRef<Path>) -> Result<Vec<CheckpointFrame>> {
        let mut file = File::open(path.as_ref()).map_err(|e| Error::Io(e.to_string()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| Error::Io(e.to_string()))?;
        if bytes.len() < 8 || bytes[..4] != CHECKPOINT_MAGIC {
            return Err(Error::Io("not a checkpoint log (bad magic)".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(Error::Io(format!(
                "checkpoint log version {version} (supported: {CHECKPOINT_VERSION})"
            )));
        }
        let mut frames = Vec::new();
        let mut at = 8usize;
        while let Some(header) = bytes.get(at..at + 8) {
            let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len > MAX_CHECKPOINT_FRAME_BYTES {
                break;
            }
            let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            let Ok(text) = std::str::from_utf8(payload) else {
                break;
            };
            let Ok(frame) = serde_json::from_str::<CheckpointFrame>(text) else {
                break;
            };
            frames.push(frame);
            at += 8 + len;
        }
        Ok(frames)
    }

    /// The last intact frame of a WAL file — the restore point a fresh
    /// process resumes from.
    pub fn recover_latest(path: impl AsRef<Path>) -> Result<Option<CheckpointFrame>> {
        Ok(Self::read_wal(path)?.pop())
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new())
    }

    fn wm_state(seen: u64) -> WatermarkGenState {
        WatermarkGenState {
            max_ts: 1_000,
            seen,
            last_emitted: Some(900),
        }
    }

    #[test]
    fn coordinator_injects_every_interval() {
        let st = store();
        let mut c = CheckpointCoordinator::new(Arc::clone(&st), 2, 0);
        assert!(c.on_watermark(Timestamp(10), 5, wm_state(5)).is_none());
        let b = c.on_watermark(Timestamp(20), 9, wm_state(9)).unwrap();
        assert_eq!(b.epoch(), 1);
        assert_eq!(b.source_offset(), 9);
        assert!(c.on_watermark(Timestamp(30), 12, wm_state(12)).is_none());
        let b2 = c.on_watermark(Timestamp(40), 15, wm_state(15)).unwrap();
        assert_eq!(b2.epoch(), 2);
        // The terminal watermark never opens a barrier.
        assert!(c.on_watermark(Timestamp::MAX, 20, wm_state(20)).is_none());
    }

    #[test]
    fn barrier_contributions_land_in_committed_frame() {
        let st = store();
        let mut c = CheckpointCoordinator::new(Arc::clone(&st), 1, 0);
        let b = c.on_watermark(Timestamp(10), 4, wm_state(4)).unwrap();
        let clone = b.clone();
        b.contribute("substream_0", "{\"rng\":[1,2,3,4]}".to_string());
        clone.contribute("sorter", "[7]".to_string());
        b.commit(3);
        let frame = st.latest().unwrap();
        assert_eq!(frame.epoch, 1);
        assert_eq!(frame.source_offset, 4);
        assert_eq!(frame.sink_committed, 3);
        assert_eq!(frame.states.len(), 2);
        assert_eq!(frame.states["sorter"], "[7]");
        assert_eq!(st.checkpoints_taken(), 1);
    }

    #[test]
    fn start_epoch_continues_numbering() {
        let st = store();
        let mut c = CheckpointCoordinator::new(st, 1, 7);
        let b = c.on_watermark(Timestamp(10), 1, wm_state(1)).unwrap();
        assert_eq!(b.epoch(), 8);
    }

    #[test]
    fn wal_round_trips_frames() {
        let dir = std::env::temp_dir().join(format!("icewafl-ckpt-{}", std::process::id()));
        let path = dir.join("round_trip.ckpt");
        let st = Arc::new(CheckpointStore::with_wal(&path).unwrap());
        let mut c = CheckpointCoordinator::new(Arc::clone(&st), 1, 0);
        for i in 1..=3u64 {
            let b = c
                .on_watermark(Timestamp(10 * i as i64), 4 * i, wm_state(4 * i))
                .unwrap();
            b.contribute("substream_0", format!("{{\"epoch\":{i}}}"));
            b.commit(3 * i);
        }
        let frames = CheckpointStore::read_wal(&path).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2].epoch, 3);
        assert_eq!(frames[2].sink_committed, 9);
        assert_eq!(
            CheckpointStore::recover_latest(&path).unwrap().unwrap(),
            frames[2]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_tolerates_torn_tail_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("icewafl-ckpt-torn-{}", std::process::id()));
        let path = dir.join("torn.ckpt");
        let st = Arc::new(CheckpointStore::with_wal(&path).unwrap());
        let mut c = CheckpointCoordinator::new(Arc::clone(&st), 1, 0);
        for i in 1..=2u64 {
            c.on_watermark(Timestamp(i as i64), i, wm_state(i))
                .unwrap()
                .commit(i);
        }
        drop(st);
        // Torn tail: truncate mid-frame — the intact prefix survives.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(CheckpointStore::read_wal(&path).unwrap().len(), 1);
        // Bit flip in the payload: CRC rejects the frame.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 5;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(CheckpointStore::read_wal(&path).unwrap().len(), 1);
        // Bad magic: hard error.
        std::fs::write(&path, b"nope").unwrap();
        assert!(CheckpointStore::read_wal(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_from_an_older_version_is_refused() {
        let dir = std::env::temp_dir().join(format!("icewafl-ckpt-old-{}", std::process::id()));
        let path = dir.join("old.ckpt");
        drop(CheckpointStore::with_wal(&path).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(CHECKPOINT_VERSION - 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = CheckpointStore::read_wal(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Io(m) if m.contains("version 1")),
            "expected a version error, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
