//! Checkpointed recovery: epoch-aligned snapshots and a write-ahead
//! checkpoint log.
//!
//! Snapshots align with the runtime's watermark epochs (the same
//! boundaries runtime reconfiguration swaps plans at — see
//! [`crate::control`]). A single-threaded session loop needs no barrier
//! to align them: after every `interval`-th watermark has been processed
//! by every stage, the loop itself is the consistent cut. It collects
//! each stateful operator's exact state (RNG stream positions, sorter
//! buffers, temporal-polluter heaps, …) into a [`CheckpointFrame`],
//! together with the source offset and how many records it had handed
//! out, and commits the frame to the run's [`CheckpointStore`], which
//! appends it to a versioned write-ahead log when a directory is
//! configured (length-prefixed frames + CRC32, the same codec shape as
//! [`crate::net`]).
//!
//! On a supervised retry the runner restores the latest *complete*
//! frame instead of restarting from tuple zero: the output is truncated
//! to the committed prefix, operator state is restored, and the
//! (replayable) source resumes from the recorded offset. The
//! non-negotiable invariant is that recovered output is byte-identical
//! to an undisturbed run, which is why snapshots capture RNG positions
//! exactly rather than re-seeding.

use icewafl_types::{Error, Result, Timestamp};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamped into every WAL header and frame.
///
/// 2: the sorter's state document lists every held record in release
/// order (keys are re-extracted on restore), and a sub-stream's
/// `log_len` counts its own log segment rather than a log shared by all
/// sub-streams.
///
/// 3: a polluter's state document carries its statistics as one
/// `counts` object instead of staged and cumulative halves.
///
/// A log of an older version would restore to different bytes or
/// statistics, so [`CheckpointStore::read_wal`] refuses it.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Magic bytes opening a checkpoint log file.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"IWCK";

/// Largest accepted frame payload (a corrupt length prefix must not
/// trigger a giant allocation).
pub(crate) const MAX_CHECKPOINT_FRAME_BYTES: usize = 64 << 20;

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

/// Watermark-generator position at a checkpoint, captured so a replayed
/// source resumes the exact emission cadence (`seen` drives the
/// periodic trigger; `last_emitted` the monotonicity filter).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WatermarkGenState {
    /// Maximum event timestamp observed (millis).
    pub(crate) max_ts: i64,
    /// Records seen by the generator.
    pub(crate) seen: u64,
    /// Last emitted watermark (millis), if any.
    pub(crate) last_emitted: Option<i64>,
}

/// One complete, committed checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointFrame {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The epoch this checkpoint closed (1-based).
    pub epoch: u64,
    /// The watermark the checkpoint was aligned to.
    pub watermark: Timestamp,
    /// Records the source had emitted when the checkpoint was taken —
    /// the replay offset.
    pub source_offset: u64,
    /// Records handed out when the checkpoint was taken — the point a
    /// restore truncates the output to.
    pub sink_committed: u64,
    /// Source watermark-generator position.
    pub wm_state: WatermarkGenState,
    /// Per-operator state contributions (typed JSON documents), keyed
    /// by stable operator key (`substream_0`, `chaos_0`, `sorter`, …).
    pub states: BTreeMap<String, String>,
}

/// Holds the latest complete checkpoint of a run and (optionally) the
/// on-disk write-ahead log; shared across supervised attempts.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    latest: Mutex<Option<CheckpointFrame>>,
    taken: AtomicU64,
    wal: Option<Mutex<BufWriter<File>>>,
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
        })
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
pub(crate) fn crc32(data: &[u8]) -> u32 {
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

    fn frame(epoch: u64, sink_committed: u64) -> CheckpointFrame {
        CheckpointFrame {
            version: CHECKPOINT_VERSION,
            epoch,
            watermark: Timestamp(10 * epoch as i64),
            source_offset: 4 * epoch,
            sink_committed,
            wm_state: WatermarkGenState {
                max_ts: 1_000,
                seen: 4 * epoch,
                last_emitted: Some(900),
            },
            states: BTreeMap::from([("substream_0".to_string(), format!("{{\"epoch\":{epoch}}}"))]),
        }
    }

    #[test]
    fn wal_round_trips_frames() {
        let dir = std::env::temp_dir().join(format!("icewafl-ckpt-{}", std::process::id()));
        let path = dir.join("round_trip.ckpt");
        let st = CheckpointStore::with_wal(&path).unwrap();
        for i in 1..=3u64 {
            st.commit(frame(i, 3 * i));
        }
        assert_eq!(st.checkpoints_taken(), 3);
        assert_eq!(st.latest().unwrap().epoch, 3);
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
        let st = CheckpointStore::with_wal(&path).unwrap();
        for i in 1..=2u64 {
            st.commit(frame(i, i));
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
            matches!(&err, Error::Io(m) if m.contains(&format!("version {}", CHECKPOINT_VERSION - 1))),
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
