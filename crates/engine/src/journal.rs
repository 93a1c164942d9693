//! The engine's per-run checkpoint journal — resumable ingest.
//!
//! A journaled run owns a *run directory*:
//!
//! ```text
//! run/
//!   manifest.json         # run identity: config/dataset fingerprints + knobs
//!   journal.log           # append-only, checksummed ClipRecord lines
//!   clips/clip_<id>.json  # Vec<Track>: the clip's extracted tracks
//! ```
//!
//! Every clip that completes is *checkpointed*: its track payload is
//! committed into `clips/`, and only then is one checksummed
//! [`ClipRecord`] line appended to `journal.log` — the acknowledgement
//! point of the durability layer shared with the track store
//! ([`otif_core::durable`], DESIGN.md §13). Every valid journal record
//! therefore refers to a recoverable payload.
//!
//! Unlike the store's ingest journal, run-journal records are keyed by
//! **clip index**, not by a dense id sequence: the track stages of
//! different streams checkpoint concurrently, so append *order* is
//! nondeterministic run to run. [`replay`] is therefore
//! order-insensitive and duplicate-tolerant — the first valid record
//! per clip wins — and a corrupt mid-journal line invalidates only
//! itself (each line carries its own checksum), never the suffix.
//!
//! Resume determinism: a [`ClipRecord`] carries everything the engine
//! needs to *ghost-replay* the clip without recomputing it — the final
//! per-component ledger totals and the per-frame charge deltas as exact
//! `f64` bit patterns, the detector window sizes per frame (what the
//! cross-stream batcher rounds are a function of), and the surrogate
//! digest. Re-charging recorded per-frame deltas would not reproduce
//! ledger bits (IEEE addition does not round-trip through deltas), so
//! the scheduler instead charges each recorded component *total* once
//! ([`otif_cv::CostLedger::charge_slice_bits`]) and pre-populates the
//! clip's timeline with the recorded delta bits — the downstream
//! absorb/replay then see bit-identical `f64`s in the identical order
//! an uninterrupted run produces.

use crate::timeline::ClipTimeline;
use otif_core::durable::{self, Line};
use otif_core::fnv1a;
use otif_cv::{Component, CostLedger};
use otif_track::Track;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the run journal inside a run directory.
pub const RUN_JOURNAL_FILE: &str = "journal.log";
/// File name of the run manifest inside a run directory.
pub const RUN_MANIFEST_FILE: &str = "manifest.json";
/// Subdirectory holding checkpointed track payloads.
pub const RUN_CLIPS_DIR: &str = "clips";

/// The run directory's filesystem seam — the engine-side twin of
/// `otif-serve`'s `StoreIo` (the engine cannot depend on the serving
/// tier), with `io::Error` in place of the store's typed errors. Every
/// method defaults to the real filesystem through
/// [`otif_core::durable`]; a wrapper overrides what it intercepts. The
/// chaos bench adapts the serve tier's `FaultyIo` onto this trait to
/// reuse its deterministic `(operation, ordinal)` fault plans.
pub trait RunIo: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        durable::read(path)
    }
    /// Create/truncate `path`, write `bytes`, fsync.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        durable::write(path, bytes)
    }
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        durable::rename(from, to)
    }
    /// Append `bytes` to `path` (creating it if needed), fsync.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        durable::append(path, bytes)
    }
    /// Create a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        durable::create_dir_all(path)
    }
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    /// Fsync a directory, making renames and file creations in it
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        durable::sync_dir(dir)
    }
}

/// The production [`RunIo`]: the real filesystem, through the trait's
/// [`otif_core::durable`] defaults.
#[derive(Debug, Default)]
pub struct RealRunIo;

impl RunIo for RealRunIo {}

/// Durably replace `path` with `bytes`: tmp write + fsync, atomic
/// rename, then an fsync of the directory so the rename survives a
/// crash.
fn commit(io: &dyn RunIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = durable::tmp_path(path);
    io.write(&tmp, bytes)?;
    io.rename(&tmp, path)?;
    io.sync_dir(durable::parent_dir(path))
}

/// Run identity, persisted as `manifest.json`. A resume must present a
/// bitwise-equal manifest: everything listed here shapes either the
/// per-clip results, the ledger bits, or the batcher rounds — resuming
/// under different knobs would silently produce a Frankenstein run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Journal format version.
    pub version: u32,
    /// FNV-1a over the serialized `OtifConfig`, `CostModel` and the
    /// detector seed — everything that shapes per-clip results and
    /// charges.
    pub config_fingerprint: u64,
    /// FNV-1a over the clip list's identity (count plus per-clip id,
    /// seed, frame count and scene dimensions).
    pub dataset_fingerprint: u64,
    /// Number of clips in the run.
    pub clips: usize,
    /// Stream count (fixes the round-robin assignment and the batcher
    /// watermark, hence the launch charges).
    pub streams: usize,
    /// Admitted-stream cap (fixes which streams batch together, hence
    /// the round sequence). Unlimited runs store the resolved value
    /// (`streams` — every stream admitted).
    pub max_active_streams: usize,
    /// Batcher chunk bound (fixes round chunking, hence launch charges).
    pub max_batch: usize,
    /// Decode prefetch window (fixes the reported makespan/stalls).
    pub prefetch_frames: usize,
    /// Detector execution mode label (fixes whether digests are folded).
    pub detector_exec: String,
}

/// Per-frame recording inside a [`ClipRecord`]. All simulated-seconds
/// fields are exact `f64` bit patterns (`f64::to_bits`), so a resumed
/// run replays them without any floating-point round trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Decode charge delta bits.
    pub decode: u64,
    /// Window-selection charge delta bits.
    pub window: u64,
    /// Detector pixel charge bits; `None` for frames with no windows
    /// (they submitted no batcher ticket).
    pub detect_px: Option<u64>,
    /// Rounded detector window sizes — what the frame's batcher ticket
    /// carried; reproducing these reproduces the round chunking.
    pub sizes: Vec<(u32, u32)>,
    /// Tracker step charge delta bits.
    pub track: u64,
}

/// One checkpointed clip: everything needed to skip recomputation on
/// resume while keeping the final ledgers, stats, rounds and digests
/// bitwise identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClipRecord {
    /// Global clip index within the run.
    pub clip: usize,
    /// FNV-1a over the serialized track payload in `clips/`; verified
    /// on resume — a mismatch drops the record and recomputes the clip.
    pub fingerprint: u64,
    /// Final per-component ledger totals as `(component, f64 bits)`.
    pub ledger: Vec<(Component, u64)>,
    /// Per-frame recordings in sampled-frame ordinal order. Empty for
    /// clips that completed via the sequential retry path (`retried`).
    pub frames: Vec<FrameRecord>,
    /// Clip finalization charge delta bits.
    pub finalize: u64,
    /// The clip's surrogate detector digest (0 when execution is off).
    pub detect_digest: u64,
    /// Whether the clip completed through the sequential retry path
    /// (after an in-stream failure) rather than in-stream. Retried
    /// clips carry no frame recordings and are resumed without
    /// streaming.
    pub retried: bool,
    /// Retry attempts this clip consumed (0 unless `retried`).
    pub retry_attempts: u64,
    /// Virtual retry backoff seconds this clip accrued, as bits.
    pub retry_backoff: u64,
}

impl ClipRecord {
    /// Reconstruct the clip's [`ClipTimeline`] from the recorded bits —
    /// what the scheduler pre-populates before spawning ghost stages.
    pub(crate) fn timeline(&self) -> ClipTimeline {
        ClipTimeline {
            decode: self
                .frames
                .iter()
                .map(|f| f64::from_bits(f.decode))
                .collect(),
            window: self
                .frames
                .iter()
                .map(|f| f64::from_bits(f.window))
                .collect(),
            detect_px: self
                .frames
                .iter()
                .map(|f| f.detect_px.map(f64::from_bits))
                .collect(),
            sizes: self.frames.iter().map(|f| f.sizes.clone()).collect(),
            track: self
                .frames
                .iter()
                .map(|f| f64::from_bits(f.track))
                .collect(),
            finalize: f64::from_bits(self.finalize),
            detect_digest: self.detect_digest,
        }
    }
}

/// Encode one journal record as a checksummed durable line.
pub fn encode_record(record: &ClipRecord) -> io::Result<Vec<u8>> {
    let body = serde_json::to_string(record)
        .map_err(|e| io::Error::other(format!("run-journal encode: {e}")))?;
    Ok(durable::encode_line(&body))
}

/// Outcome of replaying run-journal bytes.
#[derive(Debug, Default)]
pub struct RunReplay {
    /// First valid record per clip index, in clip order.
    pub records: BTreeMap<usize, ClipRecord>,
    /// Valid records that re-acknowledged an already-seen clip (their
    /// content is ignored — replay is idempotent).
    pub duplicates: usize,
    /// Whether the journal ends in crash debris (a final line that is
    /// unterminated or fails its checksum).
    pub torn_tail: bool,
    /// Complete, newline-terminated mid-journal lines that failed their
    /// checksum or did not parse. Each invalidates only itself: every
    /// line is independently checksummed, so later records stay
    /// trusted.
    pub invalid_records: usize,
}

impl RunReplay {
    /// Whether the journal is pristine: every byte belongs to a valid,
    /// non-duplicate record.
    pub fn clean(&self) -> bool {
        !self.torn_tail && self.invalid_records == 0
    }
}

/// Replay raw run-journal bytes: order-insensitive, duplicate-tolerant,
/// per-line checksummed. A bad *final* line (unterminated, or failing
/// its checksum) is a torn tail — expected crash debris; a bad line
/// with valid lines after it counts as one invalid record and is
/// skipped.
pub fn replay(bytes: &[u8]) -> RunReplay {
    let mut out = RunReplay::default();
    for (line, _) in durable::scan(bytes, |body| serde_json::from_str::<ClipRecord>(body).ok()) {
        match line {
            Line::Valid(record) => match out.records.entry(record.clip) {
                Entry::Vacant(slot) => {
                    slot.insert(record);
                }
                Entry::Occupied(_) => out.duplicates += 1,
            },
            Line::Invalid => out.invalid_records += 1,
            Line::TornTail => out.torn_tail = true,
        }
    }
    out
}

fn clip_file_name(id: usize) -> String {
    format!("clip_{id}.json")
}

/// A live run journal: the durable checkpoint sink of one engine run.
/// `checkpoint` is called concurrently by every stream's track stage;
/// an internal lock serializes the payload-rename + journal-append pair
/// so records stay line-atomic.
pub struct RunJournal {
    dir: PathBuf,
    io: Arc<dyn RunIo>,
    commit: Mutex<()>,
}

impl RunJournal {
    /// Create a fresh run directory at `dir` (manifest written
    /// atomically, journal created durably). An existing journal there
    /// is an error — resume it instead.
    pub fn create(
        dir: &Path,
        io: Arc<dyn RunIo>,
        manifest: &RunManifest,
    ) -> io::Result<RunJournal> {
        let journal_path = dir.join(RUN_JOURNAL_FILE);
        if io.exists(&journal_path) {
            return Err(io::Error::other(format!(
                "{} already exists; resume it with --resume instead",
                journal_path.display()
            )));
        }
        io.create_dir_all(&dir.join(RUN_CLIPS_DIR))?;
        let json = serde_json::to_string_pretty(manifest)
            .map_err(|e| io::Error::other(format!("manifest encode: {e}")))?;
        commit(&*io, &dir.join(RUN_MANIFEST_FILE), json.as_bytes())?;
        io.append(&journal_path, b"")?;
        // the new journal's entry, then the run directory's own
        io.sync_dir(dir)?;
        io.sync_dir(durable::parent_dir(dir))?;
        Ok(RunJournal {
            dir: dir.to_path_buf(),
            io,
            commit: Mutex::new(()),
        })
    }

    /// Open an existing run directory and replay its journal. The
    /// stored manifest must equal `expected` — a mismatch means the
    /// caller is resuming under different inputs or knobs, which would
    /// splice incompatible checkpoints into the run.
    pub fn open(
        dir: &Path,
        io: Arc<dyn RunIo>,
        expected: &RunManifest,
    ) -> io::Result<(RunJournal, RunReplay)> {
        let manifest_path = dir.join(RUN_MANIFEST_FILE);
        let bytes = self::read_or(&*io, &manifest_path, "run manifest")?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| io::Error::other(format!("{}: {e}", manifest_path.display())))?;
        let stored: RunManifest = serde_json::from_str(text)
            .map_err(|e| io::Error::other(format!("{}: {e}", manifest_path.display())))?;
        if &stored != expected {
            return Err(io::Error::other(format!(
                "{}: run manifest does not match this invocation \
                 (stored {stored:?}, expected {expected:?}); a run can only be \
                 resumed with the same dataset, config and engine knobs",
                manifest_path.display()
            )));
        }
        let journal_path = dir.join(RUN_JOURNAL_FILE);
        let replayed = replay(&self::read_or(&*io, &journal_path, "run journal")?);
        Ok((
            RunJournal {
                dir: dir.to_path_buf(),
                io,
                commit: Mutex::new(()),
            },
            replayed,
        ))
    }

    /// Durably checkpoint one completed clip: payload commit into
    /// `clips/`, then the checksummed journal append — the
    /// acknowledgement point.
    pub fn checkpoint(&self, record: &ClipRecord, tracks_json: &str) -> io::Result<()> {
        let line = encode_record(record)?;
        let _serialize = self.commit.lock();
        let path = self
            .dir
            .join(RUN_CLIPS_DIR)
            .join(clip_file_name(record.clip));
        commit(&*self.io, &path, tracks_json.as_bytes())?;
        self.io.append(&self.dir.join(RUN_JOURNAL_FILE), &line)
    }

    /// Recover the resumable state for a run over `clips` clips: for
    /// every replayed record, read its payload, verify the FNV-1a
    /// fingerprint and parse the tracks. Records that are out of range,
    /// missing their payload, corrupt or unparsable are dropped — the
    /// engine simply recomputes those clips (self-healing), which can
    /// only restore, never change, the run's outputs.
    pub fn recover(
        &self,
        replayed: &RunReplay,
        clips: usize,
    ) -> Vec<Option<(ClipRecord, Vec<Track>)>> {
        let mut out: Vec<Option<(ClipRecord, Vec<Track>)>> = (0..clips).map(|_| None).collect();
        for (&idx, record) in &replayed.records {
            if idx >= clips {
                continue;
            }
            let path = self.dir.join(RUN_CLIPS_DIR).join(clip_file_name(idx));
            let Ok(bytes) = self.io.read(&path) else {
                continue;
            };
            if fnv1a(&bytes) != record.fingerprint {
                continue;
            }
            let Some(tracks) = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|t| serde_json::from_str::<Vec<Track>>(t).ok())
            else {
                continue;
            };
            out[idx] = Some((record.clone(), tracks));
        }
        out
    }
}

fn read_or(io: &dyn RunIo, path: &Path, what: &str) -> io::Result<Vec<u8>> {
    io.read(path)
        .map_err(|e| io::Error::other(format!("{what} {}: {e}", path.display())))
}

/// The engine-side checkpoint sink: wraps a [`RunJournal`] with
/// acknowledgement counters. A checkpoint failure must never fail the
/// clip — the run continues with its in-memory result and the clip is
/// simply not acknowledged (it will be recomputed on resume) — so
/// failures are counted, not propagated.
pub(crate) struct Checkpointer {
    journal: Arc<RunJournal>,
    pub acked: AtomicU64,
    pub ack_failures: AtomicU64,
}

impl Checkpointer {
    pub fn new(journal: Arc<RunJournal>) -> Checkpointer {
        Checkpointer {
            journal,
            acked: AtomicU64::new(0),
            ack_failures: AtomicU64::new(0),
        }
    }

    /// Build and durably write the [`ClipRecord`] for a completed clip.
    /// Called by the track stage at clip finalization (in-stream) or by
    /// the scheduler's retry loop (`retried`).
    #[allow(clippy::too_many_arguments)]
    pub fn checkpoint_clip(
        &self,
        clip: usize,
        tracks: &[Track],
        timeline: &ClipTimeline,
        ledger: &CostLedger,
        retried: bool,
        retry_attempts: u64,
        retry_backoff_seconds: f64,
    ) {
        let record = (|| -> io::Result<()> {
            let tracks_json = serde_json::to_string(tracks)
                .map_err(|e| io::Error::other(format!("track encode: {e}")))?;
            let frames: Vec<FrameRecord> = if retried {
                Vec::new()
            } else {
                (0..timeline.decode.len())
                    .map(|i| FrameRecord {
                        decode: timeline.decode[i].to_bits(),
                        window: timeline.window[i].to_bits(),
                        detect_px: timeline.detect_px[i].map(f64::to_bits),
                        sizes: timeline.sizes[i].clone(),
                        track: timeline.track[i].to_bits(),
                    })
                    .collect()
            };
            let record = ClipRecord {
                clip,
                fingerprint: fnv1a(tracks_json.as_bytes()),
                ledger: ledger.slice_bits(),
                frames,
                finalize: timeline.finalize.to_bits(),
                detect_digest: timeline.detect_digest,
                retried,
                retry_attempts,
                retry_backoff: retry_backoff_seconds.to_bits(),
            };
            self.journal.checkpoint(&record, &tracks_json)
        })();
        match record {
            Ok(()) => {
                self.acked.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.ack_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(clip: usize) -> ClipRecord {
        ClipRecord {
            clip,
            fingerprint: 0xfeed_f00d ^ clip as u64,
            ledger: vec![
                (Component::Decode, (0.125f64 + clip as f64).to_bits()),
                (Component::Detector, (1.0f64 / 3.0).to_bits()),
            ],
            frames: vec![
                FrameRecord {
                    decode: 0.01f64.to_bits(),
                    window: 0.002f64.to_bits(),
                    detect_px: Some((0.4f64 / 7.0).to_bits()),
                    sizes: vec![(64, 64), (128, 96)],
                    track: 0.001f64.to_bits(),
                },
                FrameRecord {
                    decode: 0.01f64.to_bits(),
                    window: 0.002f64.to_bits(),
                    detect_px: None,
                    sizes: vec![],
                    track: 0.001f64.to_bits(),
                },
            ],
            finalize: 0.05f64.to_bits(),
            detect_digest: 0xabcd ^ clip as u64,
            retried: false,
            retry_attempts: 0,
            retry_backoff: 0.0f64.to_bits(),
        }
    }

    fn journal_bytes(clips: &[usize]) -> Vec<u8> {
        clips
            .iter()
            .flat_map(|&c| encode_record(&record(c)).unwrap())
            .collect()
    }

    #[test]
    fn replay_is_order_insensitive_and_duplicate_tolerant() {
        let shuffled = journal_bytes(&[2, 0, 1, 0, 2]);
        let r = replay(&shuffled);
        assert!(r.clean());
        assert_eq!(r.duplicates, 2);
        assert_eq!(r.records.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.records[&1], record(1));
    }

    #[test]
    fn corrupt_mid_journal_record_invalidates_only_itself() {
        let mut bytes = journal_bytes(&[0]);
        let rec0 = bytes.len();
        bytes.extend(encode_record(&record(1)).unwrap());
        bytes[rec0 + 20] ^= 0xff; // damage record 1's line
        bytes.extend(encode_record(&record(2)).unwrap());
        let r = replay(&bytes);
        assert!(!r.clean());
        assert_eq!(r.invalid_records, 1);
        assert!(!r.torn_tail);
        // clip-keyed records after the damage stay trusted
        assert_eq!(
            r.records.keys().copied().collect::<Vec<_>>(),
            vec![0, 2],
            "record 2 survives record 1's corruption"
        );
    }

    #[test]
    fn create_checkpoint_open_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("otif-runjournal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn RunIo> = Arc::new(RealRunIo);
        let manifest = RunManifest {
            version: 1,
            config_fingerprint: 11,
            dataset_fingerprint: 22,
            clips: 3,
            streams: 2,
            max_active_streams: 2,
            max_batch: 16,
            prefetch_frames: 16,
            detector_exec: "off".to_string(),
        };
        let journal = RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap();
        // creating over an existing journal is refused
        assert!(RunJournal::create(&dir, Arc::clone(&io), &manifest).is_err());
        let tracks: Vec<Track> = Vec::new();
        let tracks_json = serde_json::to_string(&tracks).unwrap();
        let mut rec = record(1);
        rec.fingerprint = fnv1a(tracks_json.as_bytes());
        journal.checkpoint(&rec, &tracks_json).unwrap();

        // manifest mismatch is refused
        let other = RunManifest {
            streams: 4,
            ..manifest.clone()
        };
        assert!(RunJournal::open(&dir, Arc::clone(&io), &other).is_err());

        let (journal, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
        assert!(replayed.clean());
        let recovered = journal.recover(&replayed, 3);
        assert!(recovered[0].is_none());
        assert!(recovered[2].is_none());
        let (got, got_tracks) = recovered[1].as_ref().unwrap();
        assert_eq!(got, &rec);
        assert!(got_tracks.is_empty());

        // a tampered payload self-heals by dropping the record
        std::fs::write(dir.join(RUN_CLIPS_DIR).join("clip_1.json"), b"[1]").unwrap();
        let recovered = journal.recover(&replayed, 3);
        assert!(recovered[1].is_none(), "fingerprint mismatch drops record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeline_reconstruction_is_bit_exact() {
        let rec = record(0);
        let t = rec.timeline();
        assert_eq!(t.decode.len(), 2);
        assert_eq!(t.decode[0].to_bits(), 0.01f64.to_bits());
        assert_eq!(t.detect_px[0].unwrap().to_bits(), (0.4f64 / 7.0).to_bits());
        assert_eq!(t.detect_px[1], None);
        assert_eq!(t.sizes[0], vec![(64, 64), (128, 96)]);
        assert_eq!(t.finalize.to_bits(), 0.05f64.to_bits());
        assert_eq!(t.detect_digest, rec.detect_digest);
    }

    proptest! {
        // Property (satellite): replay is idempotent and
        // order-insensitive for completed clips, under duplicates,
        // arbitrary interleavings and torn tails — the recovered
        // record *set* depends only on which clips were acknowledged.
        #[test]
        fn replay_depends_only_on_the_acknowledged_set(
            order in proptest::collection::vec(0usize..6, 1..18),
            torn_cut in 1usize..40,
            torn_flag in 0usize..2,
        ) {
            let torn = torn_flag == 1;
            let mut bytes = journal_bytes(&order);
            if torn {
                // torn tail: append a half-written record
                let extra = encode_record(&record(7)).unwrap();
                bytes.extend_from_slice(&extra[..torn_cut.min(extra.len() - 1)]);
            }
            let r = replay(&bytes);
            prop_assert_eq!(r.torn_tail, torn);
            prop_assert_eq!(r.invalid_records, 0);
            // the recovered set is exactly the set of clips appended,
            // regardless of order and duplication
            let mut expected: Vec<usize> = order.clone();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(
                r.records.keys().copied().collect::<Vec<_>>(),
                expected
            );
            // every surviving record is bit-identical to what was
            // appended for that clip (first-wins over duplicates of
            // identical content)
            for (k, rec) in &r.records {
                prop_assert_eq!(rec, &record(*k));
            }
            // idempotence: replaying a journal rebuilt from the
            // recovered records yields the same set
            let rebuilt: Vec<u8> = r
                .records
                .values()
                .flat_map(|rec| encode_record(rec).unwrap())
                .collect();
            let r2 = replay(&rebuilt);
            prop_assert!(r2.clean());
            prop_assert_eq!(r2.records, r.records);
        }
    }
}
