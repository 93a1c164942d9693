//! The persistent track store: an on-disk clip catalog with per-clip
//! spatial and temporal indexes, loaded lazily — now crash-consistent.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   journal.log           # append-only ingest journal (authoritative)
//!   catalog.json          # rewritable checkpoint of the same entries
//!   clips/clip_<id>.json  # Vec<Track>: the clip's extracted tracks
//!   quarantine/           # clip files that failed verification
//! ```
//!
//! Durability model (DESIGN.md §13): an ingest commits the clip payload
//! into `clips/`, then appends its journal record — the
//! acknowledgement point. A crash at *any* intermediate step loses only
//! the unacknowledged ingest (recoverable debris that [`fsck`]
//! removes), never an acknowledged one. `catalog.json` is a best-effort
//! checkpoint; [`TrackStore::open`] replays the journal whenever one
//! exists. Every [`TrackStore::load`] re-verifies the payload's FNV-1a
//! fingerprint against its catalog entry and quarantines mismatches.
//!
//! The catalog is small and always resident; it carries everything clip
//! pruning needs (occupied spatial cells of the track geometry, the
//! maximum number of concurrently alive tracks, frame count, frame
//! rate) so a query decides *which* clip files to deserialize without
//! touching any of them. Track geometry is rasterized segment-by-segment
//! at half-cell steps before cells are marked, so positions interpolated
//! between detections (what the frame-limit operators actually query)
//! are covered by the occupancy summary up to half a cell of error —
//! pruning rules must (and do) budget that slack.

use crate::io::{RealIo, StoreError, StoreIo};
use crate::journal::{self, JOURNAL_FILE};
use otif_core::durable::{self, retry_backoff};
use otif_geom::{GridIndex, Point, Rect};
use otif_track::Track;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Frame-level metadata the ingester must supply per clip (the serving
/// tier never sees the simulator's `Clip`, only its dimensions).
#[derive(Debug, Clone, Copy)]
pub struct ClipInfo {
    /// Number of frames in the clip.
    pub num_frames: usize,
    /// Frame rate.
    pub fps: f32,
    /// Native frame width in pixels.
    pub width: f32,
    /// Native frame height in pixels.
    pub height: f32,
}

/// Catalog entry for one ingested clip: identity, dimensions, and the
/// compact spatial/temporal summaries used for index-driven pruning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClipMeta {
    /// Clip id — dense, assigned at ingest in ingest order.
    pub id: usize,
    /// Number of frames.
    pub num_frames: usize,
    /// Frame rate.
    pub fps: f32,
    /// Native frame width in pixels.
    pub width: f32,
    /// Native frame height in pixels.
    pub height: f32,
    /// Number of extracted tracks.
    pub num_tracks: usize,
    /// Maximum number of tracks alive at the same frame (temporal
    /// interval summary). A frame-limit query demanding ≥ n objects can
    /// never match a clip with fewer than n concurrent tracks.
    pub max_concurrent_tracks: usize,
    /// FNV-1a over the clip's serialized tracks; feeds the clip-set
    /// fingerprint that keys the answer cache and is re-verified on
    /// every load.
    pub fingerprint: u64,
    /// Side of the square summary cells, in native pixels.
    pub cell_size: f32,
    /// Sorted `(col, row)` cells touched by rasterized track geometry.
    pub occupied_cells: Vec<(u32, u32)>,
    /// Ingest source key (e.g. `<dataset>/<clip index>` from the engine
    /// run that produced the tracks). Keyed re-ingest of the same
    /// source with the same content fingerprint dedupes instead of
    /// appending, making engine→store handoff exactly-once across
    /// crash/resume. `None` for unkeyed (legacy) ingests, which always
    /// append.
    pub source: Option<String>,
}

impl ClipMeta {
    /// Whether any occupied cell's rectangle — inflated by the half-cell
    /// rasterization slack — intersects `rect`. Sound for pruning: if
    /// this is false, no (possibly interpolated) track position lies in
    /// `rect`.
    pub fn geometry_intersects(&self, rect: &Rect) -> bool {
        let slack = self.cell_size * 0.5;
        self.occupied_cells.iter().any(|&(cx, cy)| {
            let cell = Rect::new(
                cx as f32 * self.cell_size - slack,
                cy as f32 * self.cell_size - slack,
                self.cell_size + 2.0 * slack,
                self.cell_size + 2.0 * slack,
            );
            cell.intersects(rect)
        })
    }
}

/// A clip resident in memory: tracks plus the two per-clip indexes,
/// built on load.
pub struct LoadedClip {
    /// Catalog entry.
    pub meta: ClipMeta,
    /// The clip's extracted tracks, in stored order.
    pub tracks: Vec<Track>,
    /// Spatial index over rasterized track geometry; payload is the
    /// position of the owning track in `tracks`.
    pub index: GridIndex<u32>,
    /// Temporal interval index: `(first_frame, last_frame)` per track,
    /// sorted by first frame.
    pub intervals: Vec<(usize, usize)>,
}

impl LoadedClip {
    fn build(meta: ClipMeta, tracks: Vec<Track>) -> LoadedClip {
        let mut index = GridIndex::new(
            meta.width.max(1.0),
            meta.height.max(1.0),
            meta.cell_size.max(1.0),
        );
        for (ti, t) in tracks.iter().enumerate() {
            for p in rasterize_track(t, meta.cell_size * 0.5) {
                index.insert(p, ti as u32);
            }
        }
        let mut intervals: Vec<(usize, usize)> = tracks
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| (t.first_frame(), t.last_frame()))
            .collect();
        intervals.sort_unstable();
        LoadedClip {
            meta,
            tracks,
            index,
            intervals,
        }
    }

    /// Index-driven hot-spot prefilter: can *any* frame of this clip
    /// contain `n` objects within `radius` of one of them?
    ///
    /// At a matching frame, n distinct tracks have (interpolated)
    /// positions within `radius` of a center that is itself one of the
    /// positions. Every interpolated position is within half a cell of a
    /// rasterized index point of its track, so querying the index around
    /// each stored point with `radius + cell_size` (two half-cell
    /// slacks) and counting distinct track ids is a sound necessary
    /// condition — when it never reaches `n`, the per-frame scan is
    /// skipped entirely. Time is ignored, which only over-approximates.
    pub fn hotspot_candidate(&self, radius: f32, n: usize) -> bool {
        if n <= 1 {
            return !self.tracks.is_empty();
        }
        if self.meta.max_concurrent_tracks < n {
            return false;
        }
        let slack = self.meta.cell_size;
        let mut seen: Vec<bool> = vec![false; self.tracks.len()];
        for (ti, t) in self.tracks.iter().enumerate() {
            for (_, d) in &t.dets {
                let center = d.rect.center();
                let near = self.index.query_circle(&center, radius + slack);
                for s in seen.iter_mut() {
                    *s = false;
                }
                let mut distinct = 0usize;
                for (_, id) in near {
                    let id = id as usize;
                    if !seen[id] {
                        seen[id] = true;
                        distinct += 1;
                        if distinct >= n {
                            return true;
                        }
                    }
                }
                let _ = ti;
            }
        }
        false
    }
}

/// Sample points along a track's center polyline at `step` px so every
/// interpolated position is within `step / 2` of a sample.
fn rasterize_track(t: &Track, step: f32) -> Vec<Point> {
    let step = step.max(0.5);
    let centers: Vec<Point> = t.dets.iter().map(|(_, d)| d.rect.center()).collect();
    let mut out = Vec::new();
    match centers.len() {
        0 => {}
        1 => out.push(centers[0]),
        _ => {
            for w in centers.windows(2) {
                let (a, b) = (w[0], w[1]);
                let n = (a.dist(&b) / step).ceil().max(1.0) as usize;
                for k in 0..n {
                    out.push(a.lerp(&b, k as f32 / n as f32));
                }
            }
            out.push(*centers.last().unwrap());
        }
    }
    out
}

pub(crate) use otif_core::fnv1a;

/// Maximum number of overlapping `(first, last)` intervals.
fn max_concurrent(tracks: &[Track]) -> usize {
    let mut events: Vec<(usize, i32)> = Vec::with_capacity(tracks.len() * 2);
    for t in tracks.iter().filter(|t| !t.is_empty()) {
        events.push((t.first_frame(), 1));
        events.push((t.last_frame() + 1, -1));
    }
    events.sort_unstable();
    let (mut cur, mut peak) = (0i64, 0i64);
    for (_, d) in events {
        cur += d as i64;
        peak = peak.max(cur);
    }
    peak as usize
}

const CATALOG_FILE: &str = "catalog.json";
const CLIPS_DIR: &str = "clips";
const QUARANTINE_DIR: &str = "quarantine";

/// Store tuning: how hard `load()` retries transient read faults and
/// how much *virtual* backoff each attempt schedules (deterministic —
/// recorded in counters, never slept).
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Extra read attempts after a transient I/O failure (corruption
    /// and absence never retry).
    pub read_retries: u32,
    /// Virtual backoff before retry attempt `k` is
    /// `backoff_base_seconds * 2^k`.
    pub backoff_base_seconds: f64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            read_retries: 2,
            backoff_base_seconds: 0.01,
        }
    }
}

fn clip_file_name(id: usize) -> String {
    format!("clip_{id}.json")
}

/// Rename `from` to `to` and fsync `to`'s directory, so the rename
/// survives a crash.
fn rename_durable(io: &dyn StoreIo, from: &Path, to: &Path) -> Result<(), StoreError> {
    io.rename(from, to)?;
    io.sync_dir(durable::parent_dir(to))
}

/// Durably replace `path` with `bytes`: tmp write + fsync, then
/// [`rename_durable`].
fn commit(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = durable::tmp_path(path);
    io.write(&tmp, bytes)?;
    rename_durable(io, &tmp, path)
}

/// Create `dir` and fsync its parent, so the new entry survives a
/// crash.
fn create_dir_durable(io: &dyn StoreIo, dir: &Path) -> Result<(), StoreError> {
    io.create_dir_all(dir)?;
    io.sync_dir(durable::parent_dir(dir))
}

/// Parse `clip_<id>.json` back into an id.
fn parse_clip_name(name: &str) -> Option<usize> {
    name.strip_prefix("clip_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The persistent track store. Cheap always-resident catalog; clip
/// payloads (tracks + indexes) deserialized lazily per clip and cached.
/// All filesystem traffic flows through one injectable [`StoreIo`].
pub struct TrackStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    opts: StoreOptions,
    catalog: Vec<ClipMeta>,
    loaded: Mutex<HashMap<usize, Arc<LoadedClip>>>,
    quarantined: Mutex<BTreeSet<usize>>,
    loads: AtomicU64,
    read_retries: AtomicU64,
    backoff_nanos: AtomicU64,
}

impl TrackStore {
    /// Create an empty store at `dir` on the real filesystem.
    pub fn create(dir: &Path) -> Result<TrackStore, StoreError> {
        Self::create_with(dir, Arc::new(RealIo), StoreOptions::default())
    }

    /// Create an empty store at `dir` through `io` (the directory is
    /// created; an existing store there is an error — stores are
    /// append-only).
    pub fn create_with(
        dir: &Path,
        io: Arc<dyn StoreIo>,
        opts: StoreOptions,
    ) -> Result<TrackStore, StoreError> {
        for existing in [dir.join(JOURNAL_FILE), dir.join(CATALOG_FILE)] {
            if io.exists(&existing) {
                return Err(StoreError::Invalid {
                    detail: format!("{} already exists; open() it instead", existing.display()),
                });
            }
        }
        io.create_dir_all(&dir.join(CLIPS_DIR))?;
        // an empty append creates the journal file; the directory
        // fsyncs make it, `clips/` and the store directory durable
        io.append(&dir.join(JOURNAL_FILE), b"")?;
        io.sync_dir(dir)?;
        io.sync_dir(durable::parent_dir(dir))?;
        let store = TrackStore {
            dir: dir.to_path_buf(),
            io,
            opts,
            catalog: Vec::new(),
            loaded: Mutex::new(HashMap::new()),
            quarantined: Mutex::new(BTreeSet::new()),
            loads: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        };
        store.write_checkpoint()?;
        Ok(store)
    }

    /// Open an existing store on the real filesystem.
    pub fn open(dir: &Path) -> Result<TrackStore, StoreError> {
        Self::open_with(dir, Arc::new(RealIo), StoreOptions::default())
    }

    /// Open an existing store through `io`. The journal is
    /// authoritative when present (a torn tail — crash debris — is
    /// tolerated and ignored; mid-journal corruption is an error that
    /// `store-fsck` must resolve). A store with only a legacy
    /// `catalog.json` opens from the checkpoint.
    pub fn open_with(
        dir: &Path,
        io: Arc<dyn StoreIo>,
        opts: StoreOptions,
    ) -> Result<TrackStore, StoreError> {
        let journal_path = dir.join(JOURNAL_FILE);
        let catalog = if io.exists(&journal_path) {
            let replayed = journal::replay(&io.read(&journal_path)?);
            if replayed.invalid_records > 0 {
                return Err(StoreError::Invalid {
                    detail: format!(
                        "{}: {} invalid mid-journal record(s); run store-fsck --repair",
                        journal_path.display(),
                        replayed.invalid_records
                    ),
                });
            }
            replayed.entries
        } else {
            // legacy (pre-journal) store: checkpoint only
            let path = dir.join(CATALOG_FILE);
            if !io.exists(&path) {
                return Err(StoreError::Missing {
                    what: format!("store at {} (no journal, no catalog)", dir.display()),
                });
            }
            let bytes = io.read(&path)?;
            let text = std::str::from_utf8(&bytes).map_err(|e| StoreError::Invalid {
                detail: format!("{}: {e}", path.display()),
            })?;
            serde_json::from_str(text).map_err(|e| StoreError::Invalid {
                detail: format!("{}: {e}", path.display()),
            })?
        };
        let mut quarantined = BTreeSet::new();
        let qdir = dir.join(QUARANTINE_DIR);
        if io.exists(&qdir) {
            for name in io.list(&qdir)? {
                if let Some(id) = parse_clip_name(&name) {
                    quarantined.insert(id);
                }
            }
        }
        Ok(TrackStore {
            dir: dir.to_path_buf(),
            io,
            opts,
            catalog,
            loaded: Mutex::new(HashMap::new()),
            quarantined: Mutex::new(quarantined),
            loads: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        })
    }

    /// Rewrite the `catalog.json` checkpoint atomically.
    fn write_checkpoint(&self) -> Result<(), StoreError> {
        write_catalog(&*self.io, &self.dir, &self.catalog)
    }

    fn clip_path(&self, id: usize) -> PathBuf {
        self.dir.join(CLIPS_DIR).join(clip_file_name(id))
    }

    fn quarantine_path(&self, id: usize) -> PathBuf {
        self.dir.join(QUARANTINE_DIR).join(clip_file_name(id))
    }

    /// Cell side used for a clip's spatial summary: coarse enough that
    /// the catalog stays small, fine enough that corner-region pruning
    /// discriminates (≈ 48×48 cells over the larger frame dimension).
    fn cell_size_for(info: &ClipInfo) -> f32 {
        (info.width.max(info.height) / 48.0).max(4.0)
    }

    /// Ingest one clip's extracted tracks (`Engine` / `Pipeline` output
    /// order is preserved). Returns the assigned clip id.
    ///
    /// Crash consistency: payload tmp-write → fsync → atomic rename →
    /// directory fsync, *then* the journal append — which is the
    /// acknowledgement point. `Ok` means the ingest survives any
    /// subsequent crash; `Err` means it left at most recoverable debris
    /// (an orphan tmp or clip file with no journal record, removed by
    /// [`fsck`]). The checkpoint
    /// rewrite afterwards is best-effort: its failure is swallowed
    /// because the journal already carries the entry.
    pub fn ingest_clip(&mut self, info: &ClipInfo, tracks: &[Track]) -> Result<usize, StoreError> {
        self.ingest_inner(info, tracks, None)
    }

    /// [`Self::ingest_clip`] keyed by an ingest `source` (e.g.
    /// `<dataset>/<clip index>`), making re-ingest idempotent: if a clip
    /// with the same source and the same content fingerprint already
    /// exists, its id is returned without appending anything (`false` in
    /// the second slot); the same source with *different* content is an
    /// error (the store is append-only — a source cannot be silently
    /// rewritten). Together with the engine's run journal this makes the
    /// engine→store handoff exactly-once across crash/resume.
    pub fn ingest_clip_keyed(
        &mut self,
        info: &ClipInfo,
        tracks: &[Track],
        source: &str,
    ) -> Result<(usize, bool), StoreError> {
        let json = serde_json::to_string(tracks).map_err(|e| StoreError::Invalid {
            detail: format!("track encode: {e}"),
        })?;
        let fingerprint = fnv1a(json.as_bytes());
        if let Some(existing) = self
            .catalog
            .iter()
            .find(|m| m.source.as_deref() == Some(source))
        {
            if existing.fingerprint == fingerprint {
                return Ok((existing.id, false));
            }
            return Err(StoreError::Invalid {
                detail: format!(
                    "source {source:?} is already ingested as clip {} with a \
                     different content fingerprint ({:016x} stored, {fingerprint:016x} \
                     offered); the store is append-only",
                    existing.id, existing.fingerprint
                ),
            });
        }
        let id = self.ingest_inner(info, tracks, Some(source.to_string()))?;
        Ok((id, true))
    }

    fn ingest_inner(
        &mut self,
        info: &ClipInfo,
        tracks: &[Track],
        source: Option<String>,
    ) -> Result<usize, StoreError> {
        let id = self.catalog.len();
        let json = serde_json::to_string(tracks).map_err(|e| StoreError::Invalid {
            detail: format!("track encode: {e}"),
        })?;
        let fingerprint = fnv1a(json.as_bytes());

        let cell_size = Self::cell_size_for(info);
        let cols = (info.width / cell_size).ceil().max(1.0) as u32;
        let rows = (info.height / cell_size).ceil().max(1.0) as u32;
        let mut cells: Vec<(u32, u32)> = Vec::new();
        for t in tracks {
            for p in rasterize_track(t, cell_size * 0.5) {
                let cx = ((p.x / cell_size).floor() as i64).clamp(0, cols as i64 - 1) as u32;
                let cy = ((p.y / cell_size).floor() as i64).clamp(0, rows as i64 - 1) as u32;
                cells.push((cx, cy));
            }
        }
        cells.sort_unstable();
        cells.dedup();

        let meta = ClipMeta {
            id,
            num_frames: info.num_frames,
            fps: info.fps,
            width: info.width,
            height: info.height,
            num_tracks: tracks.len(),
            max_concurrent_tracks: max_concurrent(tracks),
            fingerprint,
            cell_size,
            occupied_cells: cells,
            source,
        };

        commit(&*self.io, &self.clip_path(id), json.as_bytes())?;
        self.io.append(
            &self.dir.join(JOURNAL_FILE),
            &journal::encode_record(&meta)?,
        )?;
        // === acknowledged: the record is durable ===
        self.catalog.push(meta);
        let _ = self.write_checkpoint(); // best-effort; journal is authoritative
        Ok(id)
    }

    /// Catalog entries, in clip-id order.
    pub fn metas(&self) -> &[ClipMeta] {
        &self.catalog
    }

    /// Number of ingested clips.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// Whether the store holds no clips.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// Clip-set fingerprint: FNV-1a over every clip's id and content
    /// fingerprint, in id order. Any ingest changes it, invalidating all
    /// cached answers keyed against the previous clip set.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.catalog.len() * 16);
        for m in &self.catalog {
            bytes.extend_from_slice(&(m.id as u64).to_le_bytes());
            bytes.extend_from_slice(&m.fingerprint.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// Read `path` with the bounded deterministic retry schedule:
    /// transient I/O failures retry up to `opts.read_retries` times,
    /// accruing `retry_backoff(base, attempt)` *virtual* seconds per
    /// retry (counted, never slept — wall clock stays deterministic).
    fn read_with_retry(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        let mut attempt = 0u32;
        loop {
            match self.io.read(path) {
                Ok(bytes) => return Ok(bytes),
                Err(e) if e.is_transient() && attempt < self.opts.read_retries => {
                    let backoff = retry_backoff(self.opts.backoff_base_seconds, attempt);
                    self.read_retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_nanos
                        .fetch_add((backoff * 1e9) as u64, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Move a clip file that failed verification into `quarantine/` and
    /// mark the id. Best-effort on the filesystem (the in-memory mark
    /// alone stops the store from serving the payload); the persistent
    /// marker survives reopen.
    fn quarantine(&self, id: usize) {
        self.quarantined.lock().unwrap().insert(id);
        if create_dir_durable(&*self.io, &self.dir.join(QUARANTINE_DIR)).is_ok() {
            let _ = rename_durable(&*self.io, &self.clip_path(id), &self.quarantine_path(id));
        }
    }

    /// Quarantined clip ids, in order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantined.lock().unwrap().iter().copied().collect()
    }

    /// Whether `id` is quarantined.
    pub fn is_quarantined(&self, id: usize) -> bool {
        self.quarantined.lock().unwrap().contains(&id)
    }

    /// Load a clip (lazily; cached). Concurrent callers may race on the
    /// first load of the same clip — exactly one result wins the cache
    /// and `clip_loads` counts file reads that won.
    ///
    /// Every cache-missing load re-reads the payload (with bounded
    /// transient-fault retry) and verifies its FNV-1a fingerprint
    /// against the catalog entry; a mismatch quarantines the file and
    /// returns [`StoreError::Corrupt`].
    pub fn load(&self, id: usize) -> Result<Arc<LoadedClip>, StoreError> {
        if let Some(c) = self.loaded.lock().unwrap().get(&id) {
            return Ok(Arc::clone(c));
        }
        if self.is_quarantined(id) {
            return Err(StoreError::Quarantined { clip: id });
        }
        let meta = self
            .catalog
            .get(id)
            .ok_or(StoreError::Missing {
                what: format!("clip {id} in the catalog"),
            })?
            .clone();
        let path = self.clip_path(id);
        let bytes = self.read_with_retry(&path)?;
        let actual = fnv1a(&bytes);
        if actual != meta.fingerprint {
            self.quarantine(id);
            return Err(StoreError::Corrupt {
                clip: id,
                expected: meta.fingerprint,
                actual,
            });
        }
        let text = std::str::from_utf8(&bytes).map_err(|e| StoreError::Invalid {
            detail: format!("{}: {e}", path.display()),
        })?;
        let tracks: Vec<Track> = serde_json::from_str(text).map_err(|e| StoreError::Invalid {
            detail: format!("{}: {e}", path.display()),
        })?;
        let built = Arc::new(LoadedClip::build(meta, tracks));
        let mut cache = self.loaded.lock().unwrap();
        let entry = cache.entry(id).or_insert_with(|| {
            self.loads.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&built)
        });
        Ok(Arc::clone(entry))
    }

    /// Number of clip files actually deserialized so far (cache-winning
    /// loads). The pruning benches assert on this.
    pub fn clip_loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Transient read failures retried so far.
    pub fn read_retry_count(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    /// Virtual seconds of retry backoff scheduled so far.
    pub fn retry_backoff_seconds(&self) -> f64 {
        self.backoff_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Drop every cached clip payload (cold-cache benchmarking).
    pub fn evict_clips(&self) {
        self.loaded.lock().unwrap().clear();
    }
}

/// What `store-fsck` found (and, with `repair`, did) in one store
/// directory.
#[derive(Debug, Default, Serialize)]
pub struct FsckReport {
    /// Valid records replayed from the journal (or checkpoint entries
    /// for a legacy store).
    pub journal_entries: usize,
    /// Entries in the `catalog.json` checkpoint (0 when absent).
    pub checkpoint_entries: usize,
    /// Whether the journal ended in crash debris.
    pub torn_tail: bool,
    /// Whether repair truncated that debris away.
    pub torn_tail_truncated: bool,
    /// Complete mid-journal records that failed checksum/parse —
    /// corruption beyond crash debris (unrepairable without loss).
    pub invalid_records: usize,
    /// Acknowledged clips whose payload file is absent and not
    /// quarantined — the data-loss signal; must be empty after any
    /// crash-only history.
    pub missing_clips: Vec<usize>,
    /// Clips whose payload failed fingerprint verification during this
    /// fsck (moved to `quarantine/` when repairing).
    pub corrupt_quarantined: Vec<usize>,
    /// Clips already sitting in `quarantine/` before this fsck.
    pub already_quarantined: Vec<usize>,
    /// Debris files in the store (orphan tmp files, clip files with no
    /// journal record).
    pub orphan_files: Vec<String>,
    /// How many of those repair removed.
    pub orphan_files_removed: usize,
    /// Whether repair rewrote the `catalog.json` checkpoint from the
    /// journal.
    pub checkpoint_rewritten: bool,
    /// Whether this fsck ran in repair mode.
    pub repaired: bool,
}

impl FsckReport {
    /// No acknowledged data is lost: every journal entry's payload is
    /// present and verified (or explicitly quarantined) and no
    /// mid-journal record is corrupt.
    pub fn consistent(&self) -> bool {
        self.missing_clips.is_empty() && self.invalid_records == 0
    }

    /// Nothing wrong at all — no debris, no corruption, checkpoint in
    /// sync with the journal.
    pub fn healthy(&self) -> bool {
        self.consistent()
            && !self.torn_tail
            && self.corrupt_quarantined.is_empty()
            && self.orphan_files.is_empty()
            && self.checkpoint_entries == self.journal_entries
    }
}

/// Commit `entries` as the `catalog.json` checkpoint of the store at
/// `dir`.
fn write_catalog(io: &dyn StoreIo, dir: &Path, entries: &[ClipMeta]) -> Result<(), StoreError> {
    let json = serde_json::to_string(entries).map_err(|e| StoreError::Invalid {
        detail: format!("catalog encode: {e}"),
    })?;
    commit(io, &dir.join(CATALOG_FILE), json.as_bytes())
}

/// Check (and with `repair`, fix) a store directory on the real
/// filesystem. See [`fsck_with`].
pub fn fsck(dir: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    fsck_with(dir, &RealIo, repair)
}

/// Replay the ingest journal and reconcile the store directory with it:
/// truncate a torn journal tail, verify every acknowledged payload's
/// fingerprint (quarantining corruption), detect missing payloads (data
/// loss — never expected from crashes), remove orphan debris, and
/// rewrite the `catalog.json` checkpoint. Without `repair` nothing is
/// modified; the report says what *would* be done.
pub fn fsck_with(dir: &Path, io: &dyn StoreIo, repair: bool) -> Result<FsckReport, StoreError> {
    let mut report = FsckReport {
        repaired: repair,
        ..FsckReport::default()
    };
    let journal_path = dir.join(JOURNAL_FILE);
    let catalog_path = dir.join(CATALOG_FILE);

    // checkpoint entry count (diagnostic only — journal is authoritative)
    let checkpoint: Vec<ClipMeta> = if io.exists(&catalog_path) {
        let bytes = io.read(&catalog_path)?;
        std::str::from_utf8(&bytes)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    report.checkpoint_entries = checkpoint.len();

    let entries: Vec<ClipMeta> = if io.exists(&journal_path) {
        let bytes = io.read(&journal_path)?;
        let replayed = journal::replay(&bytes);
        report.torn_tail = replayed.torn_tail;
        report.invalid_records = replayed.invalid_records;
        if repair && (replayed.torn_tail || replayed.invalid_records > 0) {
            // keep only the valid prefix (atomic rewrite)
            commit(io, &journal_path, &bytes[..replayed.valid_bytes])?;
            report.torn_tail_truncated = replayed.torn_tail;
        }
        replayed.entries
    } else if io.exists(&catalog_path) {
        // legacy store: adopt the checkpoint as history; repair writes
        // the journal those ingests would have produced
        if repair {
            let mut bytes = Vec::new();
            for m in &checkpoint {
                bytes.extend(journal::encode_record(m)?);
            }
            io.append(&journal_path, &bytes)?;
            io.sync_dir(dir)?;
        }
        checkpoint.clone()
    } else {
        // unborn store: nothing to check
        return Ok(report);
    };
    report.journal_entries = entries.len();

    // reconcile payloads with the journal
    let clips_dir = dir.join(CLIPS_DIR);
    let qdir = dir.join(QUARANTINE_DIR);
    for meta in &entries {
        let path = clips_dir.join(clip_file_name(meta.id));
        if io.exists(&path) {
            let actual = fnv1a(&io.read(&path)?);
            if actual != meta.fingerprint {
                report.corrupt_quarantined.push(meta.id);
                if repair {
                    create_dir_durable(io, &qdir)?;
                    rename_durable(io, &path, &qdir.join(clip_file_name(meta.id)))?;
                }
            }
        } else if io.exists(&qdir.join(clip_file_name(meta.id))) {
            report.already_quarantined.push(meta.id);
        } else {
            report.missing_clips.push(meta.id);
        }
    }

    // debris: tmp files anywhere, clip files without a journal record
    let mut orphans: Vec<PathBuf> = Vec::new();
    if io.exists(&clips_dir) {
        for name in io.list(&clips_dir)? {
            let acked = parse_clip_name(&name).is_some_and(|id| id < entries.len());
            if !acked {
                orphans.push(clips_dir.join(&name));
            }
        }
    }
    let catalog_tmp = durable::tmp_path(&catalog_path);
    if io.exists(&catalog_tmp) {
        orphans.push(catalog_tmp);
    }
    for path in orphans {
        report.orphan_files.push(
            path.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned(),
        );
        if repair {
            io.remove_file(&path)?;
            report.orphan_files_removed += 1;
        }
    }

    // bring the checkpoint back in sync with the journal
    if repair && (report.checkpoint_entries != entries.len() || !io.exists(&catalog_path)) {
        write_catalog(io, dir, &entries)?;
        report.checkpoint_rewritten = true;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultyIo, StoreFaultPlan, StoreOp};
    use otif_cv::Detection;
    use otif_sim::ObjectClass;

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x - 5.0, y - 3.0, 10.0, 6.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    fn track(id: u32, pts: &[(usize, f32, f32)]) -> Track {
        let mut t = Track::new(id, ObjectClass::Car);
        for &(f, x, y) in pts {
            t.push(f, det(x, y));
        }
        t
    }

    fn info() -> ClipInfo {
        ClipInfo {
            num_frames: 100,
            fps: 10.0,
            width: 640.0,
            height: 352.0,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otif-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_load_roundtrip_preserves_tracks() {
        let dir = tmp_dir("rt");
        let mut store = TrackStore::create(&dir).unwrap();
        let tracks = vec![
            track(0, &[(0, 10.0, 10.0), (50, 600.0, 300.0)]),
            track(1, &[(20, 320.0, 176.0), (80, 10.0, 340.0)]),
        ];
        let id = store.ingest_clip(&info(), &tracks).unwrap();
        // round-trip through a fresh open (no warm in-memory state)
        let store = TrackStore::open(&dir).unwrap();
        let loaded = store.load(id).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded.tracks).unwrap(),
            serde_json::to_string(&tracks).unwrap(),
            "ingest → load must be lossless"
        );
        assert_eq!(store.clip_loads(), 1);
        store.load(id).unwrap();
        assert_eq!(store.clip_loads(), 1, "second load is cached");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyed_ingest_is_idempotent_and_rejects_rewrites() {
        let dir = tmp_dir("keyed");
        let mut store = TrackStore::create(&dir).unwrap();
        let tracks = vec![track(0, &[(0, 10.0, 10.0), (50, 600.0, 300.0)])];
        let (id, fresh) = store.ingest_clip_keyed(&info(), &tracks, "ds/0").unwrap();
        assert!(fresh);
        let fp = store.fingerprint();
        // re-acknowledging the same source + content is a no-op
        let (again, fresh) = store.ingest_clip_keyed(&info(), &tracks, "ds/0").unwrap();
        assert_eq!(again, id);
        assert!(!fresh, "duplicate ack must not re-ingest");
        assert_eq!(store.len(), 1);
        assert_eq!(store.fingerprint(), fp, "store unchanged by duplicate ack");
        // same source, different content: append-only stores refuse
        let other = vec![track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])];
        let err = store
            .ingest_clip_keyed(&info(), &other, "ds/0")
            .err()
            .unwrap();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        // a different source ingests normally
        let (id2, fresh) = store.ingest_clip_keyed(&info(), &other, "ds/1").unwrap();
        assert!(fresh);
        assert_ne!(id2, id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyed_ingest_dedupe_survives_reopen() {
        let dir = tmp_dir("keyed-reopen");
        let tracks = vec![track(0, &[(0, 10.0, 10.0), (50, 600.0, 300.0)])];
        let id = {
            let mut store = TrackStore::create(&dir).unwrap();
            store.ingest_clip_keyed(&info(), &tracks, "ds/0").unwrap().0
        };
        // the source key rides in the journal, so a fresh open still dedupes
        let mut store = TrackStore::open(&dir).unwrap();
        assert_eq!(store.metas()[id].source.as_deref(), Some("ds/0"));
        let (again, fresh) = store.ingest_clip_keyed(&info(), &tracks, "ds/0").unwrap();
        assert_eq!(again, id);
        assert!(!fresh);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_replays_journal_not_checkpoint() {
        let dir = tmp_dir("journal-first");
        let mut store = TrackStore::create(&dir).unwrap();
        store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        // sabotage the checkpoint: journal must still win
        std::fs::write(dir.join(CATALOG_FILE), b"[]").unwrap();
        let store = TrackStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "journal is authoritative over checkpoint");
        store.load(0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_verifies_fingerprint_and_quarantines() {
        let dir = tmp_dir("verify");
        let mut store = TrackStore::create(&dir).unwrap();
        let id = store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        let path = dir.join(CLIPS_DIR).join(clip_file_name(id));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = TrackStore::open(&dir).unwrap();
        let err = store.load(id).err().unwrap();
        assert!(matches!(err, StoreError::Corrupt { clip: 0, .. }), "{err}");
        assert!(store.is_quarantined(id));
        assert!(dir.join(QUARANTINE_DIR).join(clip_file_name(id)).exists());
        // second load short-circuits on the quarantine mark
        let err = store.load(id).err().unwrap();
        assert!(matches!(err, StoreError::Quarantined { clip: 0 }), "{err}");
        // quarantine survives reopen via the persistent marker
        let store = TrackStore::open(&dir).unwrap();
        assert!(store.is_quarantined(id));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_read_faults_retry_with_virtual_backoff() {
        let dir = tmp_dir("retry");
        let mut store = TrackStore::create(&dir).unwrap();
        let id = store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        let io = Arc::new(FaultyIo::new(RealIo, StoreFaultPlan::transient_reads(1, 2)));
        // read ordinal 0 is the journal replay on open; 1 and 2 fail
        let store = TrackStore::open_with(&dir, io, StoreOptions::default()).unwrap();
        store.load(id).unwrap();
        assert_eq!(store.read_retry_count(), 2);
        let expected = retry_backoff(0.01, 0) + retry_backoff(0.01, 1);
        assert!((store.retry_backoff_seconds() - expected).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_mid_ingest_loses_nothing_acknowledged() {
        let dir = tmp_dir("crash");
        // crash on the journal append of the second ingest: clip 1's file
        // landed but was never acknowledged
        let io = Arc::new(FaultyIo::new(
            RealIo,
            StoreFaultPlan::crash_at(StoreOp::Append, 2),
        ));
        let mut store = TrackStore::create_with(&dir, io, StoreOptions::default()).unwrap();
        let t0 = vec![track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])];
        let t1 = vec![track(0, &[(0, 2.0, 2.0), (5, 8.0, 8.0)])];
        store.ingest_clip(&info(), &t0).unwrap();
        assert!(store.ingest_clip(&info(), &t1).is_err(), "crash fires");
        drop(store);

        let report = fsck(&dir, true).unwrap();
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.journal_entries, 1);
        assert_eq!(report.orphan_files_removed, 1, "unacked clip 1 removed");

        let store = TrackStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "exactly the acknowledged ingest survives");
        let loaded = store.load(0).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded.tracks).unwrap(),
            serde_json::to_string(&t0).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_truncates_torn_journal_tail() {
        let dir = tmp_dir("torn-tail");
        // torn append on the second ingest's journal record
        let io = Arc::new(FaultyIo::new(
            RealIo,
            StoreFaultPlan::torn_at(StoreOp::Append, 2),
        ));
        let mut store = TrackStore::create_with(&dir, io, StoreOptions::default()).unwrap();
        store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        assert!(store
            .ingest_clip(&info(), &[track(0, &[(0, 2.0, 2.0), (5, 8.0, 8.0)])])
            .is_err());
        drop(store);

        let unrepaired = fsck(&dir, false).unwrap();
        assert!(unrepaired.torn_tail);
        assert!(!unrepaired.healthy());
        assert!(unrepaired.consistent(), "torn tail is not data loss");

        let repaired = fsck(&dir, true).unwrap();
        assert!(repaired.torn_tail_truncated);
        let clean = fsck(&dir, false).unwrap();
        assert!(clean.healthy(), "{clean:?}");
        assert_eq!(TrackStore::open(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_adopts_legacy_catalog_only_store() {
        let dir = tmp_dir("legacy");
        let mut store = TrackStore::create(&dir).unwrap();
        store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        // simulate a pre-journal store
        std::fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        let store = TrackStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "legacy open falls back to checkpoint");
        let report = fsck(&dir, true).unwrap();
        assert!(report.consistent());
        assert_eq!(report.journal_entries, 1, "journal rebuilt from checkpoint");
        assert!(dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn occupancy_covers_interpolated_geometry() {
        let dir = tmp_dir("occ");
        let mut store = TrackStore::create(&dir).unwrap();
        // A diagonal track with only two detections: the midpoint is
        // interpolated, far from either endpoint.
        let tracks = vec![track(0, &[(0, 10.0, 10.0), (99, 630.0, 340.0)])];
        let id = store.ingest_clip(&info(), &tracks).unwrap();
        let meta = &store.metas()[id];
        let mid = Rect::new(315.0, 170.0, 10.0, 10.0);
        assert!(
            meta.geometry_intersects(&mid),
            "rasterized cells must cover the interpolated midpoint"
        );
        let off = Rect::new(600.0, 10.0, 30.0, 30.0);
        assert!(
            !meta.geometry_intersects(&off),
            "opposite corner stays unoccupied"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_concurrent_and_fingerprint() {
        let tracks = vec![
            track(0, &[(0, 1.0, 1.0), (10, 2.0, 2.0)]),
            track(1, &[(5, 1.0, 1.0), (15, 2.0, 2.0)]),
            track(2, &[(11, 1.0, 1.0), (20, 2.0, 2.0)]),
        ];
        assert_eq!(max_concurrent(&tracks), 2);
        let a = fnv1a(b"hello");
        let b = fnv1a(b"hellp");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(b"hello"));
    }

    #[test]
    fn ingest_changes_store_fingerprint() {
        let dir = tmp_dir("fp");
        let mut store = TrackStore::create(&dir).unwrap();
        store
            .ingest_clip(&info(), &[track(0, &[(0, 1.0, 1.0), (5, 9.0, 9.0)])])
            .unwrap();
        let f1 = store.fingerprint();
        store
            .ingest_clip(&info(), &[track(0, &[(0, 2.0, 2.0), (5, 8.0, 8.0)])])
            .unwrap();
        assert_ne!(f1, store.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hotspot_candidate_detects_clusters_and_rejects_spread() {
        // two tracks that pass close together
        let close = LoadedClip::build(
            ClipMeta {
                id: 0,
                num_frames: 100,
                fps: 10.0,
                width: 640.0,
                height: 352.0,
                num_tracks: 2,
                max_concurrent_tracks: 2,
                fingerprint: 0,
                cell_size: 13.0,
                occupied_cells: vec![],
                source: None,
            },
            vec![
                track(0, &[(0, 100.0, 100.0), (50, 110.0, 100.0)]),
                track(1, &[(0, 105.0, 105.0), (50, 115.0, 105.0)]),
            ],
        );
        assert!(close.hotspot_candidate(30.0, 2));
        // two tracks in opposite corners
        let far = LoadedClip::build(
            ClipMeta {
                id: 1,
                num_frames: 100,
                fps: 10.0,
                width: 640.0,
                height: 352.0,
                num_tracks: 2,
                max_concurrent_tracks: 2,
                fingerprint: 0,
                cell_size: 13.0,
                occupied_cells: vec![],
                source: None,
            },
            vec![
                track(0, &[(0, 10.0, 10.0), (50, 40.0, 10.0)]),
                track(1, &[(0, 600.0, 340.0), (50, 630.0, 340.0)]),
            ],
        );
        assert!(!far.hotspot_candidate(30.0, 2));
        assert!(far.hotspot_candidate(30.0, 1), "n=1 only needs any track");
    }
}
