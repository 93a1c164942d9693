//! The store's filesystem seam: every byte `TrackStore` reads or
//! writes flows through one injectable [`StoreIo`] implementation.
//!
//! Production uses [`RealIo`], which delegates to the shared
//! durability layer ([`otif_core::durable`]: fsynced writes and
//! appends, atomic renames, directory fsyncs). Tests and the robustness
//! bench wrap it in [`FaultyIo`], which injects a deterministic
//! [`StoreFaultPlan`] addressed by `(operation, ordinal)` — the
//! store-side analogue of the engine's `FaultPlan`. Because the store
//! performs its I/O operations in a fixed order per ingest, a plan
//! perturbs the exact same point of the computation on every run: torn
//! writes, failed renames, read errors, transient read errors (for
//! retry testing) and hard crash points are all reproducible.
//!
//! Errors are typed ([`StoreError`]) so callers can tell corruption
//! from absence from plain I/O failure — the distinction drives
//! quarantine, retry and degraded-answer decisions upstream.

use otif_core::durable;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A typed store failure: I/O, corruption, absence, quarantine or a
/// store-level invariant violation. Replaces the stringly errors the
/// serving tier used before.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Underlying I/O failure (possibly transient — the store retries
    /// reads with deterministic backoff before giving up).
    Io {
        /// Path the operation targeted.
        path: String,
        /// OS / injected error description.
        detail: String,
    },
    /// File bytes do not match the catalog's content fingerprint.
    Corrupt {
        /// Clip whose payload failed verification.
        clip: usize,
        /// Fingerprint the catalog expects.
        expected: u64,
        /// Fingerprint of the bytes actually on disk.
        actual: u64,
    },
    /// A file or catalog entry that should exist does not.
    Missing {
        /// What is missing (path or catalog description).
        what: String,
    },
    /// The clip was quarantined (by `load()` verification or fsck);
    /// its payload is not served until repaired.
    Quarantined {
        /// The quarantined clip.
        clip: usize,
    },
    /// A store-level invariant does not hold (bad journal record,
    /// non-dense ids, unparsable payload that passed its checksum).
    Invalid {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            StoreError::Corrupt {
                clip,
                expected,
                actual,
            } => write!(
                f,
                "clip {clip} is corrupt: fingerprint {actual:#018x} != cataloged {expected:#018x}"
            ),
            StoreError::Missing { what } => write!(f, "missing: {what}"),
            StoreError::Quarantined { clip } => write!(f, "clip {clip} is quarantined"),
            StoreError::Invalid { detail } => write!(f, "store invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for String {
    fn from(e: StoreError) -> String {
        e.to_string()
    }
}

impl StoreError {
    /// Whether a retry with backoff can plausibly help (plain I/O
    /// failures only — corruption and absence are permanent).
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io { .. })
    }
}

/// The primitive filesystem operations the store performs. Fault specs
/// address these by kind plus a 0-based per-kind invocation ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoreOp {
    /// Whole-file read.
    Read,
    /// Whole-file create/truncate + write + fsync.
    Write,
    /// Atomic rename (the commit step of a tmp-file write).
    Rename,
    /// Append + fsync (the journal's commit step).
    Append,
}

impl StoreOp {
    /// All operations, in a fixed order (sweep enumeration).
    pub const ALL: [StoreOp; 4] = [
        StoreOp::Read,
        StoreOp::Write,
        StoreOp::Rename,
        StoreOp::Append,
    ];

    /// Stable lowercase label (reports, bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            StoreOp::Read => "read",
            StoreOp::Write => "write",
            StoreOp::Rename => "rename",
            StoreOp::Append => "append",
        }
    }
}

impl fmt::Display for StoreOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected store fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// The operation fails outright without touching the filesystem.
    Error,
    /// A write/append persists only the first half of its bytes, then
    /// fails — the torn-write crash model.
    Torn,
    /// Process death: this operation and every later one fail. The
    /// directory is left exactly as the preceding operations left it.
    Crash,
    /// The next `failures` invocations (starting at the spec's ordinal)
    /// fail, then the operation succeeds — models transient read
    /// faults healed by retry.
    Transient {
        /// Number of consecutive failing invocations.
        failures: u64,
    },
}

impl StoreFaultKind {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            StoreFaultKind::Error => "error",
            StoreFaultKind::Torn => "torn",
            StoreFaultKind::Crash => "crash",
            StoreFaultKind::Transient { .. } => "transient",
        }
    }
}

/// One injected store fault: fire `kind` on the `ordinal`-th invocation
/// (0-based, counted per operation kind) of `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreFaultSpec {
    /// Operation kind the fault targets.
    pub op: StoreOp,
    /// 0-based invocation ordinal within that kind.
    pub ordinal: u64,
    /// What happens when it fires.
    pub kind: StoreFaultKind,
}

/// A deterministic schedule of injected store faults (empty default).
/// Same plan + same operation sequence → same perturbation, every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreFaultPlan {
    specs: Vec<StoreFaultSpec>,
}

impl StoreFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Convenience: a single hard crash at `(op, ordinal)`.
    pub fn crash_at(op: StoreOp, ordinal: u64) -> Self {
        StoreFaultPlan::none().with(StoreFaultSpec {
            op,
            ordinal,
            kind: StoreFaultKind::Crash,
        })
    }

    /// Convenience: a single non-crash error at `(op, ordinal)`.
    pub fn error_at(op: StoreOp, ordinal: u64) -> Self {
        StoreFaultPlan::none().with(StoreFaultSpec {
            op,
            ordinal,
            kind: StoreFaultKind::Error,
        })
    }

    /// Convenience: a torn write/append at `(op, ordinal)`.
    pub fn torn_at(op: StoreOp, ordinal: u64) -> Self {
        StoreFaultPlan::none().with(StoreFaultSpec {
            op,
            ordinal,
            kind: StoreFaultKind::Torn,
        })
    }

    /// Convenience: `failures` consecutive transient read errors
    /// starting at read ordinal `ordinal`.
    pub fn transient_reads(ordinal: u64, failures: u64) -> Self {
        StoreFaultPlan::none().with(StoreFaultSpec {
            op: StoreOp::Read,
            ordinal,
            kind: StoreFaultKind::Transient { failures },
        })
    }

    /// Add `spec` (builder style).
    pub fn with(mut self, spec: StoreFaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[StoreFaultSpec] {
        &self.specs
    }

    /// The fault (if any) scheduled for the `ordinal`-th invocation of
    /// `op`. Pure: same inputs, same answer.
    fn fire(&self, op: StoreOp, ordinal: u64) -> Option<&StoreFaultSpec> {
        self.specs.iter().find(|s| {
            s.op == op
                && match s.kind {
                    StoreFaultKind::Transient { failures } => {
                        ordinal >= s.ordinal && ordinal < s.ordinal + failures
                    }
                    _ => ordinal == s.ordinal,
                }
        })
    }
}

/// The store's filesystem interface. Implementations must be
/// thread-safe; the store shares one instance across query threads.
/// Every method defaults to the real filesystem through
/// [`otif_core::durable`]; a wrapper overrides what it intercepts.
pub trait StoreIo: Send + Sync {
    /// Read a whole file; a missing file is [`StoreError::Missing`].
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        durable::read(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::Missing {
                what: path.display().to_string(),
            },
            _ => io_err(path, e),
        })
    }
    /// Create/truncate `path`, write `bytes`, fsync.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        durable::write(path, bytes).map_err(|e| io_err(path, e))
    }
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        durable::rename(from, to).map_err(|e| io_err(from, e))
    }
    /// Append `bytes` to `path` (creating it if needed), fsync.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        durable::append(path, bytes).map_err(|e| io_err(path, e))
    }
    /// Create a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        durable::create_dir_all(path).map_err(|e| io_err(path, e))
    }
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        durable::remove_file(path).map_err(|e| io_err(path, e))
    }
    /// File names (not full paths) inside a directory, sorted.
    fn list(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        durable::list(dir).map_err(|e| io_err(dir, e))
    }
    /// Fsync a directory, making renames and file creations in it
    /// durable.
    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        durable::sync_dir(dir).map_err(|e| io_err(dir, e))
    }
}

fn io_err(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The production [`StoreIo`]: the real filesystem, through the
/// trait's [`otif_core::durable`] defaults.
#[derive(Debug, Default)]
pub struct RealIo;

impl StoreIo for RealIo {}

/// A directory entry a power cut would still lose: `to` was renamed
/// from `from` (replacing `replaced`, if `to` existed) or, with no
/// `from`, created by `append` — and `to`'s parent has not been
/// fsynced since.
struct Unsynced {
    from: Option<PathBuf>,
    to: PathBuf,
    replaced: Option<Vec<u8>>,
}

/// A [`StoreIo`] wrapper injecting a [`StoreFaultPlan`] over an inner
/// implementation. Each operation kind counts its invocations; when the
/// plan addresses the current `(op, ordinal)`, the fault fires.
///
/// A [`StoreFaultKind::Crash`] models a power cut: every rename and
/// every `append`-created file whose parent directory has not had a
/// [`StoreIo::sync_dir`] since is undone (newest first), and *every*
/// subsequent operation fails — the process is dead as far as the
/// store is concerned, and the directory holds exactly what the
/// completed operations made durable. `sync_dir` is not a [`StoreOp`]:
/// it neither counts toward ordinals nor carries faults.
pub struct FaultyIo<I: StoreIo> {
    inner: I,
    plan: StoreFaultPlan,
    counters: [AtomicU64; 4],
    crashed: AtomicBool,
    unsynced: Mutex<Vec<Unsynced>>,
}

impl<I: StoreIo> FaultyIo<I> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: I, plan: StoreFaultPlan) -> Self {
        FaultyIo {
            inner,
            plan,
            counters: Default::default(),
            crashed: AtomicBool::new(false),
            unsynced: Mutex::new(Vec::new()),
        }
    }

    /// Invocation counts per operation kind so far (crash-point sweeps
    /// enumerate these).
    pub fn ops(&self) -> BTreeMap<StoreOp, u64> {
        StoreOp::ALL
            .into_iter()
            .map(|op| (op, self.counters[op as usize].load(Ordering::Relaxed)))
            .collect()
    }

    /// Whether an injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    fn alive(&self, path: &Path) -> Result<(), StoreError> {
        if self.crashed() {
            return Err(io_err(path, "injected crash: process is dead"));
        }
        Ok(())
    }

    /// Count the invocation and decide its fate: `Ok(None)` proceed
    /// normally, `Ok(Some(Torn))` proceed torn, `Err` fail.
    fn gate(&self, op: StoreOp, path: &Path) -> Result<Option<StoreFaultKind>, StoreError> {
        self.alive(path)?;
        let ordinal = self.counters[op as usize].fetch_add(1, Ordering::Relaxed);
        match self.plan.fire(op, ordinal).map(|s| s.kind) {
            None => Ok(None),
            Some(StoreFaultKind::Error) | Some(StoreFaultKind::Transient { .. }) => Err(io_err(
                path,
                format!("injected {op} error at ordinal {ordinal}"),
            )),
            Some(StoreFaultKind::Crash) => {
                self.crashed.store(true, Ordering::Relaxed);
                self.lose_unsynced();
                Err(io_err(
                    path,
                    format!("injected crash at {op} ordinal {ordinal}"),
                ))
            }
            Some(StoreFaultKind::Torn) => Ok(Some(StoreFaultKind::Torn)),
        }
    }

    /// The power cut: undo every directory change no `sync_dir` made
    /// durable, newest first.
    fn lose_unsynced(&self) {
        let lost = std::mem::take(&mut *self.unsynced.lock().unwrap());
        for Unsynced { from, to, replaced } in lost.into_iter().rev() {
            // best effort: the process is dead either way
            let _ = match from {
                Some(from) => self.inner.rename(&to, &from),
                None => self.inner.remove_file(&to),
            };
            if let Some(bytes) = replaced {
                let _ = self.inner.write(&to, &bytes);
            }
        }
    }

    fn track(&self, from: Option<&Path>, to: &Path, replaced: Option<Vec<u8>>) {
        self.unsynced.lock().unwrap().push(Unsynced {
            from: from.map(Path::to_path_buf),
            to: to.to_path_buf(),
            replaced,
        });
    }
}

impl<I: StoreIo> StoreIo for FaultyIo<I> {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.gate(StoreOp::Read, path)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        match self.gate(StoreOp::Write, path)? {
            None => self.inner.write(path, bytes),
            Some(_) => {
                // torn write: half the bytes land, then the op fails
                self.inner.write(path, &bytes[..bytes.len() / 2])?;
                Err(io_err(path, "injected torn write"))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        if self.gate(StoreOp::Rename, from)?.is_some() {
            // a rename cannot tear — treat as outright failure
            return Err(io_err(from, "injected rename failure"));
        }
        let replaced = self.inner.read(to).ok();
        self.inner.rename(from, to)?;
        self.track(Some(from), to, replaced);
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let torn = self.gate(StoreOp::Append, path)?.is_some();
        if !self.inner.exists(path) {
            self.track(None, path, None);
        }
        if torn {
            self.inner.append(path, &bytes[..bytes.len() / 2])?;
            return Err(io_err(path, "injected torn append"));
        }
        self.inner.append(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        self.alive(path)?;
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        self.alive(path)?;
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        self.inner.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        self.alive(dir)?;
        self.inner.sync_dir(dir)?;
        self.unsynced
            .lock()
            .unwrap()
            .retain(|change| durable::parent_dir(&change.to) != dir);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otif-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_read_classifies_missing() {
        let dir = tmp("missing");
        let err = RealIo.read(&dir.join("nope.json")).unwrap_err();
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
        assert!(!err.is_transient());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_io_fires_at_exact_ordinal_only() {
        let dir = tmp("ordinal");
        let io = FaultyIo::new(RealIo, StoreFaultPlan::error_at(StoreOp::Write, 1));
        io.write(&dir.join("a"), b"aa").unwrap();
        let err = io.write(&dir.join("b"), b"bb").unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(!io.exists(&dir.join("b")), "failed write must not land");
        io.write(&dir.join("c"), b"cc").unwrap();
        assert_eq!(io.ops()[&StoreOp::Write], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_half_then_fails() {
        let dir = tmp("torn");
        let io = FaultyIo::new(RealIo, StoreFaultPlan::torn_at(StoreOp::Write, 0));
        let err = io.write(&dir.join("t"), b"12345678").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert_eq!(std::fs::read(dir.join("t")).unwrap(), b"1234");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_undoes_directory_changes_no_sync_dir_covered() {
        let dir = tmp("power-cut");
        let io = FaultyIo::new(RealIo, StoreFaultPlan::crash_at(StoreOp::Write, 3));
        let (synced, unsynced) = (dir.join("synced"), dir.join("unsynced"));
        // a synced rename survives
        io.write(&dir.join("a.tmp"), b"a").unwrap();
        io.rename(&dir.join("a.tmp"), &synced).unwrap();
        io.sync_dir(&dir).unwrap();
        // an unsynced rename over an existing file, an unsynced rename
        // to a new name and an unsynced append-created file are undone
        io.write(&dir.join("b.tmp"), b"b").unwrap();
        io.rename(&dir.join("b.tmp"), &synced).unwrap();
        io.write(&dir.join("c.tmp"), b"c").unwrap();
        io.rename(&dir.join("c.tmp"), &unsynced).unwrap();
        io.append(&dir.join("j"), b"one\n").unwrap();
        assert!(io.write(&dir.join("x"), b"x").is_err());
        assert!(io.crashed());
        // the process is dead: every later operation fails
        assert!(io.read(&synced).is_err());
        assert!(io.append(&dir.join("j"), b"two\n").is_err());
        assert!(io.sync_dir(&dir).is_err());
        assert_eq!(std::fs::read(&synced).unwrap(), b"a");
        assert_eq!(std::fs::read(dir.join("b.tmp")).unwrap(), b"b");
        assert_eq!(std::fs::read(dir.join("c.tmp")).unwrap(), b"c");
        assert!(!unsynced.exists());
        assert!(!dir.join("j").exists());
        // sync_dir is not a counted operation
        assert_eq!(io.ops()[&StoreOp::Rename], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_reads_heal_after_n_failures() {
        let dir = tmp("transient");
        std::fs::write(dir.join("f"), b"payload").unwrap();
        let io = FaultyIo::new(RealIo, StoreFaultPlan::transient_reads(0, 2));
        assert!(io.read(&dir.join("f")).is_err());
        assert!(io.read(&dir.join("f")).is_err());
        assert_eq!(io.read(&dir.join("f")).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }
}
