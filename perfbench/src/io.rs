//! Counting and timing adapters for the program's two filesystem seams:
//! the engine's run journal ([`RunIo`]) and the track store
//! ([`StoreIo`]). They wrap the production implementations, so the
//! durability protocol is unchanged, and report fsyncs, bytes and time
//! from outside the program. `write` and `append` each end in one
//! fsync in both production implementations, so fsyncs are counted
//! there.

use crate::trace::{span, Tracer};
use otif_engine::{RealRunIo, RunIo};
use otif_serve::{RealIo, StoreError, StoreIo};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct IoCounters {
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Nanoseconds inside every op.
    busy_ns: AtomicU64,
    /// Nanoseconds inside `read` only.
    read_ns: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnapshot {
    pub fsyncs: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub busy_s: f64,
    pub read_s: f64,
}

impl IoCounters {
    pub fn snapshot(&self) -> IoSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            fsyncs: get(&self.fsyncs),
            bytes_written: get(&self.bytes_written),
            bytes_read: get(&self.bytes_read),
            busy_s: get(&self.busy_ns) as f64 / 1e9,
            read_s: get(&self.read_ns) as f64 / 1e9,
        }
    }

    fn record(&self, started: Instant, written: Option<usize>, read: Option<usize>) {
        let ns = started.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(n) = written {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
        }
        if let Some(n) = read {
            self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
            self.read_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// [`RealRunIo`] behind the public [`RunIo`] trait, counted.
#[derive(Default)]
pub struct CountingRunIo {
    inner: RealRunIo,
    pub counters: IoCounters,
}

impl RunIo for CountingRunIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read(path);
        let n = r.as_ref().map(|b| b.len()).unwrap_or(0);
        self.counters.record(t, None, Some(n));
        r
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write(path, bytes);
        self.counters.record(t, Some(bytes.len()), None);
        r
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.rename(from, to);
        self.counters.record(t, None, None);
        r
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.append(path, bytes);
        self.counters.record(t, Some(bytes.len()), None);
        r
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.create_dir_all(path);
        self.counters.record(t, None, None);
        r
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// [`RealIo`] behind the public [`StoreIo`] trait, counted, and traced
/// when a tracer is attached: reads record `serve.store.read` spans,
/// writes, renames and appends record `serve.store.write` spans.
#[derive(Default)]
pub struct CountingStoreIo {
    inner: RealIo,
    pub counters: IoCounters,
    tracer: Option<Arc<Tracer>>,
}

impl CountingStoreIo {
    pub fn traced(tracer: Option<Arc<Tracer>>) -> CountingStoreIo {
        CountingStoreIo {
            tracer,
            ..CountingStoreIo::default()
        }
    }
}

impl StoreIo for CountingStoreIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        let _s = span(self.tracer.as_deref(), "serve.store.read", 0);
        let t = Instant::now();
        let r = self.inner.read(path);
        let n = r.as_ref().map(|b| b.len()).unwrap_or(0);
        self.counters.record(t, None, Some(n));
        r
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = span(self.tracer.as_deref(), "serve.store.write", 0);
        let t = Instant::now();
        let r = self.inner.write(path, bytes);
        self.counters.record(t, Some(bytes.len()), None);
        r
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        let _s = span(self.tracer.as_deref(), "serve.store.write", 0);
        let t = Instant::now();
        let r = self.inner.rename(from, to);
        self.counters.record(t, None, None);
        r
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = span(self.tracer.as_deref(), "serve.store.write", 0);
        let t = Instant::now();
        let r = self.inner.append(path, bytes);
        self.counters.record(t, Some(bytes.len()), None);
        r
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.create_dir_all(path);
        self.counters.record(t, None, None);
        r
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.remove_file(path);
        self.counters.record(t, None, None);
        r
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        let t = Instant::now();
        let r = self.inner.list(dir);
        self.counters.record(t, None, None);
        r
    }
}
