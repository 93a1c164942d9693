//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around a call into one of
//! the program's public functions: `(name, start, end, parent, request)`.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file. A span's *self time* is its duration minus the time
//! covered by its direct children; children always nest inside their
//! parent on the same thread, because the parent is taken from a
//! per-thread stack of open spans.
//!
//! Span names are layer names (`sim.render`, `serve.store.load`, ...)
//! except for the `bench.*` roots, which mark the traced phases
//! (`bench.ingest`, `bench.cold`, and one `bench.warm` per query
//! client). The traced wall time is the summed duration of those roots,
//! so `coverage` is the share of it that lies inside some layer.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Clip index and frame (`clip << 32 | frame`) for ingest spans,
    /// query index for query spans, clip index for store spans.
    pub request: u64,
}

impl Span {
    fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Request id of one sampled frame of one clip.
pub fn frame_request(clip: usize, frame: usize) -> u64 {
    ((clip as u64) << 32) | frame as u64
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        OPEN.with(|s| s.borrow_mut().pop());
        let us = |t: Instant| t.duration_since(self.tracer.origin).as_secs_f64() * 1e6;
        let span = Span {
            id: self.id,
            name: self.name,
            start_us: us(self.start),
            end_us: us(end),
            parent: self.parent,
            request: self.request,
        };
        self.tracer
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; its parent is the innermost open span of this thread.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            name,
            parent,
            request,
            start: Instant::now(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock poisoned by a panicking recorder"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Open a span when tracing, do nothing otherwise.
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    request: u64,
) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name, request))
}

/// Per-layer totals over a set of finished spans.
#[derive(Debug, Default, Clone, Serialize)]
pub struct LayerTime {
    pub calls: u64,
    /// Summed span durations (inclusive of children).
    pub busy_s: f64,
    /// Summed self time (children excluded).
    pub self_s: f64,
}

/// Layer totals under one kind of `bench.*` root (one traced phase).
#[derive(Debug, Default, Clone, Serialize)]
pub struct Phase {
    /// Summed duration of the phase's roots.
    pub wall_s: f64,
    pub layers: HashMap<String, LayerTime>,
}

#[derive(Debug)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub phases: BTreeMap<&'static str, Phase>,
    /// Summed duration of the `bench.*` roots: the traced wall time.
    pub traced_wall_s: f64,
    /// Layer self time over traced wall time.
    pub coverage: f64,
}

/// Spans must be sorted by id (as [`Tracer::take`] returns them); a
/// parent always has a smaller id than its children.
pub fn summarize(spans: &[Span]) -> Summary {
    let index: HashMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_s = vec![0.0; spans.len()];
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = match s.parent.and_then(|p| index.get(&p)) {
            Some(&p) => {
                child_s[p] += s.dur_s();
                root[p]
            }
            None => i,
        };
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut phases: BTreeMap<&'static str, Phase> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let phase = phases.entry(spans[root[i]].name).or_default();
        if s.parent.is_none() {
            phase.wall_s += s.dur_s();
        }
        if s.name.starts_with("bench.") {
            continue;
        }
        let self_s = s.dur_s() - child_s[i];
        for l in [
            layers.entry(s.name).or_default(),
            phase.layers.entry(s.name.to_string()).or_default(),
        ] {
            l.calls += 1;
            l.busy_s += s.dur_s();
            l.self_s += self_s;
        }
    }
    let traced_wall_s: f64 = phases
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, p)| p.wall_s)
        .sum();
    let self_total: f64 = layers.values().map(|l| l.self_s).sum();
    Summary {
        coverage: if traced_wall_s > 0.0 {
            self_total / traced_wall_s
        } else {
            0.0
        },
        layers,
        phases,
        traced_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_uses_roots() {
        let t = Tracer::new();
        {
            let _root = t.span("bench.phase", 0);
            let _outer = t.span("layer.a", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = t.span("layer.b", 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[1].id));
        let s = summarize(&spans);
        let a = &s.layers["layer.a"];
        let b = &s.layers["layer.b"];
        assert!((a.busy_s - a.self_s - b.busy_s).abs() < 1e-9);
        assert!(s.coverage > 0.0 && s.coverage <= 1.0);
        let phase = &s.phases["bench.phase"];
        assert_eq!(phase.layers.len(), 2);
        assert!((phase.wall_s - s.traced_wall_s).abs() < 1e-12);
    }
}
