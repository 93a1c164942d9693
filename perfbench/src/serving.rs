//! The query side: cold start, the seeded query stream, closed-loop
//! clients and the cache-off, prune-off reference answers.

use crate::io::CountingStoreIo;
use crate::trace::{span, Tracer};
use crate::workload::THETA_SEED;
use otif_core::fnv1a;
use otif_geom::{Point, Polygon};
use otif_query::{FrameLimitQuery, FrameQueryKind, TrackQuery};
use otif_serve::{
    mixed_workload, CacheMode, ClipMeta, QueryServer, ServeOptions, ServeQuery, ServeStats,
    StoreIo, StoreOptions, TrackStore,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Queries per warm batch: enough that the p99 of one batch has more
/// than ten samples beyond it; a whole number of [`MIX`] cycles.
pub const BATCH_QUERIES: usize = 1200;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Answer-cache entries: below the number of distinct queries in a
/// batch, so fresh queries evict each other, but large enough that a
/// hot query is rarely evicted between two of its uses.
pub const CACHE_CAPACITY: usize = 128;

/// Options of every warm query: pruning and the answer cache on, and
/// evaluation on the client's own thread.
pub const SERVE: ServeOptions = ServeOptions {
    threads: 1,
    pruning: true,
    cache: CacheMode::On,
};

/// What a query in the stream is, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Region,
    HotSpot,
    Count,
    Braking,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "hot",
            Kind::Region => "region",
            Kind::HotSpot => "hotspot",
            Kind::Count => "count",
            Kind::Braking => "braking",
        }
    }
}

/// Queries of each kind in every 16 of the stream: a quarter from the
/// hot set, and the fresh three quarters split equally over the four
/// fresh kinds. Hits and hard-braking scans cost tens of microseconds,
/// evaluated frame queries hundreds, so p50 falls among the evaluated
/// kinds and p99 in their tail.
const MIX: [(Kind, usize); 5] = [
    (Kind::Hot, 4),
    (Kind::Region, 3),
    (Kind::HotSpot, 3),
    (Kind::Count, 3),
    (Kind::Braking, 3),
];

/// The seeded query stream: [`MIX`] of the 9-query `mixed_workload` hot
/// set (cache hits after first use) and fresh parameterised region,
/// hot-spot, frame-count and hard-braking queries whose random
/// parameters make every key distinct. The shares are exact. The
/// parameters are pinned with Θ, like the clip pool, and the seed picks
/// the order: runs with different seeds serve the same queries, so the
/// draw of their costs does not add to the spread between runs.
pub fn query_stream(metas: &[ClipMeta], seed: u64, len: usize) -> Vec<(Kind, ServeQuery)> {
    let hot = mixed_workload(metas, 1, THETA_SEED);
    let w = metas.iter().map(|m| m.width).fold(64.0_f32, f32::max);
    let h = metas.iter().map(|m| m.height).fold(64.0_f32, f32::max);
    // Fresh queries reach evaluation: regions centre on a cell some
    // clip's tracks occupy, and frame thresholds stay at or below every
    // clip's peak concurrency. Otherwise many would be pruned to nothing
    // and cost as little as a cache hit.
    // Sorted, so that the order of the clips in the store (which the
    // seed permutes) does not change the regions.
    let mut occupied: Vec<(f32, f32)> = metas
        .iter()
        .flat_map(|m| {
            m.occupied_cells.iter().map(|&(cx, cy)| {
                (
                    (cx as f32 + 0.5) * m.cell_size,
                    (cy as f32 + 0.5) * m.cell_size,
                )
            })
        })
        .collect();
    occupied.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    occupied.dedup();
    let n_max = metas
        .iter()
        .map(|m| m.max_concurrent_tracks)
        .min()
        .unwrap_or(1)
        .max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(THETA_SEED);
    let frames = |kind, n, rng: &mut ChaCha8Rng| {
        ServeQuery::FrameLimit(FrameLimitQuery {
            kind,
            n,
            limit: rng.gen_range(10..=50),
            min_separation_s: rng.gen_range(1.0..8.0),
        })
    };
    let mut stream: Vec<(Kind, ServeQuery)> = MIX
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .cycle()
        .take(len)
        .enumerate()
        .map(|(i, kind)| {
            let q = match kind {
                Kind::Hot => hot[i % hot.len()].clone(),
                Kind::Region => {
                    let (cx, cy) = match occupied.len() {
                        0 => (w / 2.0, h / 2.0),
                        n => occupied[rng.gen_range(0..n)],
                    };
                    let (dx, dy) = (
                        rng.gen_range(0.025f32..0.15) * w,
                        rng.gen_range(0.025f32..0.15) * h,
                    );
                    let (x0, y0) = ((cx - dx).max(0.0), (cy - dy).max(0.0));
                    let (x1, y1) = ((cx + dx).min(w), (cy + dy).min(h));
                    let poly = Polygon::new(vec![
                        Point { x: x0, y: y0 },
                        Point { x: x1, y: y0 },
                        Point { x: x1, y: y1 },
                        Point { x: x0, y: y1 },
                    ]);
                    let n = rng.gen_range(1..=n_max.min(3));
                    frames(FrameQueryKind::Region(poly), n, &mut rng)
                }
                Kind::HotSpot => {
                    let radius = rng.gen_range(6.0..24.0);
                    let n = rng.gen_range(2..4);
                    frames(FrameQueryKind::HotSpot { radius }, n, &mut rng)
                }
                Kind::Count => {
                    let n = rng.gen_range(1..=n_max);
                    frames(FrameQueryKind::Count, n, &mut rng)
                }
                Kind::Braking => ServeQuery::Track(TrackQuery::HardBraking {
                    decel: rng.gen_range(20.0..120.0),
                }),
            };
            (kind, q)
        })
        .collect();
    let mut order = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..stream.len()).rev() {
        stream.swap(i, order.gen_range(0..=i));
    }
    stream
}

/// `TrackStore::open` plus the first pass that loads every clip.
pub struct ColdStart {
    pub store: Arc<TrackStore>,
    pub open_s: f64,
    pub total_s: f64,
}

pub fn cold_start(
    dir: &Path,
    io: &Arc<CountingStoreIo>,
    tracer: Option<&Tracer>,
) -> Result<ColdStart, String> {
    let io: Arc<dyn StoreIo> = io.clone();
    let started = Instant::now();
    let store = {
        let _s = span(tracer, "serve.store.open", 0);
        TrackStore::open_with(dir, io, StoreOptions::default()).map_err(|e| e.to_string())?
    };
    let open_s = started.elapsed().as_secs_f64();
    for id in 0..store.len() {
        let _s = span(tracer, "serve.store.load", id as u64);
        store.load(id).map_err(|e| e.to_string())?;
    }
    Ok(ColdStart {
        store: Arc::new(store),
        open_s,
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// One query's outcome in a batch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub fingerprint: u64,
    pub degraded: bool,
}

pub struct Batch {
    /// One entry per query of the stream; `None` when it errored.
    pub samples: Vec<Option<Sample>>,
    pub wall_s: f64,
    pub stats: ServeStats,
}

/// Run the stream once against a fresh server (empty answer cache) over
/// a loaded store: `CLIENTS` closed-loop clients, each sending its next
/// query when the previous answer arrives.
pub fn warm_batch(
    store: &Arc<TrackStore>,
    queries: &[(Kind, ServeQuery)],
    tracer: Option<&Tracer>,
) -> Batch {
    let server = QueryServer::new(Arc::clone(store), CACHE_CAPACITY);
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    let slots: Vec<Mutex<Option<Sample>>> = queries.iter().map(|_| Mutex::new(None)).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                barrier.wait();
                let _client = span(tracer, "bench.warm", 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, q)) = queries.get(i) else {
                        return;
                    };
                    let t0 = Instant::now();
                    let outcome = {
                        let _s = span(tracer, "serve.query", i as u64);
                        server.execute_robust(q, &SERVE)
                    };
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match outcome {
                        Ok(o) => {
                            *slots[i].lock().expect("sample slot lock") = Some(Sample {
                                ms,
                                fingerprint: fnv1a(&o.bytes),
                                degraded: o.degraded.is_some(),
                            })
                        }
                        Err(e) => eprintln!("query {i} failed: {e}"),
                    }
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    Batch {
        samples: slots
            .into_iter()
            .map(|s| s.into_inner().expect("sample slot lock"))
            .collect(),
        wall_s,
        stats: server.stats(),
    }
}

/// Fingerprint of every distinct query's answer with the cache off and
/// pruning off, keyed by canonical query.
pub fn reference_answers(
    store: &Arc<TrackStore>,
    queries: &[(Kind, ServeQuery)],
) -> Result<HashMap<String, u64>, String> {
    let server = QueryServer::new(Arc::clone(store), 0);
    let opts = ServeOptions {
        threads: CLIENTS,
        pruning: false,
        cache: CacheMode::Off,
    };
    let mut out = HashMap::new();
    for (_, q) in queries {
        if let Entry::Vacant(slot) = out.entry(q.canonical_key()) {
            let bytes = server.execute_bytes(q, &opts).map_err(|e| e.to_string())?;
            slot.insert(fnv1a(&bytes));
        }
    }
    Ok(out)
}

impl Batch {
    /// Queries answered exactly: neither errored nor degraded.
    pub fn answered(&self) -> usize {
        self.samples.len() - self.failed()
    }

    /// Queries that errored or came back degraded.
    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.is_none_or(|s| s.degraded))
            .count()
    }

    /// Exact answers that differ from the reference.
    pub fn mismatches(
        &self,
        queries: &[(Kind, ServeQuery)],
        reference: &HashMap<String, u64>,
    ) -> usize {
        self.samples
            .iter()
            .zip(queries)
            .filter(|(s, (_, q))| {
                s.is_some_and(|s| {
                    !s.degraded && reference.get(&q.canonical_key()) != Some(&s.fingerprint)
                })
            })
            .count()
    }
}
