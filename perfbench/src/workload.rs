//! The workloads, their set-up, and the ingest path.
//!
//! Every workload pins its configuration Θ; nothing is tuned at run
//! time except the proxy threshold, which is calibrated from the trained
//! proxy's own score distribution (see [`calibrate_threshold`]).

use crate::io::{CountingRunIo, CountingStoreIo};
use crate::trace::{frame_request, span, Tracer};
use otif_core::config::{OtifConfig, ProxyParams, TrackerKind};
use otif_core::stages::{charge_decode, charge_tracker_step, finalize_tracks, FrameTracker};
use otif_core::{group_cells, ExecutionContext, Otif, OtifOptions, Pipeline, WindowNet};
use otif_cv::{CostLedger, DetectorArch, DetectorConfig, SimDetector};
use otif_engine::{
    run_manifest, DetectorExec, Engine, EngineOptions, EngineRun, RunIo, RunJournal, RunSession,
};
use otif_query::TrackQuery;
use otif_serve::{ClipInfo, StoreIo, StoreOptions, TrackStore};
use otif_sim::{Clip, Dataset, DatasetConfig, DatasetKind, DatasetScale, Renderer};
use otif_track::Track;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Engine worker threads: the benchmark's whole thread budget.
pub const WORKERS: usize = 2;
/// OS threads allowed beyond the worker pool: the main thread, the
/// engine's stall watchdog and a little platform slack.
pub const THREAD_SLACK: u64 = 4;
/// Seed of everything pinned with Θ: the preparation dataset, the
/// trained models, the pool of clips to ingest and the parameters of the
/// fresh queries. `--seed` permutes the pool and the query stream and
/// draws the detector's noise, so runs with different seeds process the
/// same video, objects and queries, and their spread measures the
/// machine, not the draw of traffic.
pub const THETA_SEED: u64 = 2022;
/// Share of training-frame proxy scores that lies below the calibrated
/// threshold (so about 15 % of cells fire).
const PROXY_QUANTILE: f64 = 0.85;

/// How Θ is built for a workload.
#[derive(Debug, Clone, Copy)]
pub enum Theta {
    /// YOLOv3 at 0.5×, the prepared proxy at its calibrated threshold,
    /// gap 2, recurrent tracker, refine.
    ProxyRecurrent,
    /// YOLOv3 at 1.0× on the full frame, gap 1, SORT, refine.
    FullFrameSort,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: DatasetKind,
    pub clips: usize,
    pub clip_seconds: f32,
    pub theta: Theta,
    pub streams: usize,
    /// Whether the engine run is journaled (`RunSession::fresh`).
    pub journal: bool,
    pub exec: DetectorExec,
    /// Shares of the timed region for the ingest, cold-start, warm and
    /// set-up phases.
    pub shares: [f64; 4],
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "ingest-proxy",
        kind: DatasetKind::Caldot2,
        clips: 16,
        clip_seconds: 15.0,
        theta: Theta::ProxyRecurrent,
        streams: 4,
        journal: true,
        exec: DetectorExec::Off,
        shares: [0.55, 0.13, 0.2, 0.12],
    },
    Workload {
        name: "ingest-detect",
        kind: DatasetKind::Amsterdam,
        clips: 32,
        clip_seconds: 10.0,
        theta: Theta::FullFrameSort,
        streams: 8,
        journal: false,
        exec: DetectorExec::Batched,
        shares: [0.5, 0.28, 0.18, 0.04],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The paper's per-dataset object-track query (§4.1): track counts on
/// Amsterdam and Jackson, path breakdowns elsewhere.
fn track_query(kind: DatasetKind, dataset_scene: &otif_sim::SceneSpec) -> TrackQuery {
    match kind {
        DatasetKind::Amsterdam | DatasetKind::Jackson => TrackQuery::Count,
        _ => TrackQuery::path_breakdown(dataset_scene),
    }
}

/// Everything set-up produces: the prepared models, the clips to ingest
/// and the pinned configuration.
pub struct Prepared {
    pub workload: &'static Workload,
    pub otif: Otif,
    pub clips: Vec<Clip>,
    pub config: OtifConfig,
    pub seed: u64,
    /// Seed of the detector's noise, drawn from `seed`.
    pub detector_seed: u64,
    /// Seed of the warm query stream, drawn from `seed`.
    pub query_seed: u64,
    pub query: TrackQuery,
}

impl Prepared {
    /// Generate the clip pool in the order `seed` gives it, generate the
    /// preparation dataset, prepare OTIF on it and, when Θ has a proxy,
    /// calibrate its threshold.
    pub fn build(w: &'static Workload, seed: u64) -> Prepared {
        let scene = Arc::new(w.kind.scene());
        let mut pool = ChaCha8Rng::seed_from_u64(THETA_SEED);
        let mut clips: Vec<Clip> = (0..w.clips)
            .map(|i| Clip::simulate(scene.clone(), i, w.clip_seconds, pool.next_u64()))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in (1..clips.len()).rev() {
            clips.swap(i, rng.gen_range(0..=i));
        }
        let query = track_query(w.kind, &scene);
        let prep = DatasetConfig::new(w.kind, DatasetScale::TINY, THETA_SEED).generate();
        let otif = prepare(&prep, w.theta);
        let threshold = matches!(w.theta, Theta::ProxyRecurrent)
            .then(|| calibrate_threshold(&otif, &prep.train));
        let detector = |scale| DetectorConfig::new(DetectorArch::YoloV3, scale);
        let config = match w.theta {
            Theta::ProxyRecurrent => OtifConfig {
                detector: detector(0.5),
                proxy: Some(ProxyParams {
                    resolution_idx: 0,
                    threshold: threshold.expect("ProxyRecurrent calibrates a threshold"),
                }),
                gap: 2,
                tracker: TrackerKind::Recurrent,
                refine: true,
            },
            Theta::FullFrameSort => OtifConfig {
                detector: detector(1.0),
                proxy: None,
                gap: 1,
                tracker: TrackerKind::Sort,
                refine: true,
            },
        };
        Prepared {
            workload: w,
            otif,
            clips,
            config,
            seed,
            detector_seed: rng.next_u64(),
            query_seed: rng.next_u64(),
            query,
        }
    }

    /// The prepared context with the detector noise drawn from `seed`.
    pub fn ctx(&self) -> ExecutionContext<'_> {
        ExecutionContext {
            detector_seed: self.detector_seed,
            ..self.otif.context()
        }
    }

    pub fn native_frames(&self) -> u64 {
        self.clips.iter().map(|c| c.num_frames() as u64).sum()
    }

    pub fn video_seconds(&self) -> f64 {
        self.clips.iter().map(|c| c.duration_s() as f64).sum()
    }

    pub fn engine_options(&self, workers: usize) -> EngineOptions {
        EngineOptions {
            streams: self.workload.streams,
            workers,
            detector_exec: self.workload.exec,
            ..EngineOptions::default()
        }
    }
}

/// `Otif::prepare` on the preparation dataset. The proxy trains for the
/// default 500 steps: after `fast_test`'s 150 its scores still sit in a
/// narrow band and it misses most objects. Θ without a proxy skips
/// proxy training.
fn prepare(dataset: &Dataset, theta: Theta) -> Otif {
    let query = track_query(dataset.kind, &dataset.scene);
    let val = &dataset.val;
    let metric = move |tracks: &[Vec<Track>]| query.accuracy(tracks, val);
    Otif::prepare(
        dataset,
        &metric,
        OtifOptions {
            seed: THETA_SEED,
            proxy_train_steps: 500,
            enable_proxy: matches!(theta, Theta::ProxyRecurrent),
            ..OtifOptions::fast_test()
        },
    )
}

/// The proxy threshold at the [`PROXY_QUANTILE`] of the trained proxy's
/// cell scores over every 7th training frame. A fixed absolute threshold
/// is brittle: where a proxy's scores fall depends on how far its
/// training converged, so a fixed threshold can fire on every cell or on
/// none.
fn calibrate_threshold(otif: &Otif, train: &[Clip]) -> f32 {
    let proxy = &otif.proxies[0];
    let scratch = CostLedger::new();
    let mut scores: Vec<f32> = Vec::new();
    for clip in train {
        let renderer = Renderer::new(clip);
        for f in (0..clip.num_frames()).step_by(7) {
            let img = renderer.render(f, proxy.in_w, proxy.in_h);
            scores.extend_from_slice(&proxy.score_cells(&img, &otif.options.cost, &scratch).scores);
        }
    }
    scores.sort_by(f32::total_cmp);
    scores[((scores.len() as f64 * PROXY_QUANTILE) as usize).min(scores.len() - 1)]
}

fn clip_info(clip: &Clip) -> ClipInfo {
    ClipInfo {
        num_frames: clip.num_frames(),
        fps: clip.scene.fps as f32,
        width: clip.scene.width as f32,
        height: clip.scene.height as f32,
    }
}

fn source(kind: DatasetKind, clip: usize) -> String {
    format!("{}/{clip}", kind.name())
}

/// The sequential `Pipeline` reference the ingest outputs must equal.
pub struct Reference {
    /// Serialized tracks per clip.
    pub tracks_json: Vec<String>,
    pub store_fingerprint: u64,
}

impl Reference {
    pub fn compute(p: &Prepared, dir: &Path) -> Result<Reference, String> {
        let ctx = p.ctx();
        let ledger = CostLedger::new();
        let tracks: Vec<Vec<Track>> = p
            .clips
            .iter()
            .map(|c| Pipeline::run_clip(&p.config, &ctx, c, &ledger))
            .collect();
        let mut store = TrackStore::create(dir).map_err(|e| e.to_string())?;
        for (i, (clip, t)) in p.clips.iter().zip(&tracks).enumerate() {
            store
                .ingest_clip_keyed(&clip_info(clip), t, &source(p.workload.kind, i))
                .map_err(|e| e.to_string())?;
        }
        Ok(Reference {
            tracks_json: tracks.iter().map(tracks_json).collect(),
            store_fingerprint: store.fingerprint(),
        })
    }

    /// Mismatches between `tracks` (one entry per clip, `None` = failed)
    /// and the reference.
    pub fn mismatches(&self, tracks: &[Option<&[Track]>]) -> usize {
        tracks
            .iter()
            .zip(&self.tracks_json)
            .filter(|(t, r)| t.is_some_and(|t| tracks_json(&t) != **r))
            .count()
    }
}

fn tracks_json<T: serde::Serialize + ?Sized>(t: &T) -> String {
    serde_json::to_string(t).expect("tracks serialize")
}

/// One engine → store ingest of every clip.
pub struct IngestOutcome {
    /// From the start of `Engine::run_with_session` until the store has
    /// acknowledged the last clip.
    pub wall_s: f64,
    pub run: EngineRun,
    pub execution_seconds: f64,
    pub store_fingerprint: u64,
    pub failed_clips: usize,
}

/// Run the engine on [`WORKERS`] workers over every clip and
/// keyed-ingest the outputs into a fresh store at `dir/store`; journaled
/// workloads write their run journal to `dir/run`.
pub fn ingest_once(
    p: &Prepared,
    dir: &Path,
    run_io: &Arc<CountingRunIo>,
    store_io: &Arc<CountingStoreIo>,
) -> Result<IngestOutcome, String> {
    let ctx = p.ctx();
    let opts = p.engine_options(WORKERS);
    let session = if p.workload.journal {
        let io: Arc<dyn RunIo> = run_io.clone();
        let manifest = run_manifest(&p.config, &ctx, &p.clips, &opts);
        let journal =
            RunJournal::create(&dir.join("run"), io, &manifest).map_err(|e| e.to_string())?;
        Some(RunSession::fresh(Arc::new(journal)))
    } else {
        None
    };
    let ledger = CostLedger::new();
    let started = Instant::now();
    let run = Engine::run_with_session(&p.config, &ctx, &p.clips, &opts, &ledger, session.as_ref());
    let io: Arc<dyn StoreIo> = store_io.clone();
    let mut store = TrackStore::create_with(&dir.join("store"), io, StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let mut failed_clips = 0;
    for (i, outcome) in run.tracks.iter().enumerate() {
        match outcome.tracks() {
            Some(t) => {
                store
                    .ingest_clip_keyed(&clip_info(&p.clips[i]), t, &source(p.workload.kind, i))
                    .map_err(|e| e.to_string())?;
            }
            None => failed_clips += 1,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(IngestOutcome {
        wall_s,
        execution_seconds: ledger.execution_total(),
        store_fingerprint: store.fingerprint(),
        run,
        failed_clips,
    })
}

/// Per-frame counts gathered by the sequential replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub frames: u64,
    pub cells: u64,
    pub positive_cells: u64,
    pub windows: u64,
}

/// Sequential replay of the engine's per-frame work through the public
/// `otif_core::stages` functions and the layers they call, in
/// `Pipeline::run_clip` order, with one span per layer call. The
/// detector surrogate runs as in the engine's batched mode, one batched
/// forward per window shape of a frame.
pub fn replay(p: &Prepared, tracer: Option<&Tracer>, counts: &mut ReplayCounts) -> Vec<Vec<Track>> {
    let ctx = p.ctx();
    let config = &p.config;
    let detector = SimDetector::new(config.detector, ctx.detector_seed);
    let net = (p.workload.exec != DetectorExec::Off)
        .then(|| WindowNet::new(&config.detector, ctx.detector_seed));
    let mut out = Vec::with_capacity(p.clips.len());
    for (ci, clip) in p.clips.iter().enumerate() {
        let ledger = CostLedger::new();
        let renderer = Renderer::new(clip);
        let native_px = clip.scene.width as f64 * clip.scene.height as f64;
        let mut tracker = FrameTracker::new(config, &ctx);
        for f in (0..clip.num_frames()).step_by(config.gap.max(1)) {
            let req = frame_request(ci, f);
            charge_decode(config, &ctx, native_px, &ledger);
            let windows = match (&config.proxy, ctx.proxies, ctx.window_set) {
                (Some(pp), Some(proxies), Some(ws)) => {
                    let proxy = &proxies[pp.resolution_idx];
                    let img = {
                        let _s = span(tracer, "sim.render", req);
                        renderer.render(f, proxy.in_w, proxy.in_h)
                    };
                    let grid = {
                        let _s = span(tracer, "core.proxy", req);
                        proxy.score_cells(&img, &ctx.cost, &ledger)
                    };
                    let _s = span(tracer, "core.grouping", req);
                    let cells = grid.positive_cells(pp.threshold);
                    counts.cells += (grid.cols * grid.rows) as u64;
                    counts.positive_cells += cells.len() as u64;
                    group_cells(&cells, ws)
                }
                _ => vec![clip.scene.frame_rect()],
            };
            counts.frames += 1;
            counts.windows += windows.len() as u64;
            let dets = if windows.is_empty() {
                Vec::new()
            } else {
                let _s = span(tracer, "cv.detector", req);
                detector.detect_windows(clip, f, &windows, &ledger)
            };
            if let (Some(net), false) = (&net, windows.is_empty()) {
                let sizes: Vec<(u32, u32)> = windows
                    .iter()
                    .map(|r| (r.w.round() as u32, r.h.round() as u32))
                    .collect();
                let inputs: Vec<_> = {
                    let _s = span(tracer, "core.detnet.materialize", req);
                    windows
                        .iter()
                        .zip(&sizes)
                        .map(|(r, &sz)| net.materialize(&renderer, f, r, sz))
                        .collect()
                };
                let _s = span(tracer, "core.detnet.forward", req);
                let mut shapes: Vec<(usize, usize)> = inputs.iter().map(|x| (x.h, x.w)).collect();
                shapes.sort_unstable();
                shapes.dedup();
                for shape in shapes {
                    let batch: Vec<_> = inputs.iter().filter(|x| (x.h, x.w) == shape).collect();
                    std::hint::black_box(net.forward_batched(&batch));
                }
            }
            let _s = span(tracer, "track.step", req);
            charge_tracker_step(&ctx, dets.len(), &ledger);
            tracker.step(f, dets);
        }
        let _s = span(
            tracer,
            "track.finalize",
            frame_request(ci, clip.num_frames()),
        );
        out.push(finalize_tracks(
            config,
            &ctx,
            clip,
            tracker.finish(),
            &ledger,
        ));
    }
    out
}

/// Keyed-ingest `tracks` into a fresh store at `dir`, one
/// `serve.store.ingest` span per clip.
pub fn store_ingest(
    p: &Prepared,
    tracks: &[Vec<Track>],
    dir: &Path,
    io: Arc<dyn StoreIo>,
    tracer: Option<&Tracer>,
) -> Result<u64, String> {
    let mut store =
        TrackStore::create_with(dir, io, StoreOptions::default()).map_err(|e| e.to_string())?;
    for (i, t) in tracks.iter().enumerate() {
        let _s = span(tracer, "serve.store.ingest", i as u64);
        store
            .ingest_clip_keyed(&clip_info(&p.clips[i]), t, &source(p.workload.kind, i))
            .map_err(|e| e.to_string())?;
    }
    Ok(store.fingerprint())
}
