//! Chaos harness: crash/resume sweep over the engine's run journal.
//!
//! A reference engine run (no journal) fixes the expected outputs: the
//! per-clip tracks JSON, every cost-ledger component's exact `f64` bit
//! pattern, the batcher's round log and the deterministic stats
//! projection (which includes the detector digest). A journaled run
//! must reproduce all of them; then the run is killed at **every
//! checkpoint ordinal** — the journal is cut to its first `k`
//! acknowledged records, exactly what a crash between the `k`-th and
//! `k+1`-th acknowledgement leaves behind — and resumed. Two more
//! crash families ride along: **torn tails** (half of record `k+1`
//! lands as crash debris after the first `k`) and **mid-rename
//! crashes** (the serve tier's `FaultyIo` adapted onto the engine's
//! `RunIo`, cutting power at a payload rename: a stranded `.tmp`, a
//! journal prefix, and no rename or journal creation that a directory
//! fsync had not yet made durable are what recovery sees).
//!
//! Hard assertions, at every crash point:
//!
//! - **zero acknowledged-clip loss** — every journaled record is
//!   recovered and ghost-replayed (`skipped == acked`);
//! - **byte-identical outputs** — resumed tracks, ledger bits, batcher
//!   rounds and the deterministic projection all equal the reference;
//! - **bounded recomputation** — clips recomputed ≤ unacknowledged
//!   clips + 1 (the `+1` is the clip mid-checkpoint at the kill);
//! - **zero duplicate store entries** — re-acknowledging the resumed
//!   run's clips into a keyed [`TrackStore`] dedupes every one.
//!
//! Usage: `cargo run --release -p otif-bench --bin chaos
//! [tiny|small|experiment|smoke]` — `smoke` is the CI entry: tiny
//! scale, a 3-kill + 1-torn + 1-rename subset, results to
//! `BENCH_chaos_smoke.json` instead of `BENCH_chaos.json`.

use otif_bench::harness::SEED;
use otif_bench::report::{print_table, write_json};
use otif_core::config::{OtifConfig, TrackerKind};
use otif_core::pipeline::ExecutionContext;
use otif_cv::{Component, CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif_engine::{
    run_manifest, DetectorExec, Engine, EngineOptions, RealRunIo, RoundRecord, RunIo, RunJournal,
    RunManifest, RunSession, RUN_CLIPS_DIR, RUN_JOURNAL_FILE, RUN_MANIFEST_FILE,
};
use otif_serve::{ClipInfo, FaultyIo, RealIo, StoreFaultPlan, StoreIo, StoreOp, TrackStore};
use otif_sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use otif_track::Track;
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const COMPONENTS: [Component; 5] = [
    Component::Decode,
    Component::Proxy,
    Component::Detector,
    Component::Tracker,
    Component::Refinement,
];

/// The serve tier's deterministic fault injector, adapted onto the
/// engine's [`RunIo`] seam (the engine cannot depend on `otif-serve`,
/// so the adapter lives here): same `(operation, ordinal)` plans, same
/// power-cut semantics when a crash fires — which is why `sync_dir`
/// must reach `FaultyIo` rather than the default real fsync.
struct ChaosRunIo {
    inner: FaultyIo<RealIo>,
}

fn to_io(e: otif_serve::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

impl RunIo for ChaosRunIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path).map_err(to_io)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes).map_err(to_io)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to).map_err(to_io)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes).map_err(to_io)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path).map_err(to_io)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir).map_err(to_io)
    }
}

/// Everything a resumed run must reproduce byte for byte.
struct Reference {
    projection: String,
    rounds: Vec<RoundRecord>,
    tracks_json: String,
    tracks: Vec<Vec<Track>>,
    ledger_bits: Vec<u64>,
}

fn ledger_bits(ledger: &CostLedger) -> Vec<u64> {
    COMPONENTS
        .iter()
        .map(|&c| ledger.get(c).to_bits())
        .collect()
}

fn clip_info(clip: &Clip) -> ClipInfo {
    ClipInfo {
        num_frames: clip.num_frames(),
        fps: clip.scene.fps as f32,
        width: clip.scene.width as f32,
        height: clip.scene.height as f32,
    }
}

#[derive(Serialize)]
struct ChaosPoint {
    kind: &'static str,
    ordinal: u64,
    /// Journal records on disk when recovery started (= clips durably
    /// acknowledged before the simulated crash).
    acked: usize,
    /// Clips the resume ghost-replayed from the journal.
    skipped: usize,
    /// Clips the resume computed live.
    recomputed: usize,
    /// Tracks, ledger bits, rounds and projection all matched.
    identical: bool,
}

#[derive(Serialize)]
struct ChaosReport {
    scale: String,
    dataset: String,
    clips: usize,
    /// Checkpoints one uninterrupted journaled run acknowledges.
    checkpoints: usize,
    crash_points: usize,
    zero_acked_loss: bool,
    outputs_identical: bool,
    bounded_recompute: bool,
    zero_duplicate_ingests: bool,
    sweep: Vec<ChaosPoint>,
}

/// Reconstruct a crashed run directory: the manifest, every payload
/// file (payloads land via rename *before* their journal record — at a
/// kill they may exist unacknowledged; recovery must ignore, never
/// trust them), and whatever journal bytes "survived".
fn clone_run_dir(src: &Path, dst: &Path, journal_bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst.join(RUN_CLIPS_DIR)).expect("clone run dir");
    std::fs::copy(src.join(RUN_MANIFEST_FILE), dst.join(RUN_MANIFEST_FILE)).expect("copy manifest");
    for entry in std::fs::read_dir(src.join(RUN_CLIPS_DIR)).expect("list payloads") {
        let entry = entry.expect("payload entry");
        std::fs::copy(
            entry.path(),
            dst.join(RUN_CLIPS_DIR).join(entry.file_name()),
        )
        .expect("copy payload");
    }
    std::fs::write(dst.join(RUN_JOURNAL_FILE), journal_bytes).expect("write journal");
}

/// Resume the run directory at `dir` and hard-assert the contract:
/// zero acked loss, byte-identical outputs, bounded recomputation,
/// zero duplicate keyed ingests. Returns the sweep row.
#[allow(clippy::too_many_arguments)]
fn resume_and_check(
    dir: &Path,
    kind: &'static str,
    ordinal: u64,
    cfg: &OtifConfig,
    ctx: &ExecutionContext,
    clips: &[Clip],
    opts: &EngineOptions,
    manifest: &RunManifest,
    reference: &Reference,
    store: &mut TrackStore,
) -> ChaosPoint {
    let io: Arc<dyn RunIo> = Arc::new(RealRunIo);
    let acked = {
        let bytes = std::fs::read(dir.join(RUN_JOURNAL_FILE)).expect("read crashed journal");
        otif_engine::replay_run_journal(&bytes).records.len()
    };
    let (journal, replayed) = RunJournal::open(dir, io, manifest).expect("open crashed run");
    let journal = Arc::new(journal);
    let recovered = journal.recover(&replayed, clips.len());
    let session = RunSession::resumed(journal, recovered);
    assert_eq!(
        session.recovered_clips(),
        acked,
        "{kind} @ {ordinal}: {acked} clip(s) acknowledged but only {} recovered",
        session.recovered_clips()
    );
    let ledger = CostLedger::new();
    let run = Engine::run_with_session(cfg, ctx, clips, opts, &ledger, Some(&session));
    let skipped = run.stats.resumed_clips_skipped;
    let recomputed = run.stats.resumed_clips_recomputed;
    assert_eq!(skipped, acked, "{kind} @ {ordinal}: acknowledged clip lost");
    assert!(
        recomputed <= clips.len() - acked + 1,
        "{kind} @ {ordinal}: recomputed {recomputed} clip(s), \
         more than the {} unacknowledged + 1",
        clips.len() - acked
    );
    let projection = run.stats.deterministic_projection();
    let rounds = run.rounds.clone();
    let tracks = run.expect_tracks();
    let identical = serde_json::to_string(&tracks).expect("tracks serialize")
        == reference.tracks_json
        && ledger_bits(&ledger) == reference.ledger_bits
        && rounds == reference.rounds
        && projection == reference.projection;
    assert!(
        identical,
        "{kind} @ {ordinal}: resumed outputs diverged from the reference run"
    );
    // Exactly-once handoff: re-acknowledging every resumed clip into
    // the keyed store must dedupe — the store never grows.
    let before = store.len();
    for (idx, (clip, ts)) in clips.iter().zip(&tracks).enumerate() {
        let source = format!("{}/{idx}", DatasetKind::Caldot1.name());
        let (_, fresh) = store
            .ingest_clip_keyed(&clip_info(clip), ts, &source)
            .expect("keyed re-ingest");
        assert!(
            !fresh,
            "{kind} @ {ordinal}: clip {idx} re-ingested as a duplicate store entry"
        );
    }
    assert_eq!(store.len(), before, "{kind} @ {ordinal}: store grew");
    ChaosPoint {
        kind,
        ordinal,
        acked,
        skipped,
        recomputed,
        identical,
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let (scale, smoke) = match arg.as_deref() {
        Some("tiny") => (DatasetScale::TINY, false),
        Some("smoke") => (DatasetScale::TINY, true),
        Some("small") | None => (
            DatasetScale {
                clips_per_split: 4,
                clip_seconds: 10.0,
            },
            false,
        ),
        Some("experiment") => (DatasetScale::EXPERIMENT, false),
        Some(other) => panic!("unknown scale '{other}' (expected tiny|small|experiment|smoke)"),
    };
    let scale_name = if smoke {
        "smoke".to_string()
    } else {
        format!("{}x{:.0}s", scale.clips_per_split, scale.clip_seconds)
    };

    let cfg = OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap: 4,
        tracker: TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), SEED);
    let clips = DatasetConfig::new(DatasetKind::Caldot1, scale, SEED)
        .generate()
        .test;
    let n = clips.len();
    // Batched detector execution across streams: the hardest mode to
    // resume (ghost batcher tickets must reproduce the round log).
    let opts = EngineOptions {
        streams: 2,
        detector_exec: DetectorExec::Batched,
        ..EngineOptions::default()
    };

    let base: PathBuf =
        std::env::temp_dir().join(format!("otif-chaos-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");

    // Reference: one uninterrupted, unjournaled run.
    let ref_ledger = CostLedger::new();
    let ref_run = Engine::run(&cfg, &ctx, &clips, &opts, &ref_ledger);
    let projection = ref_run.stats.deterministic_projection();
    let rounds = ref_run.rounds.clone();
    let ref_tracks = ref_run.expect_tracks();
    let reference = Reference {
        projection,
        rounds,
        tracks_json: serde_json::to_string(&ref_tracks).expect("tracks serialize"),
        tracks: ref_tracks,
        ledger_bits: ledger_bits(&ref_ledger),
    };

    // Uninterrupted journaled run: must match, and every clip must be
    // durably acknowledged. Its directory seeds every crash point.
    let manifest = run_manifest(&cfg, &ctx, &clips, &opts);
    let full_dir = base.join("full");
    let io: Arc<dyn RunIo> = Arc::new(RealRunIo);
    let journal =
        Arc::new(RunJournal::create(&full_dir, Arc::clone(&io), &manifest).expect("create run"));
    let session = RunSession::fresh(Arc::clone(&journal));
    let full_ledger = CostLedger::new();
    let full = Engine::run_with_session(&cfg, &ctx, &clips, &opts, &full_ledger, Some(&session));
    assert_eq!(full.stats.clips_checkpointed, n as u64);
    assert_eq!(full.stats.checkpoint_failures, 0);
    assert_eq!(full.stats.deterministic_projection(), reference.projection);
    assert_eq!(ledger_bits(&full_ledger), reference.ledger_bits);
    assert_eq!(
        serde_json::to_string(&full.expect_tracks()).expect("tracks serialize"),
        reference.tracks_json,
        "journaled run diverged from the unjournaled reference"
    );
    let full_journal = std::fs::read(full_dir.join(RUN_JOURNAL_FILE)).expect("read journal");
    let lines: Vec<&[u8]> = full_journal.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(lines.len(), n, "one acknowledgement per clip");

    // The exactly-once target store, seeded with the reference tracks
    // under their source keys.
    let mut store = TrackStore::create(&base.join("store")).expect("create store");
    for (idx, (clip, ts)) in clips.iter().zip(&reference.tracks).enumerate() {
        let source = format!("{}/{idx}", DatasetKind::Caldot1.name());
        let (_, fresh) = store
            .ingest_clip_keyed(&clip_info(clip), ts, &source)
            .expect("seed store");
        assert!(fresh);
    }

    let kill_ordinals: Vec<usize> = if smoke {
        // CI subset: first, middle and final checkpoint
        let mut v = vec![0, n / 2, n];
        v.dedup();
        v
    } else {
        (0..=n).collect()
    };
    let torn_ordinals: Vec<usize> = if smoke { vec![n / 2] } else { (0..n).collect() };

    let mut sweep = Vec::new();

    // Kill at every checkpoint ordinal: the journal holds exactly the
    // first k acknowledgements.
    for &k in &kill_ordinals {
        let dir = base.join(format!("kill-{k}"));
        clone_run_dir(&full_dir, &dir, &lines[..k].concat());
        sweep.push(resume_and_check(
            &dir, "kill", k as u64, &cfg, &ctx, &clips, &opts, &manifest, &reference, &mut store,
        ));
    }

    // Torn tail: half of record k+1 lands as crash debris after the
    // first k — replay must classify it as a tail and drop it.
    for &k in &torn_ordinals {
        let mut bytes = lines[..k].concat();
        bytes.extend_from_slice(&lines[k][..lines[k].len() / 2]);
        let dir = base.join(format!("torn-{k}"));
        clone_run_dir(&full_dir, &dir, &bytes);
        sweep.push(resume_and_check(
            &dir,
            "torn-tail",
            k as u64,
            &cfg,
            &ctx,
            &clips,
            &opts,
            &manifest,
            &reference,
            &mut store,
        ));
    }

    // Mid-rename crashes: the process dies at payload-rename ordinal r
    // (rename 0 is the manifest; 1..=n are clip payloads), leaving a
    // stranded tmp file and a journal prefix. The engine under the
    // faulty I/O swallows checkpoint failures — the clips still
    // compute; they are just never acknowledged.
    let rename_ordinals: Vec<u64> = if smoke {
        vec![1 + n as u64 / 2]
    } else {
        (0..=n as u64).collect()
    };
    for &r in &rename_ordinals {
        let dir = base.join(format!("rename-{r}"));
        let faulty: Arc<dyn RunIo> = Arc::new(ChaosRunIo {
            inner: FaultyIo::new(RealIo, StoreFaultPlan::crash_at(StoreOp::Rename, r)),
        });
        match RunJournal::create(&dir, Arc::clone(&faulty), &manifest) {
            Ok(j) => {
                let session = RunSession::fresh(Arc::new(j));
                let run = Engine::run_with_session(
                    &cfg,
                    &ctx,
                    &clips,
                    &opts,
                    &CostLedger::new(),
                    Some(&session),
                );
                assert!(
                    run.stats.checkpoint_failures > 0,
                    "rename @ {r}: the injected crash never fired"
                );
                sweep.push(resume_and_check(
                    &dir,
                    "crash-rename",
                    r,
                    &cfg,
                    &ctx,
                    &clips,
                    &opts,
                    &manifest,
                    &reference,
                    &mut store,
                ));
            }
            Err(_) => {
                // rename 0 = the manifest: the run never started, so
                // nothing was acknowledged — a fresh journaled run in
                // the same directory must succeed and match.
                assert_eq!(r, 0, "only the manifest rename may abort run creation");
                let j = RunJournal::create(&dir, Arc::new(RealRunIo), &manifest)
                    .expect("re-create after aborted run");
                let session = RunSession::fresh(Arc::new(j));
                let ledger = CostLedger::new();
                let run =
                    Engine::run_with_session(&cfg, &ctx, &clips, &opts, &ledger, Some(&session));
                let projection = run.stats.deterministic_projection();
                let identical = serde_json::to_string(&run.expect_tracks())
                    .expect("tracks serialize")
                    == reference.tracks_json
                    && ledger_bits(&ledger) == reference.ledger_bits
                    && projection == reference.projection;
                assert!(identical, "rename @ 0: restarted run diverged");
                sweep.push(ChaosPoint {
                    kind: "crash-rename",
                    ordinal: 0,
                    acked: 0,
                    skipped: 0,
                    recomputed: n,
                    identical,
                });
            }
        }
    }

    // Oversubscription guard: a 64-stream journaled kill/resume cycle
    // on a fixed 4-worker pool. The task engine must keep the OS thread
    // count at the pool size (+ main thread, watchdog and slack) no
    // matter how many streams are in flight, and the resume must stay
    // bitwise identical across worker counts.
    {
        const WORKERS: usize = 4;
        const THREAD_SLACK: u64 = 4;
        let wide_clips = DatasetConfig::new(
            DatasetKind::Caldot1,
            DatasetScale {
                clips_per_split: 64,
                clip_seconds: 1.0,
            },
            SEED ^ 0x40,
        )
        .generate()
        .test;
        let wide_opts = EngineOptions {
            streams: 64,
            workers: WORKERS,
            detector_exec: DetectorExec::Batched,
            ..EngineOptions::default()
        };
        let wide_ledger = CostLedger::new();
        let wide_ref = Engine::run(&cfg, &ctx, &wide_clips, &wide_opts, &wide_ledger);
        let cap = WORKERS as u64 + THREAD_SLACK;
        assert!(
            wide_ref.stats.peak_os_threads <= cap,
            "64 streams oversubscribed the pool: peak {} OS threads > cap {cap}",
            wide_ref.stats.peak_os_threads
        );
        assert_eq!(wide_ref.stats.failed_clips, 0);

        // Journal on 4 workers, cut the journal halfway, resume on 1
        // worker: byte identity and the thread cap both hold.
        let wide_manifest = run_manifest(&cfg, &ctx, &wide_clips, &wide_opts);
        let wide_dir = base.join("wide");
        let journal =
            Arc::new(RunJournal::create(&wide_dir, Arc::clone(&io), &wide_manifest).expect("wide"));
        let session = RunSession::fresh(Arc::clone(&journal));
        Engine::run_with_session(
            &cfg,
            &ctx,
            &wide_clips,
            &wide_opts,
            &CostLedger::new(),
            Some(&session),
        );
        let journal_bytes =
            std::fs::read(wide_dir.join(RUN_JOURNAL_FILE)).expect("read wide journal");
        let wide_lines: Vec<&[u8]> = journal_bytes.split_inclusive(|&b| b == b'\n').collect();
        std::fs::write(
            wide_dir.join(RUN_JOURNAL_FILE),
            wide_lines[..wide_lines.len() / 2].concat(),
        )
        .expect("cut wide journal");
        let narrow_opts = EngineOptions {
            workers: 1,
            ..wide_opts
        };
        let (reopened, replayed) =
            RunJournal::open(&wide_dir, Arc::clone(&io), &wide_manifest).expect("reopen wide");
        let reopened = Arc::new(reopened);
        let recovered = reopened.recover(&replayed, wide_clips.len());
        let session = RunSession::resumed(reopened, recovered);
        let resumed_ledger = CostLedger::new();
        let resumed = Engine::run_with_session(
            &cfg,
            &ctx,
            &wide_clips,
            &narrow_opts,
            &resumed_ledger,
            Some(&session),
        );
        assert!(
            resumed.stats.peak_os_threads <= 1 + THREAD_SLACK,
            "1-worker resume oversubscribed: peak {} OS threads",
            resumed.stats.peak_os_threads
        );
        assert_eq!(
            ledger_bits(&resumed_ledger),
            ledger_bits(&wide_ledger),
            "wide resume ledger diverged across worker counts"
        );
        assert_eq!(resumed.rounds, wide_ref.rounds);
        let wide_peak = wide_ref.stats.peak_os_threads;
        assert_eq!(
            serde_json::to_string(&resumed.expect_tracks()).expect("tracks serialize"),
            serde_json::to_string(&wide_ref.expect_tracks()).expect("tracks serialize"),
            "wide resume tracks diverged across worker counts"
        );
        println!(
            "oversubscription guard: 64 streams on {WORKERS} workers, peak {wide_peak} OS \
             threads (cap {cap}); half-journal resume on 1 worker bitwise identical"
        );
    }

    let report = ChaosReport {
        scale: scale_name,
        dataset: DatasetKind::Caldot1.name().to_string(),
        clips: n,
        checkpoints: n,
        crash_points: sweep.len(),
        zero_acked_loss: sweep.iter().all(|p| p.skipped == p.acked),
        outputs_identical: sweep.iter().all(|p| p.identical),
        bounded_recompute: sweep.iter().all(|p| p.recomputed <= n - p.acked + 1),
        zero_duplicate_ingests: store.len() == n,
        sweep,
    };
    assert!(report.zero_acked_loss && report.outputs_identical && report.bounded_recompute);
    assert!(report.zero_duplicate_ingests, "store grew past {n} clips");

    let rows: Vec<Vec<String>> = ["kill", "torn-tail", "crash-rename"]
        .iter()
        .map(|kind| {
            let pts: Vec<&ChaosPoint> = report.sweep.iter().filter(|p| p.kind == *kind).collect();
            vec![
                kind.to_string(),
                pts.len().to_string(),
                pts.iter().map(|p| p.acked).min().unwrap_or(0).to_string(),
                pts.iter().map(|p| p.acked).max().unwrap_or(0).to_string(),
                pts.iter()
                    .map(|p| p.recomputed)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                "yes".to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos: engine crash/resume sweep (outputs bitwise identical at every point)",
        &[
            "crash kind",
            "points",
            "min acked",
            "max acked",
            "max recomputed",
            "identical",
        ],
        &rows,
    );
    println!(
        "\n{} crash point(s) over {} checkpoint(s): zero acked loss, bitwise-identical \
         resumes, recomputation bounded, {} store clip(s) with zero duplicates",
        report.crash_points, report.checkpoints, n
    );

    write_json(
        if smoke {
            "BENCH_chaos_smoke"
        } else {
            "BENCH_chaos"
        },
        &report,
    );
    std::fs::remove_dir_all(&base).ok();
}
