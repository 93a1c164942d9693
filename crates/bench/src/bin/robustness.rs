//! Robustness benchmark: crash-consistency of the track store and
//! overload safety of the query server.
//!
//! **Crash sweep** — tracks are extracted once, then ingested into a
//! fresh store over and over, each run crashing at a different
//! `(operation, ordinal)` point of the store's I/O sequence (every
//! write, rename and append observed in a fault-free counting run, plus
//! a torn-append variant at every journal append). After each crash the
//! store is repaired with `fsck` and reopened. Hard assertions, at
//! every crash point:
//!
//! - **zero acknowledged-ingest loss** — the recovered store holds
//!   exactly the clips whose `ingest_clip` returned `Ok` before the
//!   crash, never fewer;
//! - **byte-identical answers** — the mixed workload over the recovered
//!   store fingerprints identically to a never-crashed reference store
//!   holding the same clip prefix, with zero degraded answers.
//!
//! **Transient reads** — a store opened through an I/O layer that fails
//! reads transiently must heal through the bounded deterministic
//! retry/backoff schedule and still answer byte-identically.
//!
//! **Overload** — the same workload is replayed against a saturating
//! 8-client burst under a tight `OverloadPolicy` (one evaluation slot,
//! a two-deep queue, a 50 ms deadline). Hard assertions: some queries
//! are shed; every *non-degraded* answer is byte-identical to the
//! unloaded reference, query for query; p99 latency stays bounded by
//! the deadline plus one slow evaluation; degraded answers decode to
//! self-marking [`Answer::Approximate`].
//!
//! Usage: `cargo run --release -p otif-bench --bin robustness
//! [tiny|small|experiment|smoke]` — `smoke` is the CI entry: tiny
//! scale, results to `BENCH_robustness_smoke.json` instead of
//! `BENCH_robustness.json`.

use otif_bench::harness::SEED;
use otif_bench::report::{print_table, write_json};
use otif_core::config::{OtifConfig, TrackerKind};
use otif_core::pipeline::ExecutionContext;
use otif_cv::{CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif_engine::{Engine, EngineOptions};
use otif_serve::journal::JOURNAL_FILE;
use otif_serve::{
    fsck, mixed_workload, run_workload_traced, Answer, CacheMode, ClipInfo, FaultyIo,
    OverloadPolicy, QueryServer, RealIo, ServeOptions, StoreFaultPlan, StoreIo, StoreOp,
    StoreOptions, TrackStore, WorkloadRun,
};
use otif_sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use otif_track::Track;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Cold-read budget for the overload scenario, spread over the store's
/// clips: a full cold evaluation takes ~30 ms — long enough that the
/// saturating burst genuinely overlaps in the server, short enough that
/// an admitted query still beats the 50 ms deadline.
fn slow_read_delay(clips: usize) -> Duration {
    Duration::from_secs_f64((0.030 / clips.max(1) as f64).clamp(0.002, 0.015))
}

/// An I/O layer that stands in for cold storage: every read sleeps a
/// fixed delay before delegating. This is what makes the overload
/// scenario deterministic at tiny dataset scales — without it, queries
/// finish faster than the burst arrives and the admission queue never
/// fills.
struct SlowIo {
    delay: Duration,
}

impl StoreIo for SlowIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, otif_serve::StoreError> {
        std::thread::sleep(self.delay);
        RealIo.read(path)
    }
}

#[derive(Serialize)]
struct CrashPoint {
    op: &'static str,
    ordinal: u64,
    kind: &'static str,
    /// Ingests acknowledged (`Ok`) before the crash surfaced.
    acked: usize,
    /// Clips in the store after fsck --repair + reopen.
    recovered: usize,
    /// Whether fsck had anything to repair.
    repaired: bool,
    /// Workload over the recovered store fingerprints identically to
    /// the reference prefix store.
    answers_match: bool,
}

#[derive(Serialize)]
struct OverloadReport {
    reference: WorkloadRun,
    loaded: WorkloadRun,
    shed_queries: u64,
    shed_fraction: f64,
    /// Every non-degraded loaded answer matched the reference, per query.
    nondegraded_identical: bool,
    /// The p99 bound the loaded run was held to, in milliseconds.
    p99_bound_ms: f64,
}

#[derive(Serialize)]
struct RobustnessReport {
    scale: String,
    dataset: String,
    clips: usize,
    queries: usize,
    crash_points: usize,
    zero_acked_loss: bool,
    recovered_answers_identical: bool,
    transient_read_retries: u64,
    transient_backoff_seconds: f64,
    overload: OverloadReport,
    sweep: Vec<CrashPoint>,
}

/// Extract per-clip tracks once (untrained operating point: fast and
/// deterministic).
fn extract_tracks(scale: DatasetScale) -> (Vec<Clip>, Vec<Vec<Track>>) {
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
    let run = Engine::run(
        &cfg,
        &ctx,
        &clips,
        &EngineOptions::with_streams(4),
        &CostLedger::new(),
    );
    let tracks: Vec<Vec<Track>> = run
        .tracks
        .iter()
        .map(|o| o.tracks().expect("healthy engine run").to_vec())
        .collect();
    (clips, tracks)
}

fn clip_info(clip: &Clip) -> ClipInfo {
    ClipInfo {
        num_frames: clip.num_frames(),
        fps: clip.scene.fps as f32,
        width: clip.scene.width as f32,
        height: clip.scene.height as f32,
    }
}

/// Workload fingerprint of a store: the deterministic mixed workload at
/// 2 clients, single-threaded evaluation, no degradation tolerated.
fn exact_fingerprint(store: Arc<TrackStore>, repeats: usize) -> u64 {
    let workload = mixed_workload(store.metas(), repeats, SEED);
    let server = QueryServer::new(store, 256);
    let opts = ServeOptions {
        threads: 1,
        pruning: true,
        cache: CacheMode::On,
    };
    let (run, _) = run_workload_traced(&server, &workload, 2, &opts).expect("exact workload");
    assert_eq!(run.degraded, 0, "reference runs must not degrade");
    run.answers_fingerprint
}

/// Never-crashed reference fingerprints for every clip-count prefix:
/// `prefix_fp[k]` is the workload fingerprint over a store holding the
/// first `k` clips.
fn prefix_fingerprints(
    base: &Path,
    clips: &[Clip],
    tracks: &[Vec<Track>],
    repeats: usize,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(clips.len() + 1);
    for k in 0..=clips.len() {
        let dir = base.join(format!("ref-{k}"));
        let mut store = TrackStore::create(&dir).expect("create reference store");
        for (clip, ts) in clips.iter().take(k).zip(tracks) {
            store.ingest_clip(&clip_info(clip), ts).expect("ingest");
        }
        out.push(exact_fingerprint(Arc::new(store), repeats));
    }
    out
}

/// Ingest everything through a faulty I/O layer; the first error is
/// the simulated crash. Returns the number of acknowledged ingests.
fn ingest_until_crash(
    dir: &Path,
    io: Arc<dyn StoreIo>,
    clips: &[Clip],
    tracks: &[Vec<Track>],
) -> usize {
    let Ok(mut store) = TrackStore::create_with(dir, io, StoreOptions::default()) else {
        return 0;
    };
    let mut acked = 0usize;
    for (clip, ts) in clips.iter().zip(tracks) {
        match store.ingest_clip(&clip_info(clip), ts) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

/// One `(operation, ordinal)` coordinate of the crash sweep.
#[derive(Clone, Copy)]
struct CrashSpec {
    op: StoreOp,
    ordinal: u64,
    /// Torn (partial) write instead of a clean crash — only meaningful
    /// for journal appends.
    torn: bool,
}

/// Run one crash point end to end: ingest-until-crash, repair, reopen,
/// compare against the reference prefix.
fn run_crash_point(
    base: &Path,
    clips: &[Clip],
    tracks: &[Vec<Track>],
    prefix_fp: &[u64],
    repeats: usize,
    spec: CrashSpec,
) -> CrashPoint {
    let CrashSpec { op, ordinal, torn } = spec;
    let dir = base.join(format!(
        "crash-{}-{}-{}",
        op.name(),
        ordinal,
        if torn { "torn" } else { "crash" }
    ));
    let plan = if torn {
        StoreFaultPlan::torn_at(op, ordinal)
    } else {
        StoreFaultPlan::crash_at(op, ordinal)
    };
    let acked = ingest_until_crash(&dir, Arc::new(FaultyIo::new(RealIo, plan)), clips, tracks);

    // recovery happens on the real filesystem: replay the journal,
    // truncate debris, remove orphans, rebuild the checkpoint
    let report = fsck(&dir, true).expect("fsck --repair");
    assert!(
        report.missing_clips.is_empty(),
        "{} @ {ordinal}: acknowledged clip(s) {:?} lost their payload",
        op.name(),
        report.missing_clips
    );
    let repaired = report.repaired;

    // a crash before the journal existed leaves an unborn store — legal
    // only when nothing was acknowledged
    let (recovered, answers_match) = if dir.join(JOURNAL_FILE).exists() {
        let store = TrackStore::open(&dir).expect("reopen repaired store");
        let n = store.len();
        let fp = exact_fingerprint(Arc::new(store), repeats);
        (n, fp == prefix_fp[n])
    } else {
        (0, true)
    };
    assert!(
        recovered >= acked,
        "{} @ {ordinal}: {acked} ingest(s) acknowledged but only {recovered} recovered",
        op.name()
    );
    assert!(
        answers_match,
        "{} @ {ordinal}: recovered store answers diverged from the reference prefix",
        op.name()
    );
    CrashPoint {
        op: op.name(),
        ordinal,
        kind: if torn { "torn" } else { "crash" },
        acked,
        recovered,
        repaired,
        answers_match,
    }
}

/// Transient read faults heal through the bounded deterministic
/// retry/backoff schedule without changing answer bytes.
fn transient_reads(dir: &Path, want_fp: u64, repeats: usize) -> (u64, f64) {
    let io: Arc<dyn StoreIo> = Arc::new(FaultyIo::new(
        RealIo,
        // read 0 is the journal on open; fail the next two clip reads
        // twice each — both within the default read_retries budget
        StoreFaultPlan::transient_reads(1, 2).with(otif_serve::StoreFaultSpec {
            op: StoreOp::Read,
            ordinal: 4,
            kind: otif_serve::StoreFaultKind::Transient { failures: 2 },
        }),
    ));
    let store =
        TrackStore::open_with(dir, io, StoreOptions::default()).expect("open through faulty reads");
    let store = Arc::new(store);
    let fp = exact_fingerprint(Arc::clone(&store), repeats);
    assert_eq!(fp, want_fp, "transient read faults must not change answers");
    let retries = store.read_retry_count();
    let backoff = store.retry_backoff_seconds();
    assert!(
        retries >= 2,
        "transient faults were injected but never retried"
    );
    assert!(backoff > 0.0, "retries must charge virtual backoff");
    (retries, backoff)
}

/// The step-load overload scenario: an 8-client burst against a
/// one-slot server with a tight deadline, compared per query against an
/// unloaded reference. Both servers read clips through [`SlowIo`]
/// (cold caches), so the burst's first admitted query holds the slot
/// long enough for the queue to provably overflow.
fn overload(dir: &Path, repeats: usize) -> OverloadReport {
    let slow = |delay| {
        Arc::new(
            TrackStore::open_with(dir, Arc::new(SlowIo { delay }), StoreOptions::default())
                .expect("open through slow reads"),
        )
    };
    let opts = ServeOptions {
        threads: 1,
        pruning: true,
        cache: CacheMode::Off, // every query evaluates — sustained pressure
    };

    let ref_store = slow(slow_read_delay(TrackStore::open(dir).expect("probe").len()));
    let workload = mixed_workload(ref_store.metas(), repeats.max(4), SEED);
    let ref_server = QueryServer::new(Arc::clone(&ref_store), 0);
    let (reference, ref_traces) =
        run_workload_traced(&ref_server, &workload, 1, &opts).expect("reference run");
    assert_eq!(reference.degraded, 0, "unloaded run must not degrade");

    // Generous relative to the ~30 ms cold slot-hold, so admitted
    // queries finish exactly; shedding comes from the queue bound, not
    // the deadline.
    let deadline = Duration::from_millis(250);
    let policy = OverloadPolicy {
        max_concurrent: 1,
        max_queue: 2,
        deadline: Some(deadline),
    };
    let loaded_store = slow(slow_read_delay(ref_store.len()));
    let loaded_server = QueryServer::with_policy(Arc::clone(&loaded_store), 0, policy);
    let (loaded, loaded_traces) =
        run_workload_traced(&loaded_server, &workload, 8, &opts).expect("loaded run");
    let stats = loaded_server.stats();
    assert!(
        stats.shed_queries > 0,
        "an 8-client burst against one slot and a 2-deep queue must shed"
    );
    assert!(
        loaded.degraded < workload.len(),
        "at least one loaded query must be answered exactly, or the \
         byte-identity comparison is vacuous"
    );

    // which queries degrade is timing-dependent; non-degraded answer
    // bytes are not
    let nondegraded_identical = ref_traces
        .iter()
        .zip(&loaded_traces)
        .all(|(r, l)| l.degraded || l.fingerprint == r.fingerprint);
    assert!(
        nondegraded_identical,
        "a non-shed answer under load diverged from the unloaded reference"
    );

    // shed queries answer immediately and queue waits are cut by the
    // deadline, so the tail is bounded by the deadline plus one slow
    // admitted evaluation (plus scheduling slack)
    let p99_bound_ms = deadline.as_secs_f64() * 1e3 + 2.0 * reference.latency.max_ms + 250.0;
    assert!(
        loaded.latency.p99_ms <= p99_bound_ms,
        "p99 under shed ({:.3} ms) exceeded the bound ({p99_bound_ms:.3} ms)",
        loaded.latency.p99_ms
    );

    // degraded answers are self-marking in their canonical bytes
    let zero_deadline = QueryServer::with_policy(
        Arc::clone(&loaded_store),
        0,
        OverloadPolicy {
            max_concurrent: 0,
            max_queue: 0,
            deadline: Some(Duration::ZERO),
        },
    );
    let outcome = zero_deadline
        .execute_robust(&workload[0], &opts)
        .expect("degraded execute");
    assert!(outcome.degraded.is_some(), "zero deadline must degrade");
    assert!(
        Answer::from_bytes(&outcome.bytes).is_approximate(),
        "degraded bytes must decode to Answer::Approximate"
    );

    OverloadReport {
        shed_queries: stats.shed_queries,
        shed_fraction: stats.shed_queries as f64 / workload.len() as f64,
        nondegraded_identical,
        p99_bound_ms,
        reference,
        loaded,
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let (scale, smoke) = match arg.as_deref() {
        Some("tiny") => (DatasetScale::TINY, false),
        Some("smoke") => (DatasetScale::TINY, true),
        Some("small") => (
            DatasetScale {
                clips_per_split: 4,
                clip_seconds: 10.0,
            },
            false,
        ),
        Some("experiment") | None => (DatasetScale::EXPERIMENT, false),
        Some(other) => panic!("unknown scale '{other}' (expected tiny|small|experiment|smoke)"),
    };
    let scale_name = if smoke {
        "smoke".to_string()
    } else {
        format!("{}x{:.0}s", scale.clips_per_split, scale.clip_seconds)
    };
    let repeats = 3usize;

    let base: PathBuf =
        std::env::temp_dir().join(format!("otif-robustness-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (clips, tracks) = extract_tracks(scale);

    // fault-free counting run: how many of each I/O op does a full
    // ingest perform? Every observed (op, ordinal) is a crash point.
    let counter = Arc::new(FaultyIo::new(RealIo, StoreFaultPlan::none()));
    let counted = ingest_until_crash(
        &base.join("count"),
        Arc::clone(&counter) as Arc<dyn StoreIo>,
        &clips,
        &tracks,
    );
    assert_eq!(
        counted,
        clips.len(),
        "fault-free ingest must ack every clip"
    );
    let op_counts = counter.ops();

    let prefix_fp = prefix_fingerprints(&base, &clips, &tracks, repeats);

    let mut sweep = Vec::new();
    for op in StoreOp::ALL {
        if op == StoreOp::Read {
            continue; // ingest never reads; read faults are swept below
        }
        let count = op_counts.get(&op).copied().unwrap_or(0);
        for ordinal in 0..count {
            let spec = CrashSpec {
                op,
                ordinal,
                torn: false,
            };
            sweep.push(run_crash_point(
                &base, &clips, &tracks, &prefix_fp, repeats, spec,
            ));
            if op == StoreOp::Append {
                // a torn journal append: half the record lands as tail
                // debris that replay + fsck must truncate
                sweep.push(run_crash_point(
                    &base,
                    &clips,
                    &tracks,
                    &prefix_fp,
                    repeats,
                    CrashSpec { torn: true, ..spec },
                ));
            }
        }
    }
    let zero_acked_loss = sweep.iter().all(|p| p.recovered >= p.acked);
    let recovered_answers_identical = sweep.iter().all(|p| p.answers_match);

    let full_ref = base.join(format!("ref-{}", clips.len()));
    let (retries, backoff) = transient_reads(&full_ref, prefix_fp[clips.len()], repeats);

    let store = Arc::new(TrackStore::open(&full_ref).expect("open full reference"));
    let workload_len = mixed_workload(store.metas(), repeats.max(4), SEED).len();
    let over = overload(&full_ref, repeats);

    let report = RobustnessReport {
        scale: scale_name,
        dataset: DatasetKind::Caldot1.name().to_string(),
        clips: clips.len(),
        queries: workload_len,
        crash_points: sweep.len(),
        zero_acked_loss,
        recovered_answers_identical,
        transient_read_retries: retries,
        transient_backoff_seconds: backoff,
        overload: over,
        sweep,
    };

    let rows: Vec<Vec<String>> = StoreOp::ALL
        .iter()
        .filter(|op| **op != StoreOp::Read)
        .map(|op| {
            let pts: Vec<&CrashPoint> = report.sweep.iter().filter(|p| p.op == op.name()).collect();
            vec![
                op.name().to_string(),
                pts.len().to_string(),
                pts.iter().filter(|p| p.repaired).count().to_string(),
                pts.iter().map(|p| p.acked).min().unwrap_or(0).to_string(),
                pts.iter().map(|p| p.acked).max().unwrap_or(0).to_string(),
                "yes".to_string(),
            ]
        })
        .collect();
    print_table(
        "Robustness: crash sweep (all points recovered, zero acked loss)",
        &[
            "op",
            "points",
            "repaired",
            "min acked",
            "max acked",
            "identical",
        ],
        &rows,
    );
    println!(
        "\noverload: shed {}/{} ({:.0}%), loaded p99 {:.3} ms (bound {:.3} ms), \
         non-degraded answers identical: {}; transient reads retried {} time(s) \
         ({:.3} s virtual backoff)",
        report.overload.shed_queries,
        report.queries,
        report.overload.shed_fraction * 100.0,
        report.overload.loaded.latency.p99_ms,
        report.overload.p99_bound_ms,
        report.overload.nondegraded_identical,
        report.transient_read_retries,
        report.transient_backoff_seconds
    );

    write_json(
        if smoke {
            "BENCH_robustness_smoke"
        } else {
            "BENCH_robustness"
        },
        &report,
    );
    std::fs::remove_dir_all(&base).ok();
}
