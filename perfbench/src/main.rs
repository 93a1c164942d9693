//! Wall-clock benchmark of the OTIF ingest and query paths.
//!
//! ```text
//! cargo --config 'build.rustflags=["-C", "llvm-args=-align-all-functions=6"]' \
//!     run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-proxy|ingest-detect> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The flag aligns every function to 64 bytes, so that where the linker
//! places code does not change the timings (see `perfbench/README.md`).
//!
//! Every workload drives the public APIs a user drives: `Otif::prepare`,
//! `Engine::run_with_session`, `TrackStore` and `QueryServer`. The
//! inputs are generated from `--seed`. The last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! with `--trace 0` the end-to-end metrics, measured untraced; with
//! `--trace 1` the per-layer metrics of a traced run, whose spans are
//! also written to `.perfbench-out/`. Load stays within two threads:
//! two engine workers, or two closed-loop query clients whose queries
//! each evaluate on one thread. See `perfbench/README.md` for the
//! workloads and metrics.

mod io;
mod serving;
mod trace;
mod workload;

use io::{CountingRunIo, CountingStoreIo};
use otif_cv::CostLedger;
use otif_engine::Engine;
use otif_serve::ServeQuery;
use otif_track::Track;
use serving::{cold_start, query_stream, reference_answers, warm_batch, Batch, Kind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{summarize, Tracer};
use workload::{ingest_once, replay, store_ingest, IngestOutcome, Prepared, Reference, Workload};
use workload::{ReplayCounts, THREAD_SLACK, WORKERS};

/// Fewest samples a run takes of each phase.
const MIN_SAMPLES: usize = 3;
/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".perfbench-out";
/// Scratch stores and run journals (removed when the run ends).
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut vals: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let val = it.next().ok_or(format!("{key} needs a value"))?;
        vals.insert(key, val);
    }
    let get = |k: &str| vals.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or(format!(
        "unknown workload {name:?} (expected one of {})",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Correctness checks and operation counts of one run.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Engine outputs equal the sequential reference, the store holds
    /// the reference fingerprint, the ledger repeats bit for bit and the
    /// scheduler stayed within its thread budget.
    fn ingest(
        &mut self,
        out: &IngestOutcome,
        reference: &Reference,
        ledger_bits: &mut Option<u64>,
    ) {
        self.attempted += out.run.tracks.len() as u64;
        self.failed += out.failed_clips as u64;
        let tracks: Vec<Option<&[Track]>> = out.run.tracks.iter().map(|o| o.tracks()).collect();
        let bad = reference.mismatches(&tracks);
        self.require(bad == 0, || {
            format!("{bad} clip(s) differ from the sequential Pipeline reference")
        });
        self.require(
            out.failed_clips > 0 || out.store_fingerprint == reference.store_fingerprint,
            || {
                format!(
                    "store fingerprint {:016x} != reference {:016x}",
                    out.store_fingerprint, reference.store_fingerprint
                )
            },
        );
        let peak = out.run.stats.peak_os_threads;
        let cap = WORKERS as u64 + THREAD_SLACK;
        self.require(peak <= cap, || {
            format!("engine peaked at {peak} OS threads, over the budget of {cap}")
        });
        let bits = out.execution_seconds.to_bits();
        let first = *ledger_bits.get_or_insert(bits);
        self.require(first == bits, || "ledger total changed between runs".into());
    }

    /// Every exact answer equals its cache-off, prune-off answer.
    fn answers(&mut self, batch: &Batch, queries: &[(Kind, ServeQuery)], r: &HashMap<String, u64>) {
        self.attempted += queries.len() as u64;
        self.failed += batch.failed() as u64;
        let bad = batch.mismatches(queries, r);
        self.require(bad == 0, || {
            format!("{bad} answer(s) differ from the cache-off, prune-off reference")
        });
    }
}

struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ok_tracks(out: &IngestOutcome) -> Vec<Vec<Track>> {
    out.run
        .tracks
        .iter()
        .map(|o| o.tracks().map(<[Track]>::to_vec).unwrap_or_default())
        .collect()
}

fn describe(p: &Prepared) {
    let w = p.workload;
    let scene = &p.clips[0].scene;
    eprintln!(
        "workload {}: {} {}x{}, {} clips x {} s, seed {}, {} streams on {} workers, journal {}, \
         detector surrogate {}",
        w.name,
        w.kind.name(),
        scene.width,
        scene.height,
        w.clips,
        w.clip_seconds,
        p.seed,
        w.streams,
        WORKERS,
        if w.journal { "on" } else { "off" },
        w.exec.as_str()
    );
    eprintln!("pinned theta: {}", p.config.describe());
}

/// The end-to-end run: tracing off.
fn measured(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut checks = Checks::default();
    let run_io = Arc::new(CountingRunIo::default());
    let store_io = Arc::new(CountingStoreIo::default());

    // Set-up: dataset generation, Otif::prepare and proxy calibration.
    // It is timed here once and again as the fourth phase below.
    let started = Instant::now();
    let p = Prepared::build(w, args.seed);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    describe(&p);
    let reference = Reference::compute(&p, &work.join("reference"))?;

    // The timed region interleaves the four phases, each step running
    // the phase furthest below its share of the time spent, so every
    // phase samples the whole run and a slow spell of the machine lands
    // on all of them alike.
    let mut ledger_bits = None;
    let region = Instant::now();
    let mut ingest_walls = Vec::new();
    let mut first = None;
    let mut cold = Vec::new();
    let mut batches = Vec::new();
    let mut queries = Vec::new();
    let mut spent = [0.0, 0.0, 0.0, setup_s[0]];
    let mut latest: Option<PathBuf> = None;
    let mut store = None;
    loop {
        let counts = [ingest_walls.len(), cold.len(), batches.len(), setup_s.len()];
        if counts.iter().all(|&n| n >= MIN_SAMPLES)
            && region.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
        let phase = match counts.iter().position(|&n| n == 0) {
            Some(first_time) => first_time,
            None => (0..4)
                .min_by(|&a, &b| (spent[a] / w.shares[a]).total_cmp(&(spent[b] / w.shares[b])))
                .expect("four phases"),
        };
        let started = Instant::now();
        match phase {
            0 => {
                let dir = work.join(format!("ingest-{}", ingest_walls.len()));
                let out = ingest_once(&p, &dir, &run_io, &store_io)?;
                checks.ingest(&out, &reference, &mut ledger_bits);
                ingest_walls.push(out.wall_s);
                first.get_or_insert_with(|| {
                    (
                        out.execution_seconds,
                        p.query.accuracy(&ok_tracks(&out), &p.clips) as f64,
                        out.run.stats.batch_items,
                    )
                });
                if let Some(prev) = latest.replace(dir) {
                    std::fs::remove_dir_all(prev).map_err(|e| e.to_string())?;
                }
            }
            1 => {
                let served = latest
                    .as_ref()
                    .expect("an ingest precedes the first cold start");
                let c = cold_start(&served.join("store"), &store_io, None)?;
                checks.attempted += c.store.len() as u64;
                cold.push(c.total_s);
                if queries.is_empty() {
                    queries = query_stream(c.store.metas(), p.query_seed, serving::BATCH_QUERIES);
                }
                store = Some(c.store);
            }
            2 => {
                let s = store
                    .as_ref()
                    .expect("a cold start precedes the first batch");
                batches.push(warm_batch(s, &queries, None));
            }
            _ => {
                let again = Prepared::build(w, args.seed);
                setup_s.push(started.elapsed().as_secs_f64());
                checks.require(again.config == p.config, || {
                    format!("set-up is not repeatable: {:?}", again.config)
                });
            }
        }
        spent[phase] += started.elapsed().as_secs_f64();
    }
    let timed_s = region.elapsed().as_secs_f64();

    let answers = reference_answers(&store.expect("at least one cold start"), &queries)?;
    for b in &batches {
        checks.answers(b, &queries, &answers);
    }
    let (execution_seconds, accuracy, windows) = first.expect("at least one ingest");
    // A workload that detects nothing would time an empty pipeline.
    checks.require(windows > 0 && accuracy > 0.0, || {
        format!("degenerate run: {windows} detector windows, track accuracy {accuracy}")
    });
    let fps: Vec<f64> = ingest_walls
        .iter()
        .map(|s| p.native_frames() as f64 / s)
        .collect();
    let qps: Vec<f64> = batches
        .iter()
        .map(|b| b.answered() as f64 / b.wall_s)
        .collect();
    let batch_percentile = |p: f64| -> Vec<f64> {
        batches
            .iter()
            .map(|b| {
                percentile(
                    &b.samples.iter().flatten().map(|s| s.ms).collect::<Vec<_>>(),
                    p,
                )
            })
            .collect()
    };
    for (name, v) in [
        ("ingest fps", &fps),
        ("cold s", &cold),
        ("batch qps", &qps),
        ("setup s", &setup_s),
    ] {
        eprintln!(
            "{name}: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
            percentile(v, 0.0),
            percentile(v, 25.0),
            median(v),
            percentile(v, 75.0),
            percentile(v, 100.0)
        );
    }
    eprintln!(
        "samples: {} ingests, {} cold starts, {} warm batches of {} queries (p50 and p99 \
         per batch, median over batches); phase seconds {spent:.2?}; timed region {timed_s:.2} s",
        ingest_walls.len(),
        cold.len(),
        batches.len(),
        queries.len(),
    );
    let metrics = vec![
        ("ingest_fps", median(&fps), "frames/s"),
        (
            "sim_s_per_video_h",
            execution_seconds / p.video_seconds() * 3600.0,
            "sim_s",
        ),
        ("track_accuracy", accuracy, "ratio"),
        ("cold_start_s", median(&cold), "s"),
        ("query_qps", median(&qps), "1/s"),
        ("query_p50_ms", median(&batch_percentile(50.0)), "ms"),
        ("query_p99_ms", median(&batch_percentile(99.0)), "ms"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(Report { checks, metrics })
}

/// Layers the sequential replay times: the stage work an engine run
/// performs, summed for `engine.overhead_s`.
const STAGE_LAYERS: [&str; 8] = [
    "sim.render",
    "core.proxy",
    "core.grouping",
    "cv.detector",
    "core.detnet.materialize",
    "core.detnet.forward",
    "track.step",
    "track.finalize",
];

/// Sums over the passes of a traced run.
#[derive(Default)]
struct PassTotals {
    passes: f64,
    counts: ReplayCounts,
    untraced_wall_s: f64,
    one_worker_s: f64,
    detnet_forward_s: f64,
    detnet_forwards: f64,
    detnet_windows: f64,
    rounds: f64,
    occupancy: f64,
    polls: f64,
    steals: f64,
    peak_os_threads: u64,
    open_s: f64,
    loads: f64,
    pruned: f64,
    evaluated: f64,
    scans_skipped: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    hit_ms: Vec<f64>,
    miss_ms: HashMap<&'static str, Vec<f64>>,
}

/// What every pass of a traced run shares, including the counting
/// adapters that accumulate over the passes.
struct TracedRun {
    p: Prepared,
    reference: Reference,
    tracer: Arc<Tracer>,
    untraced_io: Arc<CountingStoreIo>,
    ingest_io: Arc<CountingStoreIo>,
    cold_io: Arc<CountingStoreIo>,
    journal_io: Arc<CountingRunIo>,
}

/// One traced pass: each phase once untraced and once traced (the
/// engine runs are never traced; they give the engine's own counters).
fn traced_pass(
    run: &TracedRun,
    dir: &Path,
    checks: &mut Checks,
    acc: &mut PassTotals,
) -> Result<(), String> {
    let (p, reference) = (&run.p, &run.reference);
    let tracer = &*run.tracer;
    let t = Some(tracer);
    acc.passes += 1.0;

    // Ingest: the sequential replay of the stage functions, then the
    // keyed store ingest of its tracks.
    let started = Instant::now();
    let plain = replay(p, None, &mut ReplayCounts::default());
    acc.untraced_wall_s += started.elapsed().as_secs_f64();
    let replayed = {
        let _root = tracer.span("bench.ingest", 0);
        replay(p, t, &mut acc.counts)
    };
    for (what, tracks) in [("untraced", &plain), ("traced", &replayed)] {
        let refs: Vec<Option<&[Track]>> = tracks.iter().map(|t| Some(t.as_slice())).collect();
        let bad = reference.mismatches(&refs);
        checks.require(bad == 0, || {
            format!("{what} replay: {bad} clip(s) differ from the Pipeline reference")
        });
    }
    let started = Instant::now();
    store_ingest(
        p,
        &plain,
        &dir.join("plain-store"),
        run.untraced_io.clone(),
        None,
    )?;
    acc.untraced_wall_s += started.elapsed().as_secs_f64();
    let fingerprint = {
        let _root = tracer.span("bench.ingest", 0);
        store_ingest(
            p,
            &replayed,
            &dir.join("traced-store"),
            run.ingest_io.clone(),
            t,
        )?
    };
    checks.require(fingerprint == reference.store_fingerprint, || {
        "traced store ingest: fingerprint differs from the reference".into()
    });

    // The engine: one worker without a journal (the single-threaded
    // baseline), then the workload's configuration.
    let started = Instant::now();
    let one = Engine::run(
        &p.config,
        &p.ctx(),
        &p.clips,
        &p.engine_options(1),
        &CostLedger::new(),
    );
    acc.one_worker_s += started.elapsed().as_secs_f64();
    let refs: Vec<Option<&[Track]>> = one.tracks.iter().map(|o| o.tracks()).collect();
    let bad = reference.mismatches(&refs);
    checks.require(bad == 0, || {
        format!("1-worker engine: {bad} clip(s) differ")
    });
    let engine_dir = dir.join("engine");
    let out = ingest_once(p, &engine_dir, &run.journal_io, &run.untraced_io)?;
    checks.ingest(&out, reference, &mut None);
    let stats = &out.run.stats;
    acc.detnet_forward_s += stats.detector_wall_seconds;
    acc.detnet_forwards += stats.detector_forwards as f64;
    acc.detnet_windows += stats.detector_exec_windows as f64;
    acc.rounds += out.run.rounds.len() as f64;
    acc.occupancy += stats.mean_batch_occupancy;
    acc.polls += stats.task_polls as f64;
    acc.steals += stats.task_steals as f64;
    acc.peak_os_threads = acc.peak_os_threads.max(stats.peak_os_threads);

    // Cold start and one warm batch over the engine's store.
    let served = engine_dir.join("store");
    acc.untraced_wall_s += cold_start(&served, &run.untraced_io, None)?.total_s;
    let cold = {
        let _root = tracer.span("bench.cold", 0);
        cold_start(&served, &run.cold_io, t)?
    };
    checks.attempted += 2 * cold.store.len() as u64;
    acc.open_s += cold.open_s;
    acc.loads += cold.store.clip_loads() as f64;
    let queries = query_stream(cold.store.metas(), p.query_seed, serving::BATCH_QUERIES);
    let plain_batch = warm_batch(&cold.store, &queries, None);
    acc.untraced_wall_s += serving::CLIENTS as f64 * plain_batch.wall_s;
    let batch = warm_batch(&cold.store, &queries, t);
    let answers = reference_answers(&cold.store, &queries)?;
    checks.answers(&plain_batch, &queries, &answers);
    checks.answers(&batch, &queries, &answers);
    acc.pruned += batch.stats.clips_pruned as f64;
    acc.evaluated += batch.stats.clips_evaluated as f64;
    acc.scans_skipped += batch.stats.frame_scans_skipped as f64;
    acc.hits += batch.stats.cache.hits as f64;
    acc.misses += batch.stats.cache.misses as f64;
    acc.evictions += batch.stats.cache.evictions as f64;

    // Latency by kind: fresh queries always miss; a hot query hits once
    // an earlier query in the stream carried its key.
    let mut seen = HashSet::new();
    for (s, (kind, q)) in batch.samples.iter().zip(&queries) {
        let first_use = seen.insert(q.canonical_key());
        let Some(s) = s else { continue };
        match kind {
            Kind::Hot if !first_use => acc.hit_ms.push(s.ms),
            Kind::Hot => {}
            k => acc.miss_ms.entry(k.name()).or_default().push(s.ms),
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())
}

/// The per-layer run: traced passes until `--seconds` have elapsed.
/// Every metric is per pass.
fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut checks = Checks::default();
    let p = Prepared::build(w, args.seed);
    describe(&p);
    let reference = Reference::compute(&p, &work.join("reference"))?;
    let tracer = Arc::new(Tracer::new());
    let run = TracedRun {
        p,
        reference,
        untraced_io: Arc::new(CountingStoreIo::default()),
        ingest_io: Arc::new(CountingStoreIo::traced(Some(tracer.clone()))),
        cold_io: Arc::new(CountingStoreIo::traced(Some(tracer.clone()))),
        journal_io: Arc::new(CountingRunIo::default()),
        tracer,
    };
    let mut acc = PassTotals::default();
    let started = Instant::now();
    while acc.passes == 0.0 || started.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("pass-{}", acc.passes));
        traced_pass(&run, &dir, &mut checks, &mut acc)?;
    }
    let p = &run.p;

    let spans = run.tracer.take();
    let summary = summarize(&spans);
    let n = acc.passes;
    let layer = |name: &str| summary.layers.get(name).cloned().unwrap_or_default();
    let busy = |name: &str| layer(name).busy_s / n;
    let calls = |name: &str| layer(name).calls as f64 / n;
    let stage_busy: f64 = STAGE_LAYERS.iter().map(|l| busy(l)).sum();
    let journal = run.journal_io.counters.snapshot();
    let ingest_io = run.ingest_io.counters.snapshot();
    let cold_io = run.cold_io.counters.snapshot();
    let c = &acc.counts;
    let miss = |k: Kind| median(acc.miss_ms.get(k.name()).map_or(&[][..], |v| v));
    let positive = c.positive_cells as f64 / c.cells.max(1) as f64;
    if p.config.proxy.is_some() {
        checks.require(positive > 0.0 && positive < 1.0, || {
            format!("the proxy's positive-cell ratio {positive} is not inside (0, 1)")
        });
    }
    eprintln!("{n} traced passes");
    print_layers(&summary, acc.untraced_wall_s);
    if acc.detnet_forwards > 0.0 {
        eprintln!(
            "engine detector forwards (EngineStats): {:.4} s per pass; replay core.detnet.forward: \
             {:.4} s, core.detnet.materialize: {:.4} s",
            acc.detnet_forward_s / n,
            busy("core.detnet.forward"),
            busy("core.detnet.materialize")
        );
    }
    write_trace(args, spans, &summary, acc.untraced_wall_s)?;

    let metrics = vec![
        ("sim.render.busy_s", busy("sim.render"), "s"),
        ("sim.render.calls", calls("sim.render"), "count"),
        ("core.proxy.busy_s", busy("core.proxy"), "s"),
        ("core.proxy.calls", calls("core.proxy"), "count"),
        ("core.proxy.positive_cell_ratio", positive, "ratio"),
        ("core.grouping.busy_s", busy("core.grouping"), "s"),
        (
            "core.grouping.windows_per_frame",
            c.windows as f64 / c.frames.max(1) as f64,
            "count",
        ),
        ("cv.detector.busy_s", busy("cv.detector"), "s"),
        ("cv.detector.windows", c.windows as f64 / n, "count"),
        (
            "core.detnet.materialize_s",
            busy("core.detnet.materialize"),
            "s",
        ),
        ("core.detnet.forward_s", acc.detnet_forward_s / n, "s"),
        ("core.detnet.forwards", acc.detnet_forwards / n, "count"),
        ("core.detnet.windows", acc.detnet_windows / n, "count"),
        ("engine.batcher.rounds", acc.rounds / n, "count"),
        ("engine.batcher.mean_occupancy", acc.occupancy / n, "count"),
        ("engine.sched.polls", acc.polls / n, "count"),
        ("engine.sched.steals", acc.steals / n, "count"),
        (
            "engine.sched.peak_os_threads",
            acc.peak_os_threads as f64,
            "count",
        ),
        ("engine.overhead_s", acc.one_worker_s / n - stage_busy, "s"),
        (
            "engine.one_worker_fps",
            p.native_frames() as f64 * n / acc.one_worker_s,
            "frames/s",
        ),
        ("track.step.busy_s", busy("track.step"), "s"),
        ("track.finalize.busy_s", busy("track.finalize"), "s"),
        ("engine.journal.busy_s", journal.busy_s / n, "s"),
        ("engine.journal.fsyncs", journal.fsyncs as f64 / n, "count"),
        (
            "engine.journal.bytes",
            journal.bytes_written as f64 / n,
            "bytes",
        ),
        ("serve.store.ingest.busy_s", busy("serve.store.ingest"), "s"),
        (
            "serve.store.ingest.fsyncs",
            ingest_io.fsyncs as f64 / n,
            "count",
        ),
        (
            "serve.store.ingest.bytes_written",
            ingest_io.bytes_written as f64 / n,
            "bytes",
        ),
        ("serve.store.open_s", acc.open_s / n, "s"),
        ("serve.store.load.busy_s", busy("serve.store.load"), "s"),
        ("serve.store.load.read_s", cold_io.read_s / n, "s"),
        ("serve.store.load.loads", acc.loads / n, "count"),
        (
            "serve.store.load.bytes",
            cold_io.bytes_read as f64 / n,
            "bytes",
        ),
        (
            "serve.prune.ratio",
            acc.pruned / (acc.pruned + acc.evaluated).max(1.0),
            "ratio",
        ),
        (
            "serve.prefilter.scans_skipped",
            acc.scans_skipped / n,
            "count",
        ),
        ("serve.eval.miss_ms.region", miss(Kind::Region), "ms"),
        ("serve.eval.miss_ms.hotspot", miss(Kind::HotSpot), "ms"),
        ("serve.eval.miss_ms.count", miss(Kind::Count), "ms"),
        ("serve.eval.miss_ms.braking", miss(Kind::Braking), "ms"),
        (
            "serve.cache.hit_ratio",
            acc.hits / (acc.hits + acc.misses).max(1.0),
            "ratio",
        ),
        ("serve.cache.evictions", acc.evictions / n, "count"),
        ("serve.cache.hit_ms", median(&acc.hit_ms), "ms"),
        ("trace.coverage", summary.coverage, "ratio"),
        (
            "trace.overhead",
            summary.traced_wall_s / acc.untraced_wall_s,
            "ratio",
        ),
    ];
    Ok(Report { checks, metrics })
}

/// Self time per layer in each traced phase, largest first, as shares
/// of that phase's traced wall time.
fn print_layers(summary: &trace::Summary, untraced_wall: f64) {
    eprintln!(
        "traced wall {:.3} s (untraced {:.3} s), coverage {:.3}",
        summary.traced_wall_s, untraced_wall, summary.coverage
    );
    for (phase, p) in &summary.phases {
        let mut rows: Vec<_> = p.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        eprintln!(
            "{phase}: {:.3} s  {:>8} {:>10} {:>10} {:>7}",
            p.wall_s, "calls", "busy s", "self s", "share"
        );
        for (name, l) in rows {
            eprintln!(
                "  {name:<26} {:>8} {:>10.4} {:>10.4} {:>6.1}%",
                l.calls,
                l.busy_s,
                l.self_s,
                100.0 * l.self_s / p.wall_s
            );
        }
    }
}

#[derive(serde::Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    coverage: f64,
    phases: HashMap<String, trace::Phase>,
    spans: Vec<trace::Span>,
}

fn write_trace(
    args: &Args,
    spans: Vec<trace::Span>,
    summary: &trace::Summary,
    untraced_wall: f64,
) -> Result<(), String> {
    let file = TraceFile {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        traced_wall_s: summary.traced_wall_s,
        untraced_wall_s: untraced_wall,
        coverage: summary.coverage,
        phases: summary
            .phases
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        spans,
    };
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
    let path =
        Path::new(TRACE_DIR).join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

#[derive(serde::Serialize)]
struct Metric {
    /// `None` (JSON null) for a metric without samples.
    value: Option<f64>,
    unit: &'static str,
}

/// The result line.
#[derive(serde::Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<String, Metric>,
}

fn print_report(r: &Report) {
    let mut metrics = HashMap::new();
    for &(name, value, unit) in &r.metrics {
        eprintln!("{name:<34} {value:>14.6} {unit}");
        let value = value.is_finite().then_some(value);
        metrics.insert(name.to_string(), Metric { value, unit });
    }
    let line = ResultLine {
        correct: r.checks.failures.is_empty(),
        attempted: r.checks.attempted.max(1),
        failed: r.checks.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result line serializes")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = if args.trace {
        traced(&args, &work)
    } else {
        measured(&args, &work)
    };
    let cleanup = std::fs::remove_dir_all(&work);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = cleanup {
        eprintln!("error: removing {}: {e}", work.display());
        std::process::exit(2);
    }
    // A metric without samples (JSON writes it as null) fails the run.
    for (name, value, _) in &report.metrics {
        report.checks.require(value.is_finite(), || {
            format!("metric {name} has no value ({value})")
        });
    }
    print_report(&report);
    if !report.checks.failures.is_empty() {
        std::process::exit(1);
    }
}
