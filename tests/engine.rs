//! Determinism guarantees of the multi-stream engine: N-stream output
//! equals the sequential `Pipeline` per clip for the same
//! `(config, seed)`, including with fully trained artifacts (proxy
//! windows, recurrent tracker, refinement), and the shared
//! `DetectorBatcher` never reorders a stream's submissions.

use otif::core::pipeline::ExecutionContext;
use otif::core::{Otif, OtifOptions, Pipeline};
use otif::cv::{Component, CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif::engine::batcher::PollSubmit;
use otif::engine::{
    DetectorBatcher, DetectorExec, Engine, EngineOptions, FaultPlan, StageName, Ticket,
};
use otif::sim::{DatasetConfig, DatasetKind, DatasetScale};
use otif::track::Track;
use proptest::prelude::*;
use std::sync::Arc;

fn sequential(
    config: &otif::core::config::OtifConfig,
    ctx: &ExecutionContext,
    clips: &[otif::sim::Clip],
) -> (Vec<Vec<Track>>, CostLedger) {
    let ledger = CostLedger::new();
    let tracks = clips
        .iter()
        .map(|c| Pipeline::run_clip(config, ctx, c, &ledger))
        .collect();
    (tracks, ledger)
}

/// Engine output must be byte-identical (via canonical JSON) to the
/// sequential pipeline with trained proxies, the recurrent tracker and
/// refinement in play — for every curve configuration and several
/// stream counts.
#[test]
fn engine_equals_sequential_with_trained_artifacts() {
    let dataset = DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 3,
            clip_seconds: 5.0,
        },
        41,
    )
    .generate();
    let query = otif::query::TrackQuery::path_breakdown(&dataset.scene);
    let val = dataset.val.clone();
    let metric = move |tracks: &[Vec<Track>]| query.accuracy(tracks, &val);
    let otif = Otif::prepare(&dataset, &metric, OtifOptions::fast_test());
    let ctx = otif.context();

    // theta_best plus the extremes of the tuned curve exercise the
    // proxy/recurrent/refine combinations the tuner produced
    let mut configs = vec![otif.theta_best];
    if let (Some(first), Some(last)) = (otif.curve.first(), otif.curve.last()) {
        configs.push(first.config);
        configs.push(last.config);
    }

    for config in configs {
        let (expected, _) = sequential(&config, &ctx, &dataset.test);
        let expected_json = serde_json::to_string(&expected).unwrap();
        for streams in [2usize, 3] {
            let opts = EngineOptions {
                streams,
                ..EngineOptions::default()
            };
            let run = Engine::run(&config, &ctx, &dataset.test, &opts, &CostLedger::new());
            let got = serde_json::to_string(&run.expect_tracks()).unwrap();
            assert_eq!(
                got,
                expected_json,
                "streams={streams} config={}",
                config.describe()
            );
        }
    }
}

/// With a single stream the engine's ledger must match the sequential
/// pipeline's exactly, component by component (same charges, only
/// routed through the batcher).
#[test]
fn single_stream_engine_cost_is_sequential_cost() {
    let dataset = DatasetConfig::small(DatasetKind::Tokyo, 17).generate();
    let config = otif::core::config::OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap: 3,
        tracker: otif::core::config::TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), 17);
    let (_, seq) = sequential(&config, &ctx, &dataset.test);
    let eng = CostLedger::new();
    let opts = EngineOptions {
        streams: 1,
        ..EngineOptions::default()
    };
    Engine::run(&config, &ctx, &dataset.test, &opts, &eng);
    for c in [
        Component::Decode,
        Component::Proxy,
        Component::Detector,
        Component::Tracker,
        Component::Refinement,
    ] {
        assert!(
            (seq.get(c) - eng.get(c)).abs() < 1e-9,
            "{c:?}: sequential {} vs engine {}",
            seq.get(c),
            eng.get(c)
        );
    }
}

/// Submit an untagged ticket and spin on `poll_pending` until its
/// round flushes.
fn submit(batcher: &DetectorBatcher, stream: usize, sizes: Vec<(u32, u32)>) {
    let mut poll = batcher.poll_submit_exec(stream, sizes, Vec::new(), Ticket::UNTAGGED, 0, 0.0);
    while let PollSubmit::Pending = poll.unwrap() {
        std::thread::yield_now();
        poll = batcher.poll_pending(stream);
    }
}

// The batcher never reorders a stream's submissions: the j-th
// submission of a stream completes in the j-th round that stream
// participates in, so the round number observed after each submit is
// strictly increasing per stream.
proptest! {
    #[test]
    fn batcher_preserves_per_stream_submission_order(
        streams in 1u64..=4,
        frames in 1u64..=12,
        size_salt in 0u64..=999,
    ) {
        let (streams, frames) = (streams as usize, frames as usize);
        let ledger = CostLedger::new();
        let batcher = Arc::new(DetectorBatcher::new(streams, 1.0, 4, ledger.clone()));
        let mut handles = Vec::new();
        for s in 0..streams {
            let batcher = Arc::clone(&batcher);
            handles.push(std::thread::spawn(move || {
                // uneven lengths and varying window mixes per stream
                let my_frames = frames + s;
                let mut rounds_seen = Vec::with_capacity(my_frames);
                for f in 0..my_frames {
                    let n = 1 + (f + s + size_salt as usize) % 3;
                    let side = 32 * (1 + ((f + size_salt as usize) % 2) as u32);
                    submit(&batcher, s, vec![(side, side); n]);
                    rounds_seen.push(batcher.rounds());
                }
                batcher.finish(s);
                rounds_seen
            }));
        }
        let mut total_items = 0u64;
        for (s, h) in handles.into_iter().enumerate() {
            let rounds_seen = h.join().unwrap();
            for w in rounds_seen.windows(2) {
                prop_assert!(
                    w[0] < w[1],
                    "stream {s}: submissions completed out of round order ({w:?})"
                );
            }
            for f in 0..frames + s {
                total_items += (1 + (f + s + size_salt as usize) % 3) as u64;
            }
        }
        // every submitted window was flushed exactly once
        prop_assert_eq!(ledger.batch_stats().items, total_items);
    }
}

/// Fault plans the prefetch-invariance property runs under, mirroring
/// `tests/engine_faults.rs`. Track-stage *panics* are excluded: the set
/// of tickets in flight when the track thread dies is timing-dependent
/// (the same reason `faulted_runs_are_deterministic` there pins the
/// detect stage); every other fault leaves the surviving ticket
/// sequences — and therefore the round log — deterministic.
fn prefetch_invariance_plan(idx: usize) -> (FaultPlan, bool) {
    match idx {
        0 => (FaultPlan::default(), false),
        1 => (FaultPlan::panic_at(StageName::Decode, 1, 1), false),
        2 => (FaultPlan::panic_at(StageName::Window, 1, 1), false),
        3 => (FaultPlan::panic_at(StageName::Detect, 1, 1), false),
        4 => (FaultPlan::error_at(StageName::Decode, 0, 2), false),
        5 => (FaultPlan::error_at(StageName::Detect, 2, 0), true),
        6 => (FaultPlan::error_at(StageName::Track, 2, 0), true),
        _ => unreachable!(),
    }
}

// Pipelining is observation-only: for any decode prefetch window and
// any thread interleaving, the batcher's round log and every ledger
// component sum are *bitwise* identical to the prefetch=1 run — healthy
// or under any deterministic fault plan. Only the reported makespan and
// stall accounts may differ.
proptest! {
    #[test]
    fn rounds_and_charges_invariant_under_prefetch(
        prefetch in 1u64..=64,
        plan_idx in 0u64..=6,
    ) {
        let (prefetch, plan_idx) = (prefetch as usize, plan_idx as usize);
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};

        const COMPONENTS: [Component; 5] = [
            Component::Decode,
            Component::Proxy,
            Component::Detector,
            Component::Tracker,
            Component::Refinement,
        ];

        static CLIPS: OnceLock<Vec<otif::sim::Clip>> = OnceLock::new();
        let clips_pool = CLIPS.get_or_init(|| {
            DatasetConfig::new(
                DatasetKind::Caldot1,
                DatasetScale {
                    clips_per_split: 5,
                    clip_seconds: 5.0,
                },
                29,
            )
            .generate()
            .test
        });
        let cfg = otif::core::config::OtifConfig {
            detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
            proxy: None,
            gap: 4,
            tracker: otif::core::config::TrackerKind::Sort,
            refine: false,
        };
        let ctx = ExecutionContext::bare(CostModel::default(), 7);

        let run_at = |prefetch: usize| {
            let (faults, no_retry) = prefetch_invariance_plan(plan_idx);
            let ledger = CostLedger::new();
            let opts = EngineOptions {
                faults,
                no_retry,
                prefetch_frames: prefetch,
                ..EngineOptions::with_streams(2)
            };
            let run = Engine::run(&cfg, &ctx, clips_pool, &opts, &ledger);
            let bits: Vec<u64> = COMPONENTS.iter().map(|&c| ledger.get(c).to_bits()).collect();
            (run.rounds, bits, run.stats.serial_seconds.to_bits())
        };

        // Baseline per fault plan: the prefetch=1 run, computed once and
        // shared across cases (the property compares *against* it, so it
        // must not vary with the case's prefetch).
        type Baseline = (Vec<otif::engine::RoundRecord>, Vec<u64>, u64);
        static BASELINES: OnceLock<Mutex<HashMap<usize, Baseline>>> = OnceLock::new();
        let baselines = BASELINES.get_or_init(|| Mutex::new(HashMap::new()));
        let baseline = {
            let mut map = baselines.lock().unwrap();
            map.entry(plan_idx).or_insert_with(|| run_at(1)).clone()
        };

        let (rounds, bits, serial_bits) = run_at(prefetch);
        prop_assert_eq!(
            &rounds, &baseline.0,
            "round log must not depend on prefetch (plan {})", plan_idx
        );
        prop_assert_eq!(
            &bits, &baseline.1,
            "component sums must be bitwise prefetch-independent (plan {})", plan_idx
        );
        prop_assert_eq!(serial_bits, baseline.2, "serial_seconds drifted (plan {})", plan_idx);
    }
}

/// Detector execution is observation-only: `off`, `looped` and
/// `batched` runs produce byte-identical per-clip outcomes, a
/// bitwise-identical ledger and the same round log — at 1, 4 and 16
/// streams, and under injected faults. Looped and batched additionally
/// agree on the surrogate output digest (the bitwise-kernel contract
/// end to end), while `off` reports digest 0 and zero wall-clock.
#[test]
fn detector_exec_modes_are_bitwise_invariant() {
    const COMPONENTS: [Component; 5] = [
        Component::Decode,
        Component::Proxy,
        Component::Detector,
        Component::Tracker,
        Component::Refinement,
    ];
    // 16 short clips so a 16-stream run is not clamped down
    let clips = DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 16,
            clip_seconds: 2.0,
        },
        53,
    )
    .generate()
    .test;
    assert_eq!(clips.len(), 16);
    let cfg = otif::core::config::OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.25),
        proxy: None,
        gap: 4,
        tracker: otif::core::config::TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), 7);

    let run_at = |streams: usize, mode: DetectorExec, plan_idx: usize| {
        let (faults, no_retry) = prefetch_invariance_plan(plan_idx);
        let ledger = CostLedger::new();
        let opts = EngineOptions {
            streams,
            detector_exec: mode,
            faults,
            no_retry,
            ..EngineOptions::new()
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &ledger);
        let outcomes = serde_json::to_string(&run.tracks).unwrap();
        let bits: Vec<u64> = COMPONENTS
            .iter()
            .map(|&c| ledger.get(c).to_bits())
            .collect();
        (outcomes, bits, run.rounds, run.stats)
    };

    // the fault-free plan at every stream count; the injected plans
    // (decode panic, detect error) at 4 streams
    let cases: &[(usize, usize)] = &[(1, 0), (4, 0), (16, 0), (4, 1), (4, 5)];
    for &(streams, plan_idx) in cases {
        let off = run_at(streams, DetectorExec::Off, plan_idx);
        let looped = run_at(streams, DetectorExec::Looped, plan_idx);
        let batched = run_at(streams, DetectorExec::Batched, plan_idx);
        for (name, run) in [("looped", &looped), ("batched", &batched)] {
            assert_eq!(
                run.0, off.0,
                "{name} outcomes differ from off (streams={streams} plan={plan_idx})"
            );
            assert_eq!(
                run.1, off.1,
                "{name} ledger not bitwise off (streams={streams} plan={plan_idx})"
            );
            assert_eq!(
                run.2, off.2,
                "{name} round log differs from off (streams={streams} plan={plan_idx})"
            );
        }
        // the bitwise contract between the two executing paths
        assert_eq!(
            looped.3.detector_digest, batched.3.detector_digest,
            "surrogate digests diverge (streams={streams} plan={plan_idx})"
        );
        assert_ne!(looped.3.detector_digest, 0);
        assert_eq!(off.3.detector_digest, 0);
        assert_eq!(off.3.detector_exec, "off");
        assert_eq!(looped.3.detector_exec, "looped");
        assert_eq!(batched.3.detector_exec, "batched");
        assert_eq!(off.3.detector_wall_seconds, 0.0);
        assert!(looped.3.detector_wall_seconds > 0.0);
        assert!(batched.3.detector_wall_seconds > 0.0);
        // both paths execute the same windows; batching can only merge
        // forwards, never add them
        assert_eq!(
            looped.3.detector_exec_windows,
            batched.3.detector_exec_windows
        );
        assert_eq!(looped.3.detector_forwards, looped.3.detector_exec_windows);
        assert!(batched.3.detector_forwards <= looped.3.detector_forwards);
        if streams > 1 && plan_idx == 0 {
            assert!(
                batched.3.detector_forwards < looped.3.detector_forwards,
                "multi-stream batching must coalesce forwards (streams={streams})"
            );
        }
    }
}
