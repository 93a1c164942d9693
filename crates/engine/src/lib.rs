//! # otif-engine — multi-stream streaming execution engine
//!
//! OTIF's deployment setting (§3.2) processes *many* video streams at
//! once on shared GPUs, and gets its throughput from batching detector
//! invocations across streams. This crate is that executor for the
//! simulated pipeline: per stream, decode → window selection →
//! detection → tracking run as four resumable state machines ([`tasks`])
//! connected by bounded queue slots ([`slot`]) and polled by a fixed
//! work-stealing worker pool ([`otif_core::evalpool`]) — a thousand
//! streams run on [`EngineOptions::workers`] OS threads with bounded
//! memory, and [`EngineOptions::max_active_streams`] caps how many
//! streams are admitted concurrently. All streams' detect stages share
//! a [`DetectorBatcher`] that coalesces same-size windows into batched
//! invocations — charging one launch overhead per batch instead of per
//! frame through the [`CostLedger`](otif_cv::CostLedger) batched path.
//!
//! Determinism is the design constraint: every per-clip result is
//! byte-identical to the sequential [`Pipeline`](otif_core::Pipeline),
//! and all cost accounting is independent of scheduling interleaving —
//! worker count included (the batcher flushes on a virtual-time
//! watermark — a round completes when every live admitted stream has
//! submitted — so round contents are a pure function of the per-stream
//! submission sequences).
//!
//! The engine is fault-tolerant: every stage task is polled under a
//! panic-isolating supervisor, a dying stage takes down at most its
//! own stream, recoverable per-clip failures are retried through the
//! sequential pipeline, and [`Engine::run`] reports per-clip
//! [`ClipOutcome`]s and per-stream health instead of panicking.
//! Deterministic fault injection ([`FaultPlan`]) makes all of this
//! testable: the determinism guarantees extend to faulted runs.
//!
//! Execution time is reported two ways: `serial_seconds` is the plain
//! sum of all stage charges, while `execution_seconds` is the
//! *makespan* of the pipelined virtual-time model ([`timeline`]): the
//! decode stage runs ahead of the detector by a per-stream prefetch
//! window ([`EngineOptions::prefetch_frames`]), each stage's clock
//! advances independently, and batcher rounds stamp detector completion
//! times. The gap between the two is accounted per stage in
//! [`StallSeconds`]. Charges never move, so every ledger sum is bitwise
//! identical across prefetch settings.
//!
//! Entry point: [`Engine::run`]. Observability: [`EngineStats`].

pub mod batcher;
pub mod exec;
pub mod fault;
pub mod journal;
pub mod scheduler;
pub(crate) mod slot;
pub(crate) mod stage;
pub mod stats;
pub(crate) mod tasks;
pub mod timeline;

pub use batcher::{DetectorBatcher, RoundRecord, StreamGuard, SubmitError, Ticket};
pub use exec::{DetectorExec, DetectorExecHarness};
pub use fault::{FaultKind, FaultPlan, FaultSpec, PanicReport, StageName};
pub use journal::replay as replay_run_journal;
pub use journal::{
    ClipRecord, FrameRecord, RealRunIo, RunIo, RunJournal, RunManifest, RunReplay, RUN_CLIPS_DIR,
    RUN_JOURNAL_FILE, RUN_MANIFEST_FILE,
};
pub use otif_core::durable::retry_backoff;
pub use scheduler::{run_manifest, ClipOutcome, Engine, EngineOptions, EngineRun, RunSession};
pub use stats::{EngineCounters, EngineStats, FailedClip, StageSeconds, StreamStatus};
pub use timeline::StallSeconds;
