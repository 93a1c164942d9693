//! Cross-stream detector batching (§3.2's "batched inference across
//! streams" scaled out to the multi-stream engine).
//!
//! Every stream's detect task submits one *ticket* per processed frame
//! — the rounded sizes of that frame's detector windows — and parks
//! until the ticket is part of a flushed batch round
//! ([`DetectorBatcher::poll_submit_exec`], then
//! [`DetectorBatcher::poll_pending`] once its waker fires). A round flushes
//! at the ticket-deadline watermark: the moment every live stream has a
//! ticket pending (in virtual time, no stream's detector is allowed to
//! run ahead of the others, which is what makes the accounting
//! deterministic). Within a round, windows are grouped by size — the
//! fixed window-size set W is what makes same-size groups common — and
//! each group is split into chunks of at most `max_batch` windows; one
//! launch overhead (`per_call`) is charged per chunk through
//! [`CostLedger::charge_batch`], which also records batch occupancy.
//!
//! Determinism: a stream's j-th ticket is always flushed in the j-th
//! round it participates in, and round contents are a pure function of
//! the per-stream ticket sequences (which are themselves deterministic).
//! Thread interleaving can change *when* a round flushes, never what it
//! contains, so charges and occupancy stats are reproducible — and with
//! one stream they equal the sequential pipeline's per-frame
//! `windows_cost` accounting exactly (one `per_call` per distinct
//! window size per frame, as long as `max_batch` exceeds the per-frame
//! same-size window count).
//!
//! Fault tolerance: protocol violations (double ticket, submit after
//! finish) are checked errors in every build profile, and
//! [`DetectorBatcher::finish`] handles a stream dying with a ticket
//! still pending — the orphaned ticket is discarded (its charges never
//! happen), its parked submitter is woken to poll
//! [`SubmitError::Interrupted`], and the watermark is re-evaluated so
//! the remaining streams keep draining.

use crate::exec::{DetectorExec, DetectorExecHarness};
use otif_core::evalpool::TaskWaker;
use otif_cv::{Component, CostLedger};
use otif_nn::Tensor3;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A rejected or abandoned [`DetectorBatcher::poll_submit_exec`].
///
/// `TicketPending` and `Finished` are protocol violations (engine
/// bugs): they are hard errors in release builds too, because silently
/// overwriting a ticket or resurrecting a finished stream would corrupt
/// the round accounting for every stream. `Interrupted` is a
/// fault-tolerance signal: the stream was finished (its guard dropped)
/// while the ticket waited, and the ticket was discarded unflushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The stream already has a ticket awaiting a flush.
    TicketPending {
        /// Offending stream.
        stream: usize,
    },
    /// The stream was already marked finished.
    Finished {
        /// Offending stream.
        stream: usize,
    },
    /// The stream was finished while this ticket was pending; the
    /// ticket was discarded without being flushed or charged.
    Interrupted {
        /// Interrupted stream.
        stream: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::TicketPending { stream } => write!(
                f,
                "batcher protocol violation: stream {stream} submitted a second \
                 ticket while one was still pending"
            ),
            SubmitError::Finished { stream } => write!(
                f,
                "batcher protocol violation: stream {stream} submitted after finish"
            ),
            SubmitError::Interrupted { stream } => write!(
                f,
                "stream {stream} was finished while its ticket was pending; \
                 the ticket was discarded"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Identity and cost of one submitted ticket, recorded into the round
/// log so the pipelined replay (`crate::timeline`) can stamp detector
/// completion times per round. Untagged submissions (unit tests, ad-hoc
/// callers) carry the `UNTAGGED` clip marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    /// Submitting stream.
    pub stream: usize,
    /// Global clip index of the frame (or [`Ticket::UNTAGGED`]).
    pub clip: usize,
    /// Sampled-frame ordinal within the clip.
    pub ordinal: usize,
    /// Windows carried by the ticket.
    pub items: usize,
    /// Detector pixel seconds charged for the frame's windows (to the
    /// clip's ledger, by the detect stage, before submitting).
    pub pixel_seconds: f64,
}

impl Ticket {
    /// Clip marker for submissions without frame identity.
    pub const UNTAGGED: usize = usize::MAX;
}

/// One flushed batch round: which tickets it coalesced (in stream
/// order) and the launch overhead it charged (`per_call` × number of
/// size-group chunks).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Member tickets, ordered by stream index.
    pub tickets: Vec<Ticket>,
    /// Launch seconds charged for this round's chunks.
    pub launch_seconds: f64,
}

/// A pending submission: the rounded window sizes of the frame the
/// stream's detect task is parked on, the materialized window inputs
/// (empty unless the run executes the surrogate detector in batched
/// mode), plus its identity for the round log.
type PendingTicket = (Vec<(u32, u32)>, Vec<Tensor3>, Ticket);

struct BatchState {
    /// One pending ticket per stream.
    tickets: Vec<Option<PendingTicket>>,
    /// Surrogate outputs scattered back per stream by a batched-exec
    /// flush, collected by the parked submitter's next poll.
    outputs: Vec<Option<Vec<Tensor3>>>,
    /// Which streams still have frames to submit. A finished stream no
    /// longer gates the flush watermark.
    live: Vec<bool>,
    /// Set when `finish` discards a stream's pending ticket, so the
    /// parked submitter polls `SubmitError::Interrupted` instead of
    /// assuming its ticket was flushed.
    interrupted: Vec<bool>,
    /// Admission queue: streams not yet admitted (in index order).
    /// `finish` pops the front each time an active stream completes, so
    /// the admitted set at any round is a pure function of which streams
    /// have finished — never of thread timing.
    deferred: VecDeque<usize>,
    /// Per-stream detect-task wakers (task engine): a flush or finish
    /// that resolves a stream's pending ticket wakes its detect task.
    detect_wakers: Vec<Option<TaskWaker>>,
    /// Per-stream admission wakers (task engine): admitting a deferred
    /// stream wakes every registered stage task. All four stages must
    /// be woken, not just decode — the downstream stages parked at the
    /// admission check before ever touching their queues, so no queue
    /// has their interest registered and a send alone cannot revive
    /// them.
    admission_wakers: Vec<Vec<TaskWaker>>,
    /// Completed flush rounds.
    rounds: u64,
    /// Flush log in round order, consumed by the pipelined replay.
    log: Vec<RoundRecord>,
}

/// Outcome of a non-blocking batcher submit poll.
#[derive(Debug)]
pub enum PollSubmit {
    /// The ticket's round flushed: the per-window surrogate outputs
    /// (empty unless a batched-execution harness is attached).
    Ready(Vec<Tensor3>),
    /// The ticket is deposited but its round has not flushed yet; the
    /// stream's detect waker fires when it does. Re-poll with
    /// [`DetectorBatcher::poll_pending`].
    Pending,
}

/// Coalesces same-size detector windows from all streams into batched
/// invocations, charging launch overhead per batch instead of per
/// frame — and, when a batched-execution harness is attached, actually
/// running **one** surrogate forward per (size, chunk) of each round.
pub struct DetectorBatcher {
    state: Mutex<BatchState>,
    per_call: f64,
    max_batch: usize,
    ledger: CostLedger,
    exec: Option<Arc<DetectorExecHarness>>,
    /// Per-stream admission flags, readable without the state lock
    /// (decode tasks and the stall watchdog check these on hot paths).
    admitted: Vec<AtomicBool>,
}

impl DetectorBatcher {
    /// A batcher for `streams` streams charging `per_call` simulated
    /// seconds per batched invocation of at most `max_batch` windows.
    pub fn new(streams: usize, per_call: f64, max_batch: usize, ledger: CostLedger) -> Self {
        DetectorBatcher {
            state: Mutex::new(BatchState {
                tickets: (0..streams).map(|_| None).collect(),
                outputs: (0..streams).map(|_| None).collect(),
                live: vec![true; streams],
                interrupted: vec![false; streams],
                deferred: VecDeque::new(),
                detect_wakers: (0..streams).map(|_| None).collect(),
                admission_wakers: (0..streams).map(|_| Vec::new()).collect(),
                rounds: 0,
                log: Vec::new(),
            }),
            per_call,
            max_batch: max_batch.max(1),
            ledger,
            exec: None,
            admitted: (0..streams).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Admission control: only the first `max_active` streams start
    /// active; streams `max_active..` are *deferred* — not live (they
    /// don't gate the flush watermark) and not admitted (their decode
    /// tasks wait). Each [`Self::finish`] of an active stream admits the
    /// next deferred stream in index order, so at most `max_active`
    /// streams are ever in flight and the admission sequence is
    /// deterministic.
    pub fn with_max_active(self, max_active: usize) -> Self {
        let streams = self.admitted.len();
        let max_active = max_active.clamp(1, streams.max(1));
        {
            let mut st = self.state.lock();
            for s in max_active..streams {
                st.live[s] = false;
                st.deferred.push_back(s);
                self.admitted[s].store(false, Ordering::SeqCst);
            }
        }
        self
    }

    /// Whether `stream` has been admitted (always true without
    /// [`Self::with_max_active`]).
    pub fn is_admitted(&self, stream: usize) -> bool {
        self.admitted[stream].load(Ordering::SeqCst)
    }

    /// Register the waker of `stream`'s detect task, fired when a flush
    /// or finish resolves its pending ticket.
    pub fn set_detect_waker(&self, stream: usize, waker: TaskWaker) {
        self.state.lock().detect_wakers[stream] = Some(waker);
    }

    /// Register a waker fired when `stream` is admitted. Every stage
    /// task of a deferrable stream must register here: all of them park
    /// at the admission check without touching their queues, so the
    /// admission hand-off is the only wake they can receive.
    pub fn add_admission_waker(&self, stream: usize, waker: TaskWaker) {
        self.state.lock().admission_wakers[stream].push(waker);
    }

    /// Attach a detector-execution harness. When its mode is
    /// [`DetectorExec::Batched`], each flush runs the surrogate forward
    /// over the round's same-size chunks (exactly the chunks the launch
    /// accounting charges for) and scatters per-window outputs back to
    /// the submitting streams.
    pub fn with_exec(mut self, exec: Arc<DetectorExecHarness>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Submit one frame's ticket for `stream` — its rounded window
    /// sizes, the window input tensors (one per size, or empty unless
    /// the surrogate executes batched) and the frame identity for the
    /// round log — and flush if the watermark is met. Reports
    /// [`PollSubmit::Ready`] with the per-window surrogate outputs, or
    /// [`PollSubmit::Pending`]: the stream's detect waker fires when a
    /// later flush or finish resolves the ticket; re-poll with
    /// [`Self::poll_pending`]. One ticket per stream may be outstanding;
    /// protocol violations are checked errors ([`SubmitError`]).
    pub fn poll_submit_exec(
        &self,
        stream: usize,
        sizes: Vec<(u32, u32)>,
        inputs: Vec<Tensor3>,
        clip: usize,
        ordinal: usize,
        pixel_seconds: f64,
    ) -> Result<PollSubmit, SubmitError> {
        debug_assert!(
            inputs.is_empty() || inputs.len() == sizes.len(),
            "one input tensor per window"
        );
        let mut st = self.state.lock();
        if !st.live[stream] {
            return Err(SubmitError::Finished { stream });
        }
        if st.tickets[stream].is_some() {
            return Err(SubmitError::TicketPending { stream });
        }
        let ticket = Ticket {
            stream,
            clip,
            ordinal,
            items: sizes.len(),
            pixel_seconds,
        };
        st.tickets[stream] = Some((sizes, inputs, ticket));
        self.flush_if_ready(&mut st);
        Self::poll_state(&mut st, stream)
    }

    /// Re-poll a ticket left [`PollSubmit::Pending`] by
    /// [`Self::poll_submit_exec`].
    pub fn poll_pending(&self, stream: usize) -> Result<PollSubmit, SubmitError> {
        let mut st = self.state.lock();
        Self::poll_state(&mut st, stream)
    }

    /// Shared resolution step: interrupted → error; ticket gone → the
    /// round flushed (collect outputs); ticket still present → pending.
    fn poll_state(st: &mut BatchState, stream: usize) -> Result<PollSubmit, SubmitError> {
        if st.interrupted[stream] {
            st.interrupted[stream] = false;
            return Err(SubmitError::Interrupted { stream });
        }
        if st.tickets[stream].is_none() {
            return Ok(PollSubmit::Ready(
                st.outputs[stream].take().unwrap_or_default(),
            ));
        }
        Ok(PollSubmit::Pending)
    }

    /// Mark `stream` as done (idempotent). Finished streams stop gating
    /// the flush watermark, so remaining streams keep batching among
    /// themselves. If the stream still had a ticket pending (its stage
    /// died mid-submit), the ticket is discarded — never flushed or
    /// charged — and the parked submitter is woken to poll
    /// [`SubmitError::Interrupted`].
    pub fn finish(&self, stream: usize) {
        let mut st = self.state.lock();
        if !st.live[stream] && self.is_admitted(stream) {
            return;
        }
        let was_active = st.live[stream];
        st.live[stream] = false;
        st.outputs[stream] = None;
        // A deferred stream finishing without ever being admitted (its
        // tasks shut down early) must still vacate the admission queue.
        if !self.is_admitted(stream) {
            st.deferred.retain(|&s| s != stream);
            self.admitted[stream].store(true, Ordering::SeqCst);
        }
        let mut interrupted_waker = None;
        if let Some((sizes, _, _)) = st.tickets[stream].take() {
            st.interrupted[stream] = true;
            // Count the orphan explicitly: it was never flushed or
            // charged, and `mean_batch_occupancy` must neither include
            // it nor hide that it was dropped.
            self.ledger.record_batch_discard(sizes.len());
            interrupted_waker = st.detect_wakers[stream].clone();
        }
        // Admission hand-off happens BEFORE re-evaluating the watermark:
        // the newly-admitted stream gates every round flushed from this
        // point on, which is what keeps round contents a pure function
        // of the finish set rather than of flush timing. Only an active
        // stream finishing frees an admission slot — a deferred stream
        // that shut down before admission never held one.
        let mut admission_wakers = Vec::new();
        if was_active {
            if let Some(next) = st.deferred.pop_front() {
                st.live[next] = true;
                self.admitted[next].store(true, Ordering::SeqCst);
                // One-shot hand-off: a stream is admitted at most once,
                // so its wakers are consumed rather than cloned.
                admission_wakers = std::mem::take(&mut st.admission_wakers[next]);
            }
        }
        self.flush_if_ready(&mut st);
        drop(st);
        if let Some(w) = interrupted_waker {
            w.wake();
        }
        for w in admission_wakers {
            w.wake();
        }
    }

    /// Number of flush rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.state.lock().rounds
    }

    /// The flush log in round order. Round contents are a pure function
    /// of the per-stream submission sequences, so the log is as
    /// deterministic as the charges themselves.
    pub fn round_log(&self) -> Vec<RoundRecord> {
        self.state.lock().log.clone()
    }

    /// Flush one round if every live stream has a pending ticket (and
    /// at least one ticket exists). Must be called with the state lock
    /// held; wakes every member stream's detect task.
    fn flush_if_ready(&self, st: &mut BatchState) {
        let ready = st
            .tickets
            .iter()
            .zip(&st.live)
            .all(|(t, live)| !*live || t.is_some());
        let any = st.tickets.iter().any(Option::is_some);
        if !ready || !any {
            return;
        }
        // Group windows by size across all streams (stream order is
        // irrelevant for the *charges*: only per-size counts matter).
        let n_streams = st.tickets.len();
        let mut by_size: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut members: Vec<Ticket> = Vec::new();
        let mut member_streams: Vec<usize> = Vec::new();
        let mut sizes_by_stream: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_streams];
        let mut inputs_by_stream: Vec<Vec<Tensor3>> = Vec::new();
        inputs_by_stream.resize_with(n_streams, Vec::new);
        for (stream, slot) in st.tickets.iter_mut().enumerate() {
            if let Some((sizes, inputs, ticket)) = slot.take() {
                members.push(ticket);
                member_streams.push(stream);
                for s in &sizes {
                    *by_size.entry(*s).or_insert(0) += 1;
                }
                sizes_by_stream[stream] = sizes;
                inputs_by_stream[stream] = inputs;
            }
        }
        let mut launch_seconds = 0.0f64;
        for (_, count) in by_size {
            let mut remaining = count;
            while remaining > 0 {
                let occupancy = remaining.min(self.max_batch);
                self.ledger
                    .charge_batch(Component::Detector, self.per_call, occupancy);
                launch_seconds += self.per_call;
                remaining -= occupancy;
            }
        }
        // Batched surrogate execution: one forward per (size, chunk) —
        // the same chunks the launch accounting charged for — with
        // outputs scattered back to the submitting streams. Chunk
        // membership is deterministic (sizes in BTreeMap order, windows
        // in stream-then-window order within a size), and chunk
        // boundaries cannot affect bits anyway: the batched kernels
        // accumulate each window's elements in exactly the looped order.
        if let Some(exec) = self
            .exec
            .as_ref()
            .filter(|e| e.mode() == DetectorExec::Batched)
        {
            let start = Instant::now();
            let mut forwards = 0u64;
            let mut windows = 0u64;
            // Only windows that carry materialized inputs participate in
            // the forwards: a ghost-replay ticket submits sizes without
            // inputs (its outputs were digested in the original run), so
            // it shapes the launch accounting above but not the
            // execution. Excluding it cannot perturb live outputs — the
            // batched kernels accumulate each window's elements in
            // exactly the looped order, so chunk membership never
            // affects bits.
            let mut groups: BTreeMap<(u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
            for &stream in &member_streams {
                let with_inputs = inputs_by_stream[stream].len();
                for (w, s) in sizes_by_stream[stream].iter().take(with_inputs).enumerate() {
                    groups.entry(*s).or_default().push((stream, w));
                }
            }
            let mut outs: Vec<Vec<Tensor3>> = inputs_by_stream
                .iter()
                .map(|v| vec![Tensor3::zeros(0, 0, 0); v.len()])
                .collect();
            for refs in groups.values() {
                for chunk in refs.chunks(self.max_batch) {
                    let xs: Vec<&Tensor3> = chunk
                        .iter()
                        .map(|&(s, w)| &inputs_by_stream[s][w])
                        .collect();
                    let ys = exec.net().forward_batched(&xs);
                    forwards += 1;
                    windows += xs.len() as u64;
                    for (&(s, w), y) in chunk.iter().zip(ys) {
                        outs[s][w] = y;
                    }
                }
            }
            exec.record(start.elapsed(), forwards, windows);
            for &stream in &member_streams {
                st.outputs[stream] = Some(std::mem::take(&mut outs[stream]));
            }
        }
        st.log.push(RoundRecord {
            tickets: members,
            launch_seconds,
        });
        st.rounds += 1;
        // Task engine: a member stream's detect task may be parked on
        // its now-resolved ticket. Waking under the batcher lock is safe
        // (the pool's wake path never takes this lock) and a wake racing
        // the member's own in-progress poll just latches harmlessly.
        for &stream in &member_streams {
            if let Some(w) = &st.detect_wakers[stream] {
                w.wake();
            }
        }
    }
}

/// RAII handle calling [`DetectorBatcher::finish`] on drop, so a
/// panicking detect stage never deadlocks the other streams.
pub struct StreamGuard<'a> {
    batcher: &'a DetectorBatcher,
    stream: usize,
}

impl<'a> StreamGuard<'a> {
    /// Guard `stream` on `batcher`.
    pub fn new(batcher: &'a DetectorBatcher, stream: usize) -> Self {
        StreamGuard { batcher, stream }
    }

    /// Submit a ticket (same as the batcher's `poll_submit_exec`).
    pub fn poll_submit_exec(
        &self,
        sizes: Vec<(u32, u32)>,
        inputs: Vec<Tensor3>,
        clip: usize,
        ordinal: usize,
        pixel_seconds: f64,
    ) -> Result<PollSubmit, SubmitError> {
        self.batcher
            .poll_submit_exec(self.stream, sizes, inputs, clip, ordinal, pixel_seconds)
    }

    /// Re-poll a pending ticket (same as the batcher's `poll_pending`).
    pub fn poll_pending(&self) -> Result<PollSubmit, SubmitError> {
        self.batcher.poll_pending(self.stream)
    }
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.batcher.finish(self.stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const CALL: f64 = 1.0;

    /// Submit a ticket and spin on `poll_pending` until its round
    /// flushes: the rendezvous a thread-per-stream test needs.
    fn submit_exec(
        b: &DetectorBatcher,
        stream: usize,
        sizes: Vec<(u32, u32)>,
        inputs: Vec<Tensor3>,
        clip: usize,
        ordinal: usize,
        pixel_seconds: f64,
    ) -> Result<Vec<Tensor3>, SubmitError> {
        let mut poll = b.poll_submit_exec(stream, sizes, inputs, clip, ordinal, pixel_seconds);
        loop {
            match poll? {
                PollSubmit::Ready(outputs) => return Ok(outputs),
                PollSubmit::Pending => thread::yield_now(),
            }
            poll = b.poll_pending(stream);
        }
    }

    /// [`submit_exec`] with no inputs and no frame identity.
    fn submit(
        b: &DetectorBatcher,
        stream: usize,
        sizes: Vec<(u32, u32)>,
    ) -> Result<(), SubmitError> {
        submit_exec(b, stream, sizes, Vec::new(), Ticket::UNTAGGED, 0, 0.0).map(|_| ())
    }

    #[test]
    fn single_stream_charges_per_distinct_size_per_round() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 16, ledger.clone());
        submit(&b, 0, vec![(64, 64), (64, 64), (128, 96)]).unwrap();
        b.finish(0);
        // one round: two distinct sizes → two batch charges
        assert_eq!(b.rounds(), 1);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 3);
        assert!((ledger.get(Component::Detector) - 2.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn two_streams_share_launch_overhead() {
        let ledger = CostLedger::new();
        let b = Arc::new(DetectorBatcher::new(2, CALL, 16, ledger.clone()));
        let frames = 5usize;
        let mut handles = Vec::new();
        for stream in 0..2 {
            let b = Arc::clone(&b);
            handles.push(thread::spawn(move || {
                for _ in 0..frames {
                    submit(&b, stream, vec![(64, 64)]).unwrap();
                }
                b.finish(stream);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 5 rounds × 1 size group of 2 windows → 5 charges, occupancy 2
        assert_eq!(b.rounds(), frames as u64);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, frames as u64);
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
        assert!((ledger.get(Component::Detector) - frames as f64 * CALL).abs() < 1e-12);
    }

    #[test]
    fn uneven_stream_lengths_drain_without_deadlock() {
        let ledger = CostLedger::new();
        let b = Arc::new(DetectorBatcher::new(3, CALL, 16, ledger.clone()));
        let mut handles = Vec::new();
        for (stream, frames) in [(0usize, 8usize), (1, 3), (2, 5)] {
            let b = Arc::clone(&b);
            handles.push(thread::spawn(move || {
                for _ in 0..frames {
                    submit(&b, stream, vec![(32, 32)]).unwrap();
                }
                b.finish(stream);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // the longest stream dictates the number of rounds
        assert_eq!(b.rounds(), 8);
        assert_eq!(ledger.batch_stats().items, 8 + 3 + 5);
    }

    #[test]
    fn max_batch_splits_oversized_groups() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 4, ledger.clone());
        submit(&b, 0, vec![(64, 64); 10]).unwrap();
        b.finish(0);
        // 10 windows in chunks of ≤4 → 3 batches (4+4+2)
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 10);
    }

    #[test]
    fn guard_finishes_on_drop() {
        let ledger = CostLedger::new();
        let b = Arc::new(DetectorBatcher::new(2, CALL, 16, ledger.clone()));
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || {
            let _guard = StreamGuard::new(&b2, 1);
            // stream 1 never submits; the guard's drop must unblock
            // stream 0
        });
        h.join().unwrap();
        submit(&b, 0, vec![(64, 64)]).unwrap();
        b.finish(0);
        assert_eq!(b.rounds(), 1);
        assert_eq!(ledger.batch_stats().batches, 1);
    }

    #[test]
    fn submit_after_finish_is_a_checked_error() {
        let b = DetectorBatcher::new(2, CALL, 16, CostLedger::new());
        b.finish(1);
        assert_eq!(
            submit(&b, 1, vec![(64, 64)]),
            Err(SubmitError::Finished { stream: 1 })
        );
        // the healthy stream is unaffected
        submit(&b, 0, vec![(64, 64)]).unwrap();
        assert_eq!(b.rounds(), 1);
    }

    #[test]
    fn double_ticket_is_a_checked_error() {
        let b = Arc::new(DetectorBatcher::new(2, CALL, 16, CostLedger::new()));
        let b2 = Arc::clone(&b);
        // stream 1 blocks with a pending ticket (stream 0 has none yet)
        let h = thread::spawn(move || submit(&b2, 1, vec![(32, 32)]));
        while b.state.lock().tickets[1].is_none() {
            thread::yield_now();
        }
        // a second submit for stream 1 must be rejected, not corrupt the
        // pending ticket
        assert_eq!(
            submit(&b, 1, vec![(64, 64)]),
            Err(SubmitError::TicketPending { stream: 1 })
        );
        // releasing the watermark flushes the original ticket
        submit(&b, 0, vec![(32, 32)]).unwrap();
        assert_eq!(h.join().unwrap(), Ok(()));
        assert_eq!(b.rounds(), 1);
    }

    #[test]
    fn finish_with_pending_ticket_releases_waiter_and_drains_others() {
        // Regression (fault tolerance): a guard dropped while its
        // stream's ticket is outstanding must (a) wake the blocked
        // submitter with Interrupted, (b) discard the ticket uncharged,
        // and (c) let the remaining streams keep draining.
        let ledger = CostLedger::new();
        let b = Arc::new(DetectorBatcher::new(3, CALL, 16, ledger.clone()));
        let b2 = Arc::clone(&b);
        // stream 2's submitter blocks: streams 0 and 1 have no tickets
        let blocked = thread::spawn(move || submit(&b2, 2, vec![(99, 99)]));
        while b.state.lock().tickets[2].is_none() {
            thread::yield_now();
        }
        // the stage thread dies; its guard drops while the ticket is
        // outstanding
        drop(StreamGuard::new(&b, 2));
        assert_eq!(
            blocked.join().unwrap(),
            Err(SubmitError::Interrupted { stream: 2 })
        );
        // remaining streams drain normally and the orphaned (99, 99)
        // ticket was never flushed or charged
        let mut handles = Vec::new();
        for stream in 0..2usize {
            let b = Arc::clone(&b);
            handles.push(thread::spawn(move || {
                for _ in 0..3 {
                    submit(&b, stream, vec![(64, 64)]).unwrap();
                }
                b.finish(stream);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.rounds(), 3);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 6);
        assert!((ledger.get(Component::Detector) - 3.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn charges_are_interleaving_independent() {
        let run = || {
            let ledger = CostLedger::new();
            let b = Arc::new(DetectorBatcher::new(3, CALL, 4, ledger.clone()));
            let mut handles = Vec::new();
            for stream in 0..3usize {
                let b = Arc::clone(&b);
                handles.push(thread::spawn(move || {
                    for f in 0..6usize {
                        // deterministic per-stream size sequence
                        let size = (32 * (1 + ((f + stream) % 2) as u32), 32);
                        submit(&b, stream, vec![size; 1 + (f % 3)]).unwrap();
                    }
                    b.finish(stream);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            (ledger.get(Component::Detector), ledger.batch_stats())
        };
        let (cost_a, stats_a) = run();
        let (cost_b, stats_b) = run();
        assert_eq!(stats_a, stats_b);
        assert!((cost_a - cost_b).abs() < 1e-12);
    }

    #[test]
    fn orphaned_tickets_are_counted_not_averaged() {
        // Regression: an orphaned ticket (stream finished while its
        // ticket was pending) must be excluded from mean_batch_occupancy
        // *and* explicitly counted as discarded — not silently vanish.
        let ledger = CostLedger::new();
        let b = Arc::new(DetectorBatcher::new(2, CALL, 16, ledger.clone()));
        let b2 = Arc::clone(&b);
        // stream 1 blocks with a 7-window ticket; stream 0 never submits
        let blocked = thread::spawn(move || submit(&b2, 1, vec![(64, 64); 7]));
        while b.state.lock().tickets[1].is_none() {
            thread::yield_now();
        }
        b.finish(1);
        assert_eq!(
            blocked.join().unwrap(),
            Err(SubmitError::Interrupted { stream: 1 })
        );
        // stream 0 then flushes two clean 2-window rounds on its own
        submit(&b, 0, vec![(32, 32); 2]).unwrap();
        submit(&b, 0, vec![(32, 32); 2]).unwrap();
        b.finish(0);
        let stats = ledger.batch_stats();
        assert_eq!(stats.discarded_tickets, 1);
        assert_eq!(stats.discarded_items, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 4);
        // occupancy reflects only flushed chunks: (2+2)/2, not (2+2+7)/2
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
        // the orphan was never charged either
        assert!((ledger.get(Component::Detector) - 2.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn batched_exec_scatters_outputs_bitwise_equal_to_looped() {
        use otif_core::WindowNet;
        use otif_cv::{DetectorArch, DetectorConfig};

        let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 3);
        let exec = Arc::new(DetectorExecHarness::new(net.clone(), DetectorExec::Batched));
        let ledger = CostLedger::new();
        let b =
            Arc::new(DetectorBatcher::new(2, CALL, 2, ledger.clone()).with_exec(Arc::clone(&exec)));
        // two streams, mixed window sizes; inputs are small deterministic
        // tensors whose dims come from the rounded sizes
        let make_inputs = |stream: usize, sizes: &[(u32, u32)]| -> Vec<Tensor3> {
            sizes
                .iter()
                .enumerate()
                .map(|(w, s)| {
                    let (iw, ih) = net.input_dims(*s);
                    let mut t = Tensor3::zeros(1, ih, iw);
                    for (j, v) in t.data.iter_mut().enumerate() {
                        *v = ((j + 7 * stream + w) as f32 * 0.031).sin() * 0.5 + 0.5;
                    }
                    t
                })
                .collect()
        };
        let sizes0 = vec![(64, 64), (64, 64), (128, 96)];
        let sizes1 = vec![(64, 64), (128, 96)];
        let b2 = Arc::clone(&b);
        let s1 = sizes1.clone();
        let inputs1 = make_inputs(1, &sizes1);
        let expected1: Vec<Tensor3> = inputs1
            .iter()
            .map(|x| {
                let mut y = Tensor3::zeros(0, 0, 0);
                net.forward_into(x, &mut y);
                y
            })
            .collect();
        let h = thread::spawn(move || {
            let out = submit_exec(&b2, 1, s1, inputs1, 0, 0, 0.0).unwrap();
            b2.finish(1);
            out
        });
        let inputs0 = make_inputs(0, &sizes0);
        let expected0: Vec<Tensor3> = inputs0
            .iter()
            .map(|x| {
                let mut y = Tensor3::zeros(0, 0, 0);
                net.forward_into(x, &mut y);
                y
            })
            .collect();
        let out0 = submit_exec(&b, 0, sizes0, inputs0, 0, 0, 0.0).unwrap();
        b.finish(0);
        let out1 = h.join().unwrap();
        // outputs arrive per stream, in window order, bitwise equal to
        // the looped forward of the same inputs
        assert_eq!(out0.len(), 3);
        assert_eq!(out1.len(), 2);
        for (got, want) in out0.iter().zip(&expected0) {
            assert_eq!(got.data, want.data);
        }
        for (got, want) in out1.iter().zip(&expected1) {
            assert_eq!(got.data, want.data);
        }
        // max_batch=2 split the 3-window (64,64) group into 2 chunks,
        // plus 1 chunk for the (128,96) group → 3 forwards, 5 windows
        assert_eq!(exec.forwards(), 3);
        assert_eq!(exec.windows(), 5);
        assert!(exec.wall_seconds() > 0.0);
        // charges are untouched by execution: same as accounting-only
        assert_eq!(ledger.batch_stats().items, 5);
    }

    #[test]
    fn exec_off_returns_no_outputs() {
        let b = DetectorBatcher::new(1, CALL, 16, CostLedger::new());
        let out = submit_exec(&b, 0, vec![(64, 64)], Vec::new(), 0, 0, 0.0).unwrap();
        assert!(out.is_empty());
        b.finish(0);
    }

    #[test]
    fn round_log_records_members_and_launch() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 4, ledger.clone());
        submit_exec(&b, 0, vec![(64, 64); 6], Vec::new(), 3, 0, 1.5).unwrap();
        submit(&b, 0, vec![(32, 32)]).unwrap();
        b.finish(0);
        let log = b.round_log();
        assert_eq!(log.len(), 2);
        // 6 same-size windows in chunks of ≤4 → 2 launches
        assert!((log[0].launch_seconds - 2.0 * CALL).abs() < 1e-12);
        assert_eq!(
            log[0].tickets,
            vec![Ticket {
                stream: 0,
                clip: 3,
                ordinal: 0,
                items: 6,
                pixel_seconds: 1.5,
            }]
        );
        assert_eq!(log[1].tickets[0].clip, Ticket::UNTAGGED);
        assert!((log[1].launch_seconds - CALL).abs() < 1e-12);
    }
}
