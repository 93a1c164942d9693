//! A small work-stealing evaluation pool for embarrassingly parallel,
//! deterministic workloads.
//!
//! The tuner evaluates dozens of (detector, resolution, threshold)
//! candidates and the bench harness sweeps whole speed–accuracy curves;
//! every evaluation is independent, takes milliseconds-to-seconds, and
//! must produce *byte-identical* results regardless of how it is
//! scheduled. [`par_map`] provides exactly that contract:
//!
//! - tasks are distributed round-robin over per-worker FIFO deques
//!   (vendored `crossbeam::deque`), with idle workers stealing from the
//!   shared injector first and then from siblings' tails;
//! - each result is returned tagged with its input index and written
//!   into the output slot for that index, so the caller observes the
//!   same `Vec` a sequential `map` would produce;
//! - worker closures must not share mutable state; anything
//!   order-sensitive (RNG draws, ledger charging) must be task-local
//!   and merged by the caller in index order.
//!
//! Nested calls run inline on the current thread: a thread that is
//! already inside a pool executes its inner `par_map` sequentially
//! rather than spawning threads-of-threads. This keeps thread counts
//! bounded when, e.g., a parallel tuner trial reaches a `run_split`
//! that is itself parallelized.
//!
//! Besides the one-shot [`par_map`], the module provides [`TaskPool`]:
//! a fixed worker pool that repeatedly *polls* resumable tasks
//! ([`PollTask`]) over the same work-stealing deques. A task that would
//! block returns [`Polled::Pending`] and is re-enqueued by a
//! [`TaskWaker`] when its blocking condition clears; a long-running
//! task returns [`Polled::Yielded`] to requeue itself at the global
//! tail (round-robin fairness). This is what lets thousands of
//! cooperatively-scheduled stream stages share a handful of OS threads.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Set while the current thread is a pool worker; nested pools
    /// degrade to sequential execution instead of oversubscribing.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Resolve a thread-count request: `0` means "auto" — the
/// `OTIF_EVAL_THREADS` environment variable if set, else available
/// parallelism, clamped to the number of tasks. Any resolved value is
/// at least 1.
pub fn resolve_threads(requested: usize, tasks: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else {
        std::env::var("OTIF_EVAL_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    };
    n.clamp(1, tasks.max(1))
}

/// Map `f` over `items` using up to `threads` worker threads (0 = auto,
/// see [`resolve_threads`]), returning results in input order.
///
/// The output is guaranteed identical to
/// `items.into_iter().map(f).collect()` **provided** `f` is a pure
/// function of its arguments (any interior mutation must be task-local).
/// `f` receives `(index, item)` so callers can derive per-task seeds or
/// labels from the position.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n_tasks = items.len();
    let threads = resolve_threads(threads, n_tasks);
    // Sequential fast paths: trivial workloads, an explicit single
    // thread, or a nested call from inside a pool worker.
    if threads == 1 || n_tasks <= 1 || IN_POOL.with(|p| p.get()) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let injector: Injector<(usize, T)> = Injector::new();
    let workers: Vec<Worker<(usize, T)>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(usize, T)>> = workers.iter().map(|w| w.stealer()).collect();
    // Round-robin pre-distribution keeps the common balanced case free
    // of any stealing at all; the injector seeds nothing up front but
    // remains the shared overflow/steal target.
    for (i, item) in items.into_iter().enumerate() {
        workers[i % threads].push((i, item));
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n_tasks);
    out.resize_with(n_tasks, || None);
    let slots = Mutex::new(&mut out);

    std::thread::scope(|scope| {
        for (wid, worker) in workers.into_iter().enumerate() {
            let f = &f;
            let injector = &injector;
            let stealers = &stealers;
            let slots = &slots;
            scope.spawn(move || {
                IN_POOL.with(|p| p.set(true));
                loop {
                    let task = find_task(&worker, injector, stealers, wid);
                    match task {
                        Some((idx, item)) => {
                            let r = f(idx, item);
                            slots.lock().unwrap()[idx] = Some(r);
                        }
                        None => break,
                    }
                }
                IN_POOL.with(|p| p.set(false));
            });
        }
    });

    out.into_iter()
        .map(|r| r.expect("evalpool: every task produces exactly one result"))
        .collect()
}

/// Next task for worker `wid`: own deque first, then the injector, then
/// steal from siblings' tails. Returns `None` when every queue is dry —
/// with all tasks pushed before the scope starts, empty-everywhere means
/// done (tasks never spawn subtasks).
fn find_task<T>(
    local: &Worker<(usize, T)>,
    injector: &Injector<(usize, T)>,
    stealers: &[Stealer<(usize, T)>],
    wid: usize,
) -> Option<(usize, T)> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    // Rotate the victim order by worker id so thieves spread out.
    let n = stealers.len();
    for k in 1..n {
        let victim = (wid + k) % n;
        loop {
            match stealers[victim].steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// What a [`PollTask::poll`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// The task is finished and must never be polled again.
    Done,
    /// The task cannot make progress until a [`TaskWaker`] wakes it
    /// (e.g. a queue slot it registered interest in frees up). The pool
    /// parks it; waking re-enqueues it.
    Pending,
    /// The task can make more progress but volunteers the worker back:
    /// it is re-enqueued at the global run-queue tail, giving every
    /// other runnable task a turn first (round-robin fairness).
    Yielded,
}

/// A resumable state machine scheduled by a [`TaskPool`].
///
/// `poll` runs the task until it finishes, blocks or exhausts its
/// fairness budget. The pool guarantees `poll` is never called
/// concurrently for one task, and never again after `Done`.
///
/// The contract that makes wake-ups lossless: before returning
/// `Pending`, the task must have registered its waker interest with
/// whatever it is waiting on, *under that resource's lock*. A wake
/// arriving while the task is still mid-poll is latched (the pool
/// re-enqueues the task after the poll returns), so the
/// register-then-return window cannot lose a notification.
pub trait PollTask: Send {
    /// Advance the state machine.
    fn poll(&mut self) -> Polled;

    /// The pool's stall watchdog expired this task: it sat parked
    /// (`Pending`, never woken) longer than the pool's stall timeout.
    /// Return `true` to expire the task — it is dropped without another
    /// `poll`, so the implementation should record the stall and
    /// release its resources here — or `false` to keep waiting (the
    /// park deadline resets). Runnable-but-queued tasks are never
    /// considered stalled: yielded is not wedged.
    fn on_stall(&mut self) -> bool {
        true
    }
}

/// Scheduling counters of one [`TaskPool::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolMetrics {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Total `poll` invocations.
    pub polls: u64,
    /// Tasks stolen from a sibling worker's deque.
    pub steals: u64,
    /// Peak number of runnable (queued, not yet polled) tasks.
    pub peak_runnable: u64,
    /// Tasks expired by the stall watchdog.
    pub expired: u64,
}

// Task scheduling states. Transitions:
//   QUEUED  -> RUNNING           (worker dequeues and polls)
//   RUNNING -> IDLE              (poll returned Pending, no wake raced)
//   RUNNING -> NOTIFIED          (TaskWaker fired mid-poll)
//   RUNNING | NOTIFIED -> QUEUED (poll returned Yielded, or Pending
//                                 with a latched wake)
//   IDLE    -> QUEUED            (TaskWaker fired while parked)
//   any     -> DONE              (poll returned Done, or stall expiry)
const T_QUEUED: u8 = 0;
const T_RUNNING: u8 = 1;
const T_IDLE: u8 = 2;
const T_NOTIFIED: u8 = 3;
const T_DONE: u8 = 4;

/// Not-parked marker for `parked_ms`.
const NOT_PARKED: u64 = u64::MAX;

struct PoolCore {
    injector: Injector<usize>,
    states: Vec<AtomicU8>,
    /// Milliseconds since `epoch` at which the task last stopped
    /// running — parked (entered IDLE) or re-queued (woken, yielded) —
    /// i.e. how long it has been waiting for progress. `NOT_PARKED`
    /// while running or before the first poll. Only meaningful for the
    /// stall watchdog: over-parked IDLE tasks are expired by the scan,
    /// and over-queued tasks (starved of a worker by a monopolizing
    /// poll) are offered `on_stall` at dispatch.
    parked_ms: Vec<AtomicU64>,
    /// Tasks not yet DONE.
    live: AtomicUsize,
    /// Tasks currently queued (injector + local deques).
    runnable: AtomicUsize,
    peak_runnable: AtomicU64,
    polls: AtomicU64,
    steals: AtomicU64,
    expired: AtomicU64,
    /// Parked-worker count, guarded by the sleep mutex so a wake
    /// between the idle check and the wait cannot be lost.
    sleep: Mutex<usize>,
    wake_cv: Condvar,
    /// Wakes the dedicated watchdog thread for shutdown (it otherwise
    /// ticks on its own scan interval).
    watchdog_cv: Condvar,
    epoch: Instant,
    stall_timeout: Option<Duration>,
    last_scan_ms: AtomicU64,
}

impl PoolCore {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Push a runnable task to the shared tail and wake a parked worker
    /// if any. Caller must already have moved the task's state to
    /// QUEUED.
    fn enqueue(&self, task: usize) {
        // Count before pushing: a worker may pop the task the moment it
        // is pushed, and its decrement must never run ahead of this
        // increment (the counter would wrap below zero).
        let r = self.runnable.fetch_add(1, Ordering::SeqCst) as u64 + 1;
        self.peak_runnable.fetch_max(r, Ordering::Relaxed);
        self.injector.push(task);
        let idle = self.sleep.lock().unwrap();
        if *idle > 0 {
            self.wake_cv.notify_one();
        }
        drop(idle);
    }

    fn wake(&self, task: usize) {
        loop {
            let state = self.states[task].load(Ordering::SeqCst);
            match state {
                T_IDLE => {
                    if self.states[task]
                        .compare_exchange(T_IDLE, T_QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        // Waiting-clock restarts: the task is now
                        // runnable, so the watchdog measures time queued
                        // without a worker, not the old park.
                        self.parked_ms[task].store(self.now_ms(), Ordering::SeqCst);
                        self.enqueue(task);
                        return;
                    }
                }
                T_RUNNING => {
                    if self.states[task]
                        .compare_exchange(T_RUNNING, T_NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return; // latched; the worker requeues after poll
                    }
                }
                // Already queued/latched/done: nothing to do.
                _ => return,
            }
        }
    }

    fn notify_all_workers(&self) {
        let _idle = self.sleep.lock().unwrap();
        self.wake_cv.notify_all();
        self.watchdog_cv.notify_all();
    }
}

/// Wakes one task of a [`TaskPool`]: re-enqueues it if parked, latches
/// the wake if it is mid-poll, and is a no-op if it is already queued
/// or done. Cheap to clone; safe to call from any thread (including
/// from inside other tasks' polls).
#[derive(Clone)]
pub struct TaskWaker {
    core: Arc<PoolCore>,
    task: usize,
}

impl TaskWaker {
    /// Wake the task.
    pub fn wake(&self) {
        self.core.wake(self.task);
    }
}

/// A fixed pool of worker threads repeatedly polling a set of
/// resumable tasks (created up front) until all are done. Built on the
/// same crossbeam work-stealing deques as [`par_map`]: initial tasks
/// are distributed round-robin over per-worker FIFO deques, re-enqueues
/// (wakes and yields) go through the shared injector tail, and idle
/// workers steal from siblings.
pub struct TaskPool {
    core: Arc<PoolCore>,
}

impl TaskPool {
    /// A pool for exactly `n_tasks` tasks. `stall_timeout` arms the
    /// stall watchdog: a task parked (Pending, never woken) longer than
    /// this is offered to [`PollTask::on_stall`].
    pub fn new(n_tasks: usize, stall_timeout: Option<Duration>) -> TaskPool {
        TaskPool {
            core: Arc::new(PoolCore {
                injector: Injector::new(),
                states: (0..n_tasks).map(|_| AtomicU8::new(T_QUEUED)).collect(),
                parked_ms: (0..n_tasks).map(|_| AtomicU64::new(NOT_PARKED)).collect(),
                live: AtomicUsize::new(n_tasks),
                runnable: AtomicUsize::new(n_tasks),
                peak_runnable: AtomicU64::new(n_tasks as u64),
                polls: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                expired: AtomicU64::new(0),
                sleep: Mutex::new(0),
                wake_cv: Condvar::new(),
                watchdog_cv: Condvar::new(),
                epoch: Instant::now(),
                stall_timeout,
                last_scan_ms: AtomicU64::new(0),
            }),
        }
    }

    /// A waker handle for task `task` (indices follow the order of the
    /// task vector later passed to [`Self::run`]). Handles may be
    /// created and used before, during and after the run; waking a
    /// finished task is a no-op.
    pub fn waker(&self, task: usize) -> TaskWaker {
        assert!(task < self.core.states.len(), "waker index out of range");
        TaskWaker {
            core: Arc::clone(&self.core),
            task,
        }
    }

    /// Drive all tasks to completion on `workers` threads and return
    /// the scheduling metrics. `tasks.len()` must equal the `n_tasks`
    /// the pool was created for. Every task is polled at least once.
    pub fn run<'env>(&self, workers: usize, tasks: Vec<Box<dyn PollTask + 'env>>) -> PoolMetrics {
        let core = &self.core;
        assert_eq!(tasks.len(), core.states.len(), "task count mismatch");
        let n_tasks = tasks.len();
        let workers = workers.max(1);
        if n_tasks == 0 {
            return PoolMetrics {
                workers,
                ..PoolMetrics::default()
            };
        }
        let slots: Vec<Mutex<Option<Box<dyn PollTask + 'env>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals.iter().map(|w| w.stealer()).collect();
        // Round-robin pre-distribution: task i starts on worker i % W,
        // so the initial poll order interleaves streams across workers.
        for t in 0..n_tasks {
            locals[t % workers].push(t);
        }
        let scan_every = core
            .stall_timeout
            .map(|t| (t / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)));
        std::thread::scope(|scope| {
            for (wid, local) in locals.into_iter().enumerate() {
                let slots = &slots;
                let stealers = &stealers;
                scope.spawn(move || {
                    worker_loop(core, wid, local, stealers, slots, scan_every);
                });
            }
            // One dedicated watchdog thread when the stall timeout is
            // armed: scanning must not depend on a worker being free —
            // with every worker stuck in a long poll (a single-worker
            // pool sleeping inside an injected stall, say), parked
            // neighbours would otherwise be woken by the draining
            // before anyone could observe that they sat wedged past
            // the deadline.
            if let Some(every) = scan_every {
                let slots = &slots;
                scope.spawn(move || watchdog_loop(core, slots, every));
            }
        });
        PoolMetrics {
            workers,
            polls: core.polls.load(Ordering::Relaxed),
            steals: core.steals.load(Ordering::Relaxed),
            peak_runnable: core.peak_runnable.load(Ordering::Relaxed),
            expired: core.expired.load(Ordering::Relaxed),
        }
    }
}

fn worker_loop<'env>(
    core: &PoolCore,
    wid: usize,
    local: Worker<usize>,
    stealers: &[Stealer<usize>],
    slots: &[Mutex<Option<Box<dyn PollTask + 'env>>>],
    scan_every: Option<Duration>,
) {
    loop {
        if core.live.load(Ordering::SeqCst) == 0 {
            core.notify_all_workers();
            return;
        }
        match next_task(core, &local, stealers, wid) {
            Some(task) => {
                core.runnable.fetch_sub(1, Ordering::SeqCst);
                run_one(core, task, slots);
                // Opportunistic stall scan: a busy pool (no parked
                // workers) must still notice wedged tasks.
                if let Some(every) = scan_every {
                    let now = core.now_ms();
                    let last = core.last_scan_ms.load(Ordering::Relaxed);
                    if now.saturating_sub(last) >= every.as_millis() as u64
                        && core
                            .last_scan_ms
                            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        expire_stalled(core, slots);
                    }
                }
            }
            None => {
                let mut idle = core.sleep.lock().unwrap();
                if core.live.load(Ordering::SeqCst) == 0 {
                    drop(idle);
                    core.notify_all_workers();
                    return;
                }
                if core.runnable.load(Ordering::SeqCst) > 0 {
                    continue; // raced with an enqueue; retry the deques
                }
                *idle += 1;
                let timed_out = match scan_every {
                    None => {
                        idle = core.wake_cv.wait(idle).unwrap();
                        false
                    }
                    Some(every) => {
                        let (guard, result) = core.wake_cv.wait_timeout(idle, every).unwrap();
                        idle = guard;
                        result.timed_out()
                    }
                };
                *idle -= 1;
                drop(idle);
                if timed_out {
                    expire_stalled(core, slots);
                }
            }
        }
    }
}

/// Next runnable task for worker `wid`: own deque, then the injector,
/// then steal from siblings (victim order rotated by worker id).
fn next_task(
    core: &PoolCore,
    local: &Worker<usize>,
    stealers: &[Stealer<usize>],
    wid: usize,
) -> Option<usize> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match core.injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    let n = stealers.len();
    for k in 1..n {
        let victim = (wid + k) % n;
        loop {
            match stealers[victim].steal() {
                Steal::Success(t) => {
                    core.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn run_one<'env>(core: &PoolCore, task: usize, slots: &[Mutex<Option<Box<dyn PollTask + 'env>>>]) {
    // Only the dequeuing worker moves QUEUED -> RUNNING, so the poll
    // below is exclusive.
    core.states[task].store(T_RUNNING, Ordering::SeqCst);
    // Dispatch-time starvation check: a task that sat *queued* past the
    // stall deadline was starved of a worker (every worker stuck in a
    // monopolizing poll — e.g. a single-worker pool sleeping inside a
    // stall fault). That is the same wedge as an over-parked task seen
    // from the runnable side, so it gets the same `on_stall` offer —
    // exclusively, since this worker owns the task now.
    if let Some(timeout) = core.stall_timeout {
        let since = core.parked_ms[task].load(Ordering::SeqCst);
        if since != NOT_PARKED && core.now_ms().saturating_sub(since) >= timeout.as_millis() as u64
        {
            let mut slot = slots[task].lock().unwrap();
            let expire = slot.as_mut().map(|t| t.on_stall()).unwrap_or(false);
            if expire {
                *slot = None;
                drop(slot);
                core.parked_ms[task].store(NOT_PARKED, Ordering::SeqCst);
                core.states[task].store(T_DONE, Ordering::SeqCst);
                core.expired.fetch_add(1, Ordering::Relaxed);
                finish_one(core);
                return;
            }
            // Keep-waiting verdict: poll normally (it is runnable).
        }
    }
    core.parked_ms[task].store(NOT_PARKED, Ordering::SeqCst);
    core.polls.fetch_add(1, Ordering::Relaxed);
    let mut slot = slots[task].lock().unwrap();
    let polled = match slot.as_mut() {
        Some(t) => t.poll(),
        None => Polled::Done, // expired concurrently; nothing to do
    };
    match polled {
        Polled::Done => {
            // Drop the task while holding its slot: endpoints close and
            // guards release before anyone observes the DONE state.
            *slot = None;
            drop(slot);
            core.states[task].store(T_DONE, Ordering::SeqCst);
            finish_one(core);
        }
        Polled::Yielded => {
            drop(slot);
            // A wake latched mid-poll collapses into the same requeue.
            core.parked_ms[task].store(core.now_ms(), Ordering::SeqCst);
            core.states[task].store(T_QUEUED, Ordering::SeqCst);
            core.enqueue(task);
        }
        Polled::Pending => {
            drop(slot);
            core.parked_ms[task].store(core.now_ms(), Ordering::SeqCst);
            if core.states[task]
                .compare_exchange(T_RUNNING, T_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A wake latched during the poll (NOTIFIED): requeue
                // instead of parking, so the notification is not lost.
                // The park timestamp stands in as the queued-since mark.
                core.states[task].store(T_QUEUED, Ordering::SeqCst);
                core.enqueue(task);
            }
        }
    }
}

fn finish_one(core: &PoolCore) {
    if core.live.fetch_sub(1, Ordering::SeqCst) == 1 {
        core.notify_all_workers();
    }
}

/// The dedicated stall scanner: ticks every `every`, expiring
/// over-parked tasks, until all tasks are done (shutdown is signalled
/// through `watchdog_cv` so the run doesn't linger a tick).
fn watchdog_loop<'env>(
    core: &PoolCore,
    slots: &[Mutex<Option<Box<dyn PollTask + 'env>>>],
    every: Duration,
) {
    loop {
        let guard = core.sleep.lock().unwrap();
        if core.live.load(Ordering::SeqCst) == 0 {
            return;
        }
        let (guard, _) = core.watchdog_cv.wait_timeout(guard, every).unwrap();
        if core.live.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(guard);
        expire_stalled(core, slots);
    }
}

/// Offer every over-parked task to its `on_stall` hook. Stealing the
/// task via IDLE -> RUNNING makes the call exclusive against wakes and
/// other scanners; a concurrent wake simply latches and requeues.
fn expire_stalled<'env>(core: &PoolCore, slots: &[Mutex<Option<Box<dyn PollTask + 'env>>>]) {
    let Some(timeout) = core.stall_timeout else {
        return;
    };
    let timeout_ms = timeout.as_millis() as u64;
    let now = core.now_ms();
    for (task, state) in core.states.iter().enumerate() {
        if state.load(Ordering::SeqCst) != T_IDLE {
            continue;
        }
        let parked = core.parked_ms[task].load(Ordering::SeqCst);
        if parked == NOT_PARKED || now.saturating_sub(parked) < timeout_ms {
            continue;
        }
        if state
            .compare_exchange(T_IDLE, T_RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            continue; // woken in the meantime — not stalled
        }
        let mut slot = slots[task].lock().unwrap();
        let expire = slot.as_mut().map(|t| t.on_stall()).unwrap_or(false);
        if expire {
            *slot = None;
            drop(slot);
            core.states[task].store(T_DONE, Ordering::SeqCst);
            core.expired.fetch_add(1, Ordering::Relaxed);
            finish_one(core);
        } else {
            drop(slot);
            core.parked_ms[task].store(core.now_ms(), Ordering::SeqCst);
            if core.states[task]
                .compare_exchange(T_RUNNING, T_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                core.states[task].store(T_QUEUED, Ordering::SeqCst);
                core.enqueue(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let seq: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let par = par_map(threads, items.clone(), |_, x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(3, items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        // With 4 long-ish tasks and 4 threads, at least two distinct
        // threads should participate. Count distinct thread ids.
        let seen = Mutex::new(std::collections::HashSet::new());
        let barrier = std::sync::Barrier::new(4);
        par_map(4, vec![(); 4], |_, ()| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Rendezvous forces all four tasks onto different threads.
            barrier.wait();
        });
        assert_eq!(seen.lock().unwrap().len(), 4);
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let spawned = AtomicUsize::new(0);
        let out = par_map(2, vec![10usize, 20], |_, base| {
            spawned.fetch_add(1, Ordering::SeqCst);
            // Inner call must not deadlock or explode thread counts; it
            // runs sequentially because this thread is already pooled.
            let inner = par_map(8, (0..4).collect::<Vec<usize>>(), move |_, x| base + x);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![10 * 4 + 6, 20 * 4 + 6]);
        assert_eq!(spawned.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let empty: Vec<u8> = par_map(4, Vec::<u8>::new(), |_, x| x);
        assert!(empty.is_empty());
        let one = par_map(4, vec![41], |_, x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        assert_eq!(resolve_threads(5, 0), 1);
        assert!(resolve_threads(0, 64) >= 1);
    }

    struct CountdownTask {
        remaining: usize,
        touched: Arc<AtomicUsize>,
    }

    impl PollTask for CountdownTask {
        fn poll(&mut self) -> Polled {
            self.touched.fetch_add(1, Ordering::SeqCst);
            if self.remaining == 0 {
                return Polled::Done;
            }
            self.remaining -= 1;
            Polled::Yielded
        }
    }

    #[test]
    fn pool_drives_yielding_tasks_to_completion_at_any_width() {
        for workers in [1usize, 2, 8] {
            let touched = Arc::new(AtomicUsize::new(0));
            let pool = TaskPool::new(16, None);
            let tasks: Vec<Box<dyn PollTask>> = (0..16)
                .map(|i| {
                    Box::new(CountdownTask {
                        remaining: i,
                        touched: Arc::clone(&touched),
                    }) as Box<dyn PollTask>
                })
                .collect();
            let metrics = pool.run(workers, tasks);
            assert_eq!(metrics.workers, workers.max(1));
            // Each task polls remaining+1 times: sum(0..16) + 16.
            assert_eq!(touched.load(Ordering::SeqCst), 120 + 16);
            assert_eq!(metrics.polls, 136);
            assert_eq!(metrics.expired, 0);
            assert!(metrics.peak_runnable >= 1);
        }
    }

    /// Two tasks ping-ponging through a shared mailbox: each parks
    /// Pending until the other's waker fires. Exercises the
    /// IDLE->QUEUED and RUNNING->NOTIFIED wake paths.
    struct PingPong {
        me: usize,
        mailbox: Arc<Mutex<usize>>,
        peer_waker: Arc<Mutex<Option<TaskWaker>>>,
        rounds: usize,
    }

    impl PollTask for PingPong {
        fn poll(&mut self) -> Polled {
            loop {
                if self.rounds == 0 {
                    return Polled::Done;
                }
                let mut slot = self.mailbox.lock().unwrap();
                if *slot != self.me {
                    // Not our turn: the peer's poll flips the mailbox
                    // and wakes us (waker registered before parking,
                    // under the mailbox lock — no lost wakeup).
                    return Polled::Pending;
                }
                *slot = 1 - self.me;
                self.rounds -= 1;
                if let Some(w) = self.peer_waker.lock().unwrap().as_ref() {
                    w.wake();
                }
                drop(slot);
            }
        }
    }

    #[test]
    fn pending_tasks_wake_each_other_through_wakers() {
        for workers in [1usize, 2, 4] {
            let mailbox = Arc::new(Mutex::new(0usize));
            let waker0 = Arc::new(Mutex::new(None));
            let waker1 = Arc::new(Mutex::new(None));
            let pool = TaskPool::new(2, None);
            *waker0.lock().unwrap() = Some(pool.waker(0));
            *waker1.lock().unwrap() = Some(pool.waker(1));
            let tasks: Vec<Box<dyn PollTask>> = vec![
                Box::new(PingPong {
                    me: 0,
                    mailbox: Arc::clone(&mailbox),
                    peer_waker: Arc::clone(&waker1),
                    rounds: 50,
                }),
                Box::new(PingPong {
                    me: 1,
                    mailbox: Arc::clone(&mailbox),
                    peer_waker: Arc::clone(&waker0),
                    rounds: 50,
                }),
            ];
            let metrics = pool.run(workers, tasks);
            assert_eq!(metrics.expired, 0);
            assert!(metrics.polls >= 100);
        }
    }

    struct Wedged {
        verdicts: Arc<AtomicUsize>,
        expire_on: usize,
    }

    impl PollTask for Wedged {
        fn poll(&mut self) -> Polled {
            Polled::Pending // parks forever; only the watchdog ends it
        }

        fn on_stall(&mut self) -> bool {
            let n = self.verdicts.fetch_add(1, Ordering::SeqCst) + 1;
            n >= self.expire_on
        }
    }

    #[test]
    fn stall_watchdog_expires_wedged_tasks_after_keep_waiting_verdicts() {
        for workers in [1usize, 4] {
            let verdicts = Arc::new(AtomicUsize::new(0));
            let pool = TaskPool::new(2, Some(Duration::from_millis(20)));
            let tasks: Vec<Box<dyn PollTask>> = vec![
                Box::new(Wedged {
                    verdicts: Arc::clone(&verdicts),
                    expire_on: 3,
                }),
                Box::new(CountdownTask {
                    remaining: 4,
                    touched: Arc::new(AtomicUsize::new(0)),
                }),
            ];
            let metrics = pool.run(workers, tasks);
            assert_eq!(metrics.expired, 1, "workers={workers}");
            // First two on_stall calls said keep-waiting, third expired.
            assert_eq!(verdicts.load(Ordering::SeqCst), 3, "workers={workers}");
        }
    }

    #[test]
    fn empty_pool_returns_immediately() {
        let pool = TaskPool::new(0, None);
        let metrics = pool.run(4, Vec::new());
        assert_eq!(metrics.polls, 0);
    }
}
