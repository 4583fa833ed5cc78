//! The flow-graph executor: a generic ready-queue over [`FlowGraph`] nodes.
//!
//! PR 2's scheduler parallelised *within* one fanout level: the level's
//! per-signal sub-properties solved on forked solver shards, but whole levels
//! and resolution rounds still serialised.  The executor in this module
//! lifts the same shard model to the whole graph: the coordinator thread
//! prepares generations (lowering + Tseitin encoding + a frozen snapshot per
//! level, see [`MiterSession::prepare_level`]) ahead of the merge frontier,
//! one shared worker pool pulls *(generation, sub-property)* tasks from a
//! ready queue, and results merge strictly in node order.  Independent
//! sub-properties from **different levels** therefore solve concurrently —
//! the master encodes level `k + 1` while level `k`'s forks are still
//! solving.
//!
//! # Determinism guarantee
//!
//! Reports are byte-identical for every worker count *and* with level
//! pipelining on or off, because nothing a worker does can influence what
//! another task sees:
//!
//! * every task solves on a fork of its generation's frozen snapshot, and
//!   the master mutation stream (retire previous generation's activation
//!   literals → encode → clause-GC → snapshot) is a pure function of the
//!   prepare *order*, which is always ascending node order;
//! * results merge in node order, first counterexample wins, and only the
//!   consumed prefix of tasks contributes statistics — speculative work
//!   behind a failure is cancelled mid-solve and discarded;
//! * a resolution round is a re-enqueued graph node; before it is encoded
//!   the coordinator completes every remaining level prepare, so the master
//!   state under any resolution encode is the same whether the flow
//!   pipelined or not.
//!
//! Speculation is demand-driven: the coordinator only prepares the next
//! level when fewer unfinished tasks than workers remain, so fail-fast flows
//! (most infected benchmarks die on the init property) pay nothing for the
//! pipeline.  Whether a generation gets *prepared* may depend on timing;
//! whether its results are *reported* never does.
//!
//! # When to tune `jobs`
//!
//! Parallelism pays off when consecutive levels carry non-structural
//! sub-properties (RSA-class accelerators, infected AES levels).  Flows
//! dominated by the structural fast path dispatch few or no solve tasks, so
//! extra workers are harmless but idle.  The CLI defaults to the machine's
//! available parallelism; the library defaults to one worker (call
//! [`SessionBuilder::jobs`] to change it).  Level pipelining is on by
//! default; [`PropertyScheduler::with_level_pipelining`] falls back to
//! merge-gated solving.  Neither default reads the environment.
//!
//! [`SessionBuilder::jobs`]: crate::SessionBuilder::jobs
//! [`MiterSession::prepare_level`]: htd_ipc::MiterSession::prepare_level

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use htd_ipc::{CheckOutcome, MiterSession, PreparedLevel, TaskOutcome};
use htd_rtl::{SignalId, ValidatedDesign};
use htd_sat::SolverStats;

use crate::diagnosis::{benign_fanin_of, diagnose, Diagnosis};
use crate::error::DetectError;
use crate::flow::DetectorConfig;
use crate::flowgraph::FlowGraph;
use crate::report::{DetectedBy, DetectionOutcome, DetectionReport, PropertyTrace};
use crate::session::FlowEvent;

/// Policy object selecting how the flow-graph executor schedules work: the
/// worker count and whether sub-properties of different levels may solve
/// concurrently.
///
/// See the [module docs](self) for the execution model and the determinism
/// guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropertyScheduler {
    jobs: NonZeroUsize,
    pipeline_levels: bool,
    oversubscribe: bool,
}

impl PropertyScheduler {
    /// A scheduler running up to `jobs` worker shards, with level pipelining
    /// on.
    #[must_use]
    pub fn new(jobs: NonZeroUsize) -> Self {
        PropertyScheduler {
            jobs,
            pipeline_levels: true,
            oversubscribe: false,
        }
    }

    /// Allows more worker threads than the machine has hardware threads.
    /// CPU-bound solver shards gain nothing from oversubscription, so by
    /// default the effective worker count is `min(jobs, available
    /// parallelism)` — this switch exists for tests that must exercise
    /// multi-worker schedules on single-core hosts.
    #[must_use]
    pub fn with_oversubscription(mut self, enabled: bool) -> Self {
        self.oversubscribe = enabled;
        self
    }

    /// The worker count the executor will actually run: `jobs`, capped at
    /// the machine's available parallelism unless
    /// [`with_oversubscription`](Self::with_oversubscription) lifted the cap.
    #[must_use]
    pub fn effective_workers(&self) -> NonZeroUsize {
        if self.oversubscribe {
            self.jobs
        } else {
            self.jobs.min(Self::available_parallelism())
        }
    }

    /// Enables or disables level pipelining: when disabled, the executor
    /// gates every prepare behind the previous level's merge (the PR-2
    /// schedule).  Reports are identical either way.
    #[must_use]
    pub fn with_level_pipelining(mut self, enabled: bool) -> Self {
        self.pipeline_levels = enabled;
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> NonZeroUsize {
        self.jobs
    }

    /// `true` if sub-properties of different levels may solve concurrently.
    #[must_use]
    pub fn pipelines_levels(&self) -> bool {
        self.pipeline_levels
    }

    /// The machine's available parallelism (1 if it cannot be determined).
    #[must_use]
    pub fn available_parallelism() -> NonZeroUsize {
        std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
    }
}

/// One worker with level pipelining on.
impl Default for PropertyScheduler {
    fn default() -> Self {
        PropertyScheduler::new(NonZeroUsize::MIN)
    }
}

/// Counters describing one pipelined flow run, exposed through
/// [`DetectionSession::pipeline_stats`](crate::DetectionSession::pipeline_stats).
///
/// Unlike the [`DetectionReport`], which is deterministic by construction,
/// these counters describe the *schedule* the executor happened to take and
/// may vary between runs (speculation is demand-driven).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Generations (levels and resolution rounds) prepared on the master,
    /// including speculative ones whose results were discarded.
    pub generations_prepared: u64,
    /// Sub-property tasks enqueued on the worker pool.
    pub tasks_dispatched: u64,
    /// Generations the master encoded while another generation's solver
    /// tasks were still unfinished — the epoch-scoped encode/solve overlap
    /// that the flow graph adds (meaningful even on a single hardware
    /// thread).
    pub pipelined_prepares: u64,
    /// Tasks that started solving while a task of a *different* generation
    /// was still unfinished — true cross-level solve concurrency (needs
    /// hardware threads, or long-running tasks, to show up).
    pub cross_level_solves: u64,
    /// Generations frozen behind a master-side snapshot clone (inline
    /// schedules skip the clone, so this is 0 at one effective worker).
    pub snapshot_forks: u64,
    /// Bytes those snapshot clones copied — with the arena-backed clause
    /// store each clone is a handful of flat-buffer memcpys proportional to
    /// the master's live database size at the prepare boundary.
    pub snapshot_bytes_cloned: u64,
}

/// One prepared generation in flight: the frozen sub-property tasks plus the
/// slots their results land in.
struct GenJob {
    /// Flow-graph node id of the generation.
    node: usize,
    prepared: PreparedLevel,
    results: Vec<Mutex<Option<TaskOutcome>>>,
    /// Lowest failed sub-property id of this generation (cancels higher-id
    /// tasks, see [`PreparedLevel::solve_task`]).
    doomed: Arc<AtomicUsize>,
    /// Unfinished tasks of this generation.
    remaining: AtomicUsize,
}

impl GenJob {
    fn new(node: usize, prepared: PreparedLevel) -> Self {
        let n = prepared.num_tasks();
        GenJob {
            node,
            prepared,
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            doomed: Arc::new(AtomicUsize::new(usize::MAX)),
            remaining: AtomicUsize::new(n),
        }
    }

    /// `true` once the deterministic merge can run: every task is finished,
    /// or every task up to (and including) the lowest failed id is — results
    /// behind the first counterexample can never be consumed, so the merge
    /// need not wait for them.
    fn merge_ready(&self) -> bool {
        if self.remaining.load(Ordering::SeqCst) == 0 {
            return true;
        }
        let doomed = self.doomed.load(Ordering::SeqCst);
        if doomed == usize::MAX {
            return false;
        }
        self.results[..=doomed.min(self.results.len() - 1)]
            .iter()
            .all(|slot| slot.lock().expect("no poisoned locks").is_some())
    }

    fn take_outcomes(&self) -> Vec<Option<TaskOutcome>> {
        self.results
            .iter()
            .map(|slot| slot.lock().expect("no poisoned locks").take())
            .collect()
    }
}

/// The shared ready queue workers pull from.
struct WorkQueue {
    queue: VecDeque<(Arc<GenJob>, usize)>,
    shutdown: bool,
}

/// Per-flow coordination state, shared between the flow's coordinator thread
/// and whichever workers solve its tasks — the flow's own scoped threads, or
/// the global workers of a [`SharedSolvePool`] multiplexing many concurrent
/// flows.  Arc'd so pool workers can outlive any single flow.
struct FlowShared {
    work: Mutex<WorkQueue>,
    work_cv: Condvar,
    /// Completed-task counter; workers bump it under the lock before
    /// notifying, so a coordinator that re-checks `merge_ready` after
    /// acquiring the lock can never miss a wake-up.
    progress: Mutex<u64>,
    progress_cv: Condvar,
    /// Kill switch checked by every in-flight solve's interrupt hook: set
    /// externally to cancel the whole flow mid-search
    /// ([`DetectionSession::cancel_flag`]), and set by the flow itself during
    /// wind-down to stop speculative stragglers.
    ///
    /// [`DetectionSession::cancel_flag`]: crate::DetectionSession::cancel_flag
    cancelled: Arc<AtomicBool>,
    /// Tasks dispatched but not yet finished (drives demand-driven
    /// speculation).
    outstanding: AtomicUsize,
    /// Every generation of this flow dispatched so far; workers consult it to
    /// detect tasks of *other* generations still unfinished when they pick up
    /// work.
    active_gens: Mutex<Vec<Arc<GenJob>>>,
    cross_level: AtomicU64,
}

impl FlowShared {
    fn new(cancelled: Arc<AtomicBool>) -> Self {
        FlowShared {
            work: Mutex::new(WorkQueue {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            progress: Mutex::new(0),
            progress_cv: Condvar::new(),
            cancelled,
            outstanding: AtomicUsize::new(0),
            active_gens: Mutex::new(Vec::new()),
            cross_level: AtomicU64::new(0),
        }
    }

    /// Pops one ready task without blocking (pool workers poll flows
    /// round-robin instead of parking on per-flow condvars).
    fn try_pop(&self) -> Option<(Arc<GenJob>, usize)> {
        self.work
            .lock()
            .expect("no poisoned locks")
            .queue
            .pop_front()
    }

    /// Executes one task and publishes its result: the single code path
    /// shared by scoped worker threads and pool workers, so the bookkeeping
    /// (cross-level evidence, outstanding count, progress wake-up) cannot
    /// drift between the two execution modes.
    fn run_task(&self, job: &Arc<GenJob>, index: usize) {
        {
            let gens = self.active_gens.lock().expect("no poisoned locks");
            if gens
                .iter()
                .any(|g| g.node != job.node && g.remaining.load(Ordering::SeqCst) > 0)
            {
                // htd-lint: allow(determinism): monotone telemetry counter; the scheduler never branches on it
                self.cross_level.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Panic isolation: a panicking solve (a backend bug, an injected
        // fault) must not strand the coordinator waiting on a result slot
        // that will never be filled.  Convert the panic into a structured
        // backend error for this task and doom the level so later tasks
        // skip.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.prepared.solve_task(index, &job.doomed, &self.cancelled)
        }))
        .unwrap_or_else(|payload| {
            job.doomed.fetch_min(index, Ordering::SeqCst);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_owned());
            TaskOutcome::internal_error(format!("solve task panicked: {message}"))
        });
        *job.results[index].lock().expect("no poisoned locks") = Some(outcome);
        job.remaining.fetch_sub(1, Ordering::SeqCst);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        let mut completed = self.progress.lock().expect("no poisoned locks");
        *completed += 1;
        drop(completed);
        self.progress_cv.notify_all();
    }
}

/// Registered flows a [`SharedSolvePool`]'s workers pull from.
struct PoolState {
    flows: Vec<Arc<FlowShared>>,
    /// Round-robin pick cursor: each dequeue starts scanning at the flow
    /// *after* the last one served, so concurrent flows share the workers
    /// fairly at task granularity instead of first-come-drains-the-pool.
    cursor: usize,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    cv: Condvar,
    workers: NonZeroUsize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A process-wide solver worker pool multiplexing many concurrent detection
/// flows over one set of threads.
///
/// Each flow run under the pipelined executor normally spawns its own scoped
/// worker threads; a service running many flows at once would oversubscribe
/// the machine with `flows x jobs` solver threads.  Attaching a
/// `SharedSolvePool` to each session
/// ([`DetectionSession::attach_pool`](crate::DetectionSession::attach_pool))
/// replaces the per-flow threads with this pool's fixed worker set: flows
/// register their ready queues, and workers pick one *(generation, task)* at
/// a time **round-robin across flows** — fair-share scheduling at task
/// granularity, so a many-task tenant cannot starve a small one (a started
/// solve is never preempted, though; fairness kicks in at every task
/// boundary).
///
/// Reports are unaffected: the executor's determinism guarantee is
/// schedule-invariance, and the pool only changes *which thread* solves a
/// task, never what the task sees.  Cancellation also carries over — each
/// flow's kill switch is checked by its tasks' interrupt hooks regardless of
/// which pool worker runs them.
///
/// The handle is cheaply cloneable; workers park when no flow has ready
/// tasks, and [`shutdown`](Self::shutdown) joins them (dropping the last
/// handle without calling it leaves the workers parked until process exit,
/// which is fine for daemons but untidy in tests).
#[derive(Clone)]
pub struct SharedSolvePool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for SharedSolvePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSolvePool")
            .field("workers", &self.inner.workers.get())
            .finish_non_exhaustive()
    }
}

impl SharedSolvePool {
    /// Spawns a pool with the given number of worker threads.
    #[must_use]
    pub fn new(workers: NonZeroUsize) -> Self {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                flows: Vec::new(),
                cursor: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            workers,
            handles: Mutex::new(Vec::new()),
        });
        let handles = (0..workers.get())
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        *inner.handles.lock().expect("no poisoned locks") = handles;
        SharedSolvePool { inner }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.inner.workers
    }

    /// Stops and joins the worker threads.  In-flight tasks finish; queued
    /// tasks of still-registered flows are abandoned (their flows' interrupt
    /// flags should already be set).  Idempotent.
    pub fn shutdown(&self) {
        self.inner.state.lock().expect("no poisoned locks").shutdown = true;
        self.inner.cv.notify_all();
        let handles = std::mem::take(&mut *self.inner.handles.lock().expect("no poisoned locks"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn register(&self, flow: Arc<FlowShared>) {
        self.inner
            .state
            .lock()
            .expect("no poisoned locks")
            .flows
            .push(flow);
    }

    fn deregister(&self, flow: &Arc<FlowShared>) {
        let mut state = self.inner.state.lock().expect("no poisoned locks");
        state.flows.retain(|f| !Arc::ptr_eq(f, flow));
        state.cursor = 0;
    }

    /// Wakes workers after a flow enqueued tasks.  Takes the state lock so a
    /// worker that just scanned empty queues and is about to wait cannot miss
    /// the notification.
    fn notify(&self) {
        drop(self.inner.state.lock().expect("no poisoned locks"));
        self.inner.cv.notify_all();
    }

    fn worker_loop(inner: &PoolInner) {
        loop {
            let picked = {
                let mut state = inner.state.lock().expect("no poisoned locks");
                loop {
                    if state.shutdown {
                        return;
                    }
                    let n = state.flows.len();
                    let mut found = None;
                    for k in 0..n {
                        let i = (state.cursor + k) % n;
                        if let Some(item) = state.flows[i].try_pop() {
                            state.cursor = (i + 1) % n;
                            found = Some((Arc::clone(&state.flows[i]), item));
                            break;
                        }
                    }
                    if let Some(found) = found {
                        break found;
                    }
                    state = inner.cv.wait(state).expect("no poisoned locks");
                }
            };
            let (flow, (job, index)) = picked;
            flow.run_task(&job, index);
        }
    }
}

/// Runs the full flow on the pipelined graph executor.
///
/// `pool` switches task execution from flow-owned scoped threads to the
/// given shared pool; `cancel` installs an external kill switch (observed by
/// every in-flight solve's interrupt hook and surfaced as
/// [`DetectError::Cancelled`]).
pub(crate) fn run_pipelined(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    miter: &mut MiterSession,
    scheduler: &PropertyScheduler,
    pool: Option<&SharedSolvePool>,
    cancel: Option<&Arc<AtomicBool>>,
    emit: &mut dyn FnMut(&FlowEvent),
) -> Result<(DetectionReport, PipelineStats), DetectError> {
    let workers = scheduler.effective_workers();
    let pipeline = scheduler.pipelines_levels();
    // With a single effective worker no two tasks can ever solve
    // concurrently, so the coordinator solves everything itself: no worker
    // threads, no condvar hand-offs, and generations at the merge frontier
    // skip their snapshot clone (tasks fork straight off the unmutated
    // master instead — identical content, identical reports).  A shared pool
    // disables the inline fast path: its whole point is that *other* threads
    // solve the tasks, whatever this flow's nominal worker count.
    let inline = pool.is_none() && workers.get() == 1;
    let mut graph = FlowGraph::plan(design, config)?;
    // htd-lint: allow(determinism): feeds DetectionReport.total_duration only, which render_normalized() zeroes
    let start = Instant::now();
    let d = design.design();
    let names = |sigs: &[SignalId]| -> Vec<String> {
        sigs.iter().map(|&s| d.signal_name(s).to_string()).collect()
    };

    // One kill switch per run: the caller's external flag when given (so a
    // service can interrupt in-flight solves from another thread), a private
    // one otherwise.  Wind-down sets it either way, which makes a cancel flag
    // one-shot — it is consumed by the run it was installed for.
    let shared = Arc::new(FlowShared::new(
        cancel.map_or_else(|| Arc::new(AtomicBool::new(false)), Arc::clone),
    ));
    if let Some(pool) = pool {
        pool.register(Arc::clone(&shared));
    }

    let result = std::thread::scope(|scope| {
        if !inline && pool.is_none() {
            // Flow-owned workers park on the flow's condvar until tasks (or
            // shutdown) arrive.  Pool mode skips these: the pool's global
            // workers poll the registered flows instead.
            for _ in 0..workers.get() {
                let shared = &shared;
                scope.spawn(move || loop {
                    let item = {
                        let mut w = shared.work.lock().expect("no poisoned locks");
                        loop {
                            if let Some(item) = w.queue.pop_front() {
                                break Some(item);
                            }
                            if w.shutdown {
                                break None;
                            }
                            w = shared.work_cv.wait(w).expect("no poisoned locks");
                        }
                    };
                    let Some((job, index)) = item else { return };
                    shared.run_task(&job, index);
                });
            }
        }

        let dispatch = |job: &Arc<GenJob>, stats: &mut PipelineStats| {
            let n = job.prepared.num_tasks();
            stats.generations_prepared += 1;
            stats.tasks_dispatched += n as u64;
            if job.prepared.has_snapshot() {
                stats.snapshot_forks += 1;
                stats.snapshot_bytes_cloned += job.prepared.snapshot_bytes();
            }
            if n == 0 || inline {
                // Inline schedules solve at the merge frontier; nothing is
                // handed to the (empty) pool.
                return;
            }
            shared.outstanding.fetch_add(n, Ordering::SeqCst);
            shared
                .active_gens
                .lock()
                .expect("no poisoned locks")
                .push(Arc::clone(job));
            let mut w = shared.work.lock().expect("no poisoned locks");
            for i in 0..n {
                w.queue.push_back((Arc::clone(job), i));
            }
            drop(w);
            match pool {
                Some(pool) => pool.notify(),
                None => shared.work_cv.notify_all(),
            }
        };

        // External cancellation is only an *error* when the caller installed
        // a flag — the flow's own wind-down reuses the same switch to stop
        // speculative stragglers after a verdict.
        let externally_cancelled = || cancel.is_some() && shared.cancelled.load(Ordering::SeqCst);

        let mut coordinate = || -> Result<(DetectionReport, PipelineStats), DetectError> {
            let mut stats = PipelineStats::default();
            let mut fanout_levels: Vec<Vec<String>> = Vec::new();
            let mut properties: Vec<PropertyTrace> = Vec::new();
            let mut spurious_total = 0usize;
            let mut solver_totals = SolverStats::default();
            let mut level_jobs: Vec<Arc<GenJob>> = Vec::new();

            let report = |outcome: DetectionOutcome,
                          fanout_levels: Vec<Vec<String>>,
                          properties: Vec<PropertyTrace>,
                          spurious_resolved: usize,
                          solver_totals: SolverStats| DetectionReport {
                design: d.name().to_string(),
                outcome,
                fanout_levels,
                properties,
                spurious_resolved,
                solver_totals,
                total_duration: start.elapsed(),
            };

            // Set when speculative planning hit the iteration limit: the
            // merge loop surfaces the same error deterministically when it
            // reaches that level.
            let mut planning_blocked = false;
            let mut level_idx = 0usize;
            while graph.ensure_level(design, level_idx)? {
                if externally_cancelled() {
                    return Err(DetectError::Cancelled);
                }
                // Prepare (at least) this level; speculative prepares beyond
                // it happen while waiting below.
                while level_jobs.len() <= level_idx {
                    let next = level_jobs.len();
                    let node = graph.level_node(next);
                    let (node_id, property) = (
                        node.id,
                        node.property.clone().expect("level nodes carry properties"),
                    );
                    let job = Arc::new(GenJob::new(
                        node_id,
                        miter.prepare_level(design, &property, !inline)?,
                    ));
                    dispatch(&job, &mut stats);
                    level_jobs.push(job);
                }

                let node = graph.level_node(level_idx).clone();
                fanout_levels.push(names(&node.signals));
                emit(&FlowEvent::LevelStarted {
                    level: level_idx + 1,
                    signals: names(&node.signals),
                    node: node.id,
                    deps: node.deps.clone(),
                    dep_signals: names(&node.dep_signals),
                });

                let mut current_property =
                    node.property.clone().expect("level nodes carry properties");
                let proves = names(&current_property.prove_equal);
                let mut current_job = Arc::clone(&level_jobs[level_idx]);
                let mut resolved = 0usize;

                let (trace, failed) = loop {
                    if inline {
                        // Solve the frontier generation right here: tasks
                        // fork off the master when the generation skipped
                        // its snapshot, off the snapshot when an earlier
                        // force-prepare froze one.  The shared flag doubles
                        // as the interrupt hook, so an external cancel kills
                        // even a single-worker schedule mid-search.
                        for i in 0..current_job.prepared.num_tasks() {
                            if externally_cancelled() {
                                return Err(DetectError::Cancelled);
                            }
                            let mut slot =
                                current_job.results[i].lock().expect("no poisoned locks");
                            if slot.is_some() {
                                continue;
                            }
                            let outcome = if current_job.prepared.has_snapshot() {
                                current_job.prepared.solve_task(
                                    i,
                                    &current_job.doomed,
                                    &shared.cancelled,
                                )
                            } else {
                                miter.solve_task_inline(
                                    &current_job.prepared,
                                    i,
                                    &current_job.doomed,
                                    &shared.cancelled,
                                )
                            };
                            *slot = Some(outcome);
                            current_job.remaining.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    // Wait for the generation, preparing further levels
                    // whenever the pool would otherwise run dry.
                    loop {
                        if externally_cancelled() {
                            return Err(DetectError::Cancelled);
                        }
                        if current_job.merge_ready() {
                            break;
                        }
                        if pipeline
                            && !planning_blocked
                            && !graph.levels_complete()
                            && shared.outstanding.load(Ordering::SeqCst) < workers.get()
                            // A failing task on the merge frontier means the
                            // flow is about to stop (or re-enqueue this very
                            // level): encoding the next level now would only
                            // delay that verdict.
                            && current_job.doomed.load(Ordering::SeqCst) == usize::MAX
                        {
                            let next = level_jobs.len();
                            match graph.ensure_level(design, next) {
                                Ok(true) => {
                                    // The merge frontier still has unfinished
                                    // tasks (the loop condition), so this
                                    // prepare encodes a new level while an
                                    // earlier one is solving.
                                    stats.pipelined_prepares += 1;
                                    let node = graph.level_node(next);
                                    let (node_id, property) = (
                                        node.id,
                                        node.property
                                            .clone()
                                            .expect("level nodes carry properties"),
                                    );
                                    let job = Arc::new(GenJob::new(
                                        node_id,
                                        miter.prepare_level(design, &property, true)?,
                                    ));
                                    dispatch(&job, &mut stats);
                                    level_jobs.push(job);
                                    continue;
                                }
                                Ok(false) => continue,
                                Err(_) => {
                                    planning_blocked = true;
                                    continue;
                                }
                            }
                        }
                        let completed = shared.progress.lock().expect("no poisoned locks");
                        if current_job.merge_ready() {
                            break;
                        }
                        drop(
                            shared
                                .progress_cv
                                .wait(completed)
                                .expect("no poisoned locks"),
                        );
                    }

                    if externally_cancelled() {
                        // Don't merge: the kill switch turns in-flight tasks
                        // into skips, which the deterministic merge would
                        // misread as lost results.
                        return Err(DetectError::Cancelled);
                    }
                    let outcomes = current_job.take_outcomes();
                    let check = miter.merge_level(design, &current_job.prepared, outcomes)?;
                    // The generation is decided: free its snapshot clone
                    // (in-flight stragglers keep their own forks alive) and
                    // stop scanning it in the workers' overlap check.
                    current_job.prepared.release_snapshot();
                    shared
                        .active_gens
                        .lock()
                        .expect("no poisoned locks")
                        .retain(|g| g.node != current_job.node);
                    solver_totals.accumulate(&check.stats.solver);
                    match &check.outcome {
                        CheckOutcome::Holds => {
                            emit(&FlowEvent::PropertyProved {
                                property: check.property.clone(),
                                duration: check.stats.duration,
                                spurious_resolved: resolved,
                                solver: check.stats.solver,
                                node: current_job.node,
                            });
                            break (
                                PropertyTrace {
                                    name: check.property.clone(),
                                    proves: proves.clone(),
                                    report: check,
                                    spurious_resolved: resolved,
                                },
                                None,
                            );
                        }
                        CheckOutcome::Fails(cex) => {
                            let diag: Diagnosis = diagnose(
                                design,
                                cex,
                                &current_property.assume_equal,
                                &config.benign_state,
                            );
                            let spurious = diag.is_spurious();
                            emit(&FlowEvent::CounterexampleFound {
                                property: check.property.clone(),
                                diffs: cex.diff_names().iter().map(ToString::to_string).collect(),
                                spurious,
                                solver: check.stats.solver,
                                node: current_job.node,
                            });
                            if !spurious {
                                let cex = (**cex).clone();
                                break (
                                    PropertyTrace {
                                        name: check.property.clone(),
                                        proves: proves.clone(),
                                        report: check,
                                        spurious_resolved: resolved,
                                    },
                                    Some(cex),
                                );
                            }
                            if resolved >= config.max_resolution_iterations {
                                return Err(DetectError::ResolutionLimit {
                                    property: current_property.name.clone(),
                                    limit: config.max_resolution_iterations,
                                });
                            }
                            resolved += 1;
                            // Assume the benign fanin of the whole level
                            // equal, not only the registers this model
                            // happened to flip: the engineer has
                            // disqualified all of it, and waiving it
                            // register-by-register would just replay the
                            // same divergence next round.
                            let waived = benign_fanin_of(
                                design,
                                &current_property.prove_equal,
                                &current_property.assume_equal,
                                &config.benign_state,
                            );
                            current_property = current_property.with_extra_assumptions(&waived);
                            // Determinism: a resolution round must always be
                            // encoded against the fully prepared master (or
                            // the deterministic point where planning errors),
                            // so its encoding cannot depend on how far
                            // speculation happened to get.
                            while !planning_blocked {
                                let next = level_jobs.len();
                                match graph.ensure_level(design, next) {
                                    Ok(true) => {
                                        let node = graph.level_node(next);
                                        let (node_id, property) = (
                                            node.id,
                                            node.property
                                                .clone()
                                                .expect("level nodes carry properties"),
                                        );
                                        let job = Arc::new(GenJob::new(
                                            node_id,
                                            miter.prepare_level(design, &property, true)?,
                                        ));
                                        dispatch(&job, &mut stats);
                                        level_jobs.push(job);
                                    }
                                    Ok(false) => break,
                                    Err(_) => planning_blocked = true,
                                }
                            }
                            let res_node =
                                graph.add_resolution(node.id, resolved, current_property.clone());
                            emit(&FlowEvent::ResolutionRound {
                                property: current_property.name.clone(),
                                round: resolved,
                                waived: names(&waived),
                                node: res_node,
                            });
                            if pipeline && shared.outstanding.load(Ordering::SeqCst) > 0 {
                                // The force-prepared levels' forks are still
                                // solving while the master encodes this
                                // round: cross-node encode/solve overlap.
                                stats.pipelined_prepares += 1;
                            }
                            let job = Arc::new(GenJob::new(
                                res_node,
                                miter.prepare_level(design, &current_property, !inline)?,
                            ));
                            dispatch(&job, &mut stats);
                            current_job = job;
                        }
                    }
                };

                spurious_total += trace.spurious_resolved;
                properties.push(trace);
                if let Some(cex) = failed {
                    // Same end-of-flow hygiene as the secure exit: the
                    // pending activation literals retire and the master
                    // compacts, so a reused session starts clean.
                    miter.finish_level_flow();
                    let detected_by = if level_idx == 0 {
                        DetectedBy::InitProperty
                    } else {
                        DetectedBy::FanoutProperty(level_idx)
                    };
                    return Ok((
                        report(
                            DetectionOutcome::PropertyFailed {
                                detected_by,
                                counterexample: Box::new(cex),
                            },
                            fanout_levels,
                            properties,
                            spurious_total,
                            solver_totals,
                        ),
                        stats,
                    ));
                }
                level_idx += 1;
            }

            // End-of-flow hygiene: retire the last generation's activation
            // literals and compact.
            miter.finish_level_flow();
            let (coverage_node, covered, uncovered) = graph.finish_coverage(design)?;
            let uncovered = names(&uncovered);
            emit(&FlowEvent::Coverage {
                covered,
                uncovered: uncovered.clone(),
                node: coverage_node,
            });
            let outcome = if uncovered.is_empty() {
                DetectionOutcome::Secure
            } else {
                DetectionOutcome::UncoveredSignals { signals: uncovered }
            };
            Ok((
                report(
                    outcome,
                    fanout_levels,
                    properties,
                    spurious_total,
                    solver_totals,
                ),
                stats,
            ))
        };

        let result = coordinate().map(|(report, mut stats)| {
            // htd-lint: allow(determinism): telemetry read after every worker joined; no ordering needed
            stats.cross_level_solves = shared.cross_level.load(Ordering::Relaxed);
            (report, stats)
        });
        // Wind the flow down: cancel speculative work still in flight and
        // wake every flow-owned worker so the scope can join (pool workers
        // simply stop finding this flow's tasks).
        shared.cancelled.store(true, Ordering::SeqCst);
        {
            let mut w = shared.work.lock().expect("no poisoned locks");
            w.queue.clear();
            w.shutdown = true;
        }
        shared.work_cv.notify_all();
        result
    });
    if let Some(pool) = pool {
        // In-flight pool tasks of this flow (if any) run to completion on
        // their own Arcs; deregistering only stops workers from picking up
        // more.
        pool.deregister(&shared);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_defaults_to_one_pipelined_worker() {
        assert_eq!(PropertyScheduler::default().jobs(), NonZeroUsize::MIN);
        assert!(PropertyScheduler::default().pipelines_levels());
        assert!(PropertyScheduler::available_parallelism().get() >= 1);
    }

    #[test]
    fn scheduler_carries_its_worker_count_and_pipelining() {
        let jobs = NonZeroUsize::new(7).unwrap();
        let scheduler = PropertyScheduler::new(jobs);
        assert_eq!(scheduler.jobs(), jobs);
        assert!(!scheduler.with_level_pipelining(false).pipelines_levels());
        assert!(scheduler.with_level_pipelining(true).pipelines_levels());
    }
}
