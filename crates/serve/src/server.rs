//! The detection daemon: a fair-share job queue in front of a fixed set of
//! runner threads, and one NDJSON event stream per subscribed client.
//!
//! See the [crate docs](crate) for the wire protocol.  Concurrency layout:
//!
//! * one **accept** thread takes connections and hands each to a detached
//!   connection thread;
//! * a connection thread parses the request under a header read timeout (the
//!   slow-loris guard); for `POST /jobs` it performs admission control,
//!   writes the `accepted` frame and then lingers as a **subscriber
//!   watcher** — a client hangup or `DELETE` detaches that subscriber, and
//!   the underlying run is cancelled once no subscribers remain;
//! * `max(2, workers)` **runner** threads drain a per-tenant
//!   deficit-round-robin queue ([`FairQueue`]).  Each runner builds the
//!   job's [`DetectionSession`](htd_core::DetectionSession) under its
//!   [`SolveBudget`], exactly as `htd detect` builds one, runs the flow on
//!   its own thread, and fans the flow's events out to every subscriber.  Job
//!   execution is wrapped in
//!   [`catch_unwind`](std::panic::catch_unwind): a panicking flow fails
//!   *that job* with an `internal` error frame and the runner keeps
//!   serving.
//!
//! **Coalescing.**  Submissions are keyed by the netlist content hash
//! (byte-verified against the canonical dump): a submission identical to an
//! in-flight job attaches to it as a follower instead of running the flow
//! again, and every subscriber receives the byte-identical frame stream.
//!
//! Every run starts from a fresh session, so its
//! [`DetectionReport::normalized`] rendering is byte-identical to
//! `htd detect --normalize` on the same netlist.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use htd_core::{
    BackendChoice, DetectError, DetectionReport, DetectorConfig, FlowEvent, SessionBuilder,
    SolveBudget,
};
use htd_ipc::SessionStats;
use htd_rtl::{netlist, ValidatedDesign};
use htd_sat::SolverStats;

use crate::compat::cache_stats_json;
use crate::fault::FaultSpec;
use crate::http::{self, Request, RequestError};
use crate::json::Json;
use crate::queue::FairQueue;

/// Upper bound on a submitted request body (the JSON-wrapped netlist).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// How often a subscriber watcher wakes to poll its job's completion flag.
const WATCH_INTERVAL: Duration = Duration::from_millis(200);

/// Upper bound on any single blocking write of a response frame.  A client
/// that stays connected but stops reading fills the TCP send buffer; without
/// a timeout the runner would block in a frame write forever (the subscriber
/// watcher never fires — the peer is still there — and the cancel flag
/// cannot interrupt a blocked write), wedging the runner pool.  A timed-out
/// write is treated exactly like a hangup: detach the subscriber, stop
/// streaming to it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Finished jobs retained for `GET /stats` (a bounded ring; older records
/// are dropped first).
const FINISHED_RING: usize = 64;

/// Deficit granted per tenant per round of the fair queue, in netlist-dump
/// bytes: small designs interleave tightly, a huge design waits a few
/// rounds.
const FAIR_QUANTUM: u64 = 64 * 1024;

/// How often the drain supervisor re-checks for active jobs.
const DRAIN_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Extra time a drain grants cancelled stragglers to settle before the
/// daemon shuts down regardless.
const DRAIN_HARD_GRACE: Duration = Duration::from_secs(5);

/// Locks a mutex, recovering the guarded data if the mutex is poisoned.
///
/// Job execution is already wrapped in `catch_unwind`, so a poisoned lock
/// can only come from a panic inside one of the short state-update critical
/// sections below — none of which leave the shared maps half-written in a
/// way later requests could misread.  Recovering keeps the daemon serving
/// its other tenants instead of cascading one panic into every request
/// thread that touches the same lock.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Daemon configuration.  `htd serve` starts from [`Default`] and applies
/// its flags; no field is read from the environment.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The listen address, e.g. `127.0.0.1:7171` (port 0 picks a free one).
    pub addr: String,
    /// Admission bound: queued plus running jobs may not exceed this.
    pub max_jobs: NonZeroUsize,
    /// Job runner threads; the daemon starts at least 2.  Each runner
    /// solves one job's flow at a time, on its own thread.
    pub workers: NonZeroUsize,
    /// The detection configuration applied to every served job.
    pub config: DetectorConfig,
    /// The SAT backend every served job solves on.  Defaults to the builtin
    /// solver; [`Server::start`] refuses a choice that cannot be brought up.
    pub backend: BackendChoice,
    /// Server-wide cap on per-job solve budgets: a request's own budget is
    /// clamped to the tighter of the two.  Unlimited by default.
    pub budget: SolveBudget,
    /// How long a drain waits for in-flight jobs before cancelling them.
    pub drain_deadline: Duration,
    /// Per-read timeout while parsing request headers (slow-loris guard).
    pub header_timeout: Duration,
    /// Injected fault for robustness tests; `None` in production, where no
    /// flag sets it.
    pub fault: Option<FaultSpec>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: crate::DEFAULT_ADDR.to_owned(),
            // htd-lint: allow(serve-panic-hygiene): evaluates a positive compile-time constant, before any request exists
            max_jobs: NonZeroUsize::new(crate::DEFAULT_MAX_JOBS).expect("positive default"),
            workers: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
            config: DetectorConfig::default(),
            backend: BackendChoice::Builtin,
            budget: SolveBudget::default(),
            drain_deadline: crate::DEFAULT_DRAIN_DEADLINE,
            header_timeout: crate::DEFAULT_HEADER_TIMEOUT,
            fault: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Completed,
    Cancelled,
    Failed,
    Exhausted,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Exhausted => "budget_exhausted",
        }
    }

    fn is_active(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

#[derive(Debug)]
struct JobRecord {
    id: u64,
    design: String,
    state: JobState,
    /// For an active record this is the subscriber's *detach* flag: set by
    /// `DELETE /jobs/<id>`, a client hangup, or shutdown.  The underlying
    /// run's cancel flag lives on [`Subscribers`] and flips once every
    /// subscriber has detached.
    cancel: Arc<AtomicBool>,
    wall_secs: Option<f64>,
}

#[derive(Debug, Default)]
struct JobTable {
    next_id: u64,
    records: Vec<JobRecord>,
}

/// One client attached to a job's frame stream.
struct Sink {
    /// The subscriber's own job id (a follower's differs from the leader's).
    job: u64,
    stream: TcpStream,
    detach: Arc<AtomicBool>,
}

/// The fan-out state shared by a job's runner, its subscriber watchers and
/// late-attaching followers.
struct Subscribers {
    /// Cancels the underlying detection run; latched once no subscribers
    /// remain (or on drain-deadline / shutdown).
    cancel: Arc<AtomicBool>,
    sinks: Mutex<Vec<Sink>>,
    /// Streamed frame counter, for the [`FaultSpec::StreamDisconnect`] fault.
    frames: AtomicU64,
}

/// An in-flight (queued or running) job, keyed by netlist content hash so
/// identical submissions coalesce onto it.
struct InflightEntry {
    /// The canonical dump the key was hashed from; compared on a hash hit
    /// so a collision can never attach one tenant to another's design.
    dump: String,
    leader: u64,
    subs: Arc<Subscribers>,
    done: Arc<AtomicBool>,
}

struct QueuedJob {
    leader: u64,
    design: ValidatedDesign,
    key: u64,
    budget: SolveBudget,
    subs: Arc<Subscribers>,
    done: Arc<AtomicBool>,
}

#[derive(Debug, Default)]
struct Totals {
    completed: u64,
    cancelled: u64,
    failed: u64,
    budget_exhausted: u64,
    coalesced: u64,
    solver: SolverStats,
    session: SessionStats,
}

struct ServerState {
    options: ServeOptions,
    addr: SocketAddr,
    queue: Mutex<FairQueue<QueuedJob>>,
    queue_cv: Condvar,
    jobs: Mutex<JobTable>,
    /// Lock-order note: `inflight` is always taken *before* `jobs`,
    /// `queue` or a job's sink list, never after.
    inflight: Mutex<HashMap<u64, InflightEntry>>,
    totals: Mutex<Totals>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// One-shot faults ([`FaultSpec::RunnerPanic`],
    /// [`FaultSpec::StreamDisconnect`]) fire once.
    fault_armed: AtomicBool,
}

/// A running daemon: an accept thread and the runner threads.  Dropping (or
/// [`stop`](Self::stop)-ping) it shuts all of them down;
/// [`join`](Self::join) blocks for the daemon's lifetime.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

/// A cloneable handle that starts a graceful drain from outside the server
/// — the CLI's `SIGTERM` monitor holds one.
#[derive(Clone)]
pub struct DrainHandle {
    state: Arc<ServerState>,
}

impl DrainHandle {
    /// Starts the drain (idempotent): admission stops, in-flight jobs get
    /// the drain deadline to finish, stragglers are cancelled, and the
    /// daemon then exits its accept loop so [`Server::join`] returns.
    pub fn drain(&self) {
        begin_drain(&self.state);
    }
}

impl Server {
    /// Binds the listen address and starts the accept and runner threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the address, and rejects a
    /// backend choice that cannot be brought up.
    pub fn start(options: ServeOptions) -> io::Result<Server> {
        options
            .backend
            .instantiate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&*options.addr)?;
        let addr = listener.local_addr()?;
        let runner_count = options.workers.get().max(2);
        let state = Arc::new(ServerState {
            options,
            addr,
            queue: Mutex::new(FairQueue::new(FAIR_QUANTUM)),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            inflight: Mutex::new(HashMap::new()),
            totals: Mutex::new(Totals::default()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            fault_armed: AtomicBool::new(true),
        });
        let runners = (0..runner_count)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || runner_loop(&state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let state = Arc::clone(&accept_state);
                // Detached: a connection thread either answers and exits or
                // lingers as a subscriber watcher until its job finishes.
                std::thread::spawn(move || handle_connection(&state, stream));
            }
        });
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            runners,
        })
    }

    /// The bound listen address (with the real port when `:0` was asked).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of job runner threads: [`ServeOptions::workers`], at
    /// least 2.
    #[must_use]
    pub fn runner_threads(&self) -> usize {
        self.runners.len()
    }

    /// A handle that can start a graceful drain from another thread (e.g.
    /// a signal monitor).
    #[must_use]
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Stops the daemon: cancels active jobs, then wakes and joins every
    /// thread.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Blocks until the accept loop exits — on a drain, or when the process
    /// is killed or another thread stops the listener.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.halt();
    }

    fn halt(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        {
            let jobs = lock_unpoisoned(&self.state.jobs);
            for record in &jobs.records {
                if record.state.is_active() {
                    record.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        {
            // Cancel the runs directly too: the watchers that would relay a
            // detach flag may already be gone.
            let inflight = lock_unpoisoned(&self.state.inflight);
            for entry in inflight.values() {
                entry.subs.cancel.store(true, Ordering::SeqCst);
            }
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.state.queue_cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Starts the drain supervisor (idempotent): waits out active jobs until
/// the drain deadline, cancels stragglers, then stops the daemon.
fn begin_drain(state: &Arc<ServerState>) {
    if state.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        let deadline = Instant::now() + state.options.drain_deadline;
        let mut cancelled = false;
        loop {
            let active = count_active(&state);
            if active == 0 {
                break;
            }
            if !cancelled && Instant::now() >= deadline {
                cancelled = true;
                let jobs = lock_unpoisoned(&state.jobs);
                for record in &jobs.records {
                    if record.state.is_active() {
                        record.cancel.store(true, Ordering::SeqCst);
                    }
                }
                drop(jobs);
                let inflight = lock_unpoisoned(&state.inflight);
                for entry in inflight.values() {
                    entry.subs.cancel.store(true, Ordering::SeqCst);
                }
            }
            if cancelled && Instant::now() >= deadline + DRAIN_HARD_GRACE {
                break;
            }
            std::thread::sleep(DRAIN_POLL_INTERVAL);
        }
        state.shutdown.store(true, Ordering::SeqCst);
        state.queue_cv.notify_all();
        // Wake the accept loop so `Server::join` returns.
        let _ = TcpStream::connect(state.addr);
    });
}

fn count_active(state: &Arc<ServerState>) -> usize {
    lock_unpoisoned(&state.jobs)
        .records
        .iter()
        .filter(|r| r.state.is_active())
        .count()
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    // Slow-loris guard: a client may not dribble its request headers out
    // forever.  The timeout applies per read while parsing; it is lifted
    // again before any long-lived streaming below.
    let _ = stream.set_read_timeout(Some(state.options.header_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let request = match http::read_request_with_interim(&mut reader, &mut stream, MAX_BODY_BYTES) {
        Ok(request) => request,
        Err(RequestError::TooLarge { declared, limit }) => {
            let _ = http::write_error(
                &mut stream,
                413,
                "Payload Too Large",
                "oversized",
                &format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
            );
            return;
        }
        Err(RequestError::Malformed(message)) => {
            let _ = http::write_error(&mut stream, 400, "Bad Request", "bad_request", &message);
            return;
        }
        Err(RequestError::LengthRequired(message)) => {
            let _ = http::write_error(
                &mut stream,
                411,
                "Length Required",
                "length_required",
                &message,
            );
            return;
        }
        Err(RequestError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            let _ = http::write_error(
                &mut stream,
                408,
                "Request Timeout",
                "timeout",
                &format!(
                    "request not received within the {}ms header timeout",
                    state.options.header_timeout.as_millis()
                ),
            );
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    let _ = stream.set_read_timeout(None);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => handle_submit(state, stream, &request),
        ("POST", "/admin/drain") => {
            let active = count_active(state);
            begin_drain(state);
            let body = Json::obj([
                ("draining", Json::Bool(true)),
                ("active", Json::UInt(active as u64)),
            ]);
            let _ = http::write_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/stats") => {
            let body = stats_json(state);
            let _ = http::write_json(&mut stream, 200, "OK", &body);
        }
        ("DELETE", path) if path.starts_with("/jobs/") => {
            handle_cancel(state, &mut stream, &path["/jobs/".len()..]);
        }
        ("POST" | "GET" | "DELETE", _) => {
            let _ = http::write_error(
                &mut stream,
                404,
                "Not Found",
                "not_found",
                &format!("no such resource: {}", request.path),
            );
        }
        (method, _) => {
            let _ = http::write_error(
                &mut stream,
                405,
                "Method Not Allowed",
                "method_not_allowed",
                &format!("unsupported method: {method}"),
            );
        }
    }
}

fn handle_submit(state: &Arc<ServerState>, mut stream: TcpStream, request: &Request) {
    if state.draining.load(Ordering::SeqCst) {
        let _ = http::write_error(
            &mut stream,
            503,
            "Service Unavailable",
            "draining",
            "the daemon is draining and admits no new jobs",
        );
        return;
    }
    let (design, request_budget) = match parse_submission(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => {
            let _ = http::write_error(&mut stream, 400, "Bad Request", "bad_request", &message);
            return;
        }
    };
    // A request may only tighten the operator's cap, never exceed it.
    let budget = request_budget.min(state.options.budget);
    // One dump walk yields both the coalescing key and the canonical text
    // verified against on a hash hit.
    let dump = netlist::dump(&design);
    let key = netlist::hash_of_dump(&dump);
    let tenant = request.tenant.clone().unwrap_or_else(|| {
        stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_owned(), |peer| peer.ip().to_string())
    });
    // Bound every frame write so a connected-but-not-reading client cannot
    // wedge anything once the TCP send buffer fills (see WRITE_TIMEOUT).
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    // Coalesce-or-lead under the inflight lock, so two identical
    // submissions racing cannot both become leaders for one key.  The lock
    // is held across the accepted-frame write, which is bounded by
    // WRITE_TIMEOUT.
    let mut inflight = lock_unpoisoned(&state.inflight);
    let attachable = inflight
        .get(&key)
        // A run all of whose subscribers already detached is winding down,
        // and a finished run has set its flag too (a run consumes its cancel
        // flag when it returns); don't attach to either — lead a fresh run
        // instead (the stale entry is replaced below and retired by its
        // runner leader-checked).
        .filter(|entry| entry.dump == dump && !entry.subs.cancel.load(Ordering::SeqCst))
        .map(|entry| {
            (
                entry.leader,
                Arc::clone(&entry.subs),
                Arc::clone(&entry.done),
            )
        });

    if let Some((leader, subs, done)) = attachable {
        let (id, detach) = {
            let mut jobs = lock_unpoisoned(&state.jobs);
            jobs.next_id += 1;
            let id = jobs.next_id;
            let detach = Arc::new(AtomicBool::new(false));
            // Mirror the leader's live state so /stats shows this record
            // running when the underlying flow already started.
            let running = jobs
                .records
                .iter()
                .any(|r| r.id == leader && r.state == JobState::Running);
            jobs.records.push(JobRecord {
                id,
                design: design.design().name().to_string(),
                state: if running {
                    JobState::Running
                } else {
                    JobState::Queued
                },
                cancel: Arc::clone(&detach),
                wall_secs: None,
            });
            (id, detach)
        };
        let accepted = Json::obj([
            ("event", Json::str("accepted")),
            ("job", Json::UInt(id)),
            ("design", Json::str(design.design().name())),
            ("coalesced_into", Json::UInt(leader)),
        ]);
        if http::write_stream_header(&mut stream).is_err()
            || writeln!(stream, "{accepted}").is_err()
            || stream.flush().is_err()
        {
            drop(inflight);
            settle_subscriber(state, id, JobState::Cancelled, None);
            return;
        }
        let sink_stream = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                drop(inflight);
                settle_subscriber(state, id, JobState::Cancelled, None);
                return;
            }
        };
        lock_unpoisoned(&subs.sinks).push(Sink {
            job: id,
            stream: sink_stream,
            detach: Arc::clone(&detach),
        });
        lock_unpoisoned(&state.totals).coalesced += 1;
        drop(inflight);
        watch_subscriber(state, &stream, id, &subs, &detach, &done);
        return;
    }

    // Leader path: admission control, then queue a fresh run.
    let (id, detach, queue_depth) = {
        let mut jobs = lock_unpoisoned(&state.jobs);
        let active = jobs.records.iter().filter(|r| r.state.is_active()).count();
        if active >= state.options.max_jobs.get() {
            drop(jobs);
            drop(inflight);
            let _ = http::write_error(
                &mut stream,
                503,
                "Service Unavailable",
                "overloaded",
                &format!(
                    "{active} jobs active, admission bound is {}; retry later",
                    state.options.max_jobs
                ),
            );
            return;
        }
        jobs.next_id += 1;
        let id = jobs.next_id;
        let detach = Arc::new(AtomicBool::new(false));
        jobs.records.push(JobRecord {
            id,
            design: design.design().name().to_string(),
            state: JobState::Queued,
            cancel: Arc::clone(&detach),
            wall_secs: None,
        });
        let depth = lock_unpoisoned(&state.queue).len();
        (id, detach, depth)
    };

    let accepted = Json::obj([
        ("event", Json::str("accepted")),
        ("job", Json::UInt(id)),
        ("design", Json::str(design.design().name())),
        ("queue_depth", Json::UInt(queue_depth as u64)),
    ]);
    if http::write_stream_header(&mut stream).is_err()
        || writeln!(stream, "{accepted}").is_err()
        || stream.flush().is_err()
    {
        drop(inflight);
        settle_subscriber(state, id, JobState::Cancelled, None);
        return;
    }
    let runner_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            drop(inflight);
            settle_subscriber(state, id, JobState::Cancelled, None);
            return;
        }
    };
    let done = Arc::new(AtomicBool::new(false));
    let subs = Arc::new(Subscribers {
        cancel: Arc::new(AtomicBool::new(false)),
        sinks: Mutex::new(vec![Sink {
            job: id,
            stream: runner_stream,
            detach: Arc::clone(&detach),
        }]),
        frames: AtomicU64::new(0),
    });
    let cost = dump.len() as u64;
    inflight.insert(
        key,
        InflightEntry {
            dump,
            leader: id,
            subs: Arc::clone(&subs),
            done: Arc::clone(&done),
        },
    );
    lock_unpoisoned(&state.queue).push(
        &tenant,
        cost,
        QueuedJob {
            leader: id,
            design,
            key,
            budget,
            subs: Arc::clone(&subs),
            done: Arc::clone(&done),
        },
    );
    drop(inflight);
    state.queue_cv.notify_all();

    watch_subscriber(state, &stream, id, &subs, &detach, &done);
}

/// Lingers on the submitting connection until the job finishes; a read of 0
/// bytes (client hangup), a socket error, or the subscriber's detach flag
/// (set by `DELETE` or shutdown) detaches this subscriber from the fan-out.
fn watch_subscriber(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    id: u64,
    subs: &Subscribers,
    detach: &AtomicBool,
    done: &AtomicBool,
) {
    if stream.set_read_timeout(Some(WATCH_INTERVAL)).is_err() {
        return;
    }
    let mut scratch = [0u8; 64];
    let mut stream = stream;
    loop {
        if done.load(Ordering::SeqCst) {
            return;
        }
        if detach.load(Ordering::SeqCst) {
            detach_subscriber(state, id, subs);
            return;
        }
        match io::Read::read(&mut stream, &mut scratch) {
            Ok(0) => {
                detach.store(true, Ordering::SeqCst);
                detach_subscriber(state, id, subs);
                return;
            }
            // Bytes after the request are not part of the protocol; drain
            // and ignore them.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                detach.store(true, Ordering::SeqCst);
                detach_subscriber(state, id, subs);
                return;
            }
        }
    }
}

/// Removes subscriber `id` from the fan-out and settles its record; the
/// underlying run is cancelled once no subscribers remain.
fn detach_subscriber(state: &Arc<ServerState>, id: u64, subs: &Subscribers) {
    let mut sinks = lock_unpoisoned(&subs.sinks);
    sinks.retain(|sink| sink.job != id);
    let abandoned = sinks.is_empty();
    drop(sinks);
    if abandoned {
        subs.cancel.store(true, Ordering::SeqCst);
    }
    settle_subscriber(state, id, JobState::Cancelled, None);
}

fn parse_submission(body: &str) -> Result<(ValidatedDesign, SolveBudget), String> {
    let document = Json::parse(body).map_err(|e| format!("request body is not valid JSON: {e}"))?;
    let netlist = document
        .get("netlist")
        .and_then(Json::as_str)
        .ok_or_else(|| "request body must be an object with a string `netlist` field".to_owned())?;
    let design = netlist::parse(netlist).map_err(|e| format!("netlist rejected: {e}"))?;
    let budget = match document.get("budget") {
        None => SolveBudget::default(),
        Some(spec) => parse_budget(spec)?,
    };
    Ok((design, budget))
}

fn parse_budget(spec: &Json) -> Result<SolveBudget, String> {
    if !matches!(spec, Json::Obj(_)) {
        return Err("`budget` must be an object".to_owned());
    }
    let mut budget = SolveBudget::default();
    if let Some(ms) = spec.get("deadline_ms") {
        let ms = ms
            .as_u64()
            .ok_or("`budget.deadline_ms` must be a non-negative integer")?;
        budget.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(ceiling) = spec.get("conflict_ceiling") {
        budget.conflict_ceiling = Some(
            ceiling
                .as_u64()
                .ok_or("`budget.conflict_ceiling` must be a non-negative integer")?,
        );
    }
    Ok(budget)
}

fn runner_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&state.queue);
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop() {
                    break job;
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_job(state, job);
    }
}

fn run_job(state: &Arc<ServerState>, job: QueuedJob) {
    let QueuedJob {
        leader,
        design,
        key,
        budget,
        subs,
        done,
    } = job;
    set_running(state, &subs);
    let started = Instant::now();
    let fault = state.options.fault;

    // Panic isolation: whatever happens inside the flow, this job settles
    // with a structured terminal frame and the runner survives to serve the
    // next one.  (Injected fault points hold no locks when they fire.)
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if matches!(fault, Some(FaultSpec::RunnerPanic))
            && state.fault_armed.swap(false, Ordering::SeqCst)
        {
            panic!("injected runner panic (FaultSpec::RunnerPanic)");
        }
        if let Some(FaultSpec::SolveStall(stall)) = fault {
            let stall_until = Instant::now() + stall;
            while Instant::now() < stall_until && !subs.cancel.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        if subs.cancel.load(Ordering::SeqCst) {
            (
                JobState::Cancelled,
                vec![error_frame(
                    leader,
                    "cancelled",
                    "job cancelled before it started",
                )],
            )
        } else {
            serve_detection(state, leader, design, budget, &subs)
        }
    }));
    let (final_state, terminal) = outcome.unwrap_or_else(|payload| {
        (
            JobState::Failed,
            vec![error_frame(
                leader,
                "internal",
                &format!("job runner panicked: {}", panic_message(&payload)),
            )],
        )
    });
    let wall = started.elapsed().as_secs_f64();

    // Retire the inflight entry *before* the terminal frames go out: a new
    // identical submission must lead a fresh run, not attach to a finishing
    // one.  Leader-checked, because a stale abandoned entry may have been
    // replaced by a newer leader for the same key.
    {
        let mut inflight = lock_unpoisoned(&state.inflight);
        if inflight.get(&key).is_some_and(|e| e.leader == leader) {
            inflight.remove(&key);
        }
    }

    let sinks: Vec<Sink> = std::mem::take(&mut *lock_unpoisoned(&subs.sinks));
    for mut sink in sinks {
        if !sink.detach.load(Ordering::SeqCst) {
            for frame in &terminal {
                if writeln!(sink.stream, "{frame}").is_err() {
                    break;
                }
            }
        }
        settle_subscriber(state, sink.job, final_state, Some(wall));
        let _ = sink.stream.flush();
        // Half-close so the client sees EOF immediately; the watcher's
        // clone shares the socket and exits on the done flag.
        let _ = sink.stream.shutdown(Shutdown::Write);
    }
    done.store(true, Ordering::SeqCst);
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_owned())
}

/// Marks every current subscriber's record as running.
fn set_running(state: &Arc<ServerState>, subs: &Subscribers) {
    let ids: Vec<u64> = lock_unpoisoned(&subs.sinks)
        .iter()
        .map(|sink| sink.job)
        .collect();
    let mut jobs = lock_unpoisoned(&state.jobs);
    for record in &mut jobs.records {
        if ids.contains(&record.id) && record.state == JobState::Queued {
            record.state = JobState::Running;
        }
    }
}

/// Writes one frame to every live subscriber, detaching the dead ones; the
/// run is cancelled once no subscribers remain.
fn fan_out(state: &Arc<ServerState>, subs: &Subscribers, frame: &Json) {
    let fault = state.options.fault;
    if let Some(FaultSpec::SlowWrites(delay)) = fault {
        std::thread::sleep(delay);
    }
    let line = format!("{frame}\n");
    let mut sinks = lock_unpoisoned(&subs.sinks);
    let frame_index = subs.frames.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(FaultSpec::StreamDisconnect(after)) = fault {
        if frame_index == after && state.fault_armed.swap(false, Ordering::SeqCst) {
            if let Some(first) = sinks.first() {
                let _ = first.stream.shutdown(Shutdown::Both);
            }
        }
    }
    let mut dead = Vec::new();
    sinks.retain_mut(|sink| {
        if sink.detach.load(Ordering::SeqCst) || sink.stream.write_all(line.as_bytes()).is_err() {
            // The client hung up, was cancelled, or stopped reading
            // (WRITE_TIMEOUT elapsed on a full send buffer): detach it so
            // later frames don't block on it again.
            sink.detach.store(true, Ordering::SeqCst);
            dead.push(sink.job);
            false
        } else {
            true
        }
    });
    let abandoned = sinks.is_empty();
    drop(sinks);
    for id in dead {
        settle_subscriber(state, id, JobState::Cancelled, None);
    }
    if abandoned {
        subs.cancel.store(true, Ordering::SeqCst);
    }
}

/// Builds the job's session the way `htd detect` does, runs the flow under
/// the job's budget, and fans the event frames out to every subscriber.
/// Returns the job's final state and the terminal frames for [`run_job`] to
/// deliver after the inflight entry is retired.
fn serve_detection(
    state: &Arc<ServerState>,
    id: u64,
    design: ValidatedDesign,
    budget: SolveBudget,
    subs: &Subscribers,
) -> (JobState, Vec<Json>) {
    let mut config = state.options.config.clone();
    config.budget = budget;
    // Backend bring-up was validated at Server::start, so a failure here
    // (e.g. a solver library deleted at runtime) fails only this job, with a
    // clean frame.
    let mut session = match SessionBuilder::new(design)
        .config(config)
        .backend(state.options.backend.clone())
        .build()
    {
        Ok(session) => session,
        Err(e) => {
            return (
                JobState::Failed,
                vec![error_frame(id, "rejected", &e.to_string())],
            );
        }
    };
    session.set_cancel_flag(Arc::clone(&subs.cancel));

    let result = session.run_with_observer(&mut |event| {
        fan_out(state, subs, &event_json(id, event));
    });

    match result {
        Ok(report) => {
            let session_stats = session.session_stats();
            {
                let mut totals = lock_unpoisoned(&state.totals);
                // Exhaustive by construction: `SolverStats::accumulate`
                // destructures every counter.
                totals.solver.accumulate(&report.solver_totals);
                accumulate_session(&mut totals.session, &session_stats);
            }
            let depth = lock_unpoisoned(&state.queue).len();
            let stats = Json::obj([
                ("event", Json::str("stats")),
                ("job", Json::UInt(id)),
                ("wall_secs", Json::Num(report.total_duration.as_secs_f64())),
                ("queue_depth", Json::UInt(depth as u64)),
                ("solver", solver_json(&report.solver_totals)),
                ("session", session_json(&session_stats)),
            ]);
            let report = report_frame(id, &report);
            (JobState::Completed, vec![stats, report])
        }
        Err(DetectError::Cancelled) => (
            JobState::Cancelled,
            vec![error_frame(id, "cancelled", "detection run cancelled")],
        ),
        Err(DetectError::BudgetExhausted { reason, conflicts }) => {
            let frame = Json::obj([
                ("event", Json::str("budget_exhausted")),
                ("job", Json::UInt(id)),
                ("reason", Json::str(reason.clone())),
                ("conflicts", Json::UInt(conflicts)),
                (
                    "message",
                    Json::str(format!(
                        "solve budget exhausted ({reason}) after {conflicts} conflicts; \
                         events streamed so far are valid partial progress"
                    )),
                ),
            ]);
            (JobState::Exhausted, vec![frame])
        }
        Err(e) => (
            JobState::Failed,
            vec![error_frame(id, "flow_error", &e.to_string())],
        ),
    }
}

/// The terminal frame: the normalized report rendered exactly like
/// `htd detect --normalize` prints it (the [`std::fmt::Display`] text plus
/// the CLI's trailing newline), so clients can byte-diff served and local
/// runs.
fn report_frame(id: u64, report: &DetectionReport) -> Json {
    use std::fmt::Write as _;
    let normalized = report.normalized();
    let mut text = String::new();
    let _ = writeln!(text, "{normalized}");
    Json::obj([
        ("event", Json::str("report")),
        ("job", Json::UInt(id)),
        ("summary", Json::str(report.summary())),
        ("text", Json::Str(text)),
    ])
}

fn error_frame(id: u64, code: &str, message: &str) -> Json {
    Json::obj([
        ("event", Json::str("error")),
        ("job", Json::UInt(id)),
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
}

fn event_json(id: u64, event: &FlowEvent) -> Json {
    let (kind, mut fields) = match event {
        FlowEvent::LevelStarted { level, signals } => (
            "level_started",
            vec![
                ("level", Json::UInt(*level as u64)),
                ("signals", Json::strings(signals.iter().cloned())),
            ],
        ),
        FlowEvent::PropertyProved {
            property,
            duration,
            spurious_resolved,
            solver,
        } => (
            "property_proved",
            vec![
                ("property", Json::str(property.clone())),
                ("secs", Json::Num(duration.as_secs_f64())),
                ("spurious_resolved", Json::UInt(*spurious_resolved as u64)),
                ("solver", solver_json(solver)),
            ],
        ),
        FlowEvent::CounterexampleFound {
            property,
            diffs,
            spurious,
            solver,
        } => (
            "counterexample",
            vec![
                ("property", Json::str(property.clone())),
                ("spurious", Json::Bool(*spurious)),
                ("diffs", Json::strings(diffs.iter().cloned())),
                ("solver", solver_json(solver)),
            ],
        ),
        FlowEvent::ResolutionRound {
            property,
            round,
            waived,
        } => (
            "resolution_round",
            vec![
                ("property", Json::str(property.clone())),
                ("round", Json::UInt(*round as u64)),
                ("waived", Json::strings(waived.iter().cloned())),
            ],
        ),
        FlowEvent::Coverage { covered, uncovered } => (
            "coverage",
            vec![
                ("covered", Json::UInt(*covered as u64)),
                ("uncovered", Json::strings(uncovered.iter().cloned())),
            ],
        ),
        // FlowEvent is non-exhaustive; unknown variants become opaque frames
        // rather than silent gaps in the stream.
        other => ("unknown", vec![("debug", Json::str(format!("{other:?}")))]),
    };
    let mut frame = vec![("event", Json::str(kind)), ("job", Json::UInt(id))];
    frame.append(&mut fields);
    Json::obj(frame)
}

/// Solver counters under their schema-v4 benchmark field names.
fn solver_json(stats: &SolverStats) -> Json {
    Json::obj([
        ("conflicts", Json::UInt(stats.conflicts)),
        ("propagations", Json::UInt(stats.propagations)),
        ("restarts", Json::UInt(stats.restarts)),
        ("decisions", Json::UInt(stats.decisions)),
        ("gc_runs", Json::UInt(stats.gc_runs)),
        ("clauses_collected", Json::UInt(stats.clauses_collected)),
        ("learnt_lbd_sum", Json::UInt(stats.learnt_lbd_sum)),
        (
            "arena_words_reclaimed",
            Json::UInt(stats.arena_words_reclaimed),
        ),
    ])
}

/// Session counters under their schema-v4 benchmark field names.
fn session_json(stats: &SessionStats) -> Json {
    Json::obj([
        ("properties_checked", Json::UInt(stats.properties_checked)),
        ("nodes_encoded", Json::UInt(stats.nodes_encoded)),
        ("queries", Json::UInt(stats.queries)),
        ("structurally_proved", Json::UInt(stats.structurally_proved)),
        ("epoch_rebinds", Json::UInt(stats.epoch_rebinds)),
    ])
}

/// Settles subscriber `id`'s record exactly once: a record that already
/// reached a terminal state (settled by a watcher on detach, or by the
/// runner at job end — whichever got there first) is left untouched, so the
/// totals are bumped once per record.
fn settle_subscriber(
    state: &Arc<ServerState>,
    id: u64,
    final_state: JobState,
    wall_secs: Option<f64>,
) {
    {
        let mut jobs = lock_unpoisoned(&state.jobs);
        let Some(record) = jobs.records.iter_mut().find(|r| r.id == id) else {
            return;
        };
        if !record.state.is_active() {
            return;
        }
        record.state = final_state;
        record.wall_secs = wall_secs;
        // Bound the finished ring: drop the oldest finished records first.
        let finished = jobs.records.iter().filter(|r| !r.state.is_active()).count();
        if finished > FINISHED_RING {
            let mut to_drop = finished - FINISHED_RING;
            jobs.records.retain(|r| {
                if to_drop > 0 && !r.state.is_active() {
                    to_drop -= 1;
                    false
                } else {
                    true
                }
            });
        }
    }
    let mut totals = lock_unpoisoned(&state.totals);
    match final_state {
        JobState::Completed => totals.completed += 1,
        JobState::Cancelled => totals.cancelled += 1,
        JobState::Exhausted => totals.budget_exhausted += 1,
        _ => totals.failed += 1,
    }
}

fn accumulate_session(into: &mut SessionStats, add: &SessionStats) {
    // Exhaustive destructuring (no `..`): a counter added to SessionStats
    // that is not accumulated here must be a compile error, not a totals
    // row that silently stays zero.
    let SessionStats {
        properties_checked,
        nodes_encoded,
        queries,
        structurally_proved,
        epoch_rebinds,
    } = *add;
    into.properties_checked += properties_checked;
    into.nodes_encoded += nodes_encoded;
    into.queries += queries;
    into.structurally_proved += structurally_proved;
    into.epoch_rebinds += epoch_rebinds;
}

fn stats_json(state: &Arc<ServerState>) -> Json {
    let queue_depth = lock_unpoisoned(&state.queue).len();
    let jobs = lock_unpoisoned(&state.jobs);
    let running = jobs
        .records
        .iter()
        .filter(|r| r.state == JobState::Running)
        .count();
    let job_records: Vec<Json> = jobs
        .records
        .iter()
        .map(|r| {
            Json::obj([
                ("job", Json::UInt(r.id)),
                ("design", Json::str(r.design.clone())),
                ("state", Json::str(r.state.as_str())),
                ("wall_secs", r.wall_secs.map_or(Json::Null, Json::Num)),
            ])
        })
        .collect();
    drop(jobs);
    let totals = lock_unpoisoned(&state.totals);
    Json::obj([
        ("max_jobs", Json::UInt(state.options.max_jobs.get() as u64)),
        ("workers", Json::UInt(state.options.workers.get() as u64)),
        ("queue_depth", Json::UInt(queue_depth as u64)),
        ("running", Json::UInt(running as u64)),
        (
            "draining",
            Json::Bool(state.draining.load(Ordering::SeqCst)),
        ),
        ("completed", Json::UInt(totals.completed)),
        ("cancelled", Json::UInt(totals.cancelled)),
        ("failed", Json::UInt(totals.failed)),
        ("budget_exhausted", Json::UInt(totals.budget_exhausted)),
        ("coalesced", Json::UInt(totals.coalesced)),
        ("cache", cache_stats_json()),
        ("solver_totals", solver_json(&totals.solver)),
        ("session_totals", session_json(&totals.session)),
        ("jobs", Json::Arr(job_records)),
    ])
}

fn handle_cancel(state: &Arc<ServerState>, stream: &mut TcpStream, raw_id: &str) {
    let Ok(id) = raw_id.parse::<u64>() else {
        let _ = http::write_error(
            stream,
            400,
            "Bad Request",
            "bad_request",
            &format!("job id must be an integer, got {raw_id:?}"),
        );
        return;
    };
    let jobs = lock_unpoisoned(&state.jobs);
    let Some(record) = jobs.records.iter().find(|r| r.id == id) else {
        drop(jobs);
        let _ = http::write_error(
            stream,
            404,
            "Not Found",
            "not_found",
            &format!("no such job: {id}"),
        );
        return;
    };
    let was_active = record.state.is_active();
    if was_active {
        record.cancel.store(true, Ordering::SeqCst);
    }
    let body = Json::obj([
        ("job", Json::UInt(id)),
        ("state", Json::str(record.state.as_str())),
        ("cancelled", Json::Bool(was_active)),
    ]);
    drop(jobs);
    let _ = http::write_json(stream, 200, "OK", &body);
}
