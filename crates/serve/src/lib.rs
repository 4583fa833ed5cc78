//! # htd-serve
//!
//! A multi-tenant detection service for the golden-free Trojan-detection
//! flow: a long-lived daemon that accepts netlists over HTTP/1.1, runs each
//! through the full Algorithm-1 flow, and streams progress back as
//! newline-delimited JSON.  Many concurrent jobs multiplex over **one**
//! shared [`SharedSolvePool`](htd_core::SharedSolvePool), and returning
//! designs skip the bit-blast entirely through a content-hash-keyed cache of
//! frozen master encodings, collision-checked against the canonical netlist
//! dump so one tenant can never be served another's design (see [`cache`]).
//!
//! Everything is dependency-free: the HTTP layer is hand-rolled over
//! [`std::net::TcpListener`] ([`http`]), the JSON layer over a small value
//! type ([`json`]).
//!
//! # Wire protocol
//!
//! All endpoints speak HTTP/1.1 with `Connection: close`; there is no
//! keep-alive and no chunked encoding.  Request bodies are framed by
//! `Content-Length` only: a request with a `Transfer-Encoding` header is
//! refused with `411 length_required` before any body byte is read.  A
//! request carrying `Expect: 100-continue` gets the interim `HTTP/1.1 100
//! Continue` once its headers pass those checks, so stock clients send the
//! body at once; an oversized declaration gets its `413` instead.
//! Non-streaming responses carry a `Content-Length`-framed JSON body;
//! failures use one structured schema:
//!
//! ```text
//! {"error":{"code":"<machine-readable>","message":"<human-readable>"}}
//! ```
//!
//! with codes `bad_request` (400), `oversized` (413), `length_required`
//! (411), `not_found` (404),
//! `method_not_allowed` (405), `timeout` (408, the request headers did not
//! arrive within the header read timeout — the slow-loris guard),
//! `overloaded` (503) and `draining` (503, the daemon is shutting down and
//! admits no new work).
//!
//! ## `POST /jobs` — submit a detection job
//!
//! Request body: `{"netlist":"<canonical netlist text>"}` (the textual
//! format of [`htd_rtl::netlist`]; produce it with `htd export`), plus an
//! optional per-job resource budget:
//!
//! ```text
//! {"netlist":"...","budget":{"deadline_ms":60000,"conflict_ceiling":1000000}}
//! ```
//!
//! Both budget fields are optional non-negative integers.  The effective
//! budget is the *tighter* of the request's and the server's configured cap
//! (a client cannot ask for more than the operator allows).  Conflict
//! ceilings are enforced by the builtin solver; deadlines are enforced for
//! every backend.
//!
//! The design is parsed and validated during admission, so parse errors
//! answer with `400` before a job id is allocated; when `queued + running`
//! jobs would exceed the admission bound the answer is `503 overloaded`,
//! and while the daemon drains every submission answers `503 draining`.
//!
//! **Tenancy and fair share.**  Submissions may carry an `X-HTD-Tenant`
//! header; jobs queue per tenant (falling back to the peer IP address) and
//! runners pick them deficit-round-robin weighted by netlist size
//! ([`queue`]), so one flooding tenant cannot starve the others.
//!
//! **Coalescing.**  A submission whose netlist is byte-identical to one
//! already queued or running *attaches* to that job instead of running it
//! again: the `accepted` frame carries `coalesced_into` naming the leader
//! job, all subsequent frames are fanned out to every attached subscriber
//! (tagged with the leader's job id), and each subscriber receives the
//! byte-identical terminal report.  Identity uses the same content-hash +
//! byte-verified-dump discipline as the snapshot cache, so a hash collision
//! can never attach one tenant to another tenant's design.  Detaching
//! (disconnect or `DELETE`) affects only that subscriber; the underlying
//! run is cancelled once no subscribers remain.
//!
//! Accepted submissions answer `200` with `Content-Type:
//! application/x-ndjson` and an EOF-terminated stream of one JSON frame per
//! line, every frame tagged with `"event"` and `"job"`:
//!
//! | frame | meaning |
//! |---|---|
//! | `accepted` | job id, design name, queue depth at admission |
//! | `level_started` | a fanout level began (signals, flow-graph node, deps) |
//! | `property_proved` | per-property verdict with solver counters |
//! | `counterexample` | a (possibly spurious) divergence with diff signals |
//! | `resolution_round` | a spurious counterexample being discharged |
//! | `coverage` | the final signal-coverage check |
//! | `stats` | terminal: cache disposition (`"hit"`/`"miss"`/`"off"`), wall seconds, aggregate solver/session counters |
//! | `report` | terminal: one-line `summary` plus the full report `text` |
//! | `error` | terminal: the job failed or was cancelled (`code`, `message`) |
//! | `budget_exhausted` | terminal: the job's solve budget ran out (`reason` is `"deadline"` or `"conflicts"`, plus `conflicts` charged); the event log streamed so far is valid partial progress |
//!
//! The `error` frame's `code` is `cancelled` for client-driven
//! cancellation, `rejected`/`flow_error` for flow failures, and `internal`
//! when the flow panicked — panic isolation fails *that job* and the
//! runner pool keeps serving.
//!
//! The `report.text` field is the
//! [`DetectionReport::normalized`](htd_core::DetectionReport::normalized)
//! [`Display`](std::fmt::Display) rendering plus a trailing newline —
//! **byte-identical** to `htd detect --normalize` run locally on the same
//! netlist.  Reports are deterministic up to wall-clock time for any worker
//! count and any interleaving of concurrent jobs, so the diff holds whether
//! the job hit the snapshot cache, missed it, or ran with caching disabled.
//!
//! Disconnecting the submitting client cancels its job: the server watches
//! the connection and flips the job's cancel flag, which the flow honours
//! between solve tasks ([`DetectError::Cancelled`](htd_core::DetectError)).
//!
//! ## `DELETE /jobs/<id>` — cancel a job
//!
//! Answers `{"job":<id>,"state":"<state>","cancelled":<bool>}`; `cancelled`
//! is `true` when the job was still queued or running.  Unknown ids answer
//! `404 not_found`.  For a coalesced job the id names one subscriber:
//! cancelling it detaches that subscriber only.
//!
//! ## `POST /admin/drain` — graceful shutdown
//!
//! Starts a drain: admission stops (`503 draining`), running and queued
//! jobs are given the drain deadline to finish, stragglers are then
//! cancelled, and finally the daemon exits its accept loop so
//! [`Server::join`] returns.  Answers `{"draining":true,"active":<n>}`.
//! The CLI wires `SIGTERM` to the same path.
//!
//! ## `GET /stats` — service observability
//!
//! One JSON document: the admission bound and pool width, current queue
//! depth and running count, whether the daemon is `draining`,
//! completed/cancelled/failed/`budget_exhausted`/`coalesced` totals,
//! snapshot cache counters (`entries`, `bytes`, `capacity_bytes`, `hits`,
//! `misses`, `evicted_entries`, `evicted_bytes`), aggregate
//! `solver_totals` / `session_totals` under their schema-v4 benchmark
//! field names, and a bounded ring of recent per-job records (id, design,
//! state, wall seconds, cache disposition — `"coalesced"` for attached
//! subscribers).  Job states: `queued`, `running`, `completed`,
//! `cancelled`, `failed`, `budget_exhausted`.
//!
//! # Environment
//!
//! Mirroring the strict `HTD_JOBS` / `HTD_GC_*` style, a malformed value is
//! a loud error, never a silent default:
//!
//! * [`HTD_SERVE_ADDR`](ADDR_ENV_VAR) — listen address
//!   (default `127.0.0.1:7171`); must parse as a socket address.
//! * [`HTD_SERVE_MAX_JOBS`](MAX_JOBS_ENV_VAR) — admission bound
//!   (default 8); must be a positive integer.
//! * [`HTD_SERVE_CACHE_BYTES`](CACHE_BYTES_ENV_VAR) — snapshot-cache byte
//!   budget (default 256 MiB); a non-negative integer, `0` disables caching.
//! * [`HTD_SERVE_BUDGET_DEADLINE_MS`](BUDGET_DEADLINE_ENV_VAR) — per-job
//!   wall-clock budget cap in milliseconds (default unlimited); a positive
//!   integer.
//! * [`HTD_SERVE_BUDGET_CONFLICTS`](BUDGET_CONFLICTS_ENV_VAR) — per-job
//!   solver-conflict budget cap (default unlimited); a positive integer.
//! * [`HTD_SERVE_DRAIN_DEADLINE_MS`](DRAIN_DEADLINE_ENV_VAR) — how long a
//!   drain waits for in-flight jobs before cancelling them (default 30 s);
//!   a positive integer.
//! * [`HTD_SERVE_HEADER_TIMEOUT_MS`](HEADER_TIMEOUT_ENV_VAR) — per-read
//!   timeout while parsing request headers, the slow-loris guard (default
//!   5 s); a positive integer.
//! * [`HTD_SERVE_FAULT`](FAULT_ENV_VAR) — test-only fault injection
//!   ([`fault`]); release builds without the `fault-injection` feature
//!   refuse to start when it is set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod http;
pub mod json;
pub mod queue;
pub mod server;

use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::time::Duration;

pub use cache::{CacheStats, FrozenMaster, SnapshotCache};
pub use client::{ClientError, RetryPolicy, Submission, SubmitOptions};
pub use fault::FaultSpec;
pub use json::Json;
pub use queue::FairQueue;
pub use server::{DrainHandle, ServeOptions, Server};

/// Environment variable naming the daemon's listen address.
pub const ADDR_ENV_VAR: &str = "HTD_SERVE_ADDR";

/// Environment variable bounding admitted (queued plus running) jobs.
pub const MAX_JOBS_ENV_VAR: &str = "HTD_SERVE_MAX_JOBS";

/// Environment variable budgeting the snapshot cache, in bytes.
pub const CACHE_BYTES_ENV_VAR: &str = "HTD_SERVE_CACHE_BYTES";

/// Environment variable capping per-job wall-clock budgets, in milliseconds.
pub const BUDGET_DEADLINE_ENV_VAR: &str = "HTD_SERVE_BUDGET_DEADLINE_MS";

/// Environment variable capping per-job solver-conflict budgets.
pub const BUDGET_CONFLICTS_ENV_VAR: &str = "HTD_SERVE_BUDGET_CONFLICTS";

/// Environment variable setting the drain deadline, in milliseconds.
pub const DRAIN_DEADLINE_ENV_VAR: &str = "HTD_SERVE_DRAIN_DEADLINE_MS";

/// Environment variable setting the header read timeout, in milliseconds.
pub const HEADER_TIMEOUT_ENV_VAR: &str = "HTD_SERVE_HEADER_TIMEOUT_MS";

/// Environment variable naming an injected fault (test builds only; see
/// [`fault`]).
pub const FAULT_ENV_VAR: &str = "HTD_SERVE_FAULT";

/// The listen address used when [`ADDR_ENV_VAR`] is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// The admission bound used when [`MAX_JOBS_ENV_VAR`] is unset.
pub const DEFAULT_MAX_JOBS: usize = 8;

/// The cache budget used when [`CACHE_BYTES_ENV_VAR`] is unset (256 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// The drain deadline used when [`DRAIN_DEADLINE_ENV_VAR`] is unset.
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The header read timeout used when [`HEADER_TIMEOUT_ENV_VAR`] is unset.
pub const DEFAULT_HEADER_TIMEOUT: Duration = Duration::from_secs(5);

/// The default listen address: [`ADDR_ENV_VAR`] or [`DEFAULT_ADDR`].
///
/// # Errors
///
/// When the variable is set but does not parse as a socket address — never
/// a silent fallback, matching the strict `HTD_JOBS` / `HTD_GC_*` style.
pub fn try_default_addr() -> Result<String, String> {
    let Ok(value) = std::env::var(ADDR_ENV_VAR) else {
        return Ok(DEFAULT_ADDR.to_owned());
    };
    let trimmed = value.trim();
    trimmed.parse::<SocketAddr>().map_err(|_| {
        format!(
            "{ADDR_ENV_VAR}={value:?} is not a socket address \
             (e.g. {ADDR_ENV_VAR}=127.0.0.1:7171); unset it for the default of {DEFAULT_ADDR}"
        )
    })?;
    Ok(trimmed.to_owned())
}

/// [`try_default_addr`], panicking on a malformed [`ADDR_ENV_VAR`].
///
/// # Panics
///
/// If the variable is set to anything but a socket address.
#[must_use]
pub fn default_addr() -> String {
    try_default_addr().unwrap_or_else(|message| panic!("{message}"))
}

/// The default admission bound: [`MAX_JOBS_ENV_VAR`] or
/// [`DEFAULT_MAX_JOBS`].
///
/// # Errors
///
/// When the variable is set but is not a positive integer.
pub fn try_default_max_jobs() -> Result<NonZeroUsize, String> {
    let Ok(value) = std::env::var(MAX_JOBS_ENV_VAR) else {
        return Ok(NonZeroUsize::new(DEFAULT_MAX_JOBS).expect("default bound is positive"));
    };
    value.trim().parse::<NonZeroUsize>().map_err(|_| {
        format!(
            "{MAX_JOBS_ENV_VAR}={value:?} is not a positive integer job bound \
             (e.g. {MAX_JOBS_ENV_VAR}=8); unset it for the default of {DEFAULT_MAX_JOBS}"
        )
    })
}

/// [`try_default_max_jobs`], panicking on a malformed [`MAX_JOBS_ENV_VAR`].
///
/// # Panics
///
/// If the variable is set to anything but a positive integer.
#[must_use]
pub fn default_max_jobs() -> NonZeroUsize {
    try_default_max_jobs().unwrap_or_else(|message| panic!("{message}"))
}

/// The default cache budget: [`CACHE_BYTES_ENV_VAR`] or
/// [`DEFAULT_CACHE_BYTES`].  Zero disables caching.
///
/// # Errors
///
/// When the variable is set but is not a non-negative integer.
pub fn try_default_cache_bytes() -> Result<u64, String> {
    let Ok(value) = std::env::var(CACHE_BYTES_ENV_VAR) else {
        return Ok(DEFAULT_CACHE_BYTES);
    };
    value.trim().parse::<u64>().map_err(|_| {
        format!(
            "{CACHE_BYTES_ENV_VAR}={value:?} is not a byte count \
             (e.g. {CACHE_BYTES_ENV_VAR}=268435456, or 0 to disable caching); \
             unset it for the default of {DEFAULT_CACHE_BYTES}"
        )
    })
}

/// [`try_default_cache_bytes`], panicking on a malformed
/// [`CACHE_BYTES_ENV_VAR`].
///
/// # Panics
///
/// If the variable is set to anything but a non-negative integer.
#[must_use]
pub fn default_cache_bytes() -> u64 {
    try_default_cache_bytes().unwrap_or_else(|message| panic!("{message}"))
}

/// A positive-millisecond environment variable as an optional [`Duration`]
/// (`None` when unset), in the strict `HTD_SERVE_*` style.
fn try_millis_var(var: &str, example: u64) -> Result<Option<Duration>, String> {
    let Ok(value) = std::env::var(var) else {
        return Ok(None);
    };
    match value.trim().parse::<u64>() {
        Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
        _ => Err(format!(
            "{var}={value:?} is not a positive millisecond count (e.g. {var}={example})"
        )),
    }
}

/// The server-wide per-job budget cap from [`BUDGET_DEADLINE_ENV_VAR`] and
/// [`BUDGET_CONFLICTS_ENV_VAR`]; unlimited when both are unset.
///
/// # Errors
///
/// When either variable is set but is not a positive integer.
pub fn try_default_budget() -> Result<htd_core::SolveBudget, String> {
    let deadline = try_millis_var(BUDGET_DEADLINE_ENV_VAR, 60_000)?;
    let conflict_ceiling = match std::env::var(BUDGET_CONFLICTS_ENV_VAR) {
        Err(_) => None,
        Ok(value) => match value.trim().parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return Err(format!(
                    "{BUDGET_CONFLICTS_ENV_VAR}={value:?} is not a positive conflict count \
                     (e.g. {BUDGET_CONFLICTS_ENV_VAR}=1000000); unset it for no conflict cap"
                ));
            }
        },
    };
    Ok(htd_core::SolveBudget {
        deadline,
        conflict_ceiling,
    })
}

/// The drain deadline: [`DRAIN_DEADLINE_ENV_VAR`] or
/// [`DEFAULT_DRAIN_DEADLINE`].
///
/// # Errors
///
/// When the variable is set but is not a positive integer.
pub fn try_default_drain_deadline() -> Result<Duration, String> {
    Ok(try_millis_var(DRAIN_DEADLINE_ENV_VAR, 30_000)?.unwrap_or(DEFAULT_DRAIN_DEADLINE))
}

/// The header read timeout: [`HEADER_TIMEOUT_ENV_VAR`] or
/// [`DEFAULT_HEADER_TIMEOUT`].
///
/// # Errors
///
/// When the variable is set but is not a positive integer.
pub fn try_default_header_timeout() -> Result<Duration, String> {
    Ok(try_millis_var(HEADER_TIMEOUT_ENV_VAR, 5_000)?.unwrap_or(DEFAULT_HEADER_TIMEOUT))
}
