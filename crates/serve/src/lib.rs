//! # htd-serve
//!
//! A multi-tenant detection service for the golden-free Trojan-detection
//! flow: a long-lived daemon that accepts netlists over HTTP/1.1, runs each
//! through the full Algorithm-1 flow, and streams progress back as
//! newline-delimited JSON.  Concurrent jobs share a fixed set of runner
//! threads; each job builds its own detection session, exactly as
//! `htd detect` does, and solves its flow on the runner that picked it up.
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
//! byte-identical terminal report.  Identity is the netlist's content hash,
//! verified byte for byte against the canonical dump, so a hash collision
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
//! | `level_started` | a fanout level began (`level`, `signals`) |
//! | `property_proved` | per-property verdict with solver counters summed over its resolution rounds |
//! | `counterexample` | a (possibly spurious) divergence with diff signals |
//! | `resolution_round` | a spurious counterexample being discharged |
//! | `coverage` | the final signal-coverage check |
//! | `stats` | terminal: wall seconds, queue depth, aggregate solver/session counters |
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
//! netlist.  Every job runs on a session of its own, built the way
//! `htd detect` builds one, and reports are deterministic up to wall-clock
//! time for any interleaving of concurrent jobs, so the diff holds whether
//! the job ran alone, beside other tenants or as a coalesced follower.
//!
//! Disconnecting the submitting client cancels its job: the server watches
//! the connection and flips the job's cancel flag, which interrupts the
//! flow's solve in flight ([`DetectError::Cancelled`](htd_core::DetectError)).
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
//! One JSON document: the admission bound and `workers` (the runner-thread
//! setting), current queue
//! depth and running count, whether the daemon is `draining`,
//! completed/cancelled/failed/`budget_exhausted`/`coalesced` totals,
//! aggregate `solver_totals` / `session_totals` under their schema-v4
//! benchmark field names, and a bounded ring of recent per-job records (id,
//! design, state, wall seconds).  Job states: `queued`, `running`,
//! `completed`, `cancelled`, `failed`, `budget_exhausted`.  A `cache`
//! object whose `hits`, `misses` and `bytes` read 0 stays for the
//! benchmark, which reads those keys; the daemon caches nothing (see
//! [`SnapshotCache`]).
//!
//! # Configuration
//!
//! The daemon takes no setting from the environment.  [`ServeOptions`] is
//! its whole configuration: `htd serve` starts from
//! [`ServeOptions::default`] (the `DEFAULT_*` constants below) and applies
//! its flags, and `htd submit` connects to [`DEFAULT_ADDR`] unless given
//! `--addr`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod compat;
pub mod fault;
pub mod http;
pub mod json;
pub mod queue;
pub mod server;

use std::time::Duration;

pub use client::{ClientError, RetryPolicy, Submission, SubmitOptions};
pub use compat::{FrozenMaster, SnapshotCache, DEFAULT_CACHE_BYTES};
pub use fault::FaultSpec;
pub use json::Json;
pub use queue::FairQueue;
pub use server::{DrainHandle, ServeOptions, Server};

/// The default listen address ([`ServeOptions::addr`]).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// The default admission bound ([`ServeOptions::max_jobs`]).
pub const DEFAULT_MAX_JOBS: usize = 8;

/// The default drain deadline ([`ServeOptions::drain_deadline`]).
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The default header read timeout ([`ServeOptions::header_timeout`]).
pub const DEFAULT_HEADER_TIMEOUT: Duration = Duration::from_secs(5);
