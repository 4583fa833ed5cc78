//! Fault injection for the daemon's robustness tests.
//!
//! The robustness claims of the serve tier — a panicking flow fails one job,
//! a stalled solve is drainable, a vanishing client never wedges a runner —
//! are only claims until a test can *provoke* those situations on demand.
//! [`FaultSpec`] names the provocations; the server consults
//! [`ServeOptions::fault`](crate::ServeOptions::fault) at the matching points
//! of the job lifecycle.
//!
//! Only tests set that field.  No flag or environment variable arms a fault,
//! so a daemon started by `htd serve` never runs one.

use std::time::Duration;

/// One injected fault, armed through
/// [`ServeOptions::fault`](crate::ServeOptions::fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The first job to reach a runner panics mid-flow.  One-shot: later
    /// jobs run normally, so a test can prove the pool survives the panic.
    RunnerPanic,
    /// Every job stalls for the given duration before solving, honouring
    /// cancellation while stalled.  Gives tests a window to submit beside,
    /// cancel, or drain an in-flight job.
    SolveStall(Duration),
    /// The server force-closes the client's socket after the job's `n`-th
    /// streamed frame.  One-shot.
    StreamDisconnect(u64),
    /// Every frame write is preceded by the given sleep, simulating a
    /// slow-reading client.
    SlowWrites(Duration),
}
