//! Inert names of the deleted parallel schedule.
//!
//! The flow runs on one thread, so nothing here selects anything: the
//! worker count and the pipelining switch are ignored, [`SharedSolvePool`]
//! spawns no thread, and a session ignores an attached pool.
//! [`PipelineStats`] still counts the checks and sub-properties the executor
//! ran; its other fields are always 0.
//!
//! These names stay only because the benchmark's in-process harness
//! (`perfbench/trace`) compiles against them, and files under `perfbench/`
//! change only together with the benchmark.  The next benchmark change
//! drops them from the harness (and `--jobs 2` from the detect command line
//! in `perfbench/run.py`); the change after it deletes this module and the
//! ignored `htd detect --jobs` flag.

use std::num::NonZeroUsize;

use crate::session::{DetectionSession, SessionBuilder};

/// Inert: the executor runs on one thread.  Kept only because the
/// benchmark harness (`perfbench/trace`) compiles against it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropertyScheduler;

impl PropertyScheduler {
    /// Inert: ignores `jobs`.
    #[must_use]
    pub fn new(_jobs: NonZeroUsize) -> Self {
        PropertyScheduler
    }

    /// Inert: ignores `enabled`.
    #[must_use]
    pub fn with_level_pipelining(self, _enabled: bool) -> Self {
        self
    }
}

/// Inert: there is one schedule.  Kept only because the benchmark harness
/// (`perfbench/trace`) compiles against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// Inert.
    Scheduled(PropertyScheduler),
}

/// Inert: spawns no thread.  Kept only because the benchmark harness
/// (`perfbench/trace`) compiles against it.
#[derive(Clone, Debug)]
pub struct SharedSolvePool;

impl SharedSolvePool {
    /// Inert: ignores `workers`.
    #[must_use]
    pub fn new(_workers: NonZeroUsize) -> Self {
        SharedSolvePool
    }

    /// Inert: there is nothing to stop.
    pub fn shutdown(&self) {}
}

impl SessionBuilder {
    /// Inert: ignores `engine`.  Kept only because the benchmark harness
    /// (`perfbench/trace`) calls it.
    #[must_use]
    pub fn engine(self, _engine: EngineChoice) -> Self {
        self
    }
}

impl DetectionSession {
    /// Inert: ignores `pool`.  Kept only because the benchmark harness
    /// (`perfbench/trace`) calls it.
    pub fn attach_pool(&mut self, _pool: SharedSolvePool) {}

    /// What the most recent [`run`](Self::run) checked; all zero before the
    /// first run.
    #[must_use]
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline_stats
    }
}

/// Counters of one flow run, read through
/// [`DetectionSession::pipeline_stats`].  Only the first two count
/// anything; the type stays because the benchmark harness
/// (`perfbench/trace`) reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Checks run on the master: levels and resolution rounds.
    pub generations_prepared: u64,
    /// Sub-properties those checks handed to the solver.
    pub tasks_dispatched: u64,
    /// Always 0: no two tasks ever solve at once.
    pub cross_level_solves: u64,
    /// Always 0: no check freezes a snapshot of the master.
    pub snapshot_forks: u64,
    /// Always 0, like `snapshot_forks`.
    pub snapshot_bytes_cloned: u64,
}
