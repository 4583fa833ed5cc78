//! Inert names of the deleted snapshot cache.
//!
//! The daemon builds every job's session exactly as `htd detect` does and
//! caches nothing: a cached master held only its input and register
//! variables, so a hit lowered and encoded as much as a miss, and the cache
//! cost more memory than it saved time.  [`SnapshotCache`] therefore holds
//! nothing (every [`fetch`](SnapshotCache::fetch) misses and
//! [`insert`](SnapshotCache::insert) drops the master), and
//! [`DEFAULT_CACHE_BYTES`] configures nothing.
//!
//! These names, and the all-zero `cache` object of `GET /stats`
//! ([`cache_stats_json`]), stay only because the benchmark (`perfbench/`)
//! reads them, and files under `perfbench/` change only together with the
//! benchmark.  The next benchmark change drops them from the harness; the
//! change after it deletes this module.

use htd_ipc::MiterSession;
use htd_rtl::ValidatedDesign;

use crate::json::Json;

/// Inert: the byte budget of the deleted cache, which configures nothing.
/// Kept only because the benchmark harness (`perfbench/trace`) reads it.
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// A design and a never-run miter session over it, the entry the deleted
/// cache stored.
#[derive(Debug)]
pub struct FrozenMaster {
    /// The validated design the miter encodes.
    pub design: ValidatedDesign,
    /// The never-run master session.
    pub miter: MiterSession,
}

/// Inert: holds nothing, so every [`fetch`](Self::fetch) misses.  The
/// daemon caches nothing; the type stays only because the benchmark
/// harness (`perfbench/trace`) compiles against it.
#[derive(Debug, Default)]
pub struct SnapshotCache;

impl SnapshotCache {
    /// Inert: ignores `capacity_bytes`.
    #[must_use]
    pub fn new(_capacity_bytes: u64) -> Self {
        SnapshotCache
    }

    /// Inert: always misses.
    pub fn fetch(&mut self, _key: u64, _dump: &str) -> Option<(ValidatedDesign, MiterSession)> {
        None
    }

    /// Inert: drops `master`.
    pub fn insert(&mut self, _key: u64, _dump: String, _master: FrozenMaster) {}
}

/// The `cache` object of `GET /stats`: `hits`, `misses` and `bytes`, all 0.
pub(crate) fn cache_stats_json() -> Json {
    Json::obj([
        ("hits", Json::UInt(0)),
        ("misses", Json::UInt(0)),
        ("bytes", Json::UInt(0)),
    ])
}
