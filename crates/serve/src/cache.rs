//! The netlist-keyed snapshot cache: frozen master [`MiterSession`]s indexed
//! by [`content_hash`](htd_rtl::netlist::content_hash) of the canonical
//! netlist text.
//!
//! A cache entry holds the *master* encoding of a design — the product of the
//! one expensive bit-blast — and is never run directly.  Every served job
//! runs on an O(bytes) [`MiterSession::try_fork`] of the frozen master, so a
//! cache hit skips the bit-blast entirely while the master stays pristine:
//! forks of a never-run master produce reports byte-identical to a fresh
//! session's (the ipc determinism suite asserts this).
//!
//! The content hash is FxHash — fast, but neither cryptographic nor secretly
//! seeded, so a multi-tenant service must assume colliding netlists can be
//! *crafted*, not just stumbled into.  Per the
//! [`content_hash`](htd_rtl::netlist::content_hash) contract, every entry
//! therefore stores the canonical netlist dump alongside the master, and a
//! lookup only hits when the stored dump is byte-identical to the submitted
//! one; a hash collision is an honest miss, never another tenant's design.
//!
//! Eviction is LRU under a byte budget measured by
//! [`MiterSession::resident_bytes`] (the AIG footprint plus the backend's
//! forkable snapshot bytes — a pristine master holds its whole footprint in
//! the encoding, not the solver) plus the cached design's
//! [`heap_bytes`](htd_rtl::Design::heap_bytes) plus the retained dump text.
//! A budget of zero disables caching (every submit rebuilds, nothing is
//! retained).

use htd_ipc::MiterSession;
use htd_rtl::ValidatedDesign;

/// A cached master encoding: the validated design plus its frozen,
/// never-solved miter session.
#[derive(Debug)]
pub struct FrozenMaster {
    /// The validated design the miter encodes.
    pub design: ValidatedDesign,
    /// The frozen master session; fork it, never run it.
    pub miter: MiterSession,
}

#[derive(Debug)]
struct Entry {
    key: u64,
    /// The canonical netlist dump the key was hashed from; compared on every
    /// hash hit so a collision cannot serve a different design.
    dump: String,
    master: FrozenMaster,
    bytes: u64,
    last_used: u64,
}

/// Cache observability counters, reported by `GET /stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (per entry: `resident_bytes`, the design's
    /// heap bytes and the retained canonical dump).
    pub bytes: u64,
    /// The configured byte budget.
    pub capacity_bytes: u64,
    /// Lookups that found a reusable master.
    pub hits: u64,
    /// Lookups that missed (including all lookups when caching is disabled).
    pub misses: u64,
    /// Entries evicted to stay under the budget.
    pub evicted_entries: u64,
    /// Bytes released by those evictions.
    pub evicted_bytes: u64,
}

/// An LRU cache of frozen masters under a byte budget.
#[derive(Debug)]
pub struct SnapshotCache {
    entries: Vec<Entry>,
    capacity_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evicted_entries: u64,
    evicted_bytes: u64,
}

impl SnapshotCache {
    /// Creates a cache with the given byte budget (zero disables caching).
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        SnapshotCache {
            entries: Vec::new(),
            capacity_bytes,
            clock: 0,
            hits: 0,
            misses: 0,
            evicted_entries: 0,
            evicted_bytes: 0,
        }
    }

    /// Looks up `key` and, on a hit, returns a clone of the design plus an
    /// O(bytes) fork of the frozen master, bumping the entry's recency.
    /// Returns `None` (and counts a miss) otherwise.
    ///
    /// A hit requires the stored canonical `dump` to match byte-for-byte,
    /// not just the 64-bit hash: FxHash is collidable, and serving a
    /// different tenant's design on a collision would be a silent
    /// cross-tenant report leak.
    pub fn fetch(&mut self, key: u64, dump: &str) -> Option<(ValidatedDesign, MiterSession)> {
        self.clock += 1;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.dump == dump)
        {
            // A fork can fail (e.g. an IPASIR library out of solver
            // handles); the honest answer is then a miss, not a panic — the
            // caller rebuilds, and its own fork reports the failure.
            if let Some(fork) = entry.master.miter.try_fork() {
                entry.last_used = self.clock;
                self.hits += 1;
                return Some((entry.master.design.clone(), fork));
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a freshly built master under `key` (the
    /// [`hash_of_dump`](htd_rtl::netlist::hash_of_dump) of `dump`), then
    /// evicts least-recently-used entries (possibly the new one) until the
    /// resident bytes fit the budget.  A zero budget retains nothing.
    /// Hash-colliding designs coexist as separate entries.
    pub fn insert(&mut self, key: u64, dump: String, master: FrozenMaster) {
        if self.entries.iter().any(|e| e.key == key && e.dump == dump) {
            // A concurrent submit of the same netlist built a duplicate
            // master while we were building ours; keep the resident one.
            return;
        }
        self.clock += 1;
        let bytes =
            master.miter.resident_bytes() + master.design.design().heap_bytes() + dump.len() as u64;
        self.entries.push(Entry {
            key,
            dump,
            master,
            bytes,
            last_used: self.clock,
        });
        while self.resident_bytes() > self.capacity_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let evicted = self.entries.swap_remove(oldest);
            self.evicted_entries += 1;
            self.evicted_bytes += evicted.bytes;
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// The current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            bytes: self.resident_bytes(),
            capacity_bytes: self.capacity_bytes,
            hits: self.hits,
            misses: self.misses,
            evicted_entries: self.evicted_entries,
            evicted_bytes: self.evicted_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_sat::Solver;

    fn master(name: &str, width: u32) -> (u64, String, FrozenMaster) {
        let mut d = htd_rtl::Design::new(name);
        let input = d.add_input("in", width).unwrap();
        let r = d.add_register("r", width, 0).unwrap();
        d.set_register_next(r, d.signal(input)).unwrap();
        d.add_output("out", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        let dump = htd_rtl::netlist::dump(&design);
        let key = design.content_hash();
        let miter = MiterSession::new(&design, Box::new(Solver::new()));
        (key, dump, FrozenMaster { design, miter })
    }

    fn entry_bytes(dump: &str, frozen: &FrozenMaster) -> u64 {
        frozen.miter.resident_bytes() + frozen.design.design().heap_bytes() + dump.len() as u64
    }

    #[test]
    fn hits_fork_without_evicting_and_misses_count() {
        let mut cache = SnapshotCache::new(u64::MAX);
        let (key, dump, frozen) = master("a", 4);
        assert!(cache.fetch(key, &dump).is_none());
        cache.insert(key, dump.clone(), frozen);
        let (design, fork) = cache.fetch(key, &dump).expect("resident entry must hit");
        assert_eq!(design.design().name(), "a");
        assert_eq!(fork.design_name(), "a");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_hash_collision_is_a_miss_not_another_tenants_design() {
        let mut cache = SnapshotCache::new(u64::MAX);
        let (key, dump, frozen) = master("a", 4);
        cache.insert(key, dump.clone(), frozen);
        // A different netlist landing on the same 64-bit key (FxHash is
        // collidable by construction) must miss, not serve design `a`.
        let (_, colliding_dump, colliding) = master("b", 8);
        assert!(cache.fetch(key, &colliding_dump).is_none());
        // And it can be cached under the same key without displacing `a`.
        cache.insert(key, colliding_dump.clone(), colliding);
        let (design, _) = cache.fetch(key, &colliding_dump).expect("own entry");
        assert_eq!(design.design().name(), "b");
        let (design, _) = cache.fetch(key, &dump).expect("`a` stays resident");
        assert_eq!(design.design().name(), "a");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 2));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let (key_a, dump_a, frozen_a) = master("a", 4);
        let (key_b, dump_b, frozen_b) = master("b", 8);
        let bytes_a = entry_bytes(&dump_a, &frozen_a);
        let bytes_b = entry_bytes(&dump_b, &frozen_b);
        // Budget fits either entry alone but not both.
        let mut cache = SnapshotCache::new(bytes_a.max(bytes_b));
        cache.insert(key_a, dump_a.clone(), frozen_a);
        cache.insert(key_b, dump_b.clone(), frozen_b);
        assert!(
            cache.fetch(key_a, &dump_a).is_none(),
            "older entry must be evicted"
        );
        assert!(
            cache.fetch(key_b, &dump_b).is_some(),
            "newer entry must survive"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evicted_entries, 1);
        assert_eq!(stats.evicted_bytes, bytes_a);
    }

    #[test]
    fn a_zero_budget_disables_caching() {
        let mut cache = SnapshotCache::new(0);
        let (key, dump, frozen) = master("a", 4);
        cache.insert(key, dump.clone(), frozen);
        assert!(cache.fetch(key, &dump).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    /// The builtin solver behind a `fork` that always fails, like an IPASIR
    /// library that cannot open another solver handle.
    struct UnforkableSolver(Solver);

    impl htd_sat::SatBackend for UnforkableSolver {
        fn name(&self) -> String {
            "unforkable".to_owned()
        }

        fn new_var(&mut self) -> htd_sat::Var {
            htd_sat::SatBackend::new_var(&mut self.0)
        }

        fn add_clause(&mut self, lits: &[htd_sat::Lit]) -> bool {
            htd_sat::SatBackend::add_clause(&mut self.0, lits)
        }

        fn solve_under(
            &mut self,
            assumptions: &[htd_sat::Lit],
        ) -> Result<htd_sat::SolveResult, htd_sat::BackendError> {
            self.0.solve_under(assumptions)
        }

        fn model_value(&self, var: htd_sat::Var) -> Option<bool> {
            self.0.model_value(var)
        }

        fn stats(&self) -> htd_sat::BackendStats {
            htd_sat::SatBackend::stats(&self.0)
        }

        fn fork(&self) -> Result<Box<dyn htd_sat::SatBackend>, htd_sat::BackendError> {
            Err(htd_sat::BackendError {
                message: "no second solver handle".to_owned(),
            })
        }

        fn snapshot_bytes(&self) -> u64 {
            0
        }
    }

    /// Every served job runs on a fork of a pristine master, the one fork
    /// left in the flow.  A resident master that cannot fork is a miss, and
    /// the failing fork of the rebuilt master becomes the job's backend
    /// error, the conversion the daemon's miss path applies.
    #[test]
    fn a_master_that_cannot_fork_misses_and_fails_as_a_backend_error() {
        let (key, dump, frozen) = master("a", 4);
        let design = frozen.design;
        let unforkable = || MiterSession::new(&design, Box::new(UnforkableSolver(Solver::new())));
        let mut cache = SnapshotCache::new(u64::MAX);
        let resident = FrozenMaster {
            design: design.clone(),
            miter: unforkable(),
        };
        cache.insert(key, dump.clone(), resident);
        assert!(cache.fetch(key, &dump).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
        match unforkable().fork().map_err(htd_core::DetectError::from) {
            Err(htd_core::DetectError::Backend { message }) => {
                assert!(message.contains("no second solver handle"), "{message}");
            }
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn recently_used_entries_outlive_older_inserts() {
        let (key_a, dump_a, frozen_a) = master("a", 4);
        let (key_b, dump_b, frozen_b) = master("b", 4);
        let (key_c, dump_c, frozen_c) = master("c", 4);
        let per_entry = entry_bytes(&dump_a, &frozen_a);
        // Room for two same-shaped entries.
        let mut cache = SnapshotCache::new(per_entry * 2);
        cache.insert(key_a, dump_a.clone(), frozen_a);
        cache.insert(key_b, dump_b.clone(), frozen_b);
        assert!(
            cache.fetch(key_a, &dump_a).is_some(),
            "touch `a` so `b` is the LRU"
        );
        cache.insert(key_c, dump_c.clone(), frozen_c);
        assert!(cache.fetch(key_a, &dump_a).is_some());
        assert!(
            cache.fetch(key_b, &dump_b).is_none(),
            "`b` was least recently used"
        );
        assert!(cache.fetch(key_c, &dump_c).is_some());
    }
}
