//! The incremental miter session: one bit-blast, many property queries.
//!
//! The legacy [`PropertyChecker`](crate::PropertyChecker) rebuilds the AIG,
//! the CNF and the SAT solver for every single property.  The detection flow,
//! however, checks a *sequence* of closely related properties over the same
//! miter — init, one fanout property per structural level, plus
//! re-verification rounds — and [`MiterSession`] exploits that:
//!
//! * **One AIG, one backend.**  The session allocates the symbolic starting
//!   state and the shared input words once, lowers each property's cones into
//!   the same structurally-hashed AIG, and mirrors only the *new* nodes into
//!   one live [`SatBackend`] through the
//!   [`IncrementalEncoder`](crate::cnf::IncrementalEncoder).  Cones whose
//!   bindings repeat across properties strash onto existing nodes and cost no
//!   new clauses, and the solver's learnt clauses persist across the whole
//!   flow.
//! * **Antecedents as assumptions.**  Equality assumptions on combinational
//!   signals become solver *assumptions* instead of baked-in unit clauses, so
//!   the same encoding serves every antecedent the flow tries.
//! * **Per-signal miters behind activation literals.**  Each prove signal's
//!   "differs in the two instances" clause is guarded by a fresh activation
//!   literal and solved on a fork of the master; once the next property is
//!   prepared the literals are retired with unit clauses, permanently
//!   simplifying the clauses away.
//!
//! Register starting-state variables follow the same sharing discipline as
//! the legacy checker (see
//! [`CheckerOptions::share_assumed_equal`](crate::CheckerOptions)): registers
//! assumed equal by the property under check are bound to one canonical
//! shared word in both instances, which lets structural hashing collapse the
//! identical cones — the property-checking cliff documented in the
//! `ablation_hashing` benchmark applies unchanged to the incremental path.

use crate::fxhash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htd_rtl::{SignalId, SignalKind, ValidatedDesign};
use htd_sat::{BackendError, Lit, SatBackend, SolveResult, SolverStats, Var};

use crate::aig::{Aig, AigLit};
use crate::bitblast::{equal, BitVec, BlastContext};
use crate::checker::CheckerOptions;
use crate::cnf::IncrementalEncoder;
use crate::property::{CheckOutcome, CheckStats, Counterexample, IntervalProperty, PropertyReport};

/// Counters describing a whole [`MiterSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of miter encodings built from scratch.  A session builds its
    /// encoding exactly once, at construction — this counter existing (and
    /// staying at 1) is the point of the session API, and the equivalence
    /// tests assert it.
    pub bit_blasts: u64,
    /// Properties checked so far.
    pub properties_checked: u64,
    /// AIG nodes mirrored into the backend so far (cumulative over all
    /// properties; nodes shared between properties are counted once).
    pub nodes_encoded: u64,
    /// SAT queries issued (trivially decided properties issue none).
    pub queries: u64,
    /// Prove signals discharged by the structural fast path: their cone
    /// reduced to shared variables, so equality held by construction with no
    /// lowering and no solver work.
    pub structurally_proved: u64,
    /// Number of binding epochs built: a new epoch starts whenever a property
    /// arrives with a different set of merged (assumed-equal) registers.
    /// Properties within one epoch share their lowering contexts, so word-
    /// level nodes common to several properties are bit-blasted once per
    /// epoch instead of once per property.
    pub epoch_rebinds: u64,
    /// Per-signal solve tasks whose generation was solved into a verdict
    /// (levels prepared ahead of a resolution round that the flow never
    /// reached do not count).
    pub parallel_tasks: u64,
    /// Tasks skipped because an earlier (lower-id) task had already produced
    /// the level's counterexample.
    pub tasks_skipped: u64,
    /// Frozen generation snapshots forked off the master by
    /// [`MiterSession::prepare_level`].  Unlike the per-task fork counters in
    /// flow reports, this counts the *master-side* clones: the detection
    /// flow takes one only for a level it prepares ahead of a resolution
    /// round.
    pub snapshot_forks: u64,
    /// Bytes copied by those master-side snapshot forks — the arena-backed
    /// cost model: each clone is proportional to the master's live database
    /// size at the prepare boundary, not to its clause count.
    pub snapshot_bytes_cloned: u64,
}

/// An incremental property-checking session over one design's 2-safety miter.
///
/// Construct it with a design, checker options and a boxed [`SatBackend`];
/// then call [`check`](Self::check) for every property of the flow.  All
/// queries share one encoding; see the [module docs](self) for how.
///
/// # Example
///
/// ```
/// use htd_ipc::{IntervalProperty, MiterSession};
/// use htd_rtl::Design;
/// use htd_sat::Solver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("latch");
/// let input = d.add_input("in", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(input))?;
/// d.add_output("out", d.signal(r))?;
/// let design = d.validated()?;
///
/// let mut session = MiterSession::new(&design, Box::new(Solver::new()));
/// let init = IntervalProperty::new("init_property", vec![], vec![r]);
/// assert!(session.check(&design, &init)?.holds());
/// assert_eq!(session.stats().bit_blasts, 1);
/// # Ok(())
/// # }
/// ```
pub struct MiterSession {
    aig: Aig,
    backend: Box<dyn SatBackend>,
    encoder: IncrementalEncoder,
    options: CheckerOptions,
    design_name: String,
    /// Shared input words for frames `t` and `t + 1`.
    inputs: Vec<FxHashMap<SignalId, BitVec>>,
    /// Per-instance starting-state words (used while a register is *not*
    /// assumed equal).
    split_regs: [FxHashMap<SignalId, BitVec>; 2],
    /// Canonical shared starting-state words (used by both instances while a
    /// register *is* assumed equal), allocated lazily.
    shared_regs: FxHashMap<SignalId, BitVec>,
    /// Register-only combinational support of each signal's driver, computed
    /// lazily and kept for the whole session (the structure never changes).
    support_cache: FxHashMap<SignalId, Vec<SignalId>>,
    /// The cross-property lowering cache: the bound contexts of the current
    /// binding epoch (keyed by the merged-register set).  Checks whose
    /// antecedent merges the same registers reuse these contexts, so shared
    /// word-level cones are lowered once per epoch, not once per property.
    epoch: Option<EpochCtx>,
    /// Activation literals of the most recently prepared generation, retired
    /// (as permanent unit clauses) when the *next* generation is prepared.
    /// Deferring the retirement keeps the master mutation stream a pure
    /// function of the prepare order, and leaves a generation's miter
    /// clauses live until its tasks have forked.
    pending_acts: Vec<Var>,
    stats: SessionStats,
}

/// One per-signal sub-property of a level check: prove that `sig`'s
/// next-cycle value is equal in both instances under the level's antecedent.
struct LevelTask {
    sig: SignalId,
    b1: BitVec,
    b2: BitVec,
    /// Activation literal guarding this sub-property's miter clause (`None`
    /// when the miter is structurally true and no guard clause exists).
    act: Option<Var>,
    /// Base antecedent assumptions plus this task's activation literal.
    assumptions: Vec<Lit>,
    /// Decision-eligible variables: the cone of the antecedent and the miter.
    cone: Vec<Var>,
}

/// One prepared (lowered and Tseitin-encoded) generation of the flow graph:
/// a fanout level's property — or one of its resolution rounds — split into
/// per-signal sub-property tasks.
///
/// A `PreparedLevel` is created on the master session by
/// [`MiterSession::prepare_level`] and solved by
/// [`MiterSession::solve_level`].  A generation prepared with `freeze`
/// carries a snapshot of the master, so the master may encode later
/// generations before this one solves.
pub struct PreparedLevel {
    property_name: String,
    tasks: Vec<LevelTask>,
    /// The frozen master snapshot the tasks fork from: `None` when the
    /// generation has no tasks or was prepared without `freeze`, in which
    /// case the tasks fork straight off the master.
    snapshot: Option<Box<dyn SatBackend>>,
    /// This generation's epoch starting-state words, kept for counterexample
    /// reconstruction at solve time (the session's live epoch may already
    /// belong to a later generation).
    regs: [FxHashMap<SignalId, BitVec>; 2],
    start: Instant,
    structurally_proved: u64,
    /// Master-side work bracketed over this generation's prepare: AIG and
    /// CNF growth plus any clause-GC the master ran before the snapshot.
    aig_nodes: usize,
    aig_ands: usize,
    strash_hits: u64,
    cnf_vars: usize,
    cnf_clauses: usize,
    master_solver: SolverStats,
}

impl std::fmt::Debug for PreparedLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLevel")
            .field("property", &self.property_name)
            .field("tasks", &self.tasks.len())
            .finish_non_exhaustive()
    }
}

impl PreparedLevel {
    /// The name of the property this generation checks.
    #[must_use]
    pub fn property_name(&self) -> &str {
        &self.property_name
    }

    /// Number of per-signal solve tasks (0 when the level discharged
    /// structurally or vacuously).
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }
}

/// The lowering contexts of one binding epoch (one merged-register set).
#[derive(Clone)]
struct EpochCtx {
    /// Sorted merged-register set this epoch was built for.
    key: Vec<SignalId>,
    /// Frame-`t` contexts of the two instances.
    ctx_t: [BlastContext; 2],
    /// Frame-`t+1` contexts: seeded with the `t+1` input words, and each
    /// register bound to its next-state word only once a proved wire/output
    /// reads it.
    ctx_t1: [BlastContext; 2],
    /// Per-instance starting-state words under this epoch's sharing.
    regs: [FxHashMap<SignalId, BitVec>; 2],
}

impl std::fmt::Debug for MiterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiterSession")
            .field("design", &self.design_name)
            .field("backend", &self.backend.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MiterSession {
    /// Creates a session with default checker options.
    #[must_use]
    pub fn new(design: &ValidatedDesign, backend: Box<dyn SatBackend>) -> Self {
        Self::with_options(design, CheckerOptions::default(), backend)
    }

    /// Creates a session with explicit checker options.
    ///
    /// This is the session's single bit-blast: the shared input words and the
    /// per-instance starting-state words are allocated here, once.
    #[must_use]
    pub fn with_options(
        design: &ValidatedDesign,
        options: CheckerOptions,
        mut backend: Box<dyn SatBackend>,
    ) -> Self {
        backend.set_gc_thresholds(
            f64::from(options.gc_dead_pct) / 100.0,
            options.gc_min_clauses,
        );
        let d = design.design();
        let mut aig = Aig::new();
        let inputs: Vec<FxHashMap<SignalId, BitVec>> = (0..2)
            .map(|_| {
                d.inputs()
                    .into_iter()
                    .map(|s| (s, fresh_word(&mut aig, d.signal_width(s))))
                    .collect()
            })
            .collect();
        let mut split_regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            let width = d.signal_width(r);
            split_regs[0].insert(r, fresh_word(&mut aig, width));
            split_regs[1].insert(r, fresh_word(&mut aig, width));
        }
        MiterSession {
            aig,
            backend,
            encoder: IncrementalEncoder::new(),
            options,
            design_name: d.name().to_string(),
            inputs,
            split_regs,
            shared_regs: FxHashMap::default(),
            support_cache: FxHashMap::default(),
            epoch: None,
            pending_acts: Vec::new(),
            stats: SessionStats {
                bit_blasts: 1,
                ..SessionStats::default()
            },
        }
    }

    /// The options in effect.
    #[must_use]
    pub fn options(&self) -> CheckerOptions {
        self.options
    }

    /// The backend's report name (`builtin-cdcl`, `dimacs:…`).
    #[must_use]
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// The name of the design the session is bound to.
    #[must_use]
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// Bytes a fork of the session's master backend would copy — the
    /// O(bytes) cost model of the arena-backed clause store, used both for
    /// the per-generation snapshot accounting and as the eviction cost of a
    /// design-keyed session cache.
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        self.backend.snapshot_bytes()
    }

    /// Estimated resident size of the whole session: the AIG footprint plus
    /// the backend's forkable snapshot bytes.  This is the honest eviction
    /// cost of a design-keyed **frozen master** cache: a pristine master has
    /// issued no queries, so [`snapshot_bytes`](Self::snapshot_bytes) alone
    /// reads near zero while the bit-blast product (the AIG and its
    /// structural hash) dominates its footprint.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.aig.resident_bytes() + self.backend.snapshot_bytes()
    }

    /// Forks the whole session: an O(bytes) clone of the encoding state (AIG,
    /// encoder tables, epoch contexts) plus a [`SatBackend::fork`] of the
    /// master solver.
    ///
    /// The fork is a fully independent session over the same design: checks
    /// run on it never touch the parent.  The intended use is a **frozen
    /// master** cache — build a session (one bit-blast), never run it, and
    /// fork it once per request — so a returning design costs one arena copy
    /// instead of a re-encode.  Forking a session that has already run
    /// properties is also sound, but its learnt clauses and retired
    /// activation literals carry over, so reports from such a fork are not
    /// byte-identical to a fresh session's; fork pristine masters when
    /// report-identity matters.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] when the backend fails to fork (e.g. an
    /// IPASIR library that cannot open another solver handle).
    pub fn fork(&self) -> Result<MiterSession, BackendError> {
        Ok(MiterSession {
            backend: self.backend.fork()?,
            aig: self.aig.clone(),
            encoder: self.encoder.clone(),
            options: self.options,
            design_name: self.design_name.clone(),
            inputs: self.inputs.clone(),
            split_regs: self.split_regs.clone(),
            shared_regs: self.shared_regs.clone(),
            support_cache: self.support_cache.clone(),
            epoch: self.epoch.clone(),
            pending_acts: self.pending_acts.clone(),
            stats: self.stats,
        })
    }

    /// [`fork`](Self::fork), discarding the backend's error message.
    #[must_use]
    pub fn try_fork(&self) -> Option<MiterSession> {
        self.fork().ok()
    }

    /// Session-level counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            // Queries solved on the master backend plus queries solved on
            // forked per-task solvers (accumulated in `self.stats.queries`).
            queries: self.backend.stats().queries + self.stats.queries,
            ..self.stats
        }
    }

    /// Checks a single-cycle interval property against the live miter, as
    /// the detection flow checks a level: [`prepare_level`](Self::prepare_level)
    /// without a snapshot, then [`solve_level`](Self::solve_level) (each
    /// sub-property solved on a fork of the master, the lowest-id
    /// counterexample wins).
    ///
    /// Must be called with the same design the session was built from.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the backend infrastructure fails (a
    /// process backend, a failed fork, or an interrupted query).
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn check(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
    ) -> Result<PropertyReport, BackendError> {
        let prepared = self.prepare_level(design, property, false)?;
        self.solve_level(design, prepared, &Arc::default())
    }

    /// Lowers and encodes one generation of the flow graph — a fanout level's
    /// property (or a resolution round of one) — on the master backend.
    ///
    /// This is the master half of a level check: the prove consequent is
    /// partitioned into per-signal sub-properties ("one pending property per
    /// prove signal"), each guarded by its own activation literal, and the
    /// whole generation's cones are mirrored into the master once (sharing
    /// the binding epoch).  [`solve_level`](Self::solve_level) solves the
    /// returned [`PreparedLevel`].
    ///
    /// Master hygiene runs at the prepare boundary, in a fixed order that is
    /// a pure function of the prepare sequence: first the previous
    /// generation's activation literals are retired (their miter clauses are
    /// permanently disabled), then the clause database is opportunistically
    /// compacted *before* any snapshot is taken, so the tasks' forks copy an
    /// already-GC'd database (see [`CheckerOptions::gc_dead_pct`]).
    ///
    /// `freeze: true` freezes the generation behind a snapshot of the
    /// master, so the master may encode later generations before this one
    /// solves; the detection flow freezes the levels it prepares ahead of a
    /// resolution round.  `freeze: false` skips the clone: the caller
    /// promises to solve the generation before the master mutates again,
    /// which makes a fork of the master at solve time byte-identical to a
    /// fork of the omitted snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if freezing the snapshot fails (the
    /// backend's [`fork`](SatBackend::fork)).
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn prepare_level(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        freeze: bool,
    ) -> Result<PreparedLevel, BackendError> {
        // htd-lint: allow(determinism): feeds PropertyReport.duration only, zeroed by the normalized rendering
        let start = Instant::now();
        let d = design.design();
        assert_eq!(d.name(), self.design_name, "session is bound to one design");
        let aig_nodes_before = self.aig.num_nodes();
        let aig_ands_before = self.aig.num_ands();
        let strash_before = self.aig.strash_hits();
        let backend_before = self.backend.stats();

        // Retire the previous generation's activation literals: deferred to
        // this point so the master mutation stream is deterministic whether
        // or not earlier generations have finished solving.
        let retired = self.flush_retired();

        let share = self.options.share_assumed_equal;
        let assume_regs: FxHashSet<SignalId> = property
            .assume_equal
            .iter()
            .copied()
            .filter(|s| d.signal_info(*s).kind().is_register())
            .collect();
        let mut epoch = self.take_epoch(design, &assume_regs);
        let assumption_aig = self.lower_assumptions(design, property, &assume_regs, &mut epoch);

        // Per-signal proof obligations in prove-list order — the sub-property
        // id order of the deterministic merge.
        let mut structurally_proved = 0u64;
        let mut specs: Vec<(SignalId, BitVec, BitVec, AigLit)> = Vec::new();
        for &sig in &property.prove_equal {
            if share && self.structurally_equal_next(design, sig, &assume_regs) {
                structurally_proved += 1;
                continue;
            }
            let Some((b1, b2)) = self.lower_prove_signal(design, &mut epoch, sig) else {
                continue;
            };
            let diff = equal(&mut self.aig, &b1, &b2).invert();
            if diff == AigLit::FALSE {
                // Equal by construction under this epoch's sharing.
                continue;
            }
            specs.push((sig, b1, b2, diff));
        }

        // A structurally unsatisfiable antecedent makes the whole level hold
        // vacuously; no signal to check makes it hold trivially.  Either way
        // the generation carries no tasks.
        let mut tasks: Vec<LevelTask> = Vec::new();
        if !assumption_aig.contains(&AigLit::FALSE) && !specs.is_empty() {
            // Mirror every cone this generation needs into the master, then
            // guard each sub-property's miter behind its own activation
            // literal.
            let mut roots: Vec<AigLit> = assumption_aig.clone();
            roots.extend(specs.iter().map(|s| s.3));
            let fresh = self
                .encoder
                .encode(self.backend.as_mut(), &self.aig, &roots);
            self.stats.nodes_encoded += fresh as u64;

            let base_assumptions: Vec<Lit> = assumption_aig
                .iter()
                .filter(|&&a| a != AigLit::TRUE)
                .map(|&a| self.encoder.lit(a))
                .collect();
            let assumption_roots: Vec<AigLit> = assumption_aig
                .iter()
                .copied()
                .filter(|a| !a.is_const())
                .collect();

            tasks.reserve(specs.len());
            for (sig, b1, b2, diff) in specs {
                let mut assumptions = base_assumptions.clone();
                let mut cone_roots = assumption_roots.clone();
                let act = if diff == AigLit::TRUE {
                    // The miter holds structurally for every assignment; the
                    // query only needs a model of the antecedent.
                    None
                } else {
                    cone_roots.push(diff);
                    let act = self.backend.new_var();
                    let miter_lit = self.encoder.lit(diff);
                    self.backend.add_clause(&[Lit::neg(act), miter_lit]);
                    assumptions.push(Lit::pos(act));
                    Some(act)
                };
                let mut cone = self.encoder.cone_vars(&self.aig, &cone_roots);
                cone.extend(act);
                tasks.push(LevelTask {
                    sig,
                    b1,
                    b2,
                    act,
                    assumptions,
                    cone,
                });
            }
        }

        if retired {
            // Something died since the last compaction: compact the master
            // before any freeze, so shards clone an already-GC'd clause
            // database.
            let _ = self.backend.collect_garbage();
        }
        self.pending_acts.extend(tasks.iter().filter_map(|t| t.act));
        let regs = epoch.regs.clone();
        self.epoch = Some(epoch);
        // A taskless generation has nothing to fork; an unfrozen one forks
        // its tasks straight off the master at solve time.
        let snapshot = if tasks.is_empty() || !freeze {
            None
        } else {
            // Master-side fork accounting: a snapshot clone costs O(bytes of
            // live database).  It stays out of the flow report, which counts
            // the per-task forks instead.  The byte computation scans the
            // clause log on the external backends, so it only runs here.
            let snapshot = self.backend.fork()?;
            self.stats.snapshot_forks += 1;
            self.stats.snapshot_bytes_cloned += self.backend.snapshot_bytes();
            Some(snapshot)
        };

        let backend_after = self.backend.stats();
        Ok(PreparedLevel {
            property_name: property.name.clone(),
            tasks,
            snapshot,
            regs,
            start,
            structurally_proved,
            aig_nodes: self.aig.num_nodes() - aig_nodes_before,
            aig_ands: self.aig.num_ands() - aig_ands_before,
            strash_hits: self.aig.strash_hits() - strash_before,
            cnf_vars: backend_after.vars - backend_before.vars,
            cnf_clauses: backend_after.clauses.saturating_sub(backend_before.clauses),
            master_solver: backend_after.solver.delta_since(&backend_before.solver),
        })
    }

    /// Solves a prepared generation and merges it into its
    /// [`PropertyReport`].  The sub-properties solve in id order, each on
    /// its own fork (of the generation's snapshot when it was frozen, of the
    /// master otherwise), and the first counterexample decides the
    /// generation: the tasks behind it are skipped, and only the solved
    /// tasks contribute statistics.
    ///
    /// A generation prepared without `freeze` must be solved before the
    /// master mutates again: a fork of the master then has exactly the
    /// content the omitted snapshot would have had.
    ///
    /// `interrupt` is the kill switch: it is checked before every task and
    /// polled by the solve in flight.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if a fork or a solve fails, or if
    /// `interrupt` cut the generation short; the session's counters then
    /// stay as they were.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn solve_level(
        &mut self,
        design: &ValidatedDesign,
        prepared: PreparedLevel,
        interrupt: &Arc<AtomicBool>,
    ) -> Result<PropertyReport, BackendError> {
        let d = design.design();
        assert_eq!(d.name(), self.design_name, "session is bound to one design");
        let mut solved = SolverStats::default();
        let mut queries = 0u64;
        let mut winner: Option<(usize, Box<dyn SatBackend>)> = None;
        for (index, task) in prepared.tasks.iter().enumerate() {
            let interrupted = || BackendError {
                message: format!(
                    "sub-property {index} of {} interrupted",
                    prepared.property_name
                ),
            };
            if interrupt.load(Ordering::SeqCst) {
                return Err(interrupted());
            }
            let mut shard = prepared.snapshot.as_ref().unwrap_or(&self.backend).fork()?;
            // The fork's byte cost is part of the task's work: a fork of a
            // frozen snapshot and a fork of the unmutated master copy the
            // same bytes.
            let fork_bytes = shard.snapshot_bytes();
            let fork_watcher_bytes = shard.watcher_bytes();
            shard.mask_all_decisions();
            for &v in &task.cone {
                shard.set_decision_var(v, true);
            }
            let flag = Arc::clone(interrupt);
            shard.set_interrupt(Arc::new(move || flag.load(Ordering::SeqCst)));
            let before = shard.stats();
            let result = shard.solve_under(&task.assumptions)?;
            if result == SolveResult::Interrupted {
                return Err(interrupted());
            }
            let after = shard.stats();
            let mut delta = after.solver.delta_since(&before.solver);
            delta.fork_count += 1;
            delta.bytes_cloned += fork_bytes;
            delta.watcher_bytes_cloned += fork_watcher_bytes;
            solved.accumulate(&delta);
            queries += after.queries - before.queries;
            if result == SolveResult::Sat {
                // The shard stays alive: reconstruction reads its model.
                winner = Some((index, shard));
                break;
            }
        }
        self.stats.properties_checked += 1;
        self.stats.structurally_proved += prepared.structurally_proved;
        self.stats.parallel_tasks += prepared.tasks.len() as u64;
        self.stats.queries += queries;
        let outcome = match &winner {
            None => CheckOutcome::Holds,
            Some((i, shard)) => {
                self.stats.tasks_skipped += (prepared.tasks.len() - i - 1) as u64;
                let task = &prepared.tasks[*i];
                let prove_values = vec![(task.sig, task.b1.clone(), task.b2.clone())];
                CheckOutcome::Fails(Box::new(self.reconstruct_with(
                    shard.as_ref(),
                    d,
                    &prepared.property_name,
                    &prove_values,
                    &prepared.regs,
                )))
            }
        };
        Ok(self.prepared_report(&prepared, outcome, solved))
    }

    /// Assembles the [`PropertyReport`] of one generation from its prepare
    /// bracket plus the accumulated per-task solver work.
    fn prepared_report(
        &self,
        prepared: &PreparedLevel,
        outcome: CheckOutcome,
        task_delta: SolverStats,
    ) -> PropertyReport {
        let mut solver = prepared.master_solver;
        solver.accumulate(&task_delta);
        PropertyReport {
            property: prepared.property_name.clone(),
            outcome,
            stats: CheckStats {
                aig_nodes: prepared.aig_nodes,
                aig_ands: prepared.aig_ands,
                strash_hits: prepared.strash_hits,
                cnf_vars: prepared.cnf_vars,
                cnf_clauses: prepared.cnf_clauses,
                solver,
                duration: prepared.start.elapsed(),
            },
        }
    }

    /// Retires the pending activation literals of the previously prepared
    /// generation: permanent unit clauses disable their miter clauses, which
    /// the next [`collect_garbage`](SatBackend::collect_garbage) can then
    /// physically drop.
    /// Returns `true` if any literal was retired (i.e. clauses may have
    /// died since the last garbage collection).
    fn flush_retired(&mut self) -> bool {
        let retired = !self.pending_acts.is_empty();
        for act in std::mem::take(&mut self.pending_acts) {
            self.backend.add_clause(&[Lit::neg(act)]);
        }
        retired
    }

    /// The master backend's cumulative counters (variables, clauses, queries
    /// and solver work including clause-GC).
    #[must_use]
    pub fn backend_stats(&self) -> htd_sat::BackendStats {
        self.backend.stats()
    }

    /// Attaches (or detaches, with `None`) a shared resource budget on the
    /// master backend.  Forks taken afterwards — the per-task forks of
    /// [`solve_level`](Self::solve_level) — inherit the tracker, so the whole job charges
    /// one budget.  Install it on a run fork, never on a cached pristine
    /// master.
    pub fn set_budget(&mut self, budget: Option<std::sync::Arc<htd_sat::BudgetTracker>>) {
        self.backend.set_budget(budget);
    }

    /// Ends a level-flow: retires the final generation's activation literals
    /// and lets the backend compact the clauses that just died, so a reused
    /// session starts its next run with a clean database.  The clause-GC
    /// work shows only in [`backend_stats`](Self::backend_stats), never in a
    /// flow report: it is master hygiene after the verdict, not work of any
    /// property.
    pub fn finish_level_flow(&mut self) {
        if self.flush_retired() {
            let _ = self.backend.collect_garbage();
        }
    }

    /// The registers in the combinational support of `sig`'s driver
    /// (transitively through wires), cached for the session's lifetime.
    fn driver_reg_support(&mut self, design: &ValidatedDesign, sig: SignalId) -> Vec<SignalId> {
        if let Some(cached) = self.support_cache.get(&sig) {
            return cached.clone();
        }
        let d = design.design();
        let driver = d.signal_info(sig).driver().expect("validated design");
        let regs: Vec<SignalId> = htd_rtl::structural::combinational_support(design, driver)
            .into_iter()
            .filter(|s| d.signal_info(*s).kind().is_register())
            .collect();
        self.support_cache.insert(sig, regs.clone());
        regs
    }

    /// `true` if the *next* value of register (or the *current* value of
    /// wire/output) `sig` is the same function of shared variables in both
    /// instances: every register its driver reads is bound to a shared word.
    fn driver_is_merged(
        &mut self,
        design: &ValidatedDesign,
        sig: SignalId,
        assume_regs: &FxHashSet<SignalId>,
    ) -> bool {
        self.driver_reg_support(design, sig)
            .iter()
            .all(|r| assume_regs.contains(r))
    }

    /// `true` if `sig`'s value one cycle after `t` is provably identical in
    /// both instances *by construction* under the current sharing: the whole
    /// cone reduces to shared variables, so no lowering and no SAT query is
    /// needed — the incremental flow's structural fast path.
    fn structurally_equal_next(
        &mut self,
        design: &ValidatedDesign,
        sig: SignalId,
        assume_regs: &FxHashSet<SignalId>,
    ) -> bool {
        let d = design.design();
        match d.signal_info(sig).kind() {
            SignalKind::Register { .. } => self.driver_is_merged(design, sig, assume_regs),
            SignalKind::Output | SignalKind::Wire => {
                // Value at t+1 = comb function of inputs@t+1 (shared) and the
                // next-state of the registers the driver reads.
                self.driver_reg_support(design, sig)
                    .iter()
                    .all(|&r| self.driver_is_merged(design, r, assume_regs))
            }
            SignalKind::Input => true,
        }
    }

    /// Returns the lowering contexts for the given merged-register set,
    /// reusing the cached epoch when the key matches (the cross-property
    /// lowering cache) and rebinding otherwise.
    fn take_epoch(
        &mut self,
        design: &ValidatedDesign,
        assume_regs: &FxHashSet<SignalId>,
    ) -> EpochCtx {
        let share = self.options.share_assumed_equal;
        let mut key: Vec<SignalId> = if share {
            assume_regs.iter().copied().collect()
        } else {
            Vec::new()
        };
        key.sort_unstable();
        if let Some(epoch) = self.epoch.take() {
            if epoch.key == key {
                return epoch;
            }
        }
        self.stats.epoch_rebinds += 1;
        let d = design.design();
        let seeded = |words: &FxHashMap<SignalId, BitVec>| {
            let mut ctx = BlastContext::new();
            for (s, bits) in words {
                ctx.bind(*s, bits.clone());
            }
            ctx
        };
        let mut ctx_t = [seeded(&self.inputs[0]), seeded(&self.inputs[0])];
        let ctx_t1 = [seeded(&self.inputs[1]), seeded(&self.inputs[1])];
        let mut regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            if share && assume_regs.contains(&r) {
                let width = d.signal_width(r);
                let aig = &mut self.aig;
                let bits = self
                    .shared_regs
                    .entry(r)
                    .or_insert_with(|| (0..width).map(|_| aig.new_input()).collect())
                    .clone();
                for inst in 0..2 {
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits.clone());
                }
            } else {
                for inst in 0..2 {
                    let bits = self.split_regs[inst][&r].clone();
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits);
                }
            }
        }
        EpochCtx {
            key,
            ctx_t,
            ctx_t1,
            regs,
        }
    }

    /// Lowers the antecedent equalities not already discharged by variable
    /// sharing into AIG literals (one per assumed signal).
    fn lower_assumptions(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        assume_regs: &FxHashSet<SignalId>,
        epoch: &mut EpochCtx,
    ) -> Vec<AigLit> {
        let d = design.design();
        let share = self.options.share_assumed_equal;
        let mut assumption_aig: Vec<AigLit> = Vec::new();
        for &sig in &property.assume_equal {
            let kind = d.signal_info(sig).kind();
            let merged = kind.is_register() && share;
            if merged || kind == SignalKind::Input {
                continue;
            }
            // A wire/output whose cone reduces to shared variables is equal
            // by construction; lowering it would only produce a constant.
            if share && self.driver_is_merged(design, sig, assume_regs) {
                continue;
            }
            let b1 = epoch.ctx_t[0].signal(d, &mut self.aig, sig);
            let b2 = epoch.ctx_t[1].signal(d, &mut self.aig, sig);
            assumption_aig.push(equal(&mut self.aig, &b1, &b2));
        }
        assumption_aig
    }

    /// Lowers one prove signal's next-cycle value in both instances.
    /// Registers are proved through their drivers at `t`; wires and outputs
    /// through the epoch's frame-`t+1` contexts.  Inputs are shared by
    /// construction — nothing to prove, `None`.
    ///
    /// A wire's value at `t+1` reads the `t+1` inputs and the next state of
    /// exactly the registers in its driver's combinational support, so only
    /// those registers get their next-state function lowered and bound into
    /// the frame-`t+1` contexts (the fanout cone of Algorithm 1).  The
    /// bindings stay in the epoch, so later prove signals and properties of
    /// the same epoch reuse them; registers outside every proved cone are
    /// never lowered at `t+1`.
    fn lower_prove_signal(
        &mut self,
        design: &ValidatedDesign,
        epoch: &mut EpochCtx,
        sig: SignalId,
    ) -> Option<(BitVec, BitVec)> {
        let d = design.design();
        let info = d.signal_info(sig);
        match info.kind() {
            SignalKind::Register { .. } => {
                let next = info.driver().expect("validated design");
                let b1 = epoch.ctx_t[0].expr(d, &mut self.aig, next);
                let b2 = epoch.ctx_t[1].expr(d, &mut self.aig, next);
                Some((b1, b2))
            }
            SignalKind::Output | SignalKind::Wire => {
                let support = self.driver_reg_support(design, sig);
                for inst in 0..2 {
                    for &r in &support {
                        if epoch.ctx_t1[inst].binding(r).is_none() {
                            let next = d.signal_info(r).driver().expect("validated design");
                            let bits = epoch.ctx_t[inst].expr(d, &mut self.aig, next);
                            epoch.ctx_t1[inst].bind(r, bits);
                        }
                    }
                }
                let b1 = epoch.ctx_t1[0].signal(d, &mut self.aig, sig);
                let b2 = epoch.ctx_t1[1].signal(d, &mut self.aig, sig);
                Some((b1, b2))
            }
            SignalKind::Input => None,
        }
    }

    /// Rebuilds a concrete counterexample from the given backend's model via
    /// the reconstruction shared with the one-shot checker.  The model source
    /// is a parameter because a parallel level check reads it from the forked
    /// per-task solver that found the counterexample.
    fn reconstruct_with(
        &self,
        model_source: &dyn SatBackend,
        d: &htd_rtl::Design,
        name: &str,
        prove_values: &[(SignalId, BitVec, BitVec)],
        regs: &[FxHashMap<SignalId, BitVec>; 2],
    ) -> Counterexample {
        let env = self
            .encoder
            .input_model(&self.aig, |var| model_source.model_value(var));
        crate::checker::reconstruct_counterexample(
            d,
            &self.aig,
            &env,
            name,
            &[prove_values.to_vec()],
            &self.inputs,
            regs,
        )
    }
}

/// Allocates fresh AIG variables for one word.
fn fresh_word(aig: &mut Aig, width: u32) -> BitVec {
    (0..width).map(|_| aig.new_input()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PropertyChecker;
    use htd_rtl::Design;
    use htd_sat::Solver;

    fn trojan_design() -> ValidatedDesign {
        let mut d = Design::new("tiny_trojan");
        let input = d.add_input("in", 1).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let data = d.add_register("data", 1, 0).unwrap();
        let trig_next = d.or(d.signal(trigger), d.signal(input)).unwrap();
        d.set_register_next(trigger, trig_next).unwrap();
        let payload = d.xor(d.signal(input), d.signal(trigger)).unwrap();
        d.set_register_next(data, payload).unwrap();
        d.add_output("out", d.signal(data)).unwrap();
        d.validated().unwrap()
    }

    fn pipeline() -> ValidatedDesign {
        let mut d = Design::new("pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn session_and_legacy_checker_agree_on_a_trojan() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let legacy = PropertyChecker::new(&design).check(&property);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let incremental = session.check(&design, &property).unwrap();

        assert!(!legacy.holds());
        assert!(!incremental.holds());
        let cex = incremental.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["data"]);
    }

    #[test]
    fn session_checks_a_whole_flow_with_one_bit_blast() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let properties = [
            IntervalProperty::new("init_property", vec![], vec![s1]),
            IntervalProperty::new("fanout_property_1", vec![s1], vec![s2]),
            IntervalProperty::new("fanout_property_2", vec![s1, s2], vec![out]),
        ];
        for property in &properties {
            let report = session.check(&design, property).unwrap();
            assert!(report.holds(), "{} should hold", property.name);
        }
        let stats = session.stats();
        assert_eq!(stats.bit_blasts, 1);
        assert_eq!(stats.properties_checked, 3);
    }

    #[test]
    fn re_checking_the_same_property_encodes_nothing_new() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![s1]);

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        session.check(&design, &property).unwrap();
        let encoded_once = session.stats().nodes_encoded;
        session.check(&design, &property).unwrap();
        assert_eq!(session.stats().nodes_encoded, encoded_once);
    }

    #[test]
    fn check_reports_the_lowest_failing_sub_property() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let trigger = d.require("trigger").unwrap();
        let failing = IntervalProperty::new("init_property", vec![], vec![trigger, data]);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let report = session.check(&design, &failing).unwrap();
        // First-counterexample-wins: the lowest-id failing prove signal.
        let cex = report.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["trigger"]);
    }

    /// A fork of a pristine (never-run) master behaves exactly like a fresh
    /// session — same verdicts, same solver-work deltas, one inherited
    /// bit-blast — and runs independently of its parent.
    #[test]
    fn a_pristine_fork_checks_like_a_fresh_session() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let master = MiterSession::new(&design, Box::new(Solver::new()));
        let mut forked = master.try_fork().expect("builtin backend forks");
        let mut fresh = MiterSession::new(&design, Box::new(Solver::new()));

        let mut from_fork = forked.check(&design, &property).unwrap();
        let mut from_fresh = fresh.check(&design, &property).unwrap();
        from_fork.stats.duration = std::time::Duration::ZERO;
        from_fresh.stats.duration = std::time::Duration::ZERO;
        assert_eq!(from_fork, from_fresh);

        // The fork inherits the master's single bit-blast and never triggers
        // another; the master itself stayed pristine.
        assert_eq!(forked.stats().bit_blasts, 1);
        assert_eq!(master.stats().properties_checked, 0);

        // A second, later fork of the same untouched master is unaffected by
        // the first fork's run.
        let mut second = master.try_fork().expect("builtin backend forks");
        let mut again = second.check(&design, &property).unwrap();
        again.stats.duration = std::time::Duration::ZERO;
        assert_eq!(again, from_fresh);
    }

    /// An accumulator `acc` (next = acc ^ in) drives the output; with
    /// `bystander`, a multiplier register outside the output's cone is
    /// added.
    fn accumulator(bystander: bool) -> ValidatedDesign {
        let mut d = Design::new("accumulator");
        let input = d.add_input("in", 8).unwrap();
        let acc = d.add_register("acc", 8, 0).unwrap();
        let next = d.xor(d.signal(acc), d.signal(input)).unwrap();
        d.set_register_next(acc, next).unwrap();
        if bystander {
            let product = d.add_register("product", 8, 1).unwrap();
            let next = d.mul(d.signal(product), d.signal(input)).unwrap();
            d.set_register_next(product, next).unwrap();
            d.add_output("product_out", d.signal(product)).unwrap();
        }
        d.add_output("out", d.signal(acc)).unwrap();
        d.validated().unwrap()
    }

    /// Proving a wire at `t+1` lowers the next state of the registers its
    /// driver reads and nothing else: a register outside the cone adds no
    /// AIG node to the property.
    #[test]
    fn proving_a_wire_lowers_only_the_registers_in_its_cone() {
        let nodes = |design: &ValidatedDesign| {
            let out = design.design().require("out").unwrap();
            let property = IntervalProperty::new("fanout_property_1", vec![], vec![out]);
            let mut session = MiterSession::new(design, Box::new(Solver::new()));
            let report = session.check(design, &property).unwrap();
            assert!(!report.holds(), "acc diverges without an antecedent");
            report.stats.aig_nodes
        };
        let alone = nodes(&accumulator(false));
        assert!(alone > 0);
        assert_eq!(nodes(&accumulator(true)), alone);
    }

    #[test]
    fn properties_sharing_an_antecedent_share_one_binding_epoch() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        // Same antecedent twice: one epoch.
        let p1 = IntervalProperty::new("a", vec![s1], vec![s2]);
        let p2 = IntervalProperty::new("b", vec![s1], vec![out]);
        session.check(&design, &p1).unwrap();
        session.check(&design, &p2).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 1);
        // A different antecedent rebinds.
        let p3 = IntervalProperty::new("c", vec![s1, s2], vec![out]);
        session.check(&design, &p3).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 2);
    }

    #[test]
    fn unshared_options_still_give_the_same_verdicts() {
        let design = trojan_design();
        let d = design.design();
        let trigger = d.require("trigger").unwrap();
        let data = d.require("data").unwrap();
        for share in [true, false] {
            let options = CheckerOptions {
                share_assumed_equal: share,
                ..CheckerOptions::default()
            };
            let mut session = MiterSession::with_options(&design, options, Box::new(Solver::new()));
            let failing = IntervalProperty::new("init_property", vec![], vec![data]);
            assert!(!session.check(&design, &failing).unwrap().holds());
            // Assuming the trigger state equal discharges the divergence.
            let resolved = IntervalProperty::new("resolved", vec![trigger], vec![data]);
            assert!(session.check(&design, &resolved).unwrap().holds());
        }
    }
}
