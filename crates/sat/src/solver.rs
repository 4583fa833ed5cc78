//! The CDCL solver core.
//!
//! # Solver memory architecture
//!
//! Everything whose size scales with the formula lives in a fixed number of
//! flat buffers — the solver holds **no** per-clause or per-literal heap
//! allocations:
//!
//! * The clause database is an **arena**: one flat `Vec<u32>` holding every
//!   clause as a two-word header (size, LBD/glue, learnt and deleted flags,
//!   plus an `f32` activity word) followed by its literal codes inline — see
//!   [`crate::arena`] for the exact layout.  Clauses are addressed by
//!   [`ClauseRef`] word offsets, and reason references are
//!   `Option<ClauseRef>`.
//! * The watcher lists are a second arena ([`crate::watch`]): one flat
//!   `Vec` of `(ClauseRef, blocker)` pairs plus a per-literal
//!   `(start, len, cap)` range table.  A literal's list is a contiguous
//!   block; insertion grows a full block by amortised doubling (relocating
//!   it to the end of the buffer), and the holes that leaves behind are
//!   reclaimed by the same compaction sweep that collects dead clauses.
//! * Per-variable bookkeeping (assignments, phases, reasons, levels,
//!   activities, …) and the trail are plain flat vectors.
//! * The decision order is an **indexed binary max-heap** over variables,
//!   keyed by `(activity, index)`: a flat `Vec<Var>` heap plus a flat
//!   per-variable slot index, 8 bytes per variable in all.  A variable is in
//!   the heap at most once.  A conflict bump sifts it up in place,
//!   backtracking re-inserts the variables it unassigns, an activity
//!   rescale re-heapifies, and a decision pops past assigned variables.
//!   Every unassigned variable is always in the heap, so the pop is the
//!   argmax of `(activity, index)` over them, and a SAT answer assigns
//!   every variable.
//!
//! Three consequences of the layout drive the incremental detection flow:
//!
//! * **Forking is O(bytes), with a fixed allocation count.**  [`Solver`] is
//!   `Clone`, and a clone is a constant number of flat-buffer memcpys — no
//!   allocation scales with the clause or variable count.
//!   [`snapshot_bytes`](Solver::snapshot_bytes) reports the byte cost of one
//!   clone in O(1) length arithmetic (clause arena + watcher arena +
//!   per-variable bookkeeping + trail; the derived decision-order heap is
//!   excluded, see there), and `SatBackend::fork` records `fork_count` /
//!   `bytes_cloned` in the child's [`SolverStats`] so the cost model is
//!   observable all the way up in `DetectionReport::solver_totals`.
//! * **`ClauseRef`s are stable until compaction.**  Allocation appends,
//!   deletion flips a header bit, and only
//!   [`collect_garbage`](Solver::collect_garbage) moves clauses: one
//!   in-place sweep slides live clauses down over dead ones and returns a
//!   relocation map, which patches the watcher arena in place (watched
//!   positions 0 and 1 are provably unchanged at decision level 0, so no
//!   watch re-selection happens), packs its surviving blocks back-to-back,
//!   and drops the — level-0, never inspected — reason references.
//!   `SolverStats::arena_words_reclaimed` counts the freed words.
//! * **Retirement marks headers dead eagerly.**  When a literal becomes true
//!   at the top level (e.g. a retired activation literal's negation), every
//!   clause *watching* it is permanently satisfied; propagation flips those
//!   headers' deleted bits on the spot.  Dead clauses are therefore counted
//!   in O(1) — [`collect_garbage_if`](Solver::collect_garbage_if) compares
//!   two counters instead of scanning the database — and the physical
//!   reclamation is a single compaction pass.

pub use crate::arena::ClauseRef;
use crate::arena::{ClauseArena, CompactOutcome, RELOC_DEAD};
use crate::backend::Interrupt;
use crate::literal::{Lit, Var};
use crate::watch::{Watcher, WatcherArena};
use std::cmp::Ordering;
use std::sync::Arc;

/// Result of a satisfiability query.
///
/// # Example
///
/// ```
/// use htd_sat::{Lit, SolveResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// s.add_clause([Lit::pos(a)]);
/// s.add_clause([Lit::neg(a)]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; it can be queried through
    /// [`Solver::value`] or [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
    /// The search was abandoned because an installed interrupt check fired
    /// (see [`Solver::set_interrupt`]); the query is undecided.  Never
    /// returned unless an interrupt check is installed.
    Interrupted,
}

/// Aggregate counters describing the work performed by a [`Solver`].
///
/// Useful for the benchmark harness (property-runtime experiments) and for
/// regression tests on solver behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses removed by database reduction.
    pub removed_clauses: u64,
    /// Number of satisfiability queries answered (with or without
    /// assumptions).
    pub solves: u64,
    /// Number of clause garbage collections performed (arena compactions
    /// removing clauses retired by top-level units).
    pub gc_runs: u64,
    /// Total clauses physically removed by garbage collection (satisfied at
    /// the top level — e.g. behind retired activation literals — or already
    /// marked deleted by database reduction).
    pub clauses_collected: u64,
    /// Sum of the LBD ("glue") values of all clauses learnt so far; divide by
    /// the number of conflicts for the average glue, a quality measure of the
    /// learnt database.
    pub learnt_lbd_sum: u64,
    /// Snapshot forks recorded against this solver lineage: bumped on the
    /// child at every `SatBackend::fork`, and accounted per consumed solve
    /// task by the incremental session so the counter is schedule-invariant
    /// in flow reports.
    pub fork_count: u64,
    /// Bytes copied by the recorded forks (see
    /// [`Solver::snapshot_bytes`]): the O(bytes) cost model of the arena
    /// store — proportional to the live database size, never to the clause
    /// count.
    pub bytes_cloned: u64,
    /// Arena words freed by garbage-collection compaction sweeps.
    pub arena_words_reclaimed: u64,
}

impl SolverStats {
    /// Adds another stats record counter-by-counter (used to sum per-query
    /// work into property rows, flow totals and the daemon's totals).
    /// `learnt_clauses` is a gauge, not a counter; summed values are only
    /// meaningful for per-query deltas.
    pub fn accumulate(&mut self, other: &SolverStats) {
        // Exhaustive destructuring on purpose: adding a field to
        // `SolverStats` without deciding how it aggregates must be a compile
        // error here (and in `delta_since`), not a silently dropped counter
        // in `DetectionReport::solver_totals`.
        let SolverStats {
            decisions,
            propagations,
            conflicts,
            restarts,
            learnt_clauses,
            removed_clauses,
            solves,
            gc_runs,
            clauses_collected,
            learnt_lbd_sum,
            fork_count,
            bytes_cloned,
            arena_words_reclaimed,
        } = *other;
        self.decisions += decisions;
        self.propagations += propagations;
        self.conflicts += conflicts;
        self.restarts += restarts;
        self.learnt_clauses += learnt_clauses;
        self.removed_clauses += removed_clauses;
        self.solves += solves;
        self.gc_runs += gc_runs;
        self.clauses_collected += clauses_collected;
        self.learnt_lbd_sum += learnt_lbd_sum;
        self.fork_count += fork_count;
        self.bytes_cloned += bytes_cloned;
        self.arena_words_reclaimed += arena_words_reclaimed;
    }

    /// The counter-wise difference `self - earlier` (used to attribute work
    /// to one query given snapshots before and after).  The `learnt_clauses`
    /// gauge is also differenced, saturating at zero.
    #[must_use]
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        // Exhaustive destructuring — see `accumulate`.
        let SolverStats {
            decisions,
            propagations,
            conflicts,
            restarts,
            learnt_clauses,
            removed_clauses,
            solves,
            gc_runs,
            clauses_collected,
            learnt_lbd_sum,
            fork_count,
            bytes_cloned,
            arena_words_reclaimed,
        } = *earlier;
        SolverStats {
            decisions: self.decisions - decisions,
            propagations: self.propagations - propagations,
            conflicts: self.conflicts - conflicts,
            restarts: self.restarts - restarts,
            learnt_clauses: self.learnt_clauses.saturating_sub(learnt_clauses),
            removed_clauses: self.removed_clauses - removed_clauses,
            solves: self.solves - solves,
            gc_runs: self.gc_runs - gc_runs,
            clauses_collected: self.clauses_collected - clauses_collected,
            learnt_lbd_sum: self.learnt_lbd_sum - learnt_lbd_sum,
            fork_count: self.fork_count - fork_count,
            bytes_cloned: self.bytes_cloned - bytes_cloned,
            arena_words_reclaimed: self.arena_words_reclaimed - arena_words_reclaimed,
        }
    }
}

/// [`VarOrder::pos`] value of a variable that is not in the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// The decision order: a binary max-heap of variables keyed by
/// `(activity, index)` that holds each variable at most once.  Keys are read
/// from the solver's activity column on every comparison, so the heap
/// stores variables only; `pos` maps each variable to its heap slot, which
/// lets a bump sift the variable in place instead of pushing a copy.
#[derive(Clone, Debug, Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Heap slot of every variable, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
}

/// `true` if `a` ranks above `b`: higher activity, ties to the higher index.
/// Activities are finite and non-NaN by construction.
fn ranks_above(activity: &[f64], a: Var, b: Var) -> bool {
    let (x, y) = (activity[a.index() as usize], activity[b.index() as usize]);
    x > y || (x == y && a > b)
}

impl VarOrder {
    fn add_var(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    /// Inserts `v` unless it is already in the heap.
    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.pos[v.index() as usize] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap after `v`'s activity grew; a no-op if `v` is not in
    /// the heap.
    fn increased(&mut self, v: Var, activity: &[f64]) {
        let slot = self.pos[v.index() as usize];
        if slot != NOT_IN_HEAP {
            self.sift_up(slot as usize, activity);
        }
    }

    /// Removes and returns the top-ranked variable.
    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.pos[top.index() as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establishes the heap property over the whole heap, after every
    /// key changed at once (an activity rescale).
    fn rebuild(&mut self, activity: &[f64]) {
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot, activity);
        }
    }

    fn place(&mut self, slot: usize, v: Var) {
        self.heap[slot] = v;
        self.pos[v.index() as usize] = slot as u32;
    }

    fn sift_up(&mut self, mut slot: usize, activity: &[f64]) {
        let v = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let p = self.heap[parent];
            if !ranks_above(activity, v, p) {
                break;
            }
            self.place(slot, p);
            slot = parent;
        }
        self.place(slot, v);
    }

    fn sift_down(&mut self, mut slot: usize, activity: &[f64]) {
        let v = self.heap[slot];
        loop {
            let left = 2 * slot + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && ranks_above(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !ranks_above(activity, c, v) {
                break;
            }
            self.place(slot, c);
            slot = child;
        }
        self.place(slot, v);
    }
}

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f32 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Clause activities are `f32` words in the arena, so they rescale much
/// earlier than the `f64` variable activities.
const CLAUSE_RESCALE_LIMIT: f32 = 1e20;
const RESTART_BASE: u64 = 100;
/// Learnt clauses with an LBD at or below this are kept by database
/// reduction regardless of activity ("glue clauses").
const GLUE_LBD: u32 = 2;

/// Default [`Solver::set_gc_thresholds`] dead fraction: compact once a
/// quarter of the database is dead; below that the propagation savings do
/// not pay for the compaction sweep.
pub const DEFAULT_GC_DEAD_FRACTION: f64 = 0.25;

/// Default [`Solver::set_gc_thresholds`] minimum database size.
pub const DEFAULT_GC_MIN_CLAUSES: usize = 128;

/// A conflict-driven clause-learning SAT solver.
///
/// The solver is `Clone`: a clone is an independent snapshot sharing no
/// state, and the only backend `SatBackend::fork` (in this crate) copies;
/// tests and the benchmark harness fork never-run masters.  Because
/// the clause database is a flat arena, the clone cost is proportional to
/// its byte size — [`snapshot_bytes`](Self::snapshot_bytes) — not to the
/// clause count: every clause lives inline in one flat word arena, and the
/// watcher lists in another.
///
/// A decision assigns the variable its saved phase: the value it last held,
/// or true if it was never assigned.  A true AND-gate output makes both of
/// the gate's Tseitin binary clauses `(¬x ∨ a)`, `(¬x ∨ b)` unit, so one
/// decision fixes the gate's whole fanin; a false one makes no clause unit.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    arena: ClauseArena,
    /// Clauses in the arena that can still participate in a query.
    live_clauses: usize,
    /// Clauses in the arena whose deleted header bit is set (flagged by
    /// database reduction or by eager satisfied-marking at the top level),
    /// awaiting physical removal by the next compaction.
    dead_clauses: usize,
    watches: WatcherArena,
    assigns: Vec<Option<bool>>,
    phase: Vec<bool>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarOrder,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    seen: Vec<bool>,
    model: Vec<Option<bool>>,
    ok: bool,
    stats: SolverStats,
    max_learnt: f64,
    /// The stop predicate polled during search; clones share it.
    interrupt: Option<Interrupt>,
    /// Fraction of the clause database that must be dead before
    /// [`collect_garbage_if`](Self::collect_garbage_if) compacts.
    gc_dead_fraction: f64,
    /// Minimum database size before garbage collection is considered at all.
    gc_min_clauses: usize,
    /// Scratch buffer [`add_clause`](Self::add_clause) simplifies in, kept
    /// empty between calls (so clones copy nothing) but never shrunk, so
    /// adding a clause allocates only when an arena grows.
    clause_buf: Vec<Lit>,
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnt: 2000.0,
            gc_dead_fraction: DEFAULT_GC_DEAD_FRACTION,
            gc_min_clauses: DEFAULT_GC_MIN_CLAUSES,
            ..Default::default()
        }
    }

    /// Sets the garbage-collection thresholds used by
    /// [`collect_garbage_if`](Self::collect_garbage_if) (and by the
    /// [`SatBackend`](crate::SatBackend) `collect_garbage` hook): compaction
    /// runs once at least `dead_fraction` of a database of at least
    /// `min_clauses` clauses is dead.  Clones ([`SatBackend::fork`]) inherit
    /// the thresholds.
    ///
    /// [`SatBackend::fork`]: crate::SatBackend::fork
    pub fn set_gc_thresholds(&mut self, dead_fraction: f64, min_clauses: usize) {
        self.gc_dead_fraction = dead_fraction.clamp(0.0, 1.0);
        self.gc_min_clauses = min_clauses;
    }

    /// The configured `(dead_fraction, min_clauses)` garbage-collection
    /// thresholds.
    #[must_use]
    pub fn gc_thresholds(&self) -> (f64, usize) {
        (self.gc_dead_fraction, self.gc_min_clauses)
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len() as u32);
        self.assigns.push(None);
        self.phase.push(true);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.model.push(None);
        self.watches.add_literal();
        self.watches.add_literal();
        self.order.add_var();
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (problem and learnt): clauses whose header is
    /// not flagged deleted.  Maintained as a counter — the arena is never
    /// scanned to answer this.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Words currently held by the clause arena (live and dead clauses
    /// alike): the dominant term of [`snapshot_bytes`](Self::snapshot_bytes)
    /// is four times this.
    #[must_use]
    pub fn arena_words(&self) -> usize {
        self.arena.words()
    }

    /// The byte cost of cloning this solver — the fork cost model of the
    /// arena-backed store, computed in O(1) from buffer lengths (no list is
    /// ever walked).  Counts the clause arena, the watcher arena, the
    /// per-variable bookkeeping arrays and the trail (all length-derived, so
    /// two solvers that executed the same operations report identical
    /// bytes).
    ///
    /// The decision-order heap (at most 8 bytes per variable) is excluded.
    /// It is derived state: the unassigned variables ordered by activity,
    /// which the columns above determine.  Its length at a fork also
    /// depends on which assigned variables earlier decisions happened to
    /// pop, so counting it would tie the cost model to search history
    /// instead of to the formula.
    /// `SatBackend::fork` records this value in the child's
    /// [`SolverStats::bytes_cloned`].
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        let arena = self.arena.words() * 4;
        let per_var = self.num_vars()
            * (std::mem::size_of::<Option<bool>>() * 2 // assigns + model
                + std::mem::size_of::<bool>() * 2 // phase + seen
                + std::mem::size_of::<Option<ClauseRef>>()
                + std::mem::size_of::<u32>() // level
                + std::mem::size_of::<f64>()); // activity
        let trail = self.trail.len() * std::mem::size_of::<Lit>();
        (arena + per_var + trail) as u64 + self.watches.bytes()
    }

    /// Solver work counters accumulated since construction.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Records one fork of `bytes` bytes in the stats (called by
    /// `SatBackend::fork` on the freshly cloned child).
    pub(crate) fn record_fork(&mut self, bytes: u64) {
        self.stats.fork_count += 1;
        self.stats.bytes_cloned += bytes;
    }

    /// Sets the learnt-clause count above which the solver halves its learnt
    /// database at the next restart (default 2000; the limit grows by 1.3x
    /// after every reduction).  Exposed as a tuning knob and so tests can
    /// force database reduction on small formulas.
    pub fn set_learnt_limit(&mut self, limit: f64) {
        self.max_learnt = limit;
    }

    /// Installs an interrupt check polled during search (at search entry,
    /// after every conflict, every 1024 decisions, and at every restart
    /// boundary) and passed the solver's conflict count so far
    /// ([`SolverStats::conflicts`]).  When it returns `true` the current
    /// query is abandoned with [`SolveResult::Interrupted`]; the formula and
    /// all learnt clauses remain valid and the solver can be queried again.
    ///
    /// The detection flow installs its one stop predicate here, so a
    /// cancelled job stops mid-search, and a conflict ceiling needs nothing
    /// but the count the predicate is passed.
    pub fn set_interrupt(&mut self, check: Arc<dyn Fn(u64) -> bool + Send + Sync>) {
        self.interrupt = Some(Interrupt(check));
    }

    /// Removes the interrupt check installed by
    /// [`set_interrupt`](Self::set_interrupt).
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// `true` if the installed interrupt check (if any) fires at the
    /// current conflict count.
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|check| check.fires(self.stats.conflicts))
    }

    /// Adds a clause (a disjunction of literals) to the formula.
    ///
    /// Returns `false` if the formula has become trivially unsatisfiable at
    /// the top level (e.g. because the clause was empty after simplification),
    /// `true` otherwise.  Duplicate literals are removed and tautological
    /// clauses are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that has not been allocated
    /// with [`new_var`](Self::new_var).
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        let mut buf = std::mem::take(&mut self.clause_buf);
        buf.extend(lits);
        let ok = self.add_clause_in(&mut buf);
        buf.clear();
        self.clause_buf = buf;
        ok
    }

    /// [`add_clause`](Self::add_clause) on a buffer it may reorder and
    /// shrink: the literals are sorted and deduplicated, then those false at
    /// the top level are dropped in place.
    fn add_clause_in(&mut self, lits: &mut Vec<Lit>) -> bool {
        for l in lits.iter() {
            assert!(
                (l.var().index() as usize) < self.num_vars(),
                "literal {l:?} refers to an unallocated variable"
            );
        }
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0);
        lits.sort_unstable();
        lits.dedup();
        // Tautology / top-level simplification.  Survivors slide down to
        // `kept <= i`, so the look-ahead at `i + 1` still reads the input.
        let mut kept = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                // p and !p both present: tautology.
                return true;
            }
            match self.lit_value(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(lits, false);
                true
            }
        }
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// Assumptions are treated as temporary unit decisions: the result is
    /// relative to them, and they are retracted afterwards so the solver can
    /// be reused with different assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions);
        if result == SolveResult::Sat {
            self.model = self.assigns.clone();
        }
        self.cancel_until(0);
        result
    }

    /// The value of `var` in the most recent satisfying assignment, or `None`
    /// if the last call did not return [`SolveResult::Sat`] (or the variable
    /// did not exist then).
    #[must_use]
    pub fn value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index() as usize).copied().flatten()
    }

    /// The most recent model as a vector indexed by variable index.
    #[must_use]
    pub fn model(&self) -> &[Option<bool>] {
        &self.model
    }

    /// `true` if the formula has already been proven unsatisfiable at the top
    /// level (no assumptions necessary).
    #[must_use]
    pub fn is_known_unsat(&self) -> bool {
        !self.ok
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn var_value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index() as usize]
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.var_value(l.var()).map(|b| l.apply(b))
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cr = self.arena.alloc(lits, learnt);
        self.live_clauses += 1;
        let w0 = Watcher {
            clause: cr,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: cr,
            blocker: lits[0],
        };
        self.watches.push((!lits[0]).code(), w0);
        self.watches.push((!lits[1]).code(), w1);
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cr
    }

    /// Flags a clause's header deleted and keeps the live/dead counters and
    /// the learnt gauge consistent.  Physical removal happens at the next
    /// compaction.
    fn mark_dead(&mut self, cr: ClauseRef) {
        debug_assert!(!self.arena.is_deleted(cr));
        self.arena.set_deleted(cr);
        self.live_clauses -= 1;
        self.dead_clauses += 1;
        if self.arena.is_learnt(cr) {
            self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(1);
        }
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        let v = l.var().index() as usize;
        debug_assert!(self.assigns[v].is_none());
        self.assigns[v] = Some(!l.is_negated());
        self.phase[v] = !l.is_negated();
        self.reason[v] = reason;
        self.level[v] = self.decision_level() as u32;
        self.trail.push(l);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail length checked above");
            let v = l.var();
            let vi = v.index() as usize;
            self.assigns[vi] = None;
            self.reason[vi] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    /// A literal became true at the top level: every clause *watching* it is
    /// permanently satisfied, so its header is flagged dead right here (the
    /// retirement path of incremental clients — a retired activation
    /// literal's guard clauses watch the literal that just went true).  The
    /// eager flag keeps the dead-clause count an O(1) counter and turns the
    /// next garbage collection into a pure compaction sweep; clauses
    /// satisfied only through an unwatched literal are still caught by the
    /// sweep itself.
    fn mark_satisfied_at_root(&mut self, p: Lit) {
        debug_assert_eq!(self.decision_level(), 0);
        // Clauses watching `p` registered themselves under (!p).code().
        let code = (!p).code();
        for k in 0..self.watches.len(code) {
            let cr = self.watches.get(code, k).clause;
            if !self.arena.is_deleted(cr) {
                self.mark_dead(cr);
            }
        }
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        let at_root = self.trail_lim.is_empty();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            if at_root {
                self.mark_satisfied_at_root(p);
            }
            // Two-cursor compaction within p's range: `read` scans the
            // watchers, `keep` writes the survivors back over the prefix.
            // Pushes during the scan only ever target *other* literals'
            // ranges (asserted below), and a push relocates only the pushed
            // literal's block, so p's range stays put throughout.
            let code = p.code();
            let mut read = 0usize;
            let mut keep = 0usize;
            let mut conflict: Option<ClauseRef> = None;
            while read < self.watches.len(code) {
                let w = self.watches.get(code, read);
                read += 1;
                if self.arena.is_deleted(w.clause) {
                    continue;
                }
                if self.lit_value(w.blocker) == Some(true) {
                    self.watches.set(code, keep, w);
                    keep += 1;
                    continue;
                }
                let cr = w.clause;
                let false_lit = !p;
                if self.arena.lit(cr, 0) == false_lit {
                    self.arena.swap_lits(cr, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cr, 1), false_lit);
                let first = self.arena.lit(cr, 0);
                let new_watcher = Watcher {
                    clause: cr,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    self.watches.set(code, keep, new_watcher);
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = false;
                for k in 2..self.arena.len(cr) {
                    let lk = self.arena.lit(cr, k);
                    if self.lit_value(lk) != Some(false) {
                        self.arena.swap_lits(cr, 1, k);
                        let watch_on = !self.arena.lit(cr, 1);
                        debug_assert_ne!(watch_on, p);
                        self.watches.push(watch_on.code(), new_watcher);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit under the current assignment, or conflicting.
                self.watches.set(code, keep, new_watcher);
                keep += 1;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(cr);
                    self.qhead = self.trail.len();
                    // Slide the unexamined tail down over the gap.
                    while read < self.watches.len(code) {
                        let w = self.watches.get(code, read);
                        self.watches.set(code, keep, w);
                        keep += 1;
                        read += 1;
                    }
                    break;
                }
                self.unchecked_enqueue(first, Some(cr));
            }
            self.watches.truncate(code, keep);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let vi = v.index() as usize;
        self.activity[vi] += self.var_inc;
        if self.activity[vi] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
            // Scaling can round distinct activities into ties, which the
            // index then breaks differently: every key moved, so re-heapify.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    fn bump_clause(&mut self, cr: ClauseRef) {
        let activity = self.arena.activity(cr) + self.cla_inc;
        self.arena.set_activity(cr, activity);
        if activity > CLAUSE_RESCALE_LIMIT {
            self.arena.scale_activities(1.0 / CLAUSE_RESCALE_LIMIT);
            self.cla_inc *= 1.0 / CLAUSE_RESCALE_LIMIT;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut path_count: u32 = 0;
        let mut index = self.trail.len();
        let asserting: Option<Lit>;
        let current_level = self.decision_level() as u32;
        let mut skip_var: Option<Var> = None;

        loop {
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
            }
            // Literals are read straight out of the arena by index — no
            // per-conflict clause copy.
            for k in 0..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                if Some(q.var()) == skip_var {
                    continue;
                }
                let qv = q.var().index() as usize;
                if !self.seen[qv] && self.level[qv] > 0 {
                    self.seen[qv] = true;
                    self.bump_var(q.var());
                    if self.level[qv] >= current_level {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next seen literal from the trail.
            let p = loop {
                index -= 1;
                let cand = self.trail[index];
                if self.seen[cand.var().index() as usize] {
                    break cand;
                }
            };
            self.seen[p.var().index() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                asserting = Some(!p);
                break;
            }
            confl = self.reason[p.var().index() as usize]
                .expect("non-UIP literal at the conflict level must have a reason");
            skip_var = Some(p.var());
        }

        let asserting = asserting.expect("loop always terminates with an asserting literal");

        // Conflict-clause minimisation: drop literals implied by the rest.
        for &l in &learnt {
            self.seen[l.var().index() as usize] = true;
        }
        let mut minimised: Vec<Lit> = Vec::with_capacity(learnt.len());
        for &l in &learnt {
            if !self.is_redundant(l) {
                minimised.push(l);
            }
        }
        for &l in &learnt {
            self.seen[l.var().index() as usize] = false;
        }

        let mut clause = Vec::with_capacity(minimised.len() + 1);
        clause.push(asserting);
        clause.extend(minimised);

        // Compute the backtrack level: the second-highest level in the clause.
        let bt_level = if clause.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..clause.len() {
                if self.level[clause[i].var().index() as usize]
                    > self.level[clause[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            clause.swap(1, max_i);
            self.level[clause[1].var().index() as usize] as usize
        };

        (clause, bt_level)
    }

    /// A learnt-clause literal is redundant if its reason clause contains only
    /// literals that are already marked `seen` (or assigned at level 0).
    fn is_redundant(&self, l: Lit) -> bool {
        let vi = l.var().index() as usize;
        let Some(cr) = self.reason[vi] else {
            return false;
        };
        (0..self.arena.len(cr)).all(|k| {
            let q = self.arena.lit(cr, k);
            let qv = q.var().index() as usize;
            q.var() == l.var() || self.seen[qv] || self.level[qv] == 0
        })
    }

    /// The unassigned variable of highest `(activity, index)`.  Every
    /// unassigned variable is in the heap, so popping past assigned ones
    /// reaches it.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.var_value(v).is_none() {
                return Some(v);
            }
        }
        None
    }

    /// Halves the learnt-clause database, keeping the clauses most likely to
    /// be useful again: glue clauses (LBD ≤ [`GLUE_LBD`]) are always kept,
    /// and the rest are ranked by LBD first and activity second.
    ///
    /// Removal flags arena headers dead and detaches exactly the watchers of
    /// the dropped clauses — work proportional to the number of flagged
    /// clauses; the arena words are reclaimed by the next
    /// [`collect_garbage`](Self::collect_garbage) compaction sweep.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let locked: std::collections::HashSet<ClauseRef> =
            self.reason.iter().filter_map(|r| *r).collect();
        let mut learnt_refs: Vec<ClauseRef> = self
            .arena
            .refs()
            .filter(|&cr| {
                self.arena.is_learnt(cr)
                    && !self.arena.is_deleted(cr)
                    && self.arena.len(cr) > 2
                    && self.arena.lbd(cr) > GLUE_LBD
                    && !locked.contains(&cr)
            })
            .collect();
        if learnt_refs.len() < 2 {
            return;
        }
        // Worst first: high LBD, then low activity (ties broken by arena
        // offset so the order — and therefore the search — is deterministic).
        learnt_refs.sort_by(|&a, &b| {
            self.arena
                .lbd(b)
                .cmp(&self.arena.lbd(a))
                .then_with(|| {
                    self.arena
                        .activity(a)
                        .partial_cmp(&self.arena.activity(b))
                        .unwrap_or(Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        });
        let to_remove = learnt_refs.len() / 2;
        let mut removed = 0;
        for &cr in learnt_refs.iter().take(to_remove) {
            self.mark_dead(cr);
            self.detach_watchers(cr);
            removed += 1;
        }
        self.stats.removed_clauses += removed;
    }

    /// Removes the two watcher entries of a clause (watchers live on the
    /// negations of the first two literals — the invariant `propagate`
    /// maintains).  Each removal is a swap-remove within the literal's
    /// range: O(list length) to find the entry but O(1) to drop it, instead
    /// of the two full `retain` rebuilds the nested-`Vec` layout needed.
    fn detach_watchers(&mut self, cr: ClauseRef) {
        let l0 = self.arena.lit(cr, 0);
        let l1 = self.arena.lit(cr, 1);
        self.watches.detach((!l0).code(), cr);
        self.watches.detach((!l1).code(), cr);
    }

    /// Physically removes dead clauses from the arena: clauses flagged
    /// deleted (by database reduction, or eagerly when a top-level unit
    /// satisfied them — the retired-activation-literal path of incremental
    /// clients) and clauses satisfied at the top level through an unwatched
    /// literal.  Literals falsified at the top level (e.g. positive
    /// occurrences of retired activation literals inside learnt clauses) are
    /// stripped from the surviving clauses.
    ///
    /// The sweep is a single in-place compaction pass over the arena
    /// (the arena's `compact`): survivors slide down, and the returned
    /// relocation map patches the watcher lists in place — watched positions
    /// are provably stable at decision level 0, so no watch re-selection or
    /// re-propagation happens.  Must be called at decision level 0 (between
    /// queries).  Returns the number of clauses collected.
    pub fn collect_garbage(&mut self) -> u64 {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return 0;
        }
        let assigns = &self.assigns;
        let CompactOutcome {
            reloc,
            collected,
            learnt_removed,
            units,
            found_empty,
            survivors,
            words_reclaimed,
        } = self
            .arena
            .compact(|l| assigns[l.var().index() as usize].map(|b| l.apply(b)));
        if found_empty {
            // All literals of some clause were false at the top level: the
            // formula is unsatisfiable (cannot normally happen after complete
            // propagation, but stay sound).
            self.ok = false;
        }
        self.live_clauses = survivors;
        self.dead_clauses = 0;
        // Patch the watcher arena through the relocation map: watchers of
        // collected clauses drop out, survivors keep their (unchanged)
        // watched positions under their new offsets.  The same sweep packs
        // the watcher buffer — holes and doubling slack left by block
        // growth are reclaimed here, on the clause-GC cadence.
        self.watches.sweep(|w| {
            let new = reloc[w.clause.0 as usize];
            if new == RELOC_DEAD {
                return false;
            }
            w.clause = ClauseRef(new);
            true
        });
        // Old clause references are invalid now.  At level 0 no reason is
        // ever inspected (conflict analysis skips level-0 literals), so they
        // are simply dropped.
        for r in &mut self.reason {
            *r = None;
        }
        // Units uncovered by stripping are enqueued and propagated now; the
        // surviving watches are already consistent, so propagation only
        // processes the new units.
        for u in units {
            match self.lit_value(u) {
                Some(false) => {
                    self.ok = false;
                }
                Some(true) => {}
                None => self.unchecked_enqueue(u, None),
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
        }
        self.stats.gc_runs += 1;
        self.stats.clauses_collected += collected;
        self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(learnt_removed);
        self.stats.arena_words_reclaimed += words_reclaimed;
        collected
    }

    /// Runs [`collect_garbage`](Self::collect_garbage) only when at least
    /// `min_fraction` of the clause database is flagged dead.  Thanks to the
    /// eager satisfied-marking in propagation, the check compares two
    /// counters — no database scan.  Returns the number of clauses collected
    /// (0 when below the threshold).
    pub fn collect_garbage_if(&mut self, min_fraction: f64) -> u64 {
        let total = self.live_clauses + self.dead_clauses;
        if total < self.gc_min_clauses || !self.ok || self.decision_level() != 0 {
            return 0;
        }
        if (self.dead_clauses as f64) < min_fraction * total as f64 {
            return 0;
        }
        self.collect_garbage()
    }

    /// The literal-block distance of a clause whose literals are currently
    /// assigned: the number of distinct decision levels it touches.
    fn clause_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().index() as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn search(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.interrupted() {
            return SolveResult::Interrupted;
        }
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_count: u64 = 0;
        let mut restart_limit = RESTART_BASE * Self::luby_value(restart_count);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.interrupted() {
                    self.cancel_until(0);
                    return SolveResult::Interrupted;
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt_level) = self.analyze(confl);
                // LBD must be computed while the clause's literals are still
                // assigned (before backtracking).
                let lbd = self.clause_lbd(&learnt);
                self.stats.learnt_lbd_sum += u64::from(lbd);
                self.cancel_until(bt_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let cr = self.attach_clause(&learnt, true);
                    self.arena.set_lbd(cr, lbd);
                    self.bump_clause(cr);
                    self.unchecked_enqueue(asserting, Some(cr));
                }
                self.decay_activities();
            } else {
                // No conflict.
                if conflicts_since_restart >= restart_limit {
                    // Restart boundaries are the cheapest place to honour a
                    // cancellation promptly — the trail is about to be torn
                    // down anyway — so doomed-task and job cancels are
                    // never stretched across a whole restart interval.
                    if self.interrupted() {
                        self.cancel_until(0);
                        return SolveResult::Interrupted;
                    }
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_limit = RESTART_BASE * Self::luby_value(restart_count);
                    self.cancel_until(0);
                    if self.stats.learnt_clauses as f64 > self.max_learnt {
                        self.reduce_db();
                        self.max_learnt *= 1.3;
                    }
                    continue;
                }
                // Apply pending assumptions, one decision level each.
                let mut assumption_conflict = false;
                while self.decision_level() < assumptions.len() {
                    let a = assumptions[self.decision_level()];
                    match self.lit_value(a) {
                        Some(true) => {
                            self.new_decision_level();
                        }
                        Some(false) => {
                            assumption_conflict = true;
                            break;
                        }
                        None => {
                            self.new_decision_level();
                            self.unchecked_enqueue(a, None);
                            break;
                        }
                    }
                }
                if assumption_conflict {
                    return SolveResult::Unsat;
                }
                if self.qhead < self.trail.len() {
                    continue;
                }
                // Regular decision.
                match self.pick_branch_var() {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        if self.stats.decisions & 1023 == 0 && self.interrupted() {
                            self.cancel_until(0);
                            return SolveResult::Interrupted;
                        }
                        self.new_decision_level();
                        let phase = self.phase[v.index() as usize];
                        self.unchecked_enqueue(Lit::new(v, !phase), None);
                    }
                }
            }
        }
    }

    /// `luby(i)` for the restart schedule, with a simple, clearly-correct
    /// recursive definition (the sequence is short in practice).
    fn luby_value(mut i: u64) -> u64 {
        // Find the finite subsequence that contains index `i`, and the size of
        // that subsequence.
        let mut size = 1u64;
        while size < i + 1 {
            size = 2 * size + 1;
        }
        while size - 1 != i {
            size = (size - 1) / 2;
            i %= size;
        }
        size.div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() - 1) as usize];
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn make_solver(num_vars: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = (0..num_vars).map(|_| s.new_var()).collect();
        (s, vars)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let (mut s, v) = make_solver(1);
        s.add_clause([lit(&v, 1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let (mut s, v) = make_solver(1);
        s.add_clause([lit(&v, 1)]);
        assert!(!s.add_clause([lit(&v, -1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.is_known_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        // (x1) & (!x1 | x2) & (!x2 | x3) forces x3.
        let (mut s, v) = make_solver(3);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -1), lit(&v, 2)]);
        s.add_clause([lit(&v, -2), lit(&v, 3)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p1h1, p2h1, !(p1h1 & p2h1)
        let (mut s, v) = make_solver(2);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, 2)]);
        s.add_clause([lit(&v, -1), lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j}: pigeon i sits in hole j (i in 0..3, j in 0..2).
        let (mut s, v) = make_solver(6);
        let p = |i: usize, j: usize| lit(&v, (i * 2 + j + 1) as i32);
        // Every pigeon in some hole.
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        // No two pigeons share a hole.
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// PHP(7,6): pigeon i (0..7) sits in hole j (0..6) — unsatisfiable,
    /// and hard enough to force several Luby restarts.
    fn php_7_6() -> Solver {
        let (mut s, v) = make_solver(42);
        let p = |i: usize, j: usize| lit(&v, (i * 6 + j + 1) as i32);
        for i in 0..7 {
            s.add_clause((0..6).map(|j| p(i, j)));
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn the_interrupt_check_is_polled_at_restart_boundaries() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut s = php_7_6();
        let polls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&polls);
        s.set_interrupt(Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            false
        }));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.restarts >= 1, "PHP(7,6) must restart: {stats:?}");
        // Poll sites: one at search entry, one after every conflict, one per
        // 1024 decisions, and one at every restart boundary.  Dropping the
        // restart-boundary poll makes this undercount by exactly `restarts`.
        let expected = 1 + stats.conflicts + stats.decisions / 1024 + stats.restarts;
        assert_eq!(polls.load(Ordering::Relaxed), expected);
    }

    /// The interrupt check is passed the solver's conflict count, so a
    /// conflict ceiling needs no charging: the search stops at the first
    /// poll that fires, right after the conflict that reached the count,
    /// and a later query starts from the count the solver already holds.
    #[test]
    fn the_interrupt_check_is_passed_the_conflict_count() {
        use std::sync::Mutex;
        let mut s = php_7_6();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        s.set_interrupt(Arc::new(move |conflicts| {
            record.lock().unwrap().push(conflicts);
            conflicts >= 3
        }));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert_eq!(s.stats().conflicts, 3);
        // Polled at search entry (0) and after each conflict.
        assert_eq!(*seen.lock().unwrap(), [0, 1, 2, 3]);
        // The count is the solver's own: a fresh query polls from 3 on and
        // stops at its entry.
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert_eq!(s.stats().conflicts, 3);
        s.clear_interrupt();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_is_sat_with_consistent_model() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0
        let (mut s, v) = make_solver(3);
        let add_xor = |s: &mut Solver, a: Lit, b: Lit, val: bool| {
            if val {
                s.add_clause([a, b]);
                s.add_clause([!a, !b]);
            } else {
                s.add_clause([!a, b]);
                s.add_clause([a, !b]);
            }
        };
        add_xor(&mut s, lit(&v, 1), lit(&v, 2), true);
        add_xor(&mut s, lit(&v, 2), lit(&v, 3), true);
        add_xor(&mut s, lit(&v, 1), lit(&v, 3), false);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m1 = s.value(v[0]).unwrap();
        let m2 = s.value(v[1]).unwrap();
        let m3 = s.value(v[2]).unwrap();
        assert!(m1 ^ m2);
        assert!(m2 ^ m3);
        assert!(!(m1 ^ m3));
    }

    #[test]
    fn xor_chain_inconsistent_is_unsat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is inconsistent.
        let (mut s, v) = make_solver(3);
        let add_xor = |s: &mut Solver, a: Lit, b: Lit, val: bool| {
            if val {
                s.add_clause([a, b]);
                s.add_clause([!a, !b]);
            } else {
                s.add_clause([!a, b]);
                s.add_clause([a, !b]);
            }
        };
        add_xor(&mut s, lit(&v, 1), lit(&v, 2), true);
        add_xor(&mut s, lit(&v, 2), lit(&v, 3), true);
        add_xor(&mut s, lit(&v, 1), lit(&v, 3), true);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let (mut s, v) = make_solver(2);
        s.add_clause([lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // Conflicting assumptions make it unsat, but only temporarily.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumption_of_already_implied_literal() {
        let (mut s, v) = make_solver(2);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -1), lit(&v, 2)]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 1), lit(&v, 2)]),
            SolveResult::Sat
        );
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -2)]), SolveResult::Unsat);
        // Formula itself stays satisfiable.
        assert!(!s.is_known_unsat());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let (mut s, v) = make_solver(2);
        assert!(s.add_clause([lit(&v, 1), lit(&v, -1)]));
        assert!(s.add_clause([lit(&v, 2)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn duplicate_literals_are_deduplicated() {
        let (mut s, v) = make_solver(1);
        assert!(s.add_clause([lit(&v, 1), lit(&v, 1), lit(&v, 1)]));
        assert_eq!(s.num_clauses(), 0); // became a unit assignment, not a clause
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn model_assigns_every_variable() {
        let (mut s, v) = make_solver(5);
        s.add_clause([lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for var in &v {
            assert!(s.value(*var).is_some(), "variable {var:?} left unassigned");
        }
    }

    #[test]
    fn stats_are_populated() {
        let (mut s, v) = make_solver(3);
        s.add_clause([lit(&v, 1), lit(&v, 2)]);
        s.add_clause([lit(&v, -1), lit(&v, 3)]);
        s.solve();
        let st = s.stats();
        assert!(st.decisions > 0 || st.propagations > 0);
    }

    #[test]
    fn a_first_decision_branches_true_and_fixes_an_and_gates_fanin() {
        // x <-> a & b, with x allocated last: the newest variable is picked
        // first, and deciding it true makes both binary clauses unit.
        let (mut s, v) = make_solver(3);
        let (a, b, x) = (1, 2, 3);
        s.add_clause([lit(&v, -x), lit(&v, a)]);
        s.add_clause([lit(&v, -x), lit(&v, b)]);
        s.add_clause([lit(&v, -a), lit(&v, -b), lit(&v, x)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().decisions, 1);
        for var in &v {
            assert_eq!(s.value(*var), Some(true), "{var:?}");
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby_value(i as u64), e, "luby({i})");
        }
    }

    /// At-most-one constraints plus at-least-one over n variables with a
    /// forbidden assignment: forces the solver through real conflict analysis.
    #[test]
    fn exactly_one_with_forbidden_choices() {
        let n = 8;
        let (mut s, v) = make_solver(n);
        let lits: Vec<Lit> = (1..=n as i32).map(|i| lit(&v, i)).collect();
        s.add_clause(lits.clone());
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_clause([!lits[i], !lits[j]]);
            }
        }
        // Forbid the first n-1 choices.
        for l in lits.iter().take(n - 1) {
            s.add_clause([!*l]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[n - 1]), Some(true));
    }

    /// The arena cost model: clone bytes grow with the literal payload, and
    /// `snapshot_bytes` is derived from lengths only, so two solvers with the
    /// same content report the same cost.
    #[test]
    fn snapshot_bytes_track_the_arena() {
        let (mut s, v) = make_solver(4);
        let before = s.snapshot_bytes();
        let watchers_before = s.watches.bytes();
        s.add_clause([lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        let after = s.snapshot_bytes();
        // One clause: 2 header words + 3 literal words, plus two fresh
        // watcher blocks of the minimum capacity (4 slots each).
        let watcher_delta = s.watches.bytes() - watchers_before;
        assert_eq!(
            watcher_delta,
            (2 * 4 * std::mem::size_of::<Watcher>()) as u64
        );
        assert_eq!(after - before, 5 * 4 + watcher_delta);
        assert_eq!(s.arena_words(), 5);
        let clone = s.clone();
        assert_eq!(clone.snapshot_bytes(), after);
        assert_eq!(clone.watches.bytes(), s.watches.bytes());
    }

    /// `snapshot_bytes` is pure length arithmetic: two solvers that executed
    /// the same operation sequence — including the watcher-block growth and
    /// swap-removes it implies — report byte-identical clone costs.
    #[test]
    fn identical_length_state_reports_identical_bytes() {
        let build = || {
            let (mut s, v) = make_solver(6);
            for i in 1..=4 {
                s.add_clause([lit(&v, -i), lit(&v, i + 1), lit(&v, 6)]);
            }
            s.add_clause([lit(&v, 1), lit(&v, 2)]);
            assert_eq!(s.solve_with_assumptions(&[lit(&v, -6)]), SolveResult::Sat);
            s
        };
        let (a, b) = (build(), build());
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        assert_eq!(a.watches.bytes(), b.watches.bytes());
        assert!(a.watches.bytes() > 0);
        // The watcher arena is part of — never exceeds — the clone cost.
        assert!(a.watches.bytes() < a.snapshot_bytes());
    }

    /// Retiring a literal that guard clauses *watch* flags them dead on the
    /// spot: the dead count is maintained eagerly, so the threshold check in
    /// `collect_garbage_if` needs no database scan.
    #[test]
    fn root_units_mark_watching_clauses_dead_eagerly() {
        let (mut s, v) = make_solver(3);
        // Binary guard clauses watch both literals, so retiring !3 (making
        // it true) marks them satisfied-dead eagerly.
        s.add_clause([lit(&v, -3), lit(&v, 1)]);
        s.add_clause([lit(&v, -3), lit(&v, 2)]);
        assert_eq!(s.num_clauses(), 2);
        s.add_clause([lit(&v, -3)]);
        assert_eq!(s.num_clauses(), 0, "watched-satisfied clauses flagged dead");
        // The physical words are still in the arena until compaction.
        assert!(s.arena_words() > 0);
        let collected = s.collect_garbage();
        assert_eq!(collected, 2);
        assert_eq!(s.arena_words(), 0);
        assert!(s.stats().arena_words_reclaimed >= 8);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Compaction relocates surviving clauses and patches the watcher lists
    /// through the relocation map: propagation keeps working — and keeps
    /// answering correctly — right after a sweep that moved every survivor.
    #[test]
    fn compaction_relocates_watchers_and_preserves_propagation() {
        let (mut s, v) = make_solver(6);
        // A guarded block that will die, in front of a live implication
        // chain whose clauses must all relocate downward.
        s.add_clause([lit(&v, -5), lit(&v, 1), lit(&v, 2)]);
        s.add_clause([lit(&v, -5), lit(&v, 3), lit(&v, 4)]);
        s.add_clause([lit(&v, -1), lit(&v, 2)]);
        s.add_clause([lit(&v, -2), lit(&v, 3)]);
        s.add_clause([lit(&v, -3), lit(&v, 4)]);
        let words_before = s.arena_words();
        s.add_clause([lit(&v, -5)]); // retire the guard
        let collected = s.collect_garbage();
        assert_eq!(collected, 2);
        assert!(s.arena_words() < words_before);
        assert_eq!(s.num_clauses(), 3);
        // The relocated watchers must still drive the implication chain.
        assert_eq!(s.solve_with_assumptions(&[lit(&v, 1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.value(v[2]), Some(true));
        assert_eq!(s.value(v[3]), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 1), lit(&v, -4)]),
            SolveResult::Unsat
        );
    }

    /// Top-level assignments strip falsified tail literals during compaction
    /// without disturbing the watched positions.
    #[test]
    fn compaction_strips_falsified_literals_from_survivors() {
        let (mut s, v) = make_solver(4);
        s.add_clause([lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        s.add_clause([lit(&v, -4)]); // unrelated root unit
        s.add_clause([lit(&v, -3)]); // falsifies the tail literal
        s.collect_garbage();
        assert_eq!(s.num_clauses(), 1);
        // Header (2 words) + the two surviving literals.
        assert_eq!(s.arena_words(), 4);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    /// `collect_garbage`'s `found_empty` path: a clause whose every literal
    /// is false at the top level makes the formula UNSAT.  Complete
    /// propagation normally turns such a clause into a conflict long before
    /// GC sees it, so this white-box test plants the assignment directly —
    /// the path exists purely to stay sound if that invariant ever breaks,
    /// and this pins its behaviour.
    #[test]
    fn collect_garbage_found_empty_makes_the_solver_unsat() {
        let (mut s, v) = make_solver(2);
        s.add_clause([lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.num_clauses(), 1);
        // Falsify both literals behind propagation's back.
        s.assigns[v[0].index() as usize] = Some(false);
        s.assigns[v[1].index() as usize] = Some(false);
        let collected = s.collect_garbage();
        assert_eq!(collected, 1, "the empty survivor is collected");
        assert_eq!(s.num_clauses(), 0);
        assert!(s.is_known_unsat());
        assert_eq!(s.solve(), SolveResult::Unsat);
        // GC on an already-unsat solver is a no-op, not a second sweep.
        assert_eq!(s.collect_garbage(), 0);
    }

    /// `collect_garbage`'s unit-uncovering path: stripping top-level-false
    /// literals can leave a single survivor, which must be enqueued and
    /// propagated (not silently dropped with the clause).  As above, the
    /// assignment is planted white-box — after complete propagation a
    /// watched literal pair can never both be false without a conflict.
    #[test]
    fn collect_garbage_enqueues_units_uncovered_by_stripping() {
        let (mut s, v) = make_solver(3);
        // (x1 | x2 | x3); x2 and x3 become false without trail entries.
        s.add_clause([lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        s.assigns[v[1].index() as usize] = Some(false);
        s.assigns[v[2].index() as usize] = Some(false);
        let collected = s.collect_garbage();
        assert_eq!(collected, 1, "the unit's clause leaves the arena");
        assert_eq!(s.num_clauses(), 0);
        // The uncovered unit x1 was enqueued at the top level...
        assert_eq!(s.assigns[v[0].index() as usize], Some(true));
        // ...and the solver stays consistent.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Unsat);
    }

    /// Two clauses uncovering *contradicting* units: the first enqueues,
    /// the second finds its literal already false — a contradiction the
    /// units loop must turn into UNSAT, not an enqueue.
    #[test]
    fn collect_garbage_detects_contradicting_uncovered_units() {
        let (mut s, v) = make_solver(3);
        s.add_clause([lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        s.add_clause([lit(&v, -1), lit(&v, 2), lit(&v, 3)]);
        s.assigns[v[1].index() as usize] = Some(false);
        s.assigns[v[2].index() as usize] = Some(false);
        let collected = s.collect_garbage();
        assert_eq!(collected, 2, "both unit-uncovering clauses leave the arena");
        assert!(s.is_known_unsat());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// The decision-order contract: `pick_branch_var` returns the argmax of
    /// `(activity, index)` over the unassigned variables, whatever mix of
    /// bumps, assignments, backtracks and activity rescales preceded it.
    /// Checked against a brute-force scan on random operation sequences.
    #[test]
    fn pick_branch_var_is_the_argmax_of_activity_then_index() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn brute_force(s: &Solver) -> Option<Var> {
            (0..s.num_vars() as u32)
                .map(Var::from_index)
                .filter(|v| s.var_value(*v).is_none())
                .max_by(|&a, &b| {
                    let (x, y) = (
                        s.activity[a.index() as usize],
                        s.activity[b.index() as usize],
                    );
                    x.partial_cmp(&y).expect("finite").then(a.cmp(&b))
                })
        }

        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut picks = 0u32;
        let mut rescales = 0u32;
        for _ in 0..40 {
            let (mut s, v) = make_solver(rng.gen_range(1..48));
            for _ in 0..400 {
                let var = v[rng.gen_range(0..v.len())];
                match rng.gen_range(0..10) {
                    0..=2 => s.bump_var(var),
                    3 => s.decay_activities(),
                    // Activities this small round to tied zeros at the next
                    // rescale, where the index decides instead.
                    4 => s.var_inc = 1e-230,
                    5 => {
                        s.var_inc = 2.0 * RESCALE_LIMIT;
                        s.bump_var(var);
                        assert!(s.var_inc < RESCALE_LIMIT, "the bump rescales");
                        rescales += 1;
                    }
                    6 => {
                        // An implied literal at the current level.
                        if s.decision_level() > 0 && s.var_value(var).is_none() {
                            s.unchecked_enqueue(Lit::pos(var), None);
                        }
                    }
                    7 => {
                        let level = rng.gen_range(0..=s.decision_level());
                        s.cancel_until(level);
                    }
                    _ => {
                        let expected = brute_force(&s);
                        assert_eq!(s.pick_branch_var(), expected);
                        picks += 1;
                        if let Some(p) = expected {
                            s.new_decision_level();
                            s.unchecked_enqueue(Lit::neg(p), None);
                        }
                    }
                }
            }
            s.cancel_until(0);
            assert_eq!(s.pick_branch_var(), brute_force(&s));
        }
        assert!(picks > 1000, "only {picks} picks checked");
        assert!(rescales > 10, "only {rescales} rescales forced");
    }

    #[test]
    fn accumulate_and_delta_cover_every_counter() {
        let mut a = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            learnt_clauses: 5,
            removed_clauses: 6,
            solves: 7,
            gc_runs: 8,
            clauses_collected: 9,
            learnt_lbd_sum: 10,
            fork_count: 11,
            bytes_cloned: 12,
            arena_words_reclaimed: 13,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.fork_count, 22);
        assert_eq!(a.bytes_cloned, 24);
        assert_eq!(a.arena_words_reclaimed, 26);
        let delta = a.delta_since(&b);
        assert_eq!(delta, b);
    }
}
