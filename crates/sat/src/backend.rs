//! Pluggable SAT backends for the property checker.
//!
//! The detection flow in `htd-core` issues a *sequence* of closely related
//! queries against one growing CNF.  [`SatBackend`] is the minimal incremental
//! interface that sequence needs: allocate variables, add clauses, solve under
//! assumptions, read the model.  Two implementations ship with the toolkit:
//!
//! * the bundled CDCL [`Solver`] (zero-copy, learnt clauses persist across
//!   queries), and
//! * [`DimacsProcessBackend`], which shells out to any solver binary speaking
//!   the DIMACS CNF format and the SAT-competition output convention
//!   (`s SATISFIABLE` / `s UNSATISFIABLE` plus `v` model lines, or exit codes
//!   10/20).  It keeps the ablation benchmarks honest: the flow can be timed
//!   against a reference solver without touching the encoder.
//!
//! # Example
//!
//! ```
//! use htd_sat::{Lit, SatBackend, SolveResult, Solver};
//!
//! let mut backend: Box<dyn SatBackend> = Box::new(Solver::new());
//! let a = backend.new_var();
//! let b = backend.new_var();
//! backend.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! let result = backend.solve_under(&[Lit::neg(a)]).unwrap();
//! assert_eq!(result, SolveResult::Sat);
//! assert_eq!(backend.model_value(b), Some(true));
//! ```

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use crate::budget::BudgetTracker;
use crate::literal::{Lit, Var};
use crate::solver::{SolveResult, Solver, SolverStats};

/// A failure inside a SAT backend (today: only process backends can fail —
/// the bundled solver is total).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl BackendError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SAT backend error: {}", self.message)
    }
}

impl Error for BackendError {}

/// Aggregate counters for a backend, rendered into the per-property
/// statistics of the flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Variables allocated so far.
    pub vars: usize,
    /// Clauses currently held (for the bundled solver: non-deleted clauses).
    pub clauses: usize,
    /// Satisfiability queries answered.
    pub queries: u64,
    /// Detailed work counters.  External backends cannot observe a foreign
    /// solver's internals (decisions, conflicts, …stay zero), but they do
    /// report what the interface makes visible: `solves` mirrors `queries`.
    pub solver: SolverStats,
}

/// An incremental SAT solving interface.
///
/// Implementations must keep added clauses across queries and treat
/// `assumptions` as per-query unit constraints that do not persist.
///
/// Backends are `Send` so a session can move to whichever thread runs it.
pub trait SatBackend: Send {
    /// A short, stable name for reports (`"builtin-cdcl"`, `"dimacs:..."`).
    fn name(&self) -> String;

    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause over already-allocated variables.  Returns `false` if
    /// the formula became trivially unsatisfiable at the top level.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Solves the current formula under the given assumption literals.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the backend infrastructure fails (e.g. the
    /// external solver binary cannot be spawned); never for a mere UNSAT
    /// answer.
    fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError>;

    /// The value of `var` in the most recent satisfying assignment, `None`
    /// if the last query was not SAT or did not mention the variable.
    fn model_value(&self, var: Var) -> Option<bool>;

    /// Work counters accumulated so far.
    fn stats(&self) -> BackendStats;

    /// Marks a variable as eligible (default) or ineligible for branching.
    ///
    /// Incremental clients mask variables belonging to retired queries so
    /// the search stays inside the live cone; see
    /// [`Solver::set_decision_var`] for the soundness contract.  Backends
    /// without decision-variable support (e.g. process backends that re-read
    /// the whole CNF per query) ignore the hint, which is always sound.
    fn set_decision_var(&mut self, _var: Var, _eligible: bool) {}

    /// Marks *every* variable ineligible for branching (the bulk counterpart
    /// of [`set_decision_var`](Self::set_decision_var)); an incremental
    /// client calls this before each query and then re-enables exactly the
    /// query's cone.
    /// Backends without decision-variable support ignore it.
    fn mask_all_decisions(&mut self) {}

    /// Creates an independent snapshot of this backend: same variables, same
    /// clause database, no shared mutable state.  No detection entry point
    /// forks; tests and the benchmark harness fork never-run masters, always
    /// on the bundled [`Solver`], the one backend that overrides this.  Its
    /// work counters carry over, plus one recorded fork of
    /// [`Solver::snapshot_bytes`] bytes on the child, so callers attribute
    /// per-fork work by differencing against the snapshot's
    /// [`stats`](Self::stats).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] naming the backend for every backend but the
    /// bundled solver: the external backends do not fork.
    fn fork(&self) -> Result<Box<dyn SatBackend>, BackendError> {
        Err(BackendError::new(format!(
            "`{}` does not fork",
            self.name()
        )))
    }

    /// Opportunistically compacts the clause database, dropping clauses that
    /// can no longer participate in any future query (e.g. miter clauses
    /// behind retired activation literals).  Returns the number of clauses
    /// collected; backends without garbage collection return 0.
    fn collect_garbage(&mut self) -> u64 {
        0
    }

    /// Configures the garbage-collection thresholds consulted by
    /// [`collect_garbage`](Self::collect_garbage): compaction runs once at
    /// least `dead_fraction` of a database of at least `min_clauses` clauses
    /// is dead.  Backends without garbage collection ignore the hint.
    fn set_gc_thresholds(&mut self, _dead_fraction: f64, _min_clauses: usize) {}

    /// Installs a predicate polled during solving; when it returns `true`
    /// the query is abandoned with [`SolveResult::Interrupted`].  The
    /// detection flow cancels a job's solve in flight this way.  Backends that cannot
    /// interrupt ignore it, which only costs wasted work, never wrong
    /// answers.
    fn set_interrupt(&mut self, _check: Arc<dyn Fn() -> bool + Send + Sync>) {}

    /// Attaches (or detaches, with `None`) a shared resource budget
    /// ([`BudgetTracker`]).  Budgeted backends abandon queries with
    /// [`SolveResult::Interrupted`] once the tracker reports exhaustion and,
    /// where their interface exposes a conflict stream, charge conflicts to
    /// it.  Backends without budget support ignore it (the flow-level
    /// deadline is then only enforced between solver queries).
    fn set_budget(&mut self, _budget: Option<Arc<BudgetTracker>>) {}
}

impl SatBackend for Solver {
    fn name(&self) -> String {
        "builtin-cdcl".to_string()
    }

    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
        Ok(self.solve_with_assumptions(assumptions))
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.value(var)
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            vars: self.num_vars(),
            clauses: self.num_clauses(),
            queries: Solver::stats(self).solves,
            solver: Solver::stats(self),
        }
    }

    fn set_decision_var(&mut self, var: Var, eligible: bool) {
        Solver::set_decision_var(self, var, eligible);
    }

    fn mask_all_decisions(&mut self) {
        Solver::mask_all_decisions(self);
    }

    fn fork(&self) -> Result<Box<dyn SatBackend>, BackendError> {
        // With both stores arena-backed the clone is a fixed number of
        // flat-buffer memcpys — no allocation scales with the clause or
        // variable count; the child records the fork so the cost is
        // visible in its counters.
        let bytes = self.snapshot_bytes();
        let mut child = self.clone();
        child.record_fork(bytes);
        Ok(Box::new(child))
    }

    fn collect_garbage(&mut self) -> u64 {
        let (dead_fraction, _) = self.gc_thresholds();
        self.collect_garbage_if(dead_fraction)
    }

    fn set_gc_thresholds(&mut self, dead_fraction: f64, min_clauses: usize) {
        Solver::set_gc_thresholds(self, dead_fraction, min_clauses);
    }

    fn set_interrupt(&mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) {
        Solver::set_interrupt(self, check);
    }

    fn set_budget(&mut self, budget: Option<Arc<BudgetTracker>>) {
        Solver::set_budget(self, budget);
    }
}

/// A backend that shells out to an external DIMACS-speaking solver binary for
/// every query.
///
/// The clause database is kept in memory; each [`solve_under`] call writes
/// the full formula (with the assumptions appended as unit clauses) to a
/// temporary file, runs the binary on it, and interprets the result:
///
/// * exit status 10, or a `s SATISFIABLE` line, means SAT (the model is read
///   from `v` lines if present);
/// * exit status 20, or a `s UNSATISFIABLE` line, means UNSAT.
///
/// This convention covers the SAT-competition solvers (CaDiCaL, Kissat, …)
/// as well as the bundled `htd sat` subcommand, which exists so the process
/// path can be exercised without any third-party software installed.  A
/// solver that answers SAT *without* printing a model (e.g. MiniSat's
/// file-output mode) is rejected with a [`BackendError`] rather than
/// silently treated as an all-false model — counterexample reconstruction
/// needs real model values.
///
/// Rather than re-serialising the whole formula per query, the backend keeps
/// an **incremental CNF file**: a fixed-width problem line followed by every
/// clause serialized exactly once.  Each query appends only the clauses
/// added since the previous query plus the assumption units, rewrites the
/// (padded, fixed-offset) problem line in place, runs the solver, and
/// truncates the assumption units away again — so the serialisation work per
/// query is proportional to what *changed*, which keeps external solvers
/// usable on big flows.
///
/// [`solve_under`]: SatBackend::solve_under
#[derive(Debug)]
pub struct DimacsProcessBackend {
    solver_path: PathBuf,
    extra_args: Vec<String>,
    /// Distinguishes concurrently-live backends within one process so their
    /// temporary CNF files cannot collide.
    instance: u64,
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    model: Vec<Option<bool>>,
    queries: u64,
    known_unsat: bool,
    /// The incremental CNF file, created lazily on the first query and
    /// removed when the backend drops.
    cache: Option<CnfCache>,
    /// Interrupt predicate polled while the child process runs.
    interrupt: ProcessInterrupt,
    /// Shared resource budget, polled alongside the interrupt predicate.
    /// The external solver's conflicts are invisible from outside and no one
    /// charges conflicts to this tracker, so only its deadline applies.
    budget: Option<Arc<BudgetTracker>>,
}

/// Debug-opaque holder for the process backend's interrupt predicate
/// (mirrors the solver's private `InterruptCheck`).
#[derive(Default)]
struct ProcessInterrupt(Option<Arc<dyn Fn() -> bool + Send + Sync>>);

impl fmt::Debug for ProcessInterrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ProcessInterrupt(set)"
        } else {
            "ProcessInterrupt(unset)"
        })
    }
}

/// How often the process backend polls the child (and the interrupt/budget
/// seam) while a query runs.  Coarse enough to stay invisible next to a SAT
/// query, fine enough that budget deadlines land within ~a hundredth of a
/// second.
const PROCESS_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// The on-disk incremental CNF document of a [`DimacsProcessBackend`].
#[derive(Debug)]
struct CnfCache {
    path: PathBuf,
    file: File,
    /// Clauses already serialized into the base region (never re-written).
    clauses_written: usize,
    /// Byte length of the base region: the problem line plus every
    /// serialized clause.  Assumption units live past this offset and are
    /// truncated after each query.
    base_len: u64,
}

/// Fixed width of the two counts in the problem line, so the line can be
/// rewritten in place without moving the clauses behind it.  DIMACS readers
/// (including [`parse_dimacs`](crate::parse_dimacs), which backs `htd sat`)
/// skip the `p` line or tolerate padded counts.
const HEADER_FIELD_WIDTH: usize = 10;

fn render_header(num_vars: u32, num_clauses: usize) -> String {
    format!("p cnf {num_vars:>HEADER_FIELD_WIDTH$} {num_clauses:>HEADER_FIELD_WIDTH$}\n")
}

fn render_clause(lits: &[Lit]) -> String {
    let mut line = String::with_capacity(lits.len() * 4 + 2);
    for lit in lits {
        line.push_str(&lit.to_string());
        line.push(' ');
    }
    line.push_str("0\n");
    line
}

/// Monotonic id source for [`DimacsProcessBackend::instance`].
static NEXT_BACKEND_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DimacsProcessBackend {
    /// Creates a backend running the given solver binary.
    #[must_use]
    pub fn new(solver_path: impl Into<PathBuf>) -> Self {
        DimacsProcessBackend {
            solver_path: solver_path.into(),
            extra_args: Vec::new(),
            // htd-lint: allow(determinism): unique temp-file tag; only uniqueness matters, not order
            instance: NEXT_BACKEND_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            num_vars: 0,
            clauses: Vec::new(),
            model: Vec::new(),
            queries: 0,
            known_unsat: false,
            cache: None,
            interrupt: ProcessInterrupt::default(),
            budget: None,
        }
    }

    /// `true` when the budget or the installed interrupt predicate says the
    /// current query should be abandoned.
    fn should_abandon(&self) -> bool {
        self.budget.as_ref().is_some_and(|budget| budget.check())
            || self.interrupt.0.as_ref().is_some_and(|check| check())
    }

    /// Runs the external solver on `path`, polling the interrupt/budget seam
    /// while the child executes; a tripped check kills the child and answers
    /// [`SolveResult::Interrupted`].  Stdout goes to a sibling file rather
    /// than a pipe so a large `v`-line model can never deadlock against a
    /// poll loop that is not draining it.
    fn run_solver(&mut self, path: &Path) -> Result<SolveResult, BackendError> {
        let out_path = path.with_extension("out");
        let spawn_err = |e: std::io::Error| {
            BackendError::new(format!(
                "spawning solver `{}`: {e}",
                self.solver_path.display()
            ))
        };
        let stdout_file = File::create(&out_path).map_err(spawn_err)?;
        let child = Command::new(&self.solver_path)
            .args(&self.extra_args)
            .arg(path)
            .stdout(Stdio::from(stdout_file))
            .stderr(Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(e) => {
                let _ = std::fs::remove_file(&out_path);
                return Err(spawn_err(e));
            }
        };
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(&out_path);
                    return Err(spawn_err(e));
                }
            }
            if self.should_abandon() {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&out_path);
                return Ok(SolveResult::Interrupted);
            }
            // htd-lint: allow(determinism): poll cadence while waiting on the child solver; the answer bytes are unaffected
            std::thread::sleep(PROCESS_POLL_INTERVAL);
        };
        let stdout = std::fs::read_to_string(&out_path).map_err(|e| {
            BackendError::new(format!(
                "reading solver output `{}`: {e}",
                out_path.display()
            ))
        })?;
        let _ = std::fs::remove_file(&out_path);
        self.parse_answer(&stdout, status.code())
    }

    /// Adds fixed arguments passed before the CNF file path (e.g. a solver's
    /// quiet flag).
    #[must_use]
    pub fn with_args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extra_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// The solver binary this backend runs.
    #[must_use]
    pub fn solver_path(&self) -> &Path {
        &self.solver_path
    }

    /// Brings the incremental CNF file up to date for one query: appends the
    /// clauses added since the last query and the assumption units, then
    /// rewrites the fixed-width problem line in place.  Returns the file's
    /// path; the caller truncates the assumptions away after the solver ran
    /// (see [`truncate_assumptions`](Self::truncate_assumptions)).
    fn write_query(&mut self, assumptions: &[Lit]) -> Result<PathBuf, BackendError> {
        let io_err = |path: &Path, e: std::io::Error| {
            BackendError::new(format!("writing {}: {e}", path.display()))
        };
        if self.cache.is_none() {
            let path = std::env::temp_dir().join(format!(
                "htd-dimacs-{}-{}.cnf",
                std::process::id(),
                self.instance
            ));
            let mut file = File::create(&path).map_err(|e| io_err(&path, e))?;
            let header = render_header(self.num_vars, self.clauses.len());
            file.write_all(header.as_bytes())
                .map_err(|e| io_err(&path, e))?;
            self.cache = Some(CnfCache {
                path,
                file,
                clauses_written: 0,
                base_len: header.len() as u64,
            });
        }
        let cache = self.cache.as_mut().expect("created above");
        let path = cache.path.clone();
        let mut appended = String::new();
        for clause in &self.clauses[cache.clauses_written..] {
            appended.push_str(&render_clause(clause));
        }
        cache
            .file
            .seek(SeekFrom::Start(cache.base_len))
            .map_err(|e| io_err(&path, e))?;
        cache
            .file
            .write_all(appended.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        cache.base_len += appended.len() as u64;
        cache.clauses_written = self.clauses.len();
        let mut units = String::new();
        for lit in assumptions {
            units.push_str(&lit.to_string());
            units.push_str(" 0\n");
        }
        cache
            .file
            .write_all(units.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        cache
            .file
            .set_len(cache.base_len + units.len() as u64)
            .map_err(|e| io_err(&path, e))?;
        cache
            .file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&path, e))?;
        let header = render_header(self.num_vars, self.clauses.len() + assumptions.len());
        cache
            .file
            .write_all(header.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        Ok(path)
    }

    /// Drops the assumption units appended by the previous
    /// [`write_query`](Self::write_query), restoring the file to its base
    /// region so the next query appends from a clean state.
    fn truncate_assumptions(&mut self) {
        if let Some(cache) = &mut self.cache {
            let _ = cache.file.set_len(cache.base_len);
        }
    }

    fn parse_answer(
        &mut self,
        stdout: &str,
        status: Option<i32>,
    ) -> Result<SolveResult, BackendError> {
        let mut verdict = match status {
            Some(10) => Some(SolveResult::Sat),
            Some(20) => Some(SolveResult::Unsat),
            _ => None,
        };
        self.model = vec![None; self.num_vars as usize];
        let mut saw_model_line = false;
        for line in stdout.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("s ") {
                verdict = match rest.trim() {
                    "SATISFIABLE" => Some(SolveResult::Sat),
                    "UNSATISFIABLE" => Some(SolveResult::Unsat),
                    other => {
                        return Err(BackendError::new(format!(
                            "solver `{}` reported unknown status `{other}`",
                            self.solver_path.display()
                        )))
                    }
                };
            } else if let Some(rest) = line.strip_prefix("v ").or_else(|| line.strip_prefix("V ")) {
                saw_model_line = true;
                for tok in rest.split_ascii_whitespace() {
                    let value: i64 = tok
                        .parse()
                        .map_err(|_| BackendError::new(format!("invalid model token `{tok}`")))?;
                    if value == 0 {
                        continue;
                    }
                    let index = (value.unsigned_abs() - 1) as usize;
                    if index < self.model.len() {
                        self.model[index] = Some(value > 0);
                    }
                }
            }
        }
        let verdict = verdict.ok_or_else(|| {
            BackendError::new(format!(
                "solver `{}` produced neither an `s` line nor exit code 10/20",
                self.solver_path.display()
            ))
        })?;
        if verdict == SolveResult::Sat && !saw_model_line && self.num_vars > 0 {
            // Accepting a model-less SAT would make every variable read as
            // `false` and fabricate meaningless counterexamples downstream.
            return Err(BackendError::new(format!(
                "solver `{}` answered SAT without `v` model lines; configure it to print the \
                 model (e.g. use a SAT-competition output mode)",
                self.solver_path.display()
            )));
        }
        Ok(verdict)
    }
}

impl SatBackend for DimacsProcessBackend {
    fn name(&self) -> String {
        format!("dimacs:{}", self.solver_path.display())
    }

    fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        var
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        for lit in lits {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit:?} refers to an unallocated variable"
            );
        }
        if self.known_unsat {
            return false;
        }
        if lits.is_empty() {
            self.known_unsat = true;
            return false;
        }
        self.clauses.push(lits.to_vec());
        true
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
        self.queries += 1;
        if self.known_unsat {
            return Ok(SolveResult::Unsat);
        }
        // Checked before spawning: a passed deadline (or an already-tripped
        // cancel) must not launch another process.
        if self.should_abandon() {
            return Ok(SolveResult::Interrupted);
        }
        let path = self.write_query(assumptions)?;
        let result = self.run_solver(&path);
        // Keep the serialized clause prefix for the next query; only the
        // assumption units are rolled back.
        self.truncate_assumptions();
        result
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index() as usize).copied().flatten()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            vars: self.num_vars as usize,
            clauses: self.clauses.len(),
            queries: self.queries,
            // `solves` is derived, not a second hand-maintained counter, so
            // it can never drift from `queries`.
            solver: SolverStats {
                solves: self.queries,
                ..SolverStats::default()
            },
        }
    }

    fn set_interrupt(&mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) {
        self.interrupt = ProcessInterrupt(Some(check));
    }

    fn set_budget(&mut self, budget: Option<Arc<BudgetTracker>>) {
        self.budget = budget;
    }
}

impl Drop for DimacsProcessBackend {
    fn drop(&mut self) {
        if let Some(cache) = &self.cache {
            let _ = std::fs::remove_file(&cache.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var_backend(backend: &mut dyn SatBackend) -> (Var, Var) {
        let a = backend.new_var();
        let b = backend.new_var();
        backend.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        backend.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        (a, b)
    }

    #[test]
    fn solver_implements_the_backend_interface() {
        let mut solver = Solver::new();
        let (a, b) = two_var_backend(&mut solver);
        assert_eq!(
            SatBackend::solve_under(&mut solver, &[]).unwrap(),
            SolveResult::Sat
        );
        assert_eq!(
            SatBackend::solve_under(&mut solver, &[Lit::neg(b)]).unwrap(),
            SolveResult::Unsat
        );
        assert_eq!(
            SatBackend::solve_under(&mut solver, &[]).unwrap(),
            SolveResult::Sat
        );
        let _ = a;
        let stats = SatBackend::stats(&solver);
        assert_eq!(stats.vars, 2);
        assert_eq!(stats.queries, 3);
    }

    #[test]
    fn missing_binary_is_a_backend_error_not_a_panic() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let a = backend.new_var();
        backend.add_clause(&[Lit::pos(a)]);
        let err = backend.solve_under(&[]).unwrap_err();
        assert!(err.message.contains("spawning"), "{err}");
    }

    #[test]
    fn empty_clause_makes_the_process_backend_known_unsat() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        assert!(!backend.add_clause(&[]));
        // No process is spawned for a known-unsat formula.
        assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Unsat);
    }

    #[cfg(unix)]
    #[test]
    fn sat_without_model_lines_is_rejected() {
        use std::os::unix::fs::PermissionsExt;

        let dir = std::env::temp_dir();
        let script = dir.join(format!("htd-fake-modelless-{}.sh", std::process::id()));
        std::fs::write(&script, "#!/bin/sh\necho 's SATISFIABLE'\nexit 10\n").unwrap();
        let mut perms = std::fs::metadata(&script).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&script, perms).unwrap();

        let mut backend = DimacsProcessBackend::new(&script);
        let a = backend.new_var();
        backend.add_clause(&[Lit::pos(a)]);
        let err = backend.solve_under(&[]).unwrap_err();
        assert!(err.message.contains("without `v` model lines"), "{err}");
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn concurrent_backends_use_distinct_temp_files() {
        let a = DimacsProcessBackend::new("/bin/true");
        let b = DimacsProcessBackend::new("/bin/true");
        assert_ne!(a.instance, b.instance);
    }

    /// The incremental CNF cache serializes every clause exactly once:
    /// later queries append only the new clauses and the per-query
    /// assumption units, which are truncated away again afterwards.
    #[test]
    fn incremental_cnf_cache_appends_only_new_clauses() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let a = backend.new_var();
        let b = backend.new_var();
        SatBackend::add_clause(&mut backend, &[Lit::pos(a), Lit::pos(b)]);
        // The spawn fails, but the CNF file is written (and cleaned) first.
        let _ = backend.solve_under(&[Lit::neg(a)]);
        let path = backend.cache.as_ref().expect("cache created").path.clone();
        let after_first = std::fs::read_to_string(&path).unwrap();
        assert!(after_first.starts_with("p cnf"), "{after_first}");
        assert!(after_first.contains("1 2 0"));
        assert!(
            !after_first.contains("-1 0"),
            "assumption units truncated away: {after_first}"
        );
        let base_len = backend.cache.as_ref().unwrap().base_len;
        assert_eq!(backend.cache.as_ref().unwrap().clauses_written, 1);

        // A second query appends the new clause behind the cached prefix.
        SatBackend::add_clause(&mut backend, &[Lit::neg(b), Lit::pos(a)]);
        let _ = backend.solve_under(&[]);
        let cache = backend.cache.as_ref().unwrap();
        assert_eq!(cache.clauses_written, 2);
        assert!(cache.base_len > base_len);
        let after_second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            after_second.matches("1 2 0").count(),
            1,
            "the prefix is serialized exactly once: {after_second}"
        );
        assert!(after_second.contains("-2 1 0"));
        drop(backend);
        assert!(!path.exists(), "cache file removed on drop");
    }

    /// The in-place header rewrite keeps the declared counts in sync with
    /// the appended clauses and assumptions, and the padded problem line
    /// stays parseable by the bundled DIMACS reader.
    #[test]
    fn incremental_cnf_header_tracks_counts_and_stays_parseable() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let a = backend.new_var();
        let b = backend.new_var();
        SatBackend::add_clause(&mut backend, &[Lit::pos(a), Lit::pos(b)]);
        let path = backend.write_query(&[Lit::neg(a)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        let counts: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(counts, vec!["p", "cnf", "2", "2"]);
        let mut solver = crate::dimacs::parse_dimacs(&text).unwrap();
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(solver.value(b), Some(true), "1 2 & -1 forces 2");
        backend.truncate_assumptions();
    }

    /// Only the bundled solver forks: the process backend answers `Err`,
    /// naming itself.
    #[test]
    fn the_process_backend_does_not_fork() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let a = backend.new_var();
        backend.add_clause(&[Lit::pos(a)]);
        let Err(err) = backend.fork() else {
            panic!("the process backend forked");
        };
        assert_eq!(
            err.message,
            "`dimacs:/nonexistent/htd-test-solver` does not fork"
        );
    }

    /// `new_var` between queries grows the variable count; the in-place
    /// fixed-width header rewrite must pick the growth up (and the file
    /// must stay parseable) even though the clause prefix is never
    /// re-serialized.
    #[test]
    fn incremental_cnf_header_tracks_variable_growth_between_queries() {
        let mut backend = DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let a = backend.new_var();
        SatBackend::add_clause(&mut backend, &[Lit::pos(a)]);
        let path = backend.write_query(&[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let counts: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(counts, vec!["p", "cnf", "1", "1"]);
        backend.truncate_assumptions();

        // Grow the variable space and the clause list between queries.
        let b = backend.new_var();
        let c = backend.new_var();
        SatBackend::add_clause(&mut backend, &[Lit::neg(b), Lit::pos(c)]);
        let path = backend.write_query(&[Lit::pos(b)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let counts: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(
            counts,
            vec!["p", "cnf", "3", "3"],
            "header reflects the grown variable space and the assumption unit"
        );
        // The first clause is still serialized exactly once, and the file
        // still parses through the bundled DIMACS reader.
        assert_eq!(text.matches("1 0").count(), 1, "{text}");
        let mut solver = crate::dimacs::parse_dimacs(&text).unwrap();
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(solver.value(a), Some(true));
        assert_eq!(solver.value(c), Some(true), "-2 3 & 2 forces 3");
        backend.truncate_assumptions();
    }

    #[cfg(unix)]
    #[test]
    fn process_backend_parses_competition_output() {
        use std::os::unix::fs::PermissionsExt;

        let dir = std::env::temp_dir();
        let script = dir.join(format!("htd-fake-solver-{}.sh", std::process::id()));
        std::fs::write(
            &script,
            "#!/bin/sh\necho 'c fake solver'\necho 's SATISFIABLE'\necho 'v 1 -2 0'\nexit 10\n",
        )
        .unwrap();
        let mut perms = std::fs::metadata(&script).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&script, perms).unwrap();

        let mut backend = DimacsProcessBackend::new(&script);
        let a = backend.new_var();
        let b = backend.new_var();
        backend.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
        assert_eq!(backend.model_value(a), Some(true));
        assert_eq!(backend.model_value(b), Some(false));
        assert_eq!(backend.stats().queries, 1);
        std::fs::remove_file(&script).ok();
    }
}
