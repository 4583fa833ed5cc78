//! # htd-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver written from scratch for
//! the golden-free hardware-Trojan detection toolkit.
//!
//! The interval property checker in `htd-ipc` reduces every single-cycle
//! 2-safety property to one propositional satisfiability query over the
//! Tseitin encoding of the bit-blasted miter.  This crate provides the solver
//! for those queries.  It is a classic MiniSat-style CDCL solver:
//!
//! * two-watched-literal unit propagation,
//! * VSIDS variable activities with phase saving: a decision takes the
//!   variable's saved phase, which is true before its first assignment (see
//!   [`Solver`] for why),
//! * first-UIP conflict analysis with clause minimisation,
//! * Luby restarts,
//! * activity-based learnt-clause database reduction,
//! * incremental solving under assumptions (used for the antecedent
//!   assumptions and per-property activation literals of the incremental
//!   detection session in `htd-core`),
//! * an arena-backed clause store: all clauses live in one flat `u32`
//!   buffer addressed by [`ClauseRef`] offsets, so cloning the solver — what
//!   [`SatBackend::fork`] does, and the builtin solver is the only backend
//!   that forks — costs O(bytes), not one allocation per clause, and
//!   garbage collection is a single in-place compaction sweep (see the
//!   [`Solver`] module docs).
//!
//! The crate also defines the [`SatBackend`] trait — the minimal incremental
//! interface the detection flow drives (allocate variables, add clauses,
//! solve under assumptions, read the model) — implemented by [`Solver`], by
//! [`DimacsProcessBackend`] (shells out to any DIMACS-speaking solver binary
//! so the flow can be benchmarked against reference solvers) and by
//! [`IpasirBackend`] (drives any shared library exporting the standard
//! IPASIR incremental C ABI, keeping external solvers live across queries).
//!
//! # Example
//!
//! ```
//! use htd_sat::{Lit, Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a | b) & (!a | b) & (a | !b)
//! solver.add_clause([Lit::pos(a), Lit::pos(b)]);
//! solver.add_clause([Lit::neg(a), Lit::pos(b)]);
//! solver.add_clause([Lit::pos(a), Lit::neg(b)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(a), Some(true));
//! assert_eq!(solver.value(b), Some(true));
//! ```

// `deny`, not `forbid`: the IPASIR dynamic-library backend (`ipasir.rs`) is
// the single module allowed to use `unsafe` — it has to speak the C ABI of
// external solver libraries.  Everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod backend;
mod dimacs;
mod ipasir;
mod literal;
mod solver;
mod watch;

pub use backend::{BackendError, BackendStats, DimacsProcessBackend, SatBackend};
pub use dimacs::{parse_dimacs, to_dimacs, ParseDimacsError};
pub use ipasir::IpasirBackend;
pub use literal::{Lit, Var};
pub use solver::{
    ClauseRef, SolveResult, Solver, SolverStats, DEFAULT_GC_DEAD_FRACTION, DEFAULT_GC_MIN_CLAUSES,
};
