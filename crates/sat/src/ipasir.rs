//! A [`SatBackend`] over any shared library exporting the IPASIR C ABI.
//!
//! [IPASIR](https://github.com/biotomas/ipasir) is the standard incremental
//! interface of the SAT competitions: a solver library exports
//! `ipasir_init` / `ipasir_add` / `ipasir_assume` / `ipasir_solve` /
//! `ipasir_val` / `ipasir_set_terminate` / `ipasir_release`, and a client
//! drives one solver handle across many closely related queries.  This is
//! exactly the shape of the detection flow's query sequence — and the piece
//! the DIMACS process backend cannot provide: a process backend re-reads
//! (and re-searches) the whole formula on every query, while an IPASIR
//! library keeps its clause database, learnt clauses and heuristic state
//! live between queries.
//!
//! [`IpasirBackend`] `dlopen`s a library at a user-supplied path (the CLI
//! syntax is `--backend ipasir:LIB.so`) and implements [`SatBackend`] on a
//! handle from it:
//!
//! * **Clauses are transmitted exactly once per backend instance.**  Every
//!   [`add_clause`](SatBackend::add_clause) streams the clause into the live
//!   handle immediately and keeps no copy; no query ever re-sends the
//!   formula.  The [`clauses_transmitted`]
//!   (IpasirBackend::clauses_transmitted) counter makes this testable.
//! * **Assumptions are per-query.**  [`solve_under`](SatBackend::solve_under)
//!   calls `ipasir_assume` for each assumption and then `ipasir_solve`;
//!   IPASIR semantics guarantee the assumptions do not persist.
//! * **Interrupts map to `ipasir_set_terminate`.**  The predicate installed
//!   with [`set_interrupt`](SatBackend::set_interrupt) is polled by the
//!   library during search; a firing check surfaces as
//!   [`SolveResult::Interrupted`] (IPASIR return value 0), so a cancelled
//!   detection job stops mid-solve.
//! * **No fork.**  Every detection flow solves in place on one handle, so
//!   [`fork`](SatBackend::fork) keeps the trait's default and answers
//!   `Err`; only the builtin solver forks.
//!
//! # The `ipasir_htd_*` extension subset
//!
//! Standard IPASIR has no notion of decision-variable masking, so a generic
//! library ignores the scheduler's cone-focusing hints (sound, but the
//! search may wander and models of satisfiable queries may differ from the
//! builtin backend's).  The bundled shim library (`crates/ipasir-shim`,
//! built as `libipasir_htd.so`) additionally exports two optional symbols
//! that [`IpasirBackend`] resolves and uses when present:
//!
//! | symbol | mirrors |
//! |---|---|
//! | `ipasir_htd_mask_all_decisions(S)` | [`SatBackend::mask_all_decisions`] |
//! | `ipasir_htd_set_decision(S, var, eligible)` | [`SatBackend::set_decision_var`] |
//!
//! With the extensions resolved, a shim handle receives exactly the
//! operation sequence the builtin solver receives, which is what makes
//! detection reports byte-identical between `--backend builtin` and
//! `--backend ipasir:libipasir_htd.so` (the equivalence suite in
//! `tests/ipasir_equivalence.rs` checks this on every bundled benchmark).
//! Libraries without the extensions still produce equivalent *verdicts* —
//! masking is a search hint, never a soundness requirement.
//!
//! # Safety
//!
//! This module is the only place in `htd-sat` that uses `unsafe`: the
//! `dlopen`/`dlsym` FFI and the calls through the resolved function
//! pointers.  The invariants are local and documented on
//! [`IpasirLibrary`]: symbols are resolved once at load time against the
//! signatures of the IPASIR spec, every handle is created and released
//! through the same library, and a handle is only ever driven from one
//! thread at a time (`&mut self` on every mutating [`SatBackend`] method).
#![allow(unsafe_code)]

use std::ffi::{CStr, CString};
use std::os::raw::{c_char, c_int, c_void};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{BackendError, BackendStats, SatBackend};
use crate::budget::BudgetTracker;
use crate::literal::{Lit, Var};
use crate::solver::{SolveResult, SolverStats};

// The dynamic-linker primitives.  Since glibc 2.34 these live in libc
// itself (which every Rust binary on a glibc target links already); the
// declarations below are the POSIX signatures.
#[cfg(unix)]
extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

/// POSIX `RTLD_NOW`: resolve every symbol at load time so a broken library
/// fails at [`IpasirBackend::load`] with a clear error, not mid-flow.
#[cfg(unix)]
const RTLD_NOW: c_int = 2;

type IpasirInit = unsafe extern "C" fn() -> *mut c_void;
type IpasirRelease = unsafe extern "C" fn(*mut c_void);
type IpasirAdd = unsafe extern "C" fn(*mut c_void, c_int);
type IpasirAssume = unsafe extern "C" fn(*mut c_void, c_int);
type IpasirSolve = unsafe extern "C" fn(*mut c_void) -> c_int;
type IpasirVal = unsafe extern "C" fn(*mut c_void, c_int) -> c_int;
type IpasirSignature = unsafe extern "C" fn() -> *const c_char;
type TerminateCallback = unsafe extern "C" fn(*mut c_void) -> c_int;
type IpasirSetTerminate = unsafe extern "C" fn(*mut c_void, *mut c_void, Option<TerminateCallback>);
type HtdMaskAll = unsafe extern "C" fn(*mut c_void);
type HtdSetDecision = unsafe extern "C" fn(*mut c_void, c_int, c_int);

/// A loaded IPASIR shared library: the `dlopen` handle plus every resolved
/// entry point.  Owned by the one [`IpasirBackend`] that loaded it, which
/// releases its solver handle before the library is `dlclose`d.
///
/// # Safety invariants
///
/// * `handle` stays valid until `Drop` (nothing else closes it).
/// * The function pointers were resolved from this `handle` against the
///   IPASIR signatures; IPASIR requires implementations to support multiple
///   concurrently live solver instances, so calling `init` / driving
///   distinct handles from distinct threads is within the contract.  One
///   *handle* is never driven from two threads at once (enforced by
///   `&mut self` in [`IpasirBackend`]).
struct IpasirLibrary {
    handle: *mut c_void,
    path: PathBuf,
    signature: String,
    init: IpasirInit,
    release: IpasirRelease,
    add: IpasirAdd,
    assume: IpasirAssume,
    solve: IpasirSolve,
    val: IpasirVal,
    set_terminate: Option<IpasirSetTerminate>,
    htd_mask_all: Option<HtdMaskAll>,
    htd_set_decision: Option<HtdSetDecision>,
}

impl Drop for IpasirLibrary {
    fn drop(&mut self) {
        // SAFETY: `handle` came from `dlopen` and is closed exactly once.
        #[cfg(unix)]
        unsafe {
            dlclose(self.handle);
        }
    }
}

impl std::fmt::Debug for IpasirLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpasirLibrary")
            .field("path", &self.path)
            .field("signature", &self.signature)
            .field("htd_extensions", &self.htd_set_decision.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(unix)]
fn last_dl_error() -> String {
    // SAFETY: `dlerror` returns either null or a pointer to a thread-local
    // NUL-terminated string that stays valid until the next dl* call.
    unsafe {
        let msg = dlerror();
        if msg.is_null() {
            "unknown dlopen error".to_string()
        } else {
            CStr::from_ptr(msg).to_string_lossy().into_owned()
        }
    }
}

impl IpasirLibrary {
    #[cfg(unix)]
    fn open(path: &Path) -> Result<IpasirLibrary, BackendError> {
        let c_path = CString::new(path.as_os_str().as_encoded_bytes()).map_err(|_| {
            BackendError::new(format!(
                "library path `{}` contains an interior NUL byte",
                path.display()
            ))
        })?;
        // SAFETY: `c_path` is a valid NUL-terminated string; RTLD_NOW makes
        // unresolvable libraries fail here instead of at first call.
        let handle = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            return Err(BackendError::new(format!(
                "dlopen `{}` failed: {}",
                path.display(),
                last_dl_error()
            )));
        }
        let library = Self::resolve(handle, path);
        if library.is_err() {
            // A library missing required symbols must not stay mapped into
            // the process: `Drop` only runs for a fully constructed
            // `IpasirLibrary`, so close the handle here.
            // SAFETY: `handle` came from `dlopen` above and nothing else
            // owns it on this path.
            unsafe { dlclose(handle) };
        }
        library
    }

    /// Resolves every IPASIR entry point from a live `dlopen` handle; on
    /// success the returned library owns the handle.
    #[cfg(unix)]
    fn resolve(handle: *mut c_void, path: &Path) -> Result<IpasirLibrary, BackendError> {
        let sym = |name: &str| -> Result<*mut c_void, BackendError> {
            let c_name = CString::new(name).expect("symbol names contain no NUL");
            // SAFETY: `handle` is a live dlopen handle, `c_name` is valid.
            let ptr = unsafe { dlsym(handle, c_name.as_ptr()) };
            if ptr.is_null() {
                Err(BackendError::new(format!(
                    "`{}` does not export the IPASIR symbol `{name}`",
                    path.display()
                )))
            } else {
                Ok(ptr)
            }
        };
        let optional = |name: &str| -> Option<*mut c_void> {
            let c_name = CString::new(name).expect("symbol names contain no NUL");
            // SAFETY: as above; a missing optional symbol is simply None.
            let ptr = unsafe { dlsym(handle, c_name.as_ptr()) };
            (!ptr.is_null()).then_some(ptr)
        };
        // SAFETY: each transmute reinterprets a non-null `dlsym` result as
        // the function type the IPASIR spec assigns to that symbol name.
        let library = unsafe {
            let signature = optional("ipasir_signature")
                .map(|p| {
                    let f: IpasirSignature = std::mem::transmute(p);
                    let s = f();
                    if s.is_null() {
                        String::new()
                    } else {
                        CStr::from_ptr(s).to_string_lossy().into_owned()
                    }
                })
                .unwrap_or_default();
            IpasirLibrary {
                handle,
                path: path.to_path_buf(),
                signature,
                init: std::mem::transmute::<*mut c_void, IpasirInit>(sym("ipasir_init")?),
                release: std::mem::transmute::<*mut c_void, IpasirRelease>(sym("ipasir_release")?),
                add: std::mem::transmute::<*mut c_void, IpasirAdd>(sym("ipasir_add")?),
                assume: std::mem::transmute::<*mut c_void, IpasirAssume>(sym("ipasir_assume")?),
                solve: std::mem::transmute::<*mut c_void, IpasirSolve>(sym("ipasir_solve")?),
                val: std::mem::transmute::<*mut c_void, IpasirVal>(sym("ipasir_val")?),
                set_terminate: optional("ipasir_set_terminate")
                    .map(|p| std::mem::transmute::<*mut c_void, IpasirSetTerminate>(p)),
                htd_mask_all: optional("ipasir_htd_mask_all_decisions")
                    .map(|p| std::mem::transmute::<*mut c_void, HtdMaskAll>(p)),
                htd_set_decision: optional("ipasir_htd_set_decision")
                    .map(|p| std::mem::transmute::<*mut c_void, HtdSetDecision>(p)),
            }
        };
        Ok(library)
    }

    #[cfg(not(unix))]
    fn open(path: &Path) -> Result<IpasirLibrary, BackendError> {
        Err(BackendError::new(format!(
            "the IPASIR dynamic-library backend needs a Unix dynamic linker \
             (cannot load `{}` on this platform)",
            path.display()
        )))
    }
}

/// The boxed interrupt predicate handed to `ipasir_set_terminate` as its
/// `data` pointer; boxed so its address is stable for the library's polls.
type InterruptState = Arc<dyn Fn() -> bool + Send + Sync>;

/// The C-side trampoline the library polls: forwards to the installed Rust
/// predicate.  IPASIR: non-zero means "terminate the search".
// SAFETY: callers (the IPASIR library) must pass the `data` pointer that was
// registered alongside this trampoline; `set_interrupt` guarantees it is a
// live `Box<InterruptState>`.
unsafe extern "C" fn terminate_trampoline(data: *mut c_void) -> c_int {
    // SAFETY: `data` is the address of the live `Box<InterruptState>` owned
    // by the backend that installed this callback; the box outlives every
    // solve call (it is only replaced between queries).
    let check = unsafe { &*(data as *const InterruptState) };
    c_int::from(check())
}

/// IPASIR return values of `ipasir_solve`.
const IPASIR_SAT: c_int = 10;
const IPASIR_UNSAT: c_int = 20;
const IPASIR_INTERRUPTED: c_int = 0;

/// A [`SatBackend`] driving a solver handle of a `dlopen`ed IPASIR library.
///
/// See the [module docs](self) for the incrementality contract and the
/// optional `ipasir_htd_*` extension subset.  Create one with
/// [`IpasirBackend::load`]; the CLI syntax is `--backend ipasir:LIB.so`.
pub struct IpasirBackend {
    library: IpasirLibrary,
    /// The live solver handle of this instance (owned: released on drop).
    solver: *mut c_void,
    num_vars: u32,
    /// Clauses streamed into `solver` so far: each added clause crosses the
    /// ABI exactly once, which the incrementality test in
    /// `tests/ipasir_equivalence.rs` asserts.
    clauses_transmitted: u64,
    /// Exclusive upper bound on the variables this handle has actually
    /// seen (in a transmitted clause or an assumption).  `ipasir_val` is
    /// only defined for variables in the formula, so the model readback
    /// stops here — variables allocated by `new_var` but never mentioned
    /// are unconstrained and read as `None`, like the builtin solver's
    /// unassigned variables.
    transmitted_vars: u32,
    /// Model of the most recent SAT answer, indexed by variable.
    model: Vec<Option<bool>>,
    queries: u64,
    known_unsat: bool,
    /// Keeps the predicate behind `ipasir_set_terminate`'s data pointer
    /// alive (and at a stable address) for as long as it is installed.
    /// This is the *combined* predicate (budget ∨ user interrupt); the two
    /// ingredients live in `user_interrupt` and `budget` below so either
    /// can be replaced without losing the other.
    interrupt: Option<Box<InterruptState>>,
    /// The caller-supplied interrupt predicate (the job's cancel flag).
    user_interrupt: Option<InterruptState>,
    /// Shared resource budget, folded into the terminate predicate and
    /// checked at query entry.  The external solver's conflicts are not
    /// observable and no one charges conflicts to this tracker, so only its
    /// deadline applies.
    budget: Option<Arc<BudgetTracker>>,
}

// SAFETY: the solver handle is driven only through `&mut self`, and IPASIR
// requires libraries to support multiple concurrently live instances, so
// moving an instance between threads is sound.  The library's `dlopen`
// handle and code pointers are immutable after load; every other field is
// plain data or `Send + Sync` (the interrupt predicates, the budget).
unsafe impl Send for IpasirBackend {}

impl std::fmt::Debug for IpasirBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpasirBackend")
            .field("library", &self.library)
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses_transmitted)
            .field("queries", &self.queries)
            .field("known_unsat", &self.known_unsat)
            .field("interrupt", &self.interrupt.is_some())
            .finish_non_exhaustive()
    }
}

impl IpasirBackend {
    /// Loads the shared library at `path` and opens one solver handle.
    ///
    /// `path` is passed to `dlopen` verbatim: a path containing a `/` is
    /// loaded from the filesystem, a bare file name goes through the system
    /// library search path.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if the library cannot be loaded or misses one of
    /// the required IPASIR symbols (`ipasir_init` / `ipasir_release` /
    /// `ipasir_add` / `ipasir_assume` / `ipasir_solve` / `ipasir_val`).
    /// `ipasir_set_terminate` and the `ipasir_htd_*` extensions are
    /// optional: without the former, interrupts are ignored (wasted work,
    /// never wrong answers); without the latter, decision-masking hints are
    /// ignored (see the [module docs](self)).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, BackendError> {
        let library = IpasirLibrary::open(path.as_ref())?;
        // SAFETY: `init` was resolved from the live library.
        let solver = unsafe { (library.init)() };
        if solver.is_null() {
            return Err(BackendError::new(format!(
                "`{}`: ipasir_init returned a null solver handle",
                library.path.display()
            )));
        }
        Ok(IpasirBackend {
            library,
            solver,
            num_vars: 0,
            clauses_transmitted: 0,
            transmitted_vars: 0,
            model: Vec::new(),
            queries: 0,
            known_unsat: false,
            interrupt: None,
            user_interrupt: None,
            budget: None,
        })
    }

    /// The library's `ipasir_signature` string (empty if the library does
    /// not export one).
    #[must_use]
    pub fn signature(&self) -> &str {
        &self.library.signature
    }

    /// `true` if the library exports the `ipasir_htd_*` decision-masking
    /// extension subset (see the [module docs](self)).
    #[must_use]
    pub fn has_htd_extensions(&self) -> bool {
        self.library.htd_set_decision.is_some() && self.library.htd_mask_all.is_some()
    }

    /// How many clauses this instance has streamed into its library handle.
    ///
    /// Equals the number of clauses added so far — each clause crosses the
    /// ABI exactly once per instance, regardless of how many queries ran.
    #[must_use]
    pub fn clauses_transmitted(&self) -> u64 {
        self.clauses_transmitted
    }

    /// Streams one clause into the handle (`ipasir_add` per literal plus
    /// the terminating 0).  Literals use [`Lit::to_dimacs`] — the 1-based
    /// signed convention the IPASIR ABI shares with DIMACS.
    fn transmit(&mut self, lits: &[Lit]) {
        for &lit in lits {
            self.transmitted_vars = self.transmitted_vars.max(lit.var().index() + 1);
            // SAFETY: `solver` is this instance's live handle.
            unsafe { (self.library.add)(self.solver, lit.to_dimacs() as c_int) };
        }
        // SAFETY: as above; 0 terminates the clause.
        unsafe { (self.library.add)(self.solver, 0) };
        self.clauses_transmitted += 1;
    }

    /// (Re-)installs the terminate callback from the current budget and
    /// user interrupt, or detaches it when neither is set.  Libraries
    /// without `ipasir_set_terminate` skip the mid-solve polls; budget
    /// exhaustion is still honoured at query entry.
    fn install_terminate(&mut self) {
        let Some(set_terminate) = self.library.set_terminate else {
            return;
        };
        if self.budget.is_none() && self.user_interrupt.is_none() {
            if self.interrupt.take().is_some() {
                // SAFETY: live handle; detaching with a null callback is the
                // documented way to uninstall.
                unsafe { set_terminate(self.solver, std::ptr::null_mut(), None) };
            }
            return;
        }
        let budget = self.budget.clone();
        let user = self.user_interrupt.clone();
        let combined: InterruptState = Arc::new(move || {
            budget.as_ref().is_some_and(|budget| budget.check())
                || user.as_ref().is_some_and(|check| check())
        });
        let state: Box<InterruptState> = Box::new(combined);
        let data = std::ptr::addr_of!(*state) as *mut c_void;
        // SAFETY: live handle; `data` points at the boxed predicate, which
        // `self.interrupt` keeps alive (and address-stable) until the
        // callback is replaced or the backend drops.
        unsafe { set_terminate(self.solver, data, Some(terminate_trampoline)) };
        self.interrupt = Some(state);
    }

    /// `true` when the budget or the user interrupt says the next query
    /// should not start at all.
    fn should_abandon(&self) -> bool {
        self.budget.as_ref().is_some_and(|budget| budget.check())
            || self.user_interrupt.as_ref().is_some_and(|check| check())
    }
}

impl SatBackend for IpasirBackend {
    fn name(&self) -> String {
        format!("ipasir:{}", self.library.path.display())
    }

    fn new_var(&mut self) -> Var {
        // IPASIR variables are implicit (the library grows its variable
        // space on demand); only the count is tracked here.
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
        self.transmit(lits);
        true
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
        self.queries += 1;
        if self.known_unsat {
            return Ok(SolveResult::Unsat);
        }
        // An already-exhausted budget (or tripped cancel) must not enter the
        // library at all — terminate callbacks are polled at the library's
        // leisure, and some libraries do not support them.
        if self.should_abandon() {
            self.model.clear();
            return Ok(SolveResult::Interrupted);
        }
        for &lit in assumptions {
            self.transmitted_vars = self.transmitted_vars.max(lit.var().index() + 1);
            // SAFETY: live handle; assumptions are per-query by IPASIR
            // semantics and need no cleanup.
            unsafe { (self.library.assume)(self.solver, lit.to_dimacs() as c_int) };
        }
        // SAFETY: live handle.
        let answer = unsafe { (self.library.solve)(self.solver) };
        match answer {
            IPASIR_SAT => {
                self.model.clear();
                // `ipasir_val` is only defined for variables the library
                // has seen; allocated-but-never-mentioned variables are
                // unconstrained and stay `None` (the builtin solver leaves
                // them unassigned too).
                let bound = self.transmitted_vars.min(self.num_vars);
                self.model.reserve(self.num_vars as usize);
                for index in 0..bound {
                    // SAFETY: live handle, in the SAT state `ipasir_val`
                    // requires; variables are queried positively.
                    let value = unsafe { (self.library.val)(self.solver, index as c_int + 1) };
                    self.model.push(match value {
                        v if v > 0 => Some(true),
                        v if v < 0 => Some(false),
                        _ => None,
                    });
                }
                self.model.resize(self.num_vars as usize, None);
                Ok(SolveResult::Sat)
            }
            IPASIR_UNSAT => {
                // Drop the previous SAT model: `model_value` promises
                // `None` when the most recent query was not satisfiable.
                self.model.clear();
                Ok(SolveResult::Unsat)
            }
            IPASIR_INTERRUPTED => {
                self.model.clear();
                Ok(SolveResult::Interrupted)
            }
            other => Err(BackendError::new(format!(
                "`{}`: ipasir_solve returned unexpected status {other} (want 10/20/0)",
                self.library.path.display()
            ))),
        }
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index() as usize).copied().flatten()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            vars: self.num_vars as usize,
            clauses: self.clauses_transmitted as usize,
            queries: self.queries,
            // `solves` is derived from `queries` (see the dimacs backend):
            // one hand-maintained counter, no drift.
            solver: SolverStats {
                solves: self.queries,
                ..SolverStats::default()
            },
        }
    }

    fn set_decision_var(&mut self, var: Var, eligible: bool) {
        if let Some(set_decision) = self.library.htd_set_decision {
            // SAFETY: live handle; optional extension resolved at load time.
            unsafe { set_decision(self.solver, var.index() as c_int + 1, c_int::from(eligible)) };
        }
    }

    fn mask_all_decisions(&mut self) {
        if let Some(mask_all) = self.library.htd_mask_all {
            // SAFETY: live handle; optional extension resolved at load time.
            unsafe { mask_all(self.solver) };
        }
    }

    fn set_interrupt(&mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) {
        self.user_interrupt = Some(check);
        self.install_terminate();
    }

    fn set_budget(&mut self, budget: Option<Arc<BudgetTracker>>) {
        self.budget = budget;
        self.install_terminate();
    }
}

impl Drop for IpasirBackend {
    fn drop(&mut self) {
        // Detach the terminate callback before releasing so the library
        // cannot poll a dangling predicate mid-teardown.
        if self.interrupt.is_some() {
            if let Some(set_terminate) = self.library.set_terminate {
                // SAFETY: live handle.
                unsafe { set_terminate(self.solver, std::ptr::null_mut(), None) };
            }
        }
        // SAFETY: `solver` came from this library's `ipasir_init` and is
        // released exactly once.
        unsafe { (self.library.release)(self.solver) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_library_is_a_backend_error_not_a_panic() {
        let err = IpasirBackend::load("/nonexistent/htd-test-ipasir.so").unwrap_err();
        assert!(err.message.contains("dlopen"), "{err}");
        assert!(err.message.contains("htd-test-ipasir"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn library_without_ipasir_symbols_is_rejected_with_the_symbol_name() {
        // libc (already mapped into the process) is a loadable shared
        // object that certainly does not export `ipasir_init`.
        let candidates = [
            "libc.so.6",
            "libc.so",
            "/lib/x86_64-linux-gnu/libc.so.6",
            "/usr/lib/libc.so.6",
        ];
        let Some(err) = candidates.iter().find_map(|path| {
            IpasirBackend::load(path)
                .err()
                .filter(|e| !e.message.contains("dlopen"))
        }) else {
            // No loadable libc under a known name: nothing to assert here.
            return;
        };
        assert!(err.message.contains("ipasir_"), "{err}");
    }

    #[test]
    fn ipasir_literal_codes_are_one_based_and_signed() {
        let v0 = Var::from_index(0);
        let v6 = Var::from_index(6);
        assert_eq!(Lit::pos(v0).to_dimacs(), 1);
        assert_eq!(Lit::neg(v0).to_dimacs(), -1);
        assert_eq!(Lit::pos(v6).to_dimacs(), 7);
        assert_eq!(Lit::neg(v6).to_dimacs(), -7);
        // The ABI convention is the DIMACS rendering.
        assert_eq!(Lit::neg(v6).to_string(), "-7");
    }
}
