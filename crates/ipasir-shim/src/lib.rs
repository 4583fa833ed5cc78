//! The bundled CDCL solver exported through the **IPASIR** C ABI.
//!
//! Built as a `cdylib` (`libipasir_htd.so`), this crate turns the toolkit's
//! own [`Solver`] into a standard incremental solver library: exactly as
//! `htd sat` made the binary its own DIMACS reference solver for the
//! process backend, this shim makes it its own *incremental* reference
//! library for the dynamic-library backend — so
//! `--backend ipasir:target/release/libipasir_htd.so` and the equivalence
//! suite run without any third-party solver or network access.
//!
//! # Exported ABI
//!
//! The standard IPASIR subset ([spec](https://github.com/biotomas/ipasir)):
//!
//! * `ipasir_signature` — solver name/version string.
//! * `ipasir_init` / `ipasir_release` — create/destroy one solver handle
//!   (multiple concurrently live handles are supported, as IPASIR
//!   requires).
//! * `ipasir_add` — stream clause literals (1-based signed ints, clauses
//!   terminated by 0); variables grow on demand.
//! * `ipasir_assume` — register a per-query assumption.
//! * `ipasir_solve` — solve under the registered assumptions; returns 10
//!   (SAT), 20 (UNSAT) or 0 (terminated by the callback).  Assumptions are
//!   cleared afterwards.
//! * `ipasir_val` — truth value of a literal in the SAT state: `lit`,
//!   `-lit`, or 0 for a don't-care.
//! * `ipasir_failed` — after UNSAT, whether an assumption was used in the
//!   refutation.  This shim over-approximates (every assumption of the
//!   failed query reports 1), which the spec permits.
//! * `ipasir_set_terminate` — install the termination poll; wired to
//!   [`Solver::set_interrupt`].
//! * `ipasir_set_learn` — accepted and ignored (the shim exports no learnt
//!   clauses).
//!
//! # The `ipasir_htd_*` extensions
//!
//! Two optional extra symbols expose the solver's decision-variable
//! masking so the `IpasirBackend` in `htd-sat` can focus the search on a
//! query's cone exactly like the builtin backend does (standard IPASIR
//! clients never look these up and are unaffected):
//!
//! * `ipasir_htd_mask_all_decisions(S)` — mark every variable ineligible
//!   for branching ([`Solver::mask_all_decisions`]).
//! * `ipasir_htd_set_decision(S, var, eligible)` — per-variable eligibility
//!   ([`Solver::set_decision_var`]), `var` 1-based as everywhere in IPASIR.
//!
//! With the extensions in play a solver handle receives the *same*
//! operation sequence as the builtin solver, which makes detection
//! reports byte-identical across `--backend builtin` and the shim (checked
//! by `tests/ipasir_equivalence.rs` on every bundled benchmark).
//!
//! # Safety
//!
//! Every exported function takes the opaque handle created by
//! `ipasir_init`; passing anything else is undefined behaviour, exactly as
//! in every C IPASIR library.  The handle is not internally synchronised —
//! IPASIR requires the *client* to drive one handle from one thread at a
//! time (distinct handles are fully independent).

use std::os::raw::{c_char, c_int, c_void};
use std::sync::Arc;

use htd_sat::{Lit, SolveResult, Solver, Var};

/// The state behind one `ipasir_init` handle.
pub struct ShimSolver {
    solver: Solver,
    /// Literals of the clause currently being streamed by `ipasir_add`.
    clause: Vec<Lit>,
    /// Assumptions registered for the next `ipasir_solve`.
    assumptions: Vec<Lit>,
    /// The assumptions of the most recent UNSAT query (the over-approximate
    /// `ipasir_failed` set); empty in every other state.
    failed: Vec<c_int>,
}

impl ShimSolver {
    fn new() -> Self {
        ShimSolver {
            solver: Solver::new(),
            clause: Vec::new(),
            assumptions: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Converts an IPASIR literal (1-based, signed) to a [`Lit`], growing
    /// the variable space on demand as the spec requires.
    fn import(&mut self, lit_or_zero: c_int) -> Lit {
        let index = lit_or_zero.unsigned_abs() - 1;
        while self.solver.num_vars() <= index as usize {
            self.solver.new_var();
        }
        Lit::new(Var::from_index(index), lit_or_zero < 0)
    }
}

/// The termination callback installed by `ipasir_set_terminate`, wrapped so
/// the raw `data` pointer can cross into the `Send + Sync` closure that
/// [`Solver::set_interrupt`] needs.  Soundness is the IPASIR contract: the
/// client guarantees `data` stays valid while the callback is installed and
/// that the callback itself may be polled from the solving thread.
#[derive(Clone, Copy)]
struct TerminateHook {
    callback: unsafe extern "C" fn(*mut c_void) -> c_int,
    data: *mut c_void,
}

// SAFETY: see `TerminateHook` — validity and thread-compatibility of the
// pointer are the IPASIR client's obligations, mirrored verbatim here.
unsafe impl Send for TerminateHook {}
// SAFETY: same IPASIR-contract argument as `Send` above.
unsafe impl Sync for TerminateHook {}

impl TerminateHook {
    /// Polls the client's callback (a method, so closures capture the whole
    /// `Send + Sync` wrapper rather than its raw-pointer field).
    fn fire(&self) -> bool {
        // SAFETY: the client keeps `data` valid while the callback is
        // installed (the `ipasir_set_terminate` contract).
        unsafe { (self.callback)(self.data) != 0 }
    }
}

const IPASIR_SAT: c_int = 10;
const IPASIR_UNSAT: c_int = 20;
const IPASIR_INTERRUPTED: c_int = 0;

/// IPASIR: the solver's name and version.
#[no_mangle]
pub extern "C" fn ipasir_signature() -> *const c_char {
    static SIGNATURE: &[u8] = b"htd-cdcl (golden-free-htd ipasir shim)\0";
    SIGNATURE.as_ptr().cast()
}

/// IPASIR: creates a fresh solver handle.
#[no_mangle]
pub extern "C" fn ipasir_init() -> *mut c_void {
    Box::into_raw(Box::new(ShimSolver::new())).cast()
}

/// IPASIR: destroys a handle created by [`ipasir_init`].
///
/// # Safety
///
/// `solver` must be a handle from [`ipasir_init`] not yet released.
#[no_mangle]
pub unsafe extern "C" fn ipasir_release(solver: *mut c_void) {
    // SAFETY: per this fn's contract, `solver` is the unreleased box that
    // `ipasir_init` leaked; reclaiming it here drops it exactly once.
    drop(unsafe { Box::from_raw(solver.cast::<ShimSolver>()) });
}

/// Reborrows an IPASIR handle as the shim solver it points to.
// SAFETY: callers must pass a live `ipasir_init` handle (every caller is an
// exported entry point whose `# Safety` section demands exactly that) and
// must not hold two shim borrows at once — the C ABI is single-threaded per
// handle by the IPASIR spec.
unsafe fn shim<'a>(solver: *mut c_void) -> &'a mut ShimSolver {
    // SAFETY: guaranteed by this fn's own contract above.
    unsafe { &mut *solver.cast::<ShimSolver>() }
}

/// IPASIR: streams one clause literal (or the terminating 0).
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_add(solver: *mut c_void, lit_or_zero: c_int) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    if lit_or_zero == 0 {
        let clause = std::mem::take(&mut shim.clause);
        // An empty clause legitimately makes the formula UNSAT; the solver
        // records that and answers every later query accordingly.
        let _ = shim.solver.add_clause(clause);
    } else {
        let lit = shim.import(lit_or_zero);
        shim.clause.push(lit);
    }
}

/// IPASIR: registers an assumption for the next [`ipasir_solve`].
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_assume(solver: *mut c_void, lit: c_int) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    let lit = shim.import(lit);
    shim.assumptions.push(lit);
}

/// IPASIR: solves under the registered assumptions; 10 = SAT, 20 = UNSAT,
/// 0 = terminated by the callback.  Assumptions are cleared afterwards.
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_solve(solver: *mut c_void) -> c_int {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    let assumptions = std::mem::take(&mut shim.assumptions);
    let result = shim.solver.solve_with_assumptions(&assumptions);
    shim.failed.clear();
    match result {
        SolveResult::Sat => IPASIR_SAT,
        SolveResult::Unsat => {
            // Over-approximate `ipasir_failed` set: every assumption of the
            // failed query (permitted by the spec, which only asks for a
            // superset-of-used guarantee per assumption queried).
            shim.failed
                .extend(assumptions.iter().map(|l| l.to_dimacs() as c_int));
            IPASIR_UNSAT
        }
        SolveResult::Interrupted => IPASIR_INTERRUPTED,
    }
}

/// IPASIR: the truth value of `lit` in the satisfying assignment — `lit`
/// if true, `-lit` if false, 0 for a don't-care.
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle in the SAT state.
#[no_mangle]
pub unsafe extern "C" fn ipasir_val(solver: *mut c_void, lit: c_int) -> c_int {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    let index = lit.unsigned_abs() - 1;
    match shim.solver.value(Var::from_index(index)) {
        None => 0,
        Some(positive_true) => {
            // `positive_true` is the value of the *variable*; flip for a
            // negative query literal.
            if positive_true == (lit > 0) {
                lit
            } else {
                -lit
            }
        }
    }
}

/// IPASIR: after an UNSAT answer, whether the assumption `lit` was used in
/// the refutation (this shim reports 1 for every assumption of the failed
/// query — a sound over-approximation).
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle in the UNSAT state.
#[no_mangle]
pub unsafe extern "C" fn ipasir_failed(solver: *mut c_void, lit: c_int) -> c_int {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    c_int::from(shim.failed.contains(&lit))
}

/// IPASIR: installs (or, with a null callback, removes) the termination
/// poll; a non-zero return from the callback abandons the running query.
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle; `data` must stay valid
/// (and safe to touch from the solving thread) while the callback is
/// installed, per the IPASIR contract.
#[no_mangle]
pub unsafe extern "C" fn ipasir_set_terminate(
    solver: *mut c_void,
    data: *mut c_void,
    terminate: Option<unsafe extern "C" fn(*mut c_void) -> c_int>,
) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    match terminate {
        None => shim.solver.clear_interrupt(),
        Some(callback) => {
            let hook = TerminateHook { callback, data };
            shim.solver.set_interrupt(Arc::new(move || hook.fire()));
        }
    }
}

/// IPASIR: learnt-clause export hook — accepted and ignored (the shim does
/// not export learnt clauses; passing a null callback is also fine).
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_set_learn(
    solver: *mut c_void,
    _data: *mut c_void,
    _max_length: c_int,
    _learn: Option<unsafe extern "C" fn(*mut c_void, *mut c_int)>,
) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let _ = unsafe { shim(solver) };
}

/// Extension: mark every variable ineligible for branching
/// ([`Solver::mask_all_decisions`]).
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_htd_mask_all_decisions(solver: *mut c_void) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    shim.solver.mask_all_decisions();
}

/// Extension: per-variable branching eligibility
/// ([`Solver::set_decision_var`]); `var` is 1-based.
///
/// # Safety
///
/// `solver` must be a live [`ipasir_init`] handle.
#[no_mangle]
pub unsafe extern "C" fn ipasir_htd_set_decision(solver: *mut c_void, var: c_int, eligible: c_int) {
    // SAFETY: this entry point's contract — `solver` is a live handle.
    let shim = unsafe { shim(solver) };
    let index = var.unsigned_abs() - 1;
    while shim.solver.num_vars() <= index as usize {
        shim.solver.new_var();
    }
    shim.solver
        .set_decision_var(Var::from_index(index), eligible != 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CStr;

    /// Drives the exported ABI exactly as a C client would (through the raw
    /// pointers), without any dynamic loading.
    #[test]
    fn abi_roundtrip_sat_unsat_and_model() {
        let s = ipasir_init();
        // SAFETY: `s` stays live for the whole block and is released once.
        unsafe {
            // (1 | 2) & (-1 | 2)
            for lit in [1, 2, 0, -1, 2, 0] {
                ipasir_add(s, lit);
            }
            assert_eq!(ipasir_solve(s), IPASIR_SAT);
            assert_eq!(ipasir_val(s, 2), 2, "1 2 & -1 2 forces 2");
            assert_eq!(ipasir_val(s, -2), -(-2), "negative query literal flips");

            // Assumptions are per-query.
            ipasir_assume(s, -2);
            assert_eq!(ipasir_solve(s), IPASIR_UNSAT);
            assert_eq!(ipasir_failed(s, -2), 1);
            assert_eq!(ipasir_failed(s, 7), 0);
            assert_eq!(ipasir_solve(s), IPASIR_SAT);

            ipasir_release(s);
        }
    }

    #[test]
    fn empty_clause_makes_every_query_unsat() {
        let s = ipasir_init();
        // SAFETY: `s` stays live for the whole block and is released once.
        unsafe {
            ipasir_add(s, 0);
            assert_eq!(ipasir_solve(s), IPASIR_UNSAT);
            ipasir_release(s);
        }
    }

    #[test]
    fn terminate_callback_interrupts_a_query() {
        // SAFETY: ignores its `data` pointer entirely.
        unsafe extern "C" fn always(_data: *mut c_void) -> c_int {
            1
        }
        let s = ipasir_init();
        // SAFETY: `s` stays live for the whole block and is released once;
        // the terminate callback never dereferences its null `data`.
        unsafe {
            ipasir_add(s, 1);
            ipasir_add(s, 2);
            ipasir_add(s, 0);
            ipasir_set_terminate(s, std::ptr::null_mut(), Some(always));
            assert_eq!(ipasir_solve(s), IPASIR_INTERRUPTED);
            // Removing the callback restores normal solving.
            ipasir_set_terminate(s, std::ptr::null_mut(), None);
            assert_eq!(ipasir_solve(s), IPASIR_SAT);
            ipasir_release(s);
        }
    }

    #[test]
    fn signature_is_a_nul_terminated_c_string() {
        // SAFETY: `ipasir_signature` returns a 'static nul-terminated string.
        let sig = unsafe { CStr::from_ptr(ipasir_signature()) };
        assert!(sig.to_str().unwrap().contains("htd-cdcl"));
    }

    #[test]
    fn independent_handles_do_not_share_state() {
        let a = ipasir_init();
        let b = ipasir_init();
        // SAFETY: `a` and `b` stay live for the block, each released once.
        unsafe {
            ipasir_add(a, 1);
            ipasir_add(a, 0);
            ipasir_assume(b, -1);
            assert_eq!(ipasir_solve(b), IPASIR_SAT, "b never saw a's clause");
            assert_eq!(ipasir_solve(a), IPASIR_SAT);
            assert_eq!(ipasir_val(a, 1), 1);
            ipasir_release(a);
            ipasir_release(b);
        }
    }
}
