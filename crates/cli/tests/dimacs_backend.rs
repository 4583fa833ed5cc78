//! End-to-end test of the DIMACS process backend: the `htd` binary itself is
//! used as the external solver (`htd sat` speaks the SAT-competition output
//! format), so the whole process-backend path — file writing, spawning,
//! answer parsing, model reconstruction — is exercised without any
//! third-party solver installed.

use htd_core::{BackendChoice, DetectedBy, DetectionOutcome, DetectionReport, SessionBuilder};
use htd_rtl::{Design, ValidatedDesign};
use htd_sat::{DimacsProcessBackend, Lit, SatBackend, SolveResult};

fn htd_binary() -> &'static str {
    env!("CARGO_BIN_EXE_htd")
}

/// Runs the flow on `backend` and returns the report.
fn run_flow(design: &ValidatedDesign, backend: &BackendChoice) -> DetectionReport {
    SessionBuilder::new(design.clone())
        .backend(backend.clone())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn process_backend_solves_through_the_htd_binary() {
    let mut backend = DimacsProcessBackend::new(htd_binary()).with_args(["sat"]);
    let a = backend.new_var();
    let b = backend.new_var();
    backend.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    backend.add_clause(&[Lit::neg(a), Lit::pos(b)]);

    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
    assert_eq!(backend.model_value(b), Some(true));

    // Assumptions are per-query unit constraints.
    assert_eq!(
        backend.solve_under(&[Lit::neg(b)]).unwrap(),
        SolveResult::Unsat
    );
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
    assert_eq!(backend.stats().queries, 3);
}

#[test]
fn process_backend_agrees_with_the_builtin_solver_on_random_formulas() {
    // Deterministic pseudo-random 3-SAT instances near the phase transition:
    // the process backend (via `htd sat`) and the builtin solver must agree
    // on satisfiability for every instance.
    let mut state = 0x3511_37d5_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as u32
    };
    for _ in 0..8 {
        let num_vars = 12;
        let num_clauses = 50;
        let mut process = DimacsProcessBackend::new(htd_binary()).with_args(["sat"]);
        let mut builtin = htd_sat::Solver::new();
        let pvars: Vec<_> = (0..num_vars).map(|_| process.new_var()).collect();
        let bvars: Vec<_> = (0..num_vars)
            .map(|_| SatBackend::new_var(&mut builtin))
            .collect();
        for _ in 0..num_clauses {
            let mut clause_p = Vec::new();
            let mut clause_b = Vec::new();
            while clause_p.len() < 3 {
                let v = (next() as usize) % num_vars;
                let neg = next() & 1 == 1;
                if !clause_p.iter().any(|l: &Lit| l.var() == pvars[v]) {
                    clause_p.push(Lit::new(pvars[v], neg));
                    clause_b.push(Lit::new(bvars[v], neg));
                }
            }
            process.add_clause(&clause_p);
            SatBackend::add_clause(&mut builtin, &clause_b);
        }
        let expected = SatBackend::solve_under(&mut builtin, &[]).unwrap();
        let answered = process.solve_under(&[]).unwrap();
        assert_eq!(
            answered, expected,
            "process backend diverged from the builtin solver"
        );
    }
}

#[test]
fn detection_session_runs_on_the_dimacs_process_backend() {
    // An input-triggered Trojan: the init property must fail identically on
    // the builtin and the external-process backend.
    let mut d = Design::new("proc_backend_trojan");
    let input = d.add_input("in", 8).unwrap();
    let trigger = d.add_register("trigger", 1, 0).unwrap();
    let result = d.add_register("result", 8, 0).unwrap();
    let magic = d.eq_const(d.signal(input), 0xA5).unwrap();
    let trig_next = d.or(d.signal(trigger), magic).unwrap();
    d.set_register_next(trigger, trig_next).unwrap();
    let flip = d.zero_ext(d.signal(trigger), 8).unwrap();
    let payload = d.xor(d.signal(input), flip).unwrap();
    d.set_register_next(result, payload).unwrap();
    d.add_output("out", d.signal(result)).unwrap();
    let design = d.validated().unwrap();

    // `htd sat` has no incremental interface, so each query re-reads the
    // CNF, but the session still lowers every property into one AIG.
    let backend = BackendChoice::DimacsProcess(htd_binary().into(), vec!["sat".to_string()]);
    let external_report = run_flow(&design, &backend);

    // The builtin path must agree on the verdict.
    let builtin_report = run_flow(&design, &BackendChoice::Builtin);
    for (label, report) in [("external", &external_report), ("builtin", &builtin_report)] {
        match &report.outcome {
            DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample,
            } => {
                assert_eq!(*detected_by, DetectedBy::InitProperty, "{label}");
                assert!(!counterexample.diffs.is_empty(), "{label}");
            }
            other => panic!("{label}: expected init-property detection, got {other:?}"),
        }
    }

    // The process backend cannot see a foreign solver's internals, but its
    // visible accounting must reach `DetectionReport::solver_totals`:
    // queries answered (this read zero before `stats()` stopped returning
    // `SolverStats::default()`), all of them on the master, so no fork.
    let totals = &external_report.solver_totals;
    assert!(
        totals.solves > 0,
        "dimacs queries must be counted: {totals:?}"
    );
    assert_eq!(totals.fork_count, 0, "the flow forks nothing: {totals:?}");
    assert_eq!(totals.bytes_cloned, 0, "the flow forks nothing: {totals:?}");
}
