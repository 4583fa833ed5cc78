//! Equivalence suite for the IPASIR dynamic-library backend: the bundled
//! CDCL solver exported through the IPASIR C ABI (`crates/ipasir-shim`,
//! built as `libipasir_htd.so`) must drive the detection flow to reports
//! **byte-identical** to the builtin backend on every bundled benchmark —
//! and it must do so *incrementally*: clauses cross the ABI exactly once per
//! backend instance, no matter how many queries run.
//!
//! Byte-identical here means everything the flow derives from solver
//! *answers*: verdicts, counterexamples, fanout levels, property traces,
//! resolution counts, encoder statistics.  The solver-internal work
//! counters (`SolverStats`) are scrubbed before comparison — the builtin
//! backend reports decisions/conflicts/propagations while an external
//! library is a black box that can only report its queries, so those
//! counters are backend-*dependent* by design.
//!
//! Identical models (not just identical verdicts) are possible because the
//! shim exports the optional `ipasir_htd_*` decision-masking extensions:
//! with them, a shim handle receives exactly the operation sequence of the
//! builtin solver (see `crates/sat/src/ipasir.rs`).  A foreign IPASIR
//! library without the extensions would still produce equivalent verdicts,
//! just not bit-equal counterexamples.

use std::path::PathBuf;

use golden_free_htd::detect::{BackendChoice, DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::ipc::MiterSession;
use golden_free_htd::sat::{
    BudgetTracker, IpasirBackend, Lit, SatBackend, SolveBudget, SolveResult, SolverStats,
};
use golden_free_htd::trusthub::registry::Benchmark;

/// Locates the shim cdylib built by cargo (`HTD_IPASIR_LIB` overrides, for
/// CI legs that test a release build).  The root package has a
/// dev-dependency on `ipasir-shim`, so any `cargo test` invocation that
/// compiled this suite has also produced the shared object.
fn shim_library() -> PathBuf {
    // htd-lint: allow(strict-env): an opaque filesystem path consumed verbatim; there is nothing to parse strictly
    if let Ok(path) = std::env::var("HTD_IPASIR_LIB") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test binary has a path");
    // target/<profile>/deps/<test-binary> → target/<profile>
    let deps = exe.parent().expect("deps dir");
    let profile = deps.parent().expect("profile dir");
    for dir in [profile, deps] {
        let candidate = dir.join("libipasir_htd.so");
        if candidate.exists() {
            return candidate;
        }
    }
    panic!(
        "libipasir_htd.so not found next to {} — build it with `cargo build -p ipasir-shim` \
         (or point HTD_IPASIR_LIB at it)",
        exe.display()
    );
}

fn run_with(benchmark: Benchmark, backend: BackendChoice) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    SessionBuilder::new(design)
        .config(config)
        .backend(backend)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
}

/// Normalizes a report for cross-backend comparison: wall-clocks zeroed
/// (as in `DetectionReport::normalized`) plus the backend-*bookkeeping*
/// fields scrubbed — the solver-internal work counters and the per-check
/// clause counts (the builtin solver reports live attached clauses after
/// unit-simplification and clause-GC; an external backend can only count
/// the clauses transmitted to it, so the two tallies differ by design).
/// Everything the flow derives from solver answers — verdicts,
/// counterexamples, fanout levels, variable counts, AIG statistics — must
/// match byte-for-byte.
fn scrubbed(report: &DetectionReport) -> DetectionReport {
    let mut report = report.normalized();
    report.solver_totals = SolverStats::default();
    for trace in &mut report.properties {
        trace.report.stats.solver = SolverStats::default();
        trace.report.stats.cnf_clauses = 0;
    }
    report
}

/// Every bundled benchmark must report identically on the builtin backend
/// and on the shim loaded through the IPASIR ABI.
#[test]
fn all_benchmarks_report_identically_on_the_ipasir_shim() {
    let library = shim_library();
    for benchmark in Benchmark::all() {
        let builtin = scrubbed(&run_with(benchmark, BackendChoice::Builtin));
        let ipasir = scrubbed(&run_with(benchmark, BackendChoice::ipasir(&library)));
        assert_eq!(
            builtin,
            ipasir,
            "{}: builtin and ipasir reports differ",
            benchmark.name()
        );
        // Belt and braces: the rendered form covers every field.
        assert_eq!(
            format!("{builtin:?}"),
            format!("{ipasir:?}"),
            "{}: rendered reports differ",
            benchmark.name()
        );
    }
}

/// The backend is genuinely incremental: clauses cross the ABI exactly
/// once per backend instance, regardless of how many queries run, and the
/// backend's clause count is the count it transmitted.
#[test]
fn clauses_are_transmitted_exactly_once_per_backend_instance() {
    let mut backend = IpasirBackend::load(shim_library()).expect("shim loads");
    assert!(
        backend.has_htd_extensions(),
        "the shim exports the ipasir_htd_* subset"
    );
    assert!(
        backend.signature().contains("htd-cdcl"),
        "{}",
        backend.signature()
    );

    let vars: Vec<_> = (0..8).map(|_| backend.new_var()).collect();
    for window in vars.windows(2) {
        backend.add_clause(&[Lit::neg(window[0]), Lit::pos(window[1])]);
    }
    let clause_count = vars.len() as u64 - 1;
    assert_eq!(backend.clauses_transmitted(), clause_count);
    assert_eq!(backend.stats().clauses as u64, clause_count);

    // Many queries, zero re-transmissions.
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
    assert_eq!(
        backend
            .solve_under(&[Lit::pos(vars[0]), Lit::neg(vars[7])])
            .unwrap(),
        SolveResult::Unsat,
        "the implication chain forces v7 from v0"
    );
    assert_eq!(
        backend.solve_under(&[Lit::pos(vars[3])]).unwrap(),
        SolveResult::Sat
    );
    assert_eq!(backend.model_value(vars[7]), Some(true));
    assert_eq!(backend.clauses_transmitted(), clause_count);
    assert_eq!(backend.stats().queries, 3);
    assert_eq!(backend.stats().solver.solves, 3);

    // A late clause is transmitted once, on add.
    backend.add_clause(&[Lit::neg(vars[7])]);
    assert_eq!(backend.clauses_transmitted(), clause_count + 1);
    assert_eq!(
        backend.solve_under(&[Lit::pos(vars[0])]).unwrap(),
        SolveResult::Unsat
    );
    assert_eq!(backend.clauses_transmitted(), clause_count + 1);
    assert_eq!(backend.stats().clauses as u64, clause_count + 1);
}

/// Only the builtin solver forks: the IPASIR backend, and a session built
/// over it, answer `Err` naming the backend.
#[test]
fn an_ipasir_backend_does_not_fork() {
    let library = shim_library();
    let want = format!("`ipasir:{}` does not fork", library.display());
    let backend = IpasirBackend::load(&library).expect("shim loads");
    let Err(err) = backend.fork() else {
        panic!("the ipasir backend forked");
    };
    assert_eq!(err.message, want);

    let design = Benchmark::Rs232T2400.build().expect("benchmark builds");
    let session = MiterSession::new(&design, Box::new(backend));
    let Err(err) = session.fork() else {
        panic!("a session over the ipasir backend forked");
    };
    assert_eq!(err.message, want);
}

/// The interrupt predicate reaches the library through
/// `ipasir_set_terminate` and surfaces as `SolveResult::Interrupted`.
#[test]
fn interrupts_reach_the_library_through_set_terminate() {
    let mut backend = IpasirBackend::load(shim_library()).expect("shim loads");
    let a = backend.new_var();
    let b = backend.new_var();
    backend.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    backend.set_interrupt(std::sync::Arc::new(|| true));
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Interrupted);
    backend.set_interrupt(std::sync::Arc::new(|| false));
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
}

/// A spent budget armed on the backend itself answers `Interrupted` without
/// entering the library: no one charges an external backend's conflicts, so
/// the test charges the tracker directly.  Detaching the budget restores
/// normal solving.
#[test]
fn a_spent_conflict_ceiling_interrupts_before_the_library_solves() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let mut backend = IpasirBackend::load(shim_library()).expect("shim loads");
    let vars: Vec<_> = (0..6).map(|_| backend.new_var()).collect();
    for window in vars.windows(2) {
        backend.add_clause(&[Lit::neg(window[0]), Lit::pos(window[1])]);
    }

    let tracker = Arc::new(BudgetTracker::start(
        SolveBudget {
            deadline: None,
            conflict_ceiling: Some(2),
        },
        Arc::new(AtomicBool::new(false)),
    ));
    backend.set_budget(Some(Arc::clone(&tracker)));
    for _ in 0..3 {
        tracker.charge_conflict();
    }
    assert!(tracker.check(), "the ceiling is spent");
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Interrupted);

    backend.set_budget(None);
    assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
}

/// `detect --backend ipasir:` wiring end to end: dimacs-style detection
/// equivalence on an infected design, plus honest backend naming.
#[test]
fn detection_session_runs_on_the_ipasir_backend_by_choice_string() {
    let library = shim_library();
    let spec = format!("ipasir:{}", library.display());
    let choice: BackendChoice = spec.parse().expect("CLI syntax parses");
    assert_eq!(choice, BackendChoice::ipasir(&library));
    let report = run_with(Benchmark::AesT100, choice);
    let builtin = run_with(Benchmark::AesT100, BackendChoice::Builtin);
    assert_eq!(scrubbed(&report), scrubbed(&builtin));
    // The external library cannot report internal search counters, but the
    // visible accounting is real: queries ran, all of them on the master,
    // so no fork was paid for.
    assert!(report.solver_totals.solves > 0);
    assert_eq!(report.solver_totals.fork_count, 0);
    assert_eq!(report.solver_totals.bytes_cloned, 0);
}
