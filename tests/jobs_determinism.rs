//! Determinism suite for the detection flow: every way a session is set up
//! must produce the same `DetectionReport` — verdicts, counterexamples,
//! coverage *and* work counters.  There are two: a fresh session, the one
//! `htd detect` and the daemon both build, and a session built with
//! [`SessionBuilder::build_with_miter`] on a fork of a never-run master.
//! The suite forks one master twice, so the first fork's run cannot leak
//! into the second's.
//!
//! Wall-clock durations are the only nondeterministic fields, so reports
//! are compared after [`DetectionReport::normalized`] zeroes them, and
//! again in `Debug` form, which covers every field.
//!
//! The fresh report is also checked for two accounting facts: the
//! property rows' solver counters add up to the report's `solver_totals`
//! (a row sums all its resolution rounds), and the search itself —
//! decisions, propagations, conflicts, restarts — matches a committed
//! per-design table, so a change to the solver's heuristics shows up here
//! as a table edit.

use golden_free_htd::detect::{BackendChoice, DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::ipc::MiterSession;
use golden_free_htd::sat::SolverStats;
use golden_free_htd::trusthub::registry::Benchmark;

/// `solver_totals` of every bundled design's flow as
/// `[decisions, propagations, conflicts, restarts]`.
const SEARCH: &[(&str, [u64; 4])] = &[
    ("AES-T100", [0, 0, 0, 0]),
    ("AES-T1000", [0, 0, 0, 0]),
    ("AES-T1100", [0, 0, 0, 0]),
    ("AES-T1200", [0, 0, 0, 0]),
    ("AES-T1300", [0, 0, 0, 0]),
    ("AES-T1400", [0, 0, 0, 0]),
    ("AES-T1500", [0, 0, 0, 0]),
    ("AES-T1600", [0, 0, 0, 0]),
    ("AES-T1700", [0, 0, 0, 0]),
    ("AES-T1800", [0, 0, 0, 0]),
    ("AES-T1900", [0, 0, 0, 0]),
    ("AES-T2000", [0, 0, 0, 0]),
    ("AES-T2100", [0, 0, 0, 0]),
    ("AES-T2500", [6, 401, 0, 0]),
    ("AES-T2600", [18, 274, 2, 0]),
    ("AES-T2700", [6, 361, 0, 0]),
    ("AES-T2800", [18, 278, 2, 0]),
    ("AES-T200", [0, 0, 0, 0]),
    ("AES-T300", [0, 0, 0, 0]),
    ("AES-T400", [0, 0, 0, 0]),
    ("AES-T500", [0, 0, 0, 0]),
    ("AES-T600", [0, 0, 0, 0]),
    ("AES-T700", [0, 0, 0, 0]),
    ("AES-T800", [0, 0, 0, 0]),
    ("AES-T900", [0, 0, 0, 0]),
    ("BasicRSA-T200", [0, 0, 0, 0]),
    ("BasicRSA-T300", [0, 0, 0, 0]),
    ("BasicRSA-T400", [0, 0, 0, 0]),
    ("RS232-T2400", [10, 364, 0, 0]),
    ("AES (HT-free)", [0, 0, 0, 0]),
    ("BasicRSA (HT-free)", [0, 0, 0, 0]),
    ("RS232 (HT-free)", [0, 0, 0, 0]),
];

fn builder(benchmark: Benchmark) -> SessionBuilder {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    SessionBuilder::new(design).config(config)
}

/// A fresh session's report.
fn fresh(benchmark: Benchmark) -> DetectionReport {
    builder(benchmark)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
}

/// The reports of `runs` sessions, each on its own fork of one pristine
/// master.
fn forked(benchmark: Benchmark, runs: usize) -> Vec<DetectionReport> {
    let design = benchmark.build().expect("benchmark builds");
    let backend = BackendChoice::Builtin
        .instantiate()
        .expect("the builtin backend comes up");
    let master = MiterSession::with_options(&design, DetectorConfig::default().checker, backend);
    (0..runs)
        .map(|_| {
            let fork = master.fork().expect("the builtin backend forks");
            builder(benchmark)
                .build_with_miter(fork)
                .expect("session builder accepts the design")
                .run()
                .expect("flow completes")
        })
        .collect()
}

/// The rows account for all the solver work, and the search matches
/// [`SEARCH`].
fn assert_search_accounted(benchmark: Benchmark, report: &DetectionReport) {
    let name = benchmark.name();
    let mut rows = SolverStats::default();
    for property in &report.properties {
        rows.accumulate(&property.report.stats.solver);
    }
    assert_eq!(
        rows, report.solver_totals,
        "{name}: the property rows' solver counters do not sum to solver_totals"
    );
    let totals = report.solver_totals;
    let (_, expected) = SEARCH
        .iter()
        .find(|(design, _)| *design == name)
        .unwrap_or_else(|| panic!("{name}: no entry in SEARCH"));
    assert_eq!(
        [
            totals.decisions,
            totals.propagations,
            totals.conflicts,
            totals.restarts
        ],
        *expected,
        "{name}: [decisions, propagations, conflicts, restarts] moved"
    );
}

/// Every bundled benchmark — the 28 infected Table-I rows, the HT-free
/// references and the UART case study — must report identically from a
/// fresh session and from sessions on forks of a pristine master.
#[test]
fn all_bundled_benchmarks_report_identically_for_any_schedule() {
    let all = Benchmark::all();
    assert_eq!(all.len(), SEARCH.len(), "SEARCH covers every design");
    for benchmark in all {
        let want = fresh(benchmark).normalized();
        assert_search_accounted(benchmark, &want);
        for (run, report) in forked(benchmark, 2).into_iter().enumerate() {
            let got = report.normalized();
            assert_eq!(
                want,
                got,
                "{}: fresh and forked-master (run {run}) reports differ",
                benchmark.name()
            );
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "{}: rendered reports differ on forked-master run {run}",
                benchmark.name()
            );
        }
    }
}

/// Repeated runs are also bit-stable (no hidden dependence on hash-map
/// iteration order or allocation addresses).
#[test]
fn repeated_runs_are_bit_stable() {
    for benchmark in [
        Benchmark::AesT1600,
        Benchmark::BasicRsaT200,
        Benchmark::Rs232HtFree,
    ] {
        let first = fresh(benchmark).normalized();
        let second = fresh(benchmark).normalized();
        assert_eq!(first, second, "{}: unstable report", benchmark.name());
    }
}
