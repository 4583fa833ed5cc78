//! Determinism suite for the flow-graph executor: a flow run must produce
//! the same `DetectionReport` — verdicts, counterexamples, coverage *and*
//! work counters — for every worker count and with level pipelining on or
//! off.
//!
//! The guarantee comes from the execution model: every per-signal
//! sub-property is solved on a fork of its generation's frozen snapshot, the
//! master mutation stream is a pure function of the (ascending) prepare
//! order, results merge in node order (first counterexample wins), and only
//! the consumed prefix of tasks contributes statistics.  Wall-clock
//! durations are the only nondeterministic fields, so reports are compared
//! after [`DetectionReport::normalized`] zeroes them.
//!
//! The matrix runs with oversubscription enabled so multi-worker schedules
//! are exercised even on single-core hosts.
//!
//! The one-worker baseline is also checked for two accounting facts: the
//! property rows' solver counters add up to the report's `solver_totals`
//! (a row sums all its resolution rounds), and the search itself —
//! decisions, propagations, conflicts, restarts — matches a committed
//! per-design table, so a change to the solver's heuristics shows up here
//! as a table edit.

use std::num::NonZeroUsize;

use golden_free_htd::detect::{
    DetectionReport, DetectorConfig, EngineChoice, PropertyScheduler, SessionBuilder,
};
use golden_free_htd::sat::SolverStats;
use golden_free_htd::trusthub::registry::Benchmark;

/// `solver_totals` of every bundled design's flow as
/// `[decisions, propagations, conflicts, restarts]`.
const SEARCH: &[(&str, [u64; 4])] = &[
    ("AES-T100", [511, 583, 0, 0]),
    ("AES-T1000", [511, 583, 0, 0]),
    ("AES-T1100", [11, 806, 2, 0]),
    ("AES-T1200", [805, 2681, 5, 0]),
    ("AES-T1300", [511, 583, 0, 0]),
    ("AES-T1400", [11, 808, 2, 0]),
    ("AES-T1500", [830, 2896, 5, 0]),
    ("AES-T1600", [511, 554, 0, 0]),
    ("AES-T1700", [800, 2626, 5, 0]),
    ("AES-T1800", [8, 444, 3, 0]),
    ("AES-T1900", [0, 0, 0, 0]),
    ("AES-T2000", [511, 550, 0, 0]),
    ("AES-T2100", [810, 2674, 5, 0]),
    ("AES-T2500", [26, 572, 1, 0]),
    ("AES-T2600", [40, 266, 1, 0]),
    ("AES-T2700", [24, 514, 1, 0]),
    ("AES-T2800", [42, 270, 1, 0]),
    ("AES-T200", [11, 808, 2, 0]),
    ("AES-T300", [8, 490, 3, 0]),
    ("AES-T400", [8, 450, 3, 0]),
    ("AES-T500", [511, 550, 0, 0]),
    ("AES-T600", [8, 444, 3, 0]),
    ("AES-T700", [511, 583, 0, 0]),
    ("AES-T800", [11, 808, 2, 0]),
    ("AES-T900", [795, 2595, 5, 0]),
    ("BasicRSA-T200", [8, 130, 3, 0]),
    ("BasicRSA-T300", [113, 536, 5, 0]),
    ("BasicRSA-T400", [118, 546, 5, 0]),
    ("RS232-T2400", [80, 768, 1, 0]),
    ("AES (HT-free)", [0, 0, 0, 0]),
    ("BasicRSA (HT-free)", [4771, 446478, 684, 5]),
    ("RS232 (HT-free)", [86, 371, 0, 0]),
];

fn run_with(benchmark: Benchmark, jobs: usize, pipeline: bool) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let scheduler = PropertyScheduler::new(NonZeroUsize::new(jobs).expect("positive jobs"))
        .with_level_pipelining(pipeline)
        .with_oversubscription(true);
    SessionBuilder::new(design)
        .config(config)
        .engine(EngineChoice::Scheduled(scheduler))
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
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

fn assert_schedule_invariant(benchmark: Benchmark) {
    let baseline = run_with(benchmark, 1, true).normalized();
    assert_search_accounted(benchmark, &baseline);
    for (jobs, pipeline) in [(1, false), (2, true), (2, false), (4, true), (4, false)] {
        let variant = run_with(benchmark, jobs, pipeline).normalized();
        assert_eq!(
            baseline,
            variant,
            "{}: --jobs 1 and --jobs {jobs} (pipeline: {pipeline}) reports differ",
            benchmark.name()
        );
        // Belt and braces: the rendered reports must be byte-identical too
        // (the Debug form covers every field, including counterexamples).
        assert_eq!(
            format!("{baseline:?}"),
            format!("{variant:?}"),
            "{}: rendered reports differ at --jobs {jobs} (pipeline: {pipeline})",
            benchmark.name()
        );
    }
}

/// Every bundled benchmark — the 28 infected Table-I rows, the HT-free
/// references and the UART case study — must report identically across the
/// whole schedule matrix: 1, 2 and 4 worker shards, level pipelining on and
/// off.
#[test]
fn all_bundled_benchmarks_report_identically_for_any_schedule() {
    let all = Benchmark::all();
    assert_eq!(all.len(), SEARCH.len(), "SEARCH covers every design");
    for benchmark in all {
        assert_schedule_invariant(benchmark);
    }
}

/// Repeated runs with the same schedule are also bit-stable (no hidden
/// dependence on thread scheduling or hash-map iteration order).
#[test]
fn repeated_runs_are_bit_stable() {
    for benchmark in [
        Benchmark::AesT1600,
        Benchmark::BasicRsaT200,
        Benchmark::Rs232HtFree,
    ] {
        let first = run_with(benchmark, 4, true).normalized();
        let second = run_with(benchmark, 4, true).normalized();
        assert_eq!(first, second, "{}: unstable report", benchmark.name());
    }
}
