//! Backend-equivalence suite for the session redesign: the incremental
//! `DetectionSession` path must reach the same verdicts as the legacy
//! per-property re-encode path (`TrojanDetector`) on every bundled
//! benchmark, while lowering every property into one AIG on one backend.
//! The session's cost accounting is checked here too: a flow forks nothing,
//! and the clause-GC thresholds reach the master.

#![allow(deprecated)] // the legacy TrojanDetector is the reference path here

use golden_free_htd::detect::{
    DetectionOutcome, DetectionReport, DetectorConfig, SessionBuilder, TrojanDetector,
};
use golden_free_htd::ipc::CheckerOptions;
use golden_free_htd::trusthub::registry::Benchmark;

fn legacy_run(benchmark: Benchmark) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    TrojanDetector::with_config(&design, config)
        .expect("legacy detector accepts the design")
        .run()
        .expect("legacy flow completes")
}

fn session_run(benchmark: Benchmark) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("session flow completes")
}

fn diff_set(outcome: &DetectionOutcome) -> Option<Vec<String>> {
    match outcome {
        DetectionOutcome::PropertyFailed { counterexample, .. } => {
            let mut names: Vec<String> = counterexample
                .diff_names()
                .iter()
                .map(ToString::to_string)
                .collect();
            names.sort();
            Some(names)
        }
        _ => None,
    }
}

fn assert_equivalent(benchmark: Benchmark) {
    let legacy = legacy_run(benchmark);
    let session = session_run(benchmark);
    let name = benchmark.name();

    assert_eq!(
        legacy.outcome.is_secure(),
        session.outcome.is_secure(),
        "{name}: verdict mismatch\nlegacy: {legacy}\nsession: {session}"
    );
    assert_eq!(
        legacy.outcome.detected_by(),
        session.outcome.detected_by(),
        "{name}: detection mechanism mismatch"
    );
    assert_eq!(
        legacy.properties_checked(),
        session.properties_checked(),
        "{name}: different number of properties checked"
    );
    assert_eq!(
        legacy.fanout_levels, session.fanout_levels,
        "{name}: structural levels must be identical"
    );
    // Both paths run the same loop over the same levels.  A row that holds
    // on both paths resolved the same number of spurious counterexamples; a
    // failing row may not, because the two encodings may return different
    // models (BasicRSA-T300's init property: the reference's first model is
    // explained by waived state, the session's is not).  A round assumes the
    // level's whole benign fanin, so no row takes a second one.
    for (legacy_row, session_row) in legacy.properties.iter().zip(&session.properties) {
        let property = &legacy_row.name;
        assert_eq!(property, &session_row.name, "{name}: property order");
        if legacy_row.report.holds() && session_row.report.holds() {
            assert_eq!(
                legacy_row.spurious_resolved, session_row.spurious_resolved,
                "{name}: {property} resolved a different number of spurious counterexamples"
            );
        }
        for row in [legacy_row, session_row] {
            assert!(
                row.spurious_resolved <= 1,
                "{name}: {property} took {} resolution rounds",
                row.spurious_resolved
            );
        }
    }
    // The diverging signals of the failing property.  Both paths stop at the
    // same property, but the solver is free to return different models — a
    // counterexample may flip one payload signal or several at once — so the
    // reported sets are compared up to overlap, not equality.
    match (diff_set(&legacy.outcome), diff_set(&session.outcome)) {
        (None, None) => {}
        (Some(legacy_diffs), Some(session_diffs)) => {
            assert!(
                !legacy_diffs.is_empty(),
                "{name}: legacy counterexample has no diffs"
            );
            assert!(
                !session_diffs.is_empty(),
                "{name}: session counterexample has no diffs"
            );
            assert!(
                legacy_diffs.iter().any(|s| session_diffs.contains(s)),
                "{name}: counterexamples point at disjoint divergences \
                 (legacy: {legacy_diffs:?}, session: {session_diffs:?})"
            );
        }
        (legacy_diffs, session_diffs) => panic!(
            "{name}: one path found a counterexample and the other did not \
             (legacy: {legacy_diffs:?}, session: {session_diffs:?})"
        ),
    }
    if let (
        DetectionOutcome::UncoveredSignals {
            signals: legacy_signals,
        },
        DetectionOutcome::UncoveredSignals {
            signals: session_signals,
        },
    ) = (&legacy.outcome, &session.outcome)
    {
        assert_eq!(
            legacy_signals, session_signals,
            "{name}: uncovered-signal mismatch"
        );
    }
}

#[test]
fn table1_benchmarks_agree_between_session_and_legacy_paths() {
    for benchmark in Benchmark::table1() {
        assert_equivalent(benchmark);
    }
}

#[test]
fn ht_free_and_case_study_benchmarks_agree_between_paths() {
    for benchmark in [
        Benchmark::AesHtFree,
        Benchmark::BasicRsaHtFree,
        Benchmark::Rs232HtFree,
        Benchmark::Rs232T2400,
    ] {
        assert_equivalent(benchmark);
    }
}

#[test]
fn session_path_reuses_its_encoding_across_properties() {
    // On a clean design the session proves N properties; re-running the same
    // session must not re-encode anything (the AIG is already mirrored).
    let design = Benchmark::Rs232HtFree.build().expect("benchmark builds");
    let mut session = SessionBuilder::new(design).build().expect("session builds");
    session.run().expect("first run completes");
    let stats_first = session.session_stats();
    session.run().expect("second run completes");
    let stats_second = session.session_stats();
    assert_eq!(
        stats_first.nodes_encoded, stats_second.nodes_encoded,
        "a repeated run must not grow the encoding"
    );
    assert!(stats_second.properties_checked > stats_first.properties_checked);
}

/// Every query solves on the master, so a flow records no fork, even
/// across a resolution round.  RS232-T2400 resolves a spurious
/// counterexample on its init property: that round used to freeze the
/// remaining levels behind snapshot forks.
#[test]
fn a_flow_report_records_no_forks() {
    let benchmark = Benchmark::Rs232T2400;
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builds");
    let report = session.run().expect("flow completes");
    assert_eq!(report.spurious_resolved, 1);
    let totals = report.solver_totals;
    assert_eq!((totals.fork_count, totals.bytes_cloned), (0, 0));
    let stats = session.session_stats();
    assert_eq!(stats.queries, totals.solves);
    let pipeline = session.pipeline_stats();
    assert_eq!(
        (
            pipeline.snapshot_forks,
            pipeline.snapshot_bytes_cloned,
            pipeline.cross_level_solves
        ),
        (0, 0, 0)
    );
    assert_eq!(pipeline.generations_prepared, stats.properties_checked);
    assert_eq!(pipeline.tasks_dispatched, stats.queries);
}

/// Clause-GC thresholds are configurable: with the thresholds floored, the
/// master compacts once a check retires activation literals, and the GC
/// counters reach the backend stats.  AES-T1600 is an infected AES flow: its init property fails, and
/// the end-of-flow hygiene retires the failing generation's activation
/// literals, leaving dead miter clauses for the compactor.
#[test]
fn lowered_gc_thresholds_fire_on_an_infected_aes_flow() {
    let design = Benchmark::AesT1600.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: Benchmark::AesT1600.benign_state(&design),
        checker: CheckerOptions {
            gc_dead_pct: 0,
            gc_min_clauses: 1,
            ..CheckerOptions::default()
        },
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builds");
    session.run().expect("flow completes");
    let backend = session.backend_stats();
    assert!(
        backend.solver.gc_runs > 0,
        "GC never fired with floored thresholds: {:?}",
        backend.solver
    );
}
