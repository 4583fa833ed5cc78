//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures (see DESIGN.md §4 for the experiment index).
//!
//! The Criterion benchmarks in `benches/` use these helpers so that the same
//! designs, configurations and property sets are measured everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trajectory;

use std::time::Duration;

#[allow(deprecated)] // the legacy detector is kept as the re-encode reference path
use htd_core::TrojanDetector;
use htd_core::{
    BackendChoice, DetectionReport, DetectorConfig, FlowEvent, FlowGraph, SessionBuilder,
};
use htd_ipc::{CheckerOptions, IntervalProperty, PropertyChecker, PropertyReport};
use htd_rtl::{Design, DesignError, ValidatedDesign};
use htd_trusthub::registry::Benchmark;

/// Builds a benchmark design together with the detector configuration
/// (benign-state waivers) appropriate for it.
///
/// # Panics
///
/// Panics if the benchmark fails to build — benchmarks are static and always
/// build in a correct checkout.
#[must_use]
pub fn prepared_benchmark(benchmark: Benchmark) -> (ValidatedDesign, DetectorConfig) {
    let design = benchmark.build().expect("benchmark design builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    (design, config)
}

/// Runs the full detection flow through the **legacy re-encode path**: one
/// fresh AIG + CNF + solver per property.
///
/// This is the baseline the `property_runtime` benchmark compares
/// [`run_session_detection`] against; new measurements should use the
/// session path.
///
/// # Panics
///
/// Panics if the flow rejects the design (it never does for the registry
/// benchmarks).
#[must_use]
#[allow(deprecated)]
pub fn run_detection(design: &ValidatedDesign, config: &DetectorConfig) -> DetectionReport {
    TrojanDetector::with_config(design, config.clone())
        .expect("benchmark designs are accepted by the detector")
        .run()
        .expect("detection flow completes")
}

/// Runs the full detection flow through an incremental [`DetectionSession`]
/// (one AIG, one live solver for the whole flow).
///
/// [`DetectionSession`]: htd_core::DetectionSession
///
/// # Panics
///
/// Panics if the flow rejects the design (it never does for the registry
/// benchmarks).
#[must_use]
pub fn run_session_detection(design: &ValidatedDesign, config: &DetectorConfig) -> DetectionReport {
    run_session_detection_with_backend(design, config, BackendChoice::Builtin)
}

/// [`run_session_detection`] with an explicit SAT backend.
///
/// # Panics
///
/// Panics if the flow rejects the design.
#[must_use]
pub fn run_session_detection_with_backend(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    backend: BackendChoice,
) -> DetectionReport {
    SessionBuilder::new(design.clone())
        .config(config.clone())
        .backend(backend)
        .build()
        .expect("benchmark designs are accepted by the session builder")
        .run()
        .expect("detection flow completes")
}

/// Runs one session flow and returns the per-property wall-clock times, in
/// flow order, collected from the streaming [`FlowEvent`] API — no second
/// run and no instrumentation of the flow needed.
///
/// # Panics
///
/// Panics if the flow rejects the design.
#[must_use]
pub fn session_property_timings(
    design: &ValidatedDesign,
    config: &DetectorConfig,
) -> Vec<(String, Duration)> {
    let mut session = SessionBuilder::new(design.clone())
        .config(config.clone())
        .build()
        .expect("benchmark designs are accepted by the session builder");
    let mut timings: Vec<(String, Duration)> = Vec::new();
    session
        .run_with_observer(&mut |event| {
            if let FlowEvent::PropertyProved {
                property, duration, ..
            } = event
            {
                timings.push((property.clone(), *duration));
            }
        })
        .expect("detection flow completes");
    timings
}

/// The decomposed properties of a design in flow order, exactly as the
/// detection flow plans them ([`FlowGraph`] with the default
/// configuration, planned to its structural fixpoint): the init property
/// followed by one fanout property per level, each assuming every earlier
/// level equal.
#[must_use]
pub fn flow_properties(design: &ValidatedDesign) -> Vec<IntervalProperty> {
    let mut planner = FlowGraph::plan(design, &DetectorConfig::default()).expect("planning starts");
    planner
        .coverage(design)
        .expect("planning reaches its fixpoint");
    (0..planner.level_count())
        .map(|idx| planner.level(idx).clone())
        .collect()
}

/// Checks a single property with the given sharing option.
#[must_use]
pub fn check_property(
    design: &ValidatedDesign,
    property: &IntervalProperty,
    share_assumed_equal: bool,
) -> PropertyReport {
    PropertyChecker::with_options(
        design,
        CheckerOptions {
            share_assumed_equal,
            ..CheckerOptions::default()
        },
    )
    .check(property)
}

/// A synthetic non-interfering pipeline of the given depth: `width`-bit data
/// flows through `depth` xor-with-round-constant stages.  Used by the
/// depth-scaling experiment (E9) to show that the number of properties — and
/// the total runtime — is bounded by the *structural* depth of the design.
///
/// # Errors
///
/// Propagates [`DesignError`] (never fails for reasonable parameters).
pub fn xor_pipeline(depth: usize, width: u32) -> Result<ValidatedDesign, DesignError> {
    let mut d = Design::new(format!("xor_pipeline_d{depth}"));
    let input = d.add_input("in", width)?;
    let mut previous = d.signal(input);
    for stage in 0..depth {
        let constant = d.constant(
            u128::from(stage as u32 + 1) & ((1 << width.min(32)) - 1),
            width,
        )?;
        let mixed = d.xor(previous, constant)?;
        let reg = d.add_register(format!("stage{stage}"), width, 0)?;
        d.set_register_next(reg, mixed)?;
        previous = d.signal(reg);
    }
    d.add_output("out", previous)?;
    d.validated()
}

/// A design whose *sequential* depth is astronomically larger than its
/// structural depth: a wide free-running counter feeding nothing, next to a
/// short input pipeline.  The flow still needs only a handful of properties —
/// the point of the IPC symbolic starting state.
///
/// # Errors
///
/// Propagates [`DesignError`].
pub fn deep_sequential_design(counter_bits: u32) -> Result<ValidatedDesign, DesignError> {
    let mut d = Design::new(format!("deep_sequential_{counter_bits}"));
    let input = d.add_input("in", 8)?;
    let stage = d.add_register("stage", 8, 0)?;
    d.set_register_next(stage, d.signal(input))?;
    d.add_output("out", d.signal(stage))?;
    let counter = d.add_register("long_counter", counter_bits, 0)?;
    let one = d.constant(1, counter_bits)?;
    let inc = d.add(d.signal(counter), one)?;
    d.set_register_next(counter, inc)?;
    d.validated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_properties_match_structural_depth() {
        let design = xor_pipeline(6, 16).unwrap();
        let properties = flow_properties(&design);
        // depth 6 registers + 1 output level => 7 levels => 7 properties.
        assert_eq!(properties.len(), 7);
        assert_eq!(properties[0].name, "init_property");
        assert_eq!(properties.last().unwrap().name, "fanout_property_6");
    }

    #[test]
    fn xor_pipeline_is_secure() {
        let design = xor_pipeline(4, 8).unwrap();
        let report = run_detection(&design, &DetectorConfig::default());
        assert!(report.outcome.is_secure());
    }

    #[test]
    fn deep_sequential_design_is_flagged_by_coverage_only() {
        let design = deep_sequential_design(64).unwrap();
        let report = run_detection(&design, &DetectorConfig::default());
        // The long counter is unreachable from the inputs: coverage check.
        assert!(!report.outcome.is_secure());
        assert!(report.properties_checked() <= 3);
    }

    #[test]
    fn prepared_benchmark_runs_end_to_end() {
        let (design, config) = prepared_benchmark(Benchmark::AesT100);
        let report = run_detection(&design, &config);
        assert!(!report.outcome.is_secure());
    }

    #[test]
    fn session_and_legacy_helpers_agree() {
        let design = xor_pipeline(5, 16).unwrap();
        let config = DetectorConfig::default();
        let legacy = run_detection(&design, &config);
        let session = run_session_detection(&design, &config);
        assert_eq!(legacy.outcome.is_secure(), session.outcome.is_secure());
        assert_eq!(legacy.properties_checked(), session.properties_checked());
    }

    #[test]
    fn property_timings_cover_every_proved_property() {
        let design = xor_pipeline(4, 8).unwrap();
        let timings = session_property_timings(&design, &DetectorConfig::default());
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.first(), Some(&"init_property"));
        assert_eq!(names.len(), 5); // 4 register levels + the output level
    }

    #[test]
    fn check_property_works_with_and_without_sharing() {
        let design = xor_pipeline(3, 8).unwrap();
        let properties = flow_properties(&design);
        for property in &properties {
            assert!(check_property(&design, property, true).holds());
            assert!(check_property(&design, property, false).holds());
        }
    }
}
