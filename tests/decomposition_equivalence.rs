//! Empirical validation of Theorem 1 (experiment E7).
//!
//! The theorem relates the decomposed init/fanout property set to the
//! aggregate *trojan property* of Fig. 3.  Two claims are exercised here:
//!
//! 1. **Completeness of the decomposition** (the security-relevant
//!    direction, valid for *every* design): whenever the aggregate property
//!    fails — i.e. the two miter instances can be driven apart by some
//!    starting state, which is what a triggered Trojan does — at least one
//!    decomposed property fails as well.  The iterative flow never misses a
//!    Trojan that the monolithic property would catch.
//!
//! 2. **Exactness on data-driven designs** (the class the paper targets,
//!    Sec. IV-B): when the structural side condition
//!    [`is_data_driven`](golden_free_htd::rtl::structural::is_data_driven)
//!    holds, the decomposition raises no false alarm either, so the two
//!    formulations agree exactly.  On designs violating the side condition
//!    the decomposition may fail spuriously — that is precisely the
//!    counterexample-analysis situation of Sec. V-B, exercised by the RSA and
//!    UART benchmarks below.

mod common;

use common::{build_design, design_recipe, layered_recipe};
use golden_free_htd::detect::aggregate::check_trojan_property;
use golden_free_htd::detect::{DetectionOutcome, DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::rtl::structural::{data_driven_violations, is_data_driven};
use golden_free_htd::rtl::ValidatedDesign;
use golden_free_htd::trusthub::registry::Benchmark;
use proptest::prelude::*;

/// Runs the detection flow and returns the report.
fn run_flow(design: &ValidatedDesign, config: &DetectorConfig) -> DetectionReport {
    SessionBuilder::new(design.clone())
        .config(config.clone())
        .build()
        .expect("random designs have inputs and state")
        .run()
        .expect("flow completes")
}

/// Runs the decomposed flow in its plain Algorithm-1 form (no extra
/// assumptions, no waivers) and reports whether any property failed.
fn decomposed_fails(design: &ValidatedDesign) -> bool {
    let config = DetectorConfig {
        assume_previously_proven: false,
        ..DetectorConfig::default()
    };
    let report = run_flow(design, &config);
    matches!(report.outcome, DetectionOutcome::PropertyFailed { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1 on arbitrary random designs: the decomposition never misses a
    /// divergence the aggregate property detects.  When the design is
    /// additionally data-driven, the two formulations must agree exactly
    /// (claim 2).
    #[test]
    fn decomposition_never_misses_what_the_aggregate_catches(recipe in design_recipe()) {
        let design = build_design(&recipe);
        let aggregate_fails = !check_trojan_property(&design).holds();
        let decomposed = decomposed_fails(&design);
        if aggregate_fails {
            prop_assert!(
                decomposed,
                "decomposition missed a 2-safety violation the aggregate property found"
            );
        }
        if is_data_driven(&design) {
            prop_assert_eq!(
                decomposed,
                aggregate_fails,
                "Theorem 1 (iff form) violated on a data-driven design"
            );
        }
    }

    /// Claim 2 on designs built to satisfy the side condition by
    /// construction: layered pipelines where every stage reads only the
    /// previous stage and the shared inputs.  Under the cumulative antecedent
    /// the detection flow uses by default (Sec. V-B scenario 1, applied
    /// proactively), such designs satisfy the data-driven side condition, the
    /// flow agrees with the aggregate property, and both report the design
    /// secure — there is no state in which to hide a trigger.
    #[test]
    fn decomposition_is_exact_on_layered_designs(recipe in layered_recipe()) {
        let design = build_design(&recipe);
        prop_assert!(
            data_driven_violations(&design, true).is_empty(),
            "layered recipes satisfy the cumulative side condition"
        );
        let aggregate_fails = !check_trojan_property(&design).holds();
        let report = run_flow(&design, &DetectorConfig::default());
        let decomposed = matches!(report.outcome, DetectionOutcome::PropertyFailed { .. });
        prop_assert_eq!(decomposed, aggregate_fails);
        prop_assert!(!aggregate_fails, "a layered design has no state to hide a trigger in");
        prop_assert!(report.outcome.is_secure(), "no uncovered signals either");
    }
}

#[test]
fn decomposition_agrees_with_aggregate_on_the_rsa_benchmark() {
    // The RSA accelerator has interfering control state, so *both*
    // formulations must report a failure when no equality assumptions are
    // supplied (the spurious-counterexample situation), and the infected
    // variant must fail as well.
    for benchmark in [Benchmark::BasicRsaHtFree, Benchmark::BasicRsaT300] {
        let design = benchmark.build().unwrap();
        let aggregate_fails = !check_trojan_property(&design).holds();
        let decomposed = decomposed_fails(&design);
        assert_eq!(decomposed, aggregate_fails, "{}", benchmark.name());
        assert!(
            aggregate_fails,
            "{}: expected a 2-safety violation",
            benchmark.name()
        );
    }
}

#[test]
fn decomposition_agrees_with_aggregate_on_the_uart() {
    for benchmark in [Benchmark::Rs232HtFree, Benchmark::Rs232T2400] {
        let design = benchmark.build().unwrap();
        let aggregate_fails = !check_trojan_property(&design).holds();
        let decomposed = decomposed_fails(&design);
        assert_eq!(decomposed, aggregate_fails, "{}", benchmark.name());
    }
}

#[test]
fn infected_and_clean_small_designs_agree_across_formulations() {
    // A spot check of claim 1 on hand-built designs small enough to unroll
    // the aggregate property cheaply: a Trojan caught by the flow is also
    // caught by the aggregate property, and a clean design passes both.
    use golden_free_htd::rtl::Design;

    let infected = {
        let mut d = Design::new("timer_bomb");
        let input = d.add_input("in", 8).unwrap();
        let stage = d.add_register("stage", 8, 0).unwrap();
        let timer = d.add_register("timer", 4, 0).unwrap();
        let one = d.constant(1, 4).unwrap();
        let tick = d.add(d.signal(timer), one).unwrap();
        d.set_register_next(timer, tick).unwrap();
        let armed = d.eq_const(d.signal(timer), 15).unwrap();
        let flip = d.zero_ext(armed, 8).unwrap();
        let payload = d.xor(d.signal(input), flip).unwrap();
        d.set_register_next(stage, payload).unwrap();
        d.add_output("out", d.signal(stage)).unwrap();
        d.validated().unwrap()
    };
    let clean = {
        let mut d = Design::new("clean_latch");
        let input = d.add_input("in", 8).unwrap();
        let stage = d.add_register("stage", 8, 0).unwrap();
        d.set_register_next(stage, d.signal(input)).unwrap();
        d.add_output("out", d.signal(stage)).unwrap();
        d.validated().unwrap()
    };

    assert!(!check_trojan_property(&infected).holds());
    assert!(decomposed_fails(&infected));
    assert!(check_trojan_property(&clean).holds());
    assert!(!decomposed_fails(&clean));
}
