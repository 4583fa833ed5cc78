//! Head-to-head comparison of the baseline detectors against the golden-free
//! IPC flow (experiment E11 of DESIGN.md) on the parameterised Trojan
//! designs.
//!
//! The qualitative shape the paper argues for must hold:
//!
//! * the IPC flow detects every Trojan class regardless of trigger length,
//!   without a golden model;
//! * bounded model checking detects input-sequence triggers only when the
//!   bound covers the sequence, and input-independent triggers never;
//! * random testing against a golden model misses stealthy triggers;
//! * UCI / FANCI flag dormant payload logic but also benign logic, and give
//!   no guarantee.

use htd_baselines::bmc::{bounded_trojan_search, BmcOptions};
use htd_baselines::designs::{clean_pipeline, sequence_trojan, timer_trojan, value_counter_trojan};
use htd_baselines::fanci::{control_value_analysis, FanciOptions};
use htd_baselines::testing::{random_equivalence_test, RandomTestOptions};
use htd_baselines::uci::{unused_circuit_identification, UciOptions};

use htd_core::{DetectionOutcome, DetectionReport, SessionBuilder};
use htd_rtl::ValidatedDesign;

/// Runs the detection flow and returns the report.
fn run_flow(design: &ValidatedDesign) -> DetectionReport {
    SessionBuilder::new(design.clone())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn ipc_detects(design: &ValidatedDesign) -> bool {
    let report = run_flow(design);
    !matches!(report.outcome, DetectionOutcome::Secure)
}

#[test]
fn ipc_flow_detects_every_trojan_class_and_passes_the_clean_design() {
    assert!(!ipc_detects(&clean_pipeline(3)));
    for length in [2, 8, 32] {
        assert!(
            ipc_detects(&sequence_trojan(length)),
            "sequence length {length}"
        );
    }
    assert!(ipc_detects(&timer_trojan(1_000_000)));
    assert!(ipc_detects(&value_counter_trojan(100_000)));
}

#[test]
fn ipc_detection_is_independent_of_the_trigger_length() {
    // The number of properties checked (and therefore the work) depends on
    // the structural depth only, not on how long the trigger sequence is.
    let short = run_flow(&sequence_trojan(2));
    let long = run_flow(&sequence_trojan(64));
    assert_eq!(short.properties_checked(), long.properties_checked());
    assert!(!short.outcome.is_secure());
    assert!(!long.outcome.is_secure());
}

#[test]
fn bmc_needs_a_bound_matching_the_trigger_length() {
    let design = sequence_trojan(10);
    let shallow = bounded_trojan_search(
        &design,
        &BmcOptions {
            bound: 2,
            window: 1,
            ..BmcOptions::default()
        },
    );
    let deep = bounded_trojan_search(
        &design,
        &BmcOptions {
            bound: 12,
            window: 1,
            ..BmcOptions::default()
        },
    );
    assert!(
        !shallow.detected(),
        "a 2-cycle prefix cannot arm a 10-value sequence"
    );
    assert!(deep.detected());
    assert!(deep.cnf_clauses > shallow.cnf_clauses);
    // The IPC flow detects the same design with no bound at all.
    assert!(ipc_detects(&design));
}

#[test]
fn bmc_never_sees_input_independent_triggers_that_ipc_catches() {
    let design = timer_trojan(20);
    let bmc = bounded_trojan_search(
        &design,
        &BmcOptions {
            bound: 30,
            ..BmcOptions::default()
        },
    );
    assert!(
        !bmc.detected(),
        "the self-miter from reset cannot diverge on a timer Trojan"
    );
    assert!(ipc_detects(&design));
}

#[test]
fn random_testing_needs_a_golden_model_and_still_misses_stealthy_triggers() {
    let golden = clean_pipeline(1);
    let stealthy = sequence_trojan(6);
    let report = random_equivalence_test(
        &stealthy,
        &golden,
        &RandomTestOptions {
            cycles: 20_000,
            seed: 11,
        },
    )
    .unwrap();
    assert!(
        !report.detected(),
        "the 6-value sequence is never produced by chance"
    );
    assert!(ipc_detects(&stealthy));
}

#[test]
fn structural_heuristics_flag_the_payload_but_also_benign_logic() {
    let infected = sequence_trojan(8);
    let clean = clean_pipeline(2);

    let uci_infected = unused_circuit_identification(
        &infected,
        &UciOptions {
            cycles: 1_000,
            seed: 5,
        },
    )
    .unwrap();
    let uci_clean = unused_circuit_identification(
        &clean,
        &UciOptions {
            cycles: 1_000,
            seed: 5,
        },
    )
    .unwrap();
    assert!(uci_infected.flags_target("data"), "dormant payload flagged");
    assert!(
        !uci_clean.flagged.is_empty(),
        "benign pass-through logic flagged as well"
    );

    let fanci_infected = control_value_analysis(&infected, &FanciOptions::default());
    let fanci_clean = control_value_analysis(&clean, &FanciOptions::default());
    assert!(fanci_infected.flags_signal("data"));
    assert!(fanci_clean.suspicious.is_empty());
}
