//! Integration test for experiment E1 (Table I): the detection flow catches
//! every benchmark Trojan with the mechanism the paper reports.
//!
//! The named tests pin one representative benchmark per detection
//! mechanism; `full_table1_sweep_matches_paper` checks all 28 rows (about a
//! tenth of a second under the test profile).

use golden_free_htd::detect::{DetectedBy, DetectionOutcome, DetectorConfig, SessionBuilder};
use golden_free_htd::trusthub::registry::{Benchmark, ExpectedDetection};

fn run_benchmark(benchmark: Benchmark) -> (DetectionOutcome, usize) {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let report = SessionBuilder::new(design.clone())
        .config(config)
        .build()
        .expect("detector accepts the design")
        .run()
        .expect("flow completes");
    (report.outcome, report.spurious_resolved)
}

fn assert_expected(benchmark: Benchmark) {
    let info = benchmark.info();
    let (outcome, _) = run_benchmark(benchmark);
    let detected = outcome.detected_by();
    let ok = match info.expected {
        ExpectedDetection::Secure => detected.is_none(),
        ExpectedDetection::InitProperty => detected == Some(DetectedBy::InitProperty),
        ExpectedDetection::FanoutProperty(k) => detected == Some(DetectedBy::FanoutProperty(k)),
        ExpectedDetection::AnyFanoutProperty => {
            matches!(detected, Some(DetectedBy::FanoutProperty(_)))
        }
        ExpectedDetection::CoverageCheck => detected == Some(DetectedBy::CoverageCheck),
    };
    assert!(
        ok,
        "{}: expected {:?}, flow reported {:?}",
        info.name, info.expected, detected
    );
}

#[test]
fn psc_trojan_with_plaintext_sequence_trigger_is_caught_by_init_property() {
    assert_expected(Benchmark::AesT1400);
}

#[test]
fn psc_trojan_with_encryption_counter_trigger_is_caught_by_init_property() {
    assert_expected(Benchmark::AesT900);
}

#[test]
fn rf_trojan_is_caught_by_init_property() {
    assert_expected(Benchmark::AesT1600);
}

#[test]
fn input_independent_dos_oscillator_is_caught_by_coverage_check() {
    assert_expected(Benchmark::AesT1900);
}

#[test]
fn ciphertext_bit_flip_is_caught_by_fanout_property_21() {
    assert_expected(Benchmark::AesT2500);
}

#[test]
fn mid_pipeline_bit_flip_is_caught_by_fanout_property_7() {
    assert_expected(Benchmark::AesT2600);
}

#[test]
fn mid_pipeline_bit_flip_is_caught_by_fanout_property_11() {
    assert_expected(Benchmark::AesT2800);
}

#[test]
fn rsa_key_leak_is_caught_by_init_property() {
    assert_expected(Benchmark::BasicRsaT300);
}

#[test]
fn rsa_dos_is_caught_by_init_property() {
    assert_expected(Benchmark::BasicRsaT200);
}

#[test]
fn counterexamples_localise_trojan_state_or_corrupted_outputs() {
    for benchmark in [
        Benchmark::AesT1400,
        Benchmark::AesT2500,
        Benchmark::BasicRsaT300,
    ] {
        let (outcome, _) = run_benchmark(benchmark);
        match outcome {
            DetectionOutcome::PropertyFailed { counterexample, .. } => {
                let touches_trojan = counterexample.diffs.iter().any(|d| {
                    d.name.starts_with("trojan_") || d.name == "ciphertext" || d.name == "cypher"
                }) || counterexample
                    .differing_state()
                    .iter()
                    .any(|d| d.name.starts_with("trojan_"));
                assert!(
                    touches_trojan,
                    "{}: counterexample does not localise the trojan",
                    benchmark.name()
                );
            }
            other => panic!(
                "{}: expected a property failure, got {other:?}",
                benchmark.name()
            ),
        }
    }
}

/// The full Table I sweep (28 benchmarks), the paper's headline table.
#[test]
fn full_table1_sweep_matches_paper() {
    for benchmark in Benchmark::table1() {
        assert_expected(benchmark);
    }
}
