//! Detector configuration and the legacy borrow-tied detector shim.
//!
//! The primary entry point is the incremental
//! [`DetectionSession`](crate::DetectionSession), which runs Algorithm 1 of
//! the paper on one live miter encoding.  The deprecated [`TrojanDetector`]
//! is kept here for backward compatibility and as the *fresh-solve
//! reference path*: it runs the same loop with a check that rebuilds the
//! AIG, the CNF and the SAT solver for every property, which the
//! equivalence tests and the `property_runtime` benchmark compare the
//! session path against.

use std::sync::atomic::AtomicBool;

use htd_ipc::{CheckerOptions, PropertyChecker};
use htd_rtl::{SignalId, ValidatedDesign};

use crate::error::DetectError;
use crate::report::DetectionReport;
use crate::scheduler::walk;
use crate::session::{validate_config, validate_design};

/// Configuration of the detection flow.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// Options passed to the underlying property checker.
    pub checker: CheckerOptions,
    /// Additionally assume equality of all signals proven by *earlier*
    /// properties when checking a fanout property (default: `true`).
    ///
    /// This applies the re-verification fix of Sec. V-B, scenario (1)
    /// proactively: a fanout property may otherwise fail only because its
    /// antecedent does not mention a signal that another property has already
    /// proven equal.
    pub assume_previously_proven: bool,
    /// Benign-state waivers (Sec. V-B, scenario (2)): registers the
    /// verification engineer has inspected and disqualified as Trojan state
    /// (FSM phases, busy flags, round counters, …).  When a counterexample is
    /// fully explained by waived registers, the flow adds equality
    /// assumptions for them and re-verifies instead of reporting a Trojan.
    pub benign_state: Vec<SignalId>,
    /// Safety bound on the number of fanout iterations (the loop is bounded
    /// by the structural depth of the design; this limit only guards against
    /// configuration errors).  Must be at least 1.
    pub max_flow_iterations: usize,
    /// Per-run resource budget (wall-clock deadline, solver-conflict
    /// ceiling), enforced *inside* the solver via the interrupt seam.  The
    /// default is unlimited — budgets are strictly opt-in, so existing flows
    /// and their reports are unchanged.  An exhausted budget surfaces as
    /// [`DetectError::BudgetExhausted`].
    pub budget: htd_sat::SolveBudget,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            checker: CheckerOptions::default(),
            assume_previously_proven: true,
            benign_state: Vec::new(),
            max_flow_iterations: 4096,
            budget: htd_sat::SolveBudget::default(),
        }
    }
}

/// The golden-free Trojan detector: Algorithm 1 of the paper, re-encoding the
/// miter for every property.
///
/// Deprecated: [`SessionBuilder`](crate::SessionBuilder) /
/// [`DetectionSession`](crate::DetectionSession) run the same flow against
/// one live incremental miter encoding (each property's cones lowered into
/// one AIG on one backend instead of a fresh encoding per property), own
/// their design, support pluggable SAT backends and
/// stream [`FlowEvent`](crate::FlowEvent)s.  This type remains as the
/// fresh-solve reference path for equivalence tests and benchmarks.
#[deprecated(
    since = "0.2.0",
    note = "use `SessionBuilder`/`DetectionSession`; the session path lowers every property \
            into one AIG on one backend instead of re-encoding the miter per property"
)]
#[derive(Debug)]
pub struct TrojanDetector<'a> {
    design: &'a ValidatedDesign,
    config: DetectorConfig,
}

#[allow(deprecated)]
impl<'a> TrojanDetector<'a> {
    /// Creates a detector with the default configuration.
    ///
    /// # Errors
    ///
    /// Fails if the design has no primary inputs or no state/output signals —
    /// the flow's decomposition is not applicable to such designs.
    pub fn new(design: &'a ValidatedDesign) -> Result<Self, DetectError> {
        Self::with_config(design, DetectorConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new), plus
    /// [`DetectError::InvalidConfig`] for a zero iteration budget.
    pub fn with_config(
        design: &'a ValidatedDesign,
        config: DetectorConfig,
    ) -> Result<Self, DetectError> {
        validate_design(design)?;
        validate_config(&config)?;
        Ok(TrojanDetector { design, config })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the full detection flow: init property, fanout properties until
    /// the structural fixpoint, then the signal-coverage check.  It is the
    /// session's loop, checking each property on a fresh
    /// [`PropertyChecker`] encoding.
    ///
    /// The flow stops at the first property that fails after
    /// spurious-counterexample resolution, exactly as a verification engineer
    /// would, because the counterexample already localises the potential
    /// Trojan.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::IterationLimit`] when the configured safety
    /// bound is exceeded (which indicates a configuration problem, not a
    /// Trojan).
    pub fn run(&self) -> Result<DetectionReport, DetectError> {
        let (design, checker) = (self.design, self.config.checker);
        walk(
            design,
            &self.config,
            &mut |property| Ok(PropertyChecker::with_options(design, checker).check(property)),
            &AtomicBool::new(false),
            &mut |_| {},
        )
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::report::{DetectedBy, DetectionOutcome};
    use htd_rtl::Design;

    /// A clean 3-stage pass-through pipeline: in -> s1 -> s2 -> out.
    fn clean_pipeline() -> ValidatedDesign {
        let mut d = Design::new("clean_pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    /// The same pipeline with a sequential Trojan whose trigger is a
    /// free-running counter (input-independent, like AES-T2500) and whose
    /// payload flips the LSB of stage 2 once the counter saturates.
    fn infected_pipeline() -> ValidatedDesign {
        let mut d = Design::new("infected_pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        let counter = d.add_register("trojan_counter", 2, 0).unwrap();
        let one = d.constant(1, 2).unwrap();
        let count_next = d.add(d.signal(counter), one).unwrap();
        d.set_register_next(counter, count_next).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        let armed = d.eq_const(d.signal(counter), 3).unwrap();
        let flip = d.zero_ext(armed, 8).unwrap();
        let payload = d.xor(d.signal(s1), flip).unwrap();
        d.set_register_next(s2, payload).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    /// A design whose trigger FSM watches the input (like the plaintext-
    /// sequence triggers of most AES Trust-Hub benchmarks): the trigger state
    /// itself lies in `fanouts_CC1`, so the init property already fails.
    fn input_triggered_design() -> ValidatedDesign {
        let mut d = Design::new("input_triggered");
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
        d.validated().unwrap()
    }

    /// A clean pipeline plus a free-running counter disconnected from the
    /// inputs (the AES-T1900 situation).
    fn pipeline_with_free_counter() -> ValidatedDesign {
        let mut d = Design::new("free_counter");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.add_output("out", d.signal(s1)).unwrap();
        let timer = d.add_register("timer", 8, 0).unwrap();
        let one = d.constant(1, 8).unwrap();
        let inc = d.add(d.signal(timer), one).unwrap();
        d.set_register_next(timer, inc).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn clean_pipeline_is_secure() {
        let design = clean_pipeline();
        let report = TrojanDetector::new(&design).unwrap().run().unwrap();
        assert!(report.outcome.is_secure(), "{report}");
        assert_eq!(report.fanout_levels.len(), 3);
        assert_eq!(report.properties_checked(), 3);
        assert_eq!(report.spurious_resolved, 0);
    }

    #[test]
    fn infected_pipeline_is_detected_by_fanout_property() {
        let design = infected_pipeline();
        let report = TrojanDetector::new(&design).unwrap().run().unwrap();
        match &report.outcome {
            DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample,
            } => {
                // s2 is two cycles from the inputs: the divergence appears in
                // fanout property 1 (s1 -> s2).
                assert_eq!(*detected_by, DetectedBy::FanoutProperty(1));
                assert!(counterexample.diff_names().contains(&"s2"));
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn input_watching_trigger_is_detected_by_the_init_property() {
        // The trigger FSM reads the input, so it (and the payload register)
        // lie in fanouts_CC1 and the init property already fails — the
        // situation of the plaintext-sequence-triggered AES benchmarks in
        // Table I of the paper.
        let design = input_triggered_design();
        let report = TrojanDetector::new(&design).unwrap().run().unwrap();
        match &report.outcome {
            DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample,
            } => {
                assert_eq!(*detected_by, DetectedBy::InitProperty);
                assert!(!counterexample.diffs.is_empty());
            }
            other => panic!("expected init-property detection, got {other:?}"),
        }
    }

    #[test]
    fn free_running_counter_is_caught_by_coverage_check() {
        let design = pipeline_with_free_counter();
        let report = TrojanDetector::new(&design).unwrap().run().unwrap();
        match &report.outcome {
            DetectionOutcome::UncoveredSignals { signals } => {
                assert_eq!(signals, &vec!["timer".to_string()]);
                assert_eq!(
                    report.outcome.detected_by(),
                    Some(DetectedBy::CoverageCheck)
                );
            }
            other => panic!("expected uncovered signals, got {other:?}"),
        }
    }

    #[test]
    fn benign_state_waiver_resolves_spurious_cex() {
        // A design whose output depends on a benign mode register: without a
        // waiver the flow reports a (false) detection, with the waiver it
        // verifies secure and counts one resolved spurious counterexample.
        let mut d = Design::new("mode_design");
        let input = d.add_input("in", 8).unwrap();
        let mode = d.add_register("mode", 1, 0).unwrap();
        let result = d.add_register("result", 8, 0).unwrap();
        let mode_next = d.not(d.signal(mode));
        d.set_register_next(mode, mode_next).unwrap();
        let m_ext = d.zero_ext(d.signal(mode), 8).unwrap();
        let sum = d.add(d.signal(input), m_ext).unwrap();
        d.set_register_next(result, sum).unwrap();
        d.add_output("out", d.signal(result)).unwrap();
        let design = d.validated().unwrap();
        let mode_id = design.design().require("mode").unwrap();

        let without = TrojanDetector::new(&design).unwrap().run().unwrap();
        assert!(!without.outcome.is_secure());

        let config = DetectorConfig {
            benign_state: vec![mode_id],
            ..DetectorConfig::default()
        };
        let with = TrojanDetector::with_config(&design, config)
            .unwrap()
            .run()
            .unwrap();
        // `mode` itself is never reached from the inputs, so after resolving
        // the spurious counterexample the coverage check still points at it —
        // which is correct behaviour (the engineer must inspect it), but the
        // property-based detection is gone and one spurious CEX was resolved.
        assert!(with.spurious_resolved >= 1);
        match with.outcome {
            DetectionOutcome::UncoveredSignals { ref signals } => {
                assert_eq!(signals, &vec!["mode".to_string()]);
            }
            ref other => panic!("expected coverage finding for `mode`, got {other:?}"),
        }
    }

    #[test]
    fn detector_rejects_designs_without_inputs() {
        let mut d = Design::new("no_inputs");
        let r = d.add_register("r", 1, 0).unwrap();
        let n = d.not(d.signal(r));
        d.set_register_next(r, n).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        assert_eq!(
            TrojanDetector::new(&design).unwrap_err(),
            DetectError::NoInputs
        );
    }

    #[test]
    fn detector_rejects_designs_without_state_or_outputs() {
        let mut d = Design::new("only_inputs");
        d.add_input("a", 1).unwrap();
        let design = d.validated().unwrap();
        assert_eq!(
            TrojanDetector::new(&design).unwrap_err(),
            DetectError::NoStateOrOutputs
        );
    }

    #[test]
    fn detector_rejects_zero_iteration_budgets() {
        let design = clean_pipeline();
        let config = DetectorConfig {
            max_flow_iterations: 0,
            ..DetectorConfig::default()
        };
        let err = TrojanDetector::with_config(&design, config).unwrap_err();
        assert!(
            matches!(err, DetectError::InvalidConfig { .. }),
            "expected InvalidConfig, got {err:?}"
        );
    }

    #[test]
    fn report_display_lists_all_properties() {
        let design = clean_pipeline();
        let report = TrojanDetector::new(&design).unwrap().run().unwrap();
        let text = report.to_string();
        assert!(text.contains("init_property"));
        assert!(text.contains("fanout_property_1"));
        assert!(text.contains("SECURE"));
        assert!(report.slowest_property().is_some());
        assert!(report.summary().contains("SECURE"));
    }

    #[test]
    fn disabling_variable_sharing_gives_the_same_verdicts() {
        for design in [clean_pipeline(), infected_pipeline()] {
            let config = DetectorConfig {
                checker: CheckerOptions {
                    share_assumed_equal: false,
                    ..CheckerOptions::default()
                },
                ..DetectorConfig::default()
            };
            let shared = TrojanDetector::new(&design).unwrap().run().unwrap();
            let unshared = TrojanDetector::with_config(&design, config)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(
                shared.outcome.is_secure(),
                unshared.outcome.is_secure(),
                "sharing ablation changed the verdict for {}",
                design.design().name()
            );
            assert_eq!(shared.outcome.detected_by(), unshared.outcome.detected_by());
        }
    }
}
