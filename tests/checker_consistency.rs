//! Property-based consistency checks on the interval property checker:
//!
//! * the variable-sharing optimisation (`share_assumed_equal`) never changes
//!   a verdict, only the encoding size (experiment E10's correctness side);
//! * every counterexample the checker returns is *real*: replaying its
//!   starting states and inputs on two concrete simulator instances
//!   reproduces the reported divergence;
//! * so is every counterexample a detection session reports on a bundled
//!   benchmark, and `replay_counterexample` (the `htd detect --vcd` path)
//!   finds the reported signals diverging at the failing frame;
//! * on random designs, the session path (`MiterSession`, whose simulation
//!   lanes refute sub-properties before any solver runs) and the
//!   fresh-encode checker agree on every property of the flow and on one
//!   that assumes only the outputs equal, and every session counterexample
//!   replays and satisfies its antecedent.

mod common;

use std::collections::HashMap;

use common::{build_design, design_recipe};
use golden_free_htd::detect::replay::replay_counterexample;
use golden_free_htd::detect::{DetectionOutcome, DetectorConfig, SessionBuilder};
use golden_free_htd::ipc::{
    CheckOutcome, CheckerOptions, Counterexample, IntervalProperty, MiterSession, PropertyChecker,
};
use golden_free_htd::rtl::sim::Simulator;
use golden_free_htd::rtl::structural::{fanout_levels, get_fanout};
use golden_free_htd::rtl::ValidatedDesign;
use golden_free_htd::sat::Solver;
use golden_free_htd::trusthub::registry::Benchmark;
use proptest::prelude::*;

/// The init property of a design (the first property of the flow).
fn init_property(design: &ValidatedDesign) -> IntervalProperty {
    let inputs = design.design().inputs();
    IntervalProperty::new("init_property", vec![], get_fanout(design, &inputs))
}

/// The flow's properties: the init property, then one fanout property per
/// later level, assuming the level before it equal (Algorithm 1).  A last
/// property assumes only the outputs equal, an antecedent that constrains
/// the split starting state without merging any register.
fn flow_properties(design: &ValidatedDesign) -> Vec<IntervalProperty> {
    let d = design.design();
    let levels = fanout_levels(design);
    let mut properties = vec![init_property(design)];
    for k in 1..levels.len() {
        properties.push(IntervalProperty::new(
            format!("fanout_property_{k}"),
            levels[k - 1].clone(),
            levels[k].clone(),
        ));
    }
    properties.push(IntervalProperty::new(
        "outputs_assumed",
        d.outputs(),
        d.state_and_output_signals(),
    ));
    properties
}

/// Checks that a counterexample satisfies its property's antecedent: every
/// assumed-equal signal has the same value in both instances at `t`.
fn assert_antecedent_holds(
    design: &ValidatedDesign,
    property: &IntervalProperty,
    cex: &Counterexample,
) {
    let instances: Vec<Simulator> = (0..2)
        .map(|instance| {
            let mut sim = Simulator::new(design);
            for state in &cex.starting_state {
                let value = [state.instance1, state.instance2][instance];
                sim.set_register(state.signal, value).unwrap();
            }
            for (name, value) in &cex.inputs[0] {
                sim.set_input_by_name(name, *value).unwrap();
            }
            sim
        })
        .collect();
    for &assumed in &property.assume_equal {
        assert_eq!(
            instances[0].peek(assumed),
            instances[1].peek(assumed),
            "{}: assumed-equal {} differs at t",
            property.name,
            design.design().signal_name(assumed)
        );
    }
}

/// Replays a single-cycle counterexample on two simulator instances and
/// checks that the reported diverging signals really do diverge with exactly
/// the reported values.  A counterexample names at least one.
fn replay(design: &ValidatedDesign, cex: &Counterexample) {
    assert!(
        !cex.diffs.is_empty(),
        "counterexample for {} names no diverging signal",
        cex.property
    );
    let mut instance1 = Simulator::new(design);
    let mut instance2 = Simulator::new(design);
    for state in &cex.starting_state {
        instance1
            .set_register(state.signal, state.instance1)
            .unwrap();
        instance2
            .set_register(state.signal, state.instance2)
            .unwrap();
    }
    let input_frames: Vec<HashMap<&str, u128>> = cex
        .inputs
        .iter()
        .map(|frame| frame.iter().map(|(n, v)| (n.as_str(), *v)).collect())
        .collect();
    for sim in [&mut instance1, &mut instance2] {
        for (name, value) in &input_frames[0] {
            sim.set_input_by_name(name, *value).unwrap();
        }
        sim.step().unwrap();
        // Outputs proven at t+1 observe the t+1 inputs.
        if input_frames.len() > 1 {
            for (name, value) in &input_frames[1] {
                sim.set_input_by_name(name, *value).unwrap();
            }
        }
    }
    for diff in &cex.diffs {
        let v1 = instance1.peek(diff.signal);
        let v2 = instance2.peek(diff.signal);
        assert_eq!(
            v1, diff.instance1,
            "instance 1 value of {} in replay",
            diff.name
        );
        assert_eq!(
            v2, diff.instance2,
            "instance 2 value of {} in replay",
            diff.name
        );
        assert_ne!(v1, v2, "{} was reported as diverging", diff.name);
    }
}

/// The counterexample a session reports on each bundled benchmark, run
/// with the benchmark's waivers, replays on the simulator, and
/// `replay_counterexample` ends its traces where the reported signals
/// diverge.
#[test]
fn session_counterexamples_replay_on_every_bundled_benchmark() {
    let mut replayed = 0;
    for benchmark in Benchmark::all() {
        let design = benchmark.build().expect("benchmark builds");
        let config = DetectorConfig {
            benign_state: benchmark.benign_state(&design),
            ..DetectorConfig::default()
        };
        let report = SessionBuilder::new(design.clone())
            .config(config)
            .build()
            .expect("session builder accepts the design")
            .run()
            .expect("flow completes");
        if let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome {
            replay(&design, counterexample);
            let traces = replay_counterexample(&design, counterexample).expect("replay runs");
            for reported in counterexample.diff_names() {
                assert!(
                    traces.diverging_signals.iter().any(|s| s == reported),
                    "{}: {reported} does not diverge at the end of the replay: {:?}",
                    benchmark.name(),
                    traces.diverging_signals
                );
            }
            replayed += 1;
        }
    }
    assert_eq!(replayed, 28, "one counterexample per infected benchmark");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharing_option_never_changes_the_verdict(recipe in design_recipe()) {
        let design = build_design(&recipe);
        let property = init_property(&design);
        let shared = PropertyChecker::with_options(
            &design,
            CheckerOptions { share_assumed_equal: true, ..CheckerOptions::default() },
        )
        .check(&property);
        let unshared = PropertyChecker::with_options(
            &design,
            CheckerOptions { share_assumed_equal: false, ..CheckerOptions::default() },
        )
        .check(&property);
        prop_assert_eq!(shared.holds(), unshared.holds());
    }

    #[test]
    fn counterexamples_replay_on_the_simulator(recipe in design_recipe()) {
        let design = build_design(&recipe);
        let checker = PropertyChecker::new(&design);
        let property = init_property(&design);
        if let CheckOutcome::Fails(cex) = checker.check(&property).outcome {
            replay(&design, &cex);
        }
    }

    /// The session, simulation first, against a fresh checker per
    /// property: the same verdict on the init property and on every fanout
    /// level, and every session counterexample replays with its printed
    /// values under an antecedent that holds.
    #[test]
    fn session_agrees_with_the_checker_and_its_counterexamples_replay(
        recipe in design_recipe()
    ) {
        let design = build_design(&recipe);
        let checker = PropertyChecker::new(&design);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        for property in flow_properties(&design) {
            let reference = checker.check(&property);
            let report = session.check(&design, &property).expect("the builtin solver answers");
            prop_assert_eq!(report.holds(), reference.holds(), "{}", property.name);
            if let CheckOutcome::Fails(cex) = &report.outcome {
                assert_antecedent_holds(&design, &property, cex);
                replay(&design, cex);
            }
        }
    }

    #[test]
    fn fanout_properties_also_produce_valid_counterexamples(recipe in design_recipe()) {
        let design = build_design(&recipe);
        let d = design.design();
        let checker = PropertyChecker::new(&design);
        let level1 = get_fanout(&design, &d.inputs());
        let level2 = get_fanout(&design, &level1);
        if level2.is_empty() {
            return Ok(());
        }
        let property = IntervalProperty::new("fanout_property_1", level1, level2);
        if let CheckOutcome::Fails(cex) = checker.check(&property).outcome {
            // The assumed-equal signals must indeed be equal in the reported
            // starting state (registers only; outputs are derived).
            for assumed in &property.assume_equal {
                if let Some(state) =
                    cex.starting_state.iter().find(|s| s.signal == *assumed)
                {
                    assert_eq!(
                        state.instance1, state.instance2,
                        "assumed-equal register {} differs in the starting state",
                        state.name
                    );
                }
            }
            replay(&design, &cex);
        }
    }
}
