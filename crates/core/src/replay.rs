//! Counterexample replay: turn a failed property's counterexample into
//! concrete simulation traces (one per miter instance) that a waveform
//! viewer can display.
//!
//! The property checker returns symbolic-start counterexamples: a starting
//! state per instance plus the shared input values per time frame.  Replaying
//! them on the cycle-accurate simulator serves two purposes:
//!
//! * it double-checks the prover against an independent execution semantics
//!   (the divergence it claims must actually appear), and
//! * it produces VCD waveforms the verification engineer can inspect while
//!   deciding whether the behaviour is a Trojan or a spurious
//!   counterexample (Sec. V-B of the paper).

use htd_ipc::Counterexample;
use htd_rtl::export::TraceRecorder;
use htd_rtl::sim::Simulator;
use htd_rtl::{DesignError, ValidatedDesign};

/// The replayed traces of the two miter instances.
#[derive(Clone, Debug)]
pub struct ReplayedCounterexample {
    /// VCD waveform of instance 1 (the one whose Trojan the solver chose to
    /// trigger).
    pub instance1_vcd: String,
    /// VCD waveform of instance 2.
    pub instance2_vcd: String,
    /// Signal names that differ between the instances at the end of the
    /// replay, time `t + frame` — for a genuine counterexample this is
    /// non-empty and contains the signals reported by the property checker.
    pub diverging_signals: Vec<String>,
}

/// Replays a counterexample on the simulator, one run per miter instance.
///
/// Each run starts from the counterexample's per-instance starting state
/// at time `t` and ends at the failing frame `t + frame`: at every time
/// step it clocks the design (except at `t`), applies that frame's shared
/// input values and records every input, register and output into a VCD
/// trace.
///
/// # Errors
///
/// Propagates simulator errors (an input name or value outside the design),
/// which would indicate a malformed counterexample.
///
/// # Example
///
/// ```
/// use htd_core::replay::replay_counterexample;
/// use htd_core::{DetectionOutcome, TrojanDetector};
/// use htd_rtl::Design;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 1-bit Trojan: a latched trigger flips the data path.
/// let mut d = Design::new("tiny");
/// let input = d.add_input("in", 1)?;
/// let trigger = d.add_register("trigger", 1, 0)?;
/// let data = d.add_register("data", 1, 0)?;
/// let armed = d.or(d.signal(trigger), d.signal(input))?;
/// d.set_register_next(trigger, armed)?;
/// let payload = d.xor(d.signal(input), d.signal(trigger))?;
/// d.set_register_next(data, payload)?;
/// d.add_output("out", d.signal(data))?;
/// let design = d.validated()?;
///
/// let report = TrojanDetector::new(&design)?.run()?;
/// let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome else {
///     panic!("the Trojan is detected");
/// };
/// let replay = replay_counterexample(&design, counterexample)?;
/// assert!(!replay.diverging_signals.is_empty());
/// assert!(replay.instance1_vcd.contains("$enddefinitions"));
/// # Ok(())
/// # }
/// ```
pub fn replay_counterexample(
    design: &ValidatedDesign,
    cex: &Counterexample,
) -> Result<ReplayedCounterexample, DesignError> {
    let d = design.design();
    let mut recorders = Vec::new();
    let mut final_values: Vec<Vec<u128>> = Vec::new();

    for instance in 0..2 {
        let mut sim = Simulator::new(design);
        for state in &cex.starting_state {
            let value = if instance == 0 {
                state.instance1
            } else {
                state.instance2
            };
            sim.set_register(state.signal, value)?;
        }
        let mut recorder = TraceRecorder::all_signals(design);
        for step in 0..=cex.frame {
            if step > 0 {
                sim.step()?;
            }
            for (name, value) in cex.inputs.get(step).into_iter().flatten() {
                sim.set_input_by_name(name, *value)?;
            }
            recorder.record(&sim);
        }
        final_values.push(
            recorder
                .signals()
                .iter()
                .map(|&s| sim.peek(s))
                .collect::<Vec<u128>>(),
        );
        recorders.push(recorder);
    }

    let diverging_signals = recorders[0]
        .signals()
        .iter()
        .enumerate()
        .filter(|(i, _)| final_values[0][*i] != final_values[1][*i])
        .map(|(_, &s)| d.signal_name(s).to_string())
        .collect();

    let instance2_vcd = recorders.pop().expect("two instances").to_vcd("instance2");
    let instance1_vcd = recorders.pop().expect("two instances").to_vcd("instance1");
    Ok(ReplayedCounterexample {
        instance1_vcd,
        instance2_vcd,
        diverging_signals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectionOutcome, SessionBuilder};
    use htd_rtl::Design;

    fn infected_design() -> ValidatedDesign {
        let mut d = Design::new("infected");
        let input = d.add_input("in", 8).unwrap();
        let stage = d.add_register("stage", 8, 0).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let magic = d.eq_const(d.signal(input), 0x5A).unwrap();
        let armed = d.or(d.signal(trigger), magic).unwrap();
        d.set_register_next(trigger, armed).unwrap();
        let flip = d.zero_ext(d.signal(trigger), 8).unwrap();
        let payload = d.xor(d.signal(input), flip).unwrap();
        d.set_register_next(stage, payload).unwrap();
        d.add_output("out", d.signal(stage)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn replay_confirms_the_divergence_the_prover_reported() {
        let design = infected_design();
        let report = SessionBuilder::new(design.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome else {
            panic!("expected a detection, got {:?}", report.outcome);
        };
        let replay = replay_counterexample(&design, counterexample).unwrap();
        // Every signal the prover reported as differing must also differ in
        // the independent simulation.
        for reported in counterexample.diff_names() {
            assert!(
                replay.diverging_signals.iter().any(|s| s == reported),
                "{reported} did not diverge in the replay: {:?}",
                replay.diverging_signals
            );
        }
        assert!(replay.instance1_vcd.contains("$var wire 8"));
        assert!(replay.instance2_vcd.contains("$var wire 8"));
        assert_ne!(replay.instance1_vcd, replay.instance2_vcd);
    }
}
