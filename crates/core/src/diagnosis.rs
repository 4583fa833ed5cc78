//! Counterexample analysis (Sec. V-B of the paper).
//!
//! A failing property does not automatically mean a Trojan: the symbolic
//! starting state may exercise dependencies on *benign* internal state the
//! verification engineer knows about (an FSM phase, a busy flag, a round
//! counter).  The paper describes two resolution scenarios:
//!
//! 1. the fanin signal `x` causing the failure has already been proven equal
//!    by another property — then equality of `x` may be assumed and the
//!    property re-verified;
//! 2. `x` genuinely depends on previous computations but is not part of a
//!    Trojan — the engineer inspects the counterexample, disqualifies the
//!    behaviour, and likewise adds an equality assumption for `x`.
//!
//! This module extracts the candidate `x` signals from a counterexample and
//! classifies them against the engineer-supplied waiver list, so the
//! detection flow can re-verify automatically where allowed and report a
//! suspected Trojan otherwise.

use std::collections::BTreeSet;

use htd_ipc::Counterexample;
use htd_rtl::structural::driver_support;
use htd_rtl::{SignalId, SignalKind, ValidatedDesign};

/// Signals suspected of causing a property failure, split by how they can be
/// resolved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnosis {
    /// Candidate cause signals: registers whose starting-state values differ
    /// between the two instances *and* that lie in the (one- or two-cycle)
    /// fanin of a diverging signal, but were not assumed equal.
    pub candidates: Vec<SignalId>,
    /// The subset of `candidates` covered by the waiver list (benign state
    /// the engineer has disqualified as a Trojan).
    pub waived: Vec<SignalId>,
    /// The subset of `candidates` *not* covered by the waiver list.
    pub unwaived: Vec<SignalId>,
}

impl Diagnosis {
    /// `true` if every candidate cause is waived, i.e. the counterexample is
    /// spurious and the property can be re-verified with additional equality
    /// assumptions.
    #[must_use]
    pub fn is_spurious(&self) -> bool {
        !self.candidates.is_empty() && self.unwaived.is_empty()
    }
}

/// Every waiver-listed register in the (one- or two-cycle) fanin of the
/// given signals, minus the already-assumed ones.
///
/// This is the waiver set a spurious counterexample applies at once: when a
/// level's property fails through benign state, every engineer-disqualified
/// register feeding the level is assumed equal in one resolution round,
/// instead of surfacing one register (or one diverging signal's fanin) per
/// round — which matters with fine-grained per-signal counterexamples.
#[must_use]
pub fn benign_fanin_of(
    design: &ValidatedDesign,
    signals: &[SignalId],
    assumed_equal: &[SignalId],
    waivers: &[SignalId],
) -> Vec<SignalId> {
    let d = design.design();
    let assumed: BTreeSet<SignalId> = assumed_equal.iter().copied().collect();
    let waiver_set: BTreeSet<SignalId> = waivers.iter().copied().collect();
    let fanin = fanin_of(design, signals.iter().copied());
    fanin
        .into_iter()
        .filter(|s| {
            waiver_set.contains(s) && !assumed.contains(s) && d.signal_info(*s).kind().is_register()
        })
        .collect()
}

/// The fanin cone of `signals`: their driver supports, plus, for an output
/// (proven at `t+1`, after the registers it reads update), the supports of
/// those registers' next-state functions.
fn fanin_of(
    design: &ValidatedDesign,
    signals: impl IntoIterator<Item = SignalId>,
) -> BTreeSet<SignalId> {
    let d = design.design();
    let mut fanin: BTreeSet<SignalId> = BTreeSet::new();
    for signal in signals {
        let output = d.signal_info(signal).kind() == SignalKind::Output;
        for &sig in driver_support(design, signal) {
            fanin.insert(sig);
            if output {
                fanin.extend(driver_support(design, sig).iter().copied());
            }
        }
    }
    fanin
}

/// Analyses a counterexample: which differing starting-state registers can
/// explain the observed divergence?
///
/// `assumed_equal` is the antecedent of the failing property (those signals
/// cannot be the cause — they were constrained equal); `waivers` is the
/// engineer-supplied benign-state list.
#[must_use]
pub fn diagnose(
    design: &ValidatedDesign,
    cex: &Counterexample,
    assumed_equal: &[SignalId],
    waivers: &[SignalId],
) -> Diagnosis {
    let assumed: BTreeSet<SignalId> = assumed_equal.iter().copied().collect();
    let waiver_set: BTreeSet<SignalId> = waivers.iter().copied().collect();

    // Registers whose starting state differs between the instances.
    let differing: BTreeSet<SignalId> = cex.differing_state().iter().map(|p| p.signal).collect();

    let fanin = fanin_of(design, cex.diffs.iter().map(|diff| diff.signal));

    let candidates: Vec<SignalId> = differing
        .iter()
        .copied()
        .filter(|s| fanin.contains(s) && !assumed.contains(s))
        .collect();
    let (waived, unwaived): (Vec<SignalId>, Vec<SignalId>) = candidates
        .iter()
        .copied()
        .partition(|s| waiver_set.contains(s));

    Diagnosis {
        candidates,
        waived,
        unwaived,
    }
}

/// Renders a diagnosis as a short human-readable explanation.
#[must_use]
pub fn explain(design: &ValidatedDesign, diagnosis: &Diagnosis) -> String {
    let d = design.design();
    let names = |sigs: &[SignalId]| -> String {
        sigs.iter()
            .map(|&s| d.signal_name(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if diagnosis.candidates.is_empty() {
        "no differing starting-state register explains the divergence; the payload logic \
         itself differs between the instances"
            .to_string()
    } else if diagnosis.is_spurious() {
        format!(
            "divergence caused by benign state ({}); counterexample is spurious and the \
             property can be re-verified with equality assumptions",
            names(&diagnosis.waived)
        )
    } else {
        format!(
            "divergence caused by un-waived state ({}); suspected trojan trigger state",
            names(&diagnosis.unwaived)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_ipc::{IntervalProperty, PropertyChecker};
    use htd_rtl::Design;

    /// A design with a benign mode register and a malicious trigger register,
    /// both influencing the result register.
    fn design_with_two_state_bits() -> (ValidatedDesign, SignalId, SignalId, SignalId) {
        let mut d = Design::new("diag");
        let input = d.add_input("in", 8).unwrap();
        let mode = d.add_register("mode", 1, 0).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let result = d.add_register("result", 8, 0).unwrap();
        // mode toggles every cycle (benign behaviour known to the engineer).
        let mode_next = d.not(d.signal(mode));
        d.set_register_next(mode, mode_next).unwrap();
        // trigger arms on a magic value.
        let magic = d.eq_const(d.signal(input), 0x5A).unwrap();
        let trig_next = d.or(d.signal(trigger), magic).unwrap();
        d.set_register_next(trigger, trig_next).unwrap();
        // result = in ^ (trigger ? 1 : 0) ^ (mode ? 2 : 0)
        let t_ext = d.zero_ext(d.signal(trigger), 8).unwrap();
        let m_ext = d.zero_ext(d.signal(mode), 8).unwrap();
        let two = d.constant(2, 8).unwrap();
        let m_sel = d.mul(m_ext, two).unwrap();
        let x1 = d.xor(d.signal(input), t_ext).unwrap();
        let x2 = d.xor(x1, m_sel).unwrap();
        d.set_register_next(result, x2).unwrap();
        d.add_output("out", d.signal(result)).unwrap();
        let v = d.validated().unwrap();
        let mode_id = v.design().require("mode").unwrap();
        let trigger_id = v.design().require("trigger").unwrap();
        let result_id = v.design().require("result").unwrap();
        (v, mode_id, trigger_id, result_id)
    }

    #[test]
    fn diagnosis_identifies_candidate_state() {
        let (design, mode, trigger, result) = design_with_two_state_bits();
        let checker = PropertyChecker::new(&design);
        let prop = IntervalProperty::new("init_property", vec![], vec![result]);
        let report = checker.check(&prop);
        let cex = report
            .outcome
            .counterexample()
            .expect("property must fail")
            .clone();
        let diag = diagnose(&design, &cex, &prop.assume_equal, &[]);
        // The diverging `result` can be explained by `mode` and/or `trigger`
        // (whichever the solver chose to make different).
        assert!(!diag.candidates.is_empty());
        for c in &diag.candidates {
            assert!(*c == mode || *c == trigger, "unexpected candidate {c:?}");
        }
        assert!(!diag.is_spurious());
        assert!(explain(&design, &diag).contains("un-waived"));
    }

    #[test]
    fn waiving_all_candidates_marks_cex_spurious() {
        let (design, mode, trigger, result) = design_with_two_state_bits();
        let checker = PropertyChecker::new(&design);
        let prop = IntervalProperty::new("init_property", vec![], vec![result]);
        let report = checker.check(&prop);
        let cex = report
            .outcome
            .counterexample()
            .expect("property must fail")
            .clone();
        let diag = diagnose(&design, &cex, &prop.assume_equal, &[mode, trigger]);
        assert!(diag.is_spurious());
        assert!(diag.unwaived.is_empty());
        assert!(explain(&design, &diag).contains("spurious"));
    }

    #[test]
    fn assumed_signals_are_not_candidates() {
        let (design, mode, trigger, result) = design_with_two_state_bits();
        let checker = PropertyChecker::new(&design);
        // Assume the benign mode register equal; the failure must now be
        // explained by the trigger alone.
        let prop = IntervalProperty::new("fanout_property_1", vec![mode], vec![result]);
        let report = checker.check(&prop);
        let cex = report
            .outcome
            .counterexample()
            .expect("property must fail")
            .clone();
        let diag = diagnose(&design, &cex, &prop.assume_equal, &[]);
        assert_eq!(diag.candidates, vec![trigger]);
    }

    #[test]
    fn diagnosis_with_no_candidates_explains_payload_difference() {
        let (design, _, _, _) = design_with_two_state_bits();
        let diag = Diagnosis::default();
        assert!(!diag.is_spurious());
        assert!(explain(&design, &diag).contains("payload logic"));
    }
}
