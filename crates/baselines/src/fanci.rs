//! FANCI-style control-value analysis.
//!
//! Waksman et al. (CCS 2013) flag "weakly-affecting" wires: signals with an
//! input whose value almost never influences them.  Stealthy Trojan triggers
//! are exactly such logic — a 128-bit compare that is true for one plaintext
//! out of 2¹²⁸ contributes essentially nothing to the truth table of the
//! logic it gates.
//!
//! This word-level adaptation bit-blasts the combinational cone of every
//! state and output signal, then estimates the *control value* of each
//! support bit by sampling: the fraction of random cone-input assignments
//! for which flipping that bit changes the signal.  A signal with a support
//! bit whose control value falls below the threshold is reported as
//! suspicious.
//!
//! Like the original, the analysis is golden-free and catches many stealthy
//! triggers, but it is statistical: thresholds trade false positives against
//! false negatives, and a careful adversary can spread the trigger so that
//! every individual wire stays above the threshold.  The IPC flow needs no
//! such threshold.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use htd_ipc::aig::{Aig, AigLit};
use htd_ipc::bitblast::{BitVec, BlastContext};
use htd_rtl::structural::driver_support;
use htd_rtl::{SignalId, ValidatedDesign};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the control-value analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FanciOptions {
    /// Random cone-input assignments sampled per signal.
    pub samples: u32,
    /// Signals with a support bit whose estimated control value is strictly
    /// below this threshold are flagged.
    pub threshold: f64,
    /// Seed for the sampling, so runs are reproducible.
    pub seed: u64,
}

impl Default for FanciOptions {
    fn default() -> Self {
        FanciOptions {
            samples: 64,
            threshold: 0.01,
            seed: 0xFA_C1,
        }
    }
}

/// One suspicious signal: some bit of its combinational support almost never
/// influences it.
#[derive(Clone, Debug, PartialEq)]
pub struct SuspiciousSignal {
    /// The flagged state/output signal.
    pub signal: String,
    /// The support signal owning the weakly-affecting bit.
    pub weak_source: String,
    /// Bit index within `weak_source`.
    pub weak_bit: u32,
    /// The estimated control value of that bit (fraction of samples in which
    /// flipping it changed the flagged signal).
    pub control_value: f64,
}

/// Result of [`control_value_analysis`].
#[derive(Clone, Debug)]
pub struct FanciReport {
    /// Flagged signals with their weakest support bit.
    pub suspicious: Vec<SuspiciousSignal>,
    /// Number of state/output signals analysed.
    pub signals_analysed: usize,
    /// Wall-clock time of the analysis.
    pub duration: Duration,
}

impl FanciReport {
    /// `true` if the given signal was flagged.
    #[must_use]
    pub fn flags_signal(&self, name: &str) -> bool {
        self.suspicious.iter().any(|s| s.signal == name)
    }
}

/// Runs the control-value analysis on every state and output signal.
///
/// # Example
///
/// ```
/// use htd_baselines::designs::{clean_pipeline, sequence_trojan};
/// use htd_baselines::fanci::{control_value_analysis, FanciOptions};
///
/// // The trigger-gated payload has weakly-affecting inputs; a plain
/// // pass-through pipeline does not.
/// let infected = control_value_analysis(&sequence_trojan(4), &FanciOptions::default());
/// assert!(infected.flags_signal("data"));
/// let clean = control_value_analysis(&clean_pipeline(2), &FanciOptions::default());
/// assert!(clean.suspicious.is_empty());
/// ```
#[must_use]
pub fn control_value_analysis(design: &ValidatedDesign, options: &FanciOptions) -> FanciReport {
    // htd-lint: allow(determinism): runtime only fills FanciReport.duration for the comparison table; it never reaches a detection report
    let start = Instant::now();
    let d = design.design();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut suspicious = Vec::new();
    let targets = d.state_and_output_signals();

    for &target in &targets {
        let driver = d.signal_info(target).driver().expect("validated design");
        let support = driver_support(design, target);
        if support.is_empty() {
            continue;
        }

        // Bit-blast the cone once with a fresh free variable per support bit.
        let mut aig = Aig::new();
        let mut ctx = BlastContext::new();
        let mut support_bits: Vec<(SignalId, u32, AigLit)> = Vec::new();
        for &s in support {
            let width = d.signal_width(s);
            let bits: BitVec = (0..width).map(|_| aig.new_input()).collect();
            for (i, &bit) in bits.iter().enumerate() {
                support_bits.push((s, i as u32, bit));
            }
            ctx.bind(s, bits);
        }
        let value_bits = ctx.expr(d, &mut aig, driver);

        // Estimate the control value of every support bit.
        let mut weakest: Option<SuspiciousSignal> = None;
        for &(source, bit_index, bit_lit) in &support_bits {
            let mut changed = 0u32;
            for _ in 0..options.samples {
                let mut env: HashMap<u32, bool> = HashMap::new();
                for &(_, _, lit) in &support_bits {
                    env.insert(lit.node(), rng.gen());
                }
                let baseline = evaluate(&aig, &env, &value_bits);
                let current = env[&bit_lit.node()];
                env.insert(bit_lit.node(), !current);
                let flipped = evaluate(&aig, &env, &value_bits);
                if baseline != flipped {
                    changed += 1;
                }
            }
            let control_value = f64::from(changed) / f64::from(options.samples.max(1));
            if control_value < options.threshold {
                let candidate = SuspiciousSignal {
                    signal: d.signal_name(target).to_string(),
                    weak_source: d.signal_name(source).to_string(),
                    weak_bit: bit_index,
                    control_value,
                };
                let replace = match &weakest {
                    None => true,
                    Some(existing) => control_value < existing.control_value,
                };
                if replace {
                    weakest = Some(candidate);
                }
            }
        }
        if let Some(finding) = weakest {
            suspicious.push(finding);
        }
    }

    FanciReport {
        suspicious,
        signals_analysed: targets.len(),
        duration: start.elapsed(),
    }
}

fn evaluate(aig: &Aig, env: &HashMap<u32, bool>, bits: &[AigLit]) -> u128 {
    let values = aig.eval_all(env);
    bits.iter().enumerate().fold(0u128, |acc, (i, &b)| {
        acc | (u128::from(aig.lit_value(&values, b)) << i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{clean_pipeline, sequence_trojan, value_counter_trojan};

    #[test]
    fn trigger_gated_payload_is_flagged() {
        let report = control_value_analysis(&sequence_trojan(6), &FanciOptions::default());
        assert!(report.flags_signal("data"), "{:?}", report.suspicious);
        let finding = report
            .suspicious
            .iter()
            .find(|s| s.signal == "data")
            .expect("flagged above");
        assert!(finding.weak_source.contains("trojan"));
        assert!(finding.control_value < 0.01);
    }

    #[test]
    fn clean_pipelines_have_no_weak_inputs() {
        let report = control_value_analysis(&clean_pipeline(3), &FanciOptions::default());
        assert!(report.suspicious.is_empty(), "{:?}", report.suspicious);
        assert_eq!(report.signals_analysed, 4);
    }

    #[test]
    fn counter_gated_payload_is_flagged_too() {
        let report = control_value_analysis(&value_counter_trojan(1_000), &FanciOptions::default());
        assert!(report.flags_signal("data"));
    }

    #[test]
    fn a_zero_threshold_flags_nothing() {
        // Control values are compared strictly against the threshold, so a
        // zero threshold disables the analysis — the knob that trades false
        // positives against false negatives has no analogue in the IPC flow.
        let options = FanciOptions {
            threshold: 0.0,
            ..FanciOptions::default()
        };
        let report = control_value_analysis(&sequence_trojan(6), &options);
        assert!(report.suspicious.is_empty());
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let a = control_value_analysis(&sequence_trojan(4), &FanciOptions::default());
        let b = control_value_analysis(&sequence_trojan(4), &FanciOptions::default());
        assert_eq!(a.suspicious, b.suspicious);
    }
}
