//! Unused Circuit Identification (UCI).
//!
//! Hicks et al. (Oakland 2010) observe that malicious logic is dormant
//! during functional verification: the logic between some signal pair never
//! does anything, i.e. the pair stays equal throughout all tests.  UCI flags
//! such pairs as candidate Trojan logic for manual inspection.
//!
//! This word-level adaptation simulates the design under random stimuli and
//! flags every `(target, source)` pair — a register or output together with
//! one same-width signal in its combinational support — whose values stayed
//! identical across the whole run (the source sampled before the clock edge,
//! the target after it, so "the logic in between never changed the data").
//!
//! The known weaknesses are reproduced faithfully: the report is neither
//! sound (benign pass-through logic is flagged too) nor complete
//! (DeTrust-style Trojans whose payload partially toggles during tests
//! escape), and it depends entirely on the quality of the stimuli — in
//! contrast to the exhaustive guarantee of the IPC flow.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use htd_rtl::sim::Simulator;
use htd_rtl::structural::driver_support;
use htd_rtl::{DesignError, SignalId, ValidatedDesign};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the UCI analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UciOptions {
    /// Number of simulated clock cycles of random stimulus.
    pub cycles: u64,
    /// Seed for the stimulus generator.
    pub seed: u64,
}

impl Default for UciOptions {
    fn default() -> Self {
        UciOptions {
            cycles: 4_096,
            seed: 0x0C1,
        }
    }
}

/// One signal pair whose connecting logic never changed the data during the
/// tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UciPair {
    /// The downstream signal (a register or primary output).
    pub target: String,
    /// The upstream signal in its combinational support.
    pub source: String,
}

/// Result of [`unused_circuit_identification`].
#[derive(Clone, Debug)]
pub struct UciReport {
    /// Pairs that stayed equal for the entire run — candidate locations of
    /// dormant (possibly malicious) logic.
    pub flagged: Vec<UciPair>,
    /// Total candidate pairs examined.
    pub pairs_examined: usize,
    /// Cycles simulated.
    pub cycles_run: u64,
    /// Wall-clock time of the analysis.
    pub duration: Duration,
}

impl UciReport {
    /// `true` if the given target signal appears in at least one flagged
    /// pair.
    #[must_use]
    pub fn flags_target(&self, name: &str) -> bool {
        self.flagged.iter().any(|p| p.target == name)
    }
}

/// Runs the UCI analysis under random stimuli.
///
/// # Errors
///
/// Propagates simulator errors (these indicate an invalid design, not a
/// property of the analysis).
///
/// # Example
///
/// ```
/// use htd_baselines::designs::sequence_trojan;
/// use htd_baselines::uci::{unused_circuit_identification, UciOptions};
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// // The payload XOR between the input and the data register never fires
/// // during random tests, so UCI flags the (data, in) pair.
/// let report = unused_circuit_identification(&sequence_trojan(4), &UciOptions::default())?;
/// assert!(report.flags_target("data"));
/// # Ok(())
/// # }
/// ```
pub fn unused_circuit_identification(
    design: &ValidatedDesign,
    options: &UciOptions,
) -> Result<UciReport, DesignError> {
    // htd-lint: allow(determinism): runtime only fills UciReport.duration for the comparison table; it never reaches a detection report
    let start = Instant::now();
    let d = design.design();

    // Candidate pairs: every state/output signal against every same-width
    // signal in its driver's combinational support.
    let mut pairs: Vec<(SignalId, SignalId)> = Vec::new();
    for target in d.state_and_output_signals() {
        for &source in driver_support(design, target) {
            if d.signal_width(source) == d.signal_width(target) && source != target {
                pairs.push((target, source));
            }
        }
    }
    let mut still_equal: Vec<bool> = vec![true; pairs.len()];

    let inputs = d.inputs();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut sim = Simulator::new(design);
    for _ in 0..options.cycles {
        for &input in &inputs {
            let width = d.signal_width(input);
            sim.set_input(input, random_word(&mut rng, width))?;
        }
        // Source values before the edge, target values after it.
        let before: BTreeMap<SignalId, u128> =
            pairs.iter().map(|&(_, s)| (s, sim.peek(s))).collect();
        sim.step()?;
        for (i, &(target, source)) in pairs.iter().enumerate() {
            if still_equal[i] && sim.peek(target) != before[&source] {
                still_equal[i] = false;
            }
        }
    }

    let flagged = pairs
        .iter()
        .zip(&still_equal)
        .filter(|(_, &eq)| eq)
        .map(|(&(target, source), _)| UciPair {
            target: d.signal_name(target).to_string(),
            source: d.signal_name(source).to_string(),
        })
        .collect();
    Ok(UciReport {
        flagged,
        pairs_examined: pairs.len(),
        cycles_run: options.cycles,
        duration: start.elapsed(),
    })
}

fn random_word(rng: &mut StdRng, width: u32) -> u128 {
    let raw: u128 = rng.gen();
    if width >= 128 {
        raw
    } else {
        raw & ((1u128 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{sequence_trojan, timer_trojan};
    use htd_rtl::Design;

    #[test]
    fn dormant_payload_logic_is_flagged() {
        let design = sequence_trojan(4);
        let report = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 2_000,
                seed: 7,
            },
        )
        .unwrap();
        // The payload XOR never fired, so `data` tracked `in` exactly.
        assert!(report.flags_target("data"));
        assert!(report.pairs_examined >= 2);
    }

    #[test]
    fn exercised_logic_is_not_flagged() {
        // An adder is exercised by random stimuli: the sum rarely equals
        // either operand, so no pair survives the run.
        let mut d = Design::new("adder");
        let a = d.add_input("a", 8).unwrap();
        let b = d.add_input("b", 8).unwrap();
        let acc = d.add_register("acc", 8, 0).unwrap();
        let sum = d.add(d.signal(a), d.signal(b)).unwrap();
        d.set_register_next(acc, sum).unwrap();
        d.add_output("out", d.signal(acc)).unwrap();
        let design = d.validated().unwrap();
        let report = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 1_000,
                seed: 8,
            },
        )
        .unwrap();
        assert!(!report.flags_target("acc"));
    }

    #[test]
    fn benign_pass_through_logic_is_a_known_false_positive() {
        // A clean pipeline stage latches its input unchanged, so the
        // (stage0, in) pair stays equal for the whole run and is flagged
        // although it is perfectly benign — the imprecision that motivates
        // formal approaches.
        let design = crate::designs::clean_pipeline(2);
        let report = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 500,
                seed: 9,
            },
        )
        .unwrap();
        assert!(report.flags_target("stage0"));
    }

    #[test]
    fn deeply_triggered_payloads_are_still_flagged_while_dormant() {
        // Unlike bounded model checking, UCI does not care how long the
        // trigger sequence is — as long as the payload stays dormant during
        // the tests its pass-through behaviour is flagged.
        let design = timer_trojan(1_000_000);
        let report = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 500,
                seed: 9,
            },
        )
        .unwrap();
        assert!(report.flags_target("data"));
    }

    #[test]
    fn reports_are_deterministic_for_a_fixed_seed() {
        let design = sequence_trojan(3);
        let a = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 300,
                seed: 42,
            },
        )
        .unwrap();
        let b = unused_circuit_identification(
            &design,
            &UciOptions {
                cycles: 300,
                seed: 42,
            },
        )
        .unwrap();
        assert_eq!(a.flagged, b.flagged);
    }
}
