//! 2-safety bounded model checking from the reset state.
//!
//! This is the baseline the paper's Sec. II criticises: formal approaches
//! built on Bounded Model Checking "are unable to detect trojans with very
//! long trigger sequences", because the trigger has to fire *within the
//! unrolled bound*.
//!
//! The encoding keeps everything else identical to the IPC flow — the same
//! miter idea, the same bit-blaster, the same SAT solver — and changes only
//! what the paper changes: instead of a **symbolic starting state**, both
//! instances start from the concrete reset state and the solver must find
//! two input *prefixes* (one per instance, each exactly `bound` cycles long)
//! after which the externally visible behaviour diverges under shared
//! inputs.
//!
//! Two structural consequences follow, and both are exercised by the tests:
//!
//! * an input-dependent trigger (plaintext sequences, value counters) is
//!   only found once the unrolled prefix is long enough to arm it — the
//!   bound, the CNF size and the runtime all grow with the trigger length,
//!   whereas the IPC properties are independent of it;
//! * an input-*independent* trigger (a free-running timer) advances
//!   identically in both instances, so this golden-free bounded search can
//!   never observe a divergence at any bound — the situation the paper's
//!   coverage check (Sec. IV-D, case 2) exists for.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use htd_ipc::aig::{Aig, AigLit};
use htd_ipc::bitblast::{const_bits, equal, BitVec, BlastContext};
use htd_ipc::cnf::encode;
use htd_rtl::structural::structural_depth;
use htd_rtl::{SignalId, SignalKind, ValidatedDesign};
use htd_sat::SolveResult;

/// Options for the bounded search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BmcOptions {
    /// Number of unconstrained prefix cycles per instance (the trigger
    /// budget the bounded proof can explore).
    pub bound: usize,
    /// Number of shared-input cycles executed after the prefix before
    /// outputs are compared, to flush prefix data out of the pipeline.
    /// `None` uses the design's structural depth.
    pub settle: Option<usize>,
    /// Number of shared-input cycles during which the primary outputs are
    /// compared after settling.
    pub window: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            bound: 8,
            settle: None,
            window: 2,
        }
    }
}

/// Outcome of the bounded search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcOutcome {
    /// A pair of input prefixes drives the two instances' outputs apart.
    Diverges {
        /// Names of the diverging primary outputs.
        signals: Vec<String>,
        /// Comparison frame (0-based within the window) at which the
        /// divergence appears.
        frame: usize,
    },
    /// No output divergence exists within the bound: any Trojan whose
    /// trigger sequence does not fit in the unrolled prefix remains
    /// undetected.
    BoundExhausted,
}

/// Result of [`bounded_trojan_search`]: outcome plus work metrics.
#[derive(Clone, Debug)]
pub struct BmcReport {
    /// The outcome.
    pub outcome: BmcOutcome,
    /// The options used.
    pub options: BmcOptions,
    /// Total unrolled frames (per instance).
    pub unrolled_frames: usize,
    /// CNF variables handed to the solver.
    pub cnf_vars: usize,
    /// CNF clauses handed to the solver.
    pub cnf_clauses: usize,
    /// Wall-clock time for encoding plus solving.
    pub duration: Duration,
}

impl BmcReport {
    /// `true` if the bounded search found an output divergence (i.e.
    /// detected the Trojan).
    #[must_use]
    pub fn detected(&self) -> bool {
        matches!(self.outcome, BmcOutcome::Diverges { .. })
    }
}

/// Runs the bounded 2-safety search.
///
/// Both instances start from the design's reset state.  During the first
/// `options.bound` cycles each instance receives its own, unconstrained
/// inputs (this is where the solver can enact a trigger sequence in one
/// instance but not the other).  Both instances then receive the same inputs
/// for the settle period and the comparison window; a difference in any
/// primary output during the window is a detection.
///
/// # Example
///
/// See the [crate-level example](crate).
#[must_use]
pub fn bounded_trojan_search(design: &ValidatedDesign, options: &BmcOptions) -> BmcReport {
    // htd-lint: allow(determinism): runtime only fills BmcReport.duration for the comparison table; it never reaches a detection report
    let start = Instant::now();
    let d = design.design();
    let settle = options.settle.unwrap_or_else(|| structural_depth(design));
    let unrolled_frames = options.bound + settle + options.window;
    let mut aig = Aig::new();

    // Reset state, identical in both instances.
    let mut state: [HashMap<SignalId, BitVec>; 2] = [HashMap::new(), HashMap::new()];
    for r in d.registers() {
        let width = d.signal_width(r);
        let init = reset_value(design, r);
        for frame in &mut state {
            frame.insert(r, const_bits(init, width));
        }
    }

    // Prefix: per-instance free inputs.
    for _ in 0..options.bound {
        for frame in &mut state {
            let inputs = fresh_inputs(&mut aig, design);
            *frame = step(design, &mut aig, frame, &inputs);
        }
    }

    // Settle: shared inputs, no comparison yet.
    for _ in 0..settle {
        let shared = fresh_inputs(&mut aig, design);
        for frame in &mut state {
            *frame = step(design, &mut aig, frame, &shared);
        }
    }

    // Window: shared inputs, compare the primary outputs each frame.
    let outputs = d.outputs();
    let mut diff_lits: Vec<AigLit> = Vec::new();
    let mut observed: Vec<(usize, SignalId, BitVec, BitVec)> = Vec::new();
    for frame in 0..options.window {
        let shared = fresh_inputs(&mut aig, design);
        for &out in &outputs {
            let b0 = comb_value(design, &mut aig, &state[0], &shared, out);
            let b1 = comb_value(design, &mut aig, &state[1], &shared, out);
            diff_lits.push(equal(&mut aig, &b0, &b1).invert());
            observed.push((frame, out, b0, b1));
        }
        state[0] = step(design, &mut aig, &state[0], &shared);
        state[1] = step(design, &mut aig, &state[1], &shared);
    }

    let miter = aig.or_all(&diff_lits);
    if miter == AigLit::FALSE {
        return BmcReport {
            outcome: BmcOutcome::BoundExhausted,
            options: *options,
            unrolled_frames,
            cnf_vars: 0,
            cnf_clauses: 0,
            duration: start.elapsed(),
        };
    }
    let (mut solver, encoder) = encode(&aig, &[miter]);
    if miter != AigLit::TRUE {
        solver.add_clause([encoder.lit(miter)]);
    }
    let result = solver.solve();
    let outcome = match result {
        SolveResult::Unsat => BmcOutcome::BoundExhausted,
        SolveResult::Interrupted => unreachable!("no interrupt check installed"),
        SolveResult::Sat => {
            // Evaluate the AIG under the model to recover the diverging
            // outputs of the earliest diverging frame.
            let env = encoder.input_model(&aig, |var| solver.value(var));
            let values = aig.eval_all(&env);
            let word = |bits: &BitVec| -> u128 {
                bits.iter().enumerate().fold(0u128, |acc, (i, &b)| {
                    acc | (u128::from(aig.lit_value(&values, b)) << i)
                })
            };
            let mut signals = Vec::new();
            let mut diverging_frame = 0;
            'outer: for frame in 0..options.window {
                for (f, _, b0, b1) in &observed {
                    if *f == frame && word(b0) != word(b1) {
                        diverging_frame = frame;
                        for (g, sig, c0, c1) in &observed {
                            if *g == frame && word(c0) != word(c1) {
                                signals.push(d.signal_name(*sig).to_string());
                            }
                        }
                        break 'outer;
                    }
                }
            }
            BmcOutcome::Diverges {
                signals,
                frame: diverging_frame,
            }
        }
    };
    BmcReport {
        outcome,
        options: *options,
        unrolled_frames,
        cnf_vars: solver.num_vars(),
        cnf_clauses: solver.num_clauses(),
        duration: start.elapsed(),
    }
}

/// The reset value of a register.
fn reset_value(design: &ValidatedDesign, reg: SignalId) -> u128 {
    match design.design().signal_info(reg).kind() {
        SignalKind::Register { reset } => reset,
        _ => 0,
    }
}

fn fresh_inputs(aig: &mut Aig, design: &ValidatedDesign) -> HashMap<SignalId, BitVec> {
    let d = design.design();
    d.inputs()
        .into_iter()
        .map(|i| {
            let width = d.signal_width(i);
            (i, (0..width).map(|_| aig.new_input()).collect())
        })
        .collect()
}

/// One transition: lowers every register's next-state function under the
/// given state/input binding.
fn step(
    design: &ValidatedDesign,
    aig: &mut Aig,
    state: &HashMap<SignalId, BitVec>,
    inputs: &HashMap<SignalId, BitVec>,
) -> HashMap<SignalId, BitVec> {
    let d = design.design();
    let mut ctx = BlastContext::new();
    for (s, bits) in state {
        ctx.bind(*s, bits.clone());
    }
    for (s, bits) in inputs {
        ctx.bind(*s, bits.clone());
    }
    d.registers()
        .into_iter()
        .map(|r| {
            let driver = d.signal_info(r).driver().expect("validated design");
            (r, ctx.expr(d, aig, driver))
        })
        .collect()
}

/// The value of a combinational (output or wire) signal under the given
/// register/input binding.
fn comb_value(
    design: &ValidatedDesign,
    aig: &mut Aig,
    state: &HashMap<SignalId, BitVec>,
    inputs: &HashMap<SignalId, BitVec>,
    sig: SignalId,
) -> BitVec {
    let d = design.design();
    let mut ctx = BlastContext::new();
    for (s, bits) in state {
        ctx.bind(*s, bits.clone());
    }
    for (s, bits) in inputs {
        ctx.bind(*s, bits.clone());
    }
    ctx.signal(d, aig, sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{clean_pipeline, sequence_trojan, timer_trojan};

    #[test]
    fn clean_designs_never_diverge() {
        let design = clean_pipeline(2);
        let report = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 5,
                ..BmcOptions::default()
            },
        );
        assert!(!report.detected());
        assert_eq!(report.outcome, BmcOutcome::BoundExhausted);
    }

    #[test]
    fn sequence_trojan_within_the_bound_is_found() {
        let design = sequence_trojan(3);
        let report = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 4,
                ..BmcOptions::default()
            },
        );
        match report.outcome {
            BmcOutcome::Diverges { ref signals, .. } => {
                assert!(signals.iter().any(|s| s == "out"), "{signals:?}");
            }
            BmcOutcome::BoundExhausted => panic!("bound 4 covers a 3-value trigger sequence"),
        }
    }

    #[test]
    fn sequence_trojan_beyond_the_bound_is_missed() {
        // The central limitation the paper exploits: the same design, the
        // same solver, but the trigger sequence does not fit in the bound
        // (plus the small shared window).
        let design = sequence_trojan(12);
        let report = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 2,
                window: 1,
                ..BmcOptions::default()
            },
        );
        assert!(!report.detected());
    }

    #[test]
    fn growing_the_bound_recovers_detection_at_higher_cost() {
        let design = sequence_trojan(6);
        let missed = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 1,
                window: 1,
                ..BmcOptions::default()
            },
        );
        let found = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 8,
                window: 1,
                ..BmcOptions::default()
            },
        );
        assert!(!missed.detected());
        assert!(found.detected());
        assert!(
            found.cnf_vars > missed.cnf_vars,
            "deeper unrolling costs more CNF"
        );
        assert!(found.unrolled_frames > missed.unrolled_frames);
    }

    #[test]
    fn input_independent_timer_trojan_is_invisible_at_any_bound() {
        // Both instances' timers advance in lock step from reset, so the
        // golden-free bounded miter can never diverge — this Trojan class
        // needs either the symbolic starting state (IPC) or the coverage
        // check of the paper's flow.
        let design = timer_trojan(4);
        for bound in [0, 2, 8, 16] {
            let report = bounded_trojan_search(
                &design,
                &BmcOptions {
                    bound,
                    ..BmcOptions::default()
                },
            );
            assert!(!report.detected(), "unexpected detection at bound {bound}");
        }
    }

    #[test]
    fn window_of_zero_observes_nothing() {
        let design = sequence_trojan(2);
        let report = bounded_trojan_search(
            &design,
            &BmcOptions {
                bound: 4,
                settle: Some(0),
                window: 0,
            },
        );
        assert!(!report.detected());
    }
}
