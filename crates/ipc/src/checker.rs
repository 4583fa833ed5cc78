//! The interval property checker (IPC) over the 2-safety miter.
//!
//! Each check builds a *one-step* (or, for the aggregate trojan property, a
//! k-step) unrolling of the design's transition relation for two instances of
//! the same design:
//!
//! * the primary inputs are shared between the instances at every time frame
//!   (that is the miter of Fig. 2 in the paper),
//! * the registers at time `t` are **free variables** — this is the symbolic
//!   starting state of IPC, which implicitly models any input history and
//!   therefore any trigger sequence of any length,
//! * registers assumed equal by the property either share their variables
//!   across instances (default, see [`CheckerOptions::share_assumed_equal`])
//!   or receive explicit equality constraints,
//! * the property's prove-part becomes a miter output: *some proved signal
//!   differs between the instances*; the SAT solver then either refutes it
//!   (property holds for **all** starting states) or returns a
//!   counterexample.

use crate::fxhash::{FxHashMap, FxHashSet};
use std::time::Instant;

use htd_rtl::{SignalId, SignalKind, ValidatedDesign};
use htd_sat::SolveResult;

use crate::aig::{Aig, AigLit};
use crate::bitblast::{equal, BitVec, BlastContext};
use crate::cnf::encode as encode_cnf;
use crate::property::{
    CheckOutcome, CheckStats, Counterexample, IntervalProperty, PropertyReport, SignalValuePair,
};

/// Options controlling the property encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckerOptions {
    /// Merge the starting-state variables of registers assumed equal by the
    /// property across the two instances (default: `true`).
    ///
    /// Merging is sound and complete — a model of the merged encoding
    /// corresponds one-to-one to a model of the constrained encoding — and it
    /// lets the AIG's structural hashing collapse the identical cones of the
    /// two instances, which is what keeps each proof in the seconds range.
    /// Setting this to `false` keeps two separate variable sets plus explicit
    /// equality constraints; the ablation benchmark (`ablation_hashing`)
    /// quantifies the difference.
    pub share_assumed_equal: bool,
    /// Percentage of the backend's clause database that must be dead before
    /// opportunistic garbage collection compacts it (default: 25).  The
    /// session runs the check on the master encoding whenever a property
    /// check retires the previous check's activation literals, and once
    /// more at the end of a flow.
    pub gc_dead_pct: u32,
    /// Minimum clause-database size before garbage collection is considered
    /// at all (default: 128).
    pub gc_min_clauses: usize,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            share_assumed_equal: true,
            gc_dead_pct: (htd_sat::DEFAULT_GC_DEAD_FRACTION * 100.0) as u32,
            gc_min_clauses: htd_sat::DEFAULT_GC_MIN_CLAUSES,
        }
    }
}

/// The property checker bound to one design.
///
/// # Example
///
/// ```
/// use htd_ipc::{IntervalProperty, PropertyChecker};
/// use htd_rtl::Design;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// // A register that simply latches the input: the init property
/// // (inputs equal at t => register equal at t+1) holds.
/// let mut d = Design::new("latch");
/// let input = d.add_input("in", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(input))?;
/// d.add_output("out", d.signal(r))?;
/// let design = d.validated()?;
///
/// let checker = PropertyChecker::new(&design);
/// let property = IntervalProperty::new("init_property", vec![], vec![r]);
/// assert!(checker.check(&property).holds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PropertyChecker<'a> {
    design: &'a ValidatedDesign,
    options: CheckerOptions,
}

impl<'a> PropertyChecker<'a> {
    /// Creates a checker with default options.
    #[must_use]
    pub fn new(design: &'a ValidatedDesign) -> Self {
        PropertyChecker {
            design,
            options: CheckerOptions::default(),
        }
    }

    /// Creates a checker with explicit options.
    #[must_use]
    pub fn with_options(design: &'a ValidatedDesign, options: CheckerOptions) -> Self {
        PropertyChecker { design, options }
    }

    /// The options in effect.
    #[must_use]
    pub fn options(&self) -> CheckerOptions {
        self.options
    }

    /// Checks a single-cycle interval property (Figs. 4 and 5 of the paper).
    #[must_use]
    pub fn check(&self, property: &IntervalProperty) -> PropertyReport {
        // htd-lint: allow(determinism): feeds PropertyReport.duration only, zeroed by the normalized rendering
        let start = Instant::now();
        let d = self.design.design();
        let mut aig = Aig::new();

        // Shared primary inputs for frames 0 (time t) and 1 (time t+1).
        let inputs: Vec<FxHashMap<SignalId, BitVec>> = (0..2)
            .map(|_| fresh_words(&mut aig, d, &d.inputs()))
            .collect();

        // Starting-state variables.
        let assume_regs: FxHashSet<SignalId> = property
            .assume_equal
            .iter()
            .copied()
            .filter(|s| d.signal_info(*s).kind().is_register())
            .collect();
        let mut regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            let width = d.signal_width(r);
            if self.options.share_assumed_equal && assume_regs.contains(&r) {
                let bits = fresh_word(&mut aig, width);
                regs[0].insert(r, bits.clone());
                regs[1].insert(r, bits);
            } else {
                regs[0].insert(r, fresh_word(&mut aig, width));
                regs[1].insert(r, fresh_word(&mut aig, width));
            }
        }

        // Frame-0 lowering contexts per instance.
        let mut ctx_t: [BlastContext; 2] = [BlastContext::new(), BlastContext::new()];
        for (inst, ctx) in ctx_t.iter_mut().enumerate() {
            for (s, bits) in &inputs[0] {
                ctx.bind(*s, bits.clone());
            }
            for (s, bits) in &regs[inst] {
                ctx.bind(*s, bits.clone());
            }
        }

        // Antecedent: equality assumptions not discharged by variable sharing.
        let mut assumption_lits: Vec<AigLit> = Vec::new();
        for &sig in &property.assume_equal {
            let kind = d.signal_info(sig).kind();
            let merged = kind.is_register() && self.options.share_assumed_equal;
            if merged || kind == SignalKind::Input {
                continue;
            }
            let b1 = ctx_t[0].signal(d, &mut aig, sig);
            let b2 = ctx_t[1].signal(d, &mut aig, sig);
            assumption_lits.push(equal(&mut aig, &b1, &b2));
        }

        // Consequent: values of the proved signals at time t+1 per instance.
        let mut ctx_t1: [Option<BlastContext>; 2] = [None, None];
        let mut prove_values: Vec<(SignalId, BitVec, BitVec)> = Vec::new();
        for &sig in &property.prove_equal {
            let info = d.signal_info(sig);
            match info.kind() {
                SignalKind::Register { .. } => {
                    let next = info.driver().expect("validated design");
                    let b1 = ctx_t[0].expr(d, &mut aig, next);
                    let b2 = ctx_t[1].expr(d, &mut aig, next);
                    prove_values.push((sig, b1, b2));
                }
                SignalKind::Output | SignalKind::Wire => {
                    for inst in 0..2 {
                        if ctx_t1[inst].is_none() {
                            let mut next_ctx = BlastContext::new();
                            for (s, bits) in &inputs[1] {
                                next_ctx.bind(*s, bits.clone());
                            }
                            for r in d.registers() {
                                let next = d.signal_info(r).driver().expect("validated design");
                                let bits = ctx_t[inst].expr(d, &mut aig, next);
                                next_ctx.bind(r, bits);
                            }
                            ctx_t1[inst] = Some(next_ctx);
                        }
                    }
                    let b1 = ctx_t1[0]
                        .as_mut()
                        .expect("built above")
                        .signal(d, &mut aig, sig);
                    let b2 = ctx_t1[1]
                        .as_mut()
                        .expect("built above")
                        .signal(d, &mut aig, sig);
                    prove_values.push((sig, b1, b2));
                }
                SignalKind::Input => {
                    // Inputs are shared by construction; nothing to prove.
                }
            }
        }

        self.solve_miter(
            &property.name,
            &mut aig,
            &assumption_lits,
            &[prove_values],
            &inputs,
            &regs,
            start,
        )
    }

    /// Checks the aggregate *trojan property* of Fig. 3: inputs equal at `t`,
    /// and `fanouts_CCk` equal at `t + k` for every level `k = 1..=n`.
    ///
    /// This is the un-decomposed form used to validate Theorem 1 (the
    /// decomposed init/fanout properties are equivalent to this one); the
    /// iterative flow in `htd-core` uses [`check`](Self::check) instead.
    #[must_use]
    pub fn check_aggregate(&self, levels: &[Vec<SignalId>], name: &str) -> PropertyReport {
        // htd-lint: allow(determinism): feeds PropertyReport.duration only, zeroed by the normalized rendering
        let start = Instant::now();
        let d = self.design.design();
        let mut aig = Aig::new();
        let frames = levels.len();

        // Shared inputs for frames 0..=frames.
        let inputs: Vec<FxHashMap<SignalId, BitVec>> = (0..=frames)
            .map(|_| fresh_words(&mut aig, d, &d.inputs()))
            .collect();

        // Fully unconstrained, per-instance starting state.
        let mut regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            let width = d.signal_width(r);
            regs[0].insert(r, fresh_word(&mut aig, width));
            regs[1].insert(r, fresh_word(&mut aig, width));
        }

        let mut prove_values_by_frame: Vec<Vec<(SignalId, BitVec, BitVec)>> = Vec::new();
        let mut current: [FxHashMap<SignalId, BitVec>; 2] = [regs[0].clone(), regs[1].clone()];
        for (j, level) in levels.iter().enumerate() {
            // Frame-j contexts.
            let mut ctx: [BlastContext; 2] = [BlastContext::new(), BlastContext::new()];
            for (inst, c) in ctx.iter_mut().enumerate() {
                for (s, bits) in &inputs[j] {
                    c.bind(*s, bits.clone());
                }
                for (s, bits) in &current[inst] {
                    c.bind(*s, bits.clone());
                }
            }
            // Next state per instance.
            let mut next: [FxHashMap<SignalId, BitVec>; 2] =
                [FxHashMap::default(), FxHashMap::default()];
            for r in d.registers() {
                let driver = d.signal_info(r).driver().expect("validated design");
                for inst in 0..2 {
                    let bits = ctx[inst].expr(d, &mut aig, driver);
                    next[inst].insert(r, bits);
                }
            }
            // Frame-(j+1) contexts for combinational signals.
            let mut ctx_next: [BlastContext; 2] = [BlastContext::new(), BlastContext::new()];
            for (inst, c) in ctx_next.iter_mut().enumerate() {
                for (s, bits) in &inputs[j + 1] {
                    c.bind(*s, bits.clone());
                }
                for (s, bits) in &next[inst] {
                    c.bind(*s, bits.clone());
                }
            }
            let mut frame_values = Vec::new();
            for &sig in level {
                let info = d.signal_info(sig);
                let (b1, b2) = match info.kind() {
                    SignalKind::Register { .. } => (next[0][&sig].clone(), next[1][&sig].clone()),
                    SignalKind::Output | SignalKind::Wire => (
                        ctx_next[0].signal(d, &mut aig, sig),
                        ctx_next[1].signal(d, &mut aig, sig),
                    ),
                    SignalKind::Input => continue,
                };
                frame_values.push((sig, b1, b2));
            }
            prove_values_by_frame.push(frame_values);
            current = next;
        }

        self.solve_miter(
            name,
            &mut aig,
            &[],
            &prove_values_by_frame,
            &inputs,
            &regs,
            start,
        )
    }

    /// Shared back end: build the miter output, encode to CNF, solve, and
    /// reconstruct a counterexample if one exists.
    #[allow(clippy::too_many_arguments)]
    fn solve_miter(
        &self,
        name: &str,
        aig: &mut Aig,
        assumption_lits: &[AigLit],
        prove_values_by_frame: &[Vec<(SignalId, BitVec, BitVec)>],
        inputs: &[FxHashMap<SignalId, BitVec>],
        regs: &[FxHashMap<SignalId, BitVec>; 2],
        start: Instant,
    ) -> PropertyReport {
        let d = self.design.design();

        // Miter output: some proved signal differs in some frame.
        let mut diff_lits: Vec<AigLit> = Vec::new();
        for frame_values in prove_values_by_frame {
            for (_, b1, b2) in frame_values {
                diff_lits.push(equal(aig, b1, b2).invert());
            }
        }
        let miter = aig.or_all(&diff_lits);

        // Encode the cone of the assumptions and the miter.
        let mut roots: Vec<AigLit> = assumption_lits.to_vec();
        roots.push(miter);
        let (mut solver, encoder) = encode_cnf(aig, &roots);
        let mut trivially_unsat = false;
        for &root in &roots {
            if root == AigLit::TRUE {
                continue;
            }
            if root == AigLit::FALSE {
                trivially_unsat = true;
                continue;
            }
            solver.add_clause([encoder.lit(root)]);
        }

        let result = if trivially_unsat {
            SolveResult::Unsat
        } else {
            solver.solve()
        };

        let outcome = match result {
            SolveResult::Unsat => CheckOutcome::Holds,
            SolveResult::Interrupted => unreachable!("no interrupt check installed"),
            SolveResult::Sat => {
                // Reconstruct concrete values from the model.
                let env = encoder.input_model(aig, |var| solver.value(var));
                CheckOutcome::Fails(Box::new(reconstruct_counterexample(
                    d,
                    aig,
                    &env,
                    name,
                    prove_values_by_frame,
                    inputs,
                    regs,
                )))
            }
        };

        let stats = CheckStats {
            aig_nodes: aig.num_nodes(),
            aig_ands: aig.num_ands(),
            strash_hits: aig.strash_hits(),
            cnf_vars: solver.num_vars(),
            cnf_clauses: solver.num_clauses(),
            solver: solver.stats(),
            duration: start.elapsed(),
        };
        PropertyReport {
            property: name.to_string(),
            outcome,
            stats,
        }
    }
}

/// Rebuilds a concrete [`Counterexample`] from an assignment of the AIG's
/// input nodes (`env`; missing inputs read as `false`).
///
/// Shared by the one-shot [`PropertyChecker`] and the incremental
/// [`MiterSession`](crate::MiterSession) so the two paths cannot drift: the
/// failing frame is the first with a diverging prove-signal, `diffs` lists
/// every diverging signal of that frame, and the starting state and input
/// frames are decoded from the given words.
pub(crate) fn reconstruct_counterexample(
    d: &htd_rtl::Design,
    aig: &Aig,
    env: &FxHashMap<u32, bool>,
    name: &str,
    prove_values_by_frame: &[Vec<(SignalId, BitVec, BitVec)>],
    inputs: &[FxHashMap<SignalId, BitVec>],
    regs: &[FxHashMap<SignalId, BitVec>; 2],
) -> Counterexample {
    let values = aig.eval_all(env);
    let word = |bits: &BitVec| -> u128 {
        bits.iter().enumerate().fold(0u128, |acc, (i, &b)| {
            acc | (u128::from(aig.lit_value(&values, b)) << i)
        })
    };

    let mut diffs = Vec::new();
    let mut failing_frame = 1;
    'outer: for (j, frame_values) in prove_values_by_frame.iter().enumerate() {
        for (_, b1, b2) in frame_values {
            if word(b1) != word(b2) {
                failing_frame = j + 1;
                for (sig, c1, c2) in frame_values {
                    let w1 = word(c1);
                    let w2 = word(c2);
                    if w1 != w2 {
                        diffs.push(SignalValuePair {
                            signal: *sig,
                            name: d.signal_name(*sig).to_string(),
                            width: d.signal_width(*sig),
                            instance1: w1,
                            instance2: w2,
                        });
                    }
                }
                break 'outer;
            }
        }
    }

    let starting_state: Vec<SignalValuePair> = d
        .registers()
        .into_iter()
        .map(|r| SignalValuePair {
            signal: r,
            name: d.signal_name(r).to_string(),
            width: d.signal_width(r),
            instance1: word(&regs[0][&r]),
            instance2: word(&regs[1][&r]),
        })
        .collect();

    let input_frames: Vec<Vec<(String, u128)>> = inputs
        .iter()
        .map(|frame| {
            d.inputs()
                .into_iter()
                .map(|i| (d.signal_name(i).to_string(), word(&frame[&i])))
                .collect()
        })
        .collect();

    Counterexample {
        property: name.to_string(),
        frame: failing_frame,
        diffs,
        starting_state,
        inputs: input_frames,
    }
}

/// Allocates fresh AIG variables for one word.
fn fresh_word(aig: &mut Aig, width: u32) -> BitVec {
    (0..width).map(|_| aig.new_input()).collect()
}

/// Allocates fresh words for a list of signals.
fn fresh_words(
    aig: &mut Aig,
    d: &htd_rtl::Design,
    signals: &[SignalId],
) -> FxHashMap<SignalId, BitVec> {
    signals
        .iter()
        .map(|&s| (s, fresh_word(aig, d.signal_width(s))))
        .collect()
}
