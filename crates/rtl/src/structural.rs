//! Structural (syntactic) dependency analysis.
//!
//! This module implements the `Get_Fanout()` primitive of Algorithm 1 in the
//! paper: a purely structural trace of which state-holding elements and
//! outputs are reached from a set of source signals within one clock cycle.
//! Wires are transparent (they are combinational), registers and outputs are
//! the observation points.
//!
//! Everything here reads one table: every signal's *driver support*, the
//! inputs and registers its driver reads with wires and outputs expanded
//! ([`driver_support`]).  It depends on the netlist alone, so
//! [`Design::validated`] computes it once, in one walk of each driver's
//! expression DAG, and [`ValidatedDesign`] holds it.  `Get_Fanout` is then a
//! filter over the table, and planning every fanout level walks no
//! expression at all.
//!
//! It also provides the signal-coverage check of Sec. IV-D (case 2): state or
//! output signals that are *never* reached from the primary inputs may host an
//! input-independent Trojan (e.g. a timer started at reset) and must be
//! reported to the verification engineer.

use std::collections::{BTreeSet, HashSet};

use crate::design::{Design, SignalId, SignalKind, ValidatedDesign};
use crate::error::DesignError;
use crate::expr::ExprId;

/// Every signal's driver support in one flat table: `ranges[i]` is the
/// `start..end` of signal `i`'s support in `signals`, sorted by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SupportTable {
    ranges: Vec<(usize, usize)>,
    signals: Vec<SignalId>,
}

impl SupportTable {
    /// Walks each driver's DAG once and expands the wires and outputs it
    /// reads, so it also finds combinational loops: a wire or output whose
    /// expansion reaches itself.
    pub(crate) fn build(d: &Design) -> Result<SupportTable, DesignError> {
        let n = d.num_signals();
        // The signals each driver reads directly, walked with one stamp
        // table for the whole design.
        let mut leaf_offsets = Vec::with_capacity(n + 1);
        let mut leaves: Vec<SignalId> = Vec::new();
        let mut seen = vec![0; d.num_exprs()];
        let mut stack = Vec::new();
        leaf_offsets.push(0);
        for (id, s) in d.signals() {
            if let Some(driver) = s.driver() {
                let stamp = id.index() as u32 + 1;
                d.push_expr_signals(driver, &mut seen, stamp, &mut stack, &mut leaves);
            }
            leaf_offsets.push(leaves.len());
        }
        let leaves_of = |s: SignalId| &leaves[leaf_offsets[s.index()]..leaf_offsets[s.index() + 1]];
        let combinational = |s: SignalId| {
            matches!(
                d.signal_info(s).kind(),
                SignalKind::Wire | SignalKind::Output
            )
        };

        // Supports in depth-first post-order over the wires and outputs read,
        // so a wire's support is ready before any reader expands it.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; n];
        let mut ranges = vec![(0, 0); n];
        let mut signals: Vec<SignalId> = Vec::new();
        let mut added = vec![0u32; n];
        let mut dfs: Vec<(SignalId, usize)> = Vec::new();
        for root in d.signal_ids() {
            if marks[root.index()] != Mark::White {
                continue;
            }
            marks[root.index()] = Mark::Grey;
            dfs.push((root, 0));
            while let Some((sig, next)) = dfs.last_mut() {
                let sig = *sig;
                if let Some(&leaf) = leaves_of(sig).get(*next) {
                    *next += 1;
                    if combinational(leaf) {
                        match marks[leaf.index()] {
                            Mark::Black => {}
                            Mark::Grey => {
                                return Err(DesignError::CombinationalLoop {
                                    signal: d.signal_name(leaf).to_string(),
                                });
                            }
                            Mark::White => {
                                marks[leaf.index()] = Mark::Grey;
                                dfs.push((leaf, 0));
                            }
                        }
                    }
                    continue;
                }
                dfs.pop();
                marks[sig.index()] = Mark::Black;
                let stamp = sig.index() as u32 + 1;
                let start = signals.len();
                for &leaf in leaves_of(sig) {
                    if !combinational(leaf) {
                        push_once(&mut signals, &mut added, stamp, leaf);
                        continue;
                    }
                    let (from, to) = ranges[leaf.index()];
                    for i in from..to {
                        let s = signals[i];
                        push_once(&mut signals, &mut added, stamp, s);
                    }
                }
                signals[start..].sort_unstable();
                ranges[sig.index()] = (start, signals.len());
            }
        }
        Ok(SupportTable { ranges, signals })
    }

    fn get(&self, sig: SignalId) -> &[SignalId] {
        let (start, end) = self.ranges[sig.index()];
        &self.signals[start..end]
    }
}

/// Pushes `sig` onto the support under construction at the end of
/// `signals`, unless `added` already marks it with that support's `stamp`.
fn push_once(signals: &mut Vec<SignalId>, added: &mut [u32], stamp: u32, sig: SignalId) {
    if added[sig.index()] != stamp {
        added[sig.index()] = stamp;
        signals.push(sig);
    }
}

/// The driver support of `sig`: the inputs and registers its driver reads,
/// with named wires and outputs expanded transitively, sorted by id.  Empty
/// for an input, which has no driver.  For a register this is the support
/// of its next-state function.
///
/// [`Design::validated`] computes every signal's support once; this is a
/// lookup.
#[must_use]
pub fn driver_support(design: &ValidatedDesign, sig: SignalId) -> &[SignalId] {
    design.supports().get(sig)
}

/// The combinational support of an expression: the set of *non-wire* signals
/// (inputs and registers) it reads, with named wires expanded transitively.
///
/// Output signals never appear in the support because outputs cannot be read
/// back inside a design.  For a signal's own driver, [`driver_support`]
/// returns the same set without walking the expression.
#[must_use]
pub fn combinational_support(design: &ValidatedDesign, expr: ExprId) -> BTreeSet<SignalId> {
    let d = design.design();
    let mut out = BTreeSet::new();
    for sig in d.expr_signals(expr) {
        match d.signal_info(sig).kind() {
            SignalKind::Input | SignalKind::Register { .. } => {
                out.insert(sig);
            }
            SignalKind::Wire | SignalKind::Output => {
                out.extend(driver_support(design, sig).iter().copied());
            }
        }
    }
    out
}

/// `Get_Fanout(IP, sources)`: all state and output signals whose value one
/// clock cycle later (for registers) or in the same cycle (for outputs)
/// depends syntactically on at least one of the `sources`.
///
/// This is the single-cycle structural fanout used to build the
/// `fanouts_CCk` sets of the paper.
///
/// # Example
///
/// ```
/// use htd_rtl::Design;
/// use htd_rtl::structural::get_fanout;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// let mut d = Design::new("pipe");
/// let input = d.add_input("in", 8)?;
/// let stage1 = d.add_register("stage1", 8, 0)?;
/// let stage2 = d.add_register("stage2", 8, 0)?;
/// d.set_register_next(stage1, d.signal(input))?;
/// d.set_register_next(stage2, d.signal(stage1))?;
/// d.add_output("out", d.signal(stage2))?;
/// let design = d.validated()?;
///
/// let cc1 = get_fanout(&design, &[input]);
/// assert_eq!(cc1.len(), 1); // only stage1 is reached in one cycle
/// assert_eq!(design.design().signal_name(cc1[0]), "stage1");
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn get_fanout(design: &ValidatedDesign, sources: &[SignalId]) -> Vec<SignalId> {
    let d = design.design();
    let mut is_source = vec![false; d.num_signals()];
    for &s in sources {
        is_source[s.index()] = true;
    }
    d.signals()
        .filter(|(_, s)| s.kind().is_state_or_output())
        .map(|(sig, _)| sig)
        .filter(|&sig| {
            driver_support(design, sig)
                .iter()
                .any(|s| is_source[s.index()])
        })
        .collect()
}

/// The per-cycle fanout levels starting from the primary inputs, iterated to a
/// fixpoint exactly as the loop of Algorithm 1 does:
///
/// * level 0 is `fanouts_CC1 = Get_Fanout(IP, inputs)`,
/// * level `k` is `Get_Fanout(IP, level k-1)`,
/// * iteration stops when no *new* state or output signal is added.
///
/// The number of levels is bounded by the structural depth of the design, not
/// by its sequential depth (Sec. V of the paper).
#[must_use]
pub fn fanout_levels(design: &ValidatedDesign) -> Vec<Vec<SignalId>> {
    let d = design.design();
    let mut levels: Vec<Vec<SignalId>> = Vec::new();
    let mut covered = vec![false; d.num_signals()];
    let mut frontier = get_fanout(design, &d.inputs());
    while frontier.iter().any(|s| !covered[s.index()]) {
        for s in &frontier {
            covered[s.index()] = true;
        }
        let next = get_fanout(design, &frontier);
        levels.push(std::mem::replace(&mut frontier, next));
    }
    levels
}

/// Structural depth of the design: the number of fanout levels from the
/// primary inputs until the fixpoint is reached.
#[must_use]
pub fn structural_depth(design: &ValidatedDesign) -> usize {
    fanout_levels(design).len()
}

/// `Check_Signal_Coverage(IP, covered)`: state and output signals of the
/// design that never appear in `covered`.
///
/// In the detection flow, `covered` is the union of all `fanouts_CCk` sets;
/// any signal returned here is unreachable from the primary inputs and may
/// host an input-independent Trojan (case 2 of Sec. IV-D, e.g. AES-T1900's
/// reset-started counter).
#[must_use]
pub fn uncovered_signals(design: &ValidatedDesign, covered: &[SignalId]) -> Vec<SignalId> {
    let covered: HashSet<SignalId> = covered.iter().copied().collect();
    design
        .design()
        .state_and_output_signals()
        .into_iter()
        .filter(|s| !covered.contains(s))
        .collect()
}

/// Convenience: the set of state/output signals *not* reachable from the
/// primary inputs at any depth (i.e. the coverage gap of the whole flow).
#[must_use]
pub fn input_unreachable_signals(design: &ValidatedDesign) -> Vec<SignalId> {
    uncovered_signals(design, &fanout_levels(design).concat())
}

/// One place where the *data-driven* side condition of the decomposition is
/// violated: the signal proven by a fanout/init property depends on a register
/// that the property's antecedent does not mention.
///
/// These are exactly the situations of Sec. V-B of the paper: the prover
/// produces a counterexample for `proven_signal` that is explained by the free
/// starting state of `unassumed_register` — either a genuine Trojan (the
/// payload reads trigger state outside the fanout levels) or a false alarm
/// (benign control state such as a mode register).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataDrivenViolation {
    /// Index of the property whose side condition is violated: `0` for the
    /// init property, `k` for `fanout_property_k`.
    pub property_index: usize,
    /// The state/output signal in the property's prove set.
    pub proven_signal: SignalId,
    /// A register read (through one transition) by `proven_signal` that is
    /// neither a primary input nor part of the property's assume set.
    pub unassumed_register: SignalId,
}

/// Checks the *data-driven* side condition under which the decomposed
/// single-cycle properties are free of false alarms (Sec. IV-B of the paper:
/// non-interfering accelerators "determine the internal states relevant for
/// their computations only from the inputs").
///
/// For every decomposed property (init property and `fanout_property_k`) and
/// every signal `z` it proves, the registers that determine `z`'s value one
/// cycle later must all be covered by the property's antecedent:
///
/// * if `z` is a register, the combinational support of its next-state
///   function must lie in `assume ∪ inputs`;
/// * if `z` is an output (or named wire), the next-state function of every
///   register in its combinational support must have its support in
///   `assume ∪ inputs` (the output is observed right after the transition).
///
/// With `cumulative` set, the antecedent of `fanout_property_k` is taken as
/// the union of all earlier levels (the proactive re-verification mode of the
/// detection flow, [`DetectorConfig::assume_previously_proven`]); otherwise it
/// is exactly `fanouts_CCk` as in the plain Algorithm 1.
///
/// When this function returns an empty vector, Theorem 1 holds in its strong
/// (iff) form: a decomposed property fails exactly when the aggregate trojan
/// property fails.  In general only the completeness direction holds — the
/// decomposition never misses a Trojan the aggregate property would catch —
/// and every returned violation pinpoints a potential false alarm that the
/// counterexample analysis of Sec. V-B has to disqualify.
///
/// [`DetectorConfig::assume_previously_proven`]: https://docs.rs/htd-core
#[must_use]
pub fn data_driven_violations(
    design: &ValidatedDesign,
    cumulative: bool,
) -> Vec<DataDrivenViolation> {
    let d = design.design();
    let levels = fanout_levels(design);
    let mut violations = Vec::new();

    // The registers whose one-step value is fully determined by `allowed`
    // (given that primary inputs are always shared between the instances).
    let check_register = |property_index: usize,
                          proven_signal: SignalId,
                          reg: SignalId,
                          allowed: &HashSet<SignalId>,
                          violations: &mut Vec<DataDrivenViolation>| {
        for &dep in driver_support(design, reg) {
            if d.signal_info(dep).kind() != SignalKind::Input && !allowed.contains(&dep) {
                violations.push(DataDrivenViolation {
                    property_index,
                    proven_signal,
                    unassumed_register: dep,
                });
            }
        }
    };

    let mut assumed: HashSet<SignalId> = HashSet::new();
    for (k, level) in levels.iter().enumerate() {
        // Property `k` proves level `k` with antecedent `assumed`
        // (empty for the init property).
        for &z in level {
            match d.signal_info(z).kind() {
                SignalKind::Register { .. } => {
                    check_register(k, z, z, &assumed, &mut violations);
                }
                SignalKind::Output | SignalKind::Wire => {
                    for &reg in driver_support(design, z) {
                        if d.signal_info(reg).kind().is_register() {
                            check_register(k, z, reg, &assumed, &mut violations);
                        }
                    }
                }
                SignalKind::Input => {}
            }
        }
        if cumulative {
            assumed.extend(level.iter().copied());
        } else {
            assumed = level.iter().copied().collect();
        }
    }
    violations
}

/// `true` when the plain (non-cumulative) decomposition of Algorithm 1 is
/// guaranteed to be free of false alarms on this design — the structural
/// characterisation of the "data-driven" non-interfering accelerators the
/// paper targets (Sec. IV-B).
///
/// # Example
///
/// ```
/// use htd_rtl::Design;
/// use htd_rtl::structural::is_data_driven;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// let mut d = Design::new("latch");
/// let i = d.add_input("i", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(i))?;
/// d.add_output("o", d.signal(r))?;
/// assert!(is_data_driven(&d.validated()?));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn is_data_driven(design: &ValidatedDesign) -> bool {
    data_driven_violations(design, false).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Design;

    /// in -> r1 -> r2 -> out, plus a free-running counter not connected to
    /// the inputs at all.
    fn pipeline_with_counter() -> ValidatedDesign {
        let mut d = Design::new("pipe");
        let input = d.add_input("in", 8).unwrap();
        let r1 = d.add_register("r1", 8, 0).unwrap();
        let r2 = d.add_register("r2", 8, 0).unwrap();
        d.set_register_next(r1, d.signal(input)).unwrap();
        d.set_register_next(r2, d.signal(r1)).unwrap();
        d.add_output("out", d.signal(r2)).unwrap();
        let counter = d.add_register("free_counter", 4, 0).unwrap();
        let one = d.constant(1, 4).unwrap();
        let inc = d.add(d.signal(counter), one).unwrap();
        d.set_register_next(counter, inc).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn get_fanout_traces_one_cycle() {
        let design = pipeline_with_counter();
        let d = design.design();
        let input = d.require("in").unwrap();
        let r1 = d.require("r1").unwrap();
        let r2 = d.require("r2").unwrap();
        let out = d.require("out").unwrap();

        assert_eq!(get_fanout(&design, &[input]), vec![r1]);
        assert_eq!(get_fanout(&design, &[r1]), vec![r2]);
        assert_eq!(get_fanout(&design, &[r2]), vec![out]);
        // The output has no further fanout: outputs cannot be read back.
        assert!(get_fanout(&design, &[out]).is_empty());
    }

    #[test]
    fn fanout_levels_reach_fixpoint() {
        let design = pipeline_with_counter();
        let d = design.design();
        let levels = fanout_levels(&design);
        assert_eq!(levels.len(), 3);
        assert_eq!(d.signal_name(levels[0][0]), "r1");
        assert_eq!(d.signal_name(levels[1][0]), "r2");
        assert_eq!(d.signal_name(levels[2][0]), "out");
        assert_eq!(structural_depth(&design), 3);
    }

    #[test]
    fn coverage_check_finds_free_running_counter() {
        let design = pipeline_with_counter();
        let d = design.design();
        let unreachable = input_unreachable_signals(&design);
        assert_eq!(unreachable.len(), 1);
        assert_eq!(d.signal_name(unreachable[0]), "free_counter");
    }

    #[test]
    fn coverage_check_empty_when_everything_reached() {
        let mut d = Design::new("clean");
        let input = d.add_input("in", 8).unwrap();
        let r = d.add_register("r", 8, 0).unwrap();
        d.set_register_next(r, d.signal(input)).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        assert!(input_unreachable_signals(&design).is_empty());
    }

    #[test]
    fn wires_are_transparent_for_fanout() {
        let mut d = Design::new("wires");
        let input = d.add_input("in", 8).unwrap();
        let w1 = d.add_wire("w1", d.signal(input)).unwrap();
        let w2 = d.add_wire("w2", d.signal(w1)).unwrap();
        let r = d.add_register("r", 8, 0).unwrap();
        d.set_register_next(r, d.signal(w2)).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        let in_id = design.design().require("in").unwrap();
        let fanout = get_fanout(&design, &[in_id]);
        assert_eq!(fanout.len(), 1);
        assert_eq!(design.design().signal_name(fanout[0]), "r");
    }

    #[test]
    fn combinational_support_expands_wires() {
        let mut d = Design::new("support");
        let a = d.add_input("a", 4).unwrap();
        let b = d.add_input("b", 4).unwrap();
        let r = d.add_register("r", 4, 0).unwrap();
        let w_expr = d.xor(d.signal(a), d.signal(r)).unwrap();
        let w = d.add_wire("w", w_expr).unwrap();
        let sum = d.add(d.signal(w), d.signal(b)).unwrap();
        d.set_register_next(r, sum).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        let dd = design.design();
        let support = combinational_support(&design, sum);
        let names: Vec<&str> = support.iter().map(|&s| dd.signal_name(s)).collect();
        assert_eq!(names, vec!["a", "b", "r"]);
    }

    #[test]
    fn outputs_depending_directly_on_inputs_are_in_cc1() {
        let mut d = Design::new("comb_out");
        let a = d.add_input("a", 1).unwrap();
        let n = d.not(d.signal(a));
        d.add_output("o", n).unwrap();
        let design = d.validated().unwrap();
        let a_id = design.design().require("a").unwrap();
        let fanout = get_fanout(&design, &[a_id]);
        assert_eq!(fanout.len(), 1);
        assert_eq!(design.design().signal_name(fanout[0]), "o");
    }

    #[test]
    fn fanout_of_empty_source_set_is_empty() {
        let design = pipeline_with_counter();
        assert!(get_fanout(&design, &[]).is_empty());
    }

    #[test]
    fn registered_passthrough_is_data_driven() {
        let mut d = Design::new("latch");
        let i = d.add_input("i", 8).unwrap();
        let r = d.add_register("r", 8, 0).unwrap();
        d.set_register_next(r, d.signal(i)).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let design = d.validated().unwrap();
        assert!(is_data_driven(&design));
        assert!(data_driven_violations(&design, true).is_empty());
    }

    #[test]
    fn free_running_counter_payload_violates_the_side_condition() {
        // A register fed by both the input pipeline and an input-independent
        // counter: the counter is outside every fanout level, so the property
        // proving the register cannot assume it — exactly the structural
        // situation a Trojan payload creates.
        let mut d = Design::new("infected");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let counter = d.add_register("counter", 8, 0).unwrap();
        let one = d.constant(1, 8).unwrap();
        let inc = d.add(d.signal(counter), one).unwrap();
        d.set_register_next(counter, inc).unwrap();
        let mixed = d.xor(d.signal(input), d.signal(counter)).unwrap();
        d.set_register_next(s1, mixed).unwrap();
        d.add_output("out", d.signal(s1)).unwrap();
        let design = d.validated().unwrap();
        let dd = design.design();
        let violations = data_driven_violations(&design, false);
        assert!(!violations.is_empty());
        assert!(violations
            .iter()
            .any(|v| dd.signal_name(v.unassumed_register) == "counter"
                && dd.signal_name(v.proven_signal) == "s1"
                && v.property_index == 0));
        assert!(!is_data_driven(&design));
    }

    #[test]
    fn cumulative_antecedent_removes_chained_pipeline_violations() {
        // An output observed combinationally from a *deep* pipeline register:
        // the plain per-level antecedent misses the intermediate stage (a
        // Sec. V-B false alarm), the cumulative antecedent of the detection
        // flow covers it.
        let design = pipeline_with_counter();
        let d = design.design();
        let plain = data_driven_violations(&design, false);
        let cumulative = data_driven_violations(&design, true);
        // Plain form: the output `out` is observed from `r2`, whose next state
        // reads `r1` — not in the antecedent `{r2}` of fanout property 2.
        assert_eq!(plain.len(), 1);
        assert_eq!(d.signal_name(plain[0].proven_signal), "out");
        assert_eq!(d.signal_name(plain[0].unassumed_register), "r1");
        assert_eq!(plain[0].property_index, 2);
        // Cumulative form: `r1` is carried forward from the earlier level, so
        // the violation disappears.  (The free-running counter never appears
        // in any level at all — it is the coverage check's job, not a
        // data-driven violation.)
        assert!(cumulative.is_empty());
    }
}
