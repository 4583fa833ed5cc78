//! The incremental miter session: one AIG on one backend, many property
//! queries.
//!
//! The legacy [`PropertyChecker`](crate::PropertyChecker) rebuilds the AIG,
//! the CNF and the SAT solver for every single property.  The detection flow,
//! however, checks a *sequence* of closely related properties over the same
//! miter — init, one fanout property per structural level, plus
//! re-verification rounds — and [`MiterSession`] exploits that:
//!
//! * **One AIG, one backend.**  The session allocates the symbolic starting
//!   state and the shared input words once, lowers each property's cones into
//!   the same structurally-hashed AIG, and mirrors only the *new* nodes into
//!   one live [`SatBackend`] through the
//!   [`IncrementalEncoder`](crate::cnf::IncrementalEncoder).  Cones whose
//!   bindings repeat across properties strash onto existing nodes and cost no
//!   new clauses, and the solver's learnt clauses persist across the whole
//!   flow.
//! * **Antecedents as assumptions.**  Equality assumptions on combinational
//!   signals become solver *assumptions* instead of baked-in unit clauses, so
//!   the same encoding serves every antecedent the flow tries.
//! * **One sub-property at a time, in place.**  A property splits into one
//!   sub-property per prove signal.  In prove-list order, each is lowered,
//!   encoded, guarded by a fresh activation literal and solved on the master
//!   backend itself, with decisions confined to its cone; the first
//!   counterexample decides the property, and the prove signals behind it
//!   are never lowered.  The next check retires the literals with unit
//!   clauses, permanently simplifying their miter clauses away.
//!
//! Register starting-state variables follow the same sharing discipline as
//! the legacy checker (see
//! [`CheckerOptions::share_assumed_equal`](crate::CheckerOptions)): registers
//! assumed equal by the property under check are bound to one canonical
//! shared word in both instances, which lets structural hashing collapse the
//! identical cones — the property-checking cliff documented in the
//! `ablation_hashing` benchmark applies unchanged to the incremental path.

use crate::fxhash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htd_rtl::structural::driver_support;
use htd_rtl::{SignalId, SignalKind, ValidatedDesign};
use htd_sat::{BackendError, Lit, SatBackend, SolveResult, Var};

use crate::aig::{Aig, AigLit};
use crate::bitblast::{equal, BitVec, BlastContext};
use crate::checker::CheckerOptions;
use crate::cnf::IncrementalEncoder;
use crate::property::{CheckOutcome, CheckStats, Counterexample, IntervalProperty, PropertyReport};

/// Counters describing a whole [`MiterSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Properties checked so far.
    pub properties_checked: u64,
    /// AIG nodes mirrored into the backend so far (cumulative over all
    /// properties; nodes shared between properties are counted once).
    pub nodes_encoded: u64,
    /// SAT queries issued: one [`SatBackend::solve_under`] call per
    /// sub-property handed to the solver.  Structurally proved signals issue
    /// none, and the prove signals behind a property's first counterexample
    /// are never lowered, so they issue none either.
    pub queries: u64,
    /// Prove signals discharged by the structural fast path: their cone
    /// reduced to shared variables, so equality held by construction with no
    /// lowering and no solver work.
    pub structurally_proved: u64,
    /// Number of binding epochs built: a new epoch starts whenever a property
    /// arrives with a different set of merged (assumed-equal) registers.
    /// Properties within one epoch share their lowering contexts, so word-
    /// level nodes common to several properties are bit-blasted once per
    /// epoch instead of once per property.
    pub epoch_rebinds: u64,
}

/// An incremental property-checking session over one design's 2-safety miter.
///
/// Construct it with a design, checker options and a boxed [`SatBackend`];
/// then call [`check`](Self::check) for every property of the flow.  All
/// queries share one encoding; see the [module docs](self) for how.
///
/// # Example
///
/// ```
/// use htd_ipc::{IntervalProperty, MiterSession};
/// use htd_rtl::Design;
/// use htd_sat::Solver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("latch");
/// let input = d.add_input("in", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(input))?;
/// d.add_output("out", d.signal(r))?;
/// let design = d.validated()?;
///
/// let mut session = MiterSession::new(&design, Box::new(Solver::new()));
/// let init = IntervalProperty::new("init_property", vec![], vec![r]);
/// assert!(session.check(&design, &init)?.holds());
/// # Ok(())
/// # }
/// ```
pub struct MiterSession {
    aig: Aig,
    backend: Box<dyn SatBackend>,
    encoder: IncrementalEncoder,
    options: CheckerOptions,
    design_name: String,
    /// Shared input words for frames `t` and `t + 1`.
    inputs: Vec<FxHashMap<SignalId, BitVec>>,
    /// Per-instance starting-state words (used while a register is *not*
    /// assumed equal).
    split_regs: [FxHashMap<SignalId, BitVec>; 2],
    /// Canonical shared starting-state words (used by both instances while a
    /// register *is* assumed equal), allocated lazily.
    shared_regs: FxHashMap<SignalId, BitVec>,
    /// The cross-property lowering cache: the bound contexts of the current
    /// binding epoch (keyed by the merged-register set).  Checks whose
    /// antecedent merges the same registers reuse these contexts, so shared
    /// word-level cones are lowered once per epoch, not once per property.
    epoch: Option<EpochCtx>,
    /// Activation literals of the most recent check, retired (as permanent
    /// unit clauses) when the next check starts.
    pending_acts: Vec<Var>,
    /// The cancel flag installed with [`set_cancel_flag`](Self::set_cancel_flag).
    cancel: Option<Arc<AtomicBool>>,
    stats: SessionStats,
}

/// The lowering contexts of one binding epoch (one merged-register set).
#[derive(Clone)]
struct EpochCtx {
    /// Sorted merged-register set this epoch was built for.
    key: Vec<SignalId>,
    /// Frame-`t` contexts of the two instances.
    ctx_t: [BlastContext; 2],
    /// Frame-`t+1` contexts: seeded with the `t+1` input words, and each
    /// register bound to its next-state word only once a proved wire/output
    /// reads it.
    ctx_t1: [BlastContext; 2],
    /// Per-instance starting-state words under this epoch's sharing.
    regs: [FxHashMap<SignalId, BitVec>; 2],
}

impl std::fmt::Debug for MiterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiterSession")
            .field("design", &self.design_name)
            .field("backend", &self.backend.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MiterSession {
    /// Creates a session with default checker options.
    #[must_use]
    pub fn new(design: &ValidatedDesign, backend: Box<dyn SatBackend>) -> Self {
        Self::with_options(design, CheckerOptions::default(), backend)
    }

    /// Creates a session with explicit checker options.
    ///
    /// Construction lowers nothing: it allocates the shared input words and
    /// the per-instance starting-state words, once.  Each
    /// [`check`](Self::check) lowers and encodes the cones it needs.
    #[must_use]
    pub fn with_options(
        design: &ValidatedDesign,
        options: CheckerOptions,
        mut backend: Box<dyn SatBackend>,
    ) -> Self {
        backend.set_gc_thresholds(
            f64::from(options.gc_dead_pct) / 100.0,
            options.gc_min_clauses,
        );
        let d = design.design();
        let mut aig = Aig::new();
        let inputs: Vec<FxHashMap<SignalId, BitVec>> = (0..2)
            .map(|_| {
                d.inputs()
                    .into_iter()
                    .map(|s| (s, fresh_word(&mut aig, d.signal_width(s))))
                    .collect()
            })
            .collect();
        let mut split_regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            let width = d.signal_width(r);
            split_regs[0].insert(r, fresh_word(&mut aig, width));
            split_regs[1].insert(r, fresh_word(&mut aig, width));
        }
        MiterSession {
            aig,
            backend,
            encoder: IncrementalEncoder::new(),
            options,
            design_name: d.name().to_string(),
            inputs,
            split_regs,
            shared_regs: FxHashMap::default(),
            epoch: None,
            pending_acts: Vec::new(),
            cancel: None,
            stats: SessionStats::default(),
        }
    }

    /// The options in effect.
    #[must_use]
    pub fn options(&self) -> CheckerOptions {
        self.options
    }

    /// The backend's report name (`builtin-cdcl`, `dimacs:…`).
    #[must_use]
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// The name of the design the session is bound to.
    #[must_use]
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// Forks the whole session: an O(bytes) clone of the encoding state (AIG,
    /// encoder tables, epoch contexts) plus a [`SatBackend::fork`] of the
    /// master solver.
    ///
    /// The fork is a fully independent session over the same design: checks
    /// run on it never touch the parent.  A fork of a never-run session
    /// reports exactly what a fresh session does.  Forking a session that
    /// has already run properties is also sound, but its learnt clauses and
    /// retired activation literals carry over, so reports from such a fork
    /// are not byte-identical to a fresh session's.  No detection entry
    /// point forks; tests and the benchmark harness do, on the builtin
    /// solver.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] naming the backend unless the session runs
    /// on the builtin solver, the only backend that forks.
    pub fn fork(&self) -> Result<MiterSession, BackendError> {
        Ok(MiterSession {
            backend: self.backend.fork()?,
            aig: self.aig.clone(),
            encoder: self.encoder.clone(),
            options: self.options,
            design_name: self.design_name.clone(),
            inputs: self.inputs.clone(),
            split_regs: self.split_regs.clone(),
            shared_regs: self.shared_regs.clone(),
            epoch: self.epoch.clone(),
            pending_acts: self.pending_acts.clone(),
            cancel: self.cancel.clone(),
            stats: self.stats,
        })
    }

    /// [`fork`](Self::fork), discarding the backend's error message.  Kept
    /// for the benchmark harness (`perfbench/trace`), which calls it.
    #[must_use]
    pub fn try_fork(&self) -> Option<MiterSession> {
        self.fork().ok()
    }

    /// Session-level counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Installs a cancel flag on the master backend: setting it interrupts
    /// the solve in flight, and a [`check`](Self::check) that finds it set
    /// before a sub-property returns an error instead of solving.  The flag
    /// stays installed (forks inherit it) until another one replaces it.
    pub fn set_cancel_flag(&mut self, cancel: Arc<AtomicBool>) {
        let flag = Arc::clone(&cancel);
        self.backend
            .set_interrupt(Arc::new(move || flag.load(Ordering::SeqCst)));
        self.cancel = Some(cancel);
    }

    /// Checks a single-cycle interval property against the live miter.
    ///
    /// The prove consequent splits into one sub-property per prove signal,
    /// taken in prove-list order.  Each one takes the structural fast path
    /// or has its cone lowered; only the AIG nodes not yet in the backend
    /// are encoded; its miter is guarded by a fresh activation literal; and
    /// it is solved in place on the master with decisions confined to its
    /// cone.  The first counterexample decides the property, rebuilt from
    /// the master's model: the prove signals behind it are never lowered,
    /// encoded or solved.
    ///
    /// Master hygiene runs when the check starts: the previous check's
    /// activation literals are retired (unit clauses permanently disable
    /// their miter clauses) and the backend may compact the clauses that
    /// died (see [`CheckerOptions::gc_dead_pct`]).
    ///
    /// Must be called with the same design the session was built from.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the backend fails a query, or if the
    /// cancel flag ([`set_cancel_flag`](Self::set_cancel_flag)) cut the
    /// check short.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn check(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
    ) -> Result<PropertyReport, BackendError> {
        // htd-lint: allow(determinism): feeds PropertyReport.duration only, zeroed by the normalized rendering
        let start = Instant::now();
        let d = design.design();
        assert_eq!(d.name(), self.design_name, "session is bound to one design");
        let aig_nodes_before = self.aig.num_nodes();
        let aig_ands_before = self.aig.num_ands();
        let strash_before = self.aig.strash_hits();
        let backend_before = self.backend.stats();

        if self.flush_retired() {
            let _ = self.backend.collect_garbage();
        }
        let assume_regs: FxHashSet<SignalId> = property
            .assume_equal
            .iter()
            .copied()
            .filter(|s| d.signal_info(*s).kind().is_register())
            .collect();
        let mut epoch = self.take_epoch(design, &assume_regs);
        let solved = self.solve_sub_properties(design, property, &assume_regs, &mut epoch);
        // The epoch's lowering cache outlives a failed query too.
        self.epoch = Some(epoch);
        let (outcome, cnf_vars, cnf_clauses) = solved?;
        self.stats.properties_checked += 1;

        let backend_after = self.backend.stats();
        Ok(PropertyReport {
            property: property.name.clone(),
            outcome,
            stats: CheckStats {
                aig_nodes: self.aig.num_nodes() - aig_nodes_before,
                aig_ands: self.aig.num_ands() - aig_ands_before,
                strash_hits: self.aig.strash_hits() - strash_before,
                cnf_vars,
                cnf_clauses,
                solver: backend_after.solver.delta_since(&backend_before.solver),
                duration: start.elapsed(),
            },
        })
    }

    /// The sub-property loop of [`check`](Self::check), under the binding
    /// epoch of the property's antecedent.  Returns the outcome and the CNF
    /// variables and clauses the encoding added.
    fn solve_sub_properties(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        assume_regs: &FxHashSet<SignalId>,
        epoch: &mut EpochCtx,
    ) -> Result<(CheckOutcome, usize, usize), BackendError> {
        let d = design.design();
        let share = self.options.share_assumed_equal;
        let antecedent = self.lower_assumptions(design, property, assume_regs, epoch);
        // A structurally unsatisfiable antecedent makes the property hold
        // vacuously: nothing is lowered past the structural fast path.
        let vacuous = antecedent.contains(&AigLit::FALSE);
        let antecedent_roots: Vec<AigLit> = antecedent
            .iter()
            .copied()
            .filter(|a| !a.is_const())
            .collect();
        // The antecedent's solver literals, encoded together with the first
        // sub-property that reaches the solver.
        let mut base_assumptions: Option<Vec<Lit>> = None;
        let (mut cnf_vars, mut cnf_clauses) = (0, 0);
        for (index, &sig) in property.prove_equal.iter().enumerate() {
            if self
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::SeqCst))
            {
                return Err(interrupted(property, index));
            }
            if share && structurally_equal_next(design, sig, assume_regs) {
                self.stats.structurally_proved += 1;
                continue;
            }
            if vacuous {
                continue;
            }
            let Some((b1, b2)) = self.lower_prove_signal(design, epoch, sig) else {
                continue;
            };
            let diff = equal(&mut self.aig, &b1, &b2).invert();
            if diff == AigLit::FALSE {
                // Equal by construction under this epoch's sharing.
                continue;
            }

            let grown_from = self.backend.stats();
            let mut roots = if base_assumptions.is_none() {
                antecedent_roots.clone()
            } else {
                Vec::new()
            };
            roots.push(diff);
            let fresh = self
                .encoder
                .encode(self.backend.as_mut(), &self.aig, &roots);
            self.stats.nodes_encoded += fresh as u64;
            let mut assumptions = base_assumptions
                .get_or_insert_with(|| {
                    antecedent_roots
                        .iter()
                        .map(|&a| self.encoder.lit(a))
                        .collect()
                })
                .clone();
            let mut cone_roots = antecedent_roots.clone();
            let act = if diff == AigLit::TRUE {
                // The miter holds structurally for every assignment; the
                // query only needs a model of the antecedent.
                None
            } else {
                cone_roots.push(diff);
                let act = self.backend.new_var();
                let miter_lit = self.encoder.lit(diff);
                self.backend.add_clause(&[Lit::neg(act), miter_lit]);
                assumptions.push(Lit::pos(act));
                self.pending_acts.push(act);
                Some(act)
            };
            let grown_to = self.backend.stats();
            cnf_vars += grown_to.vars - grown_from.vars;
            cnf_clauses += grown_to.clauses.saturating_sub(grown_from.clauses);

            self.backend.mask_all_decisions();
            let cone = self.encoder.cone_vars(&self.aig, &cone_roots);
            for v in cone.into_iter().chain(act) {
                self.backend.set_decision_var(v, true);
            }
            self.stats.queries += 1;
            match self.backend.solve_under(&assumptions)? {
                SolveResult::Unsat => {}
                SolveResult::Sat => {
                    let cex = self.reconstruct(d, &property.name, (sig, b1, b2), &epoch.regs);
                    return Ok((CheckOutcome::Fails(Box::new(cex)), cnf_vars, cnf_clauses));
                }
                SolveResult::Interrupted => return Err(interrupted(property, index)),
            }
        }
        Ok((CheckOutcome::Holds, cnf_vars, cnf_clauses))
    }

    /// Retires the pending activation literals of the previous check:
    /// permanent unit clauses disable their miter clauses, which the next
    /// [`collect_garbage`](SatBackend::collect_garbage) can then physically
    /// drop.  Returns `true` if any literal was retired (i.e. clauses may
    /// have died since the last garbage collection).
    fn flush_retired(&mut self) -> bool {
        let retired = !self.pending_acts.is_empty();
        for act in std::mem::take(&mut self.pending_acts) {
            self.backend.add_clause(&[Lit::neg(act)]);
        }
        retired
    }

    /// The master backend's cumulative counters (variables, clauses, queries
    /// and solver work including clause-GC).
    #[must_use]
    pub fn backend_stats(&self) -> htd_sat::BackendStats {
        self.backend.stats()
    }

    /// Attaches (or detaches, with `None`) a shared resource budget on the
    /// master backend, so the whole job charges one budget.
    pub fn set_budget(&mut self, budget: Option<std::sync::Arc<htd_sat::BudgetTracker>>) {
        self.backend.set_budget(budget);
    }

    /// Ends a level-flow: retires the final check's activation literals and
    /// lets the backend compact the clauses that just died, so a reused
    /// session starts its next run with a clean database.  The clause-GC
    /// work shows only in [`backend_stats`](Self::backend_stats), never in a
    /// flow report: it is master hygiene after the verdict, not work of any
    /// property.
    pub fn finish_level_flow(&mut self) {
        if self.flush_retired() {
            let _ = self.backend.collect_garbage();
        }
    }

    /// Returns the lowering contexts for the given merged-register set,
    /// reusing the cached epoch when the key matches (the cross-property
    /// lowering cache) and rebinding otherwise.
    fn take_epoch(
        &mut self,
        design: &ValidatedDesign,
        assume_regs: &FxHashSet<SignalId>,
    ) -> EpochCtx {
        let share = self.options.share_assumed_equal;
        let mut key: Vec<SignalId> = if share {
            assume_regs.iter().copied().collect()
        } else {
            Vec::new()
        };
        key.sort_unstable();
        if let Some(epoch) = self.epoch.take() {
            if epoch.key == key {
                return epoch;
            }
        }
        self.stats.epoch_rebinds += 1;
        let d = design.design();
        let seeded = |words: &FxHashMap<SignalId, BitVec>| {
            let mut ctx = BlastContext::new();
            for (s, bits) in words {
                ctx.bind(*s, bits.clone());
            }
            ctx
        };
        let mut ctx_t = [seeded(&self.inputs[0]), seeded(&self.inputs[0])];
        let ctx_t1 = [seeded(&self.inputs[1]), seeded(&self.inputs[1])];
        let mut regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            if share && assume_regs.contains(&r) {
                let width = d.signal_width(r);
                let aig = &mut self.aig;
                let bits = self
                    .shared_regs
                    .entry(r)
                    .or_insert_with(|| (0..width).map(|_| aig.new_input()).collect())
                    .clone();
                for inst in 0..2 {
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits.clone());
                }
            } else {
                for inst in 0..2 {
                    let bits = self.split_regs[inst][&r].clone();
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits);
                }
            }
        }
        EpochCtx {
            key,
            ctx_t,
            ctx_t1,
            regs,
        }
    }

    /// Lowers the antecedent equalities not already discharged by variable
    /// sharing into AIG literals (one per assumed signal).
    fn lower_assumptions(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        assume_regs: &FxHashSet<SignalId>,
        epoch: &mut EpochCtx,
    ) -> Vec<AigLit> {
        let d = design.design();
        let share = self.options.share_assumed_equal;
        let mut assumption_aig: Vec<AigLit> = Vec::new();
        for &sig in &property.assume_equal {
            let kind = d.signal_info(sig).kind();
            let merged = kind.is_register() && share;
            if merged || kind == SignalKind::Input {
                continue;
            }
            // A wire/output whose cone reduces to shared variables is equal
            // by construction; lowering it would only produce a constant.
            if share && driver_is_merged(design, sig, assume_regs) {
                continue;
            }
            let b1 = epoch.ctx_t[0].signal(d, &mut self.aig, sig);
            let b2 = epoch.ctx_t[1].signal(d, &mut self.aig, sig);
            assumption_aig.push(equal(&mut self.aig, &b1, &b2));
        }
        assumption_aig
    }

    /// Lowers one prove signal's next-cycle value in both instances.
    /// Registers are proved through their drivers at `t`; wires and outputs
    /// through the epoch's frame-`t+1` contexts.  Inputs are shared by
    /// construction — nothing to prove, `None`.
    ///
    /// A wire's value at `t+1` reads the `t+1` inputs and the next state of
    /// exactly the registers in its driver's combinational support, so only
    /// those registers get their next-state function lowered and bound into
    /// the frame-`t+1` contexts (the fanout cone of Algorithm 1).  The
    /// bindings stay in the epoch, so later prove signals and properties of
    /// the same epoch reuse them; registers outside every proved cone are
    /// never lowered at `t+1`.
    fn lower_prove_signal(
        &mut self,
        design: &ValidatedDesign,
        epoch: &mut EpochCtx,
        sig: SignalId,
    ) -> Option<(BitVec, BitVec)> {
        let d = design.design();
        let info = d.signal_info(sig);
        match info.kind() {
            SignalKind::Register { .. } => {
                let next = info.driver().expect("validated design");
                let b1 = epoch.ctx_t[0].expr(d, &mut self.aig, next);
                let b2 = epoch.ctx_t[1].expr(d, &mut self.aig, next);
                Some((b1, b2))
            }
            SignalKind::Output | SignalKind::Wire => {
                for inst in 0..2 {
                    for r in driver_regs(design, sig) {
                        if epoch.ctx_t1[inst].binding(r).is_none() {
                            let next = d.signal_info(r).driver().expect("validated design");
                            let bits = epoch.ctx_t[inst].expr(d, &mut self.aig, next);
                            epoch.ctx_t1[inst].bind(r, bits);
                        }
                    }
                }
                let b1 = epoch.ctx_t1[0].signal(d, &mut self.aig, sig);
                let b2 = epoch.ctx_t1[1].signal(d, &mut self.aig, sig);
                Some((b1, b2))
            }
            SignalKind::Input => None,
        }
    }

    /// Rebuilds the counterexample of a failing sub-property from the
    /// master's model via the reconstruction shared with the one-shot
    /// checker.
    fn reconstruct(
        &self,
        d: &htd_rtl::Design,
        name: &str,
        prove_value: (SignalId, BitVec, BitVec),
        regs: &[FxHashMap<SignalId, BitVec>; 2],
    ) -> Counterexample {
        let env = self
            .encoder
            .input_model(&self.aig, |var| self.backend.model_value(var));
        crate::checker::reconstruct_counterexample(
            d,
            &self.aig,
            &env,
            name,
            &[vec![prove_value]],
            &self.inputs,
            regs,
        )
    }
}

/// The error of a sub-property whose query the cancel flag cut short.
fn interrupted(property: &IntervalProperty, index: usize) -> BackendError {
    BackendError {
        message: format!("sub-property {index} of {} interrupted", property.name),
    }
}

/// The registers `sig`'s driver reads, through wires and outputs.
fn driver_regs(design: &ValidatedDesign, sig: SignalId) -> impl Iterator<Item = SignalId> + '_ {
    let d = design.design();
    driver_support(design, sig)
        .iter()
        .copied()
        .filter(move |s| d.signal_info(*s).kind().is_register())
}

/// `true` if the *next* value of register (or the *current* value of
/// wire/output) `sig` is the same function of shared variables in both
/// instances: every register its driver reads is bound to a shared word.
fn driver_is_merged(
    design: &ValidatedDesign,
    sig: SignalId,
    assume_regs: &FxHashSet<SignalId>,
) -> bool {
    driver_regs(design, sig).all(|r| assume_regs.contains(&r))
}

/// `true` if `sig`'s value one cycle after `t` is provably identical in
/// both instances *by construction* under the current sharing: the whole
/// cone reduces to shared variables, so no lowering and no SAT query is
/// needed — the incremental flow's structural fast path.
fn structurally_equal_next(
    design: &ValidatedDesign,
    sig: SignalId,
    assume_regs: &FxHashSet<SignalId>,
) -> bool {
    match design.design().signal_info(sig).kind() {
        SignalKind::Register { .. } => driver_is_merged(design, sig, assume_regs),
        SignalKind::Output | SignalKind::Wire => {
            // Value at t+1 = comb function of inputs@t+1 (shared) and the
            // next-state of the registers the driver reads.
            driver_regs(design, sig).all(|r| driver_is_merged(design, r, assume_regs))
        }
        SignalKind::Input => true,
    }
}

/// Allocates fresh AIG variables for one word.
fn fresh_word(aig: &mut Aig, width: u32) -> BitVec {
    (0..width).map(|_| aig.new_input()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PropertyChecker;
    use htd_rtl::Design;
    use htd_sat::Solver;

    fn trojan_design() -> ValidatedDesign {
        let mut d = Design::new("tiny_trojan");
        let input = d.add_input("in", 1).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let data = d.add_register("data", 1, 0).unwrap();
        let trig_next = d.or(d.signal(trigger), d.signal(input)).unwrap();
        d.set_register_next(trigger, trig_next).unwrap();
        let payload = d.xor(d.signal(input), d.signal(trigger)).unwrap();
        d.set_register_next(data, payload).unwrap();
        d.add_output("out", d.signal(data)).unwrap();
        d.validated().unwrap()
    }

    fn pipeline() -> ValidatedDesign {
        let mut d = Design::new("pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn session_and_legacy_checker_agree_on_a_trojan() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let legacy = PropertyChecker::new(&design).check(&property);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let incremental = session.check(&design, &property).unwrap();

        assert!(!legacy.holds());
        assert!(!incremental.holds());
        let cex = incremental.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["data"]);
    }

    #[test]
    fn session_checks_a_whole_flow() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let properties = [
            IntervalProperty::new("init_property", vec![], vec![s1]),
            IntervalProperty::new("fanout_property_1", vec![s1], vec![s2]),
            IntervalProperty::new("fanout_property_2", vec![s1, s2], vec![out]),
        ];
        for property in &properties {
            let report = session.check(&design, property).unwrap();
            assert!(report.holds(), "{} should hold", property.name);
        }
        assert_eq!(session.stats().properties_checked, 3);
    }

    #[test]
    fn re_checking_the_same_property_encodes_nothing_new() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![s1]);

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        session.check(&design, &property).unwrap();
        let encoded_once = session.stats().nodes_encoded;
        session.check(&design, &property).unwrap();
        assert_eq!(session.stats().nodes_encoded, encoded_once);
    }

    #[test]
    fn check_reports_the_lowest_failing_sub_property() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let trigger = d.require("trigger").unwrap();
        let failing = IntervalProperty::new("init_property", vec![], vec![trigger, data]);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let report = session.check(&design, &failing).unwrap();
        // First-counterexample-wins: the lowest-id failing prove signal.
        let cex = report.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["trigger"]);
    }

    /// A fork of a pristine (never-run) master behaves exactly like a fresh
    /// session — same verdicts, same solver-work deltas — and runs
    /// independently of its parent.
    #[test]
    fn a_pristine_fork_checks_like_a_fresh_session() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let master = MiterSession::new(&design, Box::new(Solver::new()));
        let mut forked = master.try_fork().expect("builtin backend forks");
        let mut fresh = MiterSession::new(&design, Box::new(Solver::new()));

        let mut from_fork = forked.check(&design, &property).unwrap();
        let mut from_fresh = fresh.check(&design, &property).unwrap();
        from_fork.stats.duration = std::time::Duration::ZERO;
        from_fresh.stats.duration = std::time::Duration::ZERO;
        assert_eq!(from_fork, from_fresh);

        // The master itself stayed pristine.
        assert_eq!(master.stats().properties_checked, 0);

        // A second, later fork of the same untouched master is unaffected by
        // the first fork's run.
        let mut second = master.try_fork().expect("builtin backend forks");
        let mut again = second.check(&design, &property).unwrap();
        again.stats.duration = std::time::Duration::ZERO;
        assert_eq!(again, from_fresh);
    }

    /// A session forks only over the builtin solver: over a process
    /// backend, `fork` answers `Err` naming the backend.
    #[test]
    fn a_session_over_a_process_backend_does_not_fork() {
        let design = trojan_design();
        let backend = htd_sat::DimacsProcessBackend::new("/nonexistent/htd-test-solver");
        let session = MiterSession::new(&design, Box::new(backend));
        let Err(err) = session.fork() else {
            panic!("a session over a process backend forked");
        };
        assert_eq!(
            err.message,
            "`dimacs:/nonexistent/htd-test-solver` does not fork"
        );
    }

    /// An accumulator `acc` (next = acc ^ in) drives the output; with
    /// `bystander`, a multiplier register outside the output's cone is
    /// added.
    fn accumulator(bystander: bool) -> ValidatedDesign {
        let mut d = Design::new("accumulator");
        let input = d.add_input("in", 8).unwrap();
        let acc = d.add_register("acc", 8, 0).unwrap();
        let next = d.xor(d.signal(acc), d.signal(input)).unwrap();
        d.set_register_next(acc, next).unwrap();
        if bystander {
            let product = d.add_register("product", 8, 1).unwrap();
            let next = d.mul(d.signal(product), d.signal(input)).unwrap();
            d.set_register_next(product, next).unwrap();
            d.add_output("product_out", d.signal(product)).unwrap();
        }
        d.add_output("out", d.signal(acc)).unwrap();
        d.validated().unwrap()
    }

    /// Proving a wire at `t+1` lowers the next state of the registers its
    /// driver reads and nothing else: a register outside the cone adds no
    /// AIG node to the property.
    #[test]
    fn proving_a_wire_lowers_only_the_registers_in_its_cone() {
        let nodes = |design: &ValidatedDesign| {
            let out = design.design().require("out").unwrap();
            let property = IntervalProperty::new("fanout_property_1", vec![], vec![out]);
            let mut session = MiterSession::new(design, Box::new(Solver::new()));
            let report = session.check(design, &property).unwrap();
            assert!(!report.holds(), "acc diverges without an antecedent");
            report.stats.aig_nodes
        };
        let alone = nodes(&accumulator(false));
        assert!(alone > 0);
        assert_eq!(nodes(&accumulator(true)), alone);
    }

    /// The builtin solver, counting its `solve_under` calls.
    struct CountingSolver(Solver, Arc<std::sync::atomic::AtomicU64>);

    impl SatBackend for CountingSolver {
        fn name(&self) -> String {
            "counting".to_owned()
        }

        fn new_var(&mut self) -> Var {
            SatBackend::new_var(&mut self.0)
        }

        fn add_clause(&mut self, lits: &[Lit]) -> bool {
            SatBackend::add_clause(&mut self.0, lits)
        }

        fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.solve_under(assumptions)
        }

        fn model_value(&self, var: Var) -> Option<bool> {
            self.0.model_value(var)
        }

        fn stats(&self) -> htd_sat::BackendStats {
            SatBackend::stats(&self.0)
        }
    }

    /// `queries` counts every `solve_under` call exactly once: here a check
    /// whose first sub-property holds under its antecedent (one query) and
    /// whose second fails (another), then a check of the same antecedent.
    #[test]
    fn queries_count_each_solve_once() {
        let mut d = Design::new("relay");
        let input = d.add_input("in", 8).unwrap();
        let r = d.add_register("r", 8, 0).unwrap();
        let next = d.xor(d.signal(r), d.signal(input)).unwrap();
        d.set_register_next(r, next).unwrap();
        let masked = d.and(d.signal(r), d.signal(input)).unwrap();
        let w = d.add_wire("w", masked).unwrap();
        let q = d.add_register("q", 8, 0).unwrap();
        d.set_register_next(q, d.signal(w)).unwrap();
        d.add_output("out", d.signal(q)).unwrap();
        let design = d.validated().unwrap();

        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let backend = CountingSolver(Solver::new(), Arc::clone(&calls));
        let mut session = MiterSession::new(&design, Box::new(backend));
        let relayed = IntervalProperty::new("relayed", vec![w], vec![q, r]);
        let report = session.check(&design, &relayed).unwrap();
        assert_eq!(
            report.outcome.counterexample().unwrap().diff_names(),
            vec!["r"]
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let relayed_only = IntervalProperty::new("relayed_only", vec![w], vec![q]);
        assert!(session.check(&design, &relayed_only).unwrap().holds());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(session.stats().queries, 3);
    }

    #[test]
    fn properties_sharing_an_antecedent_share_one_binding_epoch() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        // Same antecedent twice: one epoch.
        let p1 = IntervalProperty::new("a", vec![s1], vec![s2]);
        let p2 = IntervalProperty::new("b", vec![s1], vec![out]);
        session.check(&design, &p1).unwrap();
        session.check(&design, &p2).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 1);
        // A different antecedent rebinds.
        let p3 = IntervalProperty::new("c", vec![s1, s2], vec![out]);
        session.check(&design, &p3).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 2);
    }

    #[test]
    fn unshared_options_still_give_the_same_verdicts() {
        let design = trojan_design();
        let d = design.design();
        let trigger = d.require("trigger").unwrap();
        let data = d.require("data").unwrap();
        for share in [true, false] {
            let options = CheckerOptions {
                share_assumed_equal: share,
                ..CheckerOptions::default()
            };
            let mut session = MiterSession::with_options(&design, options, Box::new(Solver::new()));
            let failing = IntervalProperty::new("init_property", vec![], vec![data]);
            assert!(!session.check(&design, &failing).unwrap().holds());
            // Assuming the trigger state equal discharges the divergence.
            let resolved = IntervalProperty::new("resolved", vec![trigger], vec![data]);
            assert!(session.check(&design, &resolved).unwrap().holds());
        }
    }
}
