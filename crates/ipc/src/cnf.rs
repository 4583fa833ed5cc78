//! Tseitin encoding of AIG cones into CNF for the SAT solver.
//!
//! The property checker, the session engine and the baseline detectors in
//! `htd-baselines` share one encoder: given an [`Aig`] and a set of root
//! literals, it creates one solver variable per AIG node in the transitive
//! fan-in of the roots and adds the three standard AND-gate clauses per
//! node.  Variables are numbered in node order, so an encoding is a pure
//! function of the graph and the roots.
//!
//! Two entry points exist:
//!
//! * [`encode`] — the one-shot path: a fresh [`Solver`] per query (used by
//!   the legacy [`PropertyChecker`](crate::PropertyChecker) and the
//!   baselines).
//! * [`IncrementalEncoder`] — the session path: encodes cones *into an
//!   existing [`SatBackend`]*, skipping nodes that already have variables, so
//!   a growing AIG can be mirrored into one live solver across many queries.
//!
//! Both run on dense tables indexed by AIG node id — the node-to-variable
//! table and a reusable visited stamp per node — so encoding a cone costs
//! time proportional to the cone, with no hashing.

use htd_sat::{Lit, SatBackend, Solver, Var};

use crate::aig::{Aig, AigLit};
use crate::fxhash::FxHashMap;

/// Tseitin-encodes the cone of the given roots into a fresh SAT solver.
///
/// Returns the solver and the encoder holding the node-to-variable table
/// (read it with [`IncrementalEncoder::lit`]).  Constant roots are not
/// encoded — callers must handle [`AigLit::TRUE`] / [`AigLit::FALSE`] roots
/// themselves (e.g. a `FALSE` miter output means the property trivially
/// holds).
///
/// # Example
///
/// ```
/// use htd_ipc::aig::Aig;
/// use htd_ipc::cnf::encode;
/// use htd_sat::SolveResult;
///
/// let mut aig = Aig::new();
/// let a = aig.new_input();
/// let b = aig.new_input();
/// let both = aig.and(a, b);
/// let (mut solver, vars) = encode(&aig, &[both]);
/// solver.add_clause([vars.lit(both)]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// ```
#[must_use]
pub fn encode(aig: &Aig, roots: &[AigLit]) -> (Solver, IncrementalEncoder) {
    let mut solver = Solver::new();
    let mut encoder = IncrementalEncoder::new();
    encoder.encode(&mut solver, aig, roots);
    (solver, encoder)
}

/// Node-table entry of a node that has no backend variable.
const UNENCODED: u32 = u32::MAX;

/// Incremental Tseitin encoder: mirrors a growing [`Aig`] into one live
/// [`SatBackend`].
///
/// Each [`encode`](Self::encode) call extends the backend with clauses for
/// exactly the cone nodes that have not been encoded by an earlier call, so
/// the total encoding work over a whole detection flow is proportional to the
/// final AIG size — one encoding, not one per property.
///
/// The node-to-variable map is a dense table indexed by AIG node id, and
/// cone walks mark visited nodes in one reused stamp table, so neither
/// encoding nor [`cone_vars`](Self::cone_vars) hashes or allocates per node.
///
/// # Example
///
/// ```
/// use htd_ipc::aig::Aig;
/// use htd_ipc::cnf::IncrementalEncoder;
/// use htd_sat::{SatBackend, SolveResult, Solver};
///
/// let mut aig = Aig::new();
/// let a = aig.new_input();
/// let b = aig.new_input();
/// let both = aig.and(a, b);
///
/// let mut backend = Solver::new();
/// let mut encoder = IncrementalEncoder::new();
/// let fresh = encoder.encode(&mut backend, &aig, &[both]);
/// assert_eq!(fresh, 3); // a, b, and the AND node
/// // Re-encoding the same cone is free.
/// assert_eq!(encoder.encode(&mut backend, &aig, &[both]), 0);
///
/// backend.add_clause([encoder.lit(both)]);
/// assert_eq!(backend.solve_under(&[]).unwrap(), SolveResult::Sat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalEncoder {
    /// Backend variable index of every AIG node, indexed by node id;
    /// [`UNENCODED`] marks nodes without a variable.  The encoded set is
    /// closed under fan-in: an encoded node's whole cone is encoded.
    vars: Vec<u32>,
    walker: ConeWalk,
}

impl IncrementalEncoder {
    /// Creates an encoder with no nodes encoded yet.
    #[must_use]
    pub fn new() -> Self {
        IncrementalEncoder::default()
    }

    /// Ensures every non-constant node in the cone of `roots` has a backend
    /// variable and its AND-gate clauses.  Returns the number of *newly*
    /// encoded nodes.
    pub fn encode(&mut self, backend: &mut dyn SatBackend, aig: &Aig, roots: &[AigLit]) -> usize {
        self.vars.resize(aig.num_nodes(), UNENCODED);
        let vars = &self.vars;
        let mut fresh: Vec<u32> = Vec::new();
        // Encoded nodes stop the walk: their cones are encoded already.
        self.walker.run(aig, roots, |node| {
            let unencoded = vars[node as usize] == UNENCODED;
            if unencoded {
                fresh.push(node);
            }
            unencoded
        });
        // Allocate in node order so the variable numbering is deterministic.
        fresh.sort_unstable();
        for &node in &fresh {
            self.vars[node as usize] = backend.new_var().index();
        }
        for &node in &fresh {
            if let Some((a, b)) = aig.and_inputs(node) {
                let x = Lit::pos(Var::from_index(self.vars[node as usize]));
                let la = self.lit(a);
                let lb = self.lit(b);
                backend.add_clause(&[!x, la]);
                backend.add_clause(&[!x, lb]);
                backend.add_clause(&[!la, !lb, x]);
            }
        }
        fresh.len()
    }

    /// The backend variables of every node in the cone of `roots`
    /// (constants excluded), each once, in no particular order.
    ///
    /// # Panics
    ///
    /// Panics if the cone has not been fully encoded by a prior
    /// [`encode`](Self::encode) call over (a superset of) the same roots.
    #[must_use]
    pub fn cone_vars(&mut self, aig: &Aig, roots: &[AigLit]) -> Vec<Var> {
        let vars = &self.vars;
        let mut cone: Vec<Var> = Vec::new();
        self.walker.run(aig, roots, |node| {
            cone.push(encoded_var(vars, node).expect("cone_vars over an unencoded cone"));
            true
        });
        cone
    }

    /// The SAT literal of an already-encoded AIG literal.
    ///
    /// # Panics
    ///
    /// Panics for constants and for nodes no [`encode`](Self::encode) call
    /// has covered.
    #[must_use]
    pub fn lit(&self, lit: AigLit) -> Lit {
        let var = encoded_var(&self.vars, lit.node()).expect("literal of an unencoded node");
        Lit::new(var, lit.is_inverted())
    }

    /// The model value of every encoded primary input of `aig`, keyed by
    /// node id — the assignment counterexample reconstruction evaluates the
    /// graph under.  `model` reads a variable's value from the solver that
    /// answered SAT; unassigned variables read `false`, and inputs outside
    /// every encoded cone are left out (evaluation defaults them to
    /// `false`).
    #[must_use]
    pub fn input_model(
        &self,
        aig: &Aig,
        model: impl Fn(Var) -> Option<bool>,
    ) -> FxHashMap<u32, bool> {
        aig.inputs()
            .iter()
            .filter_map(|&node| {
                let var = encoded_var(&self.vars, node)?;
                Some((node, model(var).unwrap_or(false)))
            })
            .collect()
    }
}

/// The variable of `node` in a node table, `None` when it has none.
fn encoded_var(vars: &[u32], node: u32) -> Option<Var> {
    match vars.get(node as usize) {
        Some(&var) if var != UNENCODED => Some(Var::from_index(var)),
        _ => None,
    }
}

/// Depth-first walks over AIG cones that mark visited nodes with a per-node
/// stamp: a node is visited by the current walk iff its stamp equals
/// `walk`, so starting a walk bumps one counter instead of clearing a set.
#[derive(Clone, Debug, Default)]
struct ConeWalk {
    stamps: Vec<u32>,
    walk: u32,
    stack: Vec<u32>,
}

impl ConeWalk {
    /// Visits every non-constant node reachable from `roots` once,
    /// descending into a node's fan-in only when `visit(node)` returns
    /// `true`.
    fn run(&mut self, aig: &Aig, roots: &[AigLit], mut visit: impl FnMut(u32) -> bool) {
        if self.walk == u32::MAX {
            self.stamps.fill(0);
            self.walk = 0;
        }
        self.walk += 1;
        self.stamps.resize(aig.num_nodes(), 0);
        let push = |stack: &mut Vec<u32>, lit: AigLit| {
            if !lit.is_const() {
                stack.push(lit.node());
            }
        };
        for &root in roots {
            push(&mut self.stack, root);
        }
        while let Some(node) = self.stack.pop() {
            let stamp = &mut self.stamps[node as usize];
            if *stamp == self.walk {
                continue;
            }
            *stamp = self.walk;
            if visit(node) {
                if let Some((a, b)) = aig.and_inputs(node) {
                    push(&mut self.stack, a);
                    push(&mut self.stack, b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_sat::SolveResult;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn encodes_a_small_cone_and_solves_it() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        let b = aig.new_input();
        let xor = aig.xor(a, b);
        let (mut solver, vars) = encode(&aig, &[xor]);
        solver.add_clause([vars.lit(xor)]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        // The model must disagree on a and b.
        let va = solver.value(vars.lit(a).var()).unwrap();
        let vb = solver.value(vars.lit(b).var()).unwrap();
        assert_ne!(va, vb);
    }

    #[test]
    fn contradictory_and_is_folded_to_the_false_constant() {
        // The AIG simplifies `a AND !a` away, so there is nothing to encode;
        // callers must treat a constant-false root as trivially unsatisfiable.
        let mut aig = Aig::new();
        let a = aig.new_input();
        let both = aig.and(a, a.invert());
        assert_eq!(both, AigLit::FALSE);
    }

    #[test]
    fn unsatisfiable_requirements_are_reported() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        let b = aig.new_input();
        let both = aig.and(a, b);
        let (mut solver, vars) = encode(&aig, &[both, a]);
        // Require the conjunction to hold while forcing `a` to be false.
        solver.add_clause([vars.lit(both)]);
        solver.add_clause([vars.lit(a.invert())]);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    /// A random AIG over `inputs` inputs: each gate ANDs two (possibly
    /// inverted) earlier literals picked by `picks`.
    fn random_aig(inputs: usize, picks: &[(usize, bool, usize, bool)]) -> (Aig, Vec<AigLit>) {
        let mut aig = Aig::new();
        let mut lits: Vec<AigLit> = (0..inputs).map(|_| aig.new_input()).collect();
        for &(i, inv_i, j, inv_j) in picks {
            let pick = |k: usize, inv: bool| {
                let lit = lits[k % lits.len()];
                if inv {
                    lit.invert()
                } else {
                    lit
                }
            };
            let gate = aig.and(pick(i, inv_i), pick(j, inv_j));
            lits.push(gate);
        }
        (aig, lits)
    }

    /// The cone of `roots` by recursion over the fan-in, one node at a time.
    fn brute_force_cone(aig: &Aig, roots: &[AigLit]) -> BTreeSet<u32> {
        fn visit(aig: &Aig, node: u32, cone: &mut BTreeSet<u32>) {
            if node == 0 || !cone.insert(node) {
                return;
            }
            if let Some((a, b)) = aig.and_inputs(node) {
                visit(aig, a.node(), cone);
                visit(aig, b.node(), cone);
            }
        }
        let mut cone = BTreeSet::new();
        for root in roots {
            visit(aig, root.node(), &mut cone);
        }
        cone
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cone_vars_match_a_brute_force_cone_and_reencoding_is_free(
            inputs in 1usize..8,
            picks in prop::collection::vec(
                (0usize..64, any::<bool>(), 0usize..64, any::<bool>()),
                0..48,
            ),
            first in prop::collection::vec(0usize..64, 1..4),
            second in prop::collection::vec(0usize..64, 1..4),
        ) {
            let (aig, lits) = random_aig(inputs, &picks);
            let roots = |picks: &[usize]| -> Vec<AigLit> {
                picks.iter().map(|&k| lits[k % lits.len()]).collect()
            };
            let (first, second) = (roots(&first), roots(&second));
            let mut solver = Solver::new();
            let mut encoder = IncrementalEncoder::new();
            // Two overlapping encodes: the second adds only what the first
            // left out.
            encoder.encode(&mut solver, &aig, &first);
            encoder.encode(&mut solver, &aig, &second);
            let both: Vec<AigLit> = first.iter().chain(&second).copied().collect();
            // One variable per cone node, and nothing else.
            prop_assert_eq!(solver.num_vars(), brute_force_cone(&aig, &both).len());
            for roots in [&first, &second, &both] {
                let want: BTreeSet<Var> = brute_force_cone(&aig, roots)
                    .into_iter()
                    .map(|node| encoder.lit(AigLit::positive(node)).var())
                    .collect();
                let got = encoder.cone_vars(&aig, roots);
                prop_assert_eq!(got.len(), want.len(), "cone_vars repeats a variable");
                prop_assert_eq!(got.into_iter().collect::<BTreeSet<Var>>(), want);
            }
            let (vars, clauses) = (solver.num_vars(), solver.num_clauses());
            prop_assert_eq!(encoder.encode(&mut solver, &aig, &both), 0);
            prop_assert_eq!((solver.num_vars(), solver.num_clauses()), (vars, clauses));
        }
    }
}
