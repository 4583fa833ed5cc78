//! And-Inverter Graph (AIG) with structural hashing.
//!
//! The bit-blaster lowers word-level RTL expressions to an AIG; structural
//! hashing merges syntactically identical cones.  This is what makes the
//! 2-safety miter cheap to solve: when the two design instances share their
//! input variables (and the variables of any registers assumed equal), the
//! identical parts of the two instances collapse onto the very same AIG nodes
//! and the equality checks of the property become constant-true before the
//! SAT solver even runs.  Only logic that genuinely depends on *unshared*
//! state — which is exactly where a sequential Trojan's trigger or payload
//! must live — survives into the CNF.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::fxhash::FxHashMap;
use std::fmt;

/// A literal in the AIG: a node index plus an inversion flag.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal.
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, inverted: bool) -> Self {
        AigLit(node << 1 | u32::from(inverted))
    }

    /// Index of the underlying node.
    #[must_use]
    pub const fn node(self) -> u32 {
        self.0 >> 1
    }

    /// `true` if the literal is the complement of its node.
    #[must_use]
    pub const fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[must_use]
    pub const fn invert(self) -> Self {
        AigLit(self.0 ^ 1)
    }

    /// The positive (non-inverted) literal of a node index.
    ///
    /// Mainly useful for tooling that walks the graph by node id (e.g. the
    /// CNF encoder and counterexample extraction in the property checker).
    #[must_use]
    pub const fn positive(node: u32) -> Self {
        AigLit(node << 1)
    }

    /// `true` if this literal is one of the two constants.
    #[must_use]
    pub const fn is_const(self) -> bool {
        self.node() == 0
    }

    /// The raw encoding (node index shifted, LSB = inversion flag); a
    /// compact, stable key for tables over literals.
    #[must_use]
    pub const fn code(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigLit::FALSE {
            write!(f, "F")
        } else if *self == AigLit::TRUE {
            write!(f, "T")
        } else if self.is_inverted() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// Node payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    /// The constant-false node (index 0).
    ConstFalse,
    /// A free Boolean variable.
    Input,
    /// Conjunction of two literals.
    And(AigLit, AigLit),
}

/// An And-Inverter Graph with structural hashing and local simplification.
///
/// # Example
///
/// ```
/// use htd_ipc::aig::{Aig, AigLit};
///
/// let mut aig = Aig::new();
/// let a = aig.new_input();
/// let b = aig.new_input();
/// let ab1 = aig.and(a, b);
/// let ab2 = aig.and(b, a);
/// // Structural hashing: the same conjunction is returned for both orders.
/// assert_eq!(ab1, ab2);
/// // Local simplification: x & !x == false.
/// assert_eq!(aig.and(a, a.invert()), AigLit::FALSE);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    /// Structural hash, grown with the graph: a pristine session's graph
    /// (inputs only) holds no table at all, so forking it copies no buckets.
    strash: FxHashMap<u64, u32>,
    /// Node ids of the primary inputs, in creation order.
    inputs: Vec<u32>,
    /// Counts AND nodes that were requested but already present (a measure of
    /// how much sharing the structural hash achieved).
    strash_hits: u64,
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    #[must_use]
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::ConstFalse],
            strash: FxHashMap::default(),
            inputs: Vec::new(),
            strash_hits: 0,
        }
    }

    /// Allocates a fresh primary input (a free Boolean variable).
    pub fn new_input(&mut self) -> AigLit {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::Input);
        self.inputs.push(idx);
        AigLit::new(idx, false)
    }

    /// Number of primary inputs created so far.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Node ids of the primary inputs, in creation order.
    #[must_use]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Total number of nodes (constant + inputs + AND gates).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    #[must_use]
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of AND-gate requests answered from the structural hash table.
    #[must_use]
    pub fn strash_hits(&self) -> u64 {
        self.strash_hits
    }

    /// The conjunction of two literals, with constant folding, idempotence /
    /// complement rules and structural hashing applied.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Local simplifications.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.invert() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        // Canonical operand order, packed into one word so the structural
        // hash costs a single probe of a u64 key.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = u64::from(lo.code()) << 32 | u64::from(hi.code());
        if let Some(&node) = self.strash.get(&key) {
            self.strash_hits += 1;
            return AigLit::new(node, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::And(lo, hi));
        self.strash.insert(key, idx);
        AigLit::new(idx, false)
    }

    /// Disjunction, built from AND and inversion.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.invert(), b.invert()).invert()
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let a_and_nb = self.and(a, b.invert());
        let na_and_b = self.and(a.invert(), b);
        self.or(a_and_nb, na_and_b)
    }

    /// Exclusive nor (equivalence).
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.xor(a, b).invert()
    }

    /// 2-to-1 multiplexer `cond ? t : e`.
    pub fn mux(&mut self, cond: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let then_part = self.and(cond, t);
        let else_part = self.and(cond.invert(), e);
        self.or(then_part, else_part)
    }

    /// Conjunction of many literals.
    pub fn and_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction of many literals.
    pub fn or_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Full adder returning `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: AigLit, b: AigLit, cin: AigLit) -> (AigLit, AigLit) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let cin_axb = self.and(cin, axb);
        let cout = self.or(ab, cin_axb);
        (sum, cout)
    }

    /// The fanin literals of an AND node (`None` for inputs and the constant).
    #[must_use]
    pub fn and_inputs(&self, node: u32) -> Option<(AigLit, AigLit)> {
        match self.nodes[node as usize] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Simulates every node, in one pass over the node table: returns one
    /// word per node, indexed by node id.
    ///
    /// With `u64` words, lane `i` of every word is the node's value under
    /// the `i`-th of 64 input assignments; with `bool` words there is one
    /// assignment.  An input node's word comes from `input` (called with
    /// its node id), the constant's word is all false, and an AND node's
    /// word is the conjunction of its fanin words, complemented where the
    /// fanin literal is inverted.
    #[must_use]
    pub fn simulate<W: Lanes>(&self, mut input: impl FnMut(u32) -> W) -> Vec<W> {
        let mut words: Vec<W> = Vec::with_capacity(self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let word = match *node {
                Node::ConstFalse => W::FALSE,
                Node::Input => input(idx as u32),
                Node::And(a, b) => self.lit_value(&words, a).and(self.lit_value(&words, b)),
            };
            words.push(word);
        }
        words
    }

    /// Evaluates every node under one assignment of the inputs, in one
    /// pass: [`simulate`](Self::simulate) with one lane.
    ///
    /// Returns a vector indexed by node id, read with
    /// [`lit_value`](Self::lit_value); missing inputs default to `false`.
    /// Counterexample reconstruction, the BMC baseline and FANCI read many
    /// literals under one assignment this way.
    #[must_use]
    pub fn eval_all<S: BuildHasher>(&self, input_values: &HashMap<u32, bool, S>) -> Vec<bool> {
        self.simulate(|node| input_values.get(&node).copied().unwrap_or(false))
    }

    /// Reads the value of a literal from node values produced by
    /// [`simulate`](Self::simulate) or [`eval_all`](Self::eval_all): its
    /// node's word, complemented in every lane when the literal is
    /// inverted.
    #[must_use]
    pub fn lit_value<W: Lanes>(&self, values: &[W], lit: AigLit) -> W {
        values[lit.node() as usize].invert_if(lit.is_inverted())
    }

    /// Evaluates one literal under an assignment of the inputs (missing
    /// inputs default to `false`).
    #[cfg(test)]
    pub(crate) fn eval<S: BuildHasher>(
        &self,
        lit: AigLit,
        input_values: &HashMap<u32, bool, S>,
    ) -> bool {
        self.lit_value(&self.eval_all(input_values), lit)
    }
}

/// A node's value in [`Aig::simulate`]: `bool` under one input assignment,
/// `u64` under 64 assignments at once, one per bit (lane).
pub trait Lanes: Copy {
    /// The value of the constant-false node in every lane.
    const FALSE: Self;
    /// Lane-wise conjunction.
    #[must_use]
    fn and(self, other: Self) -> Self;
    /// The value complemented in every lane when `inverted` is set, with
    /// no branch on it.
    #[must_use]
    fn invert_if(self, inverted: bool) -> Self;
}

impl Lanes for bool {
    const FALSE: bool = false;
    fn and(self, other: bool) -> bool {
        self & other
    }
    fn invert_if(self, inverted: bool) -> bool {
        self ^ inverted
    }
}

impl Lanes for u64 {
    const FALSE: u64 = 0;
    fn and(self, other: u64) -> u64 {
        self & other
    }
    fn invert_if(self, inverted: bool) -> u64 {
        self ^ 0u64.wrapping_sub(u64::from(inverted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        assert_eq!(aig.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(aig.and(a, AigLit::TRUE), a);
        assert_eq!(aig.and(AigLit::TRUE, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(aig.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(aig.or(a, AigLit::FALSE), a);
    }

    #[test]
    fn complement_and_idempotence_rules() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.invert()), AigLit::FALSE);
        assert_eq!(aig.or(a, a.invert()), AigLit::TRUE);
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        let b = aig.new_input();
        let before = aig.num_nodes();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_nodes(), before + 1);
        assert_eq!(aig.strash_hits(), 1);
    }

    #[test]
    fn truth_tables_of_derived_gates() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        let b = aig.new_input();
        let c = aig.new_input();
        let gates = [
            ("and", aig.and(a, b)),
            ("or", aig.or(a, b)),
            ("xor", aig.xor(a, b)),
            ("xnor", aig.xnor(a, b)),
        ];
        let mux = aig.mux(c, a, b);
        for va in [false, true] {
            for vb in [false, true] {
                for vc in [false, true] {
                    let env: HashMap<u32, bool> = [(a.node(), va), (b.node(), vb), (c.node(), vc)]
                        .into_iter()
                        .collect();
                    for (name, lit) in gates {
                        let expected = match name {
                            "and" => va && vb,
                            "or" => va || vb,
                            "xor" => va ^ vb,
                            "xnor" => !(va ^ vb),
                            _ => unreachable!(),
                        };
                        assert_eq!(aig.eval(lit, &env), expected, "{name} {va} {vb}");
                    }
                    assert_eq!(aig.eval(mux, &env), if vc { va } else { vb }, "mux");
                }
            }
        }
    }

    #[test]
    fn full_adder_truth_table() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        let b = aig.new_input();
        let c = aig.new_input();
        let (sum, cout) = aig.full_adder(a, b, c);
        for va in [false, true] {
            for vb in [false, true] {
                for vc in [false, true] {
                    let env: HashMap<u32, bool> = [(a.node(), va), (b.node(), vb), (c.node(), vc)]
                        .into_iter()
                        .collect();
                    let total = u8::from(va) + u8::from(vb) + u8::from(vc);
                    assert_eq!(aig.eval(sum, &env), total % 2 == 1);
                    assert_eq!(aig.eval(cout, &env), total >= 2);
                }
            }
        }
    }

    #[test]
    fn and_or_over_many_literals() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..5).map(|_| aig.new_input()).collect();
        let conj = aig.and_all(&inputs);
        let disj = aig.or_all(&inputs);
        let all_true: HashMap<u32, bool> = inputs.iter().map(|l| (l.node(), true)).collect();
        let one_false: HashMap<u32, bool> = inputs
            .iter()
            .enumerate()
            .map(|(i, l)| (l.node(), i != 2))
            .collect();
        let all_false: HashMap<u32, bool> = inputs.iter().map(|l| (l.node(), false)).collect();
        assert!(aig.eval(conj, &all_true));
        assert!(!aig.eval(conj, &one_false));
        assert!(aig.eval(disj, &one_false));
        assert!(!aig.eval(disj, &all_false));
    }

    #[test]
    fn mux_with_equal_branches_simplifies() {
        let mut aig = Aig::new();
        let c = aig.new_input();
        let a = aig.new_input();
        assert_eq!(aig.mux(c, a, a), a);
    }

    #[test]
    fn literal_accessors() {
        let mut aig = Aig::new();
        let a = aig.new_input();
        assert!(!a.is_inverted());
        assert!(a.invert().is_inverted());
        assert_eq!(a.invert().invert(), a);
        assert!(AigLit::TRUE.is_const());
        assert!(AigLit::FALSE.is_const());
        assert!(!a.is_const());
        assert_eq!(aig.inputs(), &[a.node()]);
    }
}
