//! Word-level expressions.

use std::fmt;
use std::sync::Arc;

use crate::design::SignalId;

/// Handle to an expression stored in a [`crate::Design`]'s expression arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// Dense index of the expression inside its design's arena.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Unary word-level operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise complement; result has the operand's width.
    Not,
    /// Two's-complement negation; result has the operand's width.
    Neg,
    /// AND-reduction to a single bit.
    RedAnd,
    /// OR-reduction to a single bit.
    RedOr,
    /// XOR-reduction (parity) to a single bit.
    RedXor,
}

impl UnaryOp {
    /// Every unary operator.
    #[cfg(test)]
    pub(crate) const ALL: [UnaryOp; 5] = [
        UnaryOp::Not,
        UnaryOp::Neg,
        UnaryOp::RedAnd,
        UnaryOp::RedOr,
        UnaryOp::RedXor,
    ];

    /// Human-readable mnemonic used by the netlist format.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Not => "not",
            UnaryOp::Neg => "neg",
            UnaryOp::RedAnd => "redand",
            UnaryOp::RedOr => "redor",
            UnaryOp::RedXor => "redxor",
        }
    }
}

/// Binary word-level operators.
///
/// Bitwise and arithmetic operators require both operands to have the same
/// width and produce a result of that width (arithmetic wraps).  Comparison
/// operators produce a 1-bit result.  Shift amounts are taken modulo the
/// operand width is *not* applied — shifting by the full width or more yields
/// zero, as in Verilog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Equality comparison (1-bit result).
    Eq,
    /// Inequality comparison (1-bit result).
    Ne,
    /// Unsigned less-than (1-bit result).
    Ult,
    /// Unsigned less-than-or-equal (1-bit result).
    Ule,
    /// Logical shift left by the right operand.
    Shl,
    /// Logical shift right by the right operand.
    Shr,
}

impl BinaryOp {
    /// Every binary operator.
    #[cfg(test)]
    pub(crate) const ALL: [BinaryOp; 12] = [
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Ult,
        BinaryOp::Ule,
        BinaryOp::Shl,
        BinaryOp::Shr,
    ];

    /// Human-readable mnemonic used by the netlist format.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
            BinaryOp::Xor => "xor",
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Eq => "eq",
            BinaryOp::Ne => "ne",
            BinaryOp::Ult => "ult",
            BinaryOp::Ule => "ule",
            BinaryOp::Shl => "shl",
            BinaryOp::Shr => "shr",
        }
    }

    /// `true` if the operator produces a 1-bit result regardless of operand
    /// width.
    #[must_use]
    pub const fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Ult | BinaryOp::Ule
        )
    }
}

/// A word-level expression node.
///
/// Expressions are immutable once created and live in the arena of the
/// [`crate::Design`] that created them; sub-expressions are referenced by
/// [`ExprId`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant of the given width.
    Const {
        /// The value, already masked to `width` bits.
        value: u128,
        /// Bit width.
        width: u32,
    },
    /// The current value of a signal (input, wire or register output).
    Signal(SignalId),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        a: ExprId,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// `if cond { then_e } else { else_e }` with a 1-bit condition.
    Mux {
        /// 1-bit select.
        cond: ExprId,
        /// Value when `cond` is 1.
        then_e: ExprId,
        /// Value when `cond` is 0.
        else_e: ExprId,
    },
    /// Bit slice `a[hi:lo]` (inclusive, `hi >= lo`).
    Slice {
        /// Sliced expression.
        a: ExprId,
        /// High bit index.
        hi: u32,
        /// Low bit index.
        lo: u32,
    },
    /// Concatenation `{hi, lo}`; `hi` occupies the most-significant bits.
    Concat {
        /// Most-significant part.
        hi: ExprId,
        /// Least-significant part.
        lo: ExprId,
    },
    /// A read-only lookup table (e.g. the AES S-box), indexed by `index`.
    ///
    /// The table must contain exactly `2^index_width` entries, each fitting
    /// in `width` bits.
    Rom {
        /// Table contents, indexed by the numeric value of `index`.
        table: Arc<Vec<u128>>,
        /// Index expression.
        index: ExprId,
        /// Width of each table entry (and of the result).
        width: u32,
    },
}

impl Expr {
    /// `true` for leaf nodes (constants and signal references).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Expr::Const { .. } | Expr::Signal(_))
    }

    /// The signal referenced by this node, if it is a signal reference.
    #[must_use]
    pub fn as_signal(&self) -> Option<SignalId> {
        match self {
            Expr::Signal(s) => Some(*s),
            _ => None,
        }
    }

    /// Child expressions of this node, in a fixed order.  The iterator
    /// holds at most three ids and allocates nothing.
    pub fn children(&self) -> impl Iterator<Item = ExprId> {
        let (ids, len) = match *self {
            Expr::Const { .. } | Expr::Signal(_) => ([ExprId(0); 3], 0),
            Expr::Unary { a, .. } | Expr::Slice { a, .. } | Expr::Rom { index: a, .. } => {
                ([a, a, a], 1)
            }
            Expr::Binary { a, b, .. } => ([a, b, b], 2),
            Expr::Concat { hi, lo } => ([hi, lo, lo], 2),
            Expr::Mux {
                cond,
                then_e,
                else_e,
            } => ([cond, then_e, else_e], 3),
        };
        ids.into_iter().take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_of_leaves_are_empty() {
        assert_eq!(Expr::Const { value: 3, width: 2 }.children().count(), 0);
        assert_eq!(Expr::Signal(SignalId(0)).children().count(), 0);
    }

    #[test]
    fn children_order_is_stable() {
        let m = Expr::Mux {
            cond: ExprId(1),
            then_e: ExprId(2),
            else_e: ExprId(3),
        };
        let children: Vec<ExprId> = m.children().collect();
        assert_eq!(children, vec![ExprId(1), ExprId(2), ExprId(3)]);
        let b = Expr::Binary {
            op: BinaryOp::Add,
            a: ExprId(4),
            b: ExprId(5),
        };
        let children: Vec<ExprId> = b.children().collect();
        assert_eq!(children, vec![ExprId(4), ExprId(5)]);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(BinaryOp::Ult.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert!(!BinaryOp::Shl.is_comparison());
    }

    #[test]
    fn mnemonics_are_unique() {
        use std::collections::HashSet;
        let mut names = HashSet::new();
        for u in UnaryOp::ALL {
            assert!(names.insert(u.mnemonic()));
        }
        for b in BinaryOp::ALL {
            assert!(names.insert(b.mnemonic()));
        }
    }
}
