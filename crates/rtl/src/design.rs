//! The [`Design`] container: signals, expression arena and builder API.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::error::DesignError;
use crate::expr::{BinaryOp, Expr, ExprId, UnaryOp};
use crate::structural::SupportTable;
use crate::{MAX_EXPR_DEPTH, MAX_WIDTH};

/// Handle to a signal (input, output, wire or register) of a [`Design`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Dense index of the signal inside its design.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The role a signal plays in the design.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Primary input; driven by the environment each cycle.
    Input,
    /// Primary output; combinationally driven by its expression.
    Output,
    /// Internal combinational signal driven by its expression.
    Wire,
    /// State-holding element updated at every clock edge from its next-state
    /// expression; starts at `reset` after reset.
    Register {
        /// Reset value.
        reset: u128,
    },
}

impl SignalKind {
    /// `true` for registers.
    #[must_use]
    pub const fn is_register(self) -> bool {
        matches!(self, SignalKind::Register { .. })
    }

    /// `true` for state or output signals — the signal classes inspected by
    /// the Trojan-detection properties (they are where a payload must
    /// manifest, cf. Sec. IV-C of the paper).
    #[must_use]
    pub const fn is_state_or_output(self) -> bool {
        matches!(self, SignalKind::Register { .. } | SignalKind::Output)
    }
}

/// A named signal of a [`Design`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signal {
    pub(crate) name: String,
    pub(crate) width: u32,
    pub(crate) kind: SignalKind,
    /// Driving expression: the next-state function for registers, the
    /// combinational function for wires and outputs, `None` for inputs.
    pub(crate) driver: Option<ExprId>,
    /// The interned `Expr::Signal` node referring to this signal.
    pub(crate) expr: ExprId,
}

impl Signal {
    /// Signal name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Signal width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Signal role.
    #[must_use]
    pub fn kind(&self) -> SignalKind {
        self.kind
    }

    /// Driving expression (next-state function for registers), if any.
    #[must_use]
    pub fn driver(&self) -> Option<ExprId> {
        self.driver
    }
}

/// A word-level RTL design under construction.
///
/// `Design` doubles as the builder: signals and expressions are added through
/// its methods, and [`Design::validated`] performs the consistency checks and
/// produces a [`ValidatedDesign`] accepted by the simulator, the structural
/// analysis and the property checker.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Clone, Debug, PartialEq)]
pub struct Design {
    name: String,
    signals: Vec<Signal>,
    exprs: Vec<Expr>,
    expr_widths: Vec<u32>,
    names: HashMap<String, SignalId>,
    /// Every distinct ROM table, stored once: [`Design::rom`] hands out the
    /// resident copy when a caller passes equal contents.  The default
    /// hasher, because parsed tables come from outside the program.
    tables: HashSet<Arc<Vec<u128>>>,
}

impl Design {
    /// Creates an empty design with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Design {
            name: name.into(),
            signals: Vec::new(),
            exprs: Vec::new(),
            expr_widths: Vec::new(),
            names: HashMap::new(),
            tables: HashSet::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Signal construction
    // ------------------------------------------------------------------

    fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: u32,
        kind: SignalKind,
        driver: Option<ExprId>,
    ) -> Result<SignalId, DesignError> {
        let name = name.into();
        if width == 0 || width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        check_name("signal", &name)?;
        if self.names.contains_key(&name) {
            return Err(DesignError::DuplicateName { name });
        }
        if let Some(d) = driver {
            let dw = self.expr_width(d);
            if dw != width {
                return Err(DesignError::SignalWidthMismatch {
                    name,
                    declared: width,
                    driver: dw,
                });
            }
        }
        if let SignalKind::Register { reset } = kind {
            if width < 128 && reset >> width != 0 {
                return Err(DesignError::ConstantTooWide {
                    value: reset,
                    width,
                });
            }
        }
        let id = SignalId(self.signals.len() as u32);
        let expr = self.intern(Expr::Signal(id), width);
        self.signals.push(Signal {
            name: name.clone(),
            width,
            kind,
            driver,
            expr,
        });
        self.names.insert(name, id);
        Ok(id)
    }

    /// Adds a primary input of the given width.
    ///
    /// # Errors
    ///
    /// Fails on an invalid width or duplicate name.
    pub fn add_input(
        &mut self,
        name: impl Into<String>,
        width: u32,
    ) -> Result<SignalId, DesignError> {
        self.add_signal(name, width, SignalKind::Input, None)
    }

    /// Adds a register with the given reset value.  Its next-state expression
    /// must be supplied later with [`set_register_next`](Self::set_register_next).
    ///
    /// # Errors
    ///
    /// Fails on an invalid width, duplicate name, or a reset value that does
    /// not fit the width.
    pub fn add_register(
        &mut self,
        name: impl Into<String>,
        width: u32,
        reset: u128,
    ) -> Result<SignalId, DesignError> {
        self.add_signal(name, width, SignalKind::Register { reset }, None)
    }

    /// Sets (or replaces) the next-state expression of a register.
    ///
    /// # Errors
    ///
    /// Fails if `reg` is not a register or the expression width does not
    /// match the register width.
    pub fn set_register_next(&mut self, reg: SignalId, next: ExprId) -> Result<(), DesignError> {
        reg_check(self, reg)?;
        let width = self.signal_width(reg);
        let next_width = self.expr_width(next);
        let signal = &mut self.signals[reg.index()];
        if !signal.kind.is_register() {
            return Err(DesignError::InvalidSignalKind {
                name: signal.name.clone(),
                expected: "a register",
            });
        }
        if next_width != width {
            return Err(DesignError::SignalWidthMismatch {
                name: signal.name.clone(),
                declared: width,
                driver: next_width,
            });
        }
        signal.driver = Some(next);
        Ok(())
    }

    /// Adds a named combinational wire driven by `expr`.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name or invalid width.
    pub fn add_wire(
        &mut self,
        name: impl Into<String>,
        expr: ExprId,
    ) -> Result<SignalId, DesignError> {
        let width = self.expr_width(expr);
        self.add_signal(name, width, SignalKind::Wire, Some(expr))
    }

    /// Adds a primary output driven by `expr`.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name or invalid width.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        expr: ExprId,
    ) -> Result<SignalId, DesignError> {
        let width = self.expr_width(expr);
        self.add_signal(name, width, SignalKind::Output, Some(expr))
    }

    // ------------------------------------------------------------------
    // Signal queries
    // ------------------------------------------------------------------

    /// Looks a signal up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<SignalId> {
        self.names.get(name).copied()
    }

    /// Looks a signal up by name, returning an error when absent.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::UnknownSignal`] if no signal has that name.
    pub fn require(&self, name: &str) -> Result<SignalId, DesignError> {
        self.lookup(name).ok_or_else(|| DesignError::UnknownSignal {
            name: name.to_string(),
        })
    }

    /// The signal record for `id`.
    #[must_use]
    pub fn signal_info(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Name of a signal.
    #[must_use]
    pub fn signal_name(&self, id: SignalId) -> &str {
        &self.signals[id.index()].name
    }

    /// Width of a signal in bits.
    #[must_use]
    pub fn signal_width(&self, id: SignalId) -> u32 {
        self.signals[id.index()].width
    }

    /// Number of signals in the design.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Number of expression nodes in the arena.
    #[must_use]
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Iterates over all signal ids in creation order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// Iterates over all signals with their ids.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> + '_ {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s))
    }

    /// All primary inputs.
    #[must_use]
    pub fn inputs(&self) -> Vec<SignalId> {
        self.of_kind(|k| matches!(k, SignalKind::Input))
    }

    /// All primary outputs.
    #[must_use]
    pub fn outputs(&self) -> Vec<SignalId> {
        self.of_kind(|k| matches!(k, SignalKind::Output))
    }

    /// All registers.
    #[must_use]
    pub fn registers(&self) -> Vec<SignalId> {
        self.of_kind(SignalKind::is_register)
    }

    /// All named wires.
    #[must_use]
    pub fn wires(&self) -> Vec<SignalId> {
        self.of_kind(|k| matches!(k, SignalKind::Wire))
    }

    /// All state and output signals — the signals the detection properties
    /// range over.
    #[must_use]
    pub fn state_and_output_signals(&self) -> Vec<SignalId> {
        self.of_kind(SignalKind::is_state_or_output)
    }

    fn of_kind(&self, pred: impl Fn(SignalKind) -> bool) -> Vec<SignalId> {
        self.signals()
            .filter(|(_, s)| pred(s.kind))
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Expression arena
    // ------------------------------------------------------------------

    fn intern(&mut self, expr: Expr, width: u32) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(expr);
        self.expr_widths.push(width);
        id
    }

    /// The expression node behind an [`ExprId`].
    #[must_use]
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }

    /// Width of an expression in bits.
    #[must_use]
    pub fn expr_width(&self, id: ExprId) -> u32 {
        self.expr_widths[id.index()]
    }

    /// The interned signal-reference expression for a signal.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> ExprId {
        self.signals[id.index()].expr
    }

    /// A constant expression of the given width.
    ///
    /// # Errors
    ///
    /// Fails if `value` does not fit into `width` bits or `width` is invalid.
    pub fn constant(&mut self, value: u128, width: u32) -> Result<ExprId, DesignError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        if width < 128 && value >> width != 0 {
            return Err(DesignError::ConstantTooWide { value, width });
        }
        Ok(self.intern(Expr::Const { value, width }, width))
    }

    /// The all-zeros constant of the given width.
    ///
    /// # Errors
    ///
    /// Fails if `width` is invalid.
    pub fn zero(&mut self, width: u32) -> Result<ExprId, DesignError> {
        self.constant(0, width)
    }

    /// The all-ones constant of the given width.
    ///
    /// # Errors
    ///
    /// Fails if `width` is invalid.
    pub fn ones(&mut self, width: u32) -> Result<ExprId, DesignError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        let value = if width == 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        self.constant(value, width)
    }

    pub(crate) fn unary(&mut self, op: UnaryOp, a: ExprId) -> ExprId {
        let width = match op {
            UnaryOp::Not | UnaryOp::Neg => self.expr_width(a),
            UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor => 1,
        };
        self.intern(Expr::Unary { op, a }, width)
    }

    pub(crate) fn binary(
        &mut self,
        op: BinaryOp,
        a: ExprId,
        b: ExprId,
    ) -> Result<ExprId, DesignError> {
        let wa = self.expr_width(a);
        let wb = self.expr_width(b);
        let width = match op {
            BinaryOp::Shl | BinaryOp::Shr => wa,
            _ => {
                if wa != wb {
                    return Err(DesignError::WidthMismatch {
                        left: wa,
                        right: wb,
                        context: op.mnemonic(),
                    });
                }
                if op.is_comparison() {
                    1
                } else {
                    wa
                }
            }
        };
        Ok(self.intern(Expr::Binary { op, a, b }, width))
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: ExprId) -> ExprId {
        self.unary(UnaryOp::Not, a)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        self.unary(UnaryOp::Neg, a)
    }

    /// AND-reduction to one bit.
    pub fn red_and(&mut self, a: ExprId) -> ExprId {
        self.unary(UnaryOp::RedAnd, a)
    }

    /// OR-reduction to one bit.
    pub fn red_or(&mut self, a: ExprId) -> ExprId {
        self.unary(UnaryOp::RedOr, a)
    }

    /// XOR-reduction (parity) to one bit.
    pub fn red_xor(&mut self, a: ExprId) -> ExprId {
        self.unary(UnaryOp::RedXor, a)
    }

    /// Bitwise AND.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn and(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::And, a, b)
    }

    /// Bitwise OR.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn or(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Or, a, b)
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn xor(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Xor, a, b)
    }

    /// Wrapping addition.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Add, a, b)
    }

    /// Wrapping subtraction.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Sub, a, b)
    }

    /// Wrapping multiplication.
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Mul, a, b)
    }

    /// Equality comparison (1-bit result).
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn cmp_eq(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Eq, a, b)
    }

    /// Inequality comparison (1-bit result).
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn cmp_ne(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Ne, a, b)
    }

    /// Unsigned less-than (1-bit result).
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn cmp_ult(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Ult, a, b)
    }

    /// Unsigned less-than-or-equal (1-bit result).
    ///
    /// # Errors
    ///
    /// Fails if the operand widths differ.
    pub fn cmp_ule(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Ule, a, b)
    }

    /// Logical shift left by `b`.
    ///
    /// # Errors
    ///
    /// Currently infallible, kept fallible for consistency with other binary
    /// constructors.
    pub fn shl(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Shl, a, b)
    }

    /// Logical shift right by `b`.
    ///
    /// # Errors
    ///
    /// Currently infallible, kept fallible for consistency with other binary
    /// constructors.
    pub fn shr(&mut self, a: ExprId, b: ExprId) -> Result<ExprId, DesignError> {
        self.binary(BinaryOp::Shr, a, b)
    }

    /// 2-to-1 multiplexer: `cond ? then_e : else_e`.
    ///
    /// # Errors
    ///
    /// Fails if `cond` is not 1 bit wide or the branches have different
    /// widths.
    pub fn mux(
        &mut self,
        cond: ExprId,
        then_e: ExprId,
        else_e: ExprId,
    ) -> Result<ExprId, DesignError> {
        let wc = self.expr_width(cond);
        if wc != 1 {
            return Err(DesignError::ConditionNotBoolean { width: wc });
        }
        let wt = self.expr_width(then_e);
        let we = self.expr_width(else_e);
        if wt != we {
            return Err(DesignError::WidthMismatch {
                left: wt,
                right: we,
                context: "mux",
            });
        }
        Ok(self.intern(
            Expr::Mux {
                cond,
                then_e,
                else_e,
            },
            wt,
        ))
    }

    /// Bit slice `a[hi:lo]` (inclusive).
    ///
    /// # Errors
    ///
    /// Fails if `hi < lo` or `hi` is outside the operand width.
    pub fn slice(&mut self, a: ExprId, hi: u32, lo: u32) -> Result<ExprId, DesignError> {
        let wa = self.expr_width(a);
        if hi < lo || hi >= wa {
            return Err(DesignError::InvalidSlice { hi, lo, width: wa });
        }
        Ok(self.intern(Expr::Slice { a, hi, lo }, hi - lo + 1))
    }

    /// Single-bit slice `a[i]`.
    ///
    /// # Errors
    ///
    /// Fails if `i` is outside the operand width.
    pub fn bit(&mut self, a: ExprId, i: u32) -> Result<ExprId, DesignError> {
        self.slice(a, i, i)
    }

    /// Concatenation `{hi, lo}` with `hi` in the most-significant position.
    ///
    /// # Errors
    ///
    /// Fails if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&mut self, hi: ExprId, lo: ExprId) -> Result<ExprId, DesignError> {
        let width = self.expr_width(hi) + self.expr_width(lo);
        if width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        Ok(self.intern(Expr::Concat { hi, lo }, width))
    }

    /// Concatenation of several parts; the first element is the most
    /// significant.
    ///
    /// # Errors
    ///
    /// Fails if `parts` is empty or the combined width exceeds [`MAX_WIDTH`].
    pub fn concat_all(&mut self, parts: &[ExprId]) -> Result<ExprId, DesignError> {
        let Some((&first, rest)) = parts.split_first() else {
            return Err(DesignError::InvalidWidth { width: 0 });
        };
        let mut acc = first;
        for &p in rest {
            acc = self.concat(acc, p)?;
        }
        Ok(acc)
    }

    /// Zero-extends `a` to `width` bits (no-op if already that wide).
    ///
    /// # Errors
    ///
    /// Fails if `width` is smaller than the operand width or invalid.
    pub fn zero_ext(&mut self, a: ExprId, width: u32) -> Result<ExprId, DesignError> {
        let wa = self.expr_width(a);
        if width < wa || width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        if width == wa {
            return Ok(a);
        }
        let zeros = self.zero(width - wa)?;
        self.concat(zeros, a)
    }

    /// Compares `a` against a constant of the same width (1-bit result).
    ///
    /// # Errors
    ///
    /// Fails if the constant does not fit the operand width.
    pub fn eq_const(&mut self, a: ExprId, value: u128) -> Result<ExprId, DesignError> {
        let w = self.expr_width(a);
        let c = self.constant(value, w)?;
        self.cmp_eq(a, c)
    }

    /// A read-only lookup table (e.g. the AES S-box).
    ///
    /// `table` must have exactly `2^index_width` entries, each fitting into
    /// `width` bits, where `index_width` is the width of `index`.  Tables
    /// are interned by content: every `rom` node whose table equals an
    /// earlier one shares that table's allocation.
    ///
    /// # Errors
    ///
    /// Fails if the table size or entry widths are inconsistent.
    pub fn rom(
        &mut self,
        table: Vec<u128>,
        index: ExprId,
        width: u32,
    ) -> Result<ExprId, DesignError> {
        self.check_rom(&table, entry_bits(&table), index, width)?;
        let table = self.resident(table);
        Ok(self.intern(
            Expr::Rom {
                table,
                index,
                width,
            },
            width,
        ))
    }

    /// [`rom`](Self::rom) over a table [`intern_table`](Self::intern_table)
    /// returned: the table was hashed and measured once, at its
    /// declaration, not at every read.
    pub(crate) fn rom_interned(
        &mut self,
        table: &InternedTable,
        index: ExprId,
        width: u32,
    ) -> Result<ExprId, DesignError> {
        self.check_rom(&table.entries, table.entry_bits, index, width)?;
        Ok(self.intern(
            Expr::Rom {
                table: Arc::clone(&table.entries),
                index,
                width,
            },
            width,
        ))
    }

    /// Stores `table` for [`rom_interned`](Self::rom_interned) to read.
    pub(crate) fn intern_table(&mut self, table: Vec<u128>) -> InternedTable {
        InternedTable {
            entry_bits: entry_bits(&table),
            entries: self.resident(table),
        }
    }

    /// The resident copy of `table`: the one stored earlier if its contents
    /// are equal, else `table`, now stored.
    fn resident(&mut self, table: Vec<u128>) -> Arc<Vec<u128>> {
        if let Some(resident) = self.tables.get(&table) {
            return Arc::clone(resident);
        }
        let table = Arc::new(table);
        self.tables.insert(Arc::clone(&table));
        table
    }

    /// Checks a read of `table`, whose [`entry_bits`] are `widest`; only a
    /// table too wide for `width` is scanned, for the entry to name.
    fn check_rom(
        &self,
        table: &[u128],
        widest: u32,
        index: ExprId,
        width: u32,
    ) -> Result<(), DesignError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(DesignError::InvalidWidth { width });
        }
        let index_width = self.expr_width(index);
        if index_width > 20 {
            return Err(DesignError::InvalidRom {
                reason: format!("index width {index_width} too large (max 20)"),
            });
        }
        let expected = 1usize << index_width;
        if table.len() != expected {
            return Err(DesignError::InvalidRom {
                reason: format!("table has {} entries, expected {expected}", table.len()),
            });
        }
        if widest > width {
            if let Some(&bad) = table.iter().find(|&&v| v >> width != 0) {
                return Err(DesignError::InvalidRom {
                    reason: format!("entry {bad:#x} does not fit into {width} bits"),
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks the design for completeness, depth and absence of
    /// combinational loops.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: a register without a next-state
    /// expression, a driver width mismatch, a driver nested deeper than
    /// [`MAX_EXPR_DEPTH`], or a combinational loop.
    pub fn validate(&self) -> Result<(), DesignError> {
        self.check_drivers()?;
        self.check_depth()?;
        SupportTable::build(self).map(drop)
    }

    /// Validates the design and wraps it in a [`ValidatedDesign`], together
    /// with every signal's driver support.
    ///
    /// # Errors
    ///
    /// Same as [`validate`](Self::validate).
    pub fn validated(self) -> Result<ValidatedDesign, DesignError> {
        self.check_drivers()?;
        self.check_depth()?;
        let supports = SupportTable::build(&self)?;
        Ok(ValidatedDesign {
            design: self,
            supports,
        })
    }

    /// No driver nests deeper than [`MAX_EXPR_DEPTH`] (levels as defined
    /// there).  One sweep in id order: a node's operands, and the driver of
    /// a wire or output it references, have lower ids than the node.
    fn check_depth(&self) -> Result<(), DesignError> {
        let mut depth = vec![0u32; self.exprs.len()];
        for (i, expr) in self.exprs.iter().enumerate() {
            depth[i] = match *expr {
                Expr::Signal(s) => match self.signals[s.index()] {
                    Signal {
                        kind: SignalKind::Wire | SignalKind::Output,
                        driver: Some(driver),
                        ..
                    } => depth[driver.index()],
                    _ => 0,
                },
                _ => 1 + expr.children().map(|c| depth[c.index()]).max().unwrap_or(0),
            };
        }
        for s in &self.signals {
            let Some(driver) = s.driver else { continue };
            if depth[driver.index()] > MAX_EXPR_DEPTH {
                return Err(DesignError::ExpressionTooDeep {
                    name: s.name.clone(),
                    depth: depth[driver.index()],
                });
            }
        }
        Ok(())
    }

    /// Every non-input signal has a driver of its own width.
    fn check_drivers(&self) -> Result<(), DesignError> {
        for (_, s) in self.signals() {
            match s.kind {
                SignalKind::Input => {}
                SignalKind::Register { .. } | SignalKind::Wire | SignalKind::Output => {
                    let Some(driver) = s.driver else {
                        return Err(DesignError::RegisterWithoutNext {
                            name: s.name.clone(),
                        });
                    };
                    let dw = self.expr_width(driver);
                    if dw != s.width {
                        return Err(DesignError::SignalWidthMismatch {
                            name: s.name.clone(),
                            declared: s.width,
                            driver: dw,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Signals referenced (combinationally) by an expression, i.e. the leaves
    /// of the expression tree.
    #[must_use]
    pub fn expr_signals(&self, root: ExprId) -> Vec<SignalId> {
        let mut out = Vec::new();
        let mut seen = vec![0; self.exprs.len()];
        self.push_expr_signals(root, &mut seen, 1, &mut Vec::new(), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pushes onto `out`, unsorted, every signal the DAG under `root`
    /// references, each once.  A node counts as visited when its entry in
    /// `seen` equals `stamp`, so a caller walking many roots bumps the stamp
    /// instead of clearing the table; `stack` is scratch space.
    pub(crate) fn push_expr_signals(
        &self,
        root: ExprId,
        seen: &mut [u32],
        stamp: u32,
        stack: &mut Vec<ExprId>,
        out: &mut Vec<SignalId>,
    ) {
        stack.push(root);
        while let Some(e) = stack.pop() {
            if seen[e.index()] == stamp {
                continue;
            }
            seen[e.index()] = stamp;
            let expr = self.expr(e);
            if let Some(s) = expr.as_signal() {
                out.push(s);
            }
            stack.extend(expr.children());
        }
    }
}

/// A ROM table stored in a [`Design`], with the bit width of its widest
/// entry: [`Design::intern_table`] measures the entries once, so each read
/// of the table is checked without scanning them.
#[derive(Clone)]
pub(crate) struct InternedTable {
    entries: Arc<Vec<u128>>,
    entry_bits: u32,
}

/// The bit width of a ROM table's widest entry.
fn entry_bits(table: &[u128]) -> u32 {
    u128::BITS - table.iter().fold(0, |acc, v| acc | v).leading_zeros()
}

/// Characters the netlist text uses as syntax: `(` and `)` delimit
/// expressions, `#` starts a comment and `=` ends a statement header.
const RESERVED_CHARS: [char; 4] = ['(', ')', '#', '='];

/// Checks that `name` can be written to and read back from the netlist
/// text: non-empty, no whitespace, `(`, `)`, `#` or `=` anywhere, and no
/// leading `%` or `@` (the sigils of `let` bindings and ROM tables).
/// `what` names the kind of name in the error (`"signal"`, `"design"`).
///
/// # Errors
///
/// Returns [`DesignError::Parse`] at line 0 naming the name and the
/// offending character.
pub fn check_name(what: &str, name: &str) -> Result<(), DesignError> {
    let reason = match name.chars().next() {
        None => "it is empty".to_string(),
        Some(c @ ('%' | '@')) => format!("a leading {c:?} is reserved"),
        Some(_) => {
            let reserved = |c: char| c.is_whitespace() || RESERVED_CHARS.contains(&c);
            match name.chars().find(|&c| reserved(c)) {
                Some(c) => format!("{c:?} is reserved"),
                None => return Ok(()),
            }
        }
    };
    Err(DesignError::Parse {
        line: 0,
        message: format!("invalid {what} name `{name}`: {reason}"),
    })
}

fn reg_check(design: &Design, reg: SignalId) -> Result<SignalId, DesignError> {
    if reg.index() >= design.num_signals() {
        return Err(DesignError::UnknownSignal {
            name: format!("{reg:?}"),
        });
    }
    Ok(reg)
}

/// A design that has passed [`Design::validate`].
///
/// The simulator, the structural analysis and the property checker only accept
/// validated designs, which guarantees that every register has a next-state
/// function, all widths are consistent and there are no combinational loops.
///
/// Validation also computes every signal's driver support once (see
/// [`driver_support`](crate::structural::driver_support)): the structural
/// analysis, the flow's level planner and the property checker read it
/// instead of walking the expression DAG again.  The table is a function of
/// the design alone, so equal designs hold equal tables.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidatedDesign {
    design: Design,
    supports: SupportTable,
}

impl ValidatedDesign {
    /// The underlying design.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the wrapper and returns the underlying design (e.g. to modify
    /// it and re-validate).
    #[must_use]
    pub fn into_inner(self) -> Design {
        self.design
    }

    /// The driver-support table built by [`Design::validated`].
    pub(crate) fn supports(&self) -> &SupportTable {
        &self.supports
    }
}

impl AsRef<Design> for ValidatedDesign {
    fn as_ref(&self) -> &Design {
        &self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_design() -> Design {
        let mut d = Design::new("counter");
        let en = d.add_input("en", 1).unwrap();
        let count = d.add_register("count", 4, 0).unwrap();
        let one = d.constant(1, 4).unwrap();
        let inc = d.add(d.signal(count), one).unwrap();
        let next = d.mux(d.signal(en), inc, d.signal(count)).unwrap();
        d.set_register_next(count, next).unwrap();
        d.add_output("value", d.signal(count)).unwrap();
        d
    }

    #[test]
    fn builder_produces_valid_counter() {
        let d = counter_design();
        assert!(d.validate().is_ok());
        assert_eq!(d.inputs().len(), 1);
        assert_eq!(d.outputs().len(), 1);
        assert_eq!(d.registers().len(), 1);
        assert_eq!(d.state_and_output_signals().len(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut d = Design::new("dup");
        d.add_input("a", 1).unwrap();
        assert_eq!(
            d.add_input("a", 2).unwrap_err(),
            DesignError::DuplicateName { name: "a".into() }
        );
    }

    #[test]
    fn invalid_widths_are_rejected() {
        let mut d = Design::new("w");
        assert!(matches!(
            d.add_input("z", 0),
            Err(DesignError::InvalidWidth { .. })
        ));
        assert!(matches!(
            d.add_input("big", 129),
            Err(DesignError::InvalidWidth { .. })
        ));
        assert!(d.add_input("ok", 128).is_ok());
    }

    #[test]
    fn constant_too_wide_is_rejected() {
        let mut d = Design::new("c");
        assert!(matches!(
            d.constant(4, 2),
            Err(DesignError::ConstantTooWide { .. })
        ));
        assert!(d.constant(3, 2).is_ok());
        assert!(d.constant(u128::MAX, 128).is_ok());
    }

    #[test]
    fn width_mismatch_in_binary_op() {
        let mut d = Design::new("m");
        let a = d.add_input("a", 4).unwrap();
        let b = d.add_input("b", 8).unwrap();
        assert!(matches!(
            d.add(d.signal(a), d.signal(b)),
            Err(DesignError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn mux_condition_must_be_one_bit() {
        let mut d = Design::new("m");
        let c = d.add_input("c", 2).unwrap();
        let a = d.add_input("a", 4).unwrap();
        let b = d.add_input("b", 4).unwrap();
        assert!(matches!(
            d.mux(d.signal(c), d.signal(a), d.signal(b)),
            Err(DesignError::ConditionNotBoolean { .. })
        ));
    }

    #[test]
    fn slice_bounds_are_checked() {
        let mut d = Design::new("s");
        let a = d.add_input("a", 8).unwrap();
        assert!(matches!(
            d.slice(d.signal(a), 8, 0),
            Err(DesignError::InvalidSlice { .. })
        ));
        assert!(matches!(
            d.slice(d.signal(a), 2, 3),
            Err(DesignError::InvalidSlice { .. })
        ));
        let s = d.slice(d.signal(a), 7, 4).unwrap();
        assert_eq!(d.expr_width(s), 4);
    }

    #[test]
    fn concat_and_zero_ext_widths() {
        let mut d = Design::new("cz");
        let a = d.add_input("a", 3).unwrap();
        let b = d.add_input("b", 5).unwrap();
        let cat = d.concat(d.signal(a), d.signal(b)).unwrap();
        assert_eq!(d.expr_width(cat), 8);
        let ext = d.zero_ext(d.signal(a), 16).unwrap();
        assert_eq!(d.expr_width(ext), 16);
        let same = d.zero_ext(d.signal(a), 3).unwrap();
        assert_eq!(same, d.signal(a));
    }

    #[test]
    fn register_without_next_fails_validation() {
        let mut d = Design::new("r");
        d.add_register("r0", 4, 0).unwrap();
        assert!(matches!(
            d.validate(),
            Err(DesignError::RegisterWithoutNext { .. })
        ));
    }

    #[test]
    fn register_reset_must_fit() {
        let mut d = Design::new("r");
        assert!(matches!(
            d.add_register("r0", 2, 7),
            Err(DesignError::ConstantTooWide { .. })
        ));
    }

    #[test]
    fn combinational_loop_is_detected() {
        // The builder only allows references to already-driven signals, so a
        // combinational loop cannot be constructed through it; the check
        // exists as defence-in-depth for hand-built or parsed designs. Here we
        // only assert that an acyclic wire chain passes.
        let mut d = Design::new("loop");
        let a = d.add_input("a", 1).unwrap();
        let w = d.add_wire("w", d.signal(a)).unwrap();
        d.add_output("o", d.signal(w)).unwrap();
        assert!(d.validate().is_ok());
    }

    #[test]
    fn rom_table_size_is_checked() {
        let mut d = Design::new("rom");
        let idx = d.add_input("idx", 2).unwrap();
        assert!(matches!(
            d.rom(vec![1, 2, 3], d.signal(idx), 8),
            Err(DesignError::InvalidRom { .. })
        ));
        assert!(d.rom(vec![1, 2, 3, 4], d.signal(idx), 8).is_ok());
        assert!(matches!(
            d.rom(vec![1, 2, 3, 256], d.signal(idx), 8),
            Err(DesignError::InvalidRom { .. })
        ));
    }

    #[test]
    fn expr_signals_lists_unique_leaves() {
        let mut d = Design::new("leaves");
        let a = d.add_input("a", 4).unwrap();
        let b = d.add_input("b", 4).unwrap();
        let x = d.xor(d.signal(a), d.signal(b)).unwrap();
        let y = d.and(x, d.signal(a)).unwrap();
        let sigs = d.expr_signals(y);
        assert_eq!(sigs, vec![a, b]);
    }

    #[test]
    fn validated_design_exposes_inner() {
        let d = counter_design();
        let v = d.clone().validated().unwrap();
        assert_eq!(v.design().name(), "counter");
        assert_eq!(v.as_ref().num_signals(), d.num_signals());
        let back = v.into_inner();
        assert_eq!(back.name(), "counter");
    }

    #[test]
    fn set_register_next_rejects_non_registers() {
        let mut d = Design::new("bad");
        let a = d.add_input("a", 1).unwrap();
        let e = d.signal(a);
        assert!(matches!(
            d.set_register_next(a, e),
            Err(DesignError::InvalidSignalKind { .. })
        ));
    }

    #[test]
    fn require_reports_unknown_signals() {
        let d = Design::new("q");
        assert!(matches!(
            d.require("nope"),
            Err(DesignError::UnknownSignal { .. })
        ));
    }
}
