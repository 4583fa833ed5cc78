//! Plain-text netlist format.
//!
//! The paper operates on Verilog RTL; a full Verilog front-end is out of
//! scope for this reproduction (see DESIGN.md), so designs can instead be
//! dumped to and parsed from a small, line-oriented netlist format.  This is
//! the interchange point for users who want to bring their own designs to the
//! detection flow without writing Rust code.
//!
//! # Format
//!
//! ```text
//! design lookup
//! input en 1
//! input idx 2
//! register acc 4 0x0
//! table @0 (0x5 0x6 0x7 0x8)
//! let %0 4 = (rom 4 @0 idx)
//! wire mixed 4 = (xor %0 acc)
//! output value 4 = (mux en %0 mixed)
//! next acc = mixed
//! ```
//!
//! * One statement per line; `#` starts a comment.
//! * `input NAME WIDTH` and `register NAME WIDTH RESET` declare signals;
//!   `wire NAME WIDTH = EXPR` and `output NAME WIDTH = EXPR` declare and
//!   drive them; `next REG = EXPR` supplies a register's next-state function.
//! * Expressions are s-expressions: bare identifiers refer to signals,
//!   `(const WIDTH VALUE)` is a constant (decimal or `0x…`) and
//!   `(OP ARG…)` applies an operator (`add`, `mux`, `slice E HI LO`, …).
//! * `let %N WIDTH = EXPR` binds a subterm; later expressions write `%N`
//!   for that one node.  `table @N (V0 V1 …)` declares a ROM table and
//!   `(rom WIDTH @N INDEX)` reads it.  The inline form
//!   `(rom WIDTH (V0 V1 …) INDEX)` is accepted too.
//! * Everything is declared before it is referenced: signals, `%N` and
//!   `@N` alike.  A register's `next` line may come anywhere after its
//!   declaration.
//! * Signal and design names must not contain whitespace, `(`, `)`, `#` or
//!   `=`, and must not start with `%` or `@` (see [`check_name`]).
//!
//! [`dump`] writes the canonical form, which keeps the design's DAG:
//!
//! * every signal in creation order, then the `next` lines, so the parsed
//!   design's [`SignalId`](crate::SignalId)s equal the original's;
//! * every non-signal subterm that the reachable DAG references twice or
//!   more (as a child or as a driver) bound by one `let` just before its
//!   first use, numbered in dump order — so each reachable node is printed
//!   once and parsing rebuilds exactly that many nodes;
//! * every distinct ROM table once, numbered in dump order.
//!
//! # Parsing
//!
//! [`parse`] makes one forward pass over the bytes of the text.  A cursor
//! finds each statement's end (its `\n`, or a `#`) as it lexes, and cuts
//! tokens in place: a byte table classifies ASCII bytes, an atom's end is
//! found eight bytes at a time, and only a non-ASCII character is decoded,
//! to learn whether it is whitespace ([`char::is_whitespace`]: `\u{85}`,
//! `\u{a0}`, `\u{2003}`, … separate tokens as a space does).  Numbers go
//! to the std `u128` parsers, so the accepted syntax is theirs (`+5`,
//! `0X1F`).  `%N` and `@N` numbered in order, as the dump numbers them,
//! index vectors; other numbers fall back to a keyed hash map.  A `rom`
//! reading a declared table is checked against the table's widest entry,
//! measured once at its `table` line.
//!
//! Expressions are parsed without recursion: the operators whose operands
//! are still open wait on an explicit stack, and each node is built when its
//! last operand is done, so nodes are created children first, left to right,
//! as a recursive descent would create them.  An expression nested deeper
//! than [`MAX_EXPR_DEPTH`] is a parse error at its line, and a design whose
//! drivers nest deeper through `let` bindings or wires fails validation
//! ([`DesignError::ExpressionTooDeep`]): the passes that recurse along
//! drivers (the lowering, the simulator, [`dump`]) stay within a 2 MiB
//! thread stack.
//!
//! [`check_name`]: crate::check_name

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::design::{Design, InternedTable, SignalKind, ValidatedDesign};
use crate::error::DesignError;
use crate::expr::{BinaryOp, Expr, ExprId, UnaryOp};
use crate::MAX_EXPR_DEPTH;

/// Serialises a design to the canonical netlist text (see the
/// [module docs](self)).
///
/// The output round-trips through [`parse`]: `parse(&dump(d))` reconstructs a
/// design with the same signals, in the same order, and the same behaviour,
/// and `dump(&parse(&dump(d))?) == dump(d)`.
#[must_use]
pub fn dump(design: &ValidatedDesign) -> String {
    let d = design.design();
    let mut printer = Printer {
        d,
        out: String::new(),
        uses: use_counts(d),
        lets: vec![None; d.num_exprs()],
        next_let: 0,
        tables: HashMap::new(),
    };
    let _ = writeln!(printer.out, "design {}", d.name());
    for (_, s) in d.signals() {
        let (name, width) = (s.name(), s.width());
        let keyword = match s.kind() {
            SignalKind::Input => {
                let _ = writeln!(printer.out, "input {name} {width}");
                continue;
            }
            SignalKind::Register { reset } => {
                let _ = writeln!(printer.out, "register {name} {width} {reset:#x}");
                continue;
            }
            SignalKind::Wire => "wire",
            SignalKind::Output => "output",
        };
        let driver = s.driver().expect("validated design");
        printer.driver_line(format_args!("{keyword} {name} {width}"), driver);
    }
    for (_, s) in d.signals() {
        if s.kind().is_register() {
            let driver = s.driver().expect("validated design");
            printer.driver_line(format_args!("next {}", s.name()), driver);
        }
    }
    printer.out
}

/// How often the DAG reachable from the design's drivers references each
/// expression: once for every signal it drives and once for every reachable
/// parent that reads it.  Zero marks an unreachable node.
fn use_counts(d: &Design) -> Vec<u32> {
    let mut uses = vec![0u32; d.num_exprs()];
    for (_, s) in d.signals() {
        if let Some(driver) = s.driver() {
            uses[driver.index()] += 1;
        }
    }
    // The builder only refers to existing nodes, so every child has a lower
    // id than its parents: one descending sweep sees each node's parents
    // before the node itself.
    for index in (0..uses.len()).rev() {
        if uses[index] > 0 {
            for child in d.expr(ExprId(index as u32)).children() {
                uses[child.index()] += 1;
            }
        }
    }
    uses
}

/// The state of one [`dump`].
struct Printer<'a> {
    d: &'a Design,
    out: String,
    uses: Vec<u32>,
    /// The `%N` of every expression bound so far.
    lets: Vec<Option<u32>>,
    next_let: u32,
    /// The `@N` of every table printed so far, keyed by its allocation:
    /// [`Design::rom`] interns tables, so equal contents share one.
    tables: HashMap<*const Vec<u128>, u32>,
}

impl Printer<'_> {
    /// Prints `HEADER = EXPR` for a signal's driver, after the `table` and
    /// `let` lines the expression needs.
    fn driver_line(&mut self, header: fmt::Arguments<'_>, driver: ExprId) {
        self.bind_shared(driver);
        let _ = write!(self.out, "{header} = ");
        self.write_ref(driver);
        self.out.push('\n');
    }

    /// Prints, children first, the `table` lines and the `let` lines that
    /// `root`'s expression needs and that are not printed yet.
    fn bind_shared(&mut self, root: ExprId) {
        let expr = self.d.expr(root);
        if matches!(expr, Expr::Signal(_)) || self.lets[root.index()].is_some() {
            return;
        }
        for child in expr.children() {
            self.bind_shared(child);
        }
        if let Expr::Rom { table, .. } = expr {
            let next = self.tables.len() as u32;
            if let Entry::Vacant(slot) = self.tables.entry(Arc::as_ptr(table)) {
                slot.insert(next);
                let _ = write!(self.out, "table @{next} (");
                for (i, v) in table.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    let _ = write!(self.out, "{sep}{v:#x}");
                }
                self.out.push_str(")\n");
            }
        }
        if self.uses[root.index()] >= 2 {
            let n = self.next_let;
            self.next_let += 1;
            let _ = write!(self.out, "let %{n} {} = ", self.d.expr_width(root));
            self.write_node(root);
            self.out.push('\n');
            self.lets[root.index()] = Some(n);
        }
    }

    /// Writes a reference to `e`: a signal name, a bound `%N`, or the node
    /// itself.
    fn write_ref(&mut self, e: ExprId) {
        match (self.d.expr(e), self.lets[e.index()]) {
            (Expr::Signal(s), _) => self.out.push_str(self.d.signal_name(*s)),
            (_, Some(n)) => {
                let _ = write!(self.out, "%{n}");
            }
            (_, None) => self.write_node(e),
        }
    }

    /// Writes `e` as an s-expression whose operands are references.
    fn write_node(&mut self, e: ExprId) {
        let d = self.d;
        match d.expr(e) {
            Expr::Const { value, width } => {
                let _ = write!(self.out, "(const {width} {value:#x})");
            }
            Expr::Signal(s) => self.out.push_str(d.signal_name(*s)),
            Expr::Unary { op, a } => self.write_op(op.mnemonic(), &[*a]),
            Expr::Binary { op, a, b } => self.write_op(op.mnemonic(), &[*a, *b]),
            Expr::Mux {
                cond,
                then_e,
                else_e,
            } => self.write_op("mux", &[*cond, *then_e, *else_e]),
            Expr::Slice { a, hi, lo } => {
                self.out.push_str("(slice ");
                self.write_ref(*a);
                let _ = write!(self.out, " {hi} {lo})");
            }
            Expr::Concat { hi, lo } => self.write_op("concat", &[*hi, *lo]),
            Expr::Rom {
                table,
                index,
                width,
            } => {
                let t = self.tables[&Arc::as_ptr(table)];
                let _ = write!(self.out, "(rom {width} @{t} ");
                self.write_ref(*index);
                self.out.push(')');
            }
        }
    }

    /// Writes `(OP A B …)`.
    fn write_op(&mut self, op: &str, operands: &[ExprId]) {
        self.out.push('(');
        self.out.push_str(op);
        for &operand in operands {
            self.out.push(' ');
            self.write_ref(operand);
        }
        self.out.push(')');
    }
}

/// The [`FxHash`](crate::fxhash) of a netlist text, taken over its bytes as
/// given.  Over [`dump`] output it keys a design by its canonical form:
/// equal dumps hash equal, and text that [`parse`] normalises away
/// (whitespace, comments, decimal vs hex constants) leaves the dump of the
/// parsed design unchanged.  Not a cryptographic hash: a caller that keys
/// anything on it must compare the texts on a hash hit.
#[must_use]
pub fn hash_of_dump(dump: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = crate::fxhash::FxHasher::default();
    hasher.write(dump.as_bytes());
    hasher.finish()
}

/// Parses a textual netlist into a validated design.
///
/// # Errors
///
/// Returns [`DesignError::Parse`] (with a line number) for syntax errors,
/// references to undeclared signals, `%N` bindings or `@N` tables, a
/// duplicate `%N` or `@N`, an expression nested deeper than
/// [`MAX_EXPR_DEPTH`], or any builder error (width mismatches, ROM tables
/// that do not fit, invalid names, etc.), and the underlying validation
/// error if the parsed design is incomplete or too deep.
pub fn parse(text: &str) -> Result<ValidatedDesign, DesignError> {
    let mut parser: Option<Parser> = None;
    let mut c = Cursor { text, pos: 0 };
    let mut line = 0;
    while c.pos < text.len() {
        line += 1;
        let keyword = c.word();
        let outcome = match (&mut parser, keyword) {
            (_, "") => Ok(()),
            (None, "design") => {
                let name = c.rest().trim();
                crate::check_name("design", name).map(|()| parser = Some(Parser::new(name)))
            }
            (Some(_), "design") => Err(syntax("second `design` line")),
            (None, _) => Err(syntax("statement before `design` line")),
            (Some(p), _) => p.statement(keyword, &mut c),
        };
        outcome.map_err(|e| at_line(e, line))?;
        c.next_line();
    }
    let parser = parser.ok_or_else(|| syntax("empty netlist"))?;
    parser.design.validated()
}

/// A syntax error; [`parse`] adds the line.
fn syntax(message: impl Into<String>) -> DesignError {
    DesignError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Attributes any error to `line`.
fn at_line(err: DesignError, line: usize) -> DesignError {
    let message = match err {
        DesignError::Parse { message, .. } => message,
        other => other.to_string(),
    };
    DesignError::Parse { line, message }
}

/// A decimal or `0x`/`0X` hex number of up to 128 bits, with the std
/// parsers' syntax (a leading `+` is accepted).
fn parse_number(token: &str) -> Result<u128, DesignError> {
    let parsed = if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u128::from_str_radix(hex, 16)
    } else {
        token.parse()
    };
    parsed.map_err(|_| syntax(format!("invalid number `{token}`")))
}

fn parse_width(token: &str) -> Result<u32, DesignError> {
    u32::try_from(parse_number(token)?).map_err(|_| syntax(format!("invalid width `{token}`")))
}

/// The `N` of a `%N` binding or an `@N` table: a decimal `u32`, with the
/// std parser's syntax.
fn sigil_number(sigil: char, token: &str) -> Result<u32, DesignError> {
    token
        .strip_prefix(sigil)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| syntax(format!("expected `{sigil}N`, found `{token}`")))
}

/// `%N` bindings or `@N` tables by number.  The canonical dump numbers them
/// 0, 1, 2, … in order, so each number bound in that order goes to a vector
/// indexed by `N`, without hashing; any other number goes to a map, so
/// memory stays proportional to the text however sparse the numbers are.
/// The map keeps the default, keyed hasher: its keys come from outside the
/// program.
struct Numbered<T> {
    in_order: Vec<T>,
    others: HashMap<u32, T>,
}

impl<T> Numbered<T> {
    fn new() -> Self {
        Numbered {
            in_order: Vec::new(),
            others: HashMap::new(),
        }
    }

    fn get(&self, n: u32) -> Option<&T> {
        // `others` only holds numbers beyond `in_order`: a number goes
        // there only if it is not the next in order, and `in_order` never
        // grows past a number bound in `others`.
        self.in_order
            .get(n as usize)
            .or_else(|| self.others.get(&n))
    }

    /// Binds `n` to `value`, unless `n` is bound already.
    fn insert(&mut self, n: u32, value: T) -> bool {
        if self.get(n).is_some() {
            return false;
        }
        if n as usize == self.in_order.len() {
            self.in_order.push(value);
        } else {
            self.others.insert(n, value);
        }
        true
    }
}

/// The state of one [`parse`] after its `design` line.
struct Parser {
    design: Design,
    lets: Numbered<ExprId>,
    /// Each `table`, interned and measured once, at its line.
    tables: Numbered<InternedTable>,
    /// The operators whose operands are still being parsed, innermost last:
    /// the explicit stack that stands in for recursion.  Kept across
    /// statements for its allocation.
    open: Vec<Frame>,
    /// The literal arguments of the `rom`s on [`Parser::open`], innermost
    /// last.
    roms: Vec<Rom>,
}

/// An operator whose operands are still being parsed.
#[derive(Clone, Copy)]
struct Frame {
    op: Op,
    operands: [ExprId; 3],
    parsed: usize,
}

/// An operator; a `rom`'s literal arguments wait on [`Parser::roms`].
#[derive(Clone, Copy)]
enum Op {
    Unary(UnaryOp),
    Binary(BinaryOp),
    Mux,
    Concat,
    /// Its `WIDTH VALUE` are all it has.
    Const,
    /// Its `HI LO` come after the operand.
    Slice,
    Rom,
}

/// The width and table of a `rom` whose index is still being parsed.
struct Rom {
    width: u32,
    table: RomTable,
}

/// The table of a `rom`: written inline, or a declared `@N`.
enum RomTable {
    Inline(Vec<u128>),
    Declared(InternedTable),
}

impl Op {
    /// The operator for a mnemonic, the most frequent in the dumps first.
    fn named(name: &str) -> Option<Op> {
        Some(match name {
            "slice" => Op::Slice,
            "xor" => Op::Binary(BinaryOp::Xor),
            "concat" => Op::Concat,
            "const" => Op::Const,
            "rom" => Op::Rom,
            "mux" => Op::Mux,
            "eq" => Op::Binary(BinaryOp::Eq),
            "and" => Op::Binary(BinaryOp::And),
            "or" => Op::Binary(BinaryOp::Or),
            "add" => Op::Binary(BinaryOp::Add),
            "sub" => Op::Binary(BinaryOp::Sub),
            "mul" => Op::Binary(BinaryOp::Mul),
            "ne" => Op::Binary(BinaryOp::Ne),
            "ult" => Op::Binary(BinaryOp::Ult),
            "ule" => Op::Binary(BinaryOp::Ule),
            "shl" => Op::Binary(BinaryOp::Shl),
            "shr" => Op::Binary(BinaryOp::Shr),
            "not" => Op::Unary(UnaryOp::Not),
            "neg" => Op::Unary(UnaryOp::Neg),
            "redand" => Op::Unary(UnaryOp::RedAnd),
            "redor" => Op::Unary(UnaryOp::RedOr),
            "redxor" => Op::Unary(UnaryOp::RedXor),
            _ => return None,
        })
    }

    fn mnemonic(&self) -> &'static str {
        match self {
            Op::Unary(op) => op.mnemonic(),
            Op::Binary(op) => op.mnemonic(),
            Op::Mux => "mux",
            Op::Concat => "concat",
            Op::Const => "const",
            Op::Slice => "slice",
            Op::Rom => "rom",
        }
    }

    fn arity(&self) -> usize {
        match self {
            Op::Unary(_) | Op::Slice | Op::Rom => 1,
            Op::Binary(_) | Op::Concat => 2,
            Op::Mux => 3,
            Op::Const => 0,
        }
    }
}

impl Parser {
    fn new(name: &str) -> Self {
        Parser {
            design: Design::new(name),
            lets: Numbered::new(),
            tables: Numbered::new(),
            open: Vec::new(),
            roms: Vec::new(),
        }
    }

    fn statement(&mut self, keyword: &str, c: &mut Cursor<'_>) -> Result<(), DesignError> {
        match keyword {
            "input" => {
                let [name, width] = words(c.rest(), "input <name> <width>")?;
                self.design.add_input(name, parse_width(width)?)?;
            }
            "register" => {
                let [name, width, reset] = words(c.rest(), "register <name> <width> <reset>")?;
                let (width, reset) = (parse_width(width)?, parse_number(reset)?);
                self.design.add_register(name, width, reset)?;
            }
            "wire" | "output" | "let" => {
                let header = c.split_at_equals("expected `= <expr>`")?;
                let [name, width] = words(header, "<name> <width> = <expr>")?;
                let width = parse_width(width)?;
                let expr = self.expr(c)?;
                let actual = self.design.expr_width(expr);
                if actual != width {
                    return Err(syntax(format!(
                        "declared width {width} but expression is {actual} bits"
                    )));
                }
                if keyword == "wire" {
                    self.design.add_wire(name, expr)?;
                } else if keyword == "output" {
                    self.design.add_output(name, expr)?;
                } else if !self.lets.insert(sigil_number('%', name)?, expr) {
                    return Err(syntax(format!("duplicate binding `{name}`")));
                }
            }
            "next" => {
                let header = c.split_at_equals("expected `next <register> = <expr>`")?;
                let reg = self.design.require(header.trim())?;
                let expr = self.expr(c)?;
                self.design.set_register_next(reg, expr)?;
            }
            "table" => {
                let name = c.word();
                if c.at_end() {
                    return Err(syntax("expected `table @N (<v0> <v1> …)`"));
                }
                if c.token() != Some(Token::Open) {
                    return Err(syntax("expected `(` starting the table"));
                }
                let table = c.table_entries()?;
                if c.token().is_some() {
                    return Err(syntax("trailing tokens after table"));
                }
                let n = sigil_number('@', name)?;
                if self.tables.get(n).is_some() {
                    return Err(syntax(format!("duplicate table `{name}`")));
                }
                let table = self.design.intern_table(table);
                self.tables.insert(n, table);
            }
            other => return Err(syntax(format!("unknown keyword `{other}`"))),
        }
        Ok(())
    }

    /// Parses one whole expression.  Operands are parsed before the
    /// operator that reads them is built, so nodes are created children
    /// first, left to right, and an operator stays on [`Parser::open`]
    /// until its last operand is done: nesting costs heap, not stack.
    fn expr(&mut self, c: &mut Cursor<'_>) -> Result<ExprId, DesignError> {
        self.open.clear();
        self.roms.clear();
        let root = 'expr: loop {
            let mut value = match c.token() {
                Some(Token::Atom(name)) => self.reference(name)?,
                Some(Token::Open) => {
                    // `Design::validated` bounds the same depth for every
                    // producer, but can only name the signal; refused here,
                    // the text's nesting is reported at its line, which is
                    // what locates it in a large submission.
                    if self.open.len() >= MAX_EXPR_DEPTH as usize {
                        return Err(syntax(format!(
                            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
                        )));
                    }
                    let Some(Token::Atom(name)) = c.token() else {
                        return Err(syntax("expected operator after `(`"));
                    };
                    let op = self.operator(name, c)?;
                    let frame = Frame {
                        op,
                        operands: [ExprId(0); 3],
                        parsed: 0,
                    };
                    if op.arity() > 0 {
                        self.open.push(frame);
                        continue;
                    }
                    self.build(frame, c)?
                }
                _ => return Err(syntax("unexpected end of expression")),
            };
            // Hand the operand to the innermost open operator, and build
            // every operator it completes.
            loop {
                let Some(top) = self.open.last_mut() else {
                    break 'expr value;
                };
                top.operands[top.parsed] = value;
                top.parsed += 1;
                if top.parsed < top.op.arity() {
                    break;
                }
                let frame = *top;
                self.open.pop();
                value = self.build(frame, c)?;
            }
        };
        if c.token().is_some() {
            return Err(syntax("trailing tokens after expression"));
        }
        Ok(root)
    }

    /// A `%N` binding or a signal.
    fn reference(&self, name: &str) -> Result<ExprId, DesignError> {
        if name.starts_with('%') {
            let n = sigil_number('%', name)?;
            return self
                .lets
                .get(n)
                .copied()
                .ok_or_else(|| syntax(format!("unknown binding `{name}`")));
        }
        Ok(self.design.signal(self.design.require(name)?))
    }

    /// The operator `name`, with the literal arguments that precede its
    /// operands (a `rom`'s width and table).
    fn operator(&mut self, name: &str, c: &mut Cursor<'_>) -> Result<Op, DesignError> {
        let op = Op::named(name).ok_or_else(|| syntax(format!("unknown operator `{name}`")))?;
        if !matches!(op, Op::Rom) {
            return Ok(op);
        }
        let width = parse_width(c.literal("rom")?)?;
        let table = match c.token() {
            Some(Token::Open) => RomTable::Inline(c.table_entries()?),
            Some(Token::Atom(name)) => RomTable::Declared(
                self.tables
                    .get(sigil_number('@', name)?)
                    .ok_or_else(|| syntax(format!("unknown table `{name}`")))?
                    .clone(),
            ),
            _ => return Err(syntax("expected `@N` or `(` after the rom width")),
        };
        self.roms.push(Rom { width, table });
        Ok(op)
    }

    /// Builds the node of an operator whose operands are parsed, reading
    /// the literals that follow them and its `)`.
    fn build(&mut self, frame: Frame, c: &mut Cursor<'_>) -> Result<ExprId, DesignError> {
        let [a, b, e] = frame.operands;
        let mnemonic = frame.op.mnemonic();
        let d = &mut self.design;
        let node = match frame.op {
            Op::Unary(op) => d.unary(op, a),
            Op::Binary(op) => d.binary(op, a, b)?,
            Op::Mux => d.mux(a, b, e)?,
            Op::Concat => d.concat(a, b)?,
            Op::Const => {
                let width = parse_width(c.literal("const")?)?;
                let value = parse_number(c.literal("const")?)?;
                d.constant(value, width)?
            }
            Op::Slice => {
                let hi = parse_width(c.literal("slice")?)?;
                let lo = parse_width(c.literal("slice")?)?;
                d.slice(a, hi, lo)?
            }
            Op::Rom => match self.roms.pop().expect("an open rom has its arguments") {
                Rom {
                    width,
                    table: RomTable::Inline(table),
                } => d.rom(table, a, width)?,
                Rom {
                    width,
                    table: RomTable::Declared(table),
                } => d.rom_interned(&table, a, width)?,
            },
        };
        c.close(mnemonic)?;
        Ok(node)
    }
}

/// Splits a statement into exactly `N` whitespace-separated words.
fn words<'a, const N: usize>(text: &'a str, expected: &str) -> Result<[&'a str; N], DesignError> {
    let mut c = Cursor { text, pos: 0 };
    let words = std::array::from_fn(|_| c.word());
    if words.iter().any(|w| w.is_empty()) || !c.word().is_empty() {
        return Err(syntax(format!("expected `{expected}`")));
    }
    Ok(words)
}

/// One s-expression token, borrowed from the text.
#[derive(PartialEq)]
enum Token<'a> {
    Open,
    Close,
    Atom(&'a str),
}

/// What a byte is to the lexer.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// An ASCII byte that continues a word or an atom.
    Plain,
    /// ASCII whitespace other than `\n`.
    Space,
    Open,
    Close,
    /// `\n` or `#`: the statement ends.
    End,
    /// A byte of a non-ASCII character, which may be whitespace.
    Wide,
}

/// The [`Class`] of every byte.
static CLASSES: [Class; 256] = {
    let mut classes = [Class::Plain; 256];
    let mut byte = 0x80;
    while byte < 256 {
        classes[byte] = Class::Wide;
        byte += 1;
    }
    let spaces = [b' ', b'\t', b'\x0b', b'\x0c', b'\r'];
    let mut i = 0;
    while i < spaces.len() {
        classes[spaces[i] as usize] = Class::Space;
        i += 1;
    }
    classes[b'(' as usize] = Class::Open;
    classes[b')' as usize] = Class::Close;
    classes[b'\n' as usize] = Class::End;
    classes[b'#' as usize] = Class::End;
    classes
};

/// The non-ASCII character `text` starts with: whether it is whitespace
/// in the sense of [`char::is_whitespace`], and its length in bytes.
#[cold]
fn wide_char(text: &str) -> (bool, usize) {
    let c = text.chars().next().unwrap_or_default();
    (c.is_whitespace(), c.len_utf8())
}

/// The first position from `pos` on whose byte is below `0x2a` or not
/// ASCII, eight bytes at a time.  Every byte that can end a word or an
/// atom is: whitespace, `(`, `)`, `#`, `\n`, and the lead byte of a
/// non-ASCII character.
fn skip_plain(bytes: &[u8], mut pos: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = ONES * 0x80;
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let word = chunk.try_into().map_or(0, u64::from_le_bytes);
        // The high bit of each byte below 0x2a, exact up to the first one
        // (a borrow only runs upwards), or of each byte from 0x80 on.
        let below = word.wrapping_sub(ONES * 0x2a) & !word;
        let flagged = (below | word) & HIGH;
        if flagged != 0 {
            return pos + (flagged.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    while bytes.get(pos).is_some_and(|b| (0x2a..0x80).contains(b)) {
        pos += 1;
    }
    pos
}

/// A position in the text; the statement at `pos` runs to the next `\n`
/// or `#`.  Tokens are lexed in place, without allocating.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// What is left of the statement.
    fn rest(&self) -> &'a str {
        let tail = &self.text[self.pos..];
        &tail[..tail.find(['\n', '#']).unwrap_or(tail.len())]
    }

    /// Moves to the start of the next line.
    fn next_line(&mut self) {
        self.pos = match self.text.as_bytes().get(self.pos) {
            Some(b'\n') => self.pos + 1,
            _ => self.text[self.pos..]
                .find('\n')
                .map_or(self.text.len(), |i| self.pos + i + 1),
        };
    }

    fn skip_spaces(&mut self) {
        while let Some(&byte) = self.text.as_bytes().get(self.pos) {
            match CLASSES[usize::from(byte)] {
                Class::Space => self.pos += 1,
                Class::Wide => match wide_char(&self.text[self.pos..]) {
                    (true, len) => self.pos += len,
                    (false, _) => return,
                },
                _ => return,
            }
        }
    }

    /// Whether only whitespace is left of the statement.
    fn at_end(&mut self) -> bool {
        self.skip_spaces();
        self.text
            .as_bytes()
            .get(self.pos)
            .is_none_or(|&b| CLASSES[usize::from(b)] == Class::End)
    }

    /// Moves past the characters that continue a word (or, if
    /// `parens_end`, an atom) and returns them.  Inlined into its callers:
    /// called out of line, it made parsing the 26 AES exports 7–11% slower
    /// (release builds on a 2-vCPU Xeon).
    #[inline(always)]
    fn take(&mut self, parens_end: bool) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut pos = start;
        while let Some(&byte) = bytes.get(pos) {
            match CLASSES[usize::from(byte)] {
                Class::Plain => pos = skip_plain(bytes, pos + 1),
                Class::Open | Class::Close if !parens_end => pos += 1,
                Class::Wide => match wide_char(&self.text[pos..]) {
                    (false, len) => pos += len,
                    (true, _) => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
        &self.text[start..pos]
    }

    /// The next whitespace-delimited word, or `""` at the end.
    fn word(&mut self) -> &'a str {
        self.skip_spaces();
        self.take(false)
    }

    /// The statement's text before its first `=`; the cursor moves past
    /// the `=`.
    fn split_at_equals(&mut self, missing: &str) -> Result<&'a str, DesignError> {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|b| matches!(b, b'=' | b'\n' | b'#'))
            .filter(|&len| self.text.as_bytes()[start + len] == b'=')
            .ok_or_else(|| syntax(missing))?;
        self.pos = start + len + 1;
        Ok(&self.text[start..start + len])
    }

    fn token(&mut self) -> Option<Token<'a>> {
        loop {
            let &byte = self.text.as_bytes().get(self.pos)?;
            match CLASSES[usize::from(byte)] {
                Class::Space => self.pos += 1,
                Class::Open => {
                    self.pos += 1;
                    return Some(Token::Open);
                }
                Class::Close => {
                    self.pos += 1;
                    return Some(Token::Close);
                }
                Class::End => return None,
                Class::Plain => return Some(Token::Atom(self.take(true))),
                Class::Wide => match wide_char(&self.text[self.pos..]) {
                    (true, len) => self.pos += len,
                    (false, _) => return Some(Token::Atom(self.take(true))),
                },
            }
        }
    }

    /// The next token as the literal argument of `op`.
    fn literal(&mut self, op: &str) -> Result<&'a str, DesignError> {
        match self.token() {
            Some(Token::Atom(a)) => Ok(a),
            _ => Err(syntax(format!("expected literal argument for `{op}`"))),
        }
    }

    /// The `)` that closes `op`.
    fn close(&mut self, op: &str) -> Result<(), DesignError> {
        match self.token() {
            Some(Token::Close) => Ok(()),
            _ => Err(syntax(format!("missing `)` after `{op}`"))),
        }
    }

    /// The entries of a table literal whose `(` is already consumed, up to
    /// and including its `)`.
    fn table_entries(&mut self) -> Result<Vec<u128>, DesignError> {
        let mut table = Vec::new();
        loop {
            match self.token() {
                Some(Token::Atom(a)) => table.push(parse_number(a)?),
                Some(Token::Close) => return Ok(table),
                _ => return Err(syntax("expected `)` ending the rom table")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::Design;

    fn counter() -> ValidatedDesign {
        let mut d = Design::new("counter");
        let en = d.add_input("en", 1).unwrap();
        let count = d.add_register("count", 4, 0).unwrap();
        let one = d.constant(1, 4).unwrap();
        let inc = d.add(d.signal(count), one).unwrap();
        let inc_wire = d.add_wire("inc", inc).unwrap();
        let next = d
            .mux(d.signal(en), d.signal(inc_wire), d.signal(count))
            .unwrap();
        d.set_register_next(count, next).unwrap();
        d.add_output("value", d.signal(count)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn dump_contains_all_sections() {
        let text = dump(&counter());
        assert!(text.contains("design counter"));
        assert!(text.contains("input en 1"));
        assert!(text.contains("register count 4 0x0"));
        assert!(text.contains("wire inc 4 ="));
        assert!(text.contains("output value 4 ="));
        assert!(text.contains("next count ="));
    }

    /// Structurally identical designs dump equal (however they were built or
    /// textually formatted), a one-gate mutation changes the dump, and equal
    /// dumps hash equal.
    #[test]
    fn content_hash_keys_on_structure() {
        let a = counter();
        let b = counter();
        assert_eq!(dump(&a), dump(&b));
        assert_eq!(hash_of_dump(&dump(&a)), hash_of_dump(&dump(&b)));

        // Textual noise the parser normalises away — comments, blank lines,
        // decimal instead of hex constants — parses back to the same
        // canonical dump.
        let noisy = format!("# a comment\n\n{}", dump(&a).replace("0x0", "0"));
        assert_ne!(noisy, dump(&a));
        assert_eq!(dump(&parse(&noisy).unwrap()), dump(&a));

        // One mutated gate: increment by 2 instead of 1.
        let mut d = Design::new("counter");
        let en = d.add_input("en", 1).unwrap();
        let count = d.add_register("count", 4, 0).unwrap();
        let two = d.constant(2, 4).unwrap();
        let inc = d.add(d.signal(count), two).unwrap();
        let inc_wire = d.add_wire("inc", inc).unwrap();
        let next = d
            .mux(d.signal(en), d.signal(inc_wire), d.signal(count))
            .unwrap();
        d.set_register_next(count, next).unwrap();
        d.add_output("value", d.signal(count)).unwrap();
        let mutated = d.validated().unwrap();
        assert_ne!(dump(&mutated), dump(&a));
        assert_ne!(hash_of_dump(&dump(&mutated)), hash_of_dump(&dump(&a)));
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let original = counter();
        let text = dump(&original);
        let parsed = parse(&text).unwrap();

        let mut sim_a = Simulator::new(&original);
        let mut sim_b = Simulator::new(&parsed);
        for cycle in 0..10u128 {
            let en = u128::from(cycle % 3 != 0);
            sim_a.set_input_by_name("en", en).unwrap();
            sim_b.set_input_by_name("en", en).unwrap();
            sim_a.step().unwrap();
            sim_b.step().unwrap();
            assert_eq!(
                sim_a.peek_by_name("value").unwrap(),
                sim_b.peek_by_name("value").unwrap(),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn parse_example_from_module_docs() {
        let text = "\
design counter
input en 1
register count 4 0
wire inc 4 = (add count (const 4 1))
next count = (mux en inc count)
output value 4 = count
";
        let design = parse(text).unwrap();
        assert_eq!(design.design().name(), "counter");
        assert_eq!(design.design().registers().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\
# a comment
design d

input a 1          # trailing comment
output o 1 = a
";
        assert!(parse(text).is_ok());
    }

    #[test]
    fn unknown_signal_reports_line_number() {
        let text = "design d\noutput o 1 = missing\n";
        let err = parse(text).unwrap_err();
        match err {
            DesignError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("missing"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn width_annotation_must_match_expression() {
        let text = "design d\ninput a 4\noutput o 8 = a\n";
        assert!(matches!(
            parse(text),
            Err(DesignError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn missing_design_line_is_rejected() {
        assert!(matches!(
            parse("input a 1\n"),
            Err(DesignError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rom_expression_roundtrip() {
        let mut d = Design::new("romtest");
        let idx = d.add_input("idx", 2).unwrap();
        let rom = d.rom(vec![5, 6, 7, 8], d.signal(idx), 8).unwrap();
        d.add_output("o", rom).unwrap();
        let design = d.validated().unwrap();
        let parsed = parse(&dump(&design)).unwrap();
        let mut sim = Simulator::new(&parsed);
        for i in 0..4u128 {
            sim.set_input_by_name("idx", i).unwrap();
            assert_eq!(sim.peek_by_name("o").unwrap(), 5 + i);
        }
    }

    /// The module-doc example: a ROM read by two drivers.
    const LOOKUP: &str = "\
design lookup
input en 1
input idx 2
register acc 4 0x0
table @0 (0x5 0x6 0x7 0x8)
let %0 4 = (rom 4 @0 idx)
wire mixed 4 = (xor %0 acc)
output value 4 = (mux en %0 mixed)
next acc = mixed
";

    #[test]
    fn shared_subterms_and_tables_print_once() {
        let mut d = Design::new("lookup");
        let en = d.add_input("en", 1).unwrap();
        let idx = d.add_input("idx", 2).unwrap();
        let acc = d.add_register("acc", 4, 0).unwrap();
        let rom = d.rom(vec![5, 6, 7, 8], d.signal(idx), 4).unwrap();
        let mixed = d.xor(rom, d.signal(acc)).unwrap();
        let mixed = d.add_wire("mixed", mixed).unwrap();
        let value = d.mux(d.signal(en), rom, d.signal(mixed)).unwrap();
        d.add_output("value", value).unwrap();
        d.set_register_next(acc, d.signal(mixed)).unwrap();
        let design = d.validated().unwrap();
        assert_eq!(dump(&design), LOOKUP);

        // Parsing rebuilds one node per printed subterm, and the text is a
        // fixpoint of parse-then-dump.
        let parsed = parse(LOOKUP).unwrap();
        assert_eq!(parsed.design().num_exprs(), design.design().num_exprs());
        assert_eq!(dump(&parsed), LOOKUP);
    }

    #[test]
    fn equal_tables_are_stored_once() {
        let mut d = Design::new("tables");
        let a = d.add_input("a", 2).unwrap();
        let b = d.add_input("b", 2).unwrap();
        let ra = d.rom(vec![1, 2, 3, 0], d.signal(a), 2).unwrap();
        let rb = d.rom(vec![1, 2, 3, 0], d.signal(b), 2).unwrap();
        let other = d.rom(vec![0, 0, 0, 1], d.signal(b), 2).unwrap();
        let (Expr::Rom { table: ta, .. }, Expr::Rom { table: tb, .. }) = (d.expr(ra), d.expr(rb))
        else {
            panic!("rom nodes");
        };
        assert!(std::sync::Arc::ptr_eq(ta, tb));
        let x = d.xor(ra, rb).unwrap();
        let x = d.xor(x, other).unwrap();
        d.add_output("o", x).unwrap();
        let text = dump(&d.validated().unwrap());
        assert_eq!(text.matches("table @").count(), 2, "{text}");
    }

    #[test]
    fn the_inline_rom_form_still_parses() {
        let text = "design d\ninput idx 2\noutput o 8 = (rom 8 (5 6 7 0x8) idx)\n";
        let parsed = parse(text).unwrap();
        let mut sim = Simulator::new(&parsed);
        sim.set_input_by_name("idx", 3).unwrap();
        assert_eq!(sim.peek_by_name("o").unwrap(), 8);
        assert!(dump(&parsed).contains("table @0 (0x5 0x6 0x7 0x8)"));
        // The table still has to cover the index and fit the width.
        for bad in [
            "design d\ninput idx 2\noutput o 8 = (rom 8 (5 6 7) idx)\n",
            "design d\ninput idx 2\ntable @0 (1 2 3 256)\noutput o 8 = (rom 8 @0 idx)\n",
        ] {
            assert!(
                matches!(parse(bad), Err(DesignError::Parse { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_or_duplicate_bindings_and_tables_give_the_line() {
        let cases = [
            (
                "design d\ninput a 4\noutput o 4 = %0\n",
                3,
                "unknown binding `%0`",
            ),
            (
                "design d\ninput a 4\nlet %0 4 = (not a)\nlet %0 4 = (neg a)\n",
                4,
                "duplicate binding `%0`",
            ),
            (
                "design d\ninput a 2\noutput o 2 = (rom 2 @1 a)\n",
                3,
                "unknown table `@1`",
            ),
            (
                "design d\ntable @1 (0 1 2 3)\ntable @1 (0 1 2 3)\n",
                3,
                "duplicate table `@1`",
            ),
            ("design d\ninput a 4\nlet x 4 = a\n", 3, "expected `%N`"),
            ("design d\ninput a 4\nlet %0 8 = a\n", 3, "declared width 8"),
            ("design d\ndesign e\n", 2, "second `design` line"),
        ];
        for (text, want_line, want) in cases {
            match parse(text) {
                Err(DesignError::Parse { line, message }) => {
                    assert_eq!(line, want_line, "{text}");
                    assert!(message.contains(want), "{text}: {message}");
                }
                other => panic!("{text}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn names_the_text_cannot_carry_are_rejected() {
        let mut d = Design::new("names");
        for (name, bad) in [
            ("s#1", "'#'"),
            ("a(b", "'('"),
            ("a)b", "')'"),
            ("a=b", "'='"),
            ("a b", "' '"),
            ("%0", "leading '%'"),
            ("@0", "leading '@'"),
            ("", "empty"),
        ] {
            let err = d.add_input(name, 1).unwrap_err().to_string();
            assert!(
                err.contains(&format!("`{name}`")) && err.contains(bad),
                "{name}: {err}"
            );
        }
        // The sigils are only reserved as the first character.
        assert!(d.add_input("a%b@c.d[0]$", 1).is_ok());
        let err = parse("design a(b\n").unwrap_err().to_string();
        assert!(err.contains("invalid design name `a(b`"), "{err}");
    }

    #[test]
    fn every_mnemonic_names_its_operator() {
        for u in UnaryOp::ALL {
            assert!(matches!(Op::named(u.mnemonic()), Some(Op::Unary(op)) if op == u));
        }
        for b in BinaryOp::ALL {
            assert!(matches!(Op::named(b.mnemonic()), Some(Op::Binary(op)) if op == b));
        }
        for other in ["mux", "concat", "const", "slice", "rom"] {
            assert_eq!(Op::named(other).map(|op| op.mnemonic()), Some(other));
        }
        assert!(Op::named("Not").is_none() && Op::named("").is_none());
    }

    #[test]
    fn hex_and_decimal_numbers_are_accepted() {
        let text = "design d\ninput a 8\noutput o 1 = (eq a (const 8 0xff))\n";
        assert!(parse(text).is_ok());
        let text2 = "design d\ninput a 8\noutput o 1 = (eq a (const 8 255))\n";
        assert!(parse(text2).is_ok());
    }
}
