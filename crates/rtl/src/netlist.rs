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
//! [`check_name`]: crate::check_name

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::design::{Design, SignalKind, ValidatedDesign};
use crate::error::DesignError;
use crate::expr::{BinaryOp, Expr, ExprId, UnaryOp};

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

/// A content-addressed key for a design: the [`FxHash`](crate::fxhash) of
/// its canonical netlist form ([`dump`]).
///
/// Two designs hash equal exactly when their canonical dumps are
/// byte-identical — same signals in the same creation order with the same
/// drivers — which is the invariant a design-keyed cache needs: everything
/// the detection flow computes (bit-blast, CNF, reports) is a deterministic
/// function of that canonical form.  Textual differences that `parse`
/// normalises away (whitespace, comments, decimal vs hex constants) do not
/// affect the hash of the *parsed* design; any structural change — one gate,
/// one constant bit, one renamed signal — changes it.
///
/// Not a cryptographic hash: collisions are possible in principle, so
/// security-sensitive callers must compare the dumps on a hash hit.
#[must_use]
pub fn content_hash(design: &ValidatedDesign) -> u64 {
    hash_of_dump(&dump(design))
}

/// The [`content_hash`] of an already-serialised canonical netlist:
/// `hash_of_dump(&dump(d)) == content_hash(d)` for every design.  Callers
/// that need both the key and the dump text — e.g. a cache that must compare
/// dumps on a hash hit — pay for one [`dump`] walk instead of two.
#[must_use]
pub fn hash_of_dump(dump: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = crate::fxhash::FxHasher::default();
    hasher.write(dump.as_bytes());
    hasher.finish()
}

impl ValidatedDesign {
    /// The design's content hash: see [`content_hash`].
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        content_hash(self)
    }
}

/// Parses a textual netlist into a validated design.
///
/// # Errors
///
/// Returns [`DesignError::Parse`] (with a line number) for syntax errors,
/// references to undeclared signals, `%N` bindings or `@N` tables, a
/// duplicate `%N` or `@N`, or any builder error (width mismatches, ROM
/// tables that do not fit, invalid names, etc.), and the underlying
/// validation error if the parsed design is incomplete.
pub fn parse(text: &str) -> Result<ValidatedDesign, DesignError> {
    let mut parser: Option<Parser> = None;
    for (index, raw_line) in text.lines().enumerate() {
        let line = index + 1;
        let statement = raw_line.split('#').next().unwrap_or("").trim();
        if statement.is_empty() {
            continue;
        }
        let (keyword, rest) = statement
            .split_once(char::is_whitespace)
            .map_or((statement, ""), |(k, r)| (k, r.trim()));
        let outcome = match (&mut parser, keyword) {
            (None, "design") => crate::check_name("design", rest).map(|()| {
                parser = Some(Parser {
                    design: Design::new(rest),
                    lets: HashMap::new(),
                    tables: HashMap::new(),
                });
            }),
            (Some(_), "design") => Err(syntax("second `design` line")),
            (None, _) => Err(syntax("statement before `design` line")),
            (Some(p), _) => p.statement(keyword, rest),
        };
        outcome.map_err(|e| at_line(e, line))?;
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

/// The `N` of a `%N` binding or an `@N` table.
fn sigil_number(sigil: char, token: &str) -> Result<u32, DesignError> {
    token
        .strip_prefix(sigil)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| syntax(format!("expected `{sigil}N`, found `{token}`")))
}

/// The state of one [`parse`] after its `design` line.  Its maps keep the
/// default hasher: their keys come from outside the program.
struct Parser {
    design: Design,
    /// `let` bindings by number.
    lets: HashMap<u32, ExprId>,
    /// The resident copy of each `table`, by number: interned once, at its
    /// line, and shared by every `rom` that reads it.
    tables: HashMap<u32, Arc<Vec<u128>>>,
}

impl Parser {
    fn statement(&mut self, keyword: &str, rest: &str) -> Result<(), DesignError> {
        match keyword {
            "input" => {
                let [name, width] = words(rest, "input <name> <width>")?;
                self.design.add_input(name, parse_width(width)?)?;
            }
            "register" => {
                let [name, width, reset] = words(rest, "register <name> <width> <reset>")?;
                let (width, reset) = (parse_width(width)?, parse_number(reset)?);
                self.design.add_register(name, width, reset)?;
            }
            "wire" | "output" | "let" => {
                let (header, expr_text) = rest
                    .split_once('=')
                    .ok_or_else(|| syntax("expected `= <expr>`"))?;
                let [name, width] = words(header, "<name> <width> = <expr>")?;
                let width = parse_width(width)?;
                let expr = self.expr(expr_text)?;
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
                } else if self.lets.insert(sigil_number('%', name)?, expr).is_some() {
                    return Err(syntax(format!("duplicate binding `{name}`")));
                }
            }
            "next" => {
                let (name, expr_text) = rest
                    .split_once('=')
                    .ok_or_else(|| syntax("expected `next <register> = <expr>`"))?;
                let reg = self.design.require(name.trim())?;
                let expr = self.expr(expr_text)?;
                self.design.set_register_next(reg, expr)?;
            }
            "table" => {
                let (name, body) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| syntax("expected `table @N (<v0> <v1> …)`"))?;
                let mut tokens = Tokens { rest: body };
                if tokens.next() != Some(Token::Open) {
                    return Err(syntax("expected `(` starting the table"));
                }
                let table = table_entries(&mut tokens)?;
                if tokens.next().is_some() {
                    return Err(syntax("trailing tokens after table"));
                }
                let Entry::Vacant(slot) = self.tables.entry(sigil_number('@', name)?) else {
                    return Err(syntax(format!("duplicate table `{name}`")));
                };
                slot.insert(self.design.intern_table(table));
            }
            other => return Err(syntax(format!("unknown keyword `{other}`"))),
        }
        Ok(())
    }

    /// Parses one whole expression.
    fn expr(&mut self, text: &str) -> Result<ExprId, DesignError> {
        let mut tokens = Tokens { rest: text };
        let expr = self.sexpr(&mut tokens)?;
        if tokens.next().is_some() {
            return Err(syntax("trailing tokens after expression"));
        }
        Ok(expr)
    }

    fn sexpr(&mut self, tokens: &mut Tokens<'_>) -> Result<ExprId, DesignError> {
        match tokens.next() {
            Some(Token::Atom(name)) if name.starts_with('%') => {
                let n = sigil_number('%', name)?;
                self.lets
                    .get(&n)
                    .copied()
                    .ok_or_else(|| syntax(format!("unknown binding `{name}`")))
            }
            Some(Token::Atom(name)) => Ok(self.design.signal(self.design.require(name)?)),
            Some(Token::Open) => {
                let Some(Token::Atom(op)) = tokens.next() else {
                    return Err(syntax("expected operator after `(`"));
                };
                let expr = self.operator(op, tokens)?;
                match tokens.next() {
                    Some(Token::Close) => Ok(expr),
                    _ => Err(syntax(format!("missing `)` after `{op}`"))),
                }
            }
            _ => Err(syntax("unexpected end of expression")),
        }
    }

    fn operator<'a>(&mut self, op: &str, tokens: &mut Tokens<'a>) -> Result<ExprId, DesignError> {
        let literal = |tokens: &mut Tokens<'a>| match tokens.next() {
            Some(Token::Atom(a)) => Ok(a),
            _ => Err(syntax(format!("expected literal argument for `{op}`"))),
        };
        match op {
            "const" => {
                let width = parse_width(literal(tokens)?)?;
                let value = parse_number(literal(tokens)?)?;
                self.design.constant(value, width)
            }
            "slice" => {
                let a = self.sexpr(tokens)?;
                let hi = parse_width(literal(tokens)?)?;
                let lo = parse_width(literal(tokens)?)?;
                self.design.slice(a, hi, lo)
            }
            "rom" => {
                let width = parse_width(literal(tokens)?)?;
                match tokens.next() {
                    Some(Token::Open) => {
                        let table = table_entries(tokens)?;
                        let index = self.sexpr(tokens)?;
                        self.design.rom(table, index, width)
                    }
                    Some(Token::Atom(name)) => {
                        let n = sigil_number('@', name)?;
                        let table = self
                            .tables
                            .get(&n)
                            .cloned()
                            .ok_or_else(|| syntax(format!("unknown table `{name}`")))?;
                        let index = self.sexpr(tokens)?;
                        self.design.rom_interned(table, index, width)
                    }
                    _ => Err(syntax("expected `@N` or `(` after the rom width")),
                }
            }
            "mux" => {
                let c = self.sexpr(tokens)?;
                let t = self.sexpr(tokens)?;
                let e = self.sexpr(tokens)?;
                self.design.mux(c, t, e)
            }
            "concat" => {
                let hi = self.sexpr(tokens)?;
                let lo = self.sexpr(tokens)?;
                self.design.concat(hi, lo)
            }
            _ => {
                if let Some(unary) = UnaryOp::ALL.into_iter().find(|u| u.mnemonic() == op) {
                    let a = self.sexpr(tokens)?;
                    return Ok(self.design.unary(unary, a));
                }
                let Some(binary) = BinaryOp::ALL.into_iter().find(|b| b.mnemonic() == op) else {
                    return Err(syntax(format!("unknown operator `{op}`")));
                };
                let a = self.sexpr(tokens)?;
                let b = self.sexpr(tokens)?;
                self.design.binary(binary, a, b)
            }
        }
    }
}

/// Splits a statement into exactly `N` whitespace-separated words.
fn words<'a, const N: usize>(text: &'a str, expected: &str) -> Result<[&'a str; N], DesignError> {
    let mut words = text.split_whitespace();
    let out = std::array::from_fn(|_| words.next().unwrap_or(""));
    if out.iter().any(|w| w.is_empty()) || words.next().is_some() {
        return Err(syntax(format!("expected `{expected}`")));
    }
    Ok(out)
}

/// The entries of a table literal whose `(` is already consumed, up to and
/// including its `)`.
fn table_entries(tokens: &mut Tokens<'_>) -> Result<Vec<u128>, DesignError> {
    let mut table = Vec::new();
    loop {
        match tokens.next() {
            Some(Token::Atom(a)) => table.push(parse_number(a)?),
            Some(Token::Close) => return Ok(table),
            _ => return Err(syntax("expected `)` ending the rom table")),
        }
    }
}

/// One s-expression token, borrowed from its line.
#[derive(PartialEq)]
enum Token<'a> {
    Open,
    Close,
    Atom(&'a str),
}

/// The tokens of an expression, lexed on demand without allocating.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.rest = self.rest.trim_start();
        let token = match self.rest.as_bytes().first()? {
            b'(' => Token::Open,
            b')' => Token::Close,
            _ => {
                let end = self
                    .rest
                    .find(|c: char| c.is_whitespace() || c == '(' || c == ')')
                    .unwrap_or(self.rest.len());
                let (atom, rest) = self.rest.split_at(end);
                self.rest = rest;
                return Some(Token::Atom(atom));
            }
        };
        self.rest = &self.rest[1..];
        Some(token)
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

    /// Structurally identical designs hash equal (however they were built or
    /// textually formatted), and a one-gate mutation changes the hash.
    #[test]
    fn content_hash_keys_on_structure() {
        let a = counter();
        let b = counter();
        assert_eq!(a.content_hash(), b.content_hash());

        // Textual noise the parser normalises away — comments, blank lines,
        // decimal instead of hex constants — does not perturb the hash of
        // the parsed design.
        let noisy = format!("# a comment\n\n{}", dump(&a).replace("0x0", "0"));
        assert_eq!(parse(&noisy).unwrap().content_hash(), a.content_hash());

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
        assert_ne!(mutated.content_hash(), a.content_hash());

        // The free function, the method and the dump-text form agree.
        assert_eq!(content_hash(&a), a.content_hash());
        assert_eq!(hash_of_dump(&dump(&a)), a.content_hash());
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
    fn hex_and_decimal_numbers_are_accepted() {
        let text = "design d\ninput a 8\noutput o 1 = (eq a (const 8 0xff))\n";
        assert!(parse(text).is_ok());
        let text2 = "design d\ninput a 8\noutput o 1 = (eq a (const 8 255))\n";
        assert!(parse(text2).is_ok());
    }
}
