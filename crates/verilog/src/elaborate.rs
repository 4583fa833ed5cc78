//! Elaboration: lowering a parsed Verilog module onto the word-level
//! [`htd_rtl::Design`] IR.
//!
//! The elaborator implements the synthesizable-subset semantics needed for
//! the Trust-Hub style accelerator benchmarks:
//!
//! * one (implicit) clock domain — every edge-sensitive `always` block is
//!   treated as clocked by the global clock; clock ports disappear from the
//!   IR,
//! * synchronous or asynchronous resets are folded into register initial
//!   values (the detection method never constrains the starting state, so
//!   the reset net itself carries no information for the analysis) and the
//!   reset ports likewise disappear,
//! * nonblocking assignments in clocked blocks become register next-state
//!   functions; `if`/`case` control flow becomes mux trees with
//!   last-assignment-wins semantics,
//! * continuous assignments and combinational `always` blocks become wires,
//! * all vectors are unsigned, two-valued and at most 128 bits wide
//!   ([`htd_rtl::MAX_WIDTH`]).

use std::collections::{HashMap, HashSet};

use htd_rtl::{Design, ExprId, SignalId, ValidatedDesign};

use crate::ast::{
    AlwaysBlock, BinaryOperator, Expression, LValue, Module, NetDecl, NetKind, PortDirection,
    Sensitivity, SourceUnit, Statement, UnaryOperator,
};
use crate::error::{SourceLocation, VerilogError};
use crate::parser::parse;

/// Options controlling elaboration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElaborateOptions {
    /// Name of the top module; when `None` the source must contain exactly
    /// one module.
    pub top: Option<String>,
    /// Port names (lower-cased) recognised as clocks in addition to the
    /// edge-sensitivity analysis.
    pub clock_ports: Vec<String>,
    /// Port names (lower-cased) recognised as resets in addition to the
    /// reset-branch analysis.
    pub reset_ports: Vec<String>,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        ElaborateOptions {
            top: None,
            clock_ports: vec!["clk".into(), "clock".into(), "i_clk".into(), "clk_i".into()],
            reset_ports: vec![
                "rst".into(),
                "reset".into(),
                "rst_n".into(),
                "resetn".into(),
                "nreset".into(),
                "i_rst".into(),
                "rst_i".into(),
            ],
        }
    }
}

/// Parses and elaborates Verilog source text with default options.
///
/// # Errors
///
/// Returns the first lexical, syntactic or elaboration error.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), htd_verilog::VerilogError> {
/// let design = htd_verilog::compile(
///     "module acc(input clk, input rst, input [7:0] d, output [7:0] q);
///        reg [7:0] total;
///        always @(posedge clk) begin
///          if (rst) total <= 8'd0;
///          else     total <= total + d;
///        end
///        assign q = total;
///      endmodule",
/// )?;
/// assert_eq!(design.design().name(), "acc");
/// assert_eq!(design.design().registers().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(source: &str) -> Result<ValidatedDesign, VerilogError> {
    compile_with_options(source, &ElaborateOptions::default())
}

/// Parses and elaborates Verilog source text with explicit options.
///
/// # Errors
///
/// Returns the first lexical, syntactic or elaboration error.
pub fn compile_with_options(
    source: &str,
    options: &ElaborateOptions,
) -> Result<ValidatedDesign, VerilogError> {
    let unit = parse(source)?;
    elaborate(&unit, options)
}

/// Elaborates an already-parsed [`SourceUnit`].
///
/// # Errors
///
/// Returns an elaboration error (undeclared names, unsupported constructs,
/// width problems, …).
pub fn elaborate(
    unit: &SourceUnit,
    options: &ElaborateOptions,
) -> Result<ValidatedDesign, VerilogError> {
    let module = match &options.top {
        Some(top) => unit
            .modules
            .iter()
            .find(|m| &m.name == top)
            .ok_or_else(|| VerilogError::UnknownModule { name: top.clone() })?,
        None => {
            if unit.modules.len() == 1 {
                &unit.modules[0]
            } else {
                return Err(VerilogError::Unsupported {
                    construct: "multiple modules without a top-module selection".to_string(),
                    location: unit.modules[1].location,
                });
            }
        }
    };
    Elaborator::new(module, options)?.run()
}

/// Width and offset of a declared vector.
#[derive(Clone, Copy, Debug)]
struct VectorShape {
    width: u32,
    lsb: u32,
}

/// How a name is driven.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DriverKind {
    /// A primary input port.
    Input,
    /// Assigned with `<=`/`=` inside a clocked `always` block.
    Register { block: usize },
    /// Driven by continuous assignments (possibly several partial ones).
    Continuous,
    /// Assigned inside a combinational `always` block.
    Combinational { block: usize },
}

/// One partial continuous drive of a vector: the (msb, lsb) slice of the
/// target covered, the right-hand side, and the width context in which the
/// right-hand side is evaluated (Verilog's context-determined sizing: in
/// `assign {c, s} = a + b;` the addition is as wide as the whole target).
#[derive(Clone, Debug)]
struct PartialDrive {
    msb: u32,
    lsb: u32,
    value: Expression,
    context_width: u32,
}

struct Elaborator<'a> {
    module: &'a Module,
    options: &'a ElaborateOptions,
    design: Design,
    parameters: HashMap<String, u128>,
    shapes: HashMap<String, VectorShape>,
    directions: HashMap<String, PortDirection>,
    declared: HashSet<String>,
    drivers: HashMap<String, DriverKind>,
    continuous: HashMap<String, Vec<PartialDrive>>,
    clock_signals: HashSet<String>,
    /// Reset name → value it takes when *deasserted* (0 for active-high, 1
    /// for active-low).
    reset_signals: HashMap<String, u128>,
    inputs: HashMap<String, SignalId>,
    registers: HashMap<String, SignalId>,
    /// Lazily elaborated combinational values.
    comb_values: HashMap<String, ExprId>,
    /// Names currently being elaborated (combinational-loop detection).
    in_progress: Vec<String>,
    /// The registers the clocked block being elaborated assigns with `<=`:
    /// every read of them sees the time-t value.
    nonblocking: Vec<String>,
}

impl<'a> Elaborator<'a> {
    fn new(module: &'a Module, options: &'a ElaborateOptions) -> Result<Self, VerilogError> {
        htd_rtl::check_name("design", &module.name)?;
        Ok(Elaborator {
            module,
            options,
            design: Design::new(module.name.clone()),
            parameters: HashMap::new(),
            shapes: HashMap::new(),
            directions: HashMap::new(),
            declared: HashSet::new(),
            drivers: HashMap::new(),
            continuous: HashMap::new(),
            clock_signals: HashSet::new(),
            reset_signals: HashMap::new(),
            inputs: HashMap::new(),
            registers: HashMap::new(),
            comb_values: HashMap::new(),
            in_progress: Vec::new(),
            nonblocking: Vec::new(),
        })
    }

    fn run(mut self) -> Result<ValidatedDesign, VerilogError> {
        self.evaluate_parameters()?;
        self.collect_declarations()?;
        self.classify_clocks_and_resets()?;
        self.collect_drivers()?;
        self.create_inputs()?;
        self.create_registers()?;
        self.elaborate_clocked_blocks()?;
        self.elaborate_outputs()?;
        let design = std::mem::replace(&mut self.design, Design::new("done"));
        Ok(design.validated()?)
    }

    // ------------------------------------------------------------------
    // Pass 1: parameters and declarations
    // ------------------------------------------------------------------

    fn evaluate_parameters(&mut self) -> Result<(), VerilogError> {
        for p in &self.module.parameters {
            let value = self.const_eval(&p.value, "a parameter value")?;
            self.parameters.insert(p.name.clone(), value);
        }
        Ok(())
    }

    fn collect_declarations(&mut self) -> Result<(), VerilogError> {
        for decl in &self.module.declarations {
            self.add_declaration(decl)?;
        }
        // Port names listed in the header but never declared in the body are
        // an error we report eagerly with the module location.
        for port in &self.module.ports {
            if !self.declared.contains(port) {
                return Err(VerilogError::UndeclaredIdentifier {
                    name: port.clone(),
                    location: self.module.location,
                });
            }
        }
        Ok(())
    }

    fn add_declaration(&mut self, decl: &NetDecl) -> Result<(), VerilogError> {
        let shape = match &decl.range {
            Some((msb, lsb)) => {
                let msb = u32::try_from(self.const_eval(msb, "a range bound")?).unwrap_or(u32::MAX);
                let lsb = u32::try_from(self.const_eval(lsb, "a range bound")?).unwrap_or(u32::MAX);
                if msb < lsb {
                    return Err(VerilogError::Unsupported {
                        construct: format!("descending range [{msb}:{lsb}] of `{}`", decl.name),
                        location: decl.location,
                    });
                }
                VectorShape {
                    width: msb - lsb + 1,
                    lsb,
                }
            }
            None => match decl.kind {
                NetKind::Integer => VectorShape { width: 32, lsb: 0 },
                _ => VectorShape { width: 1, lsb: 0 },
            },
        };
        if let Some(direction) = decl.direction {
            if direction == PortDirection::Inout {
                return Err(VerilogError::Unsupported {
                    construct: format!("inout port `{}`", decl.name),
                    location: decl.location,
                });
            }
            self.directions.insert(decl.name.clone(), direction);
        }
        match self.shapes.get(&decl.name) {
            Some(existing) => {
                // Non-ANSI style declares a port twice (`output [7:0] y;` and
                // `reg [7:0] y;`); the shapes must agree, wider information
                // wins over the default scalar shape.
                if decl.range.is_some() && existing.width == 1 && shape.width != 1 {
                    self.shapes.insert(decl.name.clone(), shape);
                } else if decl.range.is_some()
                    && existing.width != 1
                    && shape.width != existing.width
                {
                    return Err(VerilogError::DuplicateDeclaration {
                        name: decl.name.clone(),
                        location: decl.location,
                    });
                }
            }
            None => {
                self.shapes.insert(decl.name.clone(), shape);
            }
        }
        self.declared.insert(decl.name.clone());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pass 2: clock / reset classification
    // ------------------------------------------------------------------

    fn classify_clocks_and_resets(&mut self) -> Result<(), VerilogError> {
        for block in &self.module.always_blocks {
            let Sensitivity::Edges(edges) = &block.sensitivity else {
                continue;
            };
            if edges.is_empty() {
                continue;
            }
            // Which edge signal is tested by an outer reset `if`?
            let mut reset_name: Option<String> = None;
            if let Some(analysis) = analyze_reset(block) {
                let is_edge = edges.iter().any(|e| e.signal == analysis.name);
                let in_list = self
                    .options
                    .reset_ports
                    .contains(&analysis.name.to_lowercase());
                if is_edge || in_list {
                    let deasserted = if analysis.active_low { 1 } else { 0 };
                    self.reset_signals.insert(analysis.name.clone(), deasserted);
                    reset_name = Some(analysis.name);
                }
            }
            // Every other edge signal is a clock.
            for e in edges {
                if Some(&e.signal) != reset_name.as_ref() {
                    self.clock_signals.insert(e.signal.clone());
                }
            }
        }
        // Ports named like clocks are clocks even if no always block uses
        // them (e.g. dead clock inputs of a benchmark wrapper).
        for port in &self.module.ports {
            if self.options.clock_ports.contains(&port.to_lowercase()) {
                self.clock_signals.insert(port.clone());
            }
        }
        // A signal cannot be both clock and reset.
        for name in self.reset_signals.keys() {
            if self.clock_signals.contains(name) {
                return Err(VerilogError::Unsupported {
                    construct: format!("`{name}` is used both as a clock and as a reset"),
                    location: self.module.location,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pass 3: driver classification
    // ------------------------------------------------------------------

    fn collect_drivers(&mut self) -> Result<(), VerilogError> {
        for port in &self.module.ports {
            if self.directions.get(port) == Some(&PortDirection::Input) {
                self.drivers.insert(port.clone(), DriverKind::Input);
            }
        }
        for (index, block) in self.module.always_blocks.iter().enumerate() {
            let clocked = matches!(block.sensitivity, Sensitivity::Edges(_));
            let mut targets = Vec::new();
            collect_assigned_names(&block.body, false, &mut targets);
            for name in targets {
                if !self.declared.contains(&name) {
                    return Err(VerilogError::UndeclaredIdentifier {
                        name,
                        location: block.location,
                    });
                }
                let kind = if clocked {
                    DriverKind::Register { block: index }
                } else {
                    DriverKind::Combinational { block: index }
                };
                match self.drivers.get(&name) {
                    None => {
                        self.drivers.insert(name, kind);
                    }
                    Some(existing) if *existing == kind => {}
                    Some(_) => return Err(VerilogError::MultipleDrivers { name }),
                }
            }
        }
        for assign in &self.module.assigns {
            self.collect_continuous_target(&assign.target, &assign.value, None)?;
        }
        Ok(())
    }

    fn collect_continuous_target(
        &mut self,
        target: &LValue,
        value: &Expression,
        context_width: Option<u32>,
    ) -> Result<(), VerilogError> {
        match target {
            LValue::Identifier { name, location } => {
                let shape = self.shape_of(name, *location)?;
                let ctx = context_width.unwrap_or(shape.width);
                self.push_continuous(
                    name,
                    shape.width - 1 + shape.lsb,
                    shape.lsb,
                    value.clone(),
                    ctx,
                    *location,
                )
            }
            LValue::Bit {
                name,
                index,
                location,
            } => {
                let bit = u32::try_from(self.const_eval(index, "a bit-select target index")?)
                    .unwrap_or(u32::MAX);
                self.push_continuous(
                    name,
                    bit,
                    bit,
                    value.clone(),
                    context_width.unwrap_or(1),
                    *location,
                )
            }
            LValue::Part {
                name,
                msb,
                lsb,
                location,
            } => {
                let msb =
                    u32::try_from(self.const_eval(msb, "a part-select bound")?).unwrap_or(u32::MAX);
                let lsb =
                    u32::try_from(self.const_eval(lsb, "a part-select bound")?).unwrap_or(u32::MAX);
                let ctx = context_width.unwrap_or(msb.saturating_sub(lsb) + 1);
                self.push_continuous(name, msb, lsb, value.clone(), ctx, *location)
            }
            LValue::Concat { parts, location } => {
                // `assign {hi, lo} = expr;` — slice the right-hand side; the
                // right-hand side is evaluated as wide as the whole target.
                let mut offsets = Vec::new();
                let mut total = 0u32;
                for part in parts.iter().rev() {
                    let width = self.lvalue_width(part)?;
                    offsets.push((part, total));
                    total += width;
                }
                for (part, offset) in offsets {
                    let shifted = Expression::Binary {
                        op: BinaryOperator::ShiftRight,
                        left: Box::new(value.clone()),
                        right: Box::new(number(u128::from(offset), *location)),
                        location: *location,
                    };
                    self.collect_continuous_target(part, &shifted, Some(total))?;
                }
                Ok(())
            }
        }
    }

    fn push_continuous(
        &mut self,
        name: &str,
        msb: u32,
        lsb: u32,
        value: Expression,
        context_width: u32,
        location: SourceLocation,
    ) -> Result<(), VerilogError> {
        if !self.declared.contains(name) {
            return Err(VerilogError::UndeclaredIdentifier {
                name: name.to_string(),
                location,
            });
        }
        match self.drivers.get(name) {
            None => {
                self.drivers
                    .insert(name.to_string(), DriverKind::Continuous);
            }
            Some(DriverKind::Continuous) => {}
            Some(_) => {
                return Err(VerilogError::MultipleDrivers {
                    name: name.to_string(),
                })
            }
        }
        let entry = self.continuous.entry(name.to_string()).or_default();
        if entry.iter().any(|p| msb >= p.lsb && p.msb >= lsb) {
            return Err(VerilogError::MultipleDrivers {
                name: name.to_string(),
            });
        }
        entry.push(PartialDrive {
            msb,
            lsb,
            value,
            context_width,
        });
        Ok(())
    }

    fn lvalue_width(&mut self, target: &LValue) -> Result<u32, VerilogError> {
        Ok(match target {
            LValue::Identifier { name, location } => self.shape_of(name, *location)?.width,
            LValue::Bit { .. } => 1,
            LValue::Part { msb, lsb, .. } => {
                let msb = self.const_eval(msb, "a part-select bound")?;
                let lsb = self.const_eval(lsb, "a part-select bound")?;
                u32::try_from(msb.saturating_sub(lsb) + 1).unwrap_or(1)
            }
            LValue::Concat { parts, .. } => {
                let mut total = 0;
                for p in parts {
                    total += self.lvalue_width(p)?;
                }
                total
            }
        })
    }

    // ------------------------------------------------------------------
    // Pass 4: IR construction
    // ------------------------------------------------------------------

    fn create_inputs(&mut self) -> Result<(), VerilogError> {
        for port in &self.module.ports {
            if self.directions.get(port) != Some(&PortDirection::Input) {
                continue;
            }
            if self.clock_signals.contains(port) || self.reset_signals.contains_key(port) {
                continue;
            }
            let shape = self.shape_of(port, self.module.location)?;
            let id = self.design.add_input(port.clone(), shape.width)?;
            self.inputs.insert(port.clone(), id);
        }
        Ok(())
    }

    fn create_registers(&mut self) -> Result<(), VerilogError> {
        // Determine reset values first so registers get the right initial
        // value.
        let mut reset_values: HashMap<String, u128> = HashMap::new();
        for block in &self.module.always_blocks {
            if !matches!(block.sensitivity, Sensitivity::Edges(_)) {
                continue;
            }
            if let Some(analysis) = analyze_reset(block) {
                if self.reset_signals.contains_key(&analysis.name) {
                    let (reset_branch, _) =
                        split_reset_branches(&block.body, analysis.reset_branch_is_then);
                    self.collect_reset_values(reset_branch, &mut reset_values)?;
                }
            }
        }
        let names: Vec<String> = self
            .drivers
            .iter()
            .filter(|(_, kind)| matches!(kind, DriverKind::Register { .. }))
            .map(|(name, _)| name.clone())
            .collect();
        let mut sorted = names;
        sorted.sort();
        for name in sorted {
            let shape = self.shape_of(&name, self.module.location)?;
            let init = reset_values.get(&name).copied().unwrap_or(0) & mask_bits(shape.width);
            let ir_name = self.register_ir_name(&name);
            let id = self.design.add_register(ir_name, shape.width, init)?;
            self.registers.insert(name.clone(), id);
        }
        Ok(())
    }

    /// Output ports that are procedural registers keep the port name for the
    /// IR output and get a `_reg` suffix for the register itself (like a
    /// synthesis tool would).
    fn register_ir_name(&self, name: &str) -> String {
        if self.directions.get(name) == Some(&PortDirection::Output) {
            format!("{name}_reg")
        } else {
            name.to_string()
        }
    }

    fn collect_reset_values(
        &mut self,
        stmt: &Statement,
        values: &mut HashMap<String, u128>,
    ) -> Result<(), VerilogError> {
        match stmt {
            Statement::Block(stmts) => {
                for s in stmts {
                    self.collect_reset_values(s, values)?;
                }
                Ok(())
            }
            Statement::Assign { target, value, .. } => {
                let LValue::Identifier { name, .. } = target else {
                    // Partial resets are folded to zero-initialised registers.
                    return Ok(());
                };
                let name = name.clone();
                match self.const_eval(value, "a reset value") {
                    Ok(v) => {
                        values.insert(name, v);
                        Ok(())
                    }
                    Err(_) => Err(VerilogError::NonConstantReset { name }),
                }
            }
            Statement::If { .. } | Statement::Case { .. } | Statement::Empty => Ok(()),
        }
    }

    fn elaborate_clocked_blocks(&mut self) -> Result<(), VerilogError> {
        for (index, block) in self.module.always_blocks.iter().enumerate() {
            if !matches!(block.sensitivity, Sensitivity::Edges(_)) {
                continue;
            }
            // Strip the reset branch: the functional body is the non-reset
            // path; reset values have already been captured as initial
            // values.
            let body = match analyze_reset(block) {
                Some(analysis) if self.reset_signals.contains_key(&analysis.name) => {
                    let (_, functional) =
                        split_reset_branches(&block.body, analysis.reset_branch_is_then);
                    functional.cloned().unwrap_or(Statement::Empty)
                }
                _ => block.body.clone(),
            };
            // Current-value environment: every register assigned in this
            // block starts out holding its time-t value.
            let mut env: HashMap<String, ExprId> = HashMap::new();
            let mut targets = Vec::new();
            collect_assigned_names(&body, false, &mut targets);
            for name in &targets {
                if let Some(DriverKind::Register { block: b }) = self.drivers.get(name) {
                    if *b != index {
                        return Err(VerilogError::MultipleDrivers { name: name.clone() });
                    }
                    let reg = self.registers[name];
                    env.insert(name.clone(), self.design.signal(reg));
                } else {
                    return Err(VerilogError::MultipleDrivers { name: name.clone() });
                }
            }
            collect_assigned_names(&body, true, &mut self.nonblocking);
            self.execute_statement(&body, &mut env)?;
            self.nonblocking.clear();
            for (name, next) in env {
                let reg = self.registers[&name];
                let shape = self.shape_of(&name, block.location)?;
                let coerced = self.coerce(next, shape.width)?;
                self.design.set_register_next(reg, coerced)?;
            }
        }
        // Registers that belong to clocked blocks whose body is entirely a
        // reset branch (degenerate but legal) keep their value.
        let holds: Vec<(String, SignalId)> = self
            .registers
            .iter()
            .filter(|(_, id)| self.design.signal_info(**id).driver().is_none())
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        for (_, id) in holds {
            let hold = self.design.signal(id);
            self.design.set_register_next(id, hold)?;
        }
        Ok(())
    }

    /// Executes one statement symbolically, updating the current-value
    /// environment.
    fn execute_statement(
        &mut self,
        stmt: &Statement,
        env: &mut HashMap<String, ExprId>,
    ) -> Result<(), VerilogError> {
        match stmt {
            Statement::Empty => Ok(()),
            Statement::Block(stmts) => {
                for s in stmts {
                    self.execute_statement(s, env)?;
                }
                Ok(())
            }
            Statement::Assign { target, value, .. } => {
                let ctx = Some(self.lvalue_width(target)?);
                let rhs = self.expression(value, env, ctx)?;
                self.assign_lvalue(target, rhs, env)
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                let cond = self.boolean_expr(condition, env)?;
                let mut then_env = env.clone();
                self.execute_statement(then_branch, &mut then_env)?;
                let mut else_env = env.clone();
                if let Some(else_branch) = else_branch {
                    self.execute_statement(else_branch, &mut else_env)?;
                }
                self.merge_envs(cond, then_env, else_env, env)
            }
            Statement::Case { subject, arms } => {
                let subject_expr = self.expression(subject, env, None)?;
                // Build the if-else chain from the last arm backwards.
                let mut result_env = env.clone();
                let default_arm = arms.iter().find(|a| a.labels.is_empty());
                if let Some(default_arm) = default_arm {
                    self.execute_statement(&default_arm.body, &mut result_env)?;
                }
                for arm in arms.iter().rev() {
                    if arm.labels.is_empty() {
                        continue;
                    }
                    let mut arm_env = env.clone();
                    self.execute_statement(&arm.body, &mut arm_env)?;
                    let cond = self.case_match(subject_expr, &arm.labels, env)?;
                    let base_env = result_env.clone();
                    self.merge_envs(cond, arm_env, base_env, &mut result_env)?;
                }
                *env = result_env;
                Ok(())
            }
        }
    }

    fn case_match(
        &mut self,
        subject: ExprId,
        labels: &[Expression],
        env: &HashMap<String, ExprId>,
    ) -> Result<ExprId, VerilogError> {
        let subject_width = self.design.expr_width(subject);
        let mut cond: Option<ExprId> = None;
        for label in labels {
            let label_expr = self.expression(label, env, Some(subject_width))?;
            let (a, b) = self.same_width(subject, label_expr)?;
            let eq = self.design.cmp_eq(a, b)?;
            cond = Some(match cond {
                None => eq,
                Some(c) => self.design.or(c, eq)?,
            });
        }
        Ok(cond.expect("case arms have at least one label"))
    }

    fn merge_envs(
        &mut self,
        cond: ExprId,
        then_env: HashMap<String, ExprId>,
        else_env: HashMap<String, ExprId>,
        out: &mut HashMap<String, ExprId>,
    ) -> Result<(), VerilogError> {
        let mut names: HashSet<String> = HashSet::new();
        names.extend(then_env.keys().cloned());
        names.extend(else_env.keys().cloned());
        for name in names {
            let then_val = then_env.get(&name).copied();
            let else_val = else_env.get(&name).copied();
            let merged = match (then_val, else_val) {
                (Some(t), Some(e)) if t == e => t,
                (Some(t), Some(e)) => {
                    let (t, e) = self.same_width(t, e)?;
                    self.design.mux(cond, t, e)?
                }
                // Only one branch assigns the variable and there is no prior
                // value to fall back to (the environments are clones of the
                // pre-branch state, so a prior value would appear in both):
                // inside a clocked block this cannot happen, inside a
                // combinational block it is an inferred latch unless a later
                // unconditional assignment overwrites it — leave the variable
                // unassigned so the end-of-block check catches it.
                (Some(_), None) | (None, Some(_)) | (None, None) => continue,
            };
            out.insert(name, merged);
        }
        Ok(())
    }

    fn assign_lvalue(
        &mut self,
        target: &LValue,
        rhs: ExprId,
        env: &mut HashMap<String, ExprId>,
    ) -> Result<(), VerilogError> {
        match target {
            LValue::Identifier { name, location } => {
                let shape = self.shape_of(name, *location)?;
                let value = self.coerce(rhs, shape.width)?;
                if self.parameters.contains_key(name)
                    || matches!(self.drivers.get(name), Some(DriverKind::Input))
                {
                    return Err(VerilogError::InvalidAssignmentTarget {
                        name: name.clone(),
                        location: *location,
                    });
                }
                env.insert(name.clone(), value);
                Ok(())
            }
            LValue::Bit {
                name,
                index,
                location,
            } => {
                let bit = self.const_eval(index, "a procedural bit-select index")?;
                let bit = u32::try_from(bit).unwrap_or(u32::MAX);
                self.assign_slice(name, bit, bit, rhs, env, *location)
            }
            LValue::Part {
                name,
                msb,
                lsb,
                location,
            } => {
                let msb = u32::try_from(self.const_eval(msb, "a part-select bound")?).unwrap_or(0);
                let lsb = u32::try_from(self.const_eval(lsb, "a part-select bound")?).unwrap_or(0);
                self.assign_slice(name, msb, lsb, rhs, env, *location)
            }
            LValue::Concat { parts, location } => {
                // Assign slices of the RHS to each part, least significant
                // part last.
                let mut widths = Vec::new();
                for part in parts {
                    widths.push(self.lvalue_width(part)?);
                }
                let rhs_width = self.design.expr_width(rhs);
                let total: u32 = widths.iter().sum();
                let padded = self.coerce(rhs, total.max(rhs_width))?;
                let mut offset = total;
                for (part, width) in parts.iter().zip(widths) {
                    offset -= width;
                    let slice = self.design.slice(padded, offset + width - 1, offset)?;
                    self.assign_lvalue(part, slice, env)?;
                }
                let _ = location;
                Ok(())
            }
        }
    }

    fn assign_slice(
        &mut self,
        name: &str,
        msb: u32,
        lsb: u32,
        rhs: ExprId,
        env: &mut HashMap<String, ExprId>,
        location: SourceLocation,
    ) -> Result<(), VerilogError> {
        let shape = self.shape_of(name, location)?;
        let current = *env
            .get(name)
            .ok_or_else(|| VerilogError::InvalidAssignmentTarget {
                name: name.to_string(),
                location,
            })?;
        let hi = msb.saturating_sub(shape.lsb);
        let lo = lsb.saturating_sub(shape.lsb);
        let width = hi - lo + 1;
        let part = self.coerce(rhs, width)?;
        // Rebuild the word from (above | part | below).
        let mut pieces: Vec<ExprId> = Vec::new();
        if hi < shape.width - 1 {
            pieces.push(self.design.slice(current, shape.width - 1, hi + 1)?);
        }
        pieces.push(part);
        if lo > 0 {
            pieces.push(self.design.slice(current, lo - 1, 0)?);
        }
        let rebuilt = self.design.concat_all(&pieces)?;
        env.insert(name.to_string(), rebuilt);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Outputs and combinational resolution
    // ------------------------------------------------------------------

    fn elaborate_outputs(&mut self) -> Result<(), VerilogError> {
        for port in &self.module.ports.clone() {
            if self.directions.get(port) != Some(&PortDirection::Output) {
                continue;
            }
            let value = self.resolve(port, self.module.location)?;
            let shape = self.shape_of(port, self.module.location)?;
            let value = self.coerce(value, shape.width)?;
            self.design.add_output(port.clone(), value)?;
        }
        Ok(())
    }

    /// Resolves the value of a named signal (input, register, parameter or
    /// combinational net), elaborating combinational logic on demand.
    fn resolve(&mut self, name: &str, location: SourceLocation) -> Result<ExprId, VerilogError> {
        if let Some(&id) = self.inputs.get(name) {
            return Ok(self.design.signal(id));
        }
        if let Some(&id) = self.registers.get(name) {
            return Ok(self.design.signal(id));
        }
        if let Some(&value) = self.parameters.get(name) {
            let width = bits_needed(value).max(32);
            return Ok(self.design.constant(value, width)?);
        }
        if self.clock_signals.contains(name) {
            return Err(VerilogError::Unsupported {
                construct: format!("clock `{name}` used in an expression"),
                location,
            });
        }
        if let Some(&deasserted) = self.reset_signals.get(name) {
            // Resets are folded away; outside the reset branch they read as
            // deasserted.
            return Ok(self.design.constant(deasserted, 1)?);
        }
        if let Some(&cached) = self.comb_values.get(name) {
            return Ok(cached);
        }
        if !self.declared.contains(name) {
            return Err(VerilogError::UndeclaredIdentifier {
                name: name.to_string(),
                location,
            });
        }
        if self.in_progress.iter().any(|n| n == name) {
            return Err(VerilogError::CombinationalLoop {
                name: name.to_string(),
            });
        }
        self.in_progress.push(name.to_string());
        let result = self.resolve_combinational(name, location);
        self.in_progress.pop();
        let value = result?;
        self.comb_values.insert(name.to_string(), value);
        Ok(value)
    }

    fn resolve_combinational(
        &mut self,
        name: &str,
        location: SourceLocation,
    ) -> Result<ExprId, VerilogError> {
        let shape = self.shape_of(name, location)?;
        match self.drivers.get(name).cloned() {
            Some(DriverKind::Continuous) => {
                let drives = self.continuous.get(name).cloned().unwrap_or_default();
                let empty = HashMap::new();
                // Assemble the word from the partial drives (uncovered bits
                // read as zero).
                let mut word: Option<ExprId> = None;
                for drive in drives {
                    let value = self.expression(&drive.value, &empty, Some(drive.context_width))?;
                    let width = drive.msb - drive.lsb + 1;
                    let value = self.coerce(value, width)?;
                    let placed = if drive.lsb > shape.lsb {
                        let shift = drive.lsb - shape.lsb;
                        let wide = self.coerce(value, shape.width)?;
                        let amount = self.design.constant(u128::from(shift), shape.width)?;
                        self.design.shl(wide, amount)?
                    } else {
                        self.coerce(value, shape.width)?
                    };
                    word = Some(match word {
                        None => placed,
                        Some(w) => self.design.or(w, placed)?,
                    });
                }
                word.ok_or_else(|| VerilogError::Unsupported {
                    construct: format!("`{name}` is read but never driven"),
                    location,
                })
            }
            Some(DriverKind::Combinational { block }) => {
                let block = self.module.always_blocks[block].clone();
                let mut env: HashMap<String, ExprId> = HashMap::new();
                self.execute_statement(&block.body, &mut env)?;
                // Cache every variable the block fully assigns.
                let mut targets = Vec::new();
                collect_assigned_names(&block.body, false, &mut targets);
                for target in &targets {
                    match env.get(target) {
                        Some(&value) => {
                            let width = self.shape_of(target, block.location)?.width;
                            let value = self.coerce(value, width)?;
                            self.comb_values.insert(target.clone(), value);
                        }
                        None => {
                            return Err(VerilogError::InferredLatch {
                                name: target.clone(),
                            })
                        }
                    }
                }
                self.comb_values
                    .get(name)
                    .copied()
                    .ok_or_else(|| VerilogError::InferredLatch {
                        name: name.to_string(),
                    })
            }
            Some(DriverKind::Input) | Some(DriverKind::Register { .. }) | None => {
                Err(VerilogError::Unsupported {
                    construct: format!("`{name}` is read but never driven"),
                    location,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Elaborates an expression.  `env` supplies the in-flight procedural
    /// values of registers/variables inside an always block; names not in the
    /// environment fall back to [`Self::resolve`].
    ///
    /// `ctx` is the context width of the expression (the width of the
    /// assignment target it feeds), which Verilog propagates into arithmetic
    /// and bitwise operands so that e.g. `{carry, sum} = a + b` keeps the
    /// carry bit.
    fn expression(
        &mut self,
        expr: &Expression,
        env: &HashMap<String, ExprId>,
        ctx: Option<u32>,
    ) -> Result<ExprId, VerilogError> {
        match expr {
            Expression::Number { value, location: _ } => {
                let width = value
                    .width
                    .unwrap_or_else(|| bits_needed(value.value).max(32));
                Ok(self
                    .design
                    .constant(value.value & mask_bits(width), width)?)
            }
            Expression::Identifier { name, location } => self.read_name(name, env, *location),
            Expression::BitSelect {
                name,
                index,
                location,
            } => {
                let base = self.read_name(name, env, *location)?;
                let shape = self.shape_of_or_value(name, base, *location);
                match self.const_eval(index, "a bit-select index") {
                    Ok(i) => {
                        let i = u32::try_from(i).unwrap_or(u32::MAX);
                        let bit = i.saturating_sub(shape.lsb);
                        Ok(self.design.slice(base, bit, bit)?)
                    }
                    Err(_) => {
                        // Dynamic bit select: shift right then take bit 0.
                        let idx = self.expression(index, env, None)?;
                        let base_width = self.design.expr_width(base);
                        let idx = self.coerce(idx, base_width)?;
                        let idx = if shape.lsb > 0 {
                            let offset = self.design.constant(u128::from(shape.lsb), base_width)?;
                            self.design.sub(idx, offset)?
                        } else {
                            idx
                        };
                        let shifted = self.design.shr(base, idx)?;
                        Ok(self.design.slice(shifted, 0, 0)?)
                    }
                }
            }
            Expression::PartSelect {
                name,
                msb,
                lsb,
                location,
            } => {
                let base = self.read_name(name, env, *location)?;
                let shape = self.shape_of_or_value(name, base, *location);
                let msb = u32::try_from(self.const_eval(msb, "a part-select bound")?).unwrap_or(0);
                let lsb = u32::try_from(self.const_eval(lsb, "a part-select bound")?).unwrap_or(0);
                let hi = msb.saturating_sub(shape.lsb);
                let lo = lsb.saturating_sub(shape.lsb);
                Ok(self.design.slice(base, hi, lo)?)
            }
            Expression::Unary {
                op,
                operand,
                location: _,
            } => {
                let operand_ctx = match op {
                    UnaryOperator::BitNot | UnaryOperator::Negate => ctx,
                    _ => None,
                };
                let value = self.expression(operand, env, operand_ctx)?;
                let value = match op {
                    UnaryOperator::BitNot | UnaryOperator::Negate => {
                        let w = self.design.expr_width(value).max(ctx.unwrap_or(0));
                        self.coerce(value, w)?
                    }
                    _ => value,
                };
                Ok(match op {
                    UnaryOperator::BitNot => self.design.not(value),
                    UnaryOperator::Negate => self.design.neg(value),
                    UnaryOperator::LogicalNot => {
                        let b = self.design.red_or(value);
                        self.design.not(b)
                    }
                    UnaryOperator::ReduceAnd => self.design.red_and(value),
                    UnaryOperator::ReduceOr => self.design.red_or(value),
                    UnaryOperator::ReduceXor => self.design.red_xor(value),
                    UnaryOperator::ReduceNand => {
                        let r = self.design.red_and(value);
                        self.design.not(r)
                    }
                    UnaryOperator::ReduceNor => {
                        let r = self.design.red_or(value);
                        self.design.not(r)
                    }
                    UnaryOperator::ReduceXnor => {
                        let r = self.design.red_xor(value);
                        self.design.not(r)
                    }
                })
            }
            Expression::Binary {
                op,
                left,
                right,
                location: _,
            } => {
                use BinaryOperator as B;
                match op {
                    B::And | B::Or | B::Xor | B::Xnor | B::Add | B::Sub | B::Mul => {
                        let l = self.expression(left, env, ctx)?;
                        let r = self.expression(right, env, ctx)?;
                        let w = self
                            .design
                            .expr_width(l)
                            .max(self.design.expr_width(r))
                            .max(ctx.unwrap_or(0));
                        let l = self.coerce(l, w)?;
                        let r = self.coerce(r, w)?;
                        self.binary(*op, l, r)
                    }
                    B::ShiftLeft | B::ShiftRight => {
                        let l = self.expression(left, env, ctx)?;
                        let w = self.design.expr_width(l).max(ctx.unwrap_or(0));
                        let l = self.coerce(l, w)?;
                        let r = self.expression(right, env, None)?;
                        self.binary(*op, l, r)
                    }
                    _ => {
                        let l = self.expression(left, env, None)?;
                        let r = self.expression(right, env, None)?;
                        self.binary(*op, l, r)
                    }
                }
            }
            Expression::Conditional {
                condition,
                then_value,
                else_value,
                location: _,
            } => {
                let cond = self.boolean_expr(condition, env)?;
                let t = self.expression(then_value, env, ctx)?;
                let e = self.expression(else_value, env, ctx)?;
                let (t, e) = self.same_width(t, e)?;
                Ok(self.design.mux(cond, t, e)?)
            }
            Expression::Concat { parts, location: _ } => {
                let mut ids = Vec::new();
                for part in parts {
                    ids.push(self.expression(part, env, None)?);
                }
                Ok(self.design.concat_all(&ids)?)
            }
            Expression::Repeat {
                count,
                value,
                location,
            } => {
                let n = self.const_eval(count, "a replication count")?;
                if n == 0 || n > 128 {
                    return Err(VerilogError::NotConstant {
                        context: "a replication count in 1..=128".to_string(),
                        location: *location,
                    });
                }
                let v = self.expression(value, env, None)?;
                let copies: Vec<ExprId> = (0..n).map(|_| v).collect();
                Ok(self.design.concat_all(&copies)?)
            }
        }
    }

    fn read_name(
        &mut self,
        name: &str,
        env: &HashMap<String, ExprId>,
        location: SourceLocation,
    ) -> Result<ExprId, VerilogError> {
        // A register this block assigns with `<=` reads as its time-t value
        // (nonblocking assignments all update at the clock edge); any other
        // name a statement assigned earlier reads as that value.
        if !self.nonblocking.iter().any(|n| n == name) {
            if let Some(&value) = env.get(name) {
                return Ok(value);
            }
        }
        // Inside clocked blocks, reads of registers assigned in *other*
        // blocks refer to their time-t value, which `resolve` provides.
        self.resolve(name, location)
    }

    fn binary(&mut self, op: BinaryOperator, l: ExprId, r: ExprId) -> Result<ExprId, VerilogError> {
        use BinaryOperator as B;
        Ok(match op {
            B::And => {
                let (l, r) = self.same_width(l, r)?;
                self.design.and(l, r)?
            }
            B::Or => {
                let (l, r) = self.same_width(l, r)?;
                self.design.or(l, r)?
            }
            B::Xor => {
                let (l, r) = self.same_width(l, r)?;
                self.design.xor(l, r)?
            }
            B::Xnor => {
                let (l, r) = self.same_width(l, r)?;
                let x = self.design.xor(l, r)?;
                self.design.not(x)
            }
            B::Add => {
                let (l, r) = self.same_width(l, r)?;
                self.design.add(l, r)?
            }
            B::Sub => {
                let (l, r) = self.same_width(l, r)?;
                self.design.sub(l, r)?
            }
            B::Mul => {
                let (l, r) = self.same_width(l, r)?;
                self.design.mul(l, r)?
            }
            B::ShiftLeft => {
                let width = self.design.expr_width(l);
                let amount = self.coerce(r, width)?;
                self.design.shl(l, amount)?
            }
            B::ShiftRight => {
                let width = self.design.expr_width(l);
                let amount = self.coerce(r, width)?;
                self.design.shr(l, amount)?
            }
            B::Equal => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_eq(l, r)?
            }
            B::NotEqual => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_ne(l, r)?
            }
            B::Less => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_ult(l, r)?
            }
            B::LessEqual => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_ule(l, r)?
            }
            B::Greater => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_ult(r, l)?
            }
            B::GreaterEqual => {
                let (l, r) = self.same_width(l, r)?;
                self.design.cmp_ule(r, l)?
            }
            B::LogicalAnd => {
                let lb = self.design.red_or(l);
                let rb = self.design.red_or(r);
                self.design.and(lb, rb)?
            }
            B::LogicalOr => {
                let lb = self.design.red_or(l);
                let rb = self.design.red_or(r);
                self.design.or(lb, rb)?
            }
        })
    }

    fn boolean_expr(
        &mut self,
        expr: &Expression,
        env: &HashMap<String, ExprId>,
    ) -> Result<ExprId, VerilogError> {
        let value = self.expression(expr, env, None)?;
        if self.design.expr_width(value) == 1 {
            Ok(value)
        } else {
            Ok(self.design.red_or(value))
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn shape_of(&self, name: &str, location: SourceLocation) -> Result<VectorShape, VerilogError> {
        self.shapes
            .get(name)
            .copied()
            .ok_or_else(|| VerilogError::UndeclaredIdentifier {
                name: name.to_string(),
                location,
            })
    }

    fn shape_of_or_value(
        &self,
        name: &str,
        value: ExprId,
        location: SourceLocation,
    ) -> VectorShape {
        self.shape_of(name, location).unwrap_or(VectorShape {
            width: self.design.expr_width(value),
            lsb: 0,
        })
    }

    fn coerce(&mut self, expr: ExprId, width: u32) -> Result<ExprId, VerilogError> {
        let actual = self.design.expr_width(expr);
        Ok(if actual == width {
            expr
        } else if actual < width {
            self.design.zero_ext(expr, width)?
        } else {
            self.design.slice(expr, width - 1, 0)?
        })
    }

    fn same_width(&mut self, a: ExprId, b: ExprId) -> Result<(ExprId, ExprId), VerilogError> {
        let wa = self.design.expr_width(a);
        let wb = self.design.expr_width(b);
        let w = wa.max(wb);
        Ok((self.coerce(a, w)?, self.coerce(b, w)?))
    }

    /// Evaluates a compile-time constant expression over the parameter
    /// environment.
    fn const_eval(&self, expr: &Expression, context: &str) -> Result<u128, VerilogError> {
        let err = |location| VerilogError::NotConstant {
            context: context.to_string(),
            location,
        };
        match expr {
            Expression::Number { value, .. } => Ok(value.value),
            Expression::Identifier { name, location } => self
                .parameters
                .get(name)
                .copied()
                .ok_or_else(|| err(*location)),
            Expression::Unary {
                op,
                operand,
                location,
            } => {
                let v = self.const_eval(operand, context)?;
                Ok(match op {
                    UnaryOperator::BitNot => !v,
                    UnaryOperator::LogicalNot => u128::from(v == 0),
                    UnaryOperator::Negate => v.wrapping_neg(),
                    _ => return Err(err(*location)),
                })
            }
            Expression::Binary {
                op,
                left,
                right,
                location: _,
            } => {
                let l = self.const_eval(left, context)?;
                let r = self.const_eval(right, context)?;
                Ok(match op {
                    BinaryOperator::Add => l.wrapping_add(r),
                    BinaryOperator::Sub => l.wrapping_sub(r),
                    BinaryOperator::Mul => l.wrapping_mul(r),
                    BinaryOperator::And => l & r,
                    BinaryOperator::Or => l | r,
                    BinaryOperator::Xor => l ^ r,
                    BinaryOperator::Xnor => !(l ^ r),
                    BinaryOperator::ShiftLeft => l.checked_shl(r as u32).unwrap_or(0),
                    BinaryOperator::ShiftRight => l.checked_shr(r as u32).unwrap_or(0),
                    BinaryOperator::Equal => u128::from(l == r),
                    BinaryOperator::NotEqual => u128::from(l != r),
                    BinaryOperator::Less => u128::from(l < r),
                    BinaryOperator::LessEqual => u128::from(l <= r),
                    BinaryOperator::Greater => u128::from(l > r),
                    BinaryOperator::GreaterEqual => u128::from(l >= r),
                    BinaryOperator::LogicalAnd => u128::from(l != 0 && r != 0),
                    BinaryOperator::LogicalOr => u128::from(l != 0 || r != 0),
                })
            }
            Expression::Conditional {
                condition,
                then_value,
                else_value,
                ..
            } => {
                let c = self.const_eval(condition, context)?;
                if c != 0 {
                    self.const_eval(then_value, context)
                } else {
                    self.const_eval(else_value, context)
                }
            }
            other => Err(err(other.location())),
        }
    }
}

fn number(value: u128, location: SourceLocation) -> Expression {
    Expression::Number {
        value: crate::token::Number { width: None, value },
        location,
    }
}

fn mask_bits(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

fn bits_needed(value: u128) -> u32 {
    (128 - value.leading_zeros()).max(1)
}

/// Collects every identifier assigned anywhere in a statement (only the
/// `<=` targets when `nonblocking_only`).
fn collect_assigned_names(stmt: &Statement, nonblocking_only: bool, out: &mut Vec<String>) {
    fn lvalue_names(lv: &LValue, out: &mut Vec<String>) {
        match lv {
            LValue::Identifier { name, .. }
            | LValue::Bit { name, .. }
            | LValue::Part { name, .. } => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            LValue::Concat { parts, .. } => {
                for p in parts {
                    lvalue_names(p, out);
                }
            }
        }
    }
    match stmt {
        Statement::Block(stmts) => {
            for s in stmts {
                collect_assigned_names(s, nonblocking_only, out);
            }
        }
        Statement::Assign {
            target,
            nonblocking,
            ..
        } => {
            if *nonblocking || !nonblocking_only {
                lvalue_names(target, out);
            }
        }
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_assigned_names(then_branch, nonblocking_only, out);
            if let Some(e) = else_branch {
                collect_assigned_names(e, nonblocking_only, out);
            }
        }
        Statement::Case { arms, .. } => {
            for arm in arms {
                collect_assigned_names(&arm.body, nonblocking_only, out);
            }
        }
        Statement::Empty => {}
    }
}

/// What `analyze_reset` learnt about a clocked block's reset handling.
#[derive(Clone, Debug)]
struct ResetAnalysis {
    /// The tested reset signal.
    name: String,
    /// `true` for active-low resets (negedge sensitivity or a negated test).
    active_low: bool,
    /// `true` when the *then* branch of the outer `if` is the reset branch.
    reset_branch_is_then: bool,
}

/// Inspects a clocked `always` block for the canonical reset idiom: an outer
/// `if` whose condition tests a single signal.  Polarity comes from the
/// sensitivity list when the signal is edge-sensitive (async reset) and from
/// the shape of the condition otherwise (sync reset).
fn analyze_reset(block: &AlwaysBlock) -> Option<ResetAnalysis> {
    let Sensitivity::Edges(edges) = &block.sensitivity else {
        return None;
    };
    let stmt = unwrap_single_block(&block.body);
    let Statement::If { condition, .. } = stmt else {
        return None;
    };
    let (name, cond_true_means_high) = reset_condition(condition)?;
    let negedge = edges.iter().any(|e| e.signal == name && !e.posedge);
    let posedge = edges.iter().any(|e| e.signal == name && e.posedge);
    let asserted_high = if posedge {
        true
    } else if negedge {
        false
    } else {
        cond_true_means_high
    };
    Some(ResetAnalysis {
        name,
        active_low: !asserted_high,
        reset_branch_is_then: asserted_high == cond_true_means_high,
    })
}

/// Splits the (possibly block-wrapped) outer reset `if` into (reset branch,
/// functional branch) given which side holds the reset assignments.
fn split_reset_branches(
    stmt: &Statement,
    reset_branch_is_then: bool,
) -> (&Statement, Option<&Statement>) {
    let stmt = unwrap_single_block(stmt);
    let Statement::If {
        then_branch,
        else_branch,
        ..
    } = stmt
    else {
        return (stmt, None);
    };
    if reset_branch_is_then {
        (then_branch, else_branch.as_deref())
    } else {
        match else_branch {
            Some(e) => (e, Some(then_branch)),
            None => (then_branch, None),
        }
    }
}

fn unwrap_single_block(stmt: &Statement) -> &Statement {
    match stmt {
        Statement::Block(stmts) if stmts.len() == 1 => unwrap_single_block(&stmts[0]),
        other => other,
    }
}

/// Recognises `rst`, `!rst`, `~rst`, `rst == 1'b1`, `rst == 0` style reset
/// conditions; returns the tested name and whether the *then* branch is the
/// asserted-reset branch.
fn reset_condition(expr: &Expression) -> Option<(String, bool)> {
    match expr {
        Expression::Identifier { name, .. } => Some((name.clone(), true)),
        Expression::Unary {
            op: UnaryOperator::LogicalNot | UnaryOperator::BitNot,
            operand,
            ..
        } => match operand.as_ref() {
            Expression::Identifier { name, .. } => Some((name.clone(), false)),
            _ => None,
        },
        Expression::Binary {
            op, left, right, ..
        } => {
            let (name, value) = match (left.as_ref(), right.as_ref()) {
                (Expression::Identifier { name, .. }, Expression::Number { value, .. }) => {
                    (name.clone(), value.value)
                }
                (Expression::Number { value, .. }, Expression::Identifier { name, .. }) => {
                    (name.clone(), value.value)
                }
                _ => return None,
            };
            match op {
                BinaryOperator::Equal => Some((name, value != 0)),
                BinaryOperator::NotEqual => Some((name, value == 0)),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_rtl::sim::Simulator;

    fn sim_step(sim: &mut Simulator<'_>, inputs: &[(&str, u128)]) {
        for (name, value) in inputs {
            sim.set_input_by_name(name, *value).unwrap();
        }
        sim.step().unwrap();
    }

    #[test]
    fn compiles_a_registered_adder_and_matches_simulation() {
        let design = compile(
            "module acc(input clk, input rst, input [7:0] d, output [7:0] q);
               reg [7:0] total;
               always @(posedge clk or posedge rst) begin
                 if (rst) total <= 8'd0;
                 else     total <= total + d;
               end
               assign q = total;
             endmodule",
        )
        .unwrap();
        let d = design.design();
        assert_eq!(d.inputs().len(), 1, "clk and rst are folded away");
        assert_eq!(d.registers().len(), 1);
        let mut sim = Simulator::new(&design);
        sim_step(&mut sim, &[("d", 5)]);
        sim_step(&mut sim, &[("d", 7)]);
        assert_eq!(sim.peek_by_name("total").unwrap(), 12);
    }

    /// Every `<=` in a clocked block reads time-t values, so a one-block
    /// shift register has latency 2, like its two-block form; `=` reads the
    /// value an earlier statement assigned.
    #[test]
    fn nonblocking_reads_see_time_t_values() {
        let shift = |op: &str| {
            compile(&format!(
                "module shift(input clk, input [3:0] a, output [3:0] out);
                   reg [3:0] r;
                   reg [3:0] s;
                   always @(posedge clk) begin
                     r {op} a;
                     s {op} r;
                   end
                   assign out = s;
                 endmodule"
            ))
            .unwrap()
        };
        let nonblocking = shift("<=");
        let text = htd_rtl::netlist::dump(&nonblocking);
        assert!(text.contains("next s = r\n"), "{text}");
        let mut sim = Simulator::new(&nonblocking);
        sim_step(&mut sim, &[("a", 5)]);
        assert_eq!(sim.peek_by_name("out").unwrap(), 0);
        sim_step(&mut sim, &[("a", 0)]);
        assert_eq!(sim.peek_by_name("out").unwrap(), 5);

        let blocking = shift("=");
        let text = htd_rtl::netlist::dump(&blocking);
        assert!(text.contains("next s = a\n"), "{text}");
    }

    /// A name the netlist text could not carry back is rejected where it is
    /// declared, for signals and for the design alike.
    #[test]
    fn names_the_netlist_cannot_carry_are_rejected() {
        let err = compile(
            "module m(input clk, input [3:0] d, output [3:0] q);
               reg [3:0] \\s#1 ;
               always @(posedge clk) \\s#1 <= d;
               assign q = \\s#1 ;
             endmodule",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("invalid signal name `s#1`"), "{err}");
        let err = compile("module \\a#b (input a, output o); assign o = a; endmodule")
            .unwrap_err()
            .to_string();
        assert!(err.contains("invalid design name `a#b`"), "{err}");
    }

    #[test]
    fn reset_values_become_register_initial_values() {
        let design = compile(
            "module m(input clk, input rst_n, output [3:0] q);
               reg [3:0] counter;
               always @(posedge clk or negedge rst_n) begin
                 if (!rst_n) counter <= 4'd9;
                 else        counter <= counter + 4'd1;
               end
               assign q = counter;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        assert_eq!(sim.peek_by_name("counter").unwrap(), 9);
        sim.step().unwrap();
        assert_eq!(sim.peek_by_name("counter").unwrap(), 10);
    }

    #[test]
    fn output_regs_get_a_reg_suffix_and_keep_the_port_name() {
        let design = compile(
            "module m(input clk, input [3:0] d, output reg [3:0] q);
               always @(posedge clk) q <= d;
             endmodule",
        )
        .unwrap();
        let d = design.design();
        assert!(d.lookup("q_reg").is_some());
        assert!(d.outputs().iter().any(|&o| d.signal_name(o) == "q"));
    }

    #[test]
    fn case_statements_become_mux_trees() {
        let design = compile(
            "module alu(input clk, input [1:0] op, input [7:0] a, b, output [7:0] y);
               reg [7:0] r;
               always @(posedge clk) begin
                 case (op)
                   2'd0: r <= a + b;
                   2'd1: r <= a ^ b;
                   2'd2: r <= a & b;
                   default: r <= 8'd0;
                 endcase
               end
               assign y = r;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        sim_step(&mut sim, &[("op", 0), ("a", 3), ("b", 4)]);
        assert_eq!(sim.peek_by_name("r").unwrap(), 7);
        sim_step(&mut sim, &[("op", 1), ("a", 0xF0), ("b", 0x0F)]);
        assert_eq!(sim.peek_by_name("r").unwrap(), 0xFF);
        sim_step(&mut sim, &[("op", 3), ("a", 1), ("b", 1)]);
        assert_eq!(sim.peek_by_name("r").unwrap(), 0);
    }

    #[test]
    fn combinational_always_blocks_become_wires() {
        let design = compile(
            "module m(input [1:0] sel, input [3:0] a, b, output [3:0] y);
               reg [3:0] pick;
               always @(*) begin
                 pick = 4'd0;
                 if (sel == 2'd1) pick = a;
                 if (sel == 2'd2) pick = b;
               end
               assign y = pick;
             endmodule",
        )
        .unwrap();
        let d = design.design();
        assert!(d.registers().is_empty(), "pick is combinational, not state");
        let mut sim = Simulator::new(&design);
        sim.set_input_by_name("sel", 1).unwrap();
        sim.set_input_by_name("a", 11).unwrap();
        sim.set_input_by_name("b", 3).unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap(), 11);
    }

    #[test]
    fn partial_and_concatenated_continuous_assigns_assemble_the_word() {
        let design = compile(
            "module m(input [3:0] a, input [3:0] b, output [7:0] y, output [4:0] s);
               assign y[7:4] = a;
               assign y[3:0] = b;
               assign {s[4], s[3:0]} = a + b;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        sim.set_input_by_name("a", 0xA).unwrap();
        sim.set_input_by_name("b", 0x9).unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap(), 0xA9);
        assert_eq!(sim.peek_by_name("s").unwrap(), 0x13);
    }

    #[test]
    fn parameters_and_part_selects_follow_declared_ranges() {
        let design = compile(
            "module m #(parameter WIDTH = 8) (input [WIDTH-1:0] a, output [3:0] hi);
               assign hi = a[WIDTH-1:WIDTH-4];
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        sim.set_input_by_name("a", 0xC5).unwrap();
        assert_eq!(sim.peek_by_name("hi").unwrap(), 0xC);
    }

    #[test]
    fn rejects_multiply_driven_nets() {
        let err = compile(
            "module m(input a, b, output y);
               assign y = a;
               assign y = b;
             endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, VerilogError::MultipleDrivers { .. }));
    }

    #[test]
    fn rejects_combinational_loops() {
        let err = compile(
            "module m(input a, output y);
               wire u, v;
               assign u = v ^ a;
               assign v = u;
               assign y = v;
             endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, VerilogError::CombinationalLoop { .. }));
    }

    #[test]
    fn rejects_incomplete_combinational_assignment_as_a_latch() {
        let err = compile(
            "module m(input c, input [3:0] a, output [3:0] y);
               reg [3:0] t;
               always @(*) begin
                 if (c) t = a;
               end
               assign y = t;
             endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, VerilogError::InferredLatch { .. }));
    }

    #[test]
    fn rejects_undeclared_identifiers() {
        let err = compile("module m(input a, output y); assign y = ghost; endmodule").unwrap_err();
        assert!(matches!(err, VerilogError::UndeclaredIdentifier { .. }));
    }

    #[test]
    fn rejects_non_constant_reset_values() {
        let err = compile(
            "module m(input clk, input rst, input [3:0] d, output [3:0] q);
               reg [3:0] r;
               always @(posedge clk) begin
                 if (rst) r <= d;
                 else r <= r + 4'd1;
               end
               assign q = r;
             endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, VerilogError::NonConstantReset { .. }));
    }

    #[test]
    fn selects_the_requested_top_module() {
        let source = "module a(input x, output y); assign y = x; endmodule
                      module b(input x, output y); assign y = ~x; endmodule";
        let unit = parse(source).unwrap();
        let opts = ElaborateOptions {
            top: Some("b".to_string()),
            ..ElaborateOptions::default()
        };
        let design = elaborate(&unit, &opts).unwrap();
        assert_eq!(design.design().name(), "b");
        let missing = ElaborateOptions {
            top: Some("zzz".to_string()),
            ..ElaborateOptions::default()
        };
        assert!(matches!(
            elaborate(&unit, &missing).unwrap_err(),
            VerilogError::UnknownModule { .. }
        ));
    }

    #[test]
    fn bit_selects_with_dynamic_indices_become_shifts() {
        let design = compile(
            "module m(input [7:0] a, input [2:0] i, output y);
               assign y = a[i];
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        sim.set_input_by_name("a", 0b0100_0000).unwrap();
        sim.set_input_by_name("i", 6).unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap(), 1);
        sim.set_input_by_name("i", 5).unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap(), 0);
    }

    #[test]
    fn replication_and_reduction_operators_work() {
        let design = compile(
            "module m(input [3:0] a, output [7:0] dup, output all, output any, output odd);
               assign dup = {2{a}};
               assign all = &a;
               assign any = |a;
               assign odd = ^a;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&design);
        sim.set_input_by_name("a", 0b1011).unwrap();
        assert_eq!(sim.peek_by_name("dup").unwrap(), 0b1011_1011);
        assert_eq!(sim.peek_by_name("all").unwrap(), 0);
        assert_eq!(sim.peek_by_name("any").unwrap(), 1);
        assert_eq!(sim.peek_by_name("odd").unwrap(), 1);
    }
}
