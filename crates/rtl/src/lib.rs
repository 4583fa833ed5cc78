//! # htd-rtl
//!
//! A word-level Register-Transfer-Level (RTL) intermediate representation,
//! cycle-accurate simulator and structural-analysis library.
//!
//! This crate is the design substrate of the golden-free hardware-Trojan
//! detection toolkit.  The DATE'24 method operates on RTL designs; they are
//! constructed programmatically through the [`Design`] builder API, loaded
//! from the textual netlist format in [`netlist`], or compiled from Verilog
//! source by the `htd-verilog` front-end crate.
//!
//! The pieces relevant to the paper are:
//!
//! * [`Design`] / [`Expr`] — the word-level IR (inputs, outputs, wires and
//!   registers with next-state functions).
//! * [`structural`] — syntactic dependency tracing of state-holding elements,
//!   i.e. the `Get_Fanout()` primitive of Algorithm 1 in the paper, plus the
//!   signal-coverage check of Sec. IV-D (case 2).
//! * [`sim`] — a two-valued cycle-accurate simulator used to validate the
//!   benchmark accelerators and to replay counterexamples.
//! * [`netlist`] — a plain-text dump/parse format for designs.
//!
//! # Example
//!
//! Build a 2-bit accumulator and simulate three cycles:
//!
//! ```
//! use htd_rtl::{Design, DesignError};
//! use htd_rtl::sim::Simulator;
//!
//! # fn main() -> Result<(), DesignError> {
//! let mut d = Design::new("accumulator");
//! let input = d.add_input("in", 2)?;
//! let acc = d.add_register("acc", 2, 0)?;
//! let sum = d.add(d.signal(acc), d.signal(input))?;
//! d.set_register_next(acc, sum)?;
//! d.add_output("out", d.signal(acc))?;
//! let design = d.validated()?;
//!
//! let mut sim = Simulator::new(&design);
//! for _ in 0..3 {
//!     sim.set_input_by_name("in", 1)?;
//!     sim.step()?;
//! }
//! assert_eq!(sim.peek_by_name("acc")?, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod error;
pub mod export;
mod expr;
pub mod fxhash;
pub mod netlist;
pub mod sim;
pub mod stats;
pub mod structural;

pub use design::{check_name, Design, Signal, SignalId, SignalKind, ValidatedDesign};
pub use error::DesignError;
pub use expr::{BinaryOp, Expr, ExprId, UnaryOp};

/// Maximum supported signal width in bits.
///
/// Word-level values are carried in `u128`, so widths are capped at 128.
/// Wider buses (e.g. the 128-bit AES state plus key) are modelled as several
/// signals.
pub const MAX_WIDTH: u32 = 128;
