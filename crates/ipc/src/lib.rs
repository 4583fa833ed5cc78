//! # htd-ipc
//!
//! Interval Property Checking (IPC) over a 2-safety miter, the proof engine
//! behind the golden-free hardware-Trojan detection flow.
//!
//! The DATE'24 method reduces Trojan detection to a set of *single-cycle*
//! interval properties over two instances of the same (possibly infected)
//! design with a **symbolic starting state**: the solver may pick any pair of
//! starting states — which implicitly models any input history and therefore
//! any trigger sequence of arbitrary length — as long as the property's
//! antecedent (equality of the primary inputs and of the already-proven
//! fanout signals) is satisfied.  This crate provides:
//!
//! * [`aig`] — an And-Inverter Graph with structural hashing; identical cones
//!   of the two instances collapse onto shared nodes, so only logic that
//!   depends on un-shared state (exactly where a Trojan trigger or payload
//!   must live) reaches the SAT solver.
//! * [`bitblast`] — lowering of word-level RTL expressions to AIG bit vectors.
//! * [`IntervalProperty`] / [`PropertyChecker`] — the property representation
//!   and the checking engine (single-cycle properties plus the aggregate
//!   *trojan property* of Fig. 3 used to validate Theorem 1).
//! * [`Counterexample`] — concrete starting states, inputs and diverging
//!   signals for failed properties, ready for the diagnosis step in
//!   `htd-core`.
//!
//! # Example
//!
//! A 1-bit "Trojan" that flips an output once a (state-held) trigger is set is
//! caught by a failing property:
//!
//! ```
//! use htd_ipc::{IntervalProperty, PropertyChecker};
//! use htd_rtl::Design;
//!
//! # fn main() -> Result<(), htd_rtl::DesignError> {
//! let mut d = Design::new("tiny_trojan");
//! let input = d.add_input("in", 1)?;
//! let trigger = d.add_register("trigger", 1, 0)?;
//! let data = d.add_register("data", 1, 0)?;
//! // The trigger latches once the input was ever 1; the data register
//! // inverts its input while the trigger is active (the payload).
//! let trig_next = d.or(d.signal(trigger), d.signal(input))?;
//! d.set_register_next(trigger, trig_next)?;
//! let payload = d.xor(d.signal(input), d.signal(trigger))?;
//! d.set_register_next(data, payload)?;
//! d.add_output("out", d.signal(data))?;
//! let design = d.validated()?;
//!
//! // Init property: equal inputs at t must give equal `data` at t+1.
//! // It fails because the two instances may hold different trigger states.
//! let checker = PropertyChecker::new(&design);
//! let property = IntervalProperty::new("init_property", vec![], vec![data]);
//! let report = checker.check(&property);
//! assert!(!report.holds());
//! let cex = report.outcome.counterexample().expect("counterexample");
//! assert_eq!(cex.diff_names(), vec!["data"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod bitblast;
mod checker;
pub mod cnf;
pub mod fxhash;
mod incremental;
mod property;

pub use checker::{CheckerOptions, PropertyChecker};
pub use incremental::{MiterSession, SessionStats};
pub use property::{
    CheckOutcome, CheckStats, Counterexample, IntervalProperty, PropertyReport, SignalValuePair,
};
