//! Error type shared by the RTL crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, simulating or parsing designs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DesignError {
    /// A signal width was zero or larger than [`crate::MAX_WIDTH`].
    InvalidWidth {
        /// The offending width.
        width: u32,
    },
    /// Two operands (or a mux's branches) had different widths.
    WidthMismatch {
        /// Width of the left / first operand.
        left: u32,
        /// Width of the right / second operand.
        right: u32,
        /// What was being constructed.
        context: &'static str,
    },
    /// A constant value does not fit into the requested width.
    ConstantTooWide {
        /// The constant value.
        value: u128,
        /// The requested width.
        width: u32,
    },
    /// A signal name was declared twice.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A signal or expression id referenced a different design, or an unknown
    /// name was looked up.
    UnknownSignal {
        /// Name or id rendered as text.
        name: String,
    },
    /// A slice `[hi:lo]` was out of range or inverted.
    InvalidSlice {
        /// High bit index.
        hi: u32,
        /// Low bit index.
        lo: u32,
        /// Width of the sliced expression.
        width: u32,
    },
    /// A mux condition was not 1 bit wide.
    ConditionNotBoolean {
        /// Actual width of the condition.
        width: u32,
    },
    /// A register was never given a next-state expression.
    RegisterWithoutNext {
        /// Name of the register.
        name: String,
    },
    /// The next-state expression (or output/wire expression) width does not
    /// match the signal width.
    SignalWidthMismatch {
        /// Name of the signal.
        name: String,
        /// Declared width of the signal.
        declared: u32,
        /// Width of the driving expression.
        driver: u32,
    },
    /// A purely combinational cycle (not broken by a register) was found.
    CombinationalLoop {
        /// Name of a signal on the cycle.
        signal: String,
    },
    /// A ROM table does not have an entry for every possible index value, or
    /// an entry does not fit the ROM's width.
    InvalidRom {
        /// Explanation of the problem.
        reason: String,
    },
    /// The operation requires a [`crate::ValidatedDesign`]-level invariant
    /// that does not hold (e.g. the kind of signal was unexpected).
    InvalidSignalKind {
        /// Name of the signal.
        name: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The textual netlist could not be parsed, or a signal or design name
    /// could not be written to it (see [`crate::check_name`]: whitespace,
    /// `(`, `)`, `#` and `=` are reserved, and so are a leading `%` or `@`).
    Parse {
        /// Line number (1-based) where the error occurred; 0 for an invalid
        /// name met outside a netlist and for an empty netlist.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// An input value supplied to the simulator does not fit the input width.
    SimValueTooWide {
        /// Name of the input.
        name: String,
        /// Supplied value.
        value: u128,
        /// Width of the input.
        width: u32,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidWidth { width } => {
                write!(f, "invalid signal width {width} (must be 1..=128)")
            }
            DesignError::WidthMismatch {
                left,
                right,
                context,
            } => {
                write!(f, "width mismatch in {context}: {left} vs {right}")
            }
            DesignError::ConstantTooWide { value, width } => {
                write!(f, "constant {value:#x} does not fit into {width} bits")
            }
            DesignError::DuplicateName { name } => {
                write!(f, "signal name `{name}` declared twice")
            }
            DesignError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
            DesignError::InvalidSlice { hi, lo, width } => {
                write!(f, "invalid slice [{hi}:{lo}] of a {width}-bit expression")
            }
            DesignError::ConditionNotBoolean { width } => {
                write!(f, "mux condition must be 1 bit wide, got {width}")
            }
            DesignError::RegisterWithoutNext { name } => {
                write!(f, "register `{name}` has no next-state expression")
            }
            DesignError::SignalWidthMismatch {
                name,
                declared,
                driver,
            } => write!(
                f,
                "signal `{name}` is {declared} bits but its driver is {driver} bits"
            ),
            DesignError::CombinationalLoop { signal } => {
                write!(f, "combinational loop through signal `{signal}`")
            }
            DesignError::InvalidRom { reason } => write!(f, "invalid rom: {reason}"),
            DesignError::InvalidSignalKind { name, expected } => {
                write!(f, "signal `{name}` is not {expected}")
            }
            DesignError::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            DesignError::SimValueTooWide { name, value, width } => write!(
                f,
                "value {value:#x} does not fit input `{name}` of width {width}"
            ),
        }
    }
}

impl Error for DesignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<DesignError> = vec![
            DesignError::InvalidWidth { width: 0 },
            DesignError::WidthMismatch {
                left: 4,
                right: 8,
                context: "and",
            },
            DesignError::DuplicateName { name: "clk".into() },
            DesignError::CombinationalLoop { signal: "w".into() },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<DesignError>();
    }
}
