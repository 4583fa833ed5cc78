//! Error type of the detection flow.

use std::error::Error;
use std::fmt;

/// Errors of the detection flow, reported by a
/// [`DetectionSession`](crate::DetectionSession) and by the reference
/// [`TrojanDetector`](crate::TrojanDetector).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectError {
    /// The design has no primary inputs, so the input-fanout decomposition of
    /// the flow is not applicable.
    NoInputs,
    /// The design has no state or output signals, so there is nothing a
    /// Trojan payload could manifest in (and nothing to verify).
    NoStateOrOutputs,
    /// The SAT backend failed: an external solver binary is missing or
    /// speaks a different output format.
    Backend {
        /// The underlying backend error.
        message: String,
    },
    /// The run was cancelled through the session's external cancellation
    /// flag ([`crate::DetectionSession::set_cancel_flag`]) before reaching a
    /// verdict: the solve in flight was interrupted mid-search and its
    /// partial result discarded.  The service tier raises this when a client
    /// disconnects or deletes its job.
    Cancelled,
    /// The run's [`SolveBudget`](crate::SolveBudget) was exhausted before a
    /// verdict: the solver abandoned its in-flight queries and the flow wound
    /// down.  Partial progress (events already emitted) is valid; the verdict
    /// is simply unknown.
    BudgetExhausted {
        /// Which limit tripped: `"deadline"` or `"conflicts"`.
        reason: String,
        /// Conflicts the backend counted in this run before the stop, across
        /// every query (zero on an external backend, which cannot count
        /// its conflicts).
        conflicts: u64,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::NoInputs => write!(f, "design has no primary inputs"),
            DetectError::NoStateOrOutputs => {
                write!(f, "design has no state or output signals to verify")
            }
            DetectError::Backend { message } => write!(f, "SAT backend failed: {message}"),
            DetectError::Cancelled => write!(f, "detection run cancelled"),
            DetectError::BudgetExhausted { reason, conflicts } => write!(
                f,
                "solve budget exhausted ({reason}) after {conflicts} conflicts"
            ),
        }
    }
}

impl Error for DetectError {}

impl From<htd_sat::BackendError> for DetectError {
    fn from(e: htd_sat::BackendError) -> Self {
        DetectError::Backend {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(DetectError::NoInputs.to_string().contains("inputs"));
        let exhausted = DetectError::BudgetExhausted {
            reason: "deadline".into(),
            conflicts: 42,
        };
        assert!(exhausted.to_string().contains("deadline"));
        assert!(exhausted.to_string().contains("42"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<DetectError>();
    }
}
