//! Per-job solve budgets: service policy, enforced through the run's one
//! stop predicate.
//!
//! A [`SolveBudget`] is the declarative limit (wall-clock deadline and/or a
//! conflict ceiling); a [`BudgetTracker`] is its runtime counterpart, armed
//! by [`DetectionSession::run_with_observer`] once per run.  The tracker
//! holds no seam of its own: the run folds it, with the cancel flag, into
//! the one predicate it installs on the miter session
//! ([`MiterSession::set_interrupt`](htd_ipc::MiterSession::set_interrupt)),
//! which the backend polls mid-solve and the session polls between
//! sub-properties.  The predicate is passed the backend's own conflict
//! count ([`SatBackend::set_interrupt`](htd_sat::SatBackend::set_interrupt)),
//! so the tracker compares that count against the count at arming and
//! nobody charges conflicts to it.  An external backend (a DIMACS process or
//! an IPASIR library) cannot count its conflicts and passes 0, so only the
//! deadline applies to it.
//!
//! [`DetectionSession::run_with_observer`]: crate::DetectionSession::run_with_observer

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// A declarative per-job solve budget.  The default has no limits: budgets
/// are strictly opt-in, so unbudgeted flows remain byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock allowance for the whole run, measured from the moment the
    /// run starts.
    pub deadline: Option<Duration>,
    /// Maximum number of solver conflicts across every query of the run.
    /// Only the builtin solver counts conflicts.
    pub conflict_ceiling: Option<u64>,
}

impl SolveBudget {
    /// `true` when neither limit is set (the tracker would never trip).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.conflict_ceiling.is_none()
    }

    /// Component-wise minimum of two budgets (`None` = unlimited), used to
    /// clamp a per-request budget to a server-wide cap.
    #[must_use]
    pub fn min(self, other: SolveBudget) -> SolveBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            }
        }
        SolveBudget {
            deadline: tighter(self.deadline, other.deadline),
            conflict_ceiling: tighter(self.conflict_ceiling, other.conflict_ceiling),
        }
    }
}

/// Latched exhaustion states (`state` field of [`BudgetTracker`]).
const STATE_OK: u8 = 0;
const STATE_DEADLINE: u8 = 1;
const STATE_CONFLICTS: u8 = 2;

/// The runtime state of one budgeted run, shared with the run's stop
/// predicate through an `Arc`.  Exhaustion is one-way: once tripped,
/// [`check`](Self::check) is a cheap latched load.
#[derive(Debug)]
pub(crate) struct BudgetTracker {
    deadline: Option<Instant>,
    ceiling: Option<u64>,
    /// The backend's conflict count when the tracker was armed.
    armed_at: u64,
    state: AtomicU8,
}

impl BudgetTracker {
    /// Arms a tracker for `budget`, starting the deadline clock now; the
    /// backend has counted `armed_at` conflicts so far.
    pub(crate) fn start(budget: SolveBudget, armed_at: u64) -> Self {
        BudgetTracker {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            ceiling: budget.conflict_ceiling,
            armed_at,
            state: AtomicU8::new(STATE_OK),
        }
    }

    /// The conflicts spent since arming, for a backend that has counted
    /// `conflicts` in all.
    pub(crate) fn spent(&self, conflicts: u64) -> u64 {
        conflicts.saturating_sub(self.armed_at)
    }

    /// `true` when the budget is exhausted at the backend's conflict count
    /// `conflicts`; latches the cause the first time it fires.  Cheap
    /// enough to poll per conflict: a latched load, one compare, and an
    /// [`Instant::now`] only while a deadline is armed.
    pub(crate) fn check(&self, conflicts: u64) -> bool {
        if self.state.load(Ordering::Relaxed) != STATE_OK {
            return true;
        }
        if self
            .ceiling
            .is_some_and(|ceiling| self.spent(conflicts) > ceiling)
        {
            self.trip(STATE_CONFLICTS);
            return true;
        }
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.trip(STATE_DEADLINE);
            return true;
        }
        false
    }

    fn trip(&self, cause: u8) {
        // First cause wins; later trips keep the original reason.
        let _ = self
            .state
            .compare_exchange(STATE_OK, cause, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// The latched exhaustion cause: `"deadline"`, `"conflicts"`, or `None`
    /// while the budget still has headroom.
    pub(crate) fn exhausted(&self) -> Option<&'static str> {
        match self.state.load(Ordering::SeqCst) {
            STATE_DEADLINE => Some("deadline"),
            STATE_CONFLICTS => Some("conflicts"),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unlimited_budget_never_trips() {
        let budget = SolveBudget::default();
        assert!(budget.is_unlimited());
        let tracker = BudgetTracker::start(budget, 0);
        for conflicts in 0..10 {
            assert!(!tracker.check(conflicts));
        }
        assert_eq!(tracker.exhausted(), None);
        assert_eq!(tracker.spent(10), 10);
    }

    #[test]
    fn a_conflict_ceiling_counts_from_arming_and_latches() {
        let budget = SolveBudget {
            conflict_ceiling: Some(2),
            ..SolveBudget::default()
        };
        // The backend had counted 40 conflicts before this run.
        let tracker = BudgetTracker::start(budget, 40);
        assert!(!tracker.check(40));
        assert!(!tracker.check(42), "at the ceiling is still within budget");
        assert!(tracker.check(43));
        assert_eq!(tracker.exhausted(), Some("conflicts"));
        assert_eq!(tracker.spent(43), 3);
        // Latched: stays exhausted whatever count it is passed next.
        assert!(tracker.check(0));
        assert_eq!(tracker.exhausted(), Some("conflicts"));
    }

    #[test]
    fn an_elapsed_deadline_trips_as_deadline() {
        let budget = SolveBudget {
            deadline: Some(Duration::ZERO),
            conflict_ceiling: Some(1_000_000),
        };
        let tracker = BudgetTracker::start(budget, 0);
        assert!(tracker.check(0));
        assert_eq!(tracker.exhausted(), Some("deadline"));
    }

    #[test]
    fn min_takes_the_tighter_component() {
        let a = SolveBudget {
            deadline: Some(Duration::from_secs(5)),
            conflict_ceiling: None,
        };
        let b = SolveBudget {
            deadline: Some(Duration::from_secs(2)),
            conflict_ceiling: Some(100),
        };
        let clamped = a.min(b);
        assert_eq!(clamped.deadline, Some(Duration::from_secs(2)));
        assert_eq!(clamped.conflict_ceiling, Some(100));
        assert_eq!(
            SolveBudget::default().min(SolveBudget::default()),
            SolveBudget::default()
        );
    }
}
