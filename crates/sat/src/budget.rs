//! Per-job solve budgets, enforced inside the solving loop.
//!
//! A [`SolveBudget`] is the declarative limit (wall-clock deadline and/or a
//! conflict ceiling); a [`BudgetTracker`] is its runtime counterpart, which
//! the job's one backend holds through an `Arc`.  The tracker rides the
//! same seam as the interrupt hooks ([`Solver::set_interrupt`] and the
//! IPASIR `set_terminate` callback): the builtin solver polls
//! [`BudgetTracker::check`] at search entry, after every conflict and every
//! 1024 decisions, external process backends poll it while waiting on the
//! child, and IPASIR backends fold it into the terminate predicate.  On
//! exhaustion the tracker latches the cause and trips the job-level cancel
//! flag, so the flow winds down promptly even between solver queries.
//!
//! Only the builtin [`Solver`](crate::Solver) charges conflicts to the
//! tracker.  An external backend (a DIMACS process or an IPASIR library)
//! cannot report its conflicts, and no one else charges them, so only the
//! deadline applies to it.
//!
//! [`Solver::set_interrupt`]: crate::Solver::set_interrupt

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A declarative per-job solve budget.  The default has no limits: budgets
/// are strictly opt-in, so unbudgeted flows remain byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock allowance for the whole job, measured from
    /// [`BudgetTracker::start`].
    pub deadline: Option<Duration>,
    /// Maximum number of solver conflicts charged across every query of the
    /// job.  Only the builtin solver charges conflicts.
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

/// The shared runtime state of one budgeted job.
///
/// The job's backend holds it through an `Arc`, and a clone of the builtin
/// solver charges the same conflict counter and observes the same latch.
/// Exhaustion is one-way: once tripped, [`check`] is a cheap latched load
/// and the associated cancel flag stays set.
///
/// [`check`]: BudgetTracker::check
#[derive(Debug)]
pub struct BudgetTracker {
    deadline: Option<Instant>,
    ceiling: Option<u64>,
    conflicts: AtomicU64,
    state: AtomicU8,
    cancel: Arc<AtomicBool>,
}

impl BudgetTracker {
    /// Arms a tracker for `budget`, starting the deadline clock now.  The
    /// `cancel` flag is tripped on exhaustion so cooperative cancellation
    /// points (the flow's per-node checks, the solve interrupt) stop the job
    /// even between solver queries.
    #[must_use]
    pub fn start(budget: SolveBudget, cancel: Arc<AtomicBool>) -> Self {
        BudgetTracker {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            ceiling: budget.conflict_ceiling,
            conflicts: AtomicU64::new(0),
            state: AtomicU8::new(STATE_OK),
            cancel,
        }
    }

    /// Charges one conflict to the budget.  Called by the builtin solver
    /// right after its conflict counter increments.
    pub fn charge_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// `true` when the budget is exhausted; latches the cause and trips the
    /// cancel flag the first time it fires.  Cheap enough to poll per
    /// conflict: a latched load, one counter compare, and an
    /// [`Instant::now`] only while a deadline is armed.
    pub fn check(&self) -> bool {
        if self.state.load(Ordering::Relaxed) != STATE_OK {
            return true;
        }
        if let Some(ceiling) = self.ceiling {
            if self.conflicts.load(Ordering::Relaxed) > ceiling {
                self.trip(STATE_CONFLICTS);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(STATE_DEADLINE);
                return true;
            }
        }
        false
    }

    fn trip(&self, cause: u8) {
        // First cause wins; later trips keep the original reason.
        let _ = self
            .state
            .compare_exchange(STATE_OK, cause, Ordering::SeqCst, Ordering::SeqCst);
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// The latched exhaustion cause: `"deadline"`, `"conflicts"`, or `None`
    /// while the budget still has headroom.
    #[must_use]
    pub fn exhausted(&self) -> Option<&'static str> {
        match self.state.load(Ordering::SeqCst) {
            STATE_DEADLINE => Some("deadline"),
            STATE_CONFLICTS => Some("conflicts"),
            _ => None,
        }
    }

    /// Total conflicts charged so far.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flag() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    #[test]
    fn an_unlimited_budget_never_trips() {
        let budget = SolveBudget::default();
        assert!(budget.is_unlimited());
        let cancel = flag();
        let tracker = BudgetTracker::start(budget, Arc::clone(&cancel));
        for _ in 0..10 {
            tracker.charge_conflict();
            assert!(!tracker.check());
        }
        assert_eq!(tracker.exhausted(), None);
        assert!(!cancel.load(Ordering::SeqCst));
        assert_eq!(tracker.conflicts(), 10);
    }

    #[test]
    fn a_conflict_ceiling_latches_and_trips_the_cancel_flag() {
        let budget = SolveBudget {
            conflict_ceiling: Some(2),
            ..SolveBudget::default()
        };
        let cancel = flag();
        let tracker = BudgetTracker::start(budget, Arc::clone(&cancel));
        tracker.charge_conflict();
        tracker.charge_conflict();
        assert!(!tracker.check(), "at the ceiling is still within budget");
        tracker.charge_conflict();
        assert!(tracker.check());
        assert_eq!(tracker.exhausted(), Some("conflicts"));
        assert!(cancel.load(Ordering::SeqCst));
        // Latched: stays exhausted without re-deriving the cause.
        assert!(tracker.check());
        assert_eq!(tracker.exhausted(), Some("conflicts"));
    }

    #[test]
    fn an_elapsed_deadline_trips_as_deadline() {
        let budget = SolveBudget {
            deadline: Some(Duration::ZERO),
            conflict_ceiling: Some(1_000_000),
        };
        let cancel = flag();
        let tracker = BudgetTracker::start(budget, Arc::clone(&cancel));
        assert!(tracker.check());
        assert_eq!(tracker.exhausted(), Some("deadline"));
        assert!(cancel.load(Ordering::SeqCst));
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
