//! Detection-flow results and reporting.

use std::fmt;
use std::time::Duration;

use htd_ipc::{Counterexample, PropertyReport};
use htd_sat::SolverStats;

/// Which mechanism of the flow detected (or would detect) the Trojan —
/// matching the "Detected by" column of Table I in the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectedBy {
    /// The init property failed (divergence one cycle after the inputs).
    InitProperty,
    /// Fanout property `k` failed (divergence `k + 1` cycles after the
    /// inputs).
    FanoutProperty(usize),
    /// All properties held but the final coverage check found state/output
    /// signals unreachable from the inputs (case 2 of Sec. IV-D).
    CoverageCheck,
}

impl fmt::Display for DetectedBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectedBy::InitProperty => write!(f, "init_property"),
            DetectedBy::FanoutProperty(k) => write!(f, "fanout_property_{k}"),
            DetectedBy::CoverageCheck => write!(f, "coverage_check"),
        }
    }
}

/// Overall verdict of one detection run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectionOutcome {
    /// Every property holds and every state/output signal is covered: the
    /// design is free of sequential Trojans (with respect to the RTL model).
    Secure,
    /// A property failed even after spurious-counterexample resolution; the
    /// counterexample points at the potential Trojan payload.
    PropertyFailed {
        /// Which property failed.
        detected_by: DetectedBy,
        /// The counterexample produced by the property checker.
        counterexample: Box<Counterexample>,
    },
    /// All properties hold, but some state/output signals never appear in any
    /// fanout level; they are unreachable from the inputs and must be
    /// inspected manually (they may implement an input-independent Trojan).
    UncoveredSignals {
        /// Names of the uncovered signals.
        signals: Vec<String>,
    },
}

impl DetectionOutcome {
    /// `true` if the design was verified secure.
    #[must_use]
    pub fn is_secure(&self) -> bool {
        matches!(self, DetectionOutcome::Secure)
    }

    /// The detection mechanism, if the design was *not* verified secure.
    #[must_use]
    pub fn detected_by(&self) -> Option<DetectedBy> {
        match self {
            DetectionOutcome::Secure => None,
            DetectionOutcome::PropertyFailed { detected_by, .. } => Some(detected_by.clone()),
            DetectionOutcome::UncoveredSignals { .. } => Some(DetectedBy::CoverageCheck),
        }
    }
}

/// Record of one checked property, including spurious-counterexample
/// resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyTrace {
    /// The property name (`init_property`, `fanout_property_k`).
    pub name: String,
    /// Names of the signals proven equal by this property.
    pub proves: Vec<String>,
    /// The final report (after any resolution iterations).  Its outcome is
    /// the last round's; its stats sum the work of every round.
    pub report: PropertyReport,
    /// How many spurious counterexamples were discharged by adding equality
    /// assumptions (Sec. V-B) before the final verdict.
    pub spurious_resolved: usize,
}

/// The full result of a detection run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectionReport {
    /// Name of the analysed design.
    pub design: String,
    /// Overall verdict.
    pub outcome: DetectionOutcome,
    /// Signal names per fanout level (`fanouts_CC1`, `fanouts_CC2`, …).
    pub fanout_levels: Vec<Vec<String>>,
    /// Per-property traces in the order they were checked.
    pub properties: Vec<PropertyTrace>,
    /// Total number of spurious counterexamples resolved across the run.
    pub spurious_resolved: usize,
    /// Aggregate solver work across every check of the run, including
    /// resolution rounds: conflicts, propagations, restarts, clause-GC runs,
    /// clauses collected, learnt-LBD totals and the arena words the
    /// compaction sweeps reclaimed.  Every query solves on the master, so
    /// the fork counters read 0.
    pub solver_totals: SolverStats,
    /// Wall-clock duration of the whole flow.
    pub total_duration: Duration,
}

impl DetectionReport {
    /// Number of properties checked (init plus fanout properties).
    #[must_use]
    pub fn properties_checked(&self) -> usize {
        self.properties.len()
    }

    /// The longest single property check, if any property was checked.
    #[must_use]
    pub fn slowest_property(&self) -> Option<(&str, Duration)> {
        self.properties
            .iter()
            .map(|p| (p.name.as_str(), p.report.stats.duration))
            .max_by_key(|(_, d)| *d)
    }

    /// A copy of this report with every wall-clock-dependent field zeroed:
    /// the flow total and each property's check time.
    ///
    /// Two detection runs over the same design are *deterministic* up to
    /// wall-clock time: verdicts, counterexamples and work counters are a
    /// pure function of the design, the configuration and the backend, so
    /// `a.normalized() == b.normalized()` compares entire reports
    /// byte-for-byte.  The determinism suite relies on this.
    #[must_use]
    pub fn normalized(&self) -> DetectionReport {
        let mut report = self.clone();
        report.total_duration = Duration::ZERO;
        for trace in &mut report.properties {
            trace.report.stats.duration = Duration::ZERO;
        }
        report
    }

    /// Short, single-line summary (used by the Table-I harness).
    #[must_use]
    pub fn summary(&self) -> String {
        match &self.outcome {
            DetectionOutcome::Secure => format!("{}: SECURE", self.design),
            DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample,
            } => format!(
                "{}: trojan suspected ({}; diverging: {})",
                self.design,
                detected_by,
                counterexample.diff_names().join(", ")
            ),
            DetectionOutcome::UncoveredSignals { signals } => format!(
                "{}: trojan suspected (coverage_check; uncovered: {})",
                self.design,
                signals.join(", ")
            ),
        }
    }
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "detection report for `{}`", self.design)?;
        writeln!(
            f,
            "  {} fanout levels, {} properties checked, {} spurious CEX resolved, {:.3}s total",
            self.fanout_levels.len(),
            self.properties.len(),
            self.spurious_resolved,
            self.total_duration.as_secs_f64()
        )?;
        writeln!(
            f,
            "  solver: {} conflicts, {} propagations, {} restarts, {} GC runs collecting {} \
             clauses",
            self.solver_totals.conflicts,
            self.solver_totals.propagations,
            self.solver_totals.restarts,
            self.solver_totals.gc_runs,
            self.solver_totals.clauses_collected
        )?;
        writeln!(
            f,
            "  snapshots: {} arena words reclaimed by GC",
            self.solver_totals.arena_words_reclaimed
        )?;
        for trace in &self.properties {
            writeln!(
                f,
                "  {:<22} {:>5} signals  {:>9} AIG nodes  {:>7.3}s  {}",
                trace.name,
                trace.proves.len(),
                trace.report.stats.aig_nodes,
                trace.report.stats.duration.as_secs_f64(),
                if trace.report.holds() {
                    "holds"
                } else {
                    "FAILS"
                }
            )?;
        }
        match &self.outcome {
            DetectionOutcome::Secure => writeln!(f, "  verdict: SECURE")?,
            DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample,
            } => {
                writeln!(f, "  verdict: TROJAN SUSPECTED (detected by {detected_by})")?;
                write!(f, "{counterexample}")?;
            }
            DetectionOutcome::UncoveredSignals { signals } => {
                writeln!(f, "  verdict: TROJAN SUSPECTED (coverage check)")?;
                writeln!(f, "  uncovered signals: {}", signals.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_by_display_matches_table_terms() {
        assert_eq!(DetectedBy::InitProperty.to_string(), "init_property");
        assert_eq!(
            DetectedBy::FanoutProperty(21).to_string(),
            "fanout_property_21"
        );
        assert_eq!(DetectedBy::CoverageCheck.to_string(), "coverage_check");
    }

    #[test]
    fn outcome_helpers() {
        assert!(DetectionOutcome::Secure.is_secure());
        assert_eq!(DetectionOutcome::Secure.detected_by(), None);
        let uncovered = DetectionOutcome::UncoveredSignals {
            signals: vec!["timer".into()],
        };
        assert!(!uncovered.is_secure());
        assert_eq!(uncovered.detected_by(), Some(DetectedBy::CoverageCheck));
    }
}
