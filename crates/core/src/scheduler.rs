//! Algorithm 1's one loop, and the session's executor around it.
//!
//! [`walk`] proves the planned levels in flow order: each level's property
//! is checked, a spurious counterexample is resolved by re-checking with the
//! level's benign fanin assumed equal, and the first real counterexample
//! ends the flow; when every level holds, the coverage check decides.  The
//! per-property check is the caller's: [`run_flow`] passes
//! [`MiterSession::check`], which lowers, encodes and solves each
//! sub-property in place on the session's master, in id order, up to the
//! first counterexample; the fresh-encode reference
//! [`TrojanDetector`](crate::TrojanDetector) passes a new
//! [`PropertyChecker`](htd_ipc::PropertyChecker) per property.  Nothing is
//! lowered ahead of the level being checked, and everything runs on the
//! calling thread.
//!
//! # Determinism
//!
//! A report is a pure function of the design, the configuration and the
//! backend: the master's mutation stream (retire the previous check's
//! activation literals → clause-GC → lower, simulate, encode and solve each
//! sub-property in turn) follows the order in which the flow reaches its
//! levels, which the design and the configuration fix.  Every query sees the
//! learnt clauses of the queries before it, and only those.
//!
//! # Why one thread
//!
//! On the bundled designs the solver does almost no work: simulation finds
//! every counterexample but those of AES-T2500 to T2800 and one of
//! RS232-T2400, and the five queries left take 4 conflicts in all, so a
//! second worker has nothing to share.  A worker pool with level pipelining and
//! speculative prepares measured slower than this loop, or no faster, on
//! every workload, and was deleted.  The names it left behind are inert
//! (see `compat.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use htd_ipc::{CheckOutcome, CheckStats, IntervalProperty, MiterSession, PropertyReport};
use htd_rtl::{SignalId, ValidatedDesign};
use htd_sat::SolverStats;

use crate::compat::PipelineStats;
use crate::diagnosis::{benign_fanin_of, diagnose};
use crate::error::DetectError;
use crate::flow::DetectorConfig;
use crate::flowgraph::FlowGraph;
use crate::report::{DetectedBy, DetectionOutcome, DetectionReport, PropertyTrace};
use crate::session::FlowEvent;

/// Runs the session's flow on its master: [`walk`] with
/// [`MiterSession::check`] as the per-property check.
///
/// `cancel` is the caller's kill switch.  The session folds it into the
/// master's stop predicate, which every solve and every sub-property polls;
/// [`walk`] checks it between checks, and a run that sees it set returns
/// [`DetectError::Cancelled`].  The run only reads it.
pub(crate) fn run_flow(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    miter: &mut MiterSession,
    cancel: Option<&AtomicBool>,
    emit: &mut dyn FnMut(&FlowEvent),
) -> Result<(DetectionReport, PipelineStats), DetectError> {
    let never = AtomicBool::new(false);
    let before = miter.stats();
    let result = walk(
        design,
        config,
        &mut |property| Ok(miter.check(design, property)?),
        cancel.unwrap_or(&never),
        emit,
    );
    if result.is_ok() {
        // End-of-flow hygiene: the last check's activation literals retire
        // and the master compacts, so a reused session starts clean.
        miter.finish_level_flow();
    }
    let report = result?;
    let after = miter.stats();
    let stats = PipelineStats {
        generations_prepared: after.properties_checked - before.properties_checked,
        tasks_dispatched: after.queries - before.queries,
        ..PipelineStats::default()
    };
    Ok((report, stats))
}

/// Algorithm 1: checks the init property and then each fanout property with
/// `check`, resolving spurious counterexamples (Sec. V-B), until a property
/// fails for real or the structural fixpoint is reached; then runs the
/// coverage check.  Events go to `emit` in the order the session's module
/// docs promise.  A run that finds `interrupt` set before a check, or after
/// one, returns [`DetectError::Cancelled`].
pub(crate) fn walk(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    check: &mut dyn FnMut(&IntervalProperty) -> Result<PropertyReport, DetectError>,
    interrupt: &AtomicBool,
    emit: &mut dyn FnMut(&FlowEvent),
) -> Result<DetectionReport, DetectError> {
    let mut planner = FlowGraph::plan(design, config)?;
    // htd-lint: allow(determinism): feeds DetectionReport.total_duration only, which render_normalized() zeroes
    let start = Instant::now();
    let d = design.design();
    let names = |sigs: &[SignalId]| -> Vec<String> {
        sigs.iter().map(|&s| d.signal_name(s).to_string()).collect()
    };
    let cancelled = || interrupt.load(Ordering::SeqCst);

    let mut fanout_levels: Vec<Vec<String>> = Vec::new();
    let mut properties: Vec<PropertyTrace> = Vec::new();
    let mut solver_totals = SolverStats::default();
    let mut level_idx = 0usize;
    let outcome = loop {
        if !planner.ensure_level(design, level_idx)? {
            let (covered, uncovered) = planner.coverage(design)?;
            let uncovered = names(&uncovered);
            emit(&FlowEvent::Coverage {
                covered,
                uncovered: uncovered.clone(),
            });
            break if uncovered.is_empty() {
                DetectionOutcome::Secure
            } else {
                DetectionOutcome::UncoveredSignals { signals: uncovered }
            };
        }
        if cancelled() {
            return Err(DetectError::Cancelled);
        }
        let mut property = planner.level(level_idx).clone();
        let signals = names(&property.prove_equal);
        fanout_levels.push(signals.clone());
        emit(&FlowEvent::LevelStarted {
            level: level_idx + 1,
            signals: signals.clone(),
        });

        let mut resolved = 0usize;
        // The property row's work: the sum over all of its rounds.
        let mut row_stats = CheckStats::default();
        let (report, failed) = loop {
            if cancelled() {
                return Err(DetectError::Cancelled);
            }
            let checked = check(&property);
            // A solve cut short by the kill switch reports an error; the
            // cancellation is the cause.
            if cancelled() {
                return Err(DetectError::Cancelled);
            }
            let mut report = checked?;
            let round_solver = report.stats.solver;
            solver_totals.accumulate(&round_solver);
            row_stats.accumulate(&report.stats);
            report.stats = row_stats;
            let CheckOutcome::Fails(cex) = &report.outcome else {
                emit(&FlowEvent::PropertyProved {
                    property: report.property.clone(),
                    duration: report.stats.duration,
                    spurious_resolved: resolved,
                    solver: report.stats.solver,
                });
                break (report, None);
            };
            let spurious =
                diagnose(design, cex, &property.assume_equal, &config.benign_state).is_spurious();
            emit(&FlowEvent::CounterexampleFound {
                property: report.property.clone(),
                diffs: cex.diff_names().iter().map(ToString::to_string).collect(),
                spurious,
                solver: round_solver,
            });
            if !spurious {
                let cex = (**cex).clone();
                break (report, Some(cex));
            }
            resolved += 1;
            // Assume the benign fanin of the whole level equal, not only the
            // registers this model happened to flip.  This also bounds the
            // loop at one round: the diverging signals are prove signals of
            // this level, `diagnose` looks for causes only in their fanin
            // and skips assumed signals, so once every waived register in
            // the level's fanin is assumed, no later counterexample of the
            // level has a waived cause and none is spurious.
            let waived = benign_fanin_of(
                design,
                &property.prove_equal,
                &property.assume_equal,
                &config.benign_state,
            );
            property = property.with_extra_assumptions(&waived);
            emit(&FlowEvent::ResolutionRound {
                property: property.name.clone(),
                round: resolved,
                waived: names(&waived),
            });
        };
        properties.push(PropertyTrace {
            name: report.property.clone(),
            proves: signals,
            report,
            spurious_resolved: resolved,
        });
        if let Some(cex) = failed {
            let detected_by = if level_idx == 0 {
                DetectedBy::InitProperty
            } else {
                DetectedBy::FanoutProperty(level_idx)
            };
            break DetectionOutcome::PropertyFailed {
                detected_by,
                counterexample: Box::new(cex),
            };
        }
        level_idx += 1;
    };
    Ok(DetectionReport {
        design: d.name().to_string(),
        outcome,
        fanout_levels,
        spurious_resolved: properties.iter().map(|p| p.spurious_resolved).sum(),
        properties,
        solver_totals,
        total_duration: start.elapsed(),
    })
}

#[cfg(test)]
#[allow(deprecated)] // the reference detector is one of the two callers under test
mod tests {
    use super::*;
    use crate::flow::TrojanDetector;
    use crate::session::SessionBuilder;
    use htd_rtl::Design;

    /// Two benign mode registers, each feeding a different prove signal of
    /// level 1 (`r_a <= in + mode_a`, `r_b <= in ^ mode_b`), so the init
    /// property fails through benign state until both are assumed equal.
    fn two_benign_modes() -> (ValidatedDesign, DetectorConfig) {
        let mut d = Design::new("two_benign_modes");
        let input = d.add_input("in", 8).unwrap();
        let mode_a = d.add_register("mode_a", 1, 0).unwrap();
        let mode_b = d.add_register("mode_b", 1, 0).unwrap();
        let r_a = d.add_register("r_a", 8, 0).unwrap();
        let r_b = d.add_register("r_b", 8, 0).unwrap();
        let bit0 = d.bit(d.signal(input), 0).unwrap();
        let bit1 = d.bit(d.signal(input), 1).unwrap();
        d.set_register_next(mode_a, bit0).unwrap();
        d.set_register_next(mode_b, bit1).unwrap();
        let a_ext = d.zero_ext(d.signal(mode_a), 8).unwrap();
        let b_ext = d.zero_ext(d.signal(mode_b), 8).unwrap();
        let sum = d.add(d.signal(input), a_ext).unwrap();
        let mix = d.xor(d.signal(input), b_ext).unwrap();
        d.set_register_next(r_a, sum).unwrap();
        d.set_register_next(r_b, mix).unwrap();
        d.add_output("out_a", d.signal(r_a)).unwrap();
        d.add_output("out_b", d.signal(r_b)).unwrap();
        let config = DetectorConfig {
            benign_state: vec![mode_a, mode_b],
            ..DetectorConfig::default()
        };
        (d.validated().unwrap(), config)
    }

    #[test]
    fn a_level_with_two_waived_registers_resolves_in_one_round() {
        let (design, config) = two_benign_modes();
        let reference = TrojanDetector::with_config(&design, config.clone())
            .unwrap()
            .run()
            .unwrap();
        let mut events: Vec<FlowEvent> = Vec::new();
        let session = SessionBuilder::new(design)
            .config(config)
            .build()
            .unwrap()
            .run_with_observer(&mut |e| events.push(e.clone()))
            .unwrap();
        for report in [&reference, &session] {
            assert!(report.outcome.is_secure(), "{report}");
            assert_eq!(report.properties[0].name, "init_property");
            assert_eq!(report.properties[0].spurious_resolved, 1, "{report}");
            assert_eq!(report.spurious_resolved, 1);
        }

        let rounds = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::ResolutionRound { .. }))
            .count();
        assert_eq!(rounds, 1, "{events:#?}");
        // The documented order of a resolved level's events.
        assert!(
            matches!(events[0], FlowEvent::LevelStarted { level: 1, .. }),
            "{events:#?}"
        );
        assert!(
            matches!(
                events[1],
                FlowEvent::CounterexampleFound { spurious: true, .. }
            ),
            "{events:#?}"
        );
        let FlowEvent::ResolutionRound {
            round: 1, waived, ..
        } = &events[2]
        else {
            panic!("expected round 1 third: {events:#?}");
        };
        assert_eq!(waived, &["mode_a", "mode_b"]);
        assert!(
            matches!(
                events[3],
                FlowEvent::PropertyProved {
                    spurious_resolved: 1,
                    ..
                }
            ),
            "{events:#?}"
        );
    }
}
