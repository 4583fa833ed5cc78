//! The flow-graph executor: walks the [`FlowGraph`] one node at a time.
//!
//! Each fanout level, and each spurious-counterexample resolution round of
//! one, is one [`MiterSession::check`] on the master: its per-signal
//! sub-properties are lowered, encoded and solved in place one at a time,
//! in id order, and the first counterexample decides the node before the
//! executor moves to the next one.  Nothing is lowered ahead of the node
//! being checked, and everything runs on the calling thread.
//!
//! # Determinism
//!
//! A report is a pure function of the design, the configuration and the
//! backend: the master's mutation stream (retire the previous check's
//! activation literals → clause-GC → lower, encode and solve each
//! sub-property in turn) follows the order in which the flow reaches its
//! nodes, which the design and the configuration fix.  Every query sees the
//! learnt clauses of the queries before it, and only those.
//!
//! # Why one thread
//!
//! On the bundled designs almost all solver work is a single query
//! (BasicRSA (HT-free)'s 684-conflict spurious counterexample), so a second
//! worker has nothing to share.  A worker pool with level pipelining and
//! speculative prepares measured slower than this loop, or no faster, on
//! every workload, and was deleted.  The names it left behind are inert
//! (see `compat.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htd_ipc::{CheckOutcome, CheckStats, MiterSession};
use htd_rtl::{SignalId, ValidatedDesign};
use htd_sat::SolverStats;

use crate::compat::PipelineStats;
use crate::diagnosis::{benign_fanin_of, diagnose, Diagnosis};
use crate::error::DetectError;
use crate::flow::DetectorConfig;
use crate::flowgraph::FlowGraph;
use crate::report::{DetectedBy, DetectionOutcome, DetectionReport, PropertyTrace};
use crate::session::FlowEvent;

/// Runs the full flow: init property, fanout properties until the
/// structural fixpoint, then the coverage check.
///
/// `cancel` is the caller's kill switch: the run installs it on the master
/// once, every solve polls it, and a run that sees it set returns
/// [`DetectError::Cancelled`].  The run sets it when it returns, whatever
/// the result, so a flag serves one run.
pub(crate) fn run_flow(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    miter: &mut MiterSession,
    cancel: Option<&Arc<AtomicBool>>,
    emit: &mut dyn FnMut(&FlowEvent),
) -> Result<(DetectionReport, PipelineStats), DetectError> {
    let interrupt = cancel.cloned().unwrap_or_default();
    if let Some(flag) = cancel {
        miter.set_cancel_flag(Arc::clone(flag));
    }
    let before = miter.stats();
    let result = walk(design, config, miter, &interrupt, emit);
    // Consume the flag: the daemon's coalescing treats a run whose flag is
    // set as finished, so it never attaches a new submission to it.
    interrupt.store(true, Ordering::SeqCst);
    let report = result?;
    let after = miter.stats();
    let stats = PipelineStats {
        generations_prepared: after.properties_checked - before.properties_checked,
        tasks_dispatched: after.queries - before.queries,
        ..PipelineStats::default()
    };
    Ok((report, stats))
}

fn walk(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    miter: &mut MiterSession,
    interrupt: &Arc<AtomicBool>,
    emit: &mut dyn FnMut(&FlowEvent),
) -> Result<DetectionReport, DetectError> {
    let mut graph = FlowGraph::plan(design, config)?;
    // htd-lint: allow(determinism): feeds DetectionReport.total_duration only, which render_normalized() zeroes
    let start = Instant::now();
    let d = design.design();
    let names = |sigs: &[SignalId]| -> Vec<String> {
        sigs.iter().map(|&s| d.signal_name(s).to_string()).collect()
    };
    let cancelled = || interrupt.load(Ordering::SeqCst);

    let mut fanout_levels: Vec<Vec<String>> = Vec::new();
    let mut properties: Vec<PropertyTrace> = Vec::new();
    let mut spurious_total = 0usize;
    let mut solver_totals = SolverStats::default();
    let report = |outcome: DetectionOutcome,
                  fanout_levels: Vec<Vec<String>>,
                  properties: Vec<PropertyTrace>,
                  spurious_resolved: usize,
                  solver_totals: SolverStats| DetectionReport {
        design: d.name().to_string(),
        outcome,
        fanout_levels,
        properties,
        spurious_resolved,
        solver_totals,
        total_duration: start.elapsed(),
    };

    let mut level_idx = 0usize;
    while graph.ensure_level(design, level_idx)? {
        if cancelled() {
            return Err(DetectError::Cancelled);
        }
        let node = graph.level_node(level_idx).clone();
        let mut current_property = node.property.clone().expect("level nodes carry properties");
        let mut current_node = node.id;

        fanout_levels.push(names(&node.signals));
        emit(&FlowEvent::LevelStarted {
            level: level_idx + 1,
            signals: names(&node.signals),
            node: node.id,
            deps: node.deps.clone(),
            dep_signals: names(&node.dep_signals),
        });

        let proves = names(&current_property.prove_equal);
        let mut resolved = 0usize;
        // The property row's work: the sum over all of its rounds.
        let mut row_stats = CheckStats::default();

        let (trace, failed) = loop {
            if cancelled() {
                return Err(DetectError::Cancelled);
            }
            let checked = miter.check(design, &current_property);
            // A solve cut short by the kill switch reports an error; the
            // cancellation is the cause.
            if cancelled() {
                return Err(DetectError::Cancelled);
            }
            let mut check = checked?;
            let round_solver = check.stats.solver;
            solver_totals.accumulate(&round_solver);
            row_stats.accumulate(&check.stats);
            check.stats = row_stats;
            match &check.outcome {
                CheckOutcome::Holds => {
                    emit(&FlowEvent::PropertyProved {
                        property: check.property.clone(),
                        duration: check.stats.duration,
                        spurious_resolved: resolved,
                        solver: check.stats.solver,
                        node: current_node,
                    });
                    break (
                        PropertyTrace {
                            name: check.property.clone(),
                            proves: proves.clone(),
                            report: check,
                            spurious_resolved: resolved,
                        },
                        None,
                    );
                }
                CheckOutcome::Fails(cex) => {
                    let diag: Diagnosis = diagnose(
                        design,
                        cex,
                        &current_property.assume_equal,
                        &config.benign_state,
                    );
                    let spurious = diag.is_spurious();
                    emit(&FlowEvent::CounterexampleFound {
                        property: check.property.clone(),
                        diffs: cex.diff_names().iter().map(ToString::to_string).collect(),
                        spurious,
                        solver: round_solver,
                        node: current_node,
                    });
                    if !spurious {
                        let cex = (**cex).clone();
                        break (
                            PropertyTrace {
                                name: check.property.clone(),
                                proves: proves.clone(),
                                report: check,
                                spurious_resolved: resolved,
                            },
                            Some(cex),
                        );
                    }
                    if resolved >= config.max_resolution_iterations {
                        return Err(DetectError::ResolutionLimit {
                            property: current_property.name.clone(),
                            limit: config.max_resolution_iterations,
                        });
                    }
                    resolved += 1;
                    // Assume the benign fanin of the whole level equal, not
                    // only the registers this model happened to flip: the
                    // engineer has disqualified all of it, and waiving it
                    // register-by-register would just replay the same
                    // divergence next round.
                    let waived = benign_fanin_of(
                        design,
                        &current_property.prove_equal,
                        &current_property.assume_equal,
                        &config.benign_state,
                    );
                    current_property = current_property.with_extra_assumptions(&waived);
                    current_node =
                        graph.add_resolution(node.id, resolved, current_property.clone());
                    emit(&FlowEvent::ResolutionRound {
                        property: current_property.name.clone(),
                        round: resolved,
                        waived: names(&waived),
                        node: current_node,
                    });
                }
            }
        };

        spurious_total += trace.spurious_resolved;
        properties.push(trace);
        if let Some(cex) = failed {
            // Same end-of-flow hygiene as the secure exit: the pending
            // activation literals retire and the master compacts, so a
            // reused session starts clean.
            miter.finish_level_flow();
            let detected_by = if level_idx == 0 {
                DetectedBy::InitProperty
            } else {
                DetectedBy::FanoutProperty(level_idx)
            };
            return Ok(report(
                DetectionOutcome::PropertyFailed {
                    detected_by,
                    counterexample: Box::new(cex),
                },
                fanout_levels,
                properties,
                spurious_total,
                solver_totals,
            ));
        }
        level_idx += 1;
    }

    // End-of-flow hygiene: retire the last generation's activation literals
    // and compact.
    miter.finish_level_flow();
    let (coverage_node, covered, uncovered) = graph.finish_coverage(design)?;
    let uncovered = names(&uncovered);
    emit(&FlowEvent::Coverage {
        covered,
        uncovered: uncovered.clone(),
        node: coverage_node,
    });
    let outcome = if uncovered.is_empty() {
        DetectionOutcome::Secure
    } else {
        DetectionOutcome::UncoveredSignals { signals: uncovered }
    };
    Ok(report(
        outcome,
        fanout_levels,
        properties,
        spurious_total,
        solver_totals,
    ))
}
