//! The level planner: the fanout levels of Algorithm 1, planned lazily.
//!
//! Everything about the detection loop except its verdicts is structural:
//! the fanout levels, their interval properties and the antecedent each
//! level assumes are functions of the netlist alone.  [`FlowGraph`] plans
//! them one level at a time, holding one [`IntervalProperty`] per planned
//! level (level 1 is the init property, level `k + 1` is
//! `fanout_property_k`).
//!
//! Levels are planned **on demand** ([`FlowGraph::ensure_level`]): the
//! `Get_Fanout` behind a level only runs when the flow reaches that level, so
//! a flow that dies on the init property pays for one level of planning.
//! `Get_Fanout` walks no expression: it filters the driver-support table
//! that validation built ([`htd_rtl::structural::driver_support`]).
//! The flow's one loop (`walk` in the scheduler) asks for each level as it
//! reaches it, whether it checks on the session's live encoding or on the
//! fresh-encode reference [`TrojanDetector`](crate::TrojanDetector).

use std::collections::BTreeSet;

use htd_ipc::IntervalProperty;
use htd_rtl::structural::{get_fanout, uncovered_signals};
use htd_rtl::{SignalId, ValidatedDesign};

use crate::error::DetectError;
use crate::flow::DetectorConfig;

/// The fanout levels of one detection run, planned lazily in flow order.
#[derive(Clone, Debug)]
pub struct FlowGraph {
    /// One property per planned level, in flow order.
    levels: Vec<IntervalProperty>,
    /// Every signal proved by a planned level before the newest one.
    proved_before: BTreeSet<SignalId>,
    /// `true` once the structural fixpoint is reached: no level follows the
    /// newest planned one.
    complete: bool,
    max_flow_iterations: usize,
    assume_previously_proven: bool,
}

impl FlowGraph {
    /// Starts planning the flow for a design: computes `fanouts_CC1` and the
    /// init property (one `Get_Fanout`).  Further levels are planned on
    /// demand by [`ensure_level`](Self::ensure_level).
    pub fn plan(
        design: &ValidatedDesign,
        config: &DetectorConfig,
    ) -> Result<FlowGraph, DetectError> {
        let fanouts_cc1 = get_fanout(design, &design.design().inputs());
        Ok(FlowGraph {
            levels: vec![IntervalProperty::new(
                "init_property",
                Vec::new(),
                fanouts_cc1,
            )],
            proved_before: BTreeSet::new(),
            complete: false,
            max_flow_iterations: config.max_flow_iterations,
            assume_previously_proven: config.assume_previously_proven,
        })
    }

    /// Plans levels until level index `idx` (0-based) exists or the
    /// structural fixpoint is reached, and returns whether it exists.
    /// Each extension replays one iteration of Algorithm 1's loop: extend
    /// the covered set, compute the next fanout level, stop when it adds no
    /// new signal (Alg. 1, line 16).
    ///
    /// # Errors
    ///
    /// [`DetectError::IterationLimit`] when planning level `idx` would
    /// exceed `max_flow_iterations` — surfaced exactly when the flow
    /// reaches that level.
    pub fn ensure_level(
        &mut self,
        design: &ValidatedDesign,
        idx: usize,
    ) -> Result<bool, DetectError> {
        while idx >= self.levels.len() {
            if self.complete {
                return Ok(false);
            }
            let k = self.levels.len();
            if k > self.max_flow_iterations {
                return Err(DetectError::IterationLimit {
                    limit: self.max_flow_iterations,
                });
            }
            let newest = &self.levels[k - 1].prove_equal;
            self.proved_before.extend(newest.iter().copied());
            let fanouts_next = get_fanout(design, newest);
            if fanouts_next.iter().all(|s| self.proved_before.contains(s)) {
                self.complete = true;
                return Ok(false);
            }
            let mut assume = newest.clone();
            if self.assume_previously_proven {
                for &s in &self.proved_before {
                    if !assume.contains(&s) {
                        assume.push(s);
                    }
                }
            }
            self.levels.push(IntervalProperty::new(
                format!("fanout_property_{k}"),
                assume,
                fanouts_next,
            ));
        }
        Ok(true)
    }

    /// Plans the remaining levels up to the structural fixpoint and runs the
    /// coverage check (case 2 of Sec. IV-D).  Returns the number of signals
    /// some level proves and the state/output signals no level reaches.
    ///
    /// # Errors
    ///
    /// [`DetectError::IterationLimit`] if the fixpoint lies beyond
    /// `max_flow_iterations`.
    pub fn coverage(
        &mut self,
        design: &ValidatedDesign,
    ) -> Result<(usize, Vec<SignalId>), DetectError> {
        // Drive planning to the fixpoint (no-op when the flow already did).
        let _ = self.ensure_level(design, usize::MAX - 1)?;
        let covered: BTreeSet<SignalId> = self
            .levels
            .iter()
            .flat_map(|level| level.prove_equal.iter().copied())
            .collect();
        let covered: Vec<SignalId> = covered.into_iter().collect();
        let uncovered = uncovered_signals(design, &covered);
        Ok((covered.len(), uncovered))
    }

    /// Number of levels planned so far (more may appear via
    /// [`ensure_level`](Self::ensure_level)).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The property of the 0-based level index, planned by a prior
    /// [`ensure_level`](Self::ensure_level) call.
    ///
    /// # Panics
    ///
    /// Panics if the level has not been planned.
    #[must_use]
    pub fn level(&self, idx: usize) -> &IntervalProperty {
        &self.levels[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_rtl::Design;

    fn pipeline() -> ValidatedDesign {
        let mut d = Design::new("pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn plans_levels_lazily_then_checks_coverage() {
        let design = pipeline();
        let mut graph = FlowGraph::plan(&design, &DetectorConfig::default()).unwrap();
        // Planning starts with only the init level.
        assert_eq!(graph.level_count(), 1);
        assert_eq!(graph.level(0).name, "init_property");
        // Demanding level 1 plans it; the design has 3 levels in total.
        assert!(graph.ensure_level(&design, 1).unwrap());
        assert_eq!(graph.level(1).name, "fanout_property_1");
        assert!(graph.ensure_level(&design, 2).unwrap());
        assert!(!graph.ensure_level(&design, 3).unwrap());
        assert_eq!(graph.level_count(), 3);
        let (covered, uncovered) = graph.coverage(&design).unwrap();
        assert_eq!(covered, 3);
        assert!(uncovered.is_empty());
    }

    #[test]
    fn planning_respects_the_iteration_limit() {
        let design = pipeline();
        let config = DetectorConfig {
            max_flow_iterations: 1,
            ..DetectorConfig::default()
        };
        let mut graph = FlowGraph::plan(&design, &config).unwrap();
        // Level 1 (fanout_property_1) fits the budget; level 2 exceeds it.
        assert!(graph.ensure_level(&design, 1).unwrap());
        let err = graph.ensure_level(&design, 2).unwrap_err();
        assert_eq!(err, DetectError::IterationLimit { limit: 1 });
    }
}
