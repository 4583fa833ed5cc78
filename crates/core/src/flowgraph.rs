//! The dependency-driven flow graph: Algorithm 1 as task nodes and edges.
//!
//! The paper presents the detection flow as a strictly sequential loop —
//! prove level *k*, resolve its spurious counterexamples, then move to level
//! *k + 1*.  Structurally, however, everything about that loop except the
//! verdicts is known without any solving: the fanout levels, their
//! properties, the antecedent each level assumes and the signals of the
//! previous level that actually feed each level's cone are all functions of
//! the netlist alone.  [`FlowGraph`] computes that structure and models the
//! flow as explicit nodes:
//!
//! * one [`FlowNodeKind::Level`] node per fanout level (the init property is
//!   level 1), carrying the level's [`IntervalProperty`] and a dependency
//!   edge to the previous level node, annotated with the *provenance* subset
//!   — the previous level's prove signals that occur in this level's
//!   antecedent cone;
//! * [`FlowNodeKind::Resolution`] nodes, appended dynamically when a level's
//!   counterexample is diagnosed as spurious: a resolution round is a
//!   re-enqueued node depending on the round before it, not an inner loop;
//! * one final [`FlowNodeKind::Coverage`] node depending on every level.
//!
//! Level nodes are planned **incrementally** ([`FlowGraph::ensure_level`]):
//! the structural walks behind a level (fanout computation, provenance
//! supports) only run when an executor actually reaches that level, so a
//! flow that dies on the init property pays for one level of planning,
//! exactly like the sequential loop it replaces.
//!
//! Executors walk the graph instead of re-deriving the loop, both in node
//! order on the calling thread: the session's executor (`htd-core`'s
//! scheduler) checks each node on one live miter encoding, and the
//! fresh-encode reference [`TrojanDetector`](crate::TrojanDetector) rebuilds
//! the encoding per property.  Node ids are stable across executors and are
//! surfaced in every [`FlowEvent`](crate::FlowEvent).

use std::collections::BTreeSet;

use htd_ipc::IntervalProperty;
use htd_rtl::structural::{drivers_support, get_fanout, uncovered_signals};
use htd_rtl::{SignalId, ValidatedDesign};

use crate::error::DetectError;
use crate::flow::DetectorConfig;

/// What a [`FlowNode`] contributes to the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowNodeKind {
    /// A fanout level's unique-cause property (level 1 is the init property).
    Level {
        /// The 1-based level index (`fanouts_CCk`).
        level: usize,
    },
    /// A spurious-counterexample resolution round of a level: the level's
    /// property re-enqueued with equality assumptions for the waived benign
    /// state.
    Resolution {
        /// The 1-based level the round re-verifies.
        level: usize,
        /// The 1-based resolution round.
        round: usize,
    },
    /// The final signal-coverage check (case 2 of Sec. IV-D).
    Coverage,
}

/// One node of the flow graph.
#[derive(Clone, Debug)]
pub struct FlowNode {
    /// Stable node id.  Level nodes are numbered `0..` in flow order;
    /// resolution and coverage nodes take the next free id when appended.
    pub id: usize,
    /// The node's role in the flow.
    pub kind: FlowNodeKind,
    /// The property the node checks (`None` for the coverage node).
    pub property: Option<IntervalProperty>,
    /// Ids of the nodes this node depends on.  A level depends on the level
    /// before it, a resolution round on the node it re-verifies, coverage on
    /// every level.
    pub deps: Vec<usize>,
    /// Dependency provenance: the subset of the *previous* level's prove
    /// signals that actually feed this node's antecedent cone.  A level-`k+1`
    /// sub-property is independent of every level-`k` sub-property outside
    /// this set — the structural fact that makes cross-level pipelining
    /// sound.
    pub dep_signals: Vec<SignalId>,
    /// The signals the node proves equal (the level's prove set; empty for
    /// coverage).
    pub signals: Vec<SignalId>,
}

/// Planner state for the not-yet-planned suffix of levels.
#[derive(Clone, Debug)]
struct Frontier {
    /// Every signal covered by the levels planned so far.
    fanouts_all: BTreeSet<SignalId>,
    /// The newest planned level's prove set.
    fanouts_cck: Vec<SignalId>,
    /// The fanout-property index the next extension would create.
    k: usize,
}

/// The decomposition of one detection run: level nodes planned incrementally
/// in flow order, dynamically appended resolution nodes, and a coverage node
/// once the structural fixpoint is reached.
#[derive(Clone, Debug)]
pub struct FlowGraph {
    nodes: Vec<FlowNode>,
    /// Node ids of the level nodes in flow order.  Ids are assigned in
    /// *creation* order, and resolution nodes may be created between two
    /// lazily planned levels, so level `k`'s id is not necessarily `k`.
    level_ids: Vec<usize>,
    /// `Some` while further levels may exist; `None` once the structural
    /// fixpoint was reached.
    frontier: Option<Frontier>,
    max_flow_iterations: usize,
    assume_previously_proven: bool,
}

impl FlowGraph {
    /// Starts planning the flow for a design: computes `fanouts_CC1` and the
    /// init property (one structural walk).  Further levels are planned on
    /// demand by [`ensure_level`](Self::ensure_level).
    pub fn plan(
        design: &ValidatedDesign,
        config: &DetectorConfig,
    ) -> Result<FlowGraph, DetectError> {
        let d = design.design();
        let inputs = d.inputs();
        let fanouts_cc1 = get_fanout(design, &inputs);
        let nodes = vec![FlowNode {
            id: 0,
            kind: FlowNodeKind::Level { level: 1 },
            property: Some(IntervalProperty::new(
                "init_property",
                Vec::new(),
                fanouts_cc1.clone(),
            )),
            deps: Vec::new(),
            dep_signals: Vec::new(),
            signals: fanouts_cc1.clone(),
        }];
        Ok(FlowGraph {
            nodes,
            level_ids: vec![0],
            frontier: Some(Frontier {
                fanouts_all: BTreeSet::new(),
                fanouts_cck: fanouts_cc1,
                k: 1,
            }),
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
    /// exceed `max_flow_iterations` — surfaced exactly when an executor
    /// reaches that level, matching the sequential loop it replaces.
    pub fn ensure_level(
        &mut self,
        design: &ValidatedDesign,
        idx: usize,
    ) -> Result<bool, DetectError> {
        while idx >= self.level_ids.len() {
            let Some(frontier) = &mut self.frontier else {
                return Ok(false);
            };
            if frontier.k > self.max_flow_iterations {
                return Err(DetectError::IterationLimit {
                    limit: self.max_flow_iterations,
                });
            }
            frontier
                .fanouts_all
                .extend(frontier.fanouts_cck.iter().copied());
            let fanouts_next = get_fanout(design, &frontier.fanouts_cck);
            let adds_new = fanouts_next
                .iter()
                .any(|s| !frontier.fanouts_all.contains(s));
            if !adds_new {
                self.frontier = None;
                return Ok(false);
            }
            let mut assume = frontier.fanouts_cck.clone();
            if self.assume_previously_proven {
                for &s in &frontier.fanouts_all {
                    if !assume.contains(&s) {
                        assume.push(s);
                    }
                }
            }
            let k = frontier.k;
            let prev_id = *self.level_ids.last().expect("level 1 exists");
            let prev_set: BTreeSet<SignalId> = frontier.fanouts_cck.iter().copied().collect();
            let dep_signals = feeding_signals(design, &fanouts_next, &prev_set);
            frontier.fanouts_cck = fanouts_next.clone();
            frontier.k += 1;
            let id = self.nodes.len();
            self.level_ids.push(id);
            self.nodes.push(FlowNode {
                id,
                kind: FlowNodeKind::Level { level: k + 1 },
                property: Some(IntervalProperty::new(
                    format!("fanout_property_{k}"),
                    assume,
                    fanouts_next.clone(),
                )),
                deps: vec![prev_id],
                dep_signals,
                signals: fanouts_next,
            });
        }
        Ok(true)
    }

    /// Finishes planning (reaches the structural fixpoint if executors have
    /// not already) and appends the coverage node.  Returns
    /// `(coverage node id, covered signal count, uncovered signals)`.
    ///
    /// # Errors
    ///
    /// [`DetectError::IterationLimit`] if the fixpoint lies beyond
    /// `max_flow_iterations`.
    pub fn finish_coverage(
        &mut self,
        design: &ValidatedDesign,
    ) -> Result<(usize, usize, Vec<SignalId>), DetectError> {
        // Drive planning to the fixpoint (no-op when executors already did).
        let _ = self.ensure_level(design, usize::MAX - 1)?;
        let mut covered: BTreeSet<SignalId> = BTreeSet::new();
        for &level_id in &self.level_ids {
            covered.extend(self.nodes[level_id].signals.iter().copied());
        }
        let covered: Vec<SignalId> = covered.into_iter().collect();
        let uncovered = uncovered_signals(design, &covered);
        let id = self.nodes.len();
        self.nodes.push(FlowNode {
            id,
            kind: FlowNodeKind::Coverage,
            property: None,
            deps: self.level_ids.clone(),
            dep_signals: Vec::new(),
            signals: Vec::new(),
        });
        Ok((id, covered.len(), uncovered))
    }

    /// Number of level nodes planned so far (more may appear via
    /// [`ensure_level`](Self::ensure_level)).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_ids.len()
    }

    /// The node of the 0-based level index (planned by a prior
    /// [`ensure_level`](Self::ensure_level) call).  Level index and node id
    /// differ once resolution nodes interleave with lazy planning — always
    /// address levels through this accessor.
    ///
    /// # Panics
    ///
    /// Panics if the level has not been planned.
    #[must_use]
    pub fn level_node(&self, idx: usize) -> &FlowNode {
        &self.nodes[self.level_ids[idx]]
    }

    /// `true` once the structural fixpoint is reached: no level beyond
    /// `level_count() - 1` exists.
    #[must_use]
    pub fn levels_complete(&self) -> bool {
        self.frontier.is_none()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: usize) -> &FlowNode {
        &self.nodes[id]
    }

    /// All nodes planned so far.
    #[must_use]
    pub fn nodes(&self) -> &[FlowNode] {
        &self.nodes
    }

    /// Appends a resolution-round node depending on `prev_node` — the level
    /// node for round 1, the previous round's node afterwards: the level's
    /// property re-enqueued with the round's extra equality assumptions.
    /// Returns the new node's id (deterministic: rounds are discovered in
    /// merge order).
    pub fn add_resolution(
        &mut self,
        prev_node: usize,
        round: usize,
        property: IntervalProperty,
    ) -> usize {
        let level = match self.nodes[prev_node].kind {
            FlowNodeKind::Level { level } | FlowNodeKind::Resolution { level, .. } => level,
            FlowNodeKind::Coverage => unreachable!("coverage has no resolution rounds"),
        };
        let id = self.nodes.len();
        let signals = self.nodes[prev_node].signals.clone();
        self.nodes.push(FlowNode {
            id,
            kind: FlowNodeKind::Resolution { level, round },
            property: Some(property),
            deps: vec![prev_node],
            dep_signals: Vec::new(),
            signals,
        });
        id
    }
}

/// The subset of `prev` (the previous level's prove set) lying in the
/// combinational support of any signal in `next` — the dependency provenance
/// of a level edge.
fn feeding_signals(
    design: &ValidatedDesign,
    next: &[SignalId],
    prev: &BTreeSet<SignalId>,
) -> Vec<SignalId> {
    drivers_support(design, next)
        .into_iter()
        .filter(|s| prev.contains(s))
        .collect()
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
    fn plans_levels_lazily_then_appends_coverage() {
        let design = pipeline();
        let mut graph = FlowGraph::plan(&design, &DetectorConfig::default()).unwrap();
        // Planning starts with only the init level.
        assert_eq!(graph.level_count(), 1);
        assert!(!graph.levels_complete());
        assert_eq!(graph.node(0).kind, FlowNodeKind::Level { level: 1 });
        assert_eq!(
            graph.node(0).property.as_ref().unwrap().name,
            "init_property"
        );
        // Demanding level 1 plans it; the design has 3 levels in total.
        assert!(graph.ensure_level(&design, 1).unwrap());
        assert_eq!(
            graph.node(1).property.as_ref().unwrap().name,
            "fanout_property_1"
        );
        assert!(graph.ensure_level(&design, 2).unwrap());
        assert!(!graph.ensure_level(&design, 3).unwrap());
        assert!(graph.levels_complete());
        assert_eq!(graph.level_count(), 3);
        let (coverage, covered, uncovered) = graph.finish_coverage(&design).unwrap();
        assert_eq!(graph.node(coverage).kind, FlowNodeKind::Coverage);
        assert_eq!(covered, 3);
        assert!(uncovered.is_empty());
    }

    #[test]
    fn level_edges_carry_signal_provenance() {
        let design = pipeline();
        let d = design.design();
        let mut graph = FlowGraph::plan(&design, &DetectorConfig::default()).unwrap();
        assert!(graph.ensure_level(&design, 1).unwrap());
        // Level 2 proves s2, whose driver reads s1 — the provenance edge
        // names exactly s1 out of level 1's prove set.
        let s1 = d.require("s1").unwrap();
        assert_eq!(graph.node(1).deps, vec![0]);
        assert_eq!(graph.node(1).dep_signals, vec![s1]);
        // Coverage depends on every level.
        let (coverage, _, _) = graph.finish_coverage(&design).unwrap();
        assert_eq!(graph.node(coverage).deps, vec![0, 1, 2]);
    }

    #[test]
    fn resolution_rounds_are_appended_nodes() {
        let design = pipeline();
        let mut graph = FlowGraph::plan(&design, &DetectorConfig::default()).unwrap();
        assert!(graph.ensure_level(&design, 1).unwrap());
        let property = graph.node(1).property.clone().unwrap();
        let id = graph.add_resolution(1, 1, property);
        assert_eq!(id, 2);
        assert_eq!(
            graph.node(id).kind,
            FlowNodeKind::Resolution { level: 2, round: 1 }
        );
        assert_eq!(graph.node(id).deps, vec![1]);
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
