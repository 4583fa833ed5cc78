//! The level planner reads each design's support table instead of walking
//! expressions.  On every bundled design it must plan exactly what the
//! textbook Algorithm 1 plans with a fresh walk of every driver's DAG per
//! `Get_Fanout` call: the same levels, names, antecedents and prove sets in
//! the same order, and the same coverage verdict.

use std::collections::{BTreeSet, HashSet};

use golden_free_htd::detect::{DetectorConfig, FlowGraph};
use golden_free_htd::rtl::{Design, Expr, ExprId, SignalId, SignalKind, ValidatedDesign};
use golden_free_htd::trusthub::registry::Benchmark;

/// The inputs and registers the DAG under `root` reads, with every wire and
/// output it reads expanded through its driver.
fn walk_support(d: &Design, root: ExprId) -> BTreeSet<SignalId> {
    let mut support = BTreeSet::new();
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        match *d.expr(e) {
            Expr::Signal(s) => match d.signal_info(s).kind() {
                SignalKind::Input | SignalKind::Register { .. } => {
                    support.insert(s);
                }
                SignalKind::Wire | SignalKind::Output => {
                    stack.push(d.signal_info(s).driver().expect("validated design"));
                }
            },
            ref node => stack.extend(node.children()),
        }
    }
    support
}

/// `Get_Fanout(IP, sources)`: every state or output signal whose driver
/// reads one of the sources.
fn get_fanout(d: &Design, sources: &[SignalId]) -> Vec<SignalId> {
    let sources: BTreeSet<SignalId> = sources.iter().copied().collect();
    d.state_and_output_signals()
        .into_iter()
        .filter(|&sig| {
            let driver = d.signal_info(sig).driver().expect("validated design");
            !walk_support(d, driver).is_disjoint(&sources)
        })
        .collect()
}

/// One planned level: its property name, antecedent and prove set.
type Level = (String, Vec<SignalId>, Vec<SignalId>);

/// Algorithm 1's levels with the flow's default antecedent (the newest level
/// first, then every earlier level's signals in id order), plus the number
/// of covered signals and the uncovered ones.
fn reference_plan(design: &ValidatedDesign) -> (Vec<Level>, usize, Vec<SignalId>) {
    let d = design.design();
    let mut levels: Vec<Level> = vec![(
        "init_property".to_string(),
        Vec::new(),
        get_fanout(d, &d.inputs()),
    )];
    let mut covered: BTreeSet<SignalId> = BTreeSet::new();
    loop {
        let newest = levels.last().expect("the init level").2.clone();
        covered.extend(newest.iter().copied());
        let next = get_fanout(d, &newest);
        if next.iter().all(|s| covered.contains(s)) {
            break;
        }
        let mut assume = newest.clone();
        assume.extend(covered.iter().filter(|s| !newest.contains(s)));
        levels.push((format!("fanout_property_{}", levels.len()), assume, next));
    }
    let uncovered = d
        .state_and_output_signals()
        .into_iter()
        .filter(|s| !covered.contains(s))
        .collect();
    (levels, covered.len(), uncovered)
}

#[test]
fn planner_matches_a_textbook_planner_on_every_bundled_design() {
    for benchmark in Benchmark::all() {
        let design = benchmark.build().expect("benchmark builds");
        let (want_levels, want_covered, want_uncovered) = reference_plan(&design);

        let mut planner =
            FlowGraph::plan(&design, &DetectorConfig::default()).expect("planning starts");
        let (covered, uncovered) = planner.coverage(&design).expect("fixpoint in reach");
        let levels: Vec<Level> = (0..planner.level_count())
            .map(|idx| {
                let level = planner.level(idx);
                (
                    level.name.clone(),
                    level.assume_equal.clone(),
                    level.prove_equal.clone(),
                )
            })
            .collect();
        assert_eq!(levels, want_levels, "{}", benchmark.name());
        assert_eq!(covered, want_covered, "{}", benchmark.name());
        assert_eq!(uncovered, want_uncovered, "{}", benchmark.name());
    }
}
