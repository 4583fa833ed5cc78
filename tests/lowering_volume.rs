//! Lowering-volume guard: how many AIG nodes the detection flow builds.
//!
//! A property relates only the fanout cone of its prove signals at `t+1`, so
//! the lowering it pays for should scale with that cone, not with the whole
//! design.  Binding every register's next state into the frame-`t+1`
//! contexts to prove one wire built ~380 K AIG nodes for a ~400-node AES
//! property; this suite pins the cone-exact volumes with committed bounds.
//!
//! The counts come from each property's `stats.aig_nodes`, which is part of
//! the normalized report.  A property row sums all of its
//! spurious-counterexample resolution rounds, so the bounds see every
//! round's lowering.

use golden_free_htd::detect::{DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::trusthub::registry::Benchmark;

/// No bundled design may build more AIG nodes than this over its whole flow.
/// The largest cone-exact flow is BasicRSA-T300's (30,638 nodes; BasicRSA
/// (HT-free) builds 30,341 over its two rounds and two levels); binding
/// every register at `t+1` reaches 380,294–381,176 on AES-T400, T1600 and
/// T1700.
const PER_DESIGN_BOUND: usize = 40_000;

/// Bound on the sum over all bundled designs: 192,816 cone-exact with every
/// resolution round counted (161,371 when a row kept only its last round),
/// against 1,681,113 with every register bound at `t+1`.
const TOTAL_BOUND: usize = 200_000;

fn run(benchmark: Benchmark) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
}

fn aig_nodes(report: &DetectionReport) -> usize {
    report
        .properties
        .iter()
        .map(|p| p.report.stats.aig_nodes)
        .sum()
}

#[test]
fn bundled_designs_lower_only_their_property_cones() {
    let mut total = 0;
    let mut over: Vec<String> = Vec::new();
    for benchmark in Benchmark::all() {
        let nodes = aig_nodes(&run(benchmark));
        if nodes > PER_DESIGN_BOUND {
            over.push(format!("{}: {nodes} AIG nodes", benchmark.name()));
        }
        total += nodes;
    }
    assert!(
        over.is_empty(),
        "designs over the {PER_DESIGN_BOUND}-node lowering bound: {}",
        over.join(", ")
    );
    assert!(
        total <= TOTAL_BOUND,
        "all bundled designs built {total} AIG nodes (bound {TOTAL_BOUND})"
    );
}
