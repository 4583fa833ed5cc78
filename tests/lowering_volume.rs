//! Lowering-volume guard: how many AIG nodes the detection flow builds.
//!
//! A property relates only the fanout cone of its prove signals at `t+1`, so
//! the lowering it pays for should scale with that cone, not with the whole
//! design.  Binding every register's next state into the frame-`t+1`
//! contexts to prove one wire built ~380 K AIG nodes for a ~400-node AES
//! property; this suite pins the cone-exact volumes with committed bounds.
//! A property also stops lowering at its first counterexample: the prove
//! signals behind it are never bit-blasted.
//!
//! The counts come from each property's `stats.aig_nodes`, which is part of
//! the normalized report.  A property row sums all of its
//! spurious-counterexample resolution rounds, so the bounds see every
//! round's lowering.

use golden_free_htd::detect::{DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::trusthub::registry::Benchmark;

/// No bundled design may build more AIG nodes than this over its whole flow.
/// The largest flows are the two AES designs whose S-box cones the cone
/// rule cannot reach (AES-T2800 builds 16,427 nodes, AES-T2600 15,401) and
/// BasicRSA (HT-free), which builds 16,761 over its two rounds and two
/// levels; binding every register at `t+1` reaches 380,294–381,176 on
/// AES-T400, T1600 and T1700.
const PER_DESIGN_BOUND: usize = 40_000;

/// Bound on the sum over all bundled designs: 85,167 when a property stops
/// lowering at its first counterexample, 192,816 when every prove signal
/// of a level was lowered before the first was solved, and 1,681,113 with
/// every register bound at `t+1`.
const TOTAL_BOUND: usize = 100_000;

/// The BasicRSA Trojan designs fail on their first sub-property, whose cone
/// holds 63–223 AIG nodes.  Lowering the whole init property builds the
/// `rsa_base` and `rsa_result` multiplier cones, ~30 K nodes per design,
/// that no query ever reads.
const FIRST_COUNTEREXAMPLE_BOUND: usize = 1_000;
const STOPS_AT_FIRST_COUNTEREXAMPLE: [Benchmark; 3] = [
    Benchmark::BasicRsaT200,
    Benchmark::BasicRsaT300,
    Benchmark::BasicRsaT400,
];

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
        let bound = if STOPS_AT_FIRST_COUNTEREXAMPLE.contains(&benchmark) {
            FIRST_COUNTEREXAMPLE_BOUND
        } else {
            PER_DESIGN_BOUND
        };
        if nodes > bound {
            over.push(format!(
                "{}: {nodes} AIG nodes (bound {bound})",
                benchmark.name()
            ));
        }
        total += nodes;
    }
    assert!(
        over.is_empty(),
        "designs over their lowering bound: {}",
        over.join(", ")
    );
    assert!(
        total <= TOTAL_BOUND,
        "all bundled designs built {total} AIG nodes (bound {TOTAL_BOUND})"
    );
}
