//! The textual netlist format is the interchange point for external designs:
//! dumping a benchmark and parsing it back must preserve both simulation
//! behaviour and the detection verdict.

use golden_free_htd::detect::{DetectorConfig, SessionBuilder};
use golden_free_htd::rtl::netlist;
use golden_free_htd::rtl::sim::Simulator;
use golden_free_htd::rtl::{Design, ExprId, ValidatedDesign};
use golden_free_htd::trusthub::registry::{BaseDesign, Benchmark};
use golden_free_htd::trusthub::rsa::{modexp_ref, LATENCY};

/// The netlist text keeps the design's sharing (`let %N` bindings, `table
/// @N` ROMs), so BasicRSA's deep, heavily shared modexp datapath exports at
/// a few KB instead of expanding into a tree.  Every BasicRSA design
/// simulates identically after the round trip, and the HT-free one still
/// computes the reference modular exponentiation.
#[test]
fn rsa_benchmark_roundtrips_through_the_netlist_format() {
    for benchmark in [
        Benchmark::BasicRsaHtFree,
        Benchmark::BasicRsaT200,
        Benchmark::BasicRsaT300,
        Benchmark::BasicRsaT400,
    ] {
        let original = benchmark.build().unwrap();
        let text = netlist::dump(&original);
        let parsed = netlist::parse(&text).unwrap();

        // Same signals.
        assert_eq!(
            original.design().num_signals(),
            parsed.design().num_signals()
        );

        // Same simulation behaviour.
        let mut sims = [Simulator::new(&original), Simulator::new(&parsed)];
        for sim in &mut sims {
            sim.set_input_by_name("indata", 0x321).unwrap();
            sim.set_input_by_name("inexp", 0x11).unwrap();
            sim.set_input_by_name("inmod", 0xfff1).unwrap();
            sim.set_input_by_name("ds", 1).unwrap();
            sim.step().unwrap();
            sim.set_input_by_name("ds", 0).unwrap();
        }
        for _ in 0..LATENCY {
            for sim in &mut sims {
                sim.step().unwrap();
            }
            assert_eq!(
                sims[0].register_snapshot(),
                sims[1].register_snapshot(),
                "{}",
                benchmark.name()
            );
        }
        if benchmark == Benchmark::BasicRsaHtFree {
            assert_eq!(
                sims[1].peek_by_name("cypher").unwrap(),
                u128::from(modexp_ref(0x321, 0x11, 0xfff1))
            );
        }
    }
}

/// The number of expression nodes a DAG-exact text must rebuild: every
/// signal's own node plus every node reachable from a driver.
fn reachable_exprs(design: &ValidatedDesign) -> usize {
    let d = design.design();
    let mut seen = vec![false; d.num_exprs()];
    let mut stack: Vec<ExprId> = d.signal_ids().map(|s| d.signal(s)).collect();
    stack.extend(d.signals().filter_map(|(_, s)| s.driver()));
    let mut count = 0;
    while let Some(e) = stack.pop() {
        if std::mem::replace(&mut seen[e.index()], true) {
            continue;
        }
        count += 1;
        stack.extend(d.expr(e).children());
    }
    count
}

fn normalized_report(benchmark: Benchmark, design: &ValidatedDesign) -> String {
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(design),
        ..DetectorConfig::default()
    };
    let report = SessionBuilder::new(design.clone())
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    report.normalized().to_string()
}

/// On every bundled design the canonical text is a fixpoint of
/// parse-then-dump, the parsed design holds exactly the generated design's
/// reachable nodes, the detection report survives byte for byte (waivers
/// looked up by name), and the text stays small.
#[test]
fn every_benchmark_roundtrips_dag_exactly() {
    for benchmark in Benchmark::all() {
        let name = benchmark.name();
        let original = benchmark.build().unwrap();
        let text = netlist::dump(&original);
        let parsed = netlist::parse(&text).unwrap();
        assert_eq!(
            netlist::dump(&parsed),
            text,
            "{name}: dump is not canonical"
        );
        assert_eq!(
            parsed.design().num_exprs(),
            reachable_exprs(&original),
            "{name}: parsed node count"
        );
        assert_eq!(
            normalized_report(benchmark, &parsed),
            normalized_report(benchmark, &original),
            "{name}: report changed through the text"
        );
        let limit = match benchmark.info().base {
            BaseDesign::Aes => 64 * 1024,
            BaseDesign::BasicRsa => 8 * 1024,
            BaseDesign::Rs232 => usize::MAX,
        };
        assert!(text.len() <= limit, "{name}: {} bytes of text", text.len());
    }
}

#[test]
fn arithmetic_accumulator_roundtrips_through_the_netlist_format() {
    // A multiply-accumulate design: exercises the arithmetic operators in
    // the dump/parse path.
    let mut d = Design::new("mac");
    let a = d.add_input("a", 16).unwrap();
    let b = d.add_input("b", 16).unwrap();
    let acc = d.add_register("acc", 16, 0).unwrap();
    let product = d.mul(d.signal(a), d.signal(b)).unwrap();
    let sum = d.add(d.signal(acc), product).unwrap();
    d.set_register_next(acc, sum).unwrap();
    d.add_output("out", d.signal(acc)).unwrap();
    let original = d.validated().unwrap();

    let text = netlist::dump(&original);
    let parsed = netlist::parse(&text).unwrap();
    assert_eq!(
        original.design().num_signals(),
        parsed.design().num_signals()
    );

    // Same simulation behaviour on both variants.
    let stimuli = [(3u128, 5u128), (7, 11), (250, 301), (65_535, 2)];
    for design in [&original, &parsed] {
        let mut sim = Simulator::new(design);
        for (x, y) in stimuli {
            sim.set_input_by_name("a", x).unwrap();
            sim.set_input_by_name("b", y).unwrap();
            sim.step().unwrap();
        }
        assert_eq!(
            sim.peek_by_name("acc").unwrap(),
            (3 * 5 + 7 * 11 + 250 * 301 + 65_535 * 2) & 0xFFFF,
            "mismatch for {}",
            design.design().name()
        );
    }
}

#[test]
fn infected_uart_keeps_its_detection_verdict_after_a_roundtrip() {
    let benchmark = Benchmark::Rs232T2400;
    let original = benchmark.build().unwrap();
    let parsed = netlist::parse(&netlist::dump(&original)).unwrap();

    for design in [&original, &parsed] {
        let config = DetectorConfig {
            benign_state: benchmark.benign_state(design),
            ..DetectorConfig::default()
        };
        let report = SessionBuilder::new(design.clone())
            .config(config)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            !report.outcome.is_secure(),
            "trojan must be detected in both variants"
        );
    }
}

#[test]
fn clean_uart_keeps_its_secure_verdict_after_a_roundtrip() {
    let benchmark = Benchmark::Rs232HtFree;
    let original = benchmark.build().unwrap();
    let parsed = netlist::parse(&netlist::dump(&original)).unwrap();
    // Waivers are looked up by name so they survive the roundtrip.
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&parsed),
        ..DetectorConfig::default()
    };
    let report = SessionBuilder::new(parsed.clone())
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(report.outcome.is_secure());
}

#[test]
fn aes_netlist_dump_is_parseable() {
    // The S-box table is printed once and every lookup refers to it; make
    // sure the dump parses and keeps the same interface.
    let original = Benchmark::AesHtFree.build().unwrap();
    let text = netlist::dump(&original);
    assert_eq!(text.matches("table @").count(), 1);
    let parsed = netlist::parse(&text).unwrap();
    assert_eq!(parsed.design().inputs().len(), 2);
    assert_eq!(parsed.design().registers().len(), 42);
}
