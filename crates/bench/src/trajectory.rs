//! The perf-trajectory harness behind `htd bench --json`.
//!
//! Runs the bundled benchmark set through the detection flow and collects
//! one [`TrajectoryRecord`] per design: wall-clock, verdict, the lowering
//! volume (AIG nodes built, CNF variables created) and the solver work
//! counters (conflicts, propagations, restarts, clause-GC and LBD totals).
//! [`to_json`] renders the records as a self-contained `BENCH_*.json` file
//! so future changes have a baseline to diff against.
//!
//! Wall-clocks are the best of [`MEASURE_RUNS`] runs: the designs are small
//! enough that scheduler noise would otherwise dominate single-digit
//! millisecond flows.

use std::num::NonZeroUsize;
use std::time::Instant;

use htd_core::{BackendChoice, DetectorConfig, SessionBuilder};

use htd_trusthub::registry::Benchmark;

/// How many times each design is run; the fastest run is recorded.
pub const MEASURE_RUNS: usize = 3;

/// One benchmark's measurements for the perf-trajectory file.
#[derive(Clone, Debug)]
pub struct TrajectoryRecord {
    /// Benchmark name (`AES-T100`, `BasicRSA (HT-free)`, …).
    pub name: String,
    /// One-line verdict (`secure`, or the detection mechanism).
    pub verdict: String,
    /// Properties checked by the flow.
    pub properties_checked: usize,
    /// Spurious counterexamples resolved.
    pub spurious_resolved: usize,
    /// Best wall-clock of the flow run, in seconds.
    pub wall_secs: f64,
    /// AIG nodes built, summed over the report's properties (part of the
    /// normalized report, so identical on every run).
    pub aig_nodes: u64,
    /// CNF variables created, summed over the report's properties.
    pub cnf_vars: u64,
    /// Solver conflicts across the whole flow.
    pub conflicts: u64,
    /// Solver propagations across the whole flow.
    pub propagations: u64,
    /// Solver restarts across the whole flow.
    pub restarts: u64,
    /// Solver decisions across the whole flow.
    pub decisions: u64,
    /// Clause garbage collections across the whole flow.
    pub gc_runs: u64,
    /// Clauses physically collected by garbage collection.
    pub clauses_collected: u64,
    /// Sum of learnt-clause LBD values (divide by `conflicts` for the
    /// average glue).
    pub learnt_lbd_sum: u64,
    /// SAT queries consumed by the flow: one per sub-property handed to the
    /// solver.
    pub queries: u64,
    /// Prove signals discharged structurally (no solver work).
    pub structurally_proved: u64,
    /// Sub-properties whose counterexample simulation found, before any
    /// CNF was built (no solver work either).
    pub refuted_by_simulation: u64,
    /// Arena words reclaimed by clause-GC compaction sweeps.
    pub arena_words_reclaimed: u64,
}

impl TrajectoryRecord {
    /// AIG nodes built per CNF variable created: how much of the lowering
    /// the solver never sees.  Around 1 when the flow encodes what it
    /// lowers; infinite when it lowered nodes but encoded none.
    #[must_use]
    pub fn aig_per_cnf_var(&self) -> f64 {
        match (self.aig_nodes, self.cnf_vars) {
            (0, _) => 0.0,
            (_, 0) => f64::INFINITY,
            (nodes, vars) => nodes as f64 / vars as f64,
        }
    }
}

/// The smoke subset used by CI: the cheapest representative of each base
/// design class, the two designs with the hardest properties, and BasicRSA
/// (HT-free), whose init property lowers the largest cone in the bundled
/// set (16,761 AIG nodes over its spurious counterexample, which
/// simulation finds, and the resolution round that holds).
#[must_use]
pub fn smoke_set() -> Vec<Benchmark> {
    vec![
        Benchmark::AesT100,
        Benchmark::AesT1600,
        Benchmark::AesT2500,
        Benchmark::BasicRsaT200,
        Benchmark::Rs232T2400,
        Benchmark::Rs232HtFree,
        Benchmark::BasicRsaHtFree,
    ]
}

/// What one flow run yields for the trajectory: the report plus the
/// session counters the record columns need.
struct RunOutcome {
    secs: f64,
    report: htd_core::DetectionReport,
    structurally_proved: u64,
    refuted_by_simulation: u64,
}

fn run_once(benchmark: Benchmark, backend: &BackendChoice) -> RunOutcome {
    let design = benchmark.build().expect("bundled benchmarks build");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .backend(backend.clone())
        .build()
        .expect("bundled benchmarks are accepted");
    let start = Instant::now();
    let report = session.run().expect("detection flow completes");
    let secs = start.elapsed().as_secs_f64();
    let stats = session.session_stats();
    RunOutcome {
        secs,
        report,
        structurally_proved: stats.structurally_proved,
        refuted_by_simulation: stats.refuted_by_simulation,
    }
}

/// Measures one benchmark's detection flow, solving on `backend`.
#[must_use]
pub fn measure(benchmark: Benchmark, backend: &BackendChoice) -> TrajectoryRecord {
    let mut wall_secs = f64::INFINITY;
    let mut measured = None;
    for _ in 0..MEASURE_RUNS {
        let outcome = run_once(benchmark, backend);
        wall_secs = wall_secs.min(outcome.secs);
        measured = Some(outcome);
    }
    let outcome = measured.expect("at least one run");
    let report = outcome.report;
    let verdict = match report.outcome.detected_by() {
        None => "secure".to_string(),
        Some(mechanism) => mechanism.to_string(),
    };
    let totals = report.solver_totals;
    let volume = |stat: fn(&htd_ipc::CheckStats) -> usize| {
        report
            .properties
            .iter()
            .map(|p| stat(&p.report.stats) as u64)
            .sum()
    };
    TrajectoryRecord {
        name: benchmark.name().to_string(),
        verdict,
        properties_checked: report.properties_checked(),
        spurious_resolved: report.spurious_resolved,
        wall_secs,
        aig_nodes: volume(|s| s.aig_nodes),
        cnf_vars: volume(|s| s.cnf_vars),
        conflicts: totals.conflicts,
        propagations: totals.propagations,
        restarts: totals.restarts,
        decisions: totals.decisions,
        gc_runs: totals.gc_runs,
        clauses_collected: totals.clauses_collected,
        learnt_lbd_sum: totals.learnt_lbd_sum,
        queries: totals.solves,
        structurally_proved: outcome.structurally_proved,
        refuted_by_simulation: outcome.refuted_by_simulation,
        arena_words_reclaimed: totals.arena_words_reclaimed,
    }
}

/// Measures every given benchmark; see [`measure`].
#[must_use]
pub fn run_trajectory(benchmarks: &[Benchmark], backend: &BackendChoice) -> Vec<TrajectoryRecord> {
    benchmarks.iter().map(|&b| measure(b, backend)).collect()
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders trajectory records as a pretty-printed JSON document.
///
/// The schema is flat on purpose — every field is a number or a string — so
/// future PRs can diff two `BENCH_*.json` files with standard tooling.
#[must_use]
pub fn to_json(records: &[TrajectoryRecord], backend: &BackendChoice) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    // Schema v12: `refuted_by_simulation`, the sub-properties whose
    // counterexample simulation found without a query.  (v11:
    // `parallel_tasks` is gone; it equalled `queries`, one SAT query per
    // sub-property handed to the solver; v10: every query
    // solves on the master, so the fork columns (`fork_count`,
    // `bytes_cloned`, its watcher-arena slice, `snapshot_forks`,
    // `snapshot_bytes_cloned`) are gone; v9: the flow
    // runs on one thread, so each design is timed once and `jobs`,
    // `level_pipeline`, `sequential_secs`, `speedup` and their totals are
    // gone; v8: per-design lowering volume, `aig_nodes` and
    // `cnf_vars` summed over the report's properties; v7: `sequential_secs` times
    // the same executor at one worker — it used to time a separate
    // single-miter engine — and the v6 portfolio-race columns are gone; v5
    // split the watcher-arena bytes out of the fork cost model; v4 tagged the
    // trajectory with the SAT backend it measured; v3 added the fork cost
    // model of the arena-backed clause store: per-flow fork counts,
    // snapshot bytes and compaction words.)
    out.push_str("  \"schema\": \"htd-bench-trajectory-v12\",\n");
    out.push_str("  \"engine\": \"flowgraph\",\n");
    out.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        json_escape(&backend.to_string())
    ));
    // Host context: wall-clocks are only comparable between BENCH_*.json
    // files recorded on comparable machines, so the header says how many
    // hardware threads the recording machine had.
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    ));
    let total_wall: f64 = records.iter().map(|r| r.wall_secs).sum();
    out.push_str(&format!("  \"total_wall_secs\": {total_wall:.6},\n"));
    out.push_str("  \"designs\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&r.name)));
        out.push_str(&format!(
            "      \"verdict\": \"{}\",\n",
            json_escape(&r.verdict)
        ));
        out.push_str(&format!(
            "      \"properties_checked\": {},\n",
            r.properties_checked
        ));
        out.push_str(&format!(
            "      \"spurious_resolved\": {},\n",
            r.spurious_resolved
        ));
        out.push_str(&format!("      \"wall_secs\": {:.6},\n", r.wall_secs));
        out.push_str(&format!("      \"aig_nodes\": {},\n", r.aig_nodes));
        out.push_str(&format!("      \"cnf_vars\": {},\n", r.cnf_vars));
        out.push_str(&format!("      \"conflicts\": {},\n", r.conflicts));
        out.push_str(&format!("      \"propagations\": {},\n", r.propagations));
        out.push_str(&format!("      \"restarts\": {},\n", r.restarts));
        out.push_str(&format!("      \"decisions\": {},\n", r.decisions));
        out.push_str(&format!("      \"gc_runs\": {},\n", r.gc_runs));
        out.push_str(&format!(
            "      \"clauses_collected\": {},\n",
            r.clauses_collected
        ));
        out.push_str(&format!(
            "      \"learnt_lbd_sum\": {},\n",
            r.learnt_lbd_sum
        ));
        out.push_str(&format!("      \"queries\": {},\n", r.queries));
        out.push_str(&format!(
            "      \"structurally_proved\": {},\n",
            r.structurally_proved
        ));
        out.push_str(&format!(
            "      \"refuted_by_simulation\": {},\n",
            r.refuted_by_simulation
        ));
        out.push_str(&format!(
            "      \"arena_words_reclaimed\": {}\n",
            r.arena_words_reclaimed
        ));
        out.push_str(if i + 1 < records.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_set_measures_and_serialises() {
        let backend = BackendChoice::Builtin;
        let records = run_trajectory(&[Benchmark::Rs232T2400], &backend);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].verdict, "fanout_property_1");
        assert!(records[0].wall_secs > 0.0);
        let json = to_json(&records, &backend);
        assert!(json.contains("\"schema\": \"htd-bench-trajectory-v12\""));
        assert!(json.contains("\"backend\": \"builtin\""));
        assert!(json.contains("\"engine\": \"flowgraph\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("RS232-T2400"));
        for deleted in [
            "jobs",
            "level_pipeline",
            "sequential_secs",
            "speedup",
            "fork_count",
            "bytes_cloned",
            "snapshot_forks",
            "parallel_tasks",
        ] {
            assert!(!json.contains(&format!("{deleted}\"")), "{deleted} is gone");
        }
        assert!(json.contains(&format!("\"aig_nodes\": {}", records[0].aig_nodes)));
        assert!(json.contains(&format!("\"cnf_vars\": {}", records[0].cnf_vars)));
        assert!(records[0].aig_nodes > 0 && records[0].cnf_vars > 0);
        assert!(json.contains("\"arena_words_reclaimed\""));
        assert!(json.contains(&format!(
            "\"refuted_by_simulation\": {}",
            records[0].refuted_by_simulation
        )));
    }

    /// A counterexample that simulation found shows as such, and a flow
    /// that finds none reads 0: AES-T100's `AIG/var` is infinite because
    /// its property never reached the solver.
    #[test]
    fn records_say_which_engine_answered() {
        let backend = BackendChoice::Builtin;
        let infected = measure(Benchmark::AesT100, &backend);
        assert_eq!(infected.verdict, "init_property");
        assert!(infected.refuted_by_simulation >= 1);
        assert_eq!((infected.queries, infected.cnf_vars), (0, 0));
        let clean = measure(Benchmark::AesHtFree, &backend);
        assert_eq!(clean.verdict, "secure");
        assert_eq!(clean.refuted_by_simulation, 0);
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
    }

    #[test]
    fn smoke_set_is_small_but_covers_all_bases() {
        let set = smoke_set();
        assert!(set.len() <= 8, "smoke set must stay cheap");
        assert!(set.contains(&Benchmark::BasicRsaT200));
        assert!(set.contains(&Benchmark::AesT1600));
        assert!(set.contains(&Benchmark::BasicRsaHtFree));
    }
}
