//! Execution of parsed commands.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Duration;

use htd_baselines::bmc::{bounded_trojan_search, BmcOptions};
use htd_baselines::fanci::{control_value_analysis, FanciOptions};
use htd_baselines::uci::{unused_circuit_identification, UciOptions};
use htd_bench::trajectory;
use htd_core::replay::replay_counterexample;
use htd_core::{
    DetectError, DetectedBy, DetectionOutcome, DetectionReport, DetectorConfig, FlowEvent,
    SessionBuilder,
};
use htd_rtl::export::fanout_dot;
use htd_rtl::netlist;
use htd_rtl::stats::DesignStats;
use htd_rtl::structural::fanout_levels;
use htd_rtl::{SignalKind, ValidatedDesign};
use htd_sat::{parse_dimacs, SolveResult, Var};
use htd_serve::server::{ServeOptions, Server};
use htd_serve::{client as serve_client, ClientError};
use htd_trusthub::registry::{Benchmark, BenchmarkInfo, ExpectedDetection};

use crate::args::{usage, Command, DetectArgs, ServeArgs, SubmitArgs};
use crate::input::{load_design, trusthub_benchmark};
use crate::signal;

/// Errors reported by the command runner.
#[derive(Clone, Debug)]
pub enum CliError {
    /// Reading or writing a file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying message.
        message: String,
    },
    /// A front-end (Verilog, netlist or DIMACS) rejected the input.
    Frontend {
        /// The file involved.
        path: PathBuf,
        /// The parse or elaboration error.
        message: String,
    },
    /// The detection flow itself failed.  The underlying [`DetectError`]
    /// variant is preserved so callers (and exit-code logic) can distinguish
    /// a configuration problem from a backend failure.
    Flow(DetectError),
    /// Replaying a counterexample through the simulator failed.
    Replay {
        /// The underlying message.
        message: String,
    },
    /// A configuration value (a flag such as an unknown `--benign` register)
    /// was rejected.
    Config {
        /// The underlying message.
        message: String,
    },
    /// Talking to a running `htd serve` daemon failed.
    Service {
        /// The underlying message.
        message: String,
    },
    /// `htd lint` found unwaived findings.  The rendered report (text or
    /// JSON, per `--json`) is carried whole: it is the command's *output*,
    /// not an error banner, so `main` prints it on stdout and only the exit
    /// code signals failure.
    Lint {
        /// The rendered lint report.
        report: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            CliError::Frontend { path, message } => write!(f, "{}: {message}", path.display()),
            CliError::Flow(error) => write!(f, "detection flow failed: {error}"),
            CliError::Replay { message } => {
                write!(f, "counterexample replay failed: {message}")
            }
            CliError::Config { message } => write!(f, "{message}"),
            CliError::Service { message } => {
                write!(f, "service request failed: {message}")
            }
            CliError::Lint { report } => write!(f, "{report}"),
        }
    }
}

impl From<ClientError> for CliError {
    fn from(error: ClientError) -> Self {
        CliError::Service {
            message: error.to_string(),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Flow(error) => Some(error),
            _ => None,
        }
    }
}

impl From<DetectError> for CliError {
    fn from(error: DetectError) -> Self {
        CliError::Flow(error)
    }
}

/// Executes a parsed command and returns the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] for I/O, front-end and flow failures; argument
/// errors are handled earlier by [`Command::parse`].
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage().to_string()),
        Command::Detect(args) => detect(args),
        Command::Stats { input, top } => {
            let design = load_design(input, top.as_deref())?;
            Ok(stats_text(&design))
        }
        Command::Baselines { input, top, bound } => {
            let design = load_design(input, top.as_deref())?;
            Ok(baselines_text(&design, *bound))
        }
        Command::Table1 => Ok(table1_text()),
        Command::Bench {
            json,
            smoke,
            backend,
        } => bench(json.as_deref(), *smoke, backend),
        Command::Sat { input } => sat(input),
        Command::Serve(args) => serve(args),
        Command::Submit(args) => submit(args),
        Command::Export { input, top, output } => export(input, top.as_deref(), output.as_deref()),
        Command::Lint { json, root } => lint(*json, root.as_deref()),
    }
}

/// `htd lint`: run the workspace invariant checker (`htd-analyze`) and
/// render the report.  A clean tree returns the report as normal output; an
/// unwaived finding returns it through [`CliError::Lint`], which `main`
/// still prints on stdout but exits non-zero for — the contract the
/// `static-analysis` CI leg relies on.
fn lint(json: bool, root: Option<&Path>) -> Result<String, CliError> {
    let root = match root {
        Some(explicit) => explicit.to_path_buf(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| CliError::Io {
                path: PathBuf::from("."),
                message: e.to_string(),
            })?;
            htd_analyze::find_workspace_root(&cwd).ok_or_else(|| CliError::Config {
                message: format!(
                    "no `[workspace]` Cargo.toml above {} — pass the workspace root explicitly: \
                     htd lint ROOT",
                    cwd.display()
                ),
            })?
        }
    };
    let report =
        htd_analyze::lint_workspace(&root, &htd_analyze::LintConfig::default()).map_err(|e| {
            CliError::Io {
                path: root.clone(),
                message: e.to_string(),
            }
        })?;
    let rendered = if json {
        report.render_json()
    } else {
        report.render_text()
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(CliError::Lint { report: rendered })
    }
}

/// `htd serve`: run the multi-tenant detection daemon until killed or
/// drained.  Every knob is a flag applied over [`ServeOptions::default`];
/// none comes from the environment.  SIGTERM triggers a graceful drain:
/// admission stops, running jobs get the drain deadline to finish.
fn serve(args: &ServeArgs) -> Result<String, CliError> {
    let mut options = ServeOptions::default();
    if let Some(addr) = &args.addr {
        options.addr.clone_from(addr);
    }
    if let Some(max_jobs) = args.max_jobs.and_then(NonZeroUsize::new) {
        options.max_jobs = max_jobs;
    }
    if let Some(workers) = args.jobs.and_then(NonZeroUsize::new) {
        options.workers = workers;
    }
    if let Some(ms) = args.budget_deadline_ms {
        options.budget.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(ceiling) = args.budget_conflicts {
        options.budget.conflict_ceiling = Some(ceiling);
    }
    if let Some(ms) = args.drain_deadline_ms {
        options.drain_deadline = Duration::from_millis(ms);
    }
    let addr = options.addr.clone();
    let max_jobs = options.max_jobs;
    let server = Server::start(options).map_err(|e| CliError::Io {
        path: PathBuf::from(addr),
        message: e.to_string(),
    })?;
    eprintln!(
        "htd serve listening on {} ({} runner threads, {max_jobs} job slots)",
        server.addr(),
        server.runner_threads()
    );
    signal::install_sigterm_handler();
    let drain = server.drain_handle();
    std::thread::spawn(move || loop {
        if signal::sigterm_seen() {
            eprintln!("htd serve: SIGTERM received, draining");
            drain.drain();
            return;
        }
        // htd-lint: allow(determinism): SIGTERM poll cadence for the drain watcher; jobs and reports never observe it
        std::thread::sleep(Duration::from_millis(100));
    });
    server.join();
    Ok(String::new())
}

/// `htd submit`: send an RTL input to a running daemon and stream the job.
/// The default output is exactly the served report text — byte-identical to
/// `htd detect --normalize` on the same input; `--ndjson` echoes every raw
/// event frame instead.
fn submit(args: &SubmitArgs) -> Result<String, CliError> {
    let design = load_design(&args.input, args.top.as_deref())?;
    let netlist_text = netlist::dump(&design);
    let addr = args.addr.as_deref().unwrap_or(htd_serve::DEFAULT_ADDR);
    let ndjson = args.ndjson;
    let options = serve_client::SubmitOptions {
        tenant: args.tenant.clone(),
        deadline_ms: args.budget_deadline_ms,
        conflict_ceiling: args.budget_conflicts,
        retry: args.retries.filter(|&retries| retries > 0).map(|retries| {
            serve_client::RetryPolicy {
                retries,
                base: Duration::from_millis(args.retry_base_ms.unwrap_or(100)),
                // Concurrent clients desynchronise by pid; one client's
                // schedule stays reproducible across its own retries.
                seed: u64::from(std::process::id()),
            }
        }),
    };
    let submission =
        serve_client::submit_with_options(addr, &netlist_text, &options, &mut |line| {
            if ndjson {
                println!("{line}");
            }
        })?;
    if ndjson {
        Ok(String::new())
    } else {
        Ok(submission.report_text)
    }
}

/// `htd export`: print the canonical netlist text of an RTL input — the
/// exact bytes `submit` sends.
fn export(input: &Path, top: Option<&str>, output: Option<&Path>) -> Result<String, CliError> {
    let design = load_design(input, top)?;
    let text = netlist::dump(&design);
    match output {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| CliError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            })?;
            Ok(format!("netlist written to {}\n", path.display()))
        }
        None => Ok(text),
    }
}

/// Renders one [`FlowEvent`] as a human-readable progress line.
fn render_event(event: &FlowEvent) -> Option<String> {
    match event {
        FlowEvent::LevelStarted { level, signals } => {
            Some(format!("level {level}: {} signals to prove", signals.len()))
        }
        FlowEvent::PropertyProved {
            property,
            duration,
            spurious_resolved,
            solver,
            ..
        } => {
            let note = if *spurious_resolved > 0 {
                format!(" ({spurious_resolved} spurious CEX resolved)")
            } else {
                String::new()
            };
            Some(format!(
                "  proved {property} in {:.3}s{note} ({} conflicts, {} propagations)",
                duration.as_secs_f64(),
                solver.conflicts,
                solver.propagations
            ))
        }
        FlowEvent::CounterexampleFound {
            property,
            diffs,
            spurious,
            ..
        } => Some(format!(
            "  counterexample for {property} (diverging: {}){}",
            diffs.join(", "),
            if *spurious { " — spurious" } else { "" }
        )),
        FlowEvent::ResolutionRound {
            property,
            round,
            waived,
            ..
        } => Some(format!(
            "  re-verifying {property}, round {round} (waived: {})",
            waived.join(", ")
        )),
        FlowEvent::Coverage {
            covered, uncovered, ..
        } => Some(if uncovered.is_empty() {
            format!("coverage check: all {covered} state/output signals covered")
        } else {
            format!("coverage check: {} uncovered signal(s)", uncovered.len())
        }),
        // Forward compatibility: FlowEvent is non-exhaustive.
        _ => None,
    }
}

fn detect(args: &DetectArgs) -> Result<String, CliError> {
    let design = load_design(&args.input, args.top.as_deref())?;
    let d = design.design();
    // A bundled benchmark brings its own benign-state waivers (the ones
    // `table1` and `bench` apply); `--benign` names add to them.
    let mut benign = match trusthub_benchmark(&args.input)? {
        Some(benchmark) => benchmark.benign_state(&design),
        None => Vec::new(),
    };
    for name in &args.benign {
        let reg = d.lookup(name).ok_or_else(|| CliError::Config {
            message: format!(
                "--benign {name}: design `{}` has no register named `{name}`",
                d.name()
            ),
        })?;
        // The flow waives registers only, so any other signal would be
        // dropped without a word.
        let kind = match d.signal_info(reg).kind() {
            SignalKind::Register { .. } => None,
            SignalKind::Input => Some("an input"),
            SignalKind::Output => Some("an output"),
            SignalKind::Wire => Some("a wire"),
        };
        if let Some(kind) = kind {
            return Err(CliError::Config {
                message: format!("--benign {name}: `{name}` is {kind}, not a register"),
            });
        }
        if !benign.contains(&reg) {
            benign.push(reg);
        }
    }
    let config = DetectorConfig {
        benign_state: benign,
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .backend(args.backend.clone())
        .build()?;
    let report: DetectionReport = if args.progress {
        eprintln!(
            "running the detection flow with the `{}` backend",
            args.backend
        );
        session.run_with_observer(&mut |event| {
            if let Some(line) = render_event(event) {
                eprintln!("{line}");
            }
        })?
    } else {
        session.run()?
    };

    let mut out = String::new();
    if args.normalize {
        let _ = writeln!(out, "{}", report.normalized());
    } else {
        let _ = writeln!(out, "{report}");
    }
    if args.progress {
        let stats = session.session_stats();
        let _ = writeln!(
            out,
            "session: {} properties, {} AIG nodes encoded, {} SAT queries, \
             {} signals proved structurally, {} refuted by simulation",
            stats.properties_checked,
            stats.nodes_encoded,
            stats.queries,
            stats.structurally_proved,
            stats.refuted_by_simulation
        );
    }

    let design = session.design();
    if let Some(dot_path) = &args.dot {
        std::fs::write(dot_path, fanout_dot(design)).map_err(|e| CliError::Io {
            path: dot_path.clone(),
            message: e.to_string(),
        })?;
        let _ = writeln!(out, "fanout-level graph written to {}", dot_path.display());
    }
    if let Some(prefix) = &args.vcd_prefix {
        if let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome {
            let replay =
                replay_counterexample(design, counterexample).map_err(|e| CliError::Replay {
                    message: e.to_string(),
                })?;
            for (suffix, vcd) in [
                ("instance1", &replay.instance1_vcd),
                ("instance2", &replay.instance2_vcd),
            ] {
                let path = PathBuf::from(format!("{}_{suffix}.vcd", prefix.display()));
                std::fs::write(&path, vcd).map_err(|e| CliError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
                let _ = writeln!(out, "counterexample waveform written to {}", path.display());
            }
        } else {
            let _ = writeln!(out, "no counterexample to export (no property failed)");
        }
    }
    Ok(out)
}

/// `htd bench`: the perf-trajectory harness — time the benchmark set,
/// print a table, and write the `BENCH_*.json` file when requested.
fn bench(
    json: Option<&Path>,
    smoke: bool,
    backend: &htd_core::BackendChoice,
) -> Result<String, CliError> {
    // Reject an unusable backend (e.g. an `ipasir:` typo) with a clean
    // error before the harness starts measuring.
    backend.validate().map_err(CliError::Flow)?;
    let benchmarks = if smoke {
        trajectory::smoke_set()
    } else {
        Benchmark::all()
    };
    let records = trajectory::run_trajectory(&benchmarks, backend);

    let mut out = String::new();
    let _ = writeln!(out, "backend: {backend}");
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>10}  {:>9} {:>8} {:>7} {:>9} {:>6} {:>9}",
        "Benchmark",
        "Verdict",
        "wall (s)",
        "AIG nodes",
        "AIG/var",
        "sim cex",
        "conflicts",
        "GC",
        "collected"
    );
    let _ = writeln!(out, "{}", "-".repeat(105));
    for r in &records {
        let _ = writeln!(
            out,
            "{:<18} {:<20} {:>10.4}  {:>9} {:>8.2} {:>7} {:>9} {:>6} {:>9}",
            r.name,
            r.verdict,
            r.wall_secs,
            r.aig_nodes,
            r.aig_per_cnf_var(),
            r.refuted_by_simulation,
            r.conflicts,
            r.gc_runs,
            r.clauses_collected
        );
    }
    let total_wall: f64 = records.iter().map(|r| r.wall_secs).sum();
    let _ = writeln!(out, "total: {total_wall:.3}s");
    if let Some(path) = json {
        std::fs::write(path, trajectory::to_json(&records, backend)).map_err(|e| CliError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let _ = writeln!(out, "trajectory written to {}", path.display());
    }
    Ok(out)
}

/// `htd sat`: solve a DIMACS file and answer in SAT-competition format, so
/// `--backend dimacs:` can be pointed at the `htd` binary itself.
fn sat(input: &PathBuf) -> Result<String, CliError> {
    let text = std::fs::read_to_string(input).map_err(|e| CliError::Io {
        path: input.clone(),
        message: e.to_string(),
    })?;
    let mut solver = parse_dimacs(&text).map_err(|e| CliError::Frontend {
        path: input.clone(),
        message: e.to_string(),
    })?;
    let mut out = String::new();
    match solver.solve() {
        SolveResult::Sat => {
            let _ = writeln!(out, "s SATISFIABLE");
            let _ = write!(out, "v");
            for index in 0..solver.num_vars() {
                let var = Var::from_index(index as u32);
                let value = solver.value(var).unwrap_or(false);
                let _ = write!(out, " {}{}", if value { "" } else { "-" }, index + 1);
            }
            let _ = writeln!(out, " 0");
        }
        SolveResult::Unsat => {
            let _ = writeln!(out, "s UNSATISFIABLE");
        }
        SolveResult::Interrupted => {
            let _ = writeln!(out, "s UNKNOWN");
        }
    }
    Ok(out)
}

fn stats_text(design: &ValidatedDesign) -> String {
    let d = design.design();
    let stats = DesignStats::of(design);
    let mut out = String::new();
    let _ = writeln!(out, "design `{}`", d.name());
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(out, "fanout levels (Algorithm 1 proof order):");
    for (k, level) in fanout_levels(design).iter().enumerate() {
        let names: Vec<&str> = level.iter().map(|&s| d.signal_name(s)).collect();
        let _ = writeln!(out, "  fanouts_CC{:<2} {}", k + 1, names.join(", "));
    }
    out
}

fn run_flow_summary(design: &ValidatedDesign) -> Result<String, DetectError> {
    let mut session = SessionBuilder::new(design.clone()).build()?;
    Ok(session.run()?.summary())
}

fn baselines_text(design: &ValidatedDesign, bound: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "baseline comparison for `{}`", design.design().name());

    let report = run_flow_summary(design).unwrap_or_else(|e| format!("flow not applicable: {e}"));
    let _ = writeln!(out, "  IPC flow (paper):       {report}");

    let bmc = bounded_trojan_search(
        design,
        &BmcOptions {
            bound,
            ..BmcOptions::default()
        },
    );
    let _ = writeln!(
        out,
        "  BMC (bound {bound}):         {} ({} CNF vars, {:.3}s)",
        if bmc.detected() {
            "divergence found"
        } else {
            "no divergence within the bound"
        },
        bmc.cnf_vars,
        bmc.duration.as_secs_f64()
    );

    match unused_circuit_identification(design, &UciOptions::default()) {
        Ok(uci) => {
            let _ = writeln!(
                out,
                "  UCI (random tests):      {} of {} signal pairs flagged",
                uci.flagged.len(),
                uci.pairs_examined
            );
        }
        Err(e) => {
            let _ = writeln!(out, "  UCI (random tests):      not applicable: {e}");
        }
    }

    let fanci = control_value_analysis(design, &FanciOptions::default());
    let _ = writeln!(
        out,
        "  FANCI (control values):  {} of {} signals flagged",
        fanci.suspicious.len(),
        fanci.signals_analysed
    );
    out
}

fn table1_text() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:<16} {:<22} {:<22} Match",
        "Benchmark", "Payload", "Trigger", "Paper: detected by", "Ours: detected by"
    );
    let _ = writeln!(out, "{}", "-".repeat(95));
    for benchmark in Benchmark::table1() {
        let info = benchmark.info();
        let design = benchmark.build().expect("bundled benchmarks build");
        let config = DetectorConfig {
            benign_state: benchmark.benign_state(&design),
            ..DetectorConfig::default()
        };
        let report = SessionBuilder::new(design)
            .config(config)
            .build()
            .expect("bundled benchmarks are accepted")
            .run()
            .expect("flow completes");
        out.push_str(&table1_row(&info, &report.outcome));
    }
    out
}

/// One row of `htd table1`.  The Match column reads `yes` only when the
/// flow detected the Trojan by the mechanism the benchmark expects.
fn table1_row(info: &BenchmarkInfo, outcome: &DetectionOutcome) -> String {
    let ours = match outcome {
        DetectionOutcome::PropertyFailed { detected_by, .. } => detected_by.to_string(),
        DetectionOutcome::UncoveredSignals { .. } => "coverage check".to_string(),
        DetectionOutcome::Secure => "NOT DETECTED".to_string(),
    };
    format!(
        "{:<16} {:<10} {:<16} {:<22} {:<22} {}\n",
        info.name,
        info.payload_label,
        info.trigger_label,
        info.paper_detected_by,
        ours,
        if detected_as_expected(info.expected, outcome.detected_by()) {
            "yes"
        } else {
            "NO"
        }
    )
}

/// `true` when `detected` is the detection `expected` asks for.
fn detected_as_expected(expected: ExpectedDetection, detected: Option<DetectedBy>) -> bool {
    match expected {
        ExpectedDetection::Secure => detected.is_none(),
        ExpectedDetection::InitProperty => detected == Some(DetectedBy::InitProperty),
        ExpectedDetection::FanoutProperty(k) => detected == Some(DetectedBy::FanoutProperty(k)),
        ExpectedDetection::AnyFanoutProperty => {
            matches!(detected, Some(DetectedBy::FanoutProperty(_)))
        }
        ExpectedDetection::CoverageCheck => detected == Some(DetectedBy::CoverageCheck),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    const INFECTED: &str = "
module leaky(input clk, input rst, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  reg armed;
  always @(posedge clk or posedge rst) begin
    if (rst) armed <= 1'b0;
    else if (d == 8'h5A) armed <= 1'b1;
  end
  always @(posedge clk or posedge rst) begin
    if (rst) stage <= 8'd0;
    else stage <= d ^ {7'd0, armed};
  end
  assign q = stage;
endmodule
";

    #[test]
    fn detect_runs_end_to_end_and_writes_artefacts() {
        let input = write_temp("htd_cli_detect_input.v", INFECTED);
        let dot = std::env::temp_dir().join("htd_cli_detect_graph.dot");
        let vcd_prefix = std::env::temp_dir().join("htd_cli_detect_cex");
        let command = Command::Detect(DetectArgs {
            input: input.clone(),
            top: None,
            dot: Some(dot.clone()),
            vcd_prefix: Some(vcd_prefix.clone()),
            benign: vec![],
            ..DetectArgs::default()
        });
        let output = run(&command).unwrap();
        assert!(output.contains("TROJAN SUSPECTED"), "{output}");
        assert!(std::fs::read_to_string(&dot).unwrap().contains("digraph"));
        let vcd1 = PathBuf::from(format!("{}_instance1.vcd", vcd_prefix.display()));
        assert!(std::fs::read_to_string(&vcd1)
            .unwrap()
            .contains("$enddefinitions"));
        for path in [
            input,
            dot,
            vcd1,
            PathBuf::from(format!("{}_instance2.vcd", vcd_prefix.display())),
        ] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn detect_with_progress_reports_session_statistics() {
        let input = write_temp("htd_cli_detect_progress_input.v", INFECTED);
        let command = Command::Detect(DetectArgs {
            input: input.clone(),
            progress: true,
            ..DetectArgs::default()
        });
        let output = run(&command).unwrap();
        // The armed-flag Trojan's init property diverges in a simulation
        // lane, so no query runs.
        assert!(
            output.lines().any(|line| line.starts_with("session: ")
                && line.contains(" 0 SAT queries, ")
                && line.ends_with(" 1 refuted by simulation")),
            "{output}"
        );
        std::fs::remove_file(input).ok();
    }

    #[test]
    fn detect_rejects_an_unknown_benign_register_by_name() {
        let input = write_temp("htd_cli_detect_benign_input.v", INFECTED);
        for (name, want) in [
            ("no_such_reg", "has no register named `no_such_reg`"),
            ("q", "`q` is an output, not a register"),
        ] {
            let command = Command::Detect(DetectArgs {
                input: input.clone(),
                benign: vec!["armed".to_string(), name.to_string()],
                ..DetectArgs::default()
            });
            match run(&command).unwrap_err() {
                CliError::Config { message } => {
                    assert!(message.contains(want), "{message}");
                    assert!(!message.contains("`armed`"), "{message}");
                }
                other => panic!("expected a configuration error, got {other:?}"),
            }
        }
        std::fs::remove_file(input).ok();
    }

    /// `trusthub:NAME` carries the benchmark's own waivers, so every bundled
    /// design gets the verdict Table I expects without any `--benign` flag.
    #[test]
    fn detect_trusthub_names_apply_the_bundled_waivers() {
        use htd_trusthub::registry::ExpectedDetection;
        for benchmark in Benchmark::all() {
            let info = benchmark.info();
            let output = run(&Command::Detect(DetectArgs {
                input: PathBuf::from(format!("trusthub:{}", info.name)),
                ..DetectArgs::default()
            }))
            .unwrap();
            let verdict = output
                .lines()
                .find(|line| line.starts_with("  verdict: "))
                .unwrap_or_default();
            let want = match info.expected {
                ExpectedDetection::Secure => "SECURE".to_string(),
                ExpectedDetection::InitProperty => "(detected by init_property)".to_string(),
                ExpectedDetection::FanoutProperty(k) => {
                    format!("(detected by fanout_property_{k})")
                }
                ExpectedDetection::AnyFanoutProperty => "(detected by fanout_property_".to_string(),
                ExpectedDetection::CoverageCheck => "(coverage check)".to_string(),
            };
            assert!(verdict.contains(&want), "{}: {verdict}", info.name);
        }
    }

    /// A `--benign` name the benchmark already waives is not applied twice:
    /// the report matches the run without the flag.
    #[test]
    fn detect_deduplicates_benign_names_against_the_bundled_waivers() {
        let detect = |benign: Vec<String>| {
            run(&Command::Detect(DetectArgs {
                input: PathBuf::from("trusthub:RS232-T2400"),
                normalize: true,
                benign,
                ..DetectArgs::default()
            }))
            .unwrap()
        };
        let plain = detect(vec![]);
        assert!(plain.contains("detected by fanout_property_1"), "{plain}");
        assert_eq!(detect(vec!["tx_busy".to_string()]), plain);
    }

    /// A missing DIMACS solver fails `detect` on an infected design and on
    /// one whose flow never queries the solver (AES (HT-free) proves every
    /// level structurally), naming the missing program.
    #[test]
    fn missing_dimacs_backend_preserves_the_detect_error_variant() {
        let infected = write_temp("htd_cli_detect_backend_input.v", INFECTED);
        for input in [infected.clone(), PathBuf::from("trusthub:AES (HT-free)")] {
            let command = Command::Detect(DetectArgs {
                input: input.clone(),
                backend: htd_core::BackendChoice::dimacs("/nonexistent/solver"),
                ..DetectArgs::default()
            });
            let err = run(&command).unwrap_err();
            match err {
                CliError::Flow(DetectError::Backend { message }) => {
                    assert!(message.contains("/nonexistent/solver"), "{message}");
                }
                other => panic!("{}: expected Flow(Backend), got {other:?}", input.display()),
            }
        }
        std::fs::remove_file(infected).ok();
    }

    #[test]
    fn sat_subcommand_answers_in_competition_format() {
        let sat_file = write_temp("htd_cli_sat.cnf", "p cnf 2 2\n1 2 0\n-1 0\n");
        let output = run(&Command::Sat {
            input: sat_file.clone(),
        })
        .unwrap();
        assert!(output.starts_with("s SATISFIABLE"), "{output}");
        assert!(output.contains("v "), "{output}");
        std::fs::remove_file(sat_file).ok();

        let unsat_file = write_temp("htd_cli_unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n");
        let output = run(&Command::Sat {
            input: unsat_file.clone(),
        })
        .unwrap();
        assert_eq!(output.trim(), "s UNSATISFIABLE");
        std::fs::remove_file(unsat_file).ok();
    }

    #[test]
    fn stats_lists_the_fanout_levels() {
        let input = write_temp("htd_cli_stats_input.v", INFECTED);
        let output = run(&Command::Stats {
            input: input.clone(),
            top: None,
        })
        .unwrap();
        assert!(output.contains("fanouts_CC1"), "{output}");
        assert!(output.contains("leaky"));
        std::fs::remove_file(input).ok();
    }

    #[test]
    fn baselines_report_all_four_techniques() {
        let input = write_temp("htd_cli_baselines_input.v", INFECTED);
        let output = run(&Command::Baselines {
            input: input.clone(),
            top: None,
            bound: 4,
        })
        .unwrap();
        assert!(output.contains("IPC flow"));
        assert!(output.contains("BMC (bound 4)"));
        assert!(output.contains("UCI"));
        assert!(output.contains("FANCI"));
        std::fs::remove_file(input).ok();
    }

    #[test]
    fn help_prints_usage() {
        let output = run(&Command::Help).unwrap();
        assert!(output.contains("USAGE"));
        assert!(output.contains("--backend"));
    }

    /// The Match column names the mechanism, not just a detection: an
    /// init-property row caught by the coverage check prints `NO`, as does
    /// a missed detection, and the coverage row it belongs to prints `yes`.
    #[test]
    fn table1_rows_match_only_the_expected_mechanism() {
        let uncovered = DetectionOutcome::UncoveredSignals {
            signals: vec!["osc".to_owned()],
        };
        let match_column = |benchmark: Benchmark, outcome: &DetectionOutcome| {
            let row = table1_row(&benchmark.info(), outcome);
            row.trim_end().rsplit(' ').next().unwrap().to_owned()
        };
        assert_eq!(
            Benchmark::AesT1400.info().expected,
            ExpectedDetection::InitProperty
        );
        assert_eq!(match_column(Benchmark::AesT1400, &uncovered), "NO");
        assert_eq!(
            match_column(Benchmark::AesT1400, &DetectionOutcome::Secure),
            "NO"
        );
        assert_eq!(match_column(Benchmark::AesT1900, &uncovered), "yes");
        assert!(!detected_as_expected(
            ExpectedDetection::FanoutProperty(7),
            Some(DetectedBy::FanoutProperty(11))
        ));
        assert!(detected_as_expected(
            ExpectedDetection::AnyFanoutProperty,
            Some(DetectedBy::FanoutProperty(11))
        ));
    }
}
