//! Hand-rolled argument parsing for the `htd` binary.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use htd_core::BackendChoice;

/// Errors produced while parsing the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseArgsError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of the known ones.
    UnknownCommand(String),
    /// A flag is not recognised for this subcommand.
    UnknownFlag(String),
    /// A flag that needs a value was given without one.
    MissingValue(String),
    /// A required positional argument (the input file) is missing.
    MissingInput,
    /// A numeric flag value could not be parsed.
    InvalidNumber(String),
    /// The `--backend` value is not `builtin`, `dimacs:CMD` or
    /// `ipasir:LIB`.
    InvalidBackend(String),
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::MissingCommand => {
                write!(f, "missing subcommand (try `htd help`)")
            }
            ParseArgsError::UnknownCommand(cmd) => {
                write!(f, "unknown subcommand `{cmd}` (try `htd help`)")
            }
            ParseArgsError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ParseArgsError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ParseArgsError::MissingInput => write!(f, "missing input file"),
            ParseArgsError::InvalidNumber(value) => {
                write!(f, "`{value}` is not a valid number")
            }
            ParseArgsError::InvalidBackend(message) => write!(f, "{message}"),
        }
    }
}

impl Error for ParseArgsError {}

/// Options of the `detect` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectArgs {
    /// The RTL input file (Verilog or textual netlist).
    pub input: PathBuf,
    /// Explicit top module name for Verilog inputs.
    pub top: Option<String>,
    /// Write a GraphViz rendering of the fanout levels to this path.
    pub dot: Option<PathBuf>,
    /// Write counterexample waveforms to `<prefix>_instance{1,2}.vcd`.
    pub vcd_prefix: Option<PathBuf>,
    /// Register names to waive as benign state (Sec. V-B scenario 2).  A
    /// name the design does not define, or one naming an input, output or
    /// wire, is an error, never silently dropped.
    /// A `trusthub:NAME` input adds these to the benchmark's own waivers.
    pub benign: Vec<String>,
    /// The SAT backend to solve with (`builtin`, `dimacs:CMD` or
    /// `ipasir:LIB`).
    pub backend: BackendChoice,
    /// Stream per-property progress to stderr while the flow runs.
    pub progress: bool,
    /// Print the [`normalized`](htd_core::DetectionReport::normalized)
    /// report (wall-clock durations zeroed): runs over the same design are
    /// then byte-identical, which `htd submit` and the CI smoke rely on.
    pub normalize: bool,
}

impl Default for DetectArgs {
    fn default() -> Self {
        DetectArgs {
            input: PathBuf::new(),
            top: None,
            dot: None,
            vcd_prefix: None,
            benign: Vec::new(),
            backend: BackendChoice::Builtin,
            progress: false,
            normalize: false,
        }
    }
}

/// Options of the `serve` subcommand.  Every `None` keeps the
/// [`ServeOptions`](htd_serve::ServeOptions) default; `jobs` defaults to the
/// machine's available parallelism (and is raised to at least 2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`--addr`), e.g. `127.0.0.1:7171`.
    pub addr: Option<String>,
    /// Admission bound on queued plus running jobs (`--max-jobs`).
    pub max_jobs: Option<usize>,
    /// Job runner threads (`--jobs`; default available parallelism).
    pub jobs: Option<usize>,
    /// Per-job wall-clock ceiling in milliseconds (`--budget-deadline-ms`).
    pub budget_deadline_ms: Option<u64>,
    /// Per-job solver-conflict ceiling (`--budget-conflicts`).
    pub budget_conflicts: Option<u64>,
    /// Grace period for running jobs during drain (`--drain-deadline-ms`).
    pub drain_deadline_ms: Option<u64>,
}

/// Options of the `submit` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitArgs {
    /// The RTL input file (Verilog, netlist, or a `trusthub:NAME` scheme).
    pub input: PathBuf,
    /// Explicit top module name for Verilog inputs.
    pub top: Option<String>,
    /// Daemon address (`--addr`; default [`htd_serve::DEFAULT_ADDR`]).
    pub addr: Option<String>,
    /// Echo every raw NDJSON frame to stdout instead of the report text.
    pub ndjson: bool,
    /// Tenant label sent as the `X-HTD-Tenant` header (`--tenant`).
    pub tenant: Option<String>,
    /// Request a wall-clock budget for this job (`--budget-deadline-ms`).
    pub budget_deadline_ms: Option<u64>,
    /// Request a conflict budget for this job (`--budget-conflicts`).
    pub budget_conflicts: Option<u64>,
    /// Retry rejected/unreachable submissions up to N times (`--retries`;
    /// default 0: fail fast).  Only pre-acceptance failures are retried.
    pub retries: Option<u32>,
    /// Base backoff delay in milliseconds for `--retries` (`--retry-base-ms`).
    pub retry_base_ms: Option<u64>,
}

/// One parsed `htd` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run the detection flow on an RTL file.
    Detect(DetectArgs),
    /// Print design statistics and the fanout levels.
    Stats {
        /// The RTL input file.
        input: PathBuf,
        /// Explicit top module name for Verilog inputs.
        top: Option<String>,
    },
    /// Regenerate Table I of the paper on the bundled benchmarks.
    Table1,
    /// Run the perf-trajectory benchmark harness: the Table-I set (or a
    /// smoke subset) timed per design, printing a table and optionally
    /// writing a `BENCH_*.json` file.
    Bench {
        /// Write the JSON trajectory to this path.
        json: Option<PathBuf>,
        /// Run only the cheap smoke subset (used by CI).
        smoke: bool,
        /// The SAT backend to measure (rows and the JSON header carry the
        /// tag, so trajectories of different backends never get compared
        /// silently).
        backend: BackendChoice,
    },
    /// Solve a DIMACS CNF file and print the result in SAT-competition
    /// format (`s SATISFIABLE` / `s UNSATISFIABLE` plus `v` model lines).
    ///
    /// Exists so `--backend dimacs:…` can be pointed at the `htd` binary
    /// itself — the process-backend plumbing is testable without any
    /// third-party solver installed.
    Sat {
        /// The DIMACS CNF input file.
        input: PathBuf,
    },
    /// Run the baseline detectors on an RTL file for comparison.
    Baselines {
        /// The RTL input file.
        input: PathBuf,
        /// Explicit top module name for Verilog inputs.
        top: Option<String>,
        /// Unrolling bound for the bounded-model-checking baseline.
        bound: usize,
    },
    /// Run the multi-tenant detection daemon.
    Serve(ServeArgs),
    /// Submit an RTL file to a running daemon and stream its job.
    Submit(SubmitArgs),
    /// Print the canonical netlist text of an RTL input (the exact bytes
    /// `submit` sends).
    Export {
        /// The RTL input file (Verilog, netlist, or `trusthub:NAME`).
        input: PathBuf,
        /// Explicit top module name for Verilog inputs.
        top: Option<String>,
        /// Write to this file instead of stdout.
        output: Option<PathBuf>,
    },
    /// Run the workspace invariant checker (`htd-analyze`) over the source
    /// tree and report findings.
    Lint {
        /// Emit the machine-readable JSON report instead of text.
        json: bool,
        /// Workspace root to lint (default: walk up from the current
        /// directory to the first `[workspace]` manifest).
        root: Option<PathBuf>,
    },
    /// Print usage information.
    Help,
}

impl Command {
    /// Parses the command line (without the binary name).  `--help` or
    /// `-h` anywhere after a known subcommand asks for the usage, whatever
    /// else the line holds.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseArgsError`] describing the first problem found.
    pub fn parse<I, S>(args: I) -> Result<Command, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = args.into_iter().map(Into::into);
        let command = args.next().ok_or(ParseArgsError::MissingCommand)?;
        let rest: Vec<String> = args.collect();
        let wants_help = rest.iter().any(|arg| arg == "--help" || arg == "-h");
        match Self::parse_subcommand(&command, rest) {
            unknown @ Err(ParseArgsError::UnknownCommand(_)) => unknown,
            _ if wants_help => Ok(Command::Help),
            parsed => parsed,
        }
    }

    /// Parses the arguments `rest` of the subcommand `command`.
    fn parse_subcommand(command: &str, rest: Vec<String>) -> Result<Command, ParseArgsError> {
        match command {
            "detect" => {
                let mut parsed = DetectArgs::default();
                let mut input = None;
                let mut iter = rest.into_iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--top" => parsed.top = Some(required(&mut iter, "--top")?),
                        "--dot" => parsed.dot = Some(required(&mut iter, "--dot")?.into()),
                        "--vcd" => {
                            parsed.vcd_prefix = Some(required(&mut iter, "--vcd")?.into());
                        }
                        "--benign" => parsed.benign.push(required(&mut iter, "--benign")?),
                        "--backend" => {
                            let value = required(&mut iter, "--backend")?;
                            parsed.backend =
                                value.parse().map_err(ParseArgsError::InvalidBackend)?;
                        }
                        "--progress" => parsed.progress = true,
                        // Validated, then ignored: the flow runs on one
                        // thread.  `perfbench/run.py` still passes it; see
                        // htd-core's `compat` module for when it goes.
                        "--jobs" => {
                            positive_number(&required(&mut iter, "--jobs")?)?;
                        }
                        "--normalize" => parsed.normalize = true,
                        flag if flag.starts_with("--") => {
                            return Err(ParseArgsError::UnknownFlag(flag.to_string()))
                        }
                        positional => input = Some(PathBuf::from(positional)),
                    }
                }
                parsed.input = input.ok_or(ParseArgsError::MissingInput)?;
                Ok(Command::Detect(parsed))
            }
            "serve" => {
                let mut parsed = ServeArgs::default();
                let mut iter = rest.into_iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--addr" => parsed.addr = Some(required(&mut iter, "--addr")?),
                        "--max-jobs" => {
                            parsed.max_jobs =
                                Some(positive_number(&required(&mut iter, "--max-jobs")?)?);
                        }
                        "--jobs" => {
                            parsed.jobs = Some(positive_number(&required(&mut iter, "--jobs")?)?);
                        }
                        "--budget-deadline-ms" => {
                            parsed.budget_deadline_ms =
                                Some(positive_u64(&required(&mut iter, "--budget-deadline-ms")?)?);
                        }
                        "--budget-conflicts" => {
                            parsed.budget_conflicts =
                                Some(positive_u64(&required(&mut iter, "--budget-conflicts")?)?);
                        }
                        "--drain-deadline-ms" => {
                            parsed.drain_deadline_ms =
                                Some(positive_u64(&required(&mut iter, "--drain-deadline-ms")?)?);
                        }
                        other => return Err(ParseArgsError::UnknownFlag(other.to_string())),
                    }
                }
                Ok(Command::Serve(parsed))
            }
            "submit" => {
                let mut input = None;
                let mut top = None;
                let mut addr = None;
                let mut ndjson = false;
                let mut tenant = None;
                let mut budget_deadline_ms = None;
                let mut budget_conflicts = None;
                let mut retries = None;
                let mut retry_base_ms = None;
                let mut iter = rest.into_iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--top" => top = Some(required(&mut iter, "--top")?),
                        "--addr" => addr = Some(required(&mut iter, "--addr")?),
                        "--ndjson" => ndjson = true,
                        "--tenant" => tenant = Some(required(&mut iter, "--tenant")?),
                        "--budget-deadline-ms" => {
                            budget_deadline_ms =
                                Some(positive_u64(&required(&mut iter, "--budget-deadline-ms")?)?);
                        }
                        "--budget-conflicts" => {
                            budget_conflicts =
                                Some(positive_u64(&required(&mut iter, "--budget-conflicts")?)?);
                        }
                        "--retries" => {
                            let value = required(&mut iter, "--retries")?;
                            retries = Some(
                                value
                                    .parse()
                                    .map_err(|_| ParseArgsError::InvalidNumber(value))?,
                            );
                        }
                        "--retry-base-ms" => {
                            retry_base_ms =
                                Some(positive_u64(&required(&mut iter, "--retry-base-ms")?)?);
                        }
                        flag if flag.starts_with("--") => {
                            return Err(ParseArgsError::UnknownFlag(flag.to_string()))
                        }
                        positional => input = Some(PathBuf::from(positional)),
                    }
                }
                Ok(Command::Submit(SubmitArgs {
                    input: input.ok_or(ParseArgsError::MissingInput)?,
                    top,
                    addr,
                    ndjson,
                    tenant,
                    budget_deadline_ms,
                    budget_conflicts,
                    retries,
                    retry_base_ms,
                }))
            }
            "export" => {
                let mut input = None;
                let mut top = None;
                let mut output = None;
                let mut iter = rest.into_iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--top" => top = Some(required(&mut iter, "--top")?),
                        "-o" | "--output" => {
                            output = Some(PathBuf::from(required(&mut iter, "--output")?));
                        }
                        flag if flag.starts_with("--") => {
                            return Err(ParseArgsError::UnknownFlag(flag.to_string()))
                        }
                        positional => input = Some(PathBuf::from(positional)),
                    }
                }
                Ok(Command::Export {
                    input: input.ok_or(ParseArgsError::MissingInput)?,
                    top,
                    output,
                })
            }
            "sat" => {
                let mut input = None;
                for arg in rest {
                    if arg.starts_with("--") {
                        return Err(ParseArgsError::UnknownFlag(arg));
                    }
                    input = Some(PathBuf::from(arg));
                }
                Ok(Command::Sat {
                    input: input.ok_or(ParseArgsError::MissingInput)?,
                })
            }
            "stats" => {
                let (input, top, _) = positional_with_top(rest, None)?;
                Ok(Command::Stats { input, top })
            }
            "baselines" => {
                let (input, top, bound) = positional_with_top(rest, Some(8))?;
                Ok(Command::Baselines {
                    input,
                    top,
                    bound: bound.unwrap_or(8),
                })
            }
            "table1" => Ok(Command::Table1),
            "bench" => {
                let mut json = None;
                let mut smoke = false;
                let mut backend = BackendChoice::Builtin;
                let mut iter = rest.into_iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--json" => json = Some(PathBuf::from(required(&mut iter, "--json")?)),
                        "--smoke" => smoke = true,
                        "--backend" => {
                            let value = required(&mut iter, "--backend")?;
                            backend = value.parse().map_err(ParseArgsError::InvalidBackend)?;
                        }
                        other => return Err(ParseArgsError::UnknownFlag(other.to_string())),
                    }
                }
                Ok(Command::Bench {
                    json,
                    smoke,
                    backend,
                })
            }
            "lint" => {
                let mut json = false;
                let mut root = None;
                for arg in rest {
                    match arg.as_str() {
                        "--json" => json = true,
                        flag if flag.starts_with("--") => {
                            return Err(ParseArgsError::UnknownFlag(flag.to_string()))
                        }
                        positional => root = Some(PathBuf::from(positional)),
                    }
                }
                Ok(Command::Lint { json, root })
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(ParseArgsError::UnknownCommand(other.to_string())),
        }
    }
}

fn required(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ParseArgsError> {
    iter.next()
        .ok_or_else(|| ParseArgsError::MissingValue(flag.to_string()))
}

fn positive_number(value: &str) -> Result<usize, ParseArgsError> {
    match value.parse::<usize>() {
        Ok(parsed) if parsed > 0 => Ok(parsed),
        _ => Err(ParseArgsError::InvalidNumber(value.to_string())),
    }
}

fn positive_u64(value: &str) -> Result<u64, ParseArgsError> {
    match value.parse::<u64>() {
        Ok(parsed) if parsed > 0 => Ok(parsed),
        _ => Err(ParseArgsError::InvalidNumber(value.to_string())),
    }
}

/// Parses `<input> [--top NAME] [--bound N]` argument lists.
fn positional_with_top(
    rest: Vec<String>,
    default_bound: Option<usize>,
) -> Result<(PathBuf, Option<String>, Option<usize>), ParseArgsError> {
    let mut input = None;
    let mut top = None;
    let mut bound = default_bound;
    let mut iter = rest.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--top" => top = Some(required(&mut iter, "--top")?),
            "--bound" if default_bound.is_some() => {
                let value = required(&mut iter, "--bound")?;
                bound = Some(
                    value
                        .parse()
                        .map_err(|_| ParseArgsError::InvalidNumber(value))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(ParseArgsError::UnknownFlag(flag.to_string()))
            }
            positional => input = Some(PathBuf::from(positional)),
        }
    }
    Ok((input.ok_or(ParseArgsError::MissingInput)?, top, bound))
}

/// The usage text printed by `htd help`.
#[must_use]
pub fn usage() -> &'static str {
    "htd — golden-free formal hardware-Trojan detection (DATE'24 reproduction)

USAGE:
    htd detect <file> [--top NAME] [--benign REG]... [--dot FILE] [--vcd PREFIX]
                      [--backend builtin|dimacs:CMD|ipasir:LIB]
                      [--progress] [--jobs N] [--normalize]
    htd serve [--addr HOST:PORT] [--max-jobs N] [--jobs N]
              [--budget-deadline-ms N] [--budget-conflicts N]
              [--drain-deadline-ms N]
    htd submit <file> [--top NAME] [--addr HOST:PORT] [--ndjson] [--tenant NAME]
               [--budget-deadline-ms N] [--budget-conflicts N]
               [--retries N] [--retry-base-ms N]
    htd export <file> [--top NAME] [-o FILE]
    htd stats <file> [--top NAME]
    htd baselines <file> [--top NAME] [--bound N]
    htd table1
    htd bench [--json FILE] [--smoke] [--backend builtin|dimacs:CMD|ipasir:LIB]
    htd sat <file.cnf>
    htd lint [ROOT] [--json]
    htd help            (or --help / -h after any subcommand)

INPUTS:
    *.v / *.sv      synthesizable-subset Verilog (single clock domain)
    trusthub:NAME   a bundled Trust-Hub-style benchmark (e.g. trusthub:AES-T1400)
    anything else   the textual netlist format of htd-rtl

SUBCOMMANDS:
    detect      run Algorithm 1 (init/fanout properties + coverage check)
    serve       run the multi-tenant detection daemon (HTTP + NDJSON streaming)
    submit      send a design to a running daemon and stream its job
    export      print the canonical netlist text (the bytes submit sends)
    stats       design statistics and the structural fanout levels
    baselines   bounded model checking, random testing, UCI and FANCI
    table1      regenerate Table I of the paper on the bundled benchmarks
    bench       perf-trajectory harness (wall-clock and solver work per design)
    sat         solve a DIMACS CNF file (SAT-competition output format)
    lint        check the workspace sources against the repo invariants
                (unsafe-audit, determinism, strict-env, exhaustive-stats,
                serve-panic-hygiene); exits non-zero on unwaived findings

DETECT FLAGS:
    --benign REG             waive register REG as benign state (repeatable);
                             a name the design does not define, or a signal
                             that is not a register, is an error;
                             trusthub:NAME inputs already carry the
                             benchmark's own waivers, and REG adds to them
    --backend builtin        solve with the bundled incremental CDCL solver (default)
    --backend dimacs:CMD     shell out to a DIMACS-speaking solver binary per query
                             (the solver re-reads the whole CNF every time)
    --backend ipasir:LIB     load a solver shared library through the IPASIR
                             incremental C ABI: clauses are transmitted once and
                             the solver stays live across all queries.  The
                             bundled reference library is built by
                             `cargo build -p ipasir-shim` (libipasir_htd.so)
    --progress               stream per-property progress to stderr while running
    --jobs N                 accepted and ignored (N must be a positive
                             integer): the flow runs on one thread, because
                             a second worker made every measured workload
                             slower or left it unchanged
    --normalize              print the report with wall-clock durations zeroed;
                             runs over the same design are then byte-identical
                             (submit streams exactly this rendering)

SERVE FLAGS (the daemon's only settings; none come from the environment):
    --addr HOST:PORT         listen address (default 127.0.0.1:7171)
    --max-jobs N             admission bound on queued+running jobs (default 8)
    --jobs N                 job runner threads, at least 2; each runner
                             solves one job at a time (default: available
                             parallelism)
    --budget-deadline-ms N   per-job wall-clock ceiling; exhausted jobs stream a
                             budget_exhausted frame (default: unlimited)
    --budget-conflicts N     per-job solver-conflict ceiling, builtin backend
                             (default: unlimited)
    --drain-deadline-ms N    grace period for running jobs after SIGTERM or
                             POST /admin/drain before they are cancelled
                             (default 30000)

SUBMIT FLAGS:
    --addr HOST:PORT         daemon address (default 127.0.0.1:7171)
    --ndjson                 print every raw NDJSON frame instead of the report
    --tenant NAME            fair-share tenant label (X-HTD-Tenant header;
                             default: the daemon buckets by peer address)
    --budget-deadline-ms N   request a wall-clock budget for this job (the daemon
                             clamps it to its own ceiling)
    --budget-conflicts N     request a solver-conflict budget for this job
    --retries N              retry overloaded/draining/unreachable submissions up
                             to N times with exponential backoff (default 0:
                             fail fast; accepted jobs are never re-submitted)
    --retry-base-ms N        base backoff delay for --retries (default 100)

BENCH FLAGS:
    --json FILE              write the BENCH_*.json perf-trajectory file
    --smoke                  run only the cheap CI smoke subset
    --backend ...            measure an alternative SAT backend (rows and the
                             JSON header carry the backend tag)

LINT FLAGS:
    ROOT                     workspace root to lint (default: walk up from the
                             current directory to the first [workspace]
                             manifest)
    --json                   emit the machine-readable JSON report (every
                             finding incl. waived ones, with justifications)
                             instead of text.  Waive a finding in-source with
                             `htd-lint: allow(<rule>): <justification>`
"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_detect_invocation() {
        let cmd = Command::parse([
            "detect",
            "design.v",
            "--top",
            "aes",
            "--benign",
            "round",
            "--benign",
            "busy",
            "--dot",
            "graph.dot",
            "--vcd",
            "cex",
            "--backend",
            "dimacs:/usr/bin/kissat",
            "--progress",
        ])
        .unwrap();
        match cmd {
            Command::Detect(args) => {
                assert_eq!(args.input, PathBuf::from("design.v"));
                assert_eq!(args.top.as_deref(), Some("aes"));
                assert_eq!(args.benign, vec!["round", "busy"]);
                assert_eq!(args.dot, Some(PathBuf::from("graph.dot")));
                assert_eq!(args.vcd_prefix, Some(PathBuf::from("cex")));
                assert_eq!(args.backend, BackendChoice::dimacs("/usr/bin/kissat"));
                assert!(args.progress);
            }
            other => panic!("expected detect, got {other:?}"),
        }
    }

    #[test]
    fn detect_defaults_to_the_builtin_backend_without_progress() {
        match Command::parse(["detect", "design.v"]).unwrap() {
            Command::Detect(args) => {
                assert_eq!(args.backend, BackendChoice::Builtin);
                assert!(!args.progress);
            }
            other => panic!("expected detect, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_sat_subcommand() {
        match Command::parse(["sat", "query.cnf"]).unwrap() {
            Command::Sat { input } => assert_eq!(input, PathBuf::from("query.cnf")),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(
            Command::parse(["sat"]).unwrap_err(),
            ParseArgsError::MissingInput
        );
    }

    #[test]
    fn rejects_invalid_backend_values() {
        assert!(matches!(
            Command::parse(["detect", "x.v", "--backend", "z3"]).unwrap_err(),
            ParseArgsError::InvalidBackend(_)
        ));
        assert!(matches!(
            Command::parse(["detect", "x.v", "--backend", "dimacs:"]).unwrap_err(),
            ParseArgsError::InvalidBackend(_)
        ));
        assert!(matches!(
            Command::parse(["detect", "x.v", "--backend", "ipasir:"]).unwrap_err(),
            ParseArgsError::InvalidBackend(_)
        ));
    }

    #[test]
    fn parses_the_ipasir_backend_for_detect_and_bench() {
        match Command::parse(["detect", "x.v", "--backend", "ipasir:shim/libipasir_htd.so"])
            .unwrap()
        {
            Command::Detect(args) => {
                assert_eq!(args.backend, BackendChoice::ipasir("shim/libipasir_htd.so"));
            }
            other => panic!("expected detect, got {other:?}"),
        }
        match Command::parse(["bench", "--smoke", "--backend", "ipasir:lib.so"]).unwrap() {
            Command::Bench { backend, smoke, .. } => {
                assert_eq!(backend, BackendChoice::ipasir("lib.so"));
                assert!(smoke);
            }
            other => panic!("expected bench, got {other:?}"),
        }
        assert!(usage().contains("ipasir:LIB"));
    }

    #[test]
    fn parses_stats_baselines_table1_and_help() {
        assert!(matches!(
            Command::parse(["stats", "x.netlist"]).unwrap(),
            Command::Stats { .. }
        ));
        assert!(matches!(
            Command::parse(["table1"]).unwrap(),
            Command::Table1
        ));
        assert!(matches!(Command::parse(["help"]).unwrap(), Command::Help));
        match Command::parse(["baselines", "x.v", "--bound", "16"]).unwrap() {
            Command::Baselines { bound, .. } => assert_eq!(bound, 16),
            other => panic!("expected baselines, got {other:?}"),
        }
    }

    /// `--help` or `-h` after any subcommand, alone or among other
    /// arguments, asks for the usage; an unknown subcommand stays an error.
    #[test]
    fn help_after_every_subcommand_asks_for_the_usage() {
        for command in [
            "detect",
            "serve",
            "submit",
            "export",
            "stats",
            "baselines",
            "table1",
            "bench",
            "sat",
            "lint",
            "help",
        ] {
            for flag in ["--help", "-h"] {
                assert_eq!(
                    Command::parse([command, flag]),
                    Ok(Command::Help),
                    "{command} {flag}"
                );
                assert_eq!(
                    Command::parse([command, "x.v", "--bogus", flag]),
                    Ok(Command::Help),
                    "{command} x.v --bogus {flag}"
                );
            }
        }
        assert_eq!(
            Command::parse(["bogus", "--help"]),
            Err(ParseArgsError::UnknownCommand("bogus".into()))
        );
    }

    #[test]
    fn parses_jobs_and_bench() {
        // `detect --jobs N` is validated and ignored.
        assert_eq!(
            Command::parse(["detect", "design.v", "--jobs", "8"]).unwrap(),
            Command::parse(["detect", "design.v"]).unwrap()
        );
        for bad in ["0", "two"] {
            assert_eq!(
                Command::parse(["detect", "design.v", "--jobs", bad]).unwrap_err(),
                ParseArgsError::InvalidNumber(bad.into())
            );
        }
        match Command::parse(["bench", "--json", "BENCH.json", "--smoke"]).unwrap() {
            Command::Bench {
                json,
                smoke,
                backend,
            } => {
                assert_eq!(json, Some(PathBuf::from("BENCH.json")));
                assert!(smoke);
                assert_eq!(backend, BackendChoice::Builtin);
            }
            other => panic!("expected bench, got {other:?}"),
        }
        match Command::parse(["bench"]).unwrap() {
            Command::Bench {
                json,
                smoke,
                backend,
            } => {
                assert_eq!(json, None);
                assert!(!smoke);
                assert_eq!(backend, BackendChoice::Builtin);
            }
            other => panic!("expected bench, got {other:?}"),
        }
        // The schedule flags are gone.
        for args in [
            &["detect", "design.v", "--no-pipeline"][..],
            &["bench", "--jobs", "2"],
            &["bench", "--no-pipeline"],
            &["bench", "--wrong"],
        ] {
            assert!(matches!(
                Command::parse(args.iter().copied()).unwrap_err(),
                ParseArgsError::UnknownFlag(_)
            ));
        }
        assert!(usage().contains("htd bench"));
    }

    #[test]
    fn parses_serve_submit_and_export() {
        match Command::parse([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-jobs",
            "3",
            "--jobs",
            "2",
            "--budget-deadline-ms",
            "5000",
            "--budget-conflicts",
            "100000",
            "--drain-deadline-ms",
            "2000",
        ])
        .unwrap()
        {
            Command::Serve(args) => {
                assert_eq!(args.addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(args.max_jobs, Some(3));
                assert_eq!(args.jobs, Some(2));
                assert_eq!(args.budget_deadline_ms, Some(5000));
                assert_eq!(args.budget_conflicts, Some(100_000));
                assert_eq!(args.drain_deadline_ms, Some(2000));
            }
            other => panic!("expected serve, got {other:?}"),
        }
        assert_eq!(
            Command::parse(["serve"]).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        assert_eq!(
            Command::parse(["serve", "--max-jobs", "0"]).unwrap_err(),
            ParseArgsError::InvalidNumber("0".into())
        );
        assert_eq!(
            Command::parse(["serve", "--budget-deadline-ms", "0"]).unwrap_err(),
            ParseArgsError::InvalidNumber("0".into())
        );
        // The daemon caches nothing, so the cache budget flag is gone.
        assert_eq!(
            Command::parse(["serve", "--cache-bytes", "0"]).unwrap_err(),
            ParseArgsError::UnknownFlag("--cache-bytes".into())
        );

        match Command::parse([
            "submit",
            "design.v",
            "--addr",
            "127.0.0.1:7171",
            "--ndjson",
            "--tenant",
            "team-a",
            "--budget-deadline-ms",
            "1500",
            "--budget-conflicts",
            "9",
            "--retries",
            "4",
            "--retry-base-ms",
            "50",
        ])
        .unwrap()
        {
            Command::Submit(args) => {
                assert_eq!(args.input, PathBuf::from("design.v"));
                assert_eq!(args.addr.as_deref(), Some("127.0.0.1:7171"));
                assert!(args.ndjson);
                assert_eq!(args.tenant.as_deref(), Some("team-a"));
                assert_eq!(args.budget_deadline_ms, Some(1500));
                assert_eq!(args.budget_conflicts, Some(9));
                assert_eq!(args.retries, Some(4));
                assert_eq!(args.retry_base_ms, Some(50));
            }
            other => panic!("expected submit, got {other:?}"),
        }
        match Command::parse(["submit", "design.v", "--retries", "0"]).unwrap() {
            Command::Submit(args) => {
                assert_eq!(args.retries, Some(0), "--retries 0 means fail fast");
                assert_eq!(args.tenant, None);
                assert_eq!(args.budget_deadline_ms, None);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(
            Command::parse(["submit"]).unwrap_err(),
            ParseArgsError::MissingInput
        );

        match Command::parse(["export", "trusthub:AES-T1400", "-o", "aes.netlist"]).unwrap() {
            Command::Export { input, output, .. } => {
                assert_eq!(input, PathBuf::from("trusthub:AES-T1400"));
                assert_eq!(output, Some(PathBuf::from("aes.netlist")));
            }
            other => panic!("expected export, got {other:?}"),
        }

        match Command::parse(["detect", "x.v", "--normalize"]).unwrap() {
            Command::Detect(args) => assert!(args.normalize),
            other => panic!("expected detect, got {other:?}"),
        }
        assert!(usage().contains("htd serve"));
        assert!(usage().contains("htd submit"));
        assert!(usage().contains("trusthub:NAME"));
    }

    #[test]
    fn reports_helpful_errors() {
        assert_eq!(
            Command::parse(Vec::<String>::new()).unwrap_err(),
            ParseArgsError::MissingCommand
        );
        assert_eq!(
            Command::parse(["frobnicate"]).unwrap_err(),
            ParseArgsError::UnknownCommand("frobnicate".into())
        );
        assert_eq!(
            Command::parse(["detect"]).unwrap_err(),
            ParseArgsError::MissingInput
        );
        assert_eq!(
            Command::parse(["detect", "x.v", "--top"]).unwrap_err(),
            ParseArgsError::MissingValue("--top".into())
        );
        assert_eq!(
            Command::parse(["baselines", "x.v", "--bound", "many"]).unwrap_err(),
            ParseArgsError::InvalidNumber("many".into())
        );
        assert_eq!(
            Command::parse(["stats", "x.v", "--wrong"]).unwrap_err(),
            ParseArgsError::UnknownFlag("--wrong".into())
        );
        assert!(usage().contains("htd detect"));
    }
}
