//! The session-based detection engine: the primary entry point of the flow.
//!
//! A [`DetectionSession`] owns the design, the configuration and one live
//! incremental miter encoding ([`MiterSession`]) and runs Algorithm 1 against
//! it: the whole init/fanout/coverage sequence lowers each property's cones
//! into **one** AIG and reuses one SAT backend across every property and
//! every spurious-counterexample re-verification round.  Sessions are built
//! with [`SessionBuilder`], which also selects the SAT backend
//! ([`BackendChoice`]): the bundled CDCL solver, any external
//! DIMACS-speaking solver binary, or any solver shared library exporting
//! the IPASIR incremental C ABI.
//!
//! # The flow
//!
//! Algorithm 1 is a sequential loop, and it runs as one: the fanout levels
//! are planned lazily by a structural level planner
//! ([`FlowGraph`](crate::FlowGraph)), and the flow proves them in order on
//! the calling thread.  Each level splits into per-signal sub-properties,
//! lowered, simulated and (unless simulation refutes them) encoded and
//! solved in place on the master one at a time, in id order, and the first
//! counterexample decides the level.  Reports are
//! therefore a pure function of the design, the configuration and the
//! backend ([`DetectionReport::normalized`] zeroes the wall-clock fields).
//! The deprecated [`TrojanDetector`](crate::TrojanDetector) runs the same
//! loop with a fresh encoding per property: the reference the equivalence
//! suite compares sessions against.
//!
//! [`DetectionReport::normalized`]: crate::DetectionReport::normalized
//!
//! Progress is observable while the flow runs through the streaming
//! [`FlowEvent`] API: pass an observer to
//! [`DetectionSession::run_with_observer`] and receive one event per fanout
//! level, proved property, counterexample, resolution round and coverage
//! verdict.  The CLI renders these live; the benchmark harness uses them for
//! per-property timing without instrumenting the flow.
//!
//! [`FlowEvent`] documents the order in which the events arrive.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use htd_ipc::{MiterSession, SessionStats};
use htd_rtl::ValidatedDesign;
use htd_sat::{DimacsProcessBackend, IpasirBackend, SatBackend, Solver, SolverStats};

use crate::budget::BudgetTracker;
use crate::compat::PipelineStats;
use crate::error::DetectError;
use crate::flow::DetectorConfig;
use crate::report::DetectionReport;
use crate::scheduler::run_flow;

/// Which SAT backend a session solves with.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The bundled CDCL solver (default; incremental, learnt clauses persist
    /// across properties).
    #[default]
    Builtin,
    /// An external DIMACS-speaking solver binary, invoked once per query:
    /// the program plus fixed arguments inserted before the CNF file path
    /// (e.g. `htd` + `["sat"]`, or a solver's quiet flag).  Each query makes
    /// the solver re-read (and re-search) the whole CNF.
    DimacsProcess(PathBuf, Vec<String>),
    /// An external solver loaded as a shared library through the standard
    /// IPASIR incremental C ABI: clauses are transmitted once, the solver
    /// handle stays live across every query of the flow.  The bundled
    /// reference library is `crates/ipasir-shim` (`libipasir_htd.so`).
    Ipasir(PathBuf),
}

impl BackendChoice {
    /// An external solver invoked as `program <file.cnf>`.
    #[must_use]
    pub fn dimacs(program: impl Into<PathBuf>) -> Self {
        BackendChoice::DimacsProcess(program.into(), Vec::new())
    }

    /// An external solver library loaded through the IPASIR C ABI.
    #[must_use]
    pub fn ipasir(library: impl Into<PathBuf>) -> Self {
        BackendChoice::Ipasir(library.into())
    }

    /// Checks the choice can be brought up at all: exactly what
    /// [`instantiate`](Self::instantiate) checks, with the instance
    /// released again.  Callers that run many sessions (e.g. the bench
    /// harness) reject a typo with a clean error before they start.
    ///
    /// # Errors
    ///
    /// [`DetectError::Backend`] when instantiation would fail.
    pub fn validate(&self) -> Result<(), DetectError> {
        self.instantiate().map(drop)
    }

    /// Brings up one backend instance of this choice: the bundled solver or
    /// an external process/library wrapper.  [`SessionBuilder::build`] calls
    /// it once per session, and the daemon once at start-up to refuse a
    /// backend that cannot come up.  For `ipasir:` it dlopens the library
    /// and resolves its symbols; for `dimacs:` it checks that the solver
    /// program exists (directly or on `PATH`), so a missing solver fails
    /// every session at build, also one whose flow never queries it.
    ///
    /// # Errors
    ///
    /// [`DetectError::Backend`] when bring-up fails (e.g. a missing
    /// library or solver program).
    pub fn instantiate(&self) -> Result<Box<dyn SatBackend>, DetectError> {
        match self {
            BackendChoice::Builtin => Ok(Box::new(Solver::new())),
            BackendChoice::DimacsProcess(path, args) => {
                find_program(path)?;
                Ok(Box::new(
                    DimacsProcessBackend::new(path).with_args(args.clone()),
                ))
            }
            // The library is dlopen'ed (and its IPASIR symbols resolved)
            // right here, so a bad path fails at session build time with a
            // clear error instead of mid-flow.
            BackendChoice::Ipasir(path) => match IpasirBackend::load(path) {
                Ok(backend) => Ok(Box::new(backend)),
                Err(e) => Err(DetectError::Backend { message: e.message }),
            },
        }
    }
}

/// Checks that a DIMACS solver program exists.  A bare program name goes
/// through the `PATH` search `Command` will perform; anything with a
/// separator is a filesystem path.
fn find_program(program: &std::path::Path) -> Result<(), DetectError> {
    let is_path = program.components().count() > 1;
    let found = if is_path {
        program.is_file()
    } else {
        std::env::var_os("PATH").is_some_and(|paths| {
            std::env::split_paths(&paths).any(|dir| dir.join(program).is_file())
        })
    };
    if found {
        return Ok(());
    }
    Err(DetectError::Backend {
        message: format!(
            "solver binary `{}` not found (checked {})",
            program.display(),
            if is_path { "the given path" } else { "PATH" }
        ),
    })
}

impl FromStr for BackendChoice {
    type Err = String;

    /// Parses the CLI syntax: `builtin`, `dimacs:CMD` or `ipasir:LIB`.
    /// `CMD` is a whitespace-separated program plus fixed arguments (the
    /// CNF file path is appended per query), e.g. `dimacs:/usr/bin/kissat`
    /// or `dimacs:htd sat`; `LIB` is the path of a shared library
    /// exporting the IPASIR ABI, e.g. `ipasir:target/release/libipasir_htd.so`.
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "builtin" {
            return Ok(BackendChoice::Builtin);
        }
        if let Some(command) = s.strip_prefix("dimacs:") {
            let mut words = command.split_whitespace();
            let Some(program) = words.next() else {
                return Err(
                    "`dimacs:` needs a solver command, e.g. `dimacs:/usr/bin/kissat`".into(),
                );
            };
            return Ok(BackendChoice::DimacsProcess(
                PathBuf::from(program),
                words.map(ToString::to_string).collect(),
            ));
        }
        if let Some(library) = s.strip_prefix("ipasir:") {
            let library = library.trim();
            if library.is_empty() {
                return Err("`ipasir:` needs a shared-library path, e.g. \
                            `ipasir:target/release/libipasir_htd.so`"
                    .into());
            }
            return Ok(BackendChoice::Ipasir(PathBuf::from(library)));
        }
        Err(format!(
            "unknown backend `{s}` (expected `builtin`, `dimacs:CMD` or `ipasir:LIB`)"
        ))
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Builtin => write!(f, "builtin"),
            BackendChoice::DimacsProcess(path, args) => {
                write!(f, "dimacs:{}", path.display())?;
                for arg in args {
                    write!(f, " {arg}")?;
                }
                Ok(())
            }
            BackendChoice::Ipasir(path) => write!(f, "ipasir:{}", path.display()),
        }
    }
}

/// A progress event streamed while the detection flow runs.
///
/// # Ordering contract
///
/// For one [`run`](DetectionSession::run) the observer sees, in order:
///
/// 1. [`FlowEvent::LevelStarted`] for level `k` (1-based; level 1 is
///    `fanouts_CC1`, proved by the init property), followed by the events of
///    the property that proves the level:
///    * at most one [`FlowEvent::CounterexampleFound`] with
///      `spurious: true`, followed by its [`FlowEvent::ResolutionRound`]
///      (the round assumes every waived register in the level's fanin
///      equal, so no later counterexample of the level is spurious),
///    * then exactly one of [`FlowEvent::PropertyProved`] or a final
///      [`FlowEvent::CounterexampleFound`] with `spurious: false` (which ends
///      the run).
/// 2. If every property holds, one [`FlowEvent::Coverage`] event with the
///    uncovered-signal verdict.
///
/// Observers are `FnMut` callbacks; they must not assume any events
/// beyond this contract (future versions may add variants — match with a
/// wildcard arm).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowEvent {
    /// The flow starts working on fanout level `level` (1-based).
    LevelStarted {
        /// The 1-based level index (`fanouts_CCk`).
        level: usize,
        /// Names of the signals in the level.
        signals: Vec<String>,
    },
    /// A property was proved (after `spurious_resolved` resolution rounds).
    PropertyProved {
        /// The property name.
        property: String,
        /// Wall-clock time of all the property's checks, resolution rounds
        /// included.
        duration: Duration,
        /// Spurious counterexamples discharged on the way.
        spurious_resolved: usize,
        /// Solver work of all the property's checks, resolution rounds
        /// included (the property row's counters): conflicts, propagations,
        /// restarts, clause-GC and LBD counters.
        solver: SolverStats,
    },
    /// The checker found a counterexample to a property.
    CounterexampleFound {
        /// The property name.
        property: String,
        /// Names of the diverging signals.
        diffs: Vec<String>,
        /// `true` if the diagnosis classified it as spurious (fully explained
        /// by waived benign state) — a resolution round follows; `false`
        /// means the flow stops and reports a suspected Trojan.
        spurious: bool,
        /// Solver work of the check that produced the counterexample (this
        /// round only).
        solver: SolverStats,
    },
    /// A spurious counterexample is being discharged by assuming the waived
    /// registers equal and re-verifying the level's property.
    ResolutionRound {
        /// The property name.
        property: String,
        /// The 1-based resolution round.
        round: usize,
        /// Names of the newly assumed (waived) registers.
        waived: Vec<String>,
    },
    /// The final signal-coverage check ran (only reached when every property
    /// holds).
    Coverage {
        /// Number of state/output signals covered by some fanout level.
        covered: usize,
        /// Names of the uncovered signals (empty means the design is
        /// verified secure).
        uncovered: Vec<String>,
    },
}

/// Validates that the flow's decomposition applies to the design.
pub(crate) fn validate_design(design: &ValidatedDesign) -> Result<(), DetectError> {
    let d = design.design();
    if d.inputs().is_empty() {
        return Err(DetectError::NoInputs);
    }
    if d.state_and_output_signals().is_empty() {
        return Err(DetectError::NoStateOrOutputs);
    }
    Ok(())
}

/// Builder for [`DetectionSession`].
///
/// # Example
///
/// ```
/// use htd_core::{DetectionOutcome, SessionBuilder};
/// use htd_rtl::Design;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("latch");
/// let input = d.add_input("in", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(input))?;
/// d.add_output("out", d.signal(r))?;
///
/// let mut session = SessionBuilder::new(d.validated()?).build()?;
/// let report = session.run()?;
/// assert!(matches!(report.outcome, DetectionOutcome::Secure));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    design: ValidatedDesign,
    config: DetectorConfig,
    backend: BackendChoice,
}

impl SessionBuilder {
    /// Starts a builder for the given design with the default configuration
    /// and the builtin backend.  The defaults are constants: nothing here
    /// reads the environment.
    #[must_use]
    pub fn new(design: ValidatedDesign) -> Self {
        SessionBuilder {
            design,
            config: DetectorConfig::default(),
            backend: BackendChoice::Builtin,
        }
    }

    /// Sets the detector configuration.
    #[must_use]
    pub fn config(mut self, config: DetectorConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the SAT backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the session: validates the design, brings up the backend and
    /// allocates the miter's input and register variables on it.  The run
    /// lowers each property's cones as the flow reaches them.
    ///
    /// # Errors
    ///
    /// [`DetectError::NoInputs`] / [`DetectError::NoStateOrOutputs`] if the
    /// flow's decomposition does not apply to the design, and
    /// [`DetectError::Backend`] if the chosen backend cannot be brought up
    /// (e.g. an `ipasir:` library that does not load or misses required
    /// symbols).
    pub fn build(self) -> Result<DetectionSession, DetectError> {
        validate_design(&self.design)?;
        let miter = MiterSession::with_options(
            &self.design,
            self.config.checker,
            self.backend.instantiate()?,
        );
        Ok(self.assemble(miter))
    }

    /// Builds the session around an **existing** miter encoding instead of
    /// a fresh one.  No detection entry point does this; tests use it to
    /// run a session on a fork ([`MiterSession::fork`]) of a never-run
    /// master, which must report exactly what a fresh session does.
    /// `backend` is recorded for bookkeeping only — the miter keeps whatever
    /// backend it was built with.
    ///
    /// # Errors
    ///
    /// The same validation errors as [`build`](Self::build) (the backend is
    /// not instantiated, so backend bring-up errors cannot occur here).
    ///
    /// # Panics
    ///
    /// Panics if `miter` was built for a different design than the builder's
    /// (by design name — the miter's encoding is meaningless for any other
    /// netlist).
    pub fn build_with_miter(self, miter: MiterSession) -> Result<DetectionSession, DetectError> {
        validate_design(&self.design)?;
        assert_eq!(
            miter.design_name(),
            self.design.design().name(),
            "miter session is bound to one design"
        );
        Ok(self.assemble(miter))
    }

    fn assemble(self, miter: MiterSession) -> DetectionSession {
        DetectionSession {
            design: self.design,
            config: self.config,
            backend: self.backend,
            miter,
            pipeline_stats: PipelineStats::default(),
            cancel: None,
        }
    }
}

/// An owning, reusable detection engine bound to one design.
///
/// The session is the primary entry point of the toolkit (the borrow-tied
/// [`TrojanDetector`](crate::TrojanDetector) remains as a deprecated shim).
/// It keeps one live miter encoding across the whole flow: each property's
/// antecedent is expressed through solver assumptions and starting-state
/// variable sharing instead of re-encoding, so an N-property flow lowers
/// each property's cones into one AIG on one backend instead of building N
/// encodings.  See [`SessionBuilder`] for construction and
/// [`FlowEvent`] for the event contract.
pub struct DetectionSession {
    design: ValidatedDesign,
    config: DetectorConfig,
    backend: BackendChoice,
    miter: MiterSession,
    pub(crate) pipeline_stats: PipelineStats,
    cancel: Option<Arc<AtomicBool>>,
}

impl std::fmt::Debug for DetectionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionSession")
            .field("design", &self.design.design().name())
            .field("backend", &self.backend)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl DetectionSession {
    /// The design under analysis.
    #[must_use]
    pub fn design(&self) -> &ValidatedDesign {
        &self.design
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The chosen backend.
    #[must_use]
    pub fn backend(&self) -> &BackendChoice {
        &self.backend
    }

    /// Counters of the underlying miter session (properties checked, nodes
    /// encoded, queries issued, signals proved structurally, sub-properties
    /// refuted by simulation, binding epochs built).
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.miter.stats()
    }

    /// The master backend's cumulative counters (variables, clauses, queries
    /// and solver work including clause-GC and arena-compaction words
    /// reclaimed).  They accumulate over every run of the session and
    /// include master-side work no report shows, such as the end-of-flow
    /// clause-GC.
    #[must_use]
    pub fn backend_stats(&self) -> htd_sat::BackendStats {
        self.miter.backend_stats()
    }

    /// Installs an external cancellation flag for every later
    /// [`run`](Self::run): setting it to `true` from any thread interrupts
    /// the solve in flight mid-search and makes the run return
    /// [`DetectError::Cancelled`].  Runs only read the flag, so one flag
    /// serves all of the session's runs, and a flag left set cancels each
    /// of them.
    pub fn set_cancel_flag(&mut self, cancel: Arc<AtomicBool>) {
        self.cancel = Some(cancel);
    }

    /// Runs the full detection flow: init property, fanout properties until
    /// the structural fixpoint, then the signal-coverage check.
    ///
    /// # Errors
    ///
    /// [`DetectError::Backend`] if the solver backend fails (e.g. an
    /// external solver), [`DetectError::Cancelled`] if the cancel flag
    /// stopped the run, and [`DetectError::BudgetExhausted`] if the
    /// configured [`SolveBudget`](crate::SolveBudget) did.
    pub fn run(&mut self) -> Result<DetectionReport, DetectError> {
        self.run_with_observer(&mut |_| {})
    }

    /// Like [`run`](Self::run), but additionally streams every
    /// [`FlowEvent`] of the run to `observer`.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with_observer(
        &mut self,
        observer: &mut dyn FnMut(&FlowEvent),
    ) -> Result<DetectionReport, DetectError> {
        let DetectionSession {
            design,
            config,
            miter,
            pipeline_stats,
            cancel,
            ..
        } = self;
        // The run's one stop predicate: the cancel flag, and the solve
        // budget armed against the backend's conflict count now.  A run
        // with neither installs nothing.
        let tracker = (!config.budget.is_unlimited()).then(|| {
            let conflicts = miter.backend_stats().solver.conflicts;
            Arc::new(BudgetTracker::start(config.budget, conflicts))
        });
        if cancel.is_some() || tracker.is_some() {
            let (flag, budget) = (cancel.clone(), tracker.clone());
            miter.set_interrupt(Arc::new(move |conflicts| {
                budget.as_ref().is_some_and(|b| b.check(conflicts))
                    || flag.as_ref().is_some_and(|f| f.load(Ordering::SeqCst))
            }));
        }
        let result =
            run_flow(design, config, miter, cancel.as_deref(), observer).map(|(report, stats)| {
                *pipeline_stats = stats;
                report
            });
        let Some(tracker) = tracker else {
            return result;
        };
        match tracker.exhausted() {
            // The stop interrupts the query in flight, or the check before
            // the next sub-property, and the flow returns that error (an
            // external backend may fail outright instead); fold every
            // failure after exhaustion into the one structured cause.  A
            // run that reached its verdict before the trip keeps it.
            Some(reason) if result.is_err() => Err(DetectError::BudgetExhausted {
                reason: reason.to_owned(),
                conflicts: tracker.spent(miter.backend_stats().solver.conflicts),
            }),
            _ => result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DetectedBy, DetectionOutcome};
    use crate::SolveBudget;
    use htd_rtl::Design;

    fn infected_design() -> ValidatedDesign {
        let mut d = Design::new("infected");
        let input = d.add_input("in", 8).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let result = d.add_register("result", 8, 0).unwrap();
        let magic = d.eq_const(d.signal(input), 0xA5).unwrap();
        let trig_next = d.or(d.signal(trigger), magic).unwrap();
        d.set_register_next(trigger, trig_next).unwrap();
        let flip = d.zero_ext(d.signal(trigger), 8).unwrap();
        let payload = d.xor(d.signal(input), flip).unwrap();
        d.set_register_next(result, payload).unwrap();
        d.add_output("out", d.signal(result)).unwrap();
        d.validated().unwrap()
    }

    fn clean_pipeline() -> ValidatedDesign {
        let mut d = Design::new("clean");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn session_detects_the_trojan() {
        let mut session = SessionBuilder::new(infected_design()).build().unwrap();
        let report = session.run().unwrap();
        match &report.outcome {
            DetectionOutcome::PropertyFailed { detected_by, .. } => {
                assert_eq!(*detected_by, DetectedBy::InitProperty);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn session_verifies_a_clean_design_secure() {
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        let report = session.run().unwrap();
        assert!(report.outcome.is_secure(), "{report}");
        assert_eq!(report.properties_checked(), 3);
        assert_eq!(session.session_stats().properties_checked, 3);
    }

    #[test]
    fn events_follow_the_documented_contract() {
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        let mut events: Vec<FlowEvent> = Vec::new();
        let report = session
            .run_with_observer(&mut |e| events.push(e.clone()))
            .unwrap();
        assert!(report.outcome.is_secure());

        let levels: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::LevelStarted { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        assert_eq!(levels, vec![1, 2, 3]);
        let proved = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::PropertyProved { .. }))
            .count();
        assert_eq!(proved, 3);
        assert!(
            matches!(events.last(), Some(FlowEvent::Coverage { uncovered, .. }) if uncovered.is_empty())
        );
    }

    #[test]
    fn proved_events_carry_solver_work_counters() {
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        let mut saw_proved = false;
        session
            .run_with_observer(&mut |event| {
                if let FlowEvent::PropertyProved { solver, .. } = event {
                    saw_proved = true;
                    // Counters are per-check deltas; they must not explode to
                    // session-cumulative values on a trivial design.
                    assert!(solver.conflicts < 1000);
                }
            })
            .unwrap();
        assert!(saw_proved);
    }

    #[test]
    fn a_preset_cancel_flag_aborts_the_run() {
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        session.set_cancel_flag(Arc::new(AtomicBool::new(true)));
        assert_eq!(session.run().unwrap_err(), DetectError::Cancelled);
    }

    #[test]
    fn cancelling_mid_run_surfaces_as_cancelled() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        session.set_cancel_flag(Arc::clone(&flag));
        // The first event fires before the first solve, so flipping the flag
        // there exercises the coordinator's between-task checks.
        let result = session.run_with_observer(&mut |_| flag.store(true, Ordering::SeqCst));
        assert_eq!(result.unwrap_err(), DetectError::Cancelled);
    }

    #[test]
    fn normalized_reports_compare_equal_across_runs() {
        let mut first = SessionBuilder::new(clean_pipeline()).build().unwrap();
        let mut second = SessionBuilder::new(clean_pipeline()).build().unwrap();
        assert_eq!(
            first.run().unwrap().normalized(),
            second.run().unwrap().normalized()
        );
    }

    #[test]
    fn builder_rejects_inapplicable_designs() {
        let mut d = Design::new("no_inputs");
        let r = d.add_register("r", 1, 0).unwrap();
        let n = d.not(d.signal(r));
        d.set_register_next(r, n).unwrap();
        d.add_output("o", d.signal(r)).unwrap();
        let err = SessionBuilder::new(d.validated().unwrap())
            .build()
            .unwrap_err();
        assert_eq!(err, DetectError::NoInputs);
    }

    /// A missing DIMACS solver fails the session whether or not its flow
    /// would ever query the solver: the clean pipeline proves every level
    /// structurally.
    #[test]
    fn missing_dimacs_solver_surfaces_as_a_backend_error() {
        for design in [infected_design(), clean_pipeline()] {
            let name = design.design().name().to_owned();
            let err = SessionBuilder::new(design)
                .backend(BackendChoice::dimacs("/nonexistent/solver"))
                .build()
                .and_then(|mut session| session.run())
                .unwrap_err();
            assert!(
                matches!(err, DetectError::Backend { .. }),
                "{name}: {err:?}"
            );
        }
    }

    /// `validate` rejects unusable backends up front — a missing dimacs
    /// binary or ipasir library — while the builtin always passes.
    #[test]
    fn validate_rejects_missing_external_backends() {
        assert_eq!(BackendChoice::Builtin.validate(), Ok(()));
        let err = BackendChoice::dimacs("/nonexistent/solver")
            .validate()
            .unwrap_err();
        assert!(matches!(err, DetectError::Backend { .. }), "{err:?}");
        let err = BackendChoice::DimacsProcess("htd-no-such-binary".into(), Vec::new())
            .validate()
            .unwrap_err();
        assert!(matches!(err, DetectError::Backend { .. }), "{err:?}");
        assert!(BackendChoice::ipasir("/nonexistent/lib.so")
            .validate()
            .is_err());
        // A program that certainly exists on the test host passes.
        if std::path::Path::new("/bin/sh").is_file() {
            assert_eq!(BackendChoice::dimacs("/bin/sh").validate(), Ok(()));
        }
    }

    /// A bad `ipasir:` library fails at `build()`: the dlopen happens
    /// eagerly, as the program check of a `dimacs:` backend does.
    #[test]
    fn missing_ipasir_library_fails_at_session_build() {
        let err = SessionBuilder::new(infected_design())
            .backend(BackendChoice::ipasir("/nonexistent/libhtd-missing.so"))
            .build()
            .unwrap_err();
        match err {
            DetectError::Backend { message } => {
                assert!(message.contains("dlopen"), "{message}");
            }
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn backend_choice_parses_the_cli_syntax() {
        assert_eq!(
            "builtin".parse::<BackendChoice>().unwrap(),
            BackendChoice::Builtin
        );
        assert_eq!(
            "dimacs:/usr/bin/kissat".parse::<BackendChoice>().unwrap(),
            BackendChoice::dimacs("/usr/bin/kissat")
        );
        assert_eq!(
            "dimacs:htd sat".parse::<BackendChoice>().unwrap(),
            BackendChoice::DimacsProcess("htd".into(), vec!["sat".to_string()])
        );
        assert_eq!(
            "ipasir:target/release/libipasir_htd.so"
                .parse::<BackendChoice>()
                .unwrap(),
            BackendChoice::ipasir("target/release/libipasir_htd.so")
        );
        assert_eq!(BackendChoice::ipasir("lib.so").to_string(), "ipasir:lib.so");
        assert!("dimacs:".parse::<BackendChoice>().is_err());
        assert!("ipasir:".parse::<BackendChoice>().is_err());
        assert!("z3".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default().to_string(), "builtin");
        assert_eq!(
            BackendChoice::DimacsProcess("htd".into(), vec!["sat".into()]).to_string(),
            "dimacs:htd sat"
        );
    }

    /// A budget is armed per run: a budgeted session with no caller flag
    /// runs again, to the reports an unbudgeted session gives on its first
    /// and second runs.
    #[test]
    fn a_budgeted_session_runs_twice() {
        let budget = SolveBudget {
            deadline: Some(Duration::from_secs(3600)),
            conflict_ceiling: Some(u64::MAX),
        };
        for design in [clean_pipeline(), infected_design()] {
            let config = DetectorConfig {
                budget,
                ..DetectorConfig::default()
            };
            let mut budgeted = SessionBuilder::new(design.clone())
                .config(config)
                .build()
                .unwrap();
            let mut plain = SessionBuilder::new(design).build().unwrap();
            for _ in 0..2 {
                assert_eq!(
                    budgeted.run().unwrap().normalized(),
                    plain.run().unwrap().normalized()
                );
            }
        }
    }

    /// A zero deadline stops a flow that never queries the solver: the
    /// clean pipeline proves every level structurally, and the session
    /// polls the run's stop predicate before each sub-property.
    #[test]
    fn a_zero_deadline_stops_a_flow_without_solver_queries() {
        let mut plain = SessionBuilder::new(clean_pipeline()).build().unwrap();
        assert!(plain.run().unwrap().outcome.is_secure());
        assert_eq!(plain.session_stats().queries, 0);

        let config = DetectorConfig {
            budget: SolveBudget {
                deadline: Some(Duration::ZERO),
                conflict_ceiling: None,
            },
            ..DetectorConfig::default()
        };
        let mut session = SessionBuilder::new(clean_pipeline())
            .config(config)
            .build()
            .unwrap();
        assert_eq!(
            session.run().unwrap_err(),
            DetectError::BudgetExhausted {
                reason: "deadline".to_owned(),
                conflicts: 0,
            }
        );
    }

    /// Runs only read the caller's cancel flag: one flag serves every run
    /// of a session, and a run leaves it unset whether it returns a report
    /// or an error.
    #[test]
    fn a_run_leaves_its_cancel_flag_unset() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut session = SessionBuilder::new(clean_pipeline()).build().unwrap();
        session.set_cancel_flag(Arc::clone(&flag));
        assert!(session.run().is_ok());
        assert!(!flag.load(Ordering::SeqCst), "after Ok");
        assert!(session.run().is_ok(), "the flag serves the next run too");
        assert!(!flag.load(Ordering::SeqCst), "after the second Ok");

        // The run fails: a zero deadline stops it before its first
        // sub-property.
        let config = DetectorConfig {
            budget: SolveBudget {
                deadline: Some(Duration::ZERO),
                conflict_ceiling: None,
            },
            ..DetectorConfig::default()
        };
        let mut session = SessionBuilder::new(infected_design())
            .config(config)
            .build()
            .unwrap();
        session.set_cancel_flag(Arc::clone(&flag));
        assert!(matches!(
            session.run(),
            Err(DetectError::BudgetExhausted { .. })
        ));
        assert!(!flag.load(Ordering::SeqCst), "after Err");
    }
}
