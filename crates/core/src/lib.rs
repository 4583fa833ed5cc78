//! # htd-core
//!
//! The golden-free formal hardware-Trojan detection flow for non-interfering
//! accelerators — the primary contribution of the DATE'24 paper this
//! repository reproduces.
//!
//! The method never compares the design against a golden (known-clean) model.
//! Instead it compares **two instances of the same, possibly infected design**
//! under identical inputs but arbitrary (symbolic) starting states: if a
//! sequential Trojan exists, the solver can place one instance in a
//! *triggered* state and the other in a *dormant* state, and the payload —
//! whatever it is — must make some state or output signal diverge.  The flow
//! (Algorithm 1 of the paper) decomposes this check into single-cycle interval
//! properties ordered by structural distance from the inputs:
//!
//! 1. the **init property**: equal inputs at `t` ⇒ equal `fanouts_CC1` at
//!    `t+1`,
//! 2. one **fanout property** per level: equal `fanouts_CCk` at `t` ⇒ equal
//!    `fanouts_CCk+1` at `t+1`,
//! 3. a final **coverage check**: every state/output signal must appear in
//!    some level — signals that do not are unreachable from the inputs and
//!    may host an input-independent Trojan (e.g. a reset-started timer).
//!
//! The flow is exhaustive for every sequential Trojan whose payload manifests
//! in any state or output signal (Sec. IV-D), which includes the RTL artefacts
//! of physical side channels.
//!
//! # Architecture
//!
//! The primary entry point is the **session API**:
//!
//! * [`SessionBuilder`] — configures a run: an owned design, a
//!   [`DetectorConfig`] and a [`BackendChoice`] (bundled CDCL solver, an
//!   external DIMACS-speaking binary, or an IPASIR solver shared library).
//! * [`DetectionSession`] — owns one live, incremental miter encoding
//!   ([`htd_ipc::MiterSession`]) and runs Algorithm 1 against it: the whole
//!   init/fanout/coverage sequence lowers each property's cones into **one**
//!   AIG on one backend, expresses each
//!   property's antecedent through solver assumptions and starting-state
//!   variable sharing, and keeps the backend's learnt clauses alive across
//!   properties and re-verification rounds.  The flow runs on the calling
//!   thread: each sub-property is lowered, simulated, and (unless a
//!   simulation lane refutes it) encoded and solved on the master, one
//!   after another, up to the first counterexample.
//! * [`FlowEvent`] — the streaming observer API: per-level, per-property and
//!   per-counterexample progress while the flow runs (ordering contract
//!   documented on the type); consumed by the CLI for live output and by the
//!   benchmark harness for per-property timing.
//!
//! The deprecated [`TrojanDetector`] remains as the borrow-tied, re-encode-
//! per-property reference path; it runs the session's loop with a fresh
//! encoding per property, so the equivalence suite can compare the two.
//!
//! # Quickstart
//!
//! ```
//! use htd_core::{DetectionOutcome, FlowEvent, SessionBuilder};
//! use htd_rtl::Design;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8-bit pass-through accelerator with a tiny sequential Trojan:
//! // a trigger FSM arms itself when it sees the plaintext 0xAB and then
//! // flips the lowest bit of the result register (the payload).
//! let mut d = Design::new("toy_infected");
//! let data_in = d.add_input("data_in", 8)?;
//! let trigger = d.add_register("trigger", 1, 0)?;
//! let result = d.add_register("result", 8, 0)?;
//! let seen_magic = d.eq_const(d.signal(data_in), 0xAB)?;
//! let trig_next = d.or(d.signal(trigger), seen_magic)?;
//! d.set_register_next(trigger, trig_next)?;
//! let flip = d.zero_ext(d.signal(trigger), 8)?;
//! let payload = d.xor(d.signal(data_in), flip)?;
//! d.set_register_next(result, payload)?;
//! d.add_output("data_out", d.signal(result))?;
//!
//! let mut session = SessionBuilder::new(d.validated()?).build()?;
//! // `run()` alone gives the report; an observer also watches the flow.
//! let report = session.run_with_observer(&mut |event| {
//!     if let FlowEvent::CounterexampleFound { property, .. } = event {
//!         eprintln!("divergence found by {property}");
//!     }
//! })?;
//! match report.outcome {
//!     DetectionOutcome::PropertyFailed { ref detected_by, .. } => {
//!         // The divergence shows up one cycle after the inputs: init property.
//!         assert_eq!(detected_by.to_string(), "init_property");
//!     }
//!     ref other => panic!("expected a detection, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod budget;
mod compat;
pub mod diagnosis;
mod error;
mod flow;
mod flowgraph;
pub mod replay;
mod report;
mod scheduler;
mod session;

pub use budget::SolveBudget;
pub use compat::{EngineChoice, PipelineStats, PropertyScheduler, SharedSolvePool};
pub use error::DetectError;
pub use flow::DetectorConfig;
#[allow(deprecated)]
pub use flow::TrojanDetector;
pub use flowgraph::FlowGraph;
pub use report::{DetectedBy, DetectionOutcome, DetectionReport, PropertyTrace};
pub use session::{BackendChoice, DetectionSession, FlowEvent, SessionBuilder};
