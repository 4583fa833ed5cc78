//! # golden-free-htd
//!
//! Umbrella crate for the golden-free formal hardware-Trojan detection toolkit,
//! a reproduction of *“A Golden-Free Formal Method for Trojan Detection in
//! Non-Interfering Accelerators”* (DATE 2024).
//!
//! This crate re-exports the individual workspace crates under stable module
//! names so that examples, integration tests and downstream users can depend on
//! a single crate:
//!
//! * [`rtl`] — word-level RTL intermediate representation, simulator and
//!   structural analysis ([`htd_rtl`]).
//! * [`sat`] — the CDCL SAT solver and the pluggable [`sat::SatBackend`]
//!   abstraction behind the property checker ([`htd_sat`]).
//! * [`ipc`] — bit-blasting and interval property checking over a 2-safety
//!   miter, one-shot ([`ipc::PropertyChecker`]) or incremental
//!   ([`ipc::MiterSession`]) ([`htd_ipc`]).
//! * [`detect`] — the paper's contribution: the golden-free Trojan detection
//!   flow, driven through a [`detect::DetectionSession`] ([`htd_core`]).
//! * [`trusthub`] — Trust-Hub-style benchmark accelerators and the Trojan
//!   insertion framework ([`htd_trusthub`]).
//! * [`verilog`] — a synthesizable-subset Verilog front-end lowering RTL
//!   source onto the IR ([`htd_verilog`]).
//! * [`baselines`] — the baseline detection techniques (bounded model
//!   checking, random testing, UCI, FANCI) the paper's related work argues
//!   against ([`htd_baselines`]).
//! * [`serve`] — the multi-tenant detection service behind `htd serve`: a
//!   fair-share job queue, a fixed set of runner threads and NDJSON event
//!   streaming ([`htd_serve`]).
//! * [`analyze`] — the workspace invariant checker behind `htd lint`: a
//!   dependency-free Rust token scanner enforcing the repo's determinism,
//!   unsafe-audit and panic-hygiene conventions ([`htd_analyze`]).
//!
//! # Quickstart
//!
//! Detection runs inside a [`detect::DetectionSession`], built with
//! [`detect::SessionBuilder`] from an owned design, a
//! [`detect::DetectorConfig`] and a [`detect::BackendChoice`].  The session
//! keeps **one** live miter encoding for the whole flow — every property of
//! Algorithm 1 (init, one fanout property per structural level, spurious-
//! counterexample re-verification rounds) lowers its cones into the same AIG
//! and solves on the same incremental SAT backend:
//!
//! ```
//! use golden_free_htd::detect::{DetectionOutcome, SessionBuilder};
//! use golden_free_htd::trusthub::registry::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build an infected benchmark (a pipelined AES with a plaintext-sequence
//! // triggered side-channel Trojan) and run the golden-free detection flow.
//! let design = Benchmark::AesT100.build()?;
//! let mut session = SessionBuilder::new(design).build()?;
//! let report = session.run()?;
//! assert!(!matches!(report.outcome, DetectionOutcome::Secure));
//! # Ok(())
//! # }
//! ```
//!
//! # Streaming progress
//!
//! Sessions stream [`detect::FlowEvent`]s while the flow runs — one event per
//! fanout level, proved property, counterexample, resolution round and
//! coverage verdict (the exact ordering contract is documented on
//! [`detect::FlowEvent`]):
//!
//! ```
//! use golden_free_htd::detect::{FlowEvent, SessionBuilder};
//! use golden_free_htd::trusthub::registry::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Verifying the HT-free UART needs its benign-state waivers (FSM phase
//! // and counter registers the engineer has inspected, Sec. V-B).
//! let benchmark = Benchmark::Rs232HtFree;
//! let design = benchmark.build()?;
//! let config = golden_free_htd::detect::DetectorConfig {
//!     benign_state: benchmark.benign_state(&design),
//!     ..Default::default()
//! };
//! let mut session = SessionBuilder::new(design).config(config).build()?;
//! let mut proved = Vec::new();
//! session.run_with_observer(&mut |event| {
//!     if let FlowEvent::PropertyProved { property, .. } = event {
//!         proved.push(property.clone());
//!     }
//! })?;
//! assert_eq!(proved.first().map(String::as_str), Some("init_property"));
//! # Ok(())
//! # }
//! ```
//!
//! # Choosing a SAT backend
//!
//! The solver behind a session is pluggable ([`sat::SatBackend`]): the
//! default is the bundled incremental CDCL solver, and
//! [`detect::BackendChoice::DimacsProcess`] shells out to any solver binary
//! speaking DIMACS with SAT-competition output (MiniSat, CaDiCaL, Kissat, or
//! the `htd sat` subcommand itself).  From the command line:
//!
//! ```text
//! htd detect design.v --progress --backend dimacs:/usr/bin/kissat
//! ```

#![forbid(unsafe_code)]

pub use htd_analyze as analyze;
pub use htd_baselines as baselines;
pub use htd_core as detect;
pub use htd_ipc as ipc;
pub use htd_rtl as rtl;
pub use htd_sat as sat;
pub use htd_serve as serve;
pub use htd_trusthub as trusthub;
pub use htd_verilog as verilog;
