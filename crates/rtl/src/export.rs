//! Export helpers: VCD waveforms for simulation traces and GraphViz DOT for
//! the structural fanout analysis.
//!
//! The detection flow's counterexamples localise a potential Trojan, but a
//! verification engineer usually wants to *look* at the behaviour and at the
//! structure: [`TraceRecorder`] turns simulator runs into standard VCD files
//! any waveform viewer can open, and [`fanout_dot`] renders the
//! `fanouts_CCk` levels of Algorithm 1 (the order in which the flow proves
//! signal equivalences) as a GraphViz graph.

use std::fmt::Write as _;

use crate::design::{SignalId, ValidatedDesign};
use crate::sim::Simulator;
use crate::structural::{driver_support, fanout_levels, uncovered_signals};

/// Records the values of a fixed set of signals over a simulation run and
/// renders them as a Value Change Dump (VCD).
///
/// # Example
///
/// ```
/// use htd_rtl::Design;
/// use htd_rtl::export::TraceRecorder;
/// use htd_rtl::sim::Simulator;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// let mut d = Design::new("counter");
/// let enable = d.add_input("enable", 1)?;
/// let count = d.add_register("count", 4, 0)?;
/// let one = d.constant(1, 4)?;
/// let bumped = d.add(d.signal(count), one)?;
/// let next = d.mux(d.signal(enable), bumped, d.signal(count))?;
/// d.set_register_next(count, next)?;
/// d.add_output("value", d.signal(count))?;
/// let design = d.validated()?;
///
/// let mut sim = Simulator::new(&design);
/// let mut recorder = TraceRecorder::all_signals(&design);
/// recorder.record(&sim);
/// for _ in 0..3 {
///     sim.set_input_by_name("enable", 1)?;
///     sim.step()?;
///     recorder.record(&sim);
/// }
/// let vcd = recorder.to_vcd("counter_demo");
/// assert!(vcd.contains("$var wire 4"));
/// assert!(vcd.contains("#3"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TraceRecorder<'a> {
    design: &'a ValidatedDesign,
    signals: Vec<SignalId>,
    /// One sample per recorded time step, in signal order.
    samples: Vec<Vec<u128>>,
}

impl<'a> TraceRecorder<'a> {
    /// Creates a recorder for an explicit set of signals.
    #[must_use]
    pub fn new(design: &'a ValidatedDesign, signals: Vec<SignalId>) -> Self {
        TraceRecorder {
            design,
            signals,
            samples: Vec::new(),
        }
    }

    /// Creates a recorder covering every input, register and output of the
    /// design.
    #[must_use]
    pub fn all_signals(design: &'a ValidatedDesign) -> Self {
        let d = design.design();
        let mut signals = d.inputs();
        signals.extend(d.registers());
        signals.extend(d.outputs());
        TraceRecorder::new(design, signals)
    }

    /// The signals being recorded.
    #[must_use]
    pub fn signals(&self) -> &[SignalId] {
        &self.signals
    }

    /// Number of samples recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Takes one sample of all recorded signals from the simulator.
    pub fn record(&mut self, sim: &Simulator<'_>) {
        self.samples
            .push(self.signals.iter().map(|&s| sim.peek(s)).collect());
    }

    /// Appends a pre-computed sample (one value per recorded signal, in
    /// signal order).  Used by counterexample replay, where values come from
    /// the property checker's model rather than a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the number of recorded
    /// signals.
    pub fn push_sample(&mut self, values: Vec<u128>) {
        assert_eq!(
            values.len(),
            self.signals.len(),
            "one value per recorded signal"
        );
        self.samples.push(values);
    }

    /// Renders the recorded trace as a VCD document with one timestep per
    /// sample.
    #[must_use]
    pub fn to_vcd(&self, module_name: &str) -> String {
        let d = self.design.design();
        let mut out = String::new();
        let _ = writeln!(out, "$date reproduction run $end");
        let _ = writeln!(out, "$version golden-free-htd $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {module_name} $end");
        for (i, &sig) in self.signals.iter().enumerate() {
            let _ = writeln!(
                out,
                "$var wire {} {} {} $end",
                d.signal_width(sig),
                vcd_identifier(i),
                sanitize(d.signal_name(sig))
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        let mut previous: Vec<Option<u128>> = vec![None; self.signals.len()];
        for (time, sample) in self.samples.iter().enumerate() {
            let _ = writeln!(out, "#{time}");
            if time == 0 {
                let _ = writeln!(out, "$dumpvars");
            }
            for (i, (&value, &sig)) in sample.iter().zip(&self.signals).enumerate() {
                if previous[i] == Some(value) {
                    continue;
                }
                previous[i] = Some(value);
                let width = d.signal_width(sig);
                if width == 1 {
                    let _ = writeln!(out, "{}{}", value & 1, vcd_identifier(i));
                } else {
                    let _ = writeln!(out, "b{:b} {}", value, vcd_identifier(i));
                }
            }
            if time == 0 {
                let _ = writeln!(out, "$end");
            }
        }
        out
    }
}

/// Renders the structural fanout analysis of Algorithm 1 as a GraphViz DOT
/// digraph: one cluster per `fanouts_CCk` level, the primary inputs as the
/// root node, one edge per single-cycle structural dependency, and the
/// signals unreachable from the inputs (the coverage-check findings) in a
/// separate cluster.
///
/// # Example
///
/// ```
/// use htd_rtl::Design;
/// use htd_rtl::export::fanout_dot;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// let mut d = Design::new("pipe");
/// let i = d.add_input("i", 4)?;
/// let r = d.add_register("r", 4, 0)?;
/// d.set_register_next(r, d.signal(i))?;
/// d.add_output("o", d.signal(r))?;
/// let dot = fanout_dot(&d.validated()?);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("fanouts_CC1"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn fanout_dot(design: &ValidatedDesign) -> String {
    let d = design.design();
    let levels = fanout_levels(design);
    let uncovered = uncovered_signals(design, &levels.concat());
    let mut out = String::new();
    let _ = writeln!(out, "digraph fanout_levels {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    let _ = writeln!(out, "  inputs [shape=ellipse, label=\"primary inputs\"];");

    for (k, level) in levels.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_cc{} {{", k + 1);
        let _ = writeln!(out, "    label=\"fanouts_CC{}\";", k + 1);
        for &sig in level {
            let _ = writeln!(out, "    {};", node_name(d.signal_name(sig)));
        }
        let _ = writeln!(out, "  }}");
    }
    if !uncovered.is_empty() {
        let _ = writeln!(out, "  subgraph cluster_uncovered {{");
        let _ = writeln!(out, "    label=\"uncovered (coverage check)\";");
        let _ = writeln!(out, "    style=dashed;");
        for &sig in &uncovered {
            let _ = writeln!(out, "    {} [color=red];", node_name(d.signal_name(sig)));
        }
        let _ = writeln!(out, "  }}");
    }

    // Edges: inputs -> CC1, and each register -> its single-cycle fanout,
    // sorted by source and then by sink.
    for &sig in levels.first().map_or(&[][..], Vec::as_slice) {
        let _ = writeln!(out, "  inputs -> {};", node_name(d.signal_name(sig)));
    }
    let mut edges: Vec<(SignalId, SignalId)> = Vec::new();
    for sink in d.state_and_output_signals() {
        for &source in driver_support(design, sink) {
            if d.signal_info(source).kind().is_register() {
                edges.push((source, sink));
            }
        }
    }
    edges.sort_unstable();
    for (source, sink) in edges {
        let _ = writeln!(
            out,
            "  {} -> {};",
            node_name(d.signal_name(source)),
            node_name(d.signal_name(sink))
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// VCD identifier for the `i`-th recorded signal (printable ASCII 33..=126,
/// little-endian multi-character for larger indices).
fn vcd_identifier(mut index: usize) -> String {
    const FIRST: u8 = 33;
    const COUNT: usize = 94;
    let mut id = String::new();
    loop {
        id.push(char::from(FIRST + (index % COUNT) as u8));
        index /= COUNT;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    id
}

/// VCD reference names may not contain whitespace; DOT identifiers are kept
/// alphanumeric.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

fn node_name(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("\"{cleaned}\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;

    fn demo_design() -> ValidatedDesign {
        let mut d = Design::new("demo");
        let input = d.add_input("in", 4).unwrap();
        let stage = d.add_register("stage", 4, 0).unwrap();
        let flag = d.add_register("flag", 1, 0).unwrap();
        d.set_register_next(stage, d.signal(input)).unwrap();
        let any = d.red_or(d.signal(input));
        d.set_register_next(flag, any).unwrap();
        d.add_output("out", d.signal(stage)).unwrap();
        let timer = d.add_register("timer", 3, 0).unwrap();
        let one = d.constant(1, 3).unwrap();
        let tick = d.add(d.signal(timer), one).unwrap();
        d.set_register_next(timer, tick).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn vcd_contains_definitions_and_value_changes() {
        let design = demo_design();
        let mut sim = Simulator::new(&design);
        let mut recorder = TraceRecorder::all_signals(&design);
        recorder.record(&sim);
        for value in [3u128, 3, 0] {
            sim.set_input_by_name("in", value).unwrap();
            sim.step().unwrap();
            recorder.record(&sim);
        }
        let vcd = recorder.to_vcd("demo");
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#3"));
        assert!(vcd.contains("b11 "), "vector value change present");
        assert_eq!(recorder.len(), 4);
        assert!(!recorder.is_empty());
    }

    #[test]
    fn unchanged_values_are_not_re_emitted() {
        let design = demo_design();
        let sim = Simulator::new(&design);
        let mut recorder =
            TraceRecorder::new(&design, vec![design.design().require("timer").unwrap()]);
        recorder.record(&sim);
        recorder.record(&sim); // no step in between: identical sample
        let vcd = recorder.to_vcd("demo");
        let changes = vcd.matches("b0 !").count() + vcd.matches("0!").count();
        assert_eq!(
            changes, 1,
            "the second, identical sample emits nothing:\n{vcd}"
        );
    }

    #[test]
    fn push_sample_accepts_external_values() {
        let design = demo_design();
        let stage = design.design().require("stage").unwrap();
        let mut recorder = TraceRecorder::new(&design, vec![stage]);
        recorder.push_sample(vec![0xA]);
        recorder.push_sample(vec![0x5]);
        let vcd = recorder.to_vcd("replay");
        assert!(vcd.contains("b1010 "));
        assert!(vcd.contains("b101 "));
    }

    #[test]
    #[should_panic(expected = "one value per recorded signal")]
    fn push_sample_rejects_wrong_arity() {
        let design = demo_design();
        let stage = design.design().require("stage").unwrap();
        let mut recorder = TraceRecorder::new(&design, vec![stage]);
        recorder.push_sample(vec![1, 2]);
    }

    #[test]
    fn vcd_identifiers_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = vcd_identifier(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id), "duplicate identifier for index {i}");
        }
    }

    #[test]
    fn dot_groups_levels_and_marks_uncovered_signals() {
        let design = demo_design();
        let dot = fanout_dot(&design);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("fanouts_CC1"));
        assert!(dot.contains("fanouts_CC2"));
        assert!(dot.contains("uncovered (coverage check)"));
        assert!(dot.contains("\"timer\" [color=red]"));
        assert!(dot.contains("inputs -> \"stage\""));
        assert!(dot.contains("\"stage\" -> \"out\""));
    }
}
