//! End-to-end: compile Verilog source with the front-end and run the
//! golden-free detection flow of `htd-core` on the result.
//!
//! This mirrors how the paper's method is meant to be used — the input is
//! the RTL of a (possibly infected) accelerator, no golden model and no
//! functional specification.

use std::num::NonZeroUsize;

use htd_core::{
    DetectedBy, DetectionOutcome, DetectionReport, EngineChoice, PropertyScheduler, SessionBuilder,
};
use htd_rtl::ValidatedDesign;
use htd_verilog::compile;

/// Runs the flow at 1, 2 and 4 workers (oversubscribed, so the multi-worker
/// schedules run on any host), requires equal normalized reports and
/// returns the one-worker report.
fn run_at_every_schedule(design: &ValidatedDesign) -> DetectionReport {
    let [one, rest @ ..] = [1, 2, 4].map(|jobs| {
        let scheduler =
            PropertyScheduler::new(NonZeroUsize::new(jobs).unwrap()).with_oversubscription(true);
        SessionBuilder::new(design.clone())
            .engine(EngineChoice::Scheduled(scheduler))
            .build()
            .unwrap()
            .run()
            .unwrap()
    });
    for (jobs, report) in [2, 4].into_iter().zip(rest) {
        assert_eq!(report.normalized(), one.normalized(), "{jobs} workers vs 1");
    }
    one
}

/// A toy streaming cipher: the "key add" stage xors the latched data word
/// with a key register, a second stage rotates it.  Non-interfering and
/// data-driven, like the accelerators the paper targets.
const CLEAN_CIPHER: &str = "
module toy_cipher(
  input clk,
  input rst,
  input  [15:0] din,
  input  [15:0] key,
  output [15:0] dout
);
  reg [15:0] stage1;
  reg [15:0] stage2;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      stage1 <= 16'h0000;
      stage2 <= 16'h0000;
    end else begin
      stage1 <= din ^ key;
      stage2 <= {stage1[7:0], stage1[15:8]};
    end
  end
  assign dout = stage2;
endmodule
";

/// The same cipher with a sequential Trojan: a 2-state FSM armed by the magic
/// plaintext 16'hDEAD; once armed, the payload flips the LSB of stage 2
/// (an AES-T2500-style ciphertext corruption with an input-dependent
/// trigger).
const INFECTED_CIPHER: &str = "
module toy_cipher_t1(
  input clk,
  input rst,
  input  [15:0] din,
  input  [15:0] key,
  output [15:0] dout
);
  reg [15:0] stage1;
  reg [15:0] stage2;
  reg        armed;
  always @(posedge clk or posedge rst) begin
    if (rst) armed <= 1'b0;
    else if (din == 16'hDEAD) armed <= 1'b1;
  end
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      stage1 <= 16'h0000;
      stage2 <= 16'h0000;
    end else begin
      stage1 <= din ^ key;
      stage2 <= {stage1[7:0], stage1[15:8]} ^ {15'd0, armed};
    end
  end
  assign dout = stage2;
endmodule
";

/// A variant whose trigger is a free-running counter started by reset and
/// whose payload drives a side-channel shift register that never reaches the
/// outputs — the AES-T1900 situation, caught by the coverage check.
const COUNTER_TROJAN: &str = "
module toy_cipher_t2(
  input clk,
  input rst,
  input  [15:0] din,
  input  [15:0] key,
  output [15:0] dout
);
  reg [15:0] stage1;
  reg [15:0] stage2;
  reg [7:0]  heartbeat;
  reg [7:0]  leak_shift;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      heartbeat  <= 8'd0;
      leak_shift <= 8'd0;
    end else begin
      heartbeat  <= heartbeat + 8'd1;
      leak_shift <= {leak_shift[6:0], heartbeat[7]};
    end
  end
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      stage1 <= 16'h0000;
      stage2 <= 16'h0000;
    end else begin
      stage1 <= din ^ key;
      stage2 <= {stage1[7:0], stage1[15:8]};
    end
  end
  assign dout = stage2;
endmodule
";

#[test]
fn clean_verilog_cipher_verifies_secure() {
    let design = compile(CLEAN_CIPHER).expect("clean cipher compiles");
    let report = run_at_every_schedule(&design);
    assert!(report.outcome.is_secure(), "{report}");
    assert_eq!(report.spurious_resolved, 0);
}

#[test]
fn plaintext_triggered_trojan_in_verilog_is_detected() {
    let design = compile(INFECTED_CIPHER).expect("infected cipher compiles");
    let report = run_at_every_schedule(&design);
    match &report.outcome {
        DetectionOutcome::PropertyFailed {
            detected_by,
            counterexample,
        } => {
            // The trigger FSM watches the plaintext, so either the trigger
            // register itself (init property) or the payload divergence (a
            // fanout property) is reported; the counterexample must point at
            // Trojan state, not at the clean datapath.
            assert!(matches!(
                detected_by,
                DetectedBy::InitProperty | DetectedBy::FanoutProperty(_)
            ));
            let names = counterexample.diff_names();
            assert!(
                names
                    .iter()
                    .any(|n| n.contains("armed") || n.contains("stage2")),
                "unexpected counterexample signals: {names:?}"
            );
        }
        other => panic!("expected a property failure, got {other:?}"),
    }
}

#[test]
fn counter_triggered_side_channel_trojan_is_caught_by_coverage_check() {
    let design = compile(COUNTER_TROJAN).expect("counter trojan compiles");
    let report = run_at_every_schedule(&design);
    match &report.outcome {
        DetectionOutcome::UncoveredSignals { signals } => {
            assert!(signals.iter().any(|s| s.contains("heartbeat")));
            assert!(signals.iter().any(|s| s.contains("leak_shift")));
        }
        other => panic!("expected uncovered signals, got {other:?}"),
    }
}

#[test]
fn infected_and_clean_designs_differ_only_in_the_verdict() {
    // Compiling both and running the same flow is the golden-free promise:
    // no reference design was needed to tell them apart.
    let clean = compile(CLEAN_CIPHER).unwrap();
    let infected = compile(INFECTED_CIPHER).unwrap();
    let clean_report = run_at_every_schedule(&clean);
    let infected_report = run_at_every_schedule(&infected);
    assert!(clean_report.outcome.is_secure());
    assert!(!infected_report.outcome.is_secure());
}

#[test]
fn combinational_uart_style_status_logic_compiles_and_verifies() {
    // A small UART-transmitter-like design with a case-based state machine
    // and combinational status outputs; exercises case statements, part
    // selects and comb always blocks through the whole stack.
    let source = "
module tx(
  input clk,
  input rst,
  input       start,
  input [7:0] data,
  output      busy,
  output      line
);
  reg [1:0] state;
  reg [7:0] shifter;
  reg [2:0] count;
  reg       busy_r;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      state   <= 2'd0;
      shifter <= 8'd0;
      count   <= 3'd0;
      busy_r  <= 1'b0;
    end else begin
      case (state)
        2'd0: begin
          busy_r <= 1'b0;
          if (start) begin
            shifter <= data;
            count   <= 3'd7;
            state   <= 2'd1;
            busy_r  <= 1'b1;
          end
        end
        2'd1: begin
          shifter <= {1'b0, shifter[7:1]};
          count   <= count - 3'd1;
          if (count == 3'd0) state <= 2'd0;
        end
        default: state <= 2'd0;
      endcase
    end
  end
  assign busy = busy_r;
  assign line = shifter[0];
endmodule
";
    let design = compile(source).expect("uart-style module compiles");
    let d = design.design();
    assert_eq!(d.registers().len(), 4);
    // The design is interfering (the FSM state persists across frames), so
    // the plain flow may or may not raise spurious counterexamples — what
    // matters here is that the whole pipeline runs and produces a report.
    let report = run_at_every_schedule(&design);
    assert!(report.properties_checked() >= 1);
}
