//! Quickstart (experiment E8 in DESIGN.md): build a small accelerator with a
//! sequential Trojan, show the triggered-vs-dormant divergence in simulation
//! (the miter intuition of Fig. 2 of the paper), and then let the formal flow
//! find the Trojan without any golden model.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use golden_free_htd::detect::{DetectionOutcome, FlowEvent, SessionBuilder};
use golden_free_htd::rtl::sim::Simulator;
use golden_free_htd::rtl::Design;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-bit "encryption" accelerator (a toy xor cipher) with a classic
    // sequential Trojan: after the plaintext 0xA5 has been observed, the
    // round register is corrupted.
    let mut d = Design::new("toy_xor_accelerator");
    let plaintext = d.add_input("plaintext", 8)?;
    let key = d.add_input("key", 8)?;
    let trigger = d.add_register("trojan_trigger", 1, 0)?;
    let round = d.add_register("round_reg", 8, 0)?;

    let magic = d.eq_const(d.signal(plaintext), 0xA5)?;
    let trigger_next = d.or(d.signal(trigger), magic)?;
    d.set_register_next(trigger, trigger_next)?;

    let encrypted = d.xor(d.signal(plaintext), d.signal(key))?;
    let corruption = d.zero_ext(d.signal(trigger), 8)?;
    let round_next = d.xor(encrypted, corruption)?;
    d.set_register_next(round, round_next)?;
    d.add_output("ciphertext", d.signal(round))?;
    let design = d.validated()?;

    // --- The miter intuition (Fig. 2): two instances, same inputs, one with
    // --- a triggered Trojan, one dormant. Their outputs diverge.
    println!("simulating two instances of the same design under identical inputs");
    let mut dormant = Simulator::new(&design);
    let mut triggered = Simulator::new(&design);
    let trigger_id = design.design().require("trojan_trigger")?;
    triggered.set_register(trigger_id, 1)?; // an earlier input history armed it

    for sim in [&mut dormant, &mut triggered] {
        sim.set_input_by_name("plaintext", 0x10)?;
        sim.set_input_by_name("key", 0x33)?;
        sim.step()?;
    }
    println!(
        "  dormant instance ciphertext:   {:#04x}",
        dormant.peek_by_name("ciphertext")?
    );
    println!(
        "  triggered instance ciphertext: {:#04x}",
        triggered.peek_by_name("ciphertext")?
    );

    // --- The formal flow finds this divergence exhaustively, without knowing
    // --- the trigger sequence and without a golden model.  The session keeps
    // --- one live miter encoding across the whole flow and streams progress
    // --- events while it runs.
    println!("\nrunning the detection flow");
    let mut session = SessionBuilder::new(design.clone()).build()?;
    let report = session.run_with_observer(&mut |event| match event {
        FlowEvent::LevelStarted { level, signals, .. } => {
            println!("  level {level}: proving {} signal(s) equal", signals.len());
        }
        FlowEvent::CounterexampleFound {
            property, diffs, ..
        } => {
            println!("  {property} fails — diverging: {}", diffs.join(", "));
        }
        _ => {}
    })?;
    let stats = session.session_stats();
    println!(
        "  ({} properties, {} SAT queries for the whole flow)",
        stats.properties_checked, stats.queries
    );
    println!("\n{report}");
    match report.outcome {
        DetectionOutcome::PropertyFailed { .. } | DetectionOutcome::UncoveredSignals { .. } => {
            println!("trojan found, as expected for this infected design");
            Ok(())
        }
        DetectionOutcome::Secure => Err("the toy trojan should have been detected".into()),
    }
}
