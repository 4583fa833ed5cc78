//! Property-based tests on the RTL substrate: netlist round-trips preserve
//! simulation behaviour, structural analysis invariants hold, the support
//! table equals a brute-force walk, and the simulator agrees with a direct
//! word-level interpretation of the design.

use std::collections::BTreeSet;

use htd_rtl::sim::Simulator;
use htd_rtl::structural::{driver_support, fanout_levels, get_fanout, input_unreachable_signals};
use htd_rtl::{netlist, Design, Expr, ExprId, SignalId, SignalKind, ValidatedDesign};
use proptest::prelude::*;

/// A small recipe for random two-register designs (kept simple on purpose:
/// the goal is to fuzz the plumbing, not to generate interesting circuits).
#[derive(Clone, Debug)]
struct Recipe {
    width: u32,
    constants: [u64; 2],
    use_add: bool,
    use_mux: bool,
    feedback: bool,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop_oneof![Just(1u32), Just(3), Just(8), Just(16)],
        any::<[u64; 2]>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(width, constants, use_add, use_mux, feedback)| Recipe {
            width,
            constants,
            use_add,
            use_mux,
            feedback,
        })
}

fn mask(width: u32, v: u64) -> u128 {
    u128::from(v) & ((1u128 << width) - 1)
}

fn build(recipe: &Recipe) -> ValidatedDesign {
    let w = recipe.width;
    let mut d = Design::new("fuzz");
    let a = d.add_input("a", w).unwrap();
    let b = d.add_input("b", w).unwrap();
    let r0 = d
        .add_register("r0", w, mask(w, recipe.constants[0]))
        .unwrap();
    let r1 = d
        .add_register("r1", w, mask(w, recipe.constants[1]))
        .unwrap();

    let c0 = d.constant(mask(w, recipe.constants[0]), w).unwrap();
    let mixed = if recipe.use_add {
        d.add(d.signal(a), c0).unwrap()
    } else {
        d.xor(d.signal(a), c0).unwrap()
    };
    let r0_next = if recipe.feedback {
        d.xor(mixed, d.signal(r0)).unwrap()
    } else {
        mixed
    };
    d.set_register_next(r0, r0_next).unwrap();

    let r1_next: ExprId = if recipe.use_mux {
        let sel = d.eq_const(d.signal(b), 0).unwrap();
        d.mux(sel, d.signal(r0), d.signal(b)).unwrap()
    } else {
        d.and(d.signal(r0), d.signal(b)).unwrap()
    };
    d.set_register_next(r1, r1_next).unwrap();
    d.add_output("out", d.signal(r1)).unwrap();
    d.validated().unwrap()
}

/// A random design with chains of named wires and outputs: `inputs` inputs
/// and `registers` registers, then one wire or output per `driven` entry,
/// then each register's next state.  All signals are 4 bits wide; every
/// driver combines two signals declared before it (operand picks index the
/// declared signals modulo their count), outputs included.
#[derive(Clone, Debug)]
struct Dag {
    inputs: u8,
    registers: u8,
    /// `(is an output, operator, operand, operand)` per driven signal.
    driven: Vec<(bool, u8, u16, u16)>,
    /// `(operator, operand, operand)`, cycled over the registers.
    nexts: Vec<(u8, u16, u16)>,
}

fn dag() -> impl Strategy<Value = Dag> {
    (
        1u8..4,
        1u8..4,
        prop::collection::vec((any::<bool>(), 0u8..5, any::<u16>(), any::<u16>()), 0..12),
        prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 1..4),
    )
        .prop_map(|(inputs, registers, driven, nexts)| Dag {
            inputs,
            registers,
            driven,
            nexts,
        })
}

/// Operator `op` over signals `a` and `b`; operator 4 reads neither.
fn combine(d: &mut Design, op: u8, a: SignalId, b: SignalId) -> ExprId {
    let (ea, eb) = (d.signal(a), d.signal(b));
    match op {
        0 => d.xor(ea, eb).unwrap(),
        1 => d.add(ea, eb).unwrap(),
        2 => {
            let cond = d.red_or(ea);
            d.mux(cond, eb, ea).unwrap()
        }
        3 => d.not(ea),
        _ => d.constant(5, 4).unwrap(),
    }
}

fn build_dag(dag: &Dag) -> ValidatedDesign {
    let mut d = Design::new("dag");
    let mut declared: Vec<SignalId> = (0..dag.inputs)
        .map(|i| d.add_input(format!("i{i}"), 4).unwrap())
        .collect();
    let registers: Vec<SignalId> = (0..dag.registers)
        .map(|r| d.add_register(format!("r{r}"), 4, 0).unwrap())
        .collect();
    declared.extend(&registers);
    for (k, &(output, op, a, b)) in dag.driven.iter().enumerate() {
        let pick = |n: u16| declared[usize::from(n) % declared.len()];
        let expr = combine(&mut d, op, pick(a), pick(b));
        let sig = if output {
            d.add_output(format!("o{k}"), expr).unwrap()
        } else {
            d.add_wire(format!("w{k}"), expr).unwrap()
        };
        declared.push(sig);
    }
    for (&reg, &(op, a, b)) in registers.iter().zip(dag.nexts.iter().cycle()) {
        let pick = |n: u16| declared[usize::from(n) % declared.len()];
        let expr = combine(&mut d, op, pick(a), pick(b));
        d.set_register_next(reg, expr).unwrap();
    }
    d.validated().unwrap()
}

/// The inputs and registers `e` reads, found by walking every path of its
/// tree and every wire's or output's driver in turn.
fn brute_support(d: &Design, e: ExprId, out: &mut BTreeSet<SignalId>) {
    let Expr::Signal(s) = *d.expr(e) else {
        for child in d.expr(e).children() {
            brute_support(d, child, out);
        }
        return;
    };
    match d.signal_info(s).kind() {
        SignalKind::Input | SignalKind::Register { .. } => {
            out.insert(s);
        }
        SignalKind::Wire | SignalKind::Output => {
            brute_support(d, d.signal_info(s).driver().unwrap(), out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn support_table_equals_a_brute_force_walk(dag in dag()) {
        let design = build_dag(&dag);
        let d = design.design();
        for sig in d.signal_ids() {
            let mut expected = BTreeSet::new();
            if let Some(driver) = d.signal_info(sig).driver() {
                brute_support(d, driver, &mut expected);
            }
            let expected: Vec<SignalId> = expected.into_iter().collect();
            prop_assert_eq!(driver_support(&design, sig), expected.as_slice());
        }
    }

    #[test]
    fn netlist_roundtrip_preserves_simulation(recipe in recipe(), stimulus in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12)) {
        let original = build(&recipe);
        let text = netlist::dump(&original);
        let parsed = netlist::parse(&text).expect("dump always parses");

        let mut sim_a = Simulator::new(&original);
        let mut sim_b = Simulator::new(&parsed);
        for (va, vb) in stimulus {
            let va = mask(recipe.width, va);
            let vb = mask(recipe.width, vb);
            for sim in [&mut sim_a, &mut sim_b] {
                sim.set_input_by_name("a", va).unwrap();
                sim.set_input_by_name("b", vb).unwrap();
                sim.step().unwrap();
            }
            prop_assert_eq!(
                sim_a.peek_by_name("out").unwrap(),
                sim_b.peek_by_name("out").unwrap()
            );
            prop_assert_eq!(
                sim_a.register_snapshot(),
                sim_b.register_snapshot()
            );
        }
    }

    #[test]
    fn fanout_levels_cover_exactly_the_input_reachable_signals(recipe in recipe()) {
        let design = build(&recipe);
        let d = design.design();
        let levels = fanout_levels(&design);
        let covered: Vec<SignalId> = levels.into_iter().flatten().collect();
        let unreachable = input_unreachable_signals(&design);
        // Every state/output signal is either covered or reported unreachable,
        // never both.
        for sig in d.state_and_output_signals() {
            let in_covered = covered.contains(&sig);
            let in_unreachable = unreachable.contains(&sig);
            prop_assert!(in_covered ^ in_unreachable, "signal {} misclassified", d.signal_name(sig));
        }
    }

    #[test]
    fn get_fanout_is_monotone_in_its_sources(recipe in recipe()) {
        let design = build(&recipe);
        let d = design.design();
        let inputs = d.inputs();
        let single = get_fanout(&design, &inputs[..1]);
        let all = get_fanout(&design, &inputs);
        for sig in single {
            prop_assert!(all.contains(&sig), "fanout lost a signal when sources grew");
        }
    }

    #[test]
    fn simulation_matches_word_level_reference(recipe in recipe(), stimulus in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12)) {
        let design = build(&recipe);
        let w = recipe.width;
        let mut sim = Simulator::new(&design);
        // Independent reference interpretation of the same recipe.
        let mut r0 = mask(w, recipe.constants[0]);
        for (va, vb) in stimulus {
            let va = mask(w, va);
            let vb = mask(w, vb);
            sim.set_input_by_name("a", va).unwrap();
            sim.set_input_by_name("b", vb).unwrap();
            sim.step().unwrap();

            let c0 = mask(w, recipe.constants[0]);
            let mixed = if recipe.use_add { (va + c0) & mask(w, u64::MAX) } else { va ^ c0 };
            let r0_next = if recipe.feedback { mixed ^ r0 } else { mixed };
            // `r1` never feeds back: its value is fully determined each cycle.
            let r1 = if recipe.use_mux {
                if vb == 0 { r0 } else { vb }
            } else {
                r0 & vb
            };
            r0 = r0_next & mask(w, u64::MAX);

            prop_assert_eq!(sim.peek_by_name("r0").unwrap(), r0);
            prop_assert_eq!(sim.peek_by_name("r1").unwrap(), r1);
            prop_assert_eq!(sim.peek_by_name("out").unwrap(), r1);
        }
    }
}
