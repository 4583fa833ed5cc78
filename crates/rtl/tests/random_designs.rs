//! Property-based tests on the RTL substrate: netlist round-trips preserve
//! simulation behaviour and survive textual noise, structural analysis
//! invariants hold, the support table equals a brute-force walk, and the
//! simulator agrees with a direct word-level interpretation of the design.

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

/// A random design whose nodes share subterms, read ROM tables and carry
/// constants up to 128 bits, so its dump has `let`, `table`, `const`,
/// `slice` and `concat` lines.  Every `nodes` entry combines earlier nodes
/// (operand picks index the node list modulo its length); each output reads
/// one node and the register `r` another.
#[derive(Clone, Debug)]
struct Shared {
    /// `(operator, operand, operand, operand)`.
    nodes: Vec<(u8, u16, u16, u16)>,
    outputs: Vec<u16>,
    next: u16,
    wide: u128,
}

fn shared() -> impl Strategy<Value = Shared> {
    (
        prop::collection::vec((0u8..8, any::<u16>(), any::<u16>(), any::<u16>()), 1..24),
        prop::collection::vec(any::<u16>(), 1..5),
        any::<u16>(),
        any::<u128>(),
    )
        .prop_map(|(nodes, outputs, next, wide)| Shared {
            nodes,
            outputs,
            next,
            wide,
        })
}

fn build_shared(s: &Shared) -> ValidatedDesign {
    let mut d = Design::new("shared");
    let a = d.add_input("a", 4).unwrap();
    let b = d.add_input("b", 4).unwrap();
    let r = d.add_register("r", 4, 9).unwrap();
    let big = d.add_register("big", 128, s.wide).unwrap();
    let wide = d.constant(s.wide, 128).unwrap();
    let big_next = d.xor(d.signal(big), wide).unwrap();
    d.set_register_next(big, big_next).unwrap();
    let top = d.slice(d.signal(big), 127, 124).unwrap();
    let mut nodes = vec![d.signal(a), d.signal(b), d.signal(r), top];
    let tables: [Vec<u128>; 2] = [
        (0..16).map(|i| i * 7 % 16).collect(),
        (0..16).map(|i| 15 - i).collect(),
    ];
    for &(op, x, y, z) in &s.nodes {
        let pick = |n: u16| nodes[usize::from(n) % nodes.len()];
        let (x, y, zn) = (pick(x), pick(y), pick(z));
        let node = match op {
            0 => d.xor(x, y).unwrap(),
            1 => d.add(x, y).unwrap(),
            2 => d.not(x),
            3 => {
                let cond = d.red_or(x);
                d.mux(cond, y, zn).unwrap()
            }
            4 => {
                let hi = d.slice(x, 1, 0).unwrap();
                let lo = d.slice(y, 3, 2).unwrap();
                d.concat(hi, lo).unwrap()
            }
            5 => d.rom(tables[0].clone(), x, 4).unwrap(),
            6 => d.rom(tables[usize::from(z % 2)].clone(), x, 4).unwrap(),
            _ => d.constant(u128::from(z % 16), 4).unwrap(),
        };
        nodes.push(node);
    }
    for (k, &o) in s.outputs.iter().enumerate() {
        let node = nodes[usize::from(o) % nodes.len()];
        d.add_output(format!("o{k}"), node).unwrap();
    }
    let next = nodes[usize::from(s.next) % nodes.len()];
    d.set_register_next(r, next).unwrap();
    d.validated().unwrap()
}

/// SplitMix64, so one `u64` of proptest input drives a whole rewrite.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// Whitespace the parser must skip: ASCII, and Unicode separators.
const SPACES: [&str; 10] = [
    " ", " ", "\t", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
];

fn spaces(mix: &mut Mix, at_least_one: bool) -> String {
    let n = mix.below(3) + usize::from(at_least_one);
    (0..n).map(|_| mix.pick(&SPACES)).collect()
}

/// Renumbers `%N` or `@N`: identity, reversed, or sparse near `u32::MAX`,
/// spelled with a `+` or leading zeros now and then.
fn renumber(mix: &mut Mix, sigil: char, n: u64, count: u64, mode: u64) -> String {
    let m = match mode {
        0 => n,
        1 => count - 1 - n,
        _ => u64::from(u32::MAX) - n * 9_973,
    };
    let spelling = mix.pick(&["", "", "+", "00"]);
    format!("{sigil}{spelling}{m}")
}

/// Rewrites a canonical dump into a text that parses to the same design:
/// separators become runs of ASCII or Unicode whitespace (and vanish next
/// to parentheses and `=`), numbers change base, case, sign and leading
/// zeros, `%N` and `@N` are renumbered out of order or sparsely, lines end
/// in CRLF or a comment, and blank and comment lines appear between them.
fn noisy(dump: &str, seed: u64) -> String {
    let mut mix = Mix(seed);
    let lets = dump.matches("let %").count() as u64;
    let tables = dump.matches("table @").count() as u64;
    let (let_mode, table_mode) = (mix.next() % 3, mix.next() % 3);
    let mut out = String::new();
    for line in dump.lines() {
        match mix.below(6) {
            0 => out.push_str(&spaces(&mut mix, false)),
            1 => out.push_str("# (a comment = ignored) \u{2003}é\n"),
            _ => {}
        }
        if mix.below(4) == 0 {
            out.push('\n');
        }
        let mut tokens = Vec::new();
        let mut rest = line;
        loop {
            rest = rest.trim_start_matches(' ');
            if rest.is_empty() {
                break;
            }
            let end = if rest.starts_with(['(', ')']) {
                1
            } else {
                rest.find([' ', '(', ')']).unwrap_or(rest.len())
            };
            tokens.push(&rest[..end]);
            rest = &rest[end..];
        }
        out.push_str(&spaces(&mut mix, false));
        for (i, &token) in tokens.iter().enumerate() {
            if i > 0 {
                let prev = tokens[i - 1];
                let optional = matches!(prev, "(" | ")" | "=") || matches!(token, ")" | "=");
                out.push_str(&spaces(&mut mix, !optional));
            }
            if let Some(n) = token.strip_prefix('%') {
                let n = n.parse().unwrap();
                out.push_str(&renumber(&mut mix, '%', n, lets, let_mode));
            } else if let Some(n) = token.strip_prefix('@') {
                let n = n.parse().unwrap();
                out.push_str(&renumber(&mut mix, '@', n, tables, table_mode));
            } else if let Some(v) = number(token) {
                let spelled = match mix.below(6) {
                    0 => format!("{v:#x}"),
                    1 => format!("0X{v:X}"),
                    2 => format!("{v}"),
                    3 => format!("+{v}"),
                    4 => format!("0x000{v:x}"),
                    _ => format!("000{v}"),
                };
                out.push_str(&spelled);
            } else {
                out.push_str(token);
            }
        }
        out.push_str(&spaces(&mut mix, false));
        if mix.below(4) == 0 {
            out.push_str("#=(");
        }
        out.push_str(mix.pick(&["\n", "\r\n"]));
    }
    out
}

/// The value of a token the dump writes as a number.
fn number(token: &str) -> Option<u128> {
    match token.strip_prefix("0x") {
        Some(hex) => u128::from_str_radix(hex, 16).ok(),
        None if token.bytes().all(|b| b.is_ascii_digit()) => token.parse().ok(),
        None => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Textual noise never changes the design a dump parses to.
    #[test]
    fn noisy_dumps_parse_back_to_the_same_dump(
        s in shared(),
        dag in dag(),
        recipe in recipe(),
        seed in any::<u64>(),
    ) {
        for design in [build_shared(&s), build_dag(&dag), build(&recipe)] {
            let dump = netlist::dump(&design);
            let text = noisy(&dump, seed);
            let parsed = netlist::parse(&text)
                .unwrap_or_else(|e| panic!("{e}\n--- dump:\n{dump}\n--- noisy:\n{text:?}"));
            prop_assert_eq!(netlist::dump(&parsed), dump);
        }
    }
}
