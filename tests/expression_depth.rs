//! The expression depth bound, `MAX_EXPR_DEPTH`.
//!
//! A design whose register is driven exactly `MAX_EXPR_DEPTH` levels deep
//! goes through every pass that recurses along its drivers on a thread with
//! the 2 MiB stack of the daemon's runners: validation, the detection flow
//! (lowering and simulation), the netlist dump and parse, and
//! counterexample replay.  One level more is a validation error naming the
//! depth, and text that nests deeper is a parse error at its line, whether
//! the nesting is written out or built from `let` bindings.

use golden_free_htd::detect::replay::replay_counterexample;
use golden_free_htd::detect::{DetectionOutcome, SessionBuilder};
use golden_free_htd::rtl::{netlist, Design, DesignError, ValidatedDesign, MAX_EXPR_DEPTH};

/// The stack of a `std::thread` spawned with the default size, and of the
/// daemon's runner threads.
const STACK: usize = 2 << 20;

/// How a chain adds levels: each step wraps the chain in one node of the
/// shape, or in two for `Mux` (over a `not`) and `Rotate`.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Not,
    Xor,
    Mux,
    Rom,
    /// `concat` over two `slice`s: a rotation by one bit.
    Rotate,
    /// A `not` driving a named wire, which the next step reads.
    Wire,
}

const SHAPES: [Shape; 6] = [
    Shape::Not,
    Shape::Xor,
    Shape::Mux,
    Shape::Rom,
    Shape::Rotate,
    Shape::Wire,
];

/// A 4-bit register whose next state is a chain of exactly `levels`
/// levels, bijective in the register's value and reading an input, and an
/// output that reads the register: the flow's init property fails on it, so
/// there is a counterexample to replay.
fn chain(shape: Shape, levels: u32) -> Result<ValidatedDesign, DesignError> {
    let mut d = Design::new("deep");
    let a = d.add_input("a", 4)?;
    let sel = d.add_input("sel", 1)?;
    let state = d.add_register("state", 4, 0)?;
    let table: Vec<u128> = (0..16).map(|i| (i * 7 + 3) % 16).collect();
    let mut e = d.xor(d.signal(state), d.signal(a))?;
    let mut level = 1;
    while level < levels {
        let two_fit = level + 2 <= levels;
        e = match shape {
            Shape::Xor => d.xor(e, d.signal(a))?,
            Shape::Mux if two_fit => {
                let flipped = d.not(e);
                level += 1;
                d.mux(d.signal(sel), e, flipped)?
            }
            Shape::Rom => d.rom(table.clone(), e, 4)?,
            Shape::Rotate if two_fit => {
                let low = d.slice(e, 2, 0)?;
                let top = d.slice(e, 3, 3)?;
                level += 1;
                d.concat(low, top)?
            }
            Shape::Wire => {
                let not = d.not(e);
                let wire = d.add_wire(format!("w{level}"), not)?;
                d.signal(wire)
            }
            Shape::Not | Shape::Mux | Shape::Rotate => d.not(e),
        };
        level += 1;
    }
    d.set_register_next(state, e)?;
    d.add_output("out", d.signal(state))?;
    d.validated()
}

/// Runs `f` on a thread with a [`STACK`]-byte stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn a_design_at_the_bound_passes_every_recursive_pass_on_a_2_mib_stack() {
    for shape in SHAPES {
        on_small_stack(move || {
            let design = chain(shape, MAX_EXPR_DEPTH).expect("at the bound");
            let text = netlist::dump(&design);
            let parsed = netlist::parse(&text).expect("the dump parses");
            assert_eq!(netlist::dump(&parsed), text, "{shape:?}");
            let report = SessionBuilder::new(parsed)
                .build()
                .expect("session")
                .run()
                .expect("flow completes");
            let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome else {
                panic!("{shape:?}: the state feeds back, so the init property fails");
            };
            let replay = replay_counterexample(&design, counterexample).expect("replay");
            assert!(!replay.diverging_signals.is_empty(), "{shape:?}");
        });
    }
}

#[test]
fn one_level_more_is_a_validation_error_naming_the_depth() {
    for shape in SHAPES {
        let depth = MAX_EXPR_DEPTH + 1;
        let err = chain(shape, MAX_EXPR_DEPTH + 1).expect_err("past the bound");
        assert_eq!(
            err,
            DesignError::ExpressionTooDeep {
                name: "state".into(),
                depth
            },
            "{shape:?}"
        );
        assert_eq!(
            err.to_string(),
            format!(
                "the driver of signal `state` nests {depth} expression levels deep \
                 (at most {MAX_EXPR_DEPTH} allowed)"
            )
        );
    }
}

/// `(not (not … a))`, `levels` deep, as the driver of `o`.
fn nested_nots(levels: u32) -> String {
    let levels = levels as usize;
    format!(
        "design d\ninput a 1\n# {levels} levels\noutput o 1 = {}a{}\n",
        "(not ".repeat(levels),
        ")".repeat(levels)
    )
}

#[test]
fn text_nested_past_the_bound_is_a_parse_error_at_its_line() {
    on_small_stack(|| {
        assert!(netlist::parse(&nested_nots(MAX_EXPR_DEPTH)).is_ok());
        for levels in [MAX_EXPR_DEPTH + 1, 200_000] {
            assert_eq!(
                netlist::parse(&nested_nots(levels)).expect_err("too deep"),
                DesignError::Parse {
                    line: 4,
                    message: format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
                }
            );
        }
        // A `(const …)` is a level of its own.
        let mut text = nested_nots(MAX_EXPR_DEPTH);
        text = text.replace("a)", "(const 1 0))");
        assert!(matches!(
            netlist::parse(&text),
            Err(DesignError::Parse { line: 4, .. })
        ));
    });
}

#[test]
fn a_let_chain_past_the_bound_is_rejected_without_textual_nesting() {
    on_small_stack(|| {
        let levels = 100_000;
        let mut text = String::from("design d\nregister r 1 0\nlet %0 1 = (not r)\n");
        for i in 1..levels {
            text.push_str(&format!("let %{i} 1 = (not %{})\n", i - 1));
        }
        text.push_str(&format!("next r = %{}\noutput o 1 = r\n", levels - 1));
        assert_eq!(
            netlist::parse(&text).expect_err("too deep"),
            DesignError::ExpressionTooDeep {
                name: "r".into(),
                depth: levels,
            }
        );
    });
}
