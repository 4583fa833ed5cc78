//! Property-based tests for clause garbage collection: compacting the clause
//! arena — dropping clauses satisfied at the top level, stripping falsified
//! literals, rebuilding watches — must never change any SAT/UNSAT answer,
//! under arbitrary assumption sequences and arbitrary top-level unit
//! retirements (the activation-literal pattern of the incremental miter).

use htd_sat::{Lit, SatBackend, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A clause is a list of (variable index, negated) pairs.
type RawClause = Vec<(u8, bool)>;

fn clause_strategy(num_vars: u8) -> impl Strategy<Value = RawClause> {
    prop::collection::vec((0..num_vars, any::<bool>()), 1..=4)
}

/// One scripted step: an optional literal retirement (a top-level unit
/// clause) followed by a query under assumptions.
type ScriptStep = (Option<(u8, bool)>, RawClause);

/// A formula plus a script of queries; each query optionally retires one
/// literal with a top-level unit clause first, then solves under assumptions.
fn script_strategy() -> impl Strategy<Value = (u8, Vec<RawClause>, Vec<ScriptStep>)> {
    (4u8..=8).prop_flat_map(|nv| {
        (
            Just(nv),
            prop::collection::vec(clause_strategy(nv), 4..=32),
            prop::collection::vec(
                (
                    (any::<bool>(), 0..nv, any::<bool>())
                        .prop_map(|(retire, v, neg)| retire.then_some((v, neg))),
                    prop::collection::vec((0..nv, any::<bool>()), 0..=3),
                ),
                1..=6,
            ),
        )
    })
}

fn lits(vars: &[Var], raw: &[(u8, bool)]) -> Vec<Lit> {
    raw.iter()
        .map(|&(v, negated)| Lit::new(vars[v as usize], negated))
        .collect()
}

fn build(num_vars: u8, clauses: &[RawClause]) -> (Solver, Vec<Var>) {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for clause in clauses {
        solver.add_clause(lits(&vars, clause));
    }
    (solver, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Twin solvers over the same formula and script: one garbage-collects
    /// after every step, the other never does.  Answers must agree at every
    /// step.
    #[test]
    fn gc_never_changes_answers((num_vars, clauses, script) in script_strategy()) {
        let (mut plain, plain_vars) = build(num_vars, &clauses);
        let (mut gced, gc_vars) = build(num_vars, &clauses);

        for (retire, assumptions) in &script {
            if let Some((v, negated)) = retire {
                // Retire a literal with a top-level unit — the activation-
                // literal pattern that creates permanently dead clauses.
                plain.add_clause([Lit::new(plain_vars[*v as usize], *negated)]);
                gced.add_clause([Lit::new(gc_vars[*v as usize], *negated)]);
            }
            gced.collect_garbage();

            let expected = plain.solve_with_assumptions(&lits(&plain_vars, assumptions));
            let actual = gced.solve_with_assumptions(&lits(&gc_vars, assumptions));
            prop_assert_eq!(expected, actual);
            prop_assert_eq!(plain.is_known_unsat(), gced.is_known_unsat());
        }
    }

    /// Forking mid-script: the parent runs the first half of the script,
    /// forks, and then parent and child run the remaining steps
    /// independently — answering identically at every step, because a fork
    /// is a byte-for-byte snapshot of the arena-backed clause store.  The
    /// fork counters prove the cost model: the child records exactly one
    /// fork of exactly `snapshot_bytes()` bytes (a handful of flat-buffer
    /// memcpys — never a per-clause allocation), and child solves never
    /// add fork bytes of their own.
    #[test]
    fn forking_mid_script_preserves_answers_and_costs_bytes((num_vars, clauses, script) in script_strategy()) {
        let (mut parent, vars) = build(num_vars, &clauses);
        let split = script.len() / 2;
        for (retire, assumptions) in &script[..split] {
            if let Some((v, negated)) = retire {
                parent.add_clause([Lit::new(vars[*v as usize], *negated)]);
            }
            let _ = parent.solve_with_assumptions(&lits(&vars, assumptions));
        }
        parent.collect_garbage();

        let parent_bytes = parent.snapshot_bytes();
        let parent_forks = parent.stats().fork_count;
        let mut child = SatBackend::fork(&parent).expect("the bundled solver forks");
        // One fork, costing exactly the parent's snapshot bytes.
        prop_assert_eq!(child.stats().solver.fork_count, parent_forks + 1);
        prop_assert_eq!(
            child.stats().solver.bytes_cloned - parent.stats().bytes_cloned,
            parent_bytes
        );
        prop_assert_eq!(parent.stats().fork_count, parent_forks, "fork leaves the parent untouched");

        let bytes_after_fork = child.stats().solver.bytes_cloned;
        for (retire, assumptions) in &script[split..] {
            if let Some((v, negated)) = retire {
                let unit = Lit::new(vars[*v as usize], *negated);
                parent.add_clause([unit]);
                child.add_clause(&[unit]);
            }
            let assumptions = lits(&vars, assumptions);
            let expected = parent.solve_with_assumptions(&assumptions);
            let actual = child.solve_under(&assumptions).expect("bundled solver is total");
            prop_assert_eq!(expected, actual);
        }
        // Solving on the child allocates no further snapshots: every byte in
        // `bytes_cloned` was paid at fork time.
        prop_assert_eq!(child.stats().solver.bytes_cloned, bytes_after_fork);
    }

    /// Interleaving the three operations that rewrite the flat watcher
    /// arena — forking, garbage collection (block compaction), and learnt-
    /// clause detaching (swap-remove, forced by a tiny learnt limit) —
    /// under arbitrary scripts.  At every step the freshly forked child
    /// answers exactly as the parent does, and the fork counters pin the
    /// cost model: each fork records exactly `snapshot_bytes()` bytes.
    #[test]
    fn fork_gc_detach_interleaving_preserves_answers_and_fork_costs(
        (num_vars, clauses, script) in script_strategy()
    ) {
        let (mut parent, vars) = build(num_vars, &clauses);
        // Force learnt-database reduction at the first restart so queries
        // exercise the swap-remove detach path on the watcher arena.
        parent.set_learnt_limit(1.0);
        for (step, (retire, assumptions)) in script.iter().enumerate() {
            if let Some((v, negated)) = retire {
                parent.add_clause([Lit::new(vars[*v as usize], *negated)]);
            }
            if step % 2 == 0 {
                parent.collect_garbage();
            }
            let forks_before = parent.stats().fork_count;
            let snapshot = parent.snapshot_bytes();
            let mut child = SatBackend::fork(&parent).expect("the bundled solver forks");
            prop_assert_eq!(child.stats().solver.fork_count, forks_before + 1);
            prop_assert_eq!(
                child.stats().solver.bytes_cloned - parent.stats().bytes_cloned,
                snapshot
            );

            let assumptions = lits(&vars, assumptions);
            let expected = parent.solve_with_assumptions(&assumptions);
            let actual = child.solve_under(&assumptions).expect("bundled solver is total");
            prop_assert_eq!(expected, actual);
            // Compacting after the query must not change what the parent
            // answers (the child is dropped untouched — forks are
            // independent snapshots).
            if step % 2 == 1 {
                parent.collect_garbage();
                prop_assert_eq!(parent.solve_with_assumptions(&assumptions), expected);
            }
        }
    }

    /// Models returned after garbage collection still satisfy the original
    /// formula (compaction must not lose constraints).
    #[test]
    fn models_after_gc_satisfy_the_original_formula((num_vars, clauses, script) in script_strategy()) {
        let (mut solver, vars) = build(num_vars, &clauses);
        let mut retired: Vec<Lit> = Vec::new();
        for (retire, assumptions) in &script {
            if let Some((v, negated)) = retire {
                let unit = Lit::new(vars[*v as usize], *negated);
                solver.add_clause([unit]);
                retired.push(unit);
            }
            solver.collect_garbage();
            if solver.solve_with_assumptions(&lits(&vars, assumptions)) == SolveResult::Sat {
                let value = |l: Lit| {
                    solver
                        .value(l.var())
                        .map(|b| if l.is_negated() { !b } else { b })
                };
                for clause in &clauses {
                    let satisfied = lits(&vars, clause)
                        .iter()
                        .any(|&l| value(l).unwrap_or(false));
                    prop_assert!(satisfied, "model violates original clause {clause:?}");
                }
                for &unit in &retired {
                    prop_assert_eq!(value(unit), Some(true), "model violates retired unit");
                }
            }
        }
    }
}

/// Deterministic regression: collection reports its work through the stats
/// counters and physically shrinks the database.
#[test]
fn gc_counters_and_shrinkage() {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..8).map(|_| solver.new_var()).collect();
    // An activation literal guarding a block of clauses.
    let act = solver.new_var();
    for w in vars.windows(2) {
        solver.add_clause([Lit::neg(act), Lit::pos(w[0]), Lit::pos(w[1])]);
    }
    let clauses_before = solver.num_clauses();
    assert!(clauses_before >= 7);
    // Retire the activation literal: every guarded clause dies.
    solver.add_clause([Lit::neg(act)]);
    let collected = solver.collect_garbage();
    assert_eq!(collected, clauses_before as u64);
    assert_eq!(solver.num_clauses(), 0);
    let stats = solver.stats();
    assert_eq!(stats.gc_runs, 1);
    assert_eq!(stats.clauses_collected, collected);
    assert_eq!(solver.solve(), SolveResult::Sat);
}

/// Literal stripping through the public API: a falsified literal inside a
/// surviving clause is removed by the sweep (`arena_words_reclaimed` grows
/// with zero clauses collected), the answers are unchanged, and a second
/// sweep right after is a no-op — the compaction is idempotent.
///
/// The sweep's two degenerate outcomes (a survivor stripping to *zero* or
/// *one* literal — `found_empty` and the unit-uncovering re-enqueue) are
/// unreachable through this API: complete top-level propagation always
/// turns such clauses into conflicts or units first, so they are pinned by
/// white-box tests next to `Solver::collect_garbage` instead.
#[test]
fn stripping_reclaims_words_without_collecting_and_is_idempotent() {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..4).map(|_| solver.new_var()).collect();
    solver.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1]), Lit::pos(vars[2])]);
    solver.add_clause([Lit::neg(vars[2])]); // falsifies the tail literal
    solver.add_clause([Lit::pos(vars[3])]); // unrelated root unit
    let collected = solver.collect_garbage();
    assert_eq!(collected, 0, "the stripped clause survives");
    assert_eq!(solver.num_clauses(), 1);
    let stats = solver.stats();
    assert_eq!(stats.gc_runs, 1);
    assert!(
        stats.arena_words_reclaimed > 0,
        "stripping must reclaim the falsified literal's word"
    );

    // Idempotence: nothing left to strip or collect.
    let words_after_first = solver.arena_words();
    assert_eq!(solver.collect_garbage(), 0);
    assert_eq!(solver.arena_words(), words_after_first);
    assert_eq!(
        solver.stats().arena_words_reclaimed,
        stats.arena_words_reclaimed
    );

    // Answers are those of the original formula.
    assert_eq!(
        solver.solve_with_assumptions(&[Lit::neg(vars[0])]),
        SolveResult::Sat
    );
    assert_eq!(solver.value(vars[1]), Some(true), "x3 false forces x2");
    assert_eq!(
        solver.solve_with_assumptions(&[Lit::neg(vars[0]), Lit::neg(vars[1])]),
        SolveResult::Unsat
    );
}

/// Fork cost is proportional to the *live* arena, not the historical clause
/// count: retiring a cone and compacting shrinks the bytes every subsequent
/// fork copies, and the counters record exactly `snapshot_bytes()` per fork.
#[test]
fn fork_cost_shrinks_with_the_live_arena() {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..64).map(|_| solver.new_var()).collect();
    let act = solver.new_var();
    for w in vars.windows(2) {
        solver.add_clause([Lit::neg(act), Lit::pos(w[0]), Lit::pos(w[1])]);
    }
    let fat = solver.snapshot_bytes();
    let fat_fork = SatBackend::fork(&solver).expect("bundled solver forks");
    assert_eq!(fat_fork.stats().solver.fork_count, 1);
    assert_eq!(fat_fork.stats().solver.bytes_cloned, fat);

    // Retire the guarded cone and compact: the arena shrinks, and with it
    // the cost of the next fork.
    solver.add_clause([Lit::neg(act)]);
    solver.collect_garbage();
    assert!(solver.stats().arena_words_reclaimed > 0);
    let slim = solver.snapshot_bytes();
    assert!(
        slim < fat,
        "compaction must shrink the fork cost ({slim} < {fat})"
    );
    let slim_fork = SatBackend::fork(&solver).expect("bundled solver forks");
    assert_eq!(slim_fork.stats().solver.bytes_cloned, slim);
}

/// Database reduction with LBD scoring stays correct when forced on a small,
/// conflict-heavy formula, and the proportional watcher detach keeps the
/// solver consistent across further queries.
#[test]
fn forced_reduce_db_keeps_answers_correct() {
    // Pigeonhole PHP(5,4): 5 pigeons, 4 holes — UNSAT with real conflict
    // work, enough learnt clauses to trigger a forced reduction.
    let pigeons = 5usize;
    let holes = 4usize;
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..pigeons * holes).map(|_| solver.new_var()).collect();
    let lit = |p: usize, h: usize| Lit::pos(vars[p * holes + h]);
    for p in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| lit(p, h)).collect();
        solver.add_clause(clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                solver.add_clause([!lit(p1, h), !lit(p2, h)]);
            }
        }
    }
    // Force learnt-database reduction at the very first restart.
    solver.set_learnt_limit(1.0);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let stats = solver.stats();
    assert!(stats.conflicts > 0);
    assert!(
        stats.learnt_lbd_sum > 0,
        "learnt clauses must carry LBD scores"
    );
}

/// An interrupt check that always fires abandons the query without corrupting
/// the solver; clearing it restores normal solving.
#[test]
fn interrupts_abandon_queries_cleanly() {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..12).map(|_| solver.new_var()).collect();
    // xor chain forcing real search.
    for w in vars.windows(2) {
        solver.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
        solver.add_clause([Lit::neg(w[0]), Lit::neg(w[1])]);
    }
    solver.set_interrupt(std::sync::Arc::new(|| true));
    assert_eq!(solver.solve(), SolveResult::Interrupted);
    solver.clear_interrupt();
    assert_eq!(solver.solve(), SolveResult::Sat);
}
