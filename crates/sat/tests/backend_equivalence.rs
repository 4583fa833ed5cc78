//! Property-based equivalence of the `SatBackend` abstraction with the
//! direct `Solver` API: driving one long-lived backend through many
//! incremental queries must answer exactly like a fresh solver built from
//! scratch for every query.

use htd_sat::{Lit, SatBackend, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A clause is a list of (variable index, negated) pairs.
type RawClause = Vec<(u8, bool)>;

fn clause_strategy(num_vars: u8) -> impl Strategy<Value = RawClause> {
    prop::collection::vec((0..num_vars, any::<bool>()), 1..=4)
}

/// A staged formula: several batches of clauses plus one assumption seed per
/// batch, modelling the flow's "add clauses, query under assumptions, add
/// more clauses" usage pattern.
fn staged_formula() -> impl Strategy<Value = (u8, Vec<(Vec<RawClause>, u8)>)> {
    (2u8..=6).prop_flat_map(|nv| {
        prop::collection::vec(
            (
                prop::collection::vec(clause_strategy(nv), 1..=8),
                any::<u8>(),
            ),
            1..=4,
        )
        .prop_map(move |stages| (nv, stages))
    })
}

fn to_lits(vars: &[Var], clause: &RawClause) -> Vec<Lit> {
    clause
        .iter()
        .map(|&(v, neg)| Lit::new(vars[v as usize % vars.len()], neg))
        .collect()
}

fn assumptions_from_seed(vars: &[Var], seed: u8) -> Vec<Lit> {
    // Up to two assumption literals derived deterministically from the seed.
    let v0 = (seed as usize) % vars.len();
    let v1 = (seed as usize / 16) % vars.len();
    let mut lits = vec![Lit::new(vars[v0], seed & 1 == 1)];
    if v1 != v0 {
        lits.push(Lit::new(vars[v1], seed & 2 == 2));
    }
    lits
}

/// Reference result: a fresh solver over all clauses seen so far, with the
/// assumptions added as units.
fn fresh_solve(num_vars: u8, clauses: &[RawClause], assumptions: &[Lit]) -> SolveResult {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for clause in clauses {
        solver.add_clause(to_lits(&vars, clause));
    }
    for &lit in assumptions {
        solver.add_clause([lit]);
    }
    solver.solve()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_backend_matches_fresh_solves((num_vars, stages) in staged_formula()) {
        let mut backend = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| SatBackend::new_var(&mut backend)).collect();
        let mut all_clauses: Vec<RawClause> = Vec::new();

        for (batch, seed) in &stages {
            for clause in batch {
                let lits = to_lits(&vars, clause);
                SatBackend::add_clause(&mut backend, &lits);
                all_clauses.push(clause.clone());
            }
            let assumptions = assumptions_from_seed(&vars, *seed);
            let incremental = SatBackend::solve_under(&mut backend, &assumptions).unwrap();
            let reference = fresh_solve(num_vars, &all_clauses, &assumptions);
            prop_assert_eq!(incremental, reference,
                "incremental backend diverged from the fresh solve");

            // A SAT model read through the trait must satisfy every clause.
            if incremental == SolveResult::Sat {
                for clause in &all_clauses {
                    let satisfied = to_lits(&vars, clause).iter().any(|l| {
                        SatBackend::model_value(&backend, l.var())
                            .map(|value| l.apply(value))
                            .unwrap_or(false)
                    });
                    prop_assert!(satisfied, "model violates clause {:?}", clause);
                }
            }
        }

        // Assumptions never persist: the backend's plain verdict equals the
        // fresh solve without assumptions.
        let plain = SatBackend::solve_under(&mut backend, &[]).unwrap();
        prop_assert_eq!(plain, fresh_solve(num_vars, &all_clauses, &[]));
    }
}

#[test]
fn backend_stats_track_queries_and_clauses() {
    let mut backend = Solver::new();
    let a = SatBackend::new_var(&mut backend);
    let b = SatBackend::new_var(&mut backend);
    SatBackend::add_clause(&mut backend, &[Lit::pos(a), Lit::pos(b)]);
    SatBackend::solve_under(&mut backend, &[]).unwrap();
    SatBackend::solve_under(&mut backend, &[Lit::neg(a)]).unwrap();
    let stats = SatBackend::stats(&backend);
    assert_eq!(stats.vars, 2);
    assert_eq!(stats.clauses, 1);
    assert_eq!(stats.solver.solves, 2);
}
