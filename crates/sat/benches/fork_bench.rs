//! Clone-throughput microbenchmark for the fork path: how fast a warm
//! solver snapshots at the arena sizes of the bundled designs — the AES
//! benchmarks (tens-of-KiB arenas) and BasicRSA (a ~3.7 MB arena, the
//! largest).  A fork is a handful of flat-buffer
//! memcpys, so the numbers here should track memory bandwidth, not clause
//! count; a per-clause or per-literal rebuild shows up immediately as a
//! collapse at the BasicRSA scale.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use htd_sat::{Lit, SatBackend, SolveResult, Solver, Var};

/// Grows a chain formula until the solver's snapshot reaches at least
/// `target_bytes`, then runs one query so the trail, saved phases and
/// watcher lists are warm — the state a mid-flow fork copies.
fn warm_solver(target_bytes: u64) -> Solver {
    let mut solver = Solver::new();
    let mut vars: Vec<Var> = (0..3).map(|_| solver.new_var()).collect();
    while solver.snapshot_bytes() < target_bytes {
        vars.push(solver.new_var());
        let n = vars.len();
        solver.add_clause([
            Lit::neg(vars[n - 3]),
            Lit::neg(vars[n - 2]),
            Lit::pos(vars[n - 1]),
        ]);
        solver.add_clause([Lit::pos(vars[n - 3]), Lit::pos(vars[n - 1])]);
    }
    assert_eq!(solver.solve(), SolveResult::Sat);
    solver
}

fn fork_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork");
    group.sample_size(20);

    for (label, target) in [("aes-64KiB", 64 << 10), ("basicrsa-3.7MB", 3_700_000)] {
        let solver = warm_solver(target);
        let bytes = solver.snapshot_bytes();
        group.bench_with_input(
            BenchmarkId::new("clone", format!("{label}/{bytes}B")),
            &solver,
            |b, s| b.iter(|| black_box(s.clone())),
        );
        group.bench_with_input(
            BenchmarkId::new("fork", format!("{label}/{bytes}B")),
            &solver,
            |b, s| b.iter(|| black_box(SatBackend::fork(s).expect("bundled solver forks"))),
        );
    }
    group.finish();
}

criterion_group!(benches, fork_bench);
criterion_main!(benches);
