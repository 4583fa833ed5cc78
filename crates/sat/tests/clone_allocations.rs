//! Pins the O(bytes) fork cost model at the allocator: cloning a [`Solver`]
//! performs a fixed number of heap allocations — one `memcpy`-backed buffer
//! clone per flat store (clause arena, watcher arena data + range table,
//! per-variable columns, trail, decision heap and its slot index) —
//! regardless of how many variables or clauses the solver holds.  A
//! per-literal or per-clause watcher representation would scale the
//! allocation count with the formula and fail this test immediately.
//!
//! The whole file is a single `#[test]` on purpose: the counting allocator
//! is process-global, and a sibling test running on another thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use htd_sat::{Lit, SolveResult, Solver, Var};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator plus an atomic
// counter bump — every `GlobalAlloc` obligation is `System`'s own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout contract to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as this fn — delegated verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's layout contract to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this fn — delegated verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's layout contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as this fn — delegated verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Builds a chain formula over `num_vars` variables and runs one query so
/// the trail, phases and watcher lists are all warm.
fn chain_solver(num_vars: usize) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for w in vars.windows(2) {
        solver.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]);
        solver.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
    }
    assert_eq!(solver.solve(), SolveResult::Sat);
    solver
}

/// An upper bound on the flat buffers a clone copies.  The solver holds
/// about fourteen; the slack absorbs container changes without inviting
/// per-clause growth (which would add thousands at the large scale below).
const MAX_CLONE_ALLOCATIONS: u64 = 24;

#[test]
fn clone_allocation_count_is_flat_in_the_formula_size() {
    let small = chain_solver(8);
    let large = chain_solver(4096);
    assert!(
        large.snapshot_bytes() > 100 * small.snapshot_bytes(),
        "the scales must differ enough to expose per-clause allocations"
    );

    let (small_clone, small_allocs) = allocations_during(|| small.clone());
    let (large_clone, large_allocs) = allocations_during(|| large.clone());

    assert_eq!(
        small_allocs, large_allocs,
        "clone allocation count must not depend on formula size"
    );
    assert!(
        large_allocs <= MAX_CLONE_ALLOCATIONS,
        "clone made {large_allocs} allocations; expected a fixed handful"
    );

    // The clones are real solvers, not shallow copies.
    drop(small);
    drop(large);
    let mut small_clone = small_clone;
    let mut large_clone = large_clone;
    assert_eq!(small_clone.solve(), SolveResult::Sat);
    assert_eq!(large_clone.solve(), SolveResult::Sat);
}
