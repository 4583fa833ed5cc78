//! Pins the encoding layer's cost at the allocator.
//!
//! * Tseitin-encoding a fresh cone of `K` AND gates into a [`Solver`] makes
//!   O(log K) allocations — the amortised growth of a fixed set of dense
//!   tables (node table, visited stamps, solver columns, arenas) — not one
//!   or more per node or per clause.  A hashed node map, a visited set or a
//!   per-clause buffer would scale the count with `K`.
//! * Forking a pristine [`MiterSession`] (one that has encoded nothing yet)
//!   copies only what the graph holds: no pre-sized structural-hash table.
//!
//! The whole file is a single `#[test]` on purpose: the counting allocator
//! is process-global, and a sibling test running on another thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use htd_ipc::aig::{Aig, AigLit};
use htd_ipc::cnf::IncrementalEncoder;
use htd_ipc::MiterSession;
use htd_rtl::Design;
use htd_sat::Solver;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator plus atomic counter
// bumps — every `GlobalAlloc` obligation is `System`'s own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout contract to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same contract as this fn — delegated verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its value with the allocations and bytes it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let value = f();
    (
        value,
        ALLOCATIONS.load(Ordering::Relaxed) - count,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Allocations made by encoding a fresh cone of `ands` AND gates: a chain
/// conjoining `ands + 1` inputs, so `2 * ands + 1` variables and `3 * ands`
/// clauses.
fn encode_allocations(ands: usize) -> u64 {
    let mut aig = Aig::new();
    let inputs: Vec<AigLit> = (0..=ands).map(|_| aig.new_input()).collect();
    let root = aig.and_all(&inputs);
    assert_eq!(aig.num_ands(), ands);
    let mut solver = Solver::new();
    let mut encoder = IncrementalEncoder::new();
    let (fresh, allocations, _) = allocations_during(|| encoder.encode(&mut solver, &aig, &[root]));
    assert_eq!(fresh, 2 * ands + 1);
    assert_eq!(solver.num_clauses(), 3 * ands);
    allocations
}

/// A small design: an 8-bit accumulator with a mode register, one output.
fn small_design() -> htd_rtl::ValidatedDesign {
    let mut d = Design::new("accumulator");
    let input = d.add_input("in", 8).unwrap();
    let acc = d.add_register("acc", 8, 0).unwrap();
    let mode = d.add_register("mode", 1, 0).unwrap();
    let sum = d.add(d.signal(acc), d.signal(input)).unwrap();
    let next = d.mux(d.signal(mode), sum, d.signal(input)).unwrap();
    d.set_register_next(acc, next).unwrap();
    let flip = d.not(d.signal(mode));
    d.set_register_next(mode, flip).unwrap();
    d.add_output("out", d.signal(acc)).unwrap();
    d.validated().unwrap()
}

/// Far below the 2 MiB a pre-sized structural-hash table costs.
const MAX_PRISTINE_FORK_BYTES: u64 = 64 * 1024;

#[test]
fn encoding_and_pristine_forks_allocate_by_table_growth_only() {
    // (a) Encoding: the count grows with log K.  Sixteen times the cone
    // adds a handful of doublings per dense table, nowhere near the
    // 6 * 15 * 1024 allocations two per clause would add.
    let small = encode_allocations(1 << 10);
    let large = encode_allocations(1 << 14);
    assert!(
        large < (1 << 14) / 16,
        "encoding 16384 ANDs made {large} allocations; expected O(log K)"
    );
    assert!(
        large <= small + 128,
        "encoding 16x the cone went from {small} to {large} allocations"
    );

    // (b) A pristine master fork copies the graph and an empty solver.
    let design = small_design();
    let master = MiterSession::new(&design, Box::new(Solver::new()));
    let (fork, _, bytes) = allocations_during(|| master.fork());
    let fork = fork.expect("the builtin solver forks");
    assert!(
        bytes < MAX_PRISTINE_FORK_BYTES,
        "forking a pristine session allocated {bytes} bytes"
    );
    assert_eq!(fork.design_name(), "accumulator");
}
