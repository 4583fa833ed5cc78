//! Pins structural planning and netlist parsing at the allocator, on the
//! deepest bundled plan (`AES (HT-free)`, 22 fanout levels):
//!
//! * Planning to the fixpoint (`FlowGraph::plan` + `coverage`) reads the
//!   support table that validation built, so it allocates per level and per
//!   property, never per expression node or per driver walk.
//! * Parsing the canonical text interns each ROM table once, at its
//!   `table @N` line: the 200 S-box reads share it without cloning it.
//!
//! The whole file is a single `#[test]` on purpose: the counting allocator
//! is process-global, and a sibling test running on another thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use golden_free_htd::detect::{DetectorConfig, FlowGraph};
use golden_free_htd::rtl::netlist;
use golden_free_htd::trusthub::registry::Benchmark;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator plus an atomic counter
// bump — every `GlobalAlloc` obligation is `System`'s own.
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

/// Runs `f` and returns its value with the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Planning makes under 200 allocations: a few per level (its property, the
/// fanout's source marks and result).  Walking every driver's DAG at every
/// level made 64,983, one heap `Vec` per visited node among them.
const MAX_PLAN_ALLOCATIONS: u64 = 1_000;

/// Parsing makes under 170 allocations.  Cloning the 256-entry table at each
/// of the 200 S-box reads made 391.
const MAX_PARSE_ALLOCATIONS: u64 = 300;

#[test]
fn planning_and_parsing_aes_allocate_per_level_and_per_statement() {
    let design = Benchmark::AesHtFree.build().expect("benchmark builds");
    let text = netlist::dump(&design);

    let (parsed, parse_allocations) = allocations_during(|| netlist::parse(&text));
    let parsed = parsed.expect("the canonical text parses");
    assert!(
        parse_allocations <= MAX_PARSE_ALLOCATIONS,
        "parsing AES (HT-free) made {parse_allocations} allocations"
    );

    let config = DetectorConfig::default();
    let (planned, plan_allocations) = allocations_during(|| {
        let mut planner = FlowGraph::plan(&parsed, &config).expect("planning starts");
        let coverage = planner.coverage(&parsed).expect("fixpoint in reach");
        (planner.level_count(), coverage)
    });
    let (levels, (covered, uncovered)) = planned;
    assert!(
        plan_allocations <= MAX_PLAN_ALLOCATIONS,
        "planning AES (HT-free) made {plan_allocations} allocations"
    );
    assert_eq!(levels, 22);
    assert!(covered > 0 && uncovered.is_empty());
}
