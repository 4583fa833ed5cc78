//! Experiment E9: the number of properties — and therefore the total flow
//! runtime — scales with the *structural* depth of the design, not with its
//! sequential depth (Sec. V of the paper: "the number of loop iterations is
//! limited by the structural, not the sequential, depth of the design").
//!
//! Two series:
//!
//! * `structural_depth`: synthetic pipelines of increasing depth; properties
//!   and runtime grow linearly with the depth.
//! * `sequential_depth_independence`: a design containing a 2^N-cycle
//!   counter (astronomical sequential depth) is verified with a handful of
//!   properties regardless of N, because the symbolic starting state
//!   fast-forwards over any trigger history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htd_bench::{deep_sequential_design, run_session_detection, xor_pipeline};
use htd_core::DetectorConfig;

fn depth_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("depth_scaling");
    group.sample_size(10);

    for depth in [4usize, 8, 16, 32, 64] {
        let design = xor_pipeline(depth, 32).expect("pipeline builds");
        group.bench_with_input(
            BenchmarkId::new("structural_depth", depth),
            &design,
            |b, design| b.iter(|| run_session_detection(design, &DetectorConfig::default())),
        );
    }

    for counter_bits in [8u32, 32, 64, 128] {
        let design = deep_sequential_design(counter_bits).expect("design builds");
        group.bench_with_input(
            BenchmarkId::new("sequential_depth_independence", counter_bits),
            &design,
            |b, design| b.iter(|| run_session_detection(design, &DetectorConfig::default())),
        );
    }

    group.finish();
}

criterion_group!(benches, depth_scaling);
criterion_main!(benches);
