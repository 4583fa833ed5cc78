//! Experiment E1 (Table I): end-to-end detection-flow runtime per benchmark
//! class.  The verdicts themselves are checked by the integration tests and
//! the `table1` example; this benchmark tracks how long each class of
//! benchmark takes, which corresponds to the per-design verification effort
//! reported in Sec. VI of the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htd_bench::{prepared_benchmark, run_session_detection};
use htd_trusthub::registry::Benchmark;

fn table1_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_detection");
    group.sample_size(10);

    // One representative per benchmark class of Table I (running all 28 rows
    // takes minutes under Criterion's repetition; the `table1` example covers
    // the full sweep in a single pass).
    let representatives = [
        Benchmark::AesT100,      // PSC, plaintext sequence -> init property
        Benchmark::AesT900,      // PSC, # encryptions      -> init property
        Benchmark::AesT1600,     // RF                      -> init property
        Benchmark::AesT1800,     // DoS                     -> init property
        Benchmark::AesT1900,     // DoS oscillator          -> coverage check
        Benchmark::AesT2500,     // bit flip at the output  -> fanout property 21
        Benchmark::AesT2600,     // bit flip mid-pipeline   -> fanout property 7
        Benchmark::BasicRsaT300, // key leak to output   -> init property
        Benchmark::AesHtFree,    // clean design            -> secure
        Benchmark::BasicRsaHtFree,
        Benchmark::Rs232T2400,
    ];

    for benchmark in representatives {
        let (design, config) = prepared_benchmark(benchmark);
        group.bench_with_input(
            BenchmarkId::from_parameter(benchmark.name()),
            &(design, config),
            |b, (design, config)| b.iter(|| run_session_detection(design, config)),
        );
    }
    group.finish();
}

criterion_group!(benches, table1_detection);
criterion_main!(benches);
