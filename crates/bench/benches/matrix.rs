//! Criterion: the matrix driver at 1, 2 and 4 worker threads on a reduced
//! Figure 9 slice, plus the memoization layer in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hytlb_mem::Scenario;
use hytlb_sim::matrix::{try_run_matrix_with, MatrixCache};
use hytlb_sim::{PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;

fn bench_config() -> PaperConfig {
    PaperConfig { accesses: 30_000, footprint_shift: 5, ..PaperConfig::default() }
}

const SCENARIOS: [Scenario; 3] =
    [Scenario::DemandPaging, Scenario::MediumContiguity, Scenario::MaxContiguity];
const WORKLOADS: [WorkloadKind; 3] =
    [WorkloadKind::Canneal, WorkloadKind::Gups, WorkloadKind::Omnetpp];

/// The worker pool at 1, 2 and 4 threads.
fn matrix_driver(c: &mut Criterion) {
    let kinds = SchemeKind::paper_set();
    let cells = (SCENARIOS.len() * WORKLOADS.len() * kinds.len()) as u64;
    let mut group = c.benchmark_group("matrix_driver");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &threads| {
            let config = PaperConfig { threads: Some(threads), ..bench_config() };
            b.iter(|| {
                try_run_matrix_with(&MatrixCache::new(), &SCENARIOS, &WORKLOADS, &kinds, &config)
                    .expect("mapped traces")
            });
        });
    }
    group.finish();
}

/// Cost of a cache hit vs regenerating the mapping and trace.
fn matrix_cache(c: &mut Criterion) {
    let config = bench_config();
    let mut group = c.benchmark_group("matrix_cache");
    group.sample_size(10);
    group.bench_function("mapping_and_trace_miss", |b| {
        b.iter(|| {
            let cache = MatrixCache::new();
            let m = cache.mapping(WorkloadKind::Canneal, Scenario::MediumContiguity, &config);
            let t = cache.try_trace(WorkloadKind::Canneal, &config).expect("generated trace");
            (m.map.mapped_pages(), t.len())
        });
    });
    group.bench_function("mapping_and_trace_hit", |b| {
        let cache = MatrixCache::new();
        let _ = cache.mapping(WorkloadKind::Canneal, Scenario::MediumContiguity, &config);
        let _ = cache.try_trace(WorkloadKind::Canneal, &config).expect("generated trace");
        b.iter(|| {
            let m = cache.mapping(WorkloadKind::Canneal, Scenario::MediumContiguity, &config);
            let t = cache.try_trace(WorkloadKind::Canneal, &config).expect("generated trace");
            (m.map.mapped_pages(), t.len())
        });
    });
    group.finish();
}

criterion_group!(benches, matrix_driver, matrix_cache);
criterion_main!(benches);
