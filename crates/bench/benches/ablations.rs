//! Criterion: ablation microbenchmarks (DESIGN.md §4) — the performance
//! side of the miss-count ablations in `--bin ablations`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hytlb_core::{AnchorConfig, AnchorScheme, FillPolicy};
use hytlb_mem::Scenario;
use hytlb_schemes::AnchorIndexing;
use hytlb_sim::{Machine, PaperConfig};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;

fn config() -> PaperConfig {
    PaperConfig { accesses: 30_000, footprint_shift: 5, ..PaperConfig::default() }
}

/// Ablation 1: Figure 6 indexing vs naive — wall-clock of a full run (miss
/// differences are reported by the `ablations` binary).
fn indexing(c: &mut Criterion) {
    let config = config();
    let footprint = config.footprint_for(WorkloadKind::Milc);
    let map = Arc::new(Scenario::HighContiguity.generate(footprint, config.seed));
    let trace: Vec<u64> = WorkloadKind::Milc
        .generator(footprint, config.seed)
        .take(config.accesses as usize)
        .collect();
    let mut group = c.benchmark_group("ablation_indexing");
    group.sample_size(10);
    for (label, indexing) in
        [("fig6", AnchorIndexing::Fig6), ("naive", AnchorIndexing::NaiveLowBits)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &indexing, |b, &indexing| {
            b.iter(|| {
                let cfg = AnchorConfig { indexing, ..AnchorConfig::dynamic() };
                let scheme = AnchorScheme::new(Arc::clone(&map), cfg);
                Machine::from_scheme(Box::new(scheme.into_mmu()), &map, &config)
                    .try_run(trace.iter().copied())
                    .expect("mapped trace")
                    .tlb_misses()
            });
        });
    }
    group.finish();
}

/// Ablation 3: fill policies.
fn fill_policy(c: &mut Criterion) {
    let config = config();
    let footprint = config.footprint_for(WorkloadKind::Canneal);
    let map = Arc::new(Scenario::MediumContiguity.generate(footprint, config.seed));
    let trace: Vec<u64> = WorkloadKind::Canneal
        .generator(footprint, config.seed)
        .take(config.accesses as usize)
        .collect();
    let mut group = c.benchmark_group("ablation_fill_policy");
    group.sample_size(10);
    for (label, fill) in
        [("prefer_anchor", FillPolicy::PreferAnchor), ("always_regular", FillPolicy::AlwaysRegular)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &fill, |b, &fill| {
            b.iter(|| {
                let cfg = AnchorConfig { fill, ..AnchorConfig::dynamic() };
                let scheme = AnchorScheme::new(Arc::clone(&map), cfg);
                Machine::from_scheme(Box::new(scheme.into_mmu()), &map, &config)
                    .try_run(trace.iter().copied())
                    .expect("mapped trace")
                    .tlb_misses()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, indexing, fill_policy);
criterion_main!(benches);
