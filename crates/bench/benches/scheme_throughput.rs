//! Criterion: end-to-end translation throughput of every scheme — the
//! simulator-performance counterpart of Figures 7–9 (each group name cites
//! the figure whose experiment it exercises at reduced scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hytlb_mem::Scenario;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;

fn bench_config() -> PaperConfig {
    PaperConfig { accesses: 50_000, footprint_shift: 5, ..PaperConfig::default() }
}

/// Figures 7/8: every scheme on the demand and medium mappings.
fn scheme_throughput(c: &mut Criterion) {
    let config = bench_config();
    for scenario in [Scenario::DemandPaging, Scenario::MediumContiguity] {
        let mut group = c.benchmark_group(format!("fig7_8_translate_{scenario}"));
        let footprint = config.footprint_for(WorkloadKind::Canneal);
        let map = std::sync::Arc::new(scenario.generate(footprint, config.seed));
        let trace: Vec<u64> = WorkloadKind::Canneal
            .generator(footprint, config.seed)
            .take(config.accesses as usize)
            .collect();
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.sample_size(10);
        for kind in SchemeKind::paper_set() {
            group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &kind| {
                b.iter(|| {
                    let mut m = Machine::for_scheme(kind, &map, &config);
                    m.try_run(trace.iter().copied()).expect("mapped trace").tlb_misses()
                });
            });
        }
        group.finish();
    }
}

/// Figure 9: the all-scenario sweep at miniature scale (one workload).
fn scenario_sweep(c: &mut Criterion) {
    let config = bench_config();
    let mut group = c.benchmark_group("fig9_scenario_sweep");
    group.sample_size(10);
    for scenario in Scenario::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(scenario.label()),
            &scenario,
            |b, &scenario| {
                let footprint = config.footprint_for(WorkloadKind::Milc);
                let map = std::sync::Arc::new(scenario.generate(footprint, config.seed));
                let trace: Vec<u64> = WorkloadKind::Milc
                    .generator(footprint, config.seed)
                    .take(config.accesses as usize)
                    .collect();
                b.iter(|| {
                    let mut m = Machine::for_scheme(SchemeKind::AnchorDynamic, &map, &config);
                    m.try_run(trace.iter().copied()).expect("mapped trace").tlb_misses()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, scheme_throughput, scenario_sweep);
criterion_main!(benches);
