//! The parallel matrix driver must be bit-identical to the serial
//! one-access-at-a-time oracle in `tests/common`, cell for cell, at any
//! worker count — the contract that lets every figure binary run on the
//! pool without changing a single number.

mod common;

use common::{run_suite_serial, static_ideal};
use hytlb::prelude::*;
use hytlb::sim::experiment::try_run_suite;
use hytlb::sim::matrix::{
    try_run_matrix, try_run_matrix_with, try_run_matrix_with_static_ideal, MatrixCache,
};
use hytlb::trace::WorkloadKind;

fn tiny_config() -> PaperConfig {
    PaperConfig { accesses: 6_000, footprint_shift: 6, ..PaperConfig::default() }
}

#[test]
fn run_matrix_equals_serial_reference_cell_for_cell() {
    let scenarios = [Scenario::DemandPaging, Scenario::LowContiguity, Scenario::MaxContiguity];
    let workloads = [WorkloadKind::Canneal, WorkloadKind::Gups, WorkloadKind::Omnetpp];
    let kinds = [SchemeKind::Baseline, SchemeKind::Thp, SchemeKind::Rmm, SchemeKind::AnchorDynamic];
    let serial: Vec<_> = scenarios
        .iter()
        .map(|&s| run_suite_serial(s, &workloads, &kinds, &tiny_config()))
        .collect();
    for threads in [1, 2, 7] {
        let config = PaperConfig { threads: Some(threads), ..tiny_config() };
        let parallel = try_run_matrix(&scenarios, &workloads, &kinds, &config).unwrap();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.scenario, s.scenario);
            assert_eq!(p.schemes, s.schemes);
            for (prow, srow) in p.rows.iter().zip(&s.rows) {
                assert_eq!(prow.workload, srow.workload);
                for (prun, srun) in prow.runs.iter().zip(&srow.runs) {
                    assert_eq!(prun, srun, "{}/{}/{threads} threads", p.scenario, prow.workload);
                }
            }
        }
    }
}

#[test]
fn run_suite_is_matrix_backed_and_unchanged() {
    let config = PaperConfig { threads: Some(3), ..tiny_config() };
    let kinds = [SchemeKind::Baseline, SchemeKind::Cluster2Mb];
    let workloads = [WorkloadKind::Milc, WorkloadKind::Mcf];
    let suite = try_run_suite(Scenario::MediumContiguity, &workloads, &kinds, &config).unwrap();
    let reference = run_suite_serial(Scenario::MediumContiguity, &workloads, &kinds, &config);
    assert_eq!(suite, reference);
}

#[test]
fn static_ideal_column_replicates_serial_sweep_tie_breaking() {
    let config = PaperConfig { threads: Some(4), ..tiny_config() };
    // Deliberately includes distances likely to tie so first-minimum
    // tie-breaking is exercised, not just the unique-winner path.
    let sweep = [4u64, 8, 32, 4096];
    let kinds = [SchemeKind::Baseline];
    let suites = try_run_matrix_with_static_ideal(
        &MatrixCache::new(),
        &[Scenario::MediumContiguity, Scenario::MaxContiguity],
        &[WorkloadKind::Canneal, WorkloadKind::Milc],
        &kinds,
        &sweep,
        &config,
    )
    .unwrap();
    for suite in &suites {
        assert_eq!(suite.schemes.last().map(String::as_str), Some("Static Ideal"));
        for row in &suite.rows {
            let serial_best = static_ideal(row.workload, suite.scenario, &sweep, &config);
            assert_eq!(row.runs.last(), Some(&serial_best), "{}/{}", suite.scenario, row.workload);
        }
    }
}

#[test]
fn shared_cache_across_matrices_changes_nothing() {
    let config = PaperConfig { threads: Some(2), ..tiny_config() };
    let kinds = [SchemeKind::Baseline, SchemeKind::AnchorDynamic];
    let workloads = [WorkloadKind::Gups];
    let cache = MatrixCache::new();
    let run = || {
        try_run_matrix_with(&cache, &[Scenario::LowContiguity], &workloads, &kinds, &config)
            .unwrap()
    };
    let first = run();
    // The second run is served entirely from the cache.
    let second = run();
    assert_eq!(first, second);
    let stats = cache.stats();
    assert_eq!(stats.mapping_builds, 1);
    assert_eq!(stats.trace_builds, 1);
}
