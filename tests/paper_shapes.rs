//! End-to-end assertions of the paper's headline claims, at reduced scale.
//!
//! These are the "shape" invariants EXPERIMENTS.md reports at full scale,
//! pinned as tests so a regression in any layer (allocator, selector, TLB
//! model, scheme) that breaks a published conclusion fails CI.

use hytlb::prelude::*;
use hytlb::sim::experiment::try_run_suite;
use hytlb::trace::WorkloadKind;

fn config() -> PaperConfig {
    PaperConfig { accesses: 60_000, footprint_shift: 4, ..PaperConfig::default() }
}

/// A representative sub-suite (one workload per access-pattern archetype)
/// keeps the runtime in CI territory.
fn workloads() -> [WorkloadKind; 4] {
    [
        WorkloadKind::Canneal, // hot/cold
        WorkloadKind::Milc,    // streams
        WorkloadKind::Mcf,     // pointer chase
        WorkloadKind::Omnetpp, // fine-grained hot set
    ]
}

/// Figure 9's headline: Dynamic matches or beats the best prior scheme in
/// every mapping scenario (tolerance: 15% relative, for the reduced scale).
#[test]
fn dynamic_is_best_or_tied_everywhere() {
    let config = config();
    for scenario in Scenario::all() {
        let suite =
            try_run_suite(scenario, &workloads(), &SchemeKind::paper_set(), &config).unwrap();
        let means = suite.mean_relative_misses();
        // Columns: Base THP Cluster Cluster-2MB RMM Dynamic.
        let dynamic = means[5];
        let best_prior = means[1..5].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            dynamic <= best_prior * 1.15 + 2.0,
            "{scenario}: Dynamic {dynamic:.1} vs best prior {best_prior:.1} ({means:?})"
        );
    }
}

/// Figure 2's motivation shape: cluster helps at every contiguity level but
/// plateaus; RMM is bimodal.
#[test]
fn prior_schemes_have_their_published_failure_modes() {
    let config = config();
    let low = try_run_suite(
        Scenario::LowContiguity,
        &workloads(),
        &[SchemeKind::Baseline, SchemeKind::Cluster, SchemeKind::Rmm],
        &config,
    )
    .unwrap()
    .mean_relative_misses();
    let max = try_run_suite(
        Scenario::MaxContiguity,
        &workloads(),
        &[SchemeKind::Baseline, SchemeKind::Cluster, SchemeKind::Rmm],
        &config,
    )
    .unwrap()
    .mean_relative_misses();
    assert!(low[1] < 95.0, "cluster helps at low contiguity: {low:?}");
    assert!(low[2] > 95.0, "RMM useless at low contiguity: {low:?}");
    assert!(max[2] < 5.0, "RMM near-perfect at max contiguity: {max:?}");
    assert!(max[1] > 20.0, "cluster plateaus at max contiguity: {max:?}");
}

/// Table 6's regimes: the selected distance tracks the mapping's contiguity.
#[test]
fn selected_distances_track_contiguity_regimes() {
    let config = config();
    let d_for = |scenario| {
        let suite = try_run_suite(
            scenario,
            &[WorkloadKind::Canneal],
            &[SchemeKind::AnchorDynamic],
            &config,
        )
        .unwrap();
        suite.rows[0].runs[0].anchor_distance.expect("anchor run")
    };
    let low = d_for(Scenario::LowContiguity);
    let medium = d_for(Scenario::MediumContiguity);
    let max = d_for(Scenario::MaxContiguity);
    assert!(low <= 8, "low regime: {low}");
    assert!((8..=256).contains(&medium), "medium regime: {medium}");
    assert!(max >= 1024, "max regime: {max}");
}

/// §2.1's scalability claim, end to end: on a fully contiguous mapping the
/// anchor TLB needs orders of magnitude fewer walks than HW-only coalescing.
#[test]
fn anchor_coverage_scales_beyond_hw_coalescing() {
    let config = config();
    let suite = try_run_suite(
        Scenario::MaxContiguity,
        &[WorkloadKind::Milc],
        &[SchemeKind::Cluster2Mb, SchemeKind::Colt, SchemeKind::AnchorDynamic],
        &config,
    )
    .unwrap();
    let runs = &suite.rows[0].runs;
    let (cluster, colt, anchor) =
        (runs[0].tlb_misses(), runs[1].tlb_misses(), runs[2].tlb_misses());
    assert!(anchor * 10 <= colt.max(1), "anchor {anchor} vs CoLT {colt}");
    assert!(anchor <= cluster, "anchor {anchor} vs cluster {cluster}");
}
