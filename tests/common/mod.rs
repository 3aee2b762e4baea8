//! Test-only reference oracles: the serial, one-access-at-a-time
//! simulation that the library's chunked run loop and parallel matrix
//! driver must match bit for bit.
//!
//! Nothing here is clever on purpose. Every access is placed with the
//! plain `PageIndex::nth_page` math and driven through
//! `TranslationScheme::access` on its own, and `on_epoch`/`flush` are
//! serviced after each access — the definition the chunked loop's
//! boundary cutting has to reproduce.

// Each integration-test crate includes this module and uses a subset.
#![allow(dead_code)]

use hytlb::mem::{AddressSpaceMap, Scenario};
use hytlb::schemes::TranslationScheme;
use hytlb::sim::experiment::{mapping_for, trace_for, SuiteResult, WorkloadRow};
use hytlb::sim::{CpiBreakdown, PaperConfig, RunStats, SchemeKind};
use hytlb::trace::WorkloadKind;
use hytlb::types::{VirtAddr, PAGE_SIZE_U64};
use std::sync::Arc;

/// Runs a logical trace through a fresh `kind` one access at a time,
/// flushing every `flush_period` accesses (0 flushes after every access).
///
/// # Panics
///
/// Panics if an access faults: traces only touch mapped pages.
pub fn run_scalar(
    kind: SchemeKind,
    map: &Arc<AddressSpaceMap>,
    config: &PaperConfig,
    trace: &[u64],
    flush_period: u64,
) -> RunStats {
    let mut scheme = kind.build(map, config);
    let index = map.page_index();
    let epoch_every = config.epoch_accesses();
    let mut since_epoch = 0u64;
    let mut since_flush = 0u64;
    for &logical in trace {
        let vpn = index.nth_page(logical / PAGE_SIZE_U64);
        let va = VirtAddr::new(vpn.base_addr().as_u64() + logical % PAGE_SIZE_U64);
        assert!(scheme.access(va).pfn.is_some(), "{kind} faulted at {va}");
        since_epoch += 1;
        since_flush += 1;
        if since_epoch >= epoch_every {
            scheme.on_epoch();
            since_epoch = 0;
        }
        if since_flush >= flush_period {
            scheme.flush();
            since_flush = 0;
        }
    }
    run_stats(&*scheme, trace.len() as u64, config)
}

/// The `RunStats` of a finished run: the scheme's counters priced with the
/// Table 3 latencies, per instruction.
fn run_stats(scheme: &dyn TranslationScheme, accesses: u64, config: &PaperConfig) -> RunStats {
    let stats = *scheme.stats();
    let instructions = (accesses as f64 / config.mem_ops_per_instruction).round().max(1.0) as u64;
    let lat = config.latency;
    let per_instruction = |cycles: u64| cycles as f64 / instructions as f64;
    RunStats {
        scheme: scheme.name().to_owned(),
        accesses,
        instructions,
        stats,
        cpi: CpiBreakdown {
            l2_hit: per_instruction(stats.l2_regular_hits * lat.l2_hit.as_u64()),
            coalesced_hit: per_instruction(stats.coalesced_hits * lat.coalesced_hit.as_u64()),
            walk: per_instruction((stats.walks + stats.faults) * lat.walk.as_u64()),
        },
        anchor_distance: scheme.anchor_distance(),
    }
}

/// A suite as plain nested loops: no cache, no worker pool, no batching.
pub fn run_suite_serial(
    scenario: Scenario,
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    config: &PaperConfig,
) -> SuiteResult {
    let rows = workloads
        .iter()
        .map(|&workload| {
            let map = mapping_for(workload, scenario, config);
            let trace = trace_for(workload, config);
            let runs = kinds
                .iter()
                .map(|&kind| run_scalar(kind, &map, config, &trace, u64::MAX))
                .collect();
            WorkloadRow { workload, runs }
        })
        .collect();
    SuiteResult { scenario, schemes: kinds.iter().map(|k| k.label()).collect(), rows }
}

/// The `Static Ideal` scheme by exhaustive evaluation: the first candidate
/// distance with the fewest TLB misses.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn static_ideal(
    workload: WorkloadKind,
    scenario: Scenario,
    candidates: &[u64],
    config: &PaperConfig,
) -> RunStats {
    let map = mapping_for(workload, scenario, config);
    let trace = trace_for(workload, config);
    candidates
        .iter()
        .map(|&d| run_scalar(SchemeKind::AnchorStatic(d), &map, config, &trace, u64::MAX))
        .min_by_key(RunStats::tlb_misses)
        .expect("at least one candidate distance")
}
