//! Bit-identity of the chunked run loop against the one-access-at-a-time
//! oracle in `tests/common`, across the whole scheme × scenario matrix and
//! through both of its inputs — logical traces resolved chunk by chunk
//! ([`Machine::try_run`]) and pre-resolved ones
//! ([`Machine::try_run_resolved_with_flush_period`]) — plus property tests
//! for the `PageIndex` cursor fast paths.
//!
//! The loop cuts chunks so every epoch and flush boundary lands on a chunk
//! end; these tests pick epoch lengths and flush periods that are *not*
//! multiples of the 4,096-access chunk, so boundaries fall mid-chunk and
//! the cutting logic is actually exercised.

mod common;

use hytlb::mem::{AddressSpaceMap, PageCursor, Scenario};
use hytlb::sim::{Machine, PaperConfig, SchemeKind};
use hytlb::trace::WorkloadKind;
use hytlb::types::{Permissions, PhysFrameNum, VirtPageNum, PAGE_SIZE_U64};
use proptest::prelude::*;
use std::sync::Arc;

/// Every scheme kind the engine can build, including the parameterized
/// anchor variants that `paper_set` leaves out.
fn all_kinds() -> Vec<SchemeKind> {
    let mut kinds = SchemeKind::paper_set().to_vec();
    kinds.extend([
        SchemeKind::Thp1G,
        SchemeKind::Colt,
        SchemeKind::AnchorStatic(16),
        SchemeKind::AnchorMultiRegion(4),
    ]);
    kinds
}

/// A config whose epoch length (3,333 accesses) is far from any multiple of
/// the 4,096-access chunk, so every epoch boundary lands mid-chunk.
fn boundary_config() -> PaperConfig {
    PaperConfig {
        accesses: 20_000,
        footprint_shift: 5,
        epoch_instructions: 9_999,
        ..PaperConfig::default()
    }
}

#[test]
fn batched_loop_is_bit_identical_across_the_matrix() {
    let config = boundary_config();
    assert_eq!(config.epoch_accesses(), 3_333);
    let workload = WorkloadKind::Canneal;
    for scenario in Scenario::all() {
        let footprint = config.footprint_for(workload);
        let map = Arc::new(scenario.generate(footprint, config.seed));
        let index = Arc::new(map.page_index());
        let trace: Vec<u64> =
            workload.generator(footprint, config.seed).take(config.accesses as usize).collect();
        let resolved = index.resolve(&trace);
        for kind in all_kinds() {
            let machine = || Machine::for_scheme_indexed(kind, &map, &index, &config);
            let oracle = common::run_scalar(kind, &map, &config, &trace, u64::MAX);
            let logical = machine().try_run(trace.iter().copied()).expect("mapped trace");
            assert_eq!(logical, oracle, "{kind} / {scenario} / logical input");
            // 2,500 is coprime with the chunk size and shorter than an
            // epoch, so flushes and epochs interleave in both orders.
            for flush_period in [u64::MAX, 2_500] {
                let oracle = common::run_scalar(kind, &map, &config, &trace, flush_period);
                let batched = machine()
                    .try_run_resolved_with_flush_period(&resolved, flush_period)
                    .expect("mapped trace");
                assert_eq!(batched, oracle, "{kind} / {scenario} / flush {flush_period}");
            }
        }
    }
}

#[test]
fn batched_loop_survives_flush_after_every_access() {
    // flush_period == 0 flushes after every access; the loop must degrade
    // to one-access chunks and still agree with the oracle.
    let config = PaperConfig { accesses: 2_000, ..boundary_config() };
    let workload = WorkloadKind::Gups;
    let footprint = config.footprint_for(workload);
    let map = Arc::new(Scenario::LowContiguity.generate(footprint, config.seed));
    let index = Arc::new(map.page_index());
    let trace: Vec<u64> =
        workload.generator(footprint, config.seed).take(config.accesses as usize).collect();
    let resolved = index.resolve(&trace);
    for kind in [SchemeKind::Baseline, SchemeKind::AnchorDynamic] {
        let oracle = common::run_scalar(kind, &map, &config, &trace, 0);
        let batched = Machine::for_scheme_indexed(kind, &map, &index, &config)
            .try_run_resolved_with_flush_period(&resolved, 0)
            .expect("mapped trace");
        assert_eq!(batched, oracle, "{kind} with flush_period 0");
    }
}

/// Builds a sparse map from (gap, len) chunk specs.
fn map_from_specs(specs: &[(u64, u64)]) -> AddressSpaceMap {
    let mut map = AddressSpaceMap::new();
    let mut vpn = 0u64;
    let mut pfn = 1u64 << 20;
    for &(gap, len) in specs {
        vpn += gap + 1;
        map.map_range(VirtPageNum::new(vpn), PhysFrameNum::new(pfn), len, Permissions::READ_WRITE);
        vpn += len;
        pfn += len + 5;
    }
    map
}

/// Strategy: a sparse map (as (gap, len) chunk specs) plus a sequence of
/// logical page indices to look up (reduced modulo the page count, since
/// the map's size is not known until generation time).
fn arb_map_and_accesses() -> impl Strategy<Value = (AddressSpaceMap, Vec<u64>)> {
    (
        proptest::collection::vec((0u64..500, 1u64..48), 1..30),
        proptest::collection::vec(any::<u64>(), 1..200),
    )
        .prop_map(|(specs, raws)| {
            let map = map_from_specs(&specs);
            let pages = map.mapped_pages();
            let accesses = raws.into_iter().map(|r| r % pages).collect();
            (map, accesses)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MRU-chunk cursor lookup agrees with the plain binary search for
    /// any access sequence — including the pathological back-and-forth
    /// patterns where the cursor misses every time.
    #[test]
    fn cursor_lookup_agrees_with_partition_point((map, accesses) in arb_map_and_accesses()) {
        let index = map.page_index();
        let mut cursor = PageCursor::default();
        for &i in &accesses {
            prop_assert_eq!(index.nth_page_with(i, &mut cursor), index.nth_page(i));
        }
    }

    /// `resolve` agrees element-wise with the scalar placement math for
    /// arbitrary logical addresses (page index × page size + offset).
    #[test]
    fn resolve_agrees_with_scalar_math((map, accesses) in arb_map_and_accesses(), offset in 0u64..4096) {
        let index = map.page_index();
        let logical: Vec<u64> =
            accesses.iter().map(|&i| i * PAGE_SIZE_U64 + offset).collect();
        let resolved = index.resolve(&logical);
        prop_assert_eq!(resolved.len(), logical.len());
        for (&l, &va) in logical.iter().zip(&resolved) {
            let vpn = index.nth_page(l / PAGE_SIZE_U64);
            prop_assert_eq!(va.as_u64(), vpn.base_addr().as_u64() + l % PAGE_SIZE_U64);
        }
    }
}
