//! One price list: the cycles a scheme accumulates per access and the CPI
//! breakdown the engine reports must both come from the run's
//! [`LatencyModel`], for the paper's Table 3 prices and for any other.

use hytlb::mem::Scenario;
use hytlb::schemes::LatencyModel;
use hytlb::sim::experiment::{mapping_for, trace_for};
use hytlb::sim::{Machine, PaperConfig, SchemeKind};
use hytlb::trace::WorkloadKind;
use hytlb::types::Cycles;

/// One of every scheme shape the engine builds.
const KINDS: [SchemeKind; 10] = [
    SchemeKind::Baseline,
    SchemeKind::Thp,
    SchemeKind::Thp1G,
    SchemeKind::Cluster,
    SchemeKind::Cluster2Mb,
    SchemeKind::Colt,
    SchemeKind::Rmm,
    SchemeKind::AnchorDynamic,
    SchemeKind::AnchorStatic(16),
    SchemeKind::AnchorMultiRegion(4),
];

const CELLS: [(WorkloadKind, Scenario); 2] = [
    (WorkloadKind::Gups, Scenario::DemandPaging),
    (WorkloadKind::Canneal, Scenario::MediumContiguity),
];

fn check(latency: LatencyModel) {
    let config = PaperConfig {
        accesses: 20_000,
        footprint_shift: 6,
        epoch_instructions: 6_000,
        latency,
        ..PaperConfig::default()
    };
    for (workload, scenario) in CELLS {
        let map = mapping_for(workload, scenario, &config);
        let trace = trace_for(workload, &config);
        for kind in KINDS {
            let run =
                Machine::for_scheme(kind, &map, &config).try_run(trace.iter().copied()).unwrap();
            let s = run.stats;
            let priced = s.l2_regular_hits * latency.l2_hit.as_u64()
                + s.coalesced_hits * latency.coalesced_hit.as_u64()
                + (s.walks + s.faults) * latency.walk.as_u64();
            let cell = format!("{kind} on {workload}/{scenario} at {latency:?}");
            assert_eq!(s.cycles, Cycles::new(priced), "{cell}");
            assert!(s.walks > 0 && s.l2_regular_hits > 0, "{cell} must exercise the L2: {s:?}");
            let from_cpi = run.cpi.total() * run.instructions as f64;
            let err = (from_cpi - priced as f64).abs();
            assert!(err <= 1e-9 * priced as f64, "{cell}: CPI gives {from_cpi}, stats {priced}");
        }
    }
}

#[test]
fn cycles_and_cpi_agree_under_table3_prices() {
    check(LatencyModel::default());
}

#[test]
fn cycles_and_cpi_agree_under_other_prices() {
    check(LatencyModel {
        l2_hit: Cycles::new(3),
        coalesced_hit: Cycles::new(5),
        walk: Cycles::new(100),
    });
}
