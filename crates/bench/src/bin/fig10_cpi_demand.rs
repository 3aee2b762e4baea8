//! Figure 10: translation-CPI breakdown (L2 hit / coalesced hit / page
//! walk) per benchmark and scheme under demand paging.

use hytlb_bench::{banner, config_from_args, emit, try_per_benchmark_suite};
use hytlb_mem::Scenario;
use hytlb_sim::report::{cpi_table, try_to_json};
use hytlb_sim::SimError;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("Figure 10: translation CPI breakdown, demand paging", &config);
    let suite = try_per_benchmark_suite(Scenario::DemandPaging, &config)?;
    let text = format!(
        "{}\nShape check (paper Fig. 10): CPI tracks the miss reductions of Fig. 7;\n\
         the walk component dominates Base for graph500/gups/tigr and Dynamic\n\
         removes most of it.\n",
        cpi_table(&suite)
    );
    emit("fig10_cpi_demand", &text, &try_to_json(&suite)?);
    Ok(())
}
