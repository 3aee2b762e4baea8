//! Figure 7: relative TLB misses per benchmark under the demand-paging
//! mapping (THP enabled), across all seven schemes.

use hytlb_bench::{banner, config_from_args, emit, try_per_benchmark_suite};
use hytlb_mem::Scenario;
use hytlb_sim::report::{relative_miss_table, try_to_json};
use hytlb_sim::SimError;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("Figure 7: relative TLB misses, demand paging", &config);
    let suite = try_per_benchmark_suite(Scenario::DemandPaging, &config)?;
    let text = format!(
        "{}\nShape check (paper Fig. 7): THP cuts ~60% of misses for most apps but\n\
         not omnetpp/xalancbmk; Cluster-2MB beats plain Cluster; Dynamic matches\n\
         or beats the best prior scheme per app.\n",
        relative_miss_table(&suite)
    );
    emit("fig07_demand", &text, &try_to_json(&suite)?);
    Ok(())
}
