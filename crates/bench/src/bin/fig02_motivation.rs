//! Figure 2: relative TLB misses of prior techniques under three mapping
//! scenarios (the motivation experiment).
//!
//! Base, cluster and RMM run the full workload suite under small-, medium-
//! and large-chunk mappings. The paper's shape: cluster helps at small
//! chunks but plateaus; RMM is ineffective at small chunks and nearly
//! eliminates misses at large ones.

use hytlb_bench::{banner, config_from_args, emit};
use hytlb_mem::Scenario;
use hytlb_sim::experiment::try_run_suite;
use hytlb_sim::report::{render_table, try_to_json};
use hytlb_sim::{SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("Figure 2: motivation — prior schemes vs. mapping contiguity", &config);

    let kinds = [SchemeKind::Baseline, SchemeKind::Cluster, SchemeKind::Rmm];
    let scenarios = [
        ("Small contig.", Scenario::LowContiguity),
        ("Medium contig.", Scenario::MediumContiguity),
        ("Large contig.", Scenario::HighContiguity),
    ];
    let cols: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    let mut suites = Vec::new();
    for (label, scenario) in scenarios {
        let suite = try_run_suite(scenario, &WorkloadKind::all(), &kinds, &config)?;
        let means = suite.mean_relative_misses();
        rows.push((label.to_owned(), means.iter().map(|m| format!("{m:.1}")).collect()));
        suites.push(suite);
    }
    let text = format!(
        "{}\nShape check (paper Fig. 2): cluster < base everywhere and roughly flat;\n\
         RMM ~ base at small contiguity, near zero at large contiguity.\n",
        render_table("mean rel. misses %", &cols, &rows)
    );
    emit("fig02_motivation", &text, &try_to_json(&suites)?);
    Ok(())
}
