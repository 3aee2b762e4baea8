//! Extension experiment: TLB refill behaviour under context-switch
//! flushes.
//!
//! §3.3 of the paper argues the full-TLB invalidation on an anchor-distance
//! change is tolerable because "the native Linux kernel for x86 flushes the
//! TLB on context switches" anyway. This experiment quantifies that
//! context: with the TLB flushed every Q accesses, schemes with wide
//! entries re-cover their working set in far fewer walks, so coalescing's
//! advantage *grows* as switches become more frequent.

use hytlb_bench::{banner, config_from_args, emit};
use hytlb_mem::Scenario;
use hytlb_sim::experiment::{mapping_for, trace_for};
use hytlb_sim::report::{render_table, try_to_json};
use hytlb_sim::{Machine, SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("Extension: context-switch flush sensitivity", &config);

    let workload = WorkloadKind::Canneal;
    let scenario = Scenario::MediumContiguity;
    let map = mapping_for(workload, scenario, &config);
    let resolved = map.page_index().resolve(&trace_for(workload, &config));
    let periods = [u64::MAX, 1_000_000, 100_000, 10_000];
    let kinds = [SchemeKind::Baseline, SchemeKind::Cluster2Mb, SchemeKind::AnchorDynamic];

    let cols: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for period in periods {
        let label =
            if period == u64::MAX { "no switches".to_owned() } else { format!("every {period}") };
        let cells: Vec<String> = kinds
            .iter()
            .map(|&k| {
                let run = Machine::for_scheme(k, &map, &config)
                    .try_run_resolved_with_flush_period(&resolved, period)?;
                json.push(serde_json::json!({
                    "scheme": run.scheme,
                    "flush_period": period,
                    "walks": run.tlb_misses(),
                    "cpi": run.translation_cpi(),
                }));
                Ok(run.tlb_misses().to_string())
            })
            .collect::<Result<_, SimError>>()?;
        rows.push((label, cells));
    }
    let text = format!(
        "{}\nWalks for canneal / medium contiguity. The baseline pays ~one walk per\n\
         working-set page after every flush; Dynamic re-covers the same reach\n\
         with ~1/32nd the fills, so its advantage widens with switch frequency\n\
         — the §3.3 argument that full-TLB shootdowns on distance changes are\n\
         tolerable.\n",
        render_table("flush period", &cols, &rows)
    );
    emit("ext_context_switch", &text, &try_to_json(&json)?);
    Ok(())
}
