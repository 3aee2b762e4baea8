//! Anatomy of Algorithm 1: how the anchor-distance cost function trades
//! anchor entries, 2 MB entries and 4 KB entries, and why the selected
//! distance is (close to) the empirically best one.
//!
//! For one mapping this example prints, per candidate distance, the
//! heuristic capacity cost and the *measured* TLB misses of a static run —
//! the `static ideal` sweep of the paper — then shows where the dynamic
//! selection landed.
//!
//! ```sh
//! cargo run --release --example distance_tuning
//! ```

use hytlb::prelude::*;
use hytlb::sim::experiment::{mapping_for, trace_for};
use hytlb::sim::Machine;
use hytlb::trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = PaperConfig { accesses: 300_000, footprint_shift: 3, ..PaperConfig::default() };
    let workload = WorkloadKind::Mcf;
    let scenario = Scenario::MediumContiguity;
    let map = mapping_for(workload, scenario, &config);
    let hist = ContiguityHistogram::from_map(&map);
    let selector = DistanceSelector::paper_default();
    let trace = trace_for(workload, &config);

    println!(
        "workload {workload}, scenario {scenario}: {} chunks, mean contiguity {:.1} pages\n",
        map.chunk_count(),
        hist.mean_contiguity()
    );
    println!("{:>9} {:>14} {:>12}", "distance", "heuristic cost", "walks");
    let mut best = (0u64, u64::MAX);
    for &d in selector.candidates() {
        let cost = selector.cost(d, &hist);
        let run = Machine::for_scheme(SchemeKind::AnchorStatic(d), &map, &config)
            .try_run(trace.iter().copied())?;
        if run.tlb_misses() < best.1 {
            best = (d, run.tlb_misses());
        }
        println!("{d:>9} {cost:>14.1} {:>12}", run.tlb_misses());
    }
    let selected = selector.select(&hist);
    println!("\nAlgorithm 1 selects d = {selected}; the measured best is d = {}.", best.0);
    let selected_run = Machine::for_scheme(SchemeKind::AnchorStatic(selected), &map, &config)
        .try_run(trace.iter().copied())?;
    println!(
        "misses at selected vs best: {} vs {} ({:+.1}%)",
        selected_run.tlb_misses(),
        best.1,
        (selected_run.tlb_misses() as f64 / best.1.max(1) as f64 - 1.0) * 100.0
    );
    Ok(())
}
