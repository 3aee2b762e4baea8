//! The paper's headline property: one mechanism adapting to every
//! fragmentation regime.
//!
//! For each of the six mapping scenarios this example shows which anchor
//! distance the OS selects (Algorithm 1) and how the anchor TLB compares
//! against the best prior scheme *for that scenario* — reproducing, in
//! miniature, the conclusion of the paper: "our scheme outperforms or
//! performs similar to the best prior scheme for each mapping scenario".
//!
//! ```sh
//! cargo run --release --example fragmentation_adaptation
//! ```

use hytlb::prelude::*;
use hytlb::sim::experiment::try_run_suite;
use hytlb::trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = PaperConfig { accesses: 200_000, footprint_shift: 3, ..PaperConfig::default() };
    let kinds = [
        SchemeKind::Baseline,
        SchemeKind::Thp,
        SchemeKind::Cluster2Mb,
        SchemeKind::Rmm,
        SchemeKind::AnchorDynamic,
    ];
    println!("workload: canneal | misses relative to baseline (%), lower is better\n");
    println!(
        "{:<8} {:>8} {:>12} {:>8} {:>9} | {:>14}",
        "scenario", "THP", "Cluster-2MB", "RMM", "Dynamic", "anchor distance"
    );
    for scenario in Scenario::all() {
        let suite = try_run_suite(scenario, &[WorkloadKind::Canneal], &kinds, &config)?;
        let row = &suite.rows[0];
        let base = &row.runs[0];
        let rel: Vec<f64> = row.runs.iter().map(|r| r.relative_misses_pct(base)).collect();
        let distance = row.runs[4].anchor_distance.expect("anchor run");
        println!(
            "{:<8} {:>8.1} {:>12.1} {:>8.1} {:>9.1} | {:>14}",
            scenario.label(),
            rel[1],
            rel[2],
            rel[3],
            rel[4],
            distance
        );
        let best_prior = rel[1..4].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            rel[4] <= best_prior + 10.0,
            "anchor should match the best prior scheme (scenario {scenario})"
        );
    }
    println!("\nThe distance tracks the mapping: small when fragmented, huge when contiguous.");
    Ok(())
}
