//! Capture-then-replay workflow, mirroring the paper's Pin methodology:
//! stream a workload trace to a compressed `HYTLBTR2` file once, then
//! replay the identical trace from disk against several mapping
//! scenarios.
//!
//! Both directions stream: capture pushes each address into the block
//! writer as the generator produces it, and replay decodes the file
//! block by block — neither side ever holds the whole trace in memory.
//!
//! ```sh
//! cargo run --release --example trace_capture
//! ```

use hytlb::prelude::*;
use hytlb::trace::WorkloadKind;
use hytlb::tracefile::{TraceMeta, TraceReader, TraceWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadKind::Mcf;
    let footprint = 32 * 1024;
    let seed = 7;
    let accesses = 200_000;

    // 1. "Pin capture": stream the access trace straight to disk.
    let path = std::env::temp_dir().join("hytlb_mcf.htr2");
    let meta = TraceMeta::new(workload.label(), footprint, seed);
    let mut writer = TraceWriter::new(std::fs::File::create(&path)?, &meta)?;
    writer.extend(workload.generator(footprint, seed).take(accesses))?;
    let summary = writer.finish()?;
    println!(
        "captured {} accesses of {} to {} ({} bytes, {:.2}x smaller than raw u64s)",
        summary.accesses,
        workload,
        path.display(),
        summary.bytes,
        summary.compression_ratio(),
    );

    // 2. Replay the stored trace against three different mappings,
    //    re-reading it from disk for every run.
    let stream = |path: &std::path::Path| -> std::io::Result<_> {
        let reader = TraceReader::new(std::fs::File::open(path)?)?;
        Ok(reader.addresses().map(|address| address.expect("trace verified at capture")))
    };
    let config = PaperConfig::default();
    println!("\nreplaying {workload}:");
    println!("{:<10} {:>12} {:>12}", "scenario", "base walks", "anchor walks");
    for scenario in [Scenario::LowContiguity, Scenario::MediumContiguity, Scenario::MaxContiguity] {
        let map = std::sync::Arc::new(scenario.generate(footprint, 3));
        let base =
            Machine::for_scheme(SchemeKind::Baseline, &map, &config).try_run(stream(&path)?)?;
        let anchor = Machine::for_scheme(SchemeKind::AnchorDynamic, &map, &config)
            .try_run(stream(&path)?)?;
        println!(
            "{:<10} {:>12} {:>12}   (d = {})",
            scenario.label(),
            base.tlb_misses(),
            anchor.tlb_misses(),
            anchor.anchor_distance.expect("anchor distance")
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
