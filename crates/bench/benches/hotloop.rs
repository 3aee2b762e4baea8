//! Single-cell hot-loop throughput of the run loop, per scheme.
//!
//! For one (workload, scenario) cell the trace is resolved to virtual
//! addresses once, then replayed through every paper scheme with
//! [`Machine::try_run_resolved`]: `access_batch` chunks of up to 4,096
//! accesses, one virtual call per chunk, over a shared placement index.
//! Each scheme's time is the minimum of three runs on a fresh machine.
//!
//! Results go to `results/BENCH_hotloop.{txt,json}` with per-scheme and
//! aggregate `accesses_per_sec`. The loop runs on one thread.
//!
//! ```sh
//! cargo bench -p hytlb-bench --bench hotloop
//! cargo bench -p hytlb-bench --bench hotloop -- --quick
//! ```

use hytlb_bench::emit;
use hytlb_mem::Scenario;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per scheme; the minimum is reported.
const ROUNDS: usize = 3;

fn main() {
    // `cargo bench` appends harness flags (`--bench`); only `--quick` is
    // ours, everything else is ignored.
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        PaperConfig { accesses: 200_000, footprint_shift: 4, ..PaperConfig::default() }
    } else {
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() }
    };
    let workload = WorkloadKind::Canneal;
    let scenario = Scenario::MediumContiguity;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fingerprint = config.fingerprint();

    let footprint = config.footprint_for(workload);
    let map = Arc::new(scenario.generate(footprint, config.seed));
    let index = Arc::new(map.page_index());
    let trace: Vec<u64> =
        workload.generator(footprint, config.seed).take(config.accesses as usize).collect();

    let resolve_start = Instant::now();
    let resolved = index.resolve(&trace);
    let resolve_s = resolve_start.elapsed().as_secs_f64();

    println!(
        "== BENCH: single-cell hot loop ({workload} / {scenario}, {} accesses) ==\n",
        config.accesses
    );

    let accesses = config.accesses as f64;
    let mut text = format!("{:<12} {:>12}  {:>14}\n", "scheme", "seconds", "accesses/s");
    let mut schemes_json = Vec::new();
    let mut total_s = 0.0;
    for kind in SchemeKind::paper_set() {
        let mut best_s = f64::INFINITY;
        for _ in 0..ROUNDS {
            let mut machine = Machine::for_scheme_indexed(kind, &map, &index, &config);
            let start = Instant::now();
            machine.try_run_resolved(&resolved).expect("mapped trace");
            best_s = best_s.min(start.elapsed().as_secs_f64());
        }
        total_s += best_s;
        let aps = accesses / best_s.max(1e-9);
        text.push_str(&format!("{:<12} {best_s:>12.3}  {:>12.1} M\n", kind.label(), aps / 1e6));
        schemes_json.push(serde_json::json!({
            "scheme": kind.label(),
            "seconds": best_s,
            "accesses_per_sec": aps,
        }));
    }

    let schemes = SchemeKind::paper_set().len() as f64;
    let agg_aps = accesses * schemes / total_s.max(1e-9);
    text.push_str(&format!(
        "\ntrace resolution (once per cell): {resolve_s:.3} s\n\
         aggregate: {total_s:.2} s ({:.1} M accesses/s) on 1 thread of {cores} available cores\n\
         config fingerprint: {fingerprint:#018x}\n",
        agg_aps / 1e6
    ));
    let json = serde_json::json!({
        "workload": workload.to_string(),
        "scenario": scenario.to_string(),
        "accesses": config.accesses,
        "threads": 1,
        "available_cores": cores,
        "config_fingerprint": format!("{fingerprint:#018x}"),
        "rounds": ROUNDS,
        "resolve_seconds": resolve_s,
        "schemes": schemes_json,
        "seconds": total_s,
        "accesses_per_sec": agg_aps,
    });
    emit("BENCH_hotloop", &text, &serde_json::to_string_pretty(&json).expect("serializable"));
}
