//! Wall-clock benchmark of the matrix driver on the Figure 9 evaluation
//! matrix (all scenarios × all workloads × the six paper schemes).
//!
//! The matrix runs three times, each round on a fresh [`MatrixCache`] so
//! every timing pays the exactly-once generation cost; the minimum is
//! reported. Every round must produce the same results, and the cache's
//! build counters must show exactly one mapping and resolved trace per
//! (workload, scenario) and one trace per workload. Bit-identity against a
//! serial one-access-at-a-time oracle is checked by
//! `tests/matrix_determinism.rs`; a speedup claim compares this binary's
//! `results/BENCH_matrix.json` with the parent commit's, on the same
//! machine.
//!
//! ```sh
//! cargo run --release --bin bench_matrix -- --quick
//! HYTLB_THREADS=4 cargo run --release --bin bench_matrix
//! ```

use hytlb_bench::{banner, config_from_args, emit};
use hytlb_mem::Scenario;
use hytlb_sim::matrix::{try_run_matrix_with, worker_count, MatrixCache};
use hytlb_sim::report::try_to_json;
use hytlb_sim::{SchemeKind, SimError};
use hytlb_trace::WorkloadKind;
use std::time::Instant;

fn main() -> Result<(), SimError> {
    let config = config_from_args();
    banner("BENCH: matrix driver", &config);

    let scenarios = Scenario::all();
    let workloads = WorkloadKind::all();
    let kinds = SchemeKind::paper_set();
    let cells = scenarios.len() * workloads.len() * kinds.len();
    let threads = worker_count(&config);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // The driver is deterministic, so repeat runs are pure re-timings;
    // the minimum discards scheduler and frequency noise (which on shared
    // machines dwarfs the effect being measured) without changing any
    // result.
    const ROUNDS: usize = 3;
    let mut best_s = f64::INFINITY;
    let mut first = None;
    let mut cache = MatrixCache::new();
    for round in 1..=ROUNDS {
        cache = MatrixCache::new();
        eprintln!("round {round}/{ROUNDS}: {cells} cells on {threads} worker threads ...");
        let start = Instant::now();
        let suites = try_run_matrix_with(&cache, &scenarios, &workloads, &kinds, &config)?;
        best_s = best_s.min(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(suites),
            Some(first) => assert_eq!(&suites, first, "round {round} differs from round 1"),
        }
    }

    let cache_stats = cache.stats();
    assert_eq!(
        cache_stats.mapping_builds,
        scenarios.len() * workloads.len(),
        "one mapping per (workload, scenario)"
    );
    assert_eq!(cache_stats.trace_builds, workloads.len(), "one trace per workload");
    assert_eq!(
        cache_stats.resolved_builds,
        scenarios.len() * workloads.len(),
        "one resolved trace per (workload, scenario)"
    );

    let total_accesses = (cells as u64) * config.accesses;
    let accesses_per_sec = total_accesses as f64 / best_s.max(1e-9);
    let fingerprint = config.fingerprint();
    let text = format!(
        "cells: {cells} ({} scenarios x {} workloads x {} schemes)\n\
         worker threads: {threads} (of {cores} available cores)\n\
         config fingerprint: {fingerprint:#018x}\n\
         matrix driver (min of {ROUNDS}): {best_s:.2} s ({:.1} M accesses/s)\n\
         identical across rounds: yes\n\
         mappings generated: {} (exactly one per workload x scenario)\n\
         traces generated:   {} (exactly one per workload)\n\
         resolved traces:    {} (exactly one per workload x scenario)\n",
        scenarios.len(),
        workloads.len(),
        kinds.len(),
        accesses_per_sec / 1e6,
        cache_stats.mapping_builds,
        cache_stats.trace_builds,
        cache_stats.resolved_builds,
    );
    let json = serde_json::json!({
        "cells": cells,
        "scenarios": scenarios.len(),
        "workloads": workloads.len(),
        "schemes": kinds.len(),
        "threads": threads,
        "available_cores": cores,
        "config_fingerprint": format!("{fingerprint:#018x}"),
        "accesses": config.accesses,
        "rounds": ROUNDS,
        "seconds": best_s,
        "accesses_per_sec": accesses_per_sec,
        "mapping_builds": cache_stats.mapping_builds,
        "trace_builds": cache_stats.trace_builds,
        "resolved_builds": cache_stats.resolved_builds,
    });
    emit("BENCH_matrix", &text, &try_to_json(&json)?);
    Ok(())
}
