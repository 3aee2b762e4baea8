//! Wall-clock benchmark of the batched parallel matrix driver against the
//! serial paths, with a bit-identity check over every cell.
//!
//! Runs the Figure 9 evaluation matrix (all scenarios × all workloads ×
//! the six paper schemes) three times:
//!
//! 1. **boxed scalar** — the pre-optimization serial shape: every machine
//!    holds a `Box<dyn TranslationScheme>` behind the scalar per-access
//!    loop and rebuilds its own placement index (this is what
//!    `run_suite_serial` compiled to before the hot-loop overhaul, kept
//!    here as the speedup baseline);
//! 2. **serial reference** — today's
//!    [`run_suite_serial`](hytlb_sim::experiment::run_suite_serial):
//!    shared per-row index, still the scalar loop;
//! 3. **parallel batched** — [`run_matrix`](hytlb_sim::run_matrix): memoized
//!    inputs, pre-resolved traces and the chunked `access_batch` loop.
//!
//! All three must agree cell-for-cell; `results/BENCH_matrix.json` records
//! the timings, throughputs, the speedup of (3) over (1), and the cache's
//! exactly-once build counters.
//!
//! ```sh
//! cargo run --release --bin bench_matrix -- --quick
//! HYTLB_THREADS=4 cargo run --release --bin bench_matrix
//! ```

use hytlb_bench::{banner, config_from_args, emit};
use hytlb_mem::Scenario;
use hytlb_sim::experiment::{mapping_for, run_suite_serial, trace_for, SuiteResult, WorkloadRow};
use hytlb_sim::matrix::{run_matrix_with, worker_count, MatrixCache};
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::time::Instant;

/// The pre-optimization serial driver, preserved verbatim in shape: boxed
/// schemes (one virtual call per access), a fresh placement index per
/// machine, and the scalar logical-trace loop.
fn run_suite_boxed_scalar(
    scenario: Scenario,
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    config: &PaperConfig,
) -> SuiteResult {
    let rows = workloads
        .iter()
        .map(|&workload| {
            let map = mapping_for(workload, scenario, config);
            let trace = trace_for(workload, config);
            let runs = kinds
                .iter()
                .map(|&kind| {
                    Machine::from_scheme(kind.build(&map, config), &map, config)
                        .run(trace.iter().copied())
                })
                .collect();
            WorkloadRow { workload, runs }
        })
        .collect();
    SuiteResult { scenario, schemes: kinds.iter().map(|k| k.label()).collect(), rows }
}

fn main() {
    let config = config_from_args();
    banner("BENCH: batched matrix driver vs serial paths", &config);

    let scenarios = Scenario::all();
    let workloads = WorkloadKind::all();
    let kinds = SchemeKind::paper_set();
    let cells = scenarios.len() * workloads.len() * kinds.len();
    let threads = worker_count(&config);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Every path is deterministic, so repeat runs are pure re-timings;
    // the minimum over interleaved rounds discards scheduler and
    // frequency noise (which on shared single-core machines dwarfs the
    // effect being measured) without changing any result.
    const ROUNDS: usize = 3;
    let mut boxed_s = f64::INFINITY;
    let mut serial_s = f64::INFINITY;
    let mut parallel_s = f64::INFINITY;
    let mut boxed = Vec::new();
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    let mut cache = MatrixCache::new();
    for round in 1..=ROUNDS {
        // A fresh cache per round, so every parallel timing pays the
        // exactly-once generation cost just like the serial paths do.
        cache = MatrixCache::new();
        eprintln!("round {round}/{ROUNDS}: {cells} cells through the boxed scalar loop ...");
        let start = Instant::now();
        boxed = scenarios
            .iter()
            .map(|&s| run_suite_boxed_scalar(s, &workloads, &kinds, &config))
            .collect();
        boxed_s = boxed_s.min(start.elapsed().as_secs_f64());

        eprintln!("round {round}/{ROUNDS}: {cells} cells through the serial reference ...");
        let start = Instant::now();
        serial =
            scenarios.iter().map(|&s| run_suite_serial(s, &workloads, &kinds, &config)).collect();
        serial_s = serial_s.min(start.elapsed().as_secs_f64());

        eprintln!("round {round}/{ROUNDS}: {cells} cells on {threads} worker threads ...");
        let start = Instant::now();
        parallel = run_matrix_with(&cache, &scenarios, &workloads, &kinds, &config);
        parallel_s = parallel_s.min(start.elapsed().as_secs_f64());
    }

    assert_eq!(serial, boxed, "serial reference must match the boxed scalar loop");
    assert_eq!(parallel, serial, "parallel matrix must be bit-identical to the serial reference");
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

    let speedup = boxed_s / parallel_s.max(1e-9);
    let total_accesses = (cells as u64) * config.accesses;
    let boxed_aps = total_accesses as f64 / boxed_s.max(1e-9);
    let serial_aps = total_accesses as f64 / serial_s.max(1e-9);
    let parallel_aps = total_accesses as f64 / parallel_s.max(1e-9);
    let text = format!(
        "cells: {cells} ({} scenarios x {} workloads x {} schemes)\n\
         worker threads: {threads} (of {cores} available cores)\n\
         boxed scalar (pre-optimization): {boxed_s:.2} s ({:.1} M accesses/s)\n\
         serial reference:                {serial_s:.2} s ({:.1} M accesses/s)\n\
         parallel batched:                {parallel_s:.2} s ({:.1} M accesses/s)\n\
         speedup over pre-optimization:   {speedup:.2}x\n\
         bit-identical across all three paths: yes\n\
         mappings generated: {} (exactly one per workload x scenario)\n\
         traces generated:   {} (exactly one per workload)\n\
         resolved traces:    {} (exactly one per workload x scenario)\n",
        scenarios.len(),
        workloads.len(),
        kinds.len(),
        boxed_aps / 1e6,
        serial_aps / 1e6,
        parallel_aps / 1e6,
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
        "serial_seconds": boxed_s,
        "serial_reference_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "accesses_per_sec": serde_json::json!({
            "serial": boxed_aps,
            "serial_reference": serial_aps,
            "parallel": parallel_aps,
        }),
        "bit_identical": true,
        "mapping_builds": cache_stats.mapping_builds,
        "trace_builds": cache_stats.trace_builds,
        "resolved_builds": cache_stats.resolved_builds,
    });
    emit("BENCH_matrix", &text, &serde_json::to_string_pretty(&json).expect("serializable"));
}
