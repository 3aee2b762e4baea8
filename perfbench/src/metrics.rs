//! The metric catalog and the per-layer values of one traced run.
//!
//! `BENCHMARK.json` lists exactly these names; a test keeps the two in
//! step.

use crate::stats::{median, tail};
use crate::workload::{Matrix, Traced, Untraced};
use std::collections::BTreeMap;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_maccesses_per_s", "Maccess/s"),
    ("peak_rss_mib", "MiB"),
];

/// Scheme buckets of the per-scheme metrics (the sweep's static-distance
/// points share one bucket).
pub const SCHEME_SLUGS: [&str; 7] =
    ["base", "thp", "cluster", "cluster-2mb", "rmm", "dynamic", "static-sweep"];

/// Busy-time layers recorded as spans (seconds), besides the per-scheme
/// ones.
const SPAN_LAYERS: [&str; 11] = [
    "mem.mapping_s",
    "mem.page_index_s",
    "mem.resolve_s",
    "trace.generate_s",
    "tracefile.record_s",
    "tracefile.decode_s",
    "core.build_s",
    "core.access_s",
    "core.epoch_s",
    "report.render_s",
    "bench.check_s",
];

/// Counts recorded by the traced run.
const COUNTS: [(&str, &str); 10] = [
    ("mem.mappings", "count"),
    ("mem.mapped_pages", "pages"),
    ("mem.chunks", "count"),
    ("trace.generated_accesses", "count"),
    ("tracefile.bytes_written", "bytes"),
    ("tracefile.decoded_accesses", "count"),
    ("core.epochs", "count"),
    ("core.distance_changes", "count"),
    ("core.shootdowns", "count"),
    ("sim.cells", "count"),
];

/// Every per-layer metric: name and unit, in output order.
#[must_use]
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        SPAN_LAYERS.iter().map(|n| ((*n).to_owned(), "s")).collect();
    out.extend(COUNTS.iter().map(|&(n, u)| (n.to_owned(), u)));
    for total in ["sim.machine_build_s", "sim.hot_loop_s"] {
        out.push((total.to_owned(), "s"));
        out.extend(SCHEME_SLUGS.iter().map(|s| (format!("{total}.{s}"), "s")));
    }
    for (name, unit) in [
        ("sim.worker_idle_s", "s"),
        ("sim.ns_per_access", "ns"),
        ("sim.cell_s.p50", "s"),
        ("sim.cell_s.tail", "s"),
        ("sim.cell_s.tail_pct", "%"),
        ("sim.cache.mapping_builds", "count"),
        ("sim.cache.trace_builds", "count"),
        ("sim.cache.trace_loads", "count"),
        ("sim.cache.resolved_builds", "count"),
        ("tlb.l1_hit_rate", "ratio"),
        ("tlb.l2_regular_hit_rate", "ratio"),
        ("tlb.coalesced_hit_rate", "ratio"),
        ("pagetable.walks_per_kaccess", "1/kaccess"),
        ("bench.tracing_overhead_s", "s"),
        ("bench.traced_wall_s", "s"),
        ("bench.untraced_wall_s", "s"),
        ("bench.phase_wall_s", "s"),
        ("bench.busy_s", "s"),
        ("bench.threads", "count"),
    ] {
        out.push((name.to_owned(), unit));
    }
    out
}

/// The per-layer values of one traced run, paired with the untraced run
/// made just before it (for the cache counters, the hit rates and the
/// tracing overhead).
#[must_use]
pub fn layer_values(m: &Matrix, t: &Traced, u: &Untraced) -> BTreeMap<String, f64> {
    let l = &t.ledger;
    let busy = |n: &str| l.busy.get(n).copied().unwrap_or(0.0);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for name in SPAN_LAYERS {
        v.insert(name.to_owned(), busy(name));
    }
    for (name, _) in COUNTS {
        v.insert(name.to_owned(), l.counts.get(name).copied().unwrap_or(0.0));
    }
    for total in ["sim.machine_build_s", "sim.hot_loop_s"] {
        let mut sum = 0.0;
        for slug in SCHEME_SLUGS {
            let name = format!("{total}.{slug}");
            let seconds = busy(&name);
            sum += seconds;
            v.insert(name, seconds);
        }
        v.insert(total.to_owned(), sum);
    }
    let total_busy = l.total_busy();
    let threads = m.threads() as f64;
    v.insert("sim.worker_idle_s".into(), threads * t.phase_wall_s - total_busy);
    v.insert("sim.cells".into(), m.cells() as f64);
    v.insert("sim.ns_per_access".into(), v["sim.hot_loop_s"] * 1e9 / m.simulated_accesses() as f64);
    v.insert("sim.cell_s.p50".into(), median(&l.cell_s).unwrap_or(0.0));
    let cell_tail = tail(&l.cell_s);
    v.insert("sim.cell_s.tail".into(), cell_tail.map_or(0.0, |t| t.value));
    v.insert("sim.cell_s.tail_pct".into(), cell_tail.map_or(0.0, |t| f64::from(t.percentile)));
    v.insert("sim.cache.mapping_builds".into(), u.cache.mapping_builds as f64);
    v.insert("sim.cache.trace_builds".into(), u.cache.trace_builds as f64);
    v.insert("sim.cache.trace_loads".into(), u.cache.trace_loads as f64);
    v.insert("sim.cache.resolved_builds".into(), u.cache.resolved_builds as f64);
    let (mut acc, mut l1, mut l2, mut co, mut walks) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for run in u.suites.iter().flatten().flat_map(|s| &s.rows).flat_map(|r| &r.runs) {
        acc += run.stats.accesses;
        l1 += run.stats.l1_hits;
        l2 += run.stats.l2_regular_hits;
        co += run.stats.coalesced_hits;
        walks += run.stats.walks;
    }
    let share = |n: u64| if acc == 0 { 0.0 } else { n as f64 / acc as f64 };
    v.insert("tlb.l1_hit_rate".into(), share(l1));
    v.insert("tlb.l2_regular_hit_rate".into(), share(l2));
    v.insert("tlb.coalesced_hit_rate".into(), share(co));
    v.insert("pagetable.walks_per_kaccess".into(), share(walks) * 1000.0);
    v.insert("bench.tracing_overhead_s".into(), t.wall_s - u.wall_s);
    v.insert("bench.traced_wall_s".into(), t.wall_s);
    v.insert("bench.untraced_wall_s".into(), u.wall_s);
    v.insert("bench.phase_wall_s".into(), t.phase_wall_s);
    v.insert("bench.busy_s".into(), total_busy);
    v.insert("bench.threads".into(), threads);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &serde::Value, key: &str) -> Vec<(String, String)> {
        let Some(serde::Value::Array(items)) = v.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(serde::Value::String(s)) => s.clone(),
                    other => panic!("{key}.{f}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let v = benchmark_json();
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer_catalog().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(names(&v, "per_layer"), layers);
        let Some(serde::Value::Array(workloads)) = v.get("workloads") else { panic!() };
        let listed: Vec<String> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::String(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let catalog = per_layer_catalog();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &catalog {
            assert!(seen.insert(name.clone()), "{name} twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16);
        }
        assert!(catalog.len() <= 128);
    }
}
