//! `perfbench-compare`: per-workload verdicts for a parent commit's runs
//! against a change's runs.
//!
//! ```text
//! perfbench-compare [--benchmark BENCHMARK.json] --parent RUN... --change RUN...
//! ```
//!
//! Each `RUN` is a file holding the standard output of one untraced
//! `hytlb-perfbench` run (its `manifest:` line names the workload; its
//! last line holds the metrics). Runs pair up in the order given, per
//! workload, so list them in the order they were made, alternating which
//! side ran first. For every workload and end-to-end metric of
//! `BENCHMARK.json` the tool prints both sides' medians and quartiles, how
//! many pairs the change won, and a verdict (see
//! `hytlb_perfbench::compare`). Exits non-zero when a verdict is `worse`
//! or a run reported `correct: false`.

use hytlb_perfbench::compare::{compare, Better, Verdict};
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench-compare [--benchmark BENCHMARK.json] --parent RUN... --change RUN...";

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct MetricDef {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

/// One run's workload, correctness and metric values.
struct Run {
    workload: String,
    correct: bool,
    values: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn string(v: Option<&Value>) -> Option<String> {
    match v {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn load_defs(path: &str) -> Result<Vec<MetricDef>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bench: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(items)) = bench.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    items
        .iter()
        .map(|m| {
            let bad = || format!("{path}: malformed end_to_end entry");
            Ok(MetricDef {
                name: string(m.get("name")).ok_or_else(bad)?,
                unit: string(m.get("unit")).ok_or_else(bad)?,
                better: string(m.get("better")).and_then(|b| Better::parse(&b)).ok_or_else(bad)?,
                bound: m.get("bound").and_then(number).ok_or_else(bad)?,
            })
        })
        .collect()
}

fn load_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = text
        .lines()
        .find_map(|l| l.strip_prefix("manifest: "))
        .ok_or_else(|| format!("{path}: no manifest line"))?;
    let manifest: Value = serde_json::from_str(manifest).map_err(|e| format!("{path}: {e}"))?;
    if manifest.get("traced") == Some(&Value::Bool(true)) {
        return Err(format!("{path}: a traced run; compare untraced runs"));
    }
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{path}: {e}"))?;
    let mut values = BTreeMap::new();
    if let Some(Value::Object(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(number) {
                values.insert(name.clone(), v);
            }
        }
    }
    Ok(Run {
        workload: string(manifest.get("workload"))
            .ok_or_else(|| format!("{path}: manifest names no workload"))?,
        correct: result.get("correct") == Some(&Value::Bool(true)),
        values,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; `Ok(false)` when something got worse or a run
/// was incorrect.
fn run() -> Result<bool, String> {
    let (mut benchmark, mut parent, mut change) = ("BENCHMARK.json".to_owned(), vec![], vec![]);
    let mut side: Option<&mut Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = args.next().ok_or("--benchmark needs a path")?,
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            _ => side.as_mut().ok_or(format!("{arg}: give --parent or --change first"))?.push(arg),
        }
    }
    let defs = load_defs(&benchmark)?;
    let load = |paths: &[String]| -> Result<Vec<Run>, String> {
        paths.iter().map(|p| load_run(p)).collect()
    };
    let (parent, change) = (load(&parent)?, load(&change)?);
    if parent.is_empty() || change.is_empty() {
        return Err("need at least one run on each side".to_owned());
    }
    let mut ok = true;
    for (label, runs) in [("parent", &parent), ("change", &change)] {
        let bad = runs.iter().filter(|r| !r.correct).count();
        if bad > 0 {
            println!("{label}: {bad} run(s) reported correct: false");
            ok = false;
        }
    }
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<16} {:<20} {:<10} {:>36} {:>36} {:>6}  verdict (bound)",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in workloads {
        let values = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.values.get(name).copied())
                .collect()
        };
        for def in &defs {
            let (p, c) = (values(&parent, &def.name), values(&change, &def.name));
            let Some(cmp) = compare(&p, &c, def.better, def.bound) else {
                println!("{workload:<16} {:<20} no runs on one side", def.name);
                continue;
            };
            let fmt = |s: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", s[1], s[0], s[2]);
            println!(
                "{workload:<16} {:<20} {:<10} {:>36} {:>36} {:>6}  {} ({:.0}%)",
                def.name,
                def.unit,
                fmt(cmp.parent),
                fmt(cmp.change),
                format!("{}/{}", cmp.wins, cmp.pairs),
                cmp.verdict.name(),
                def.bound * 100.0
            );
            ok &= cmp.verdict != Verdict::Worse;
        }
    }
    Ok(ok)
}
