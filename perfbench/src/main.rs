//! `hytlb-perfbench`: runs one benchmark workload for a fixed time and
//! prints its metrics.
//!
//! ```text
//! hytlb-perfbench --workload <figures-quick|paper-footprint|walk-bound>
//!                 [--seed N] [--seconds N] [--trace 0|1] [--print-golden]
//! ```
//!
//! Untraced (`--trace 0`), every run of the workload is timed end to end
//! and the medians of `setup_s`, `wall_s`, `sim_maccesses_per_s` and the
//! per-run peak RSS are reported. Traced (`--trace 1`), untraced
//! and traced runs alternate and the medians of the per-layer ledger are
//! reported. Runs repeat until `--seconds` would be exceeded (at least
//! one). Every run's cells are checked; the last line of standard output
//! is one JSON object `{correct, attempted, failed, metrics}` and the exit
//! code is non-zero if any check failed. `--print-golden` runs once and
//! prints the golden digest file for the seed instead.

use hytlb_perfbench::check::Verdict;
use hytlb_perfbench::ledger::Stopwatch;
use hytlb_perfbench::metrics::{layer_values, per_layer_catalog, END_TO_END};
use hytlb_perfbench::stats::{median, quartiles};
use hytlb_perfbench::workload::{Matrix, TempDir, Workload, DEFAULT_SEED};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hytlb-perfbench --workload <figures-quick|paper-footprint|walk-bound> \
                     [--seed N] [--seconds N] [--trace 0|1] [--print-golden]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut print_golden) =
        (None, DEFAULT_SEED, 30.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--print-golden" => print_golden = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced, print_golden })
}

/// Restarts this process's peak-RSS counter (`VmHWM`) at its current
/// RSS, so each run's peak is measured on its own.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MiB (`VmHWM`), since the
/// last [`reset_peak_rss`].
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit being measured, when the benchmark runs inside a git
/// checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let matrix = args.workload.matrix(args.seed, threads);
    // Scratch space for the temporary trace corpus, inside the working
    // directory and removed on exit.
    let scratch = TempDir(PathBuf::from(format!(".perfbench-tmp-{}", std::process::id())));
    let golden = match matrix.golden() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("golden record unreadable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.print_golden {
        let run = matrix.run_untraced(&scratch.0, None);
        return match run.suites.as_deref().map(|s| matrix.golden_file(s)) {
            Some(Ok(text)) if run.verdict.is_correct() => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("cannot record golden digests: {:?}", run.verdict.problems);
                ExitCode::FAILURE
            }
        };
    }

    let clock = Stopwatch::start();
    let mut verdict = Verdict::default();
    let mut e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0usize;
    loop {
        let measure_untraced = || {
            reset_peak_rss();
            let untraced = matrix.run_untraced(&scratch.0, golden.as_ref());
            (untraced, peak_rss_mib().unwrap_or(f64::NAN))
        };
        // Traced runs alternate which side goes first, so that neither
        // side always inherits the other's warm allocator.
        let ((untraced, rss), traced) = match (args.traced, runs % 2) {
            (false, _) => (measure_untraced(), None),
            (true, 0) => {
                let u = measure_untraced();
                (u, Some(matrix.run_traced(&scratch.0, golden.as_ref())))
            }
            (true, _) => {
                let t = matrix.run_traced(&scratch.0, golden.as_ref());
                (measure_untraced(), Some(t))
            }
        };
        e2e.entry("peak_rss_mib").or_default().push(rss);
        let work = untraced.wall_s - untraced.setup_s;
        e2e.entry("setup_s").or_default().push(untraced.setup_s);
        e2e.entry("wall_s").or_default().push(untraced.wall_s);
        e2e.entry("sim_maccesses_per_s")
            .or_default()
            .push(matrix.simulated_accesses() as f64 / work / 1e6);
        if let Some(traced) = traced {
            for (name, value) in layer_values(&matrix, &traced, &untraced) {
                layers.entry(name).or_default().push(value);
            }
            if traced.suites.is_some() && traced.suites != untraced.suites {
                verdict.problems.push("traced cells differ from the untraced run".to_owned());
            }
            verdict.absorb(traced.verdict);
        }
        runs += 1;
        eprintln!(
            "run {runs}: setup {:.4} s, wall {:.4} s, peak rss {:.1} MiB, {:.1} s elapsed",
            untraced.setup_s,
            untraced.wall_s,
            e2e["peak_rss_mib"].last().copied().unwrap_or(f64::NAN),
            clock.seconds()
        );
        verdict.absorb(untraced.verdict);
        let per_run = clock.seconds() / runs as f64;
        if !verdict.is_correct() || clock.seconds() + per_run > args.seconds {
            break;
        }
    }

    print_summary(&args, &matrix, &e2e, &layers, &verdict, runs);
    let samples: Vec<(String, Value)> = if args.traced {
        layers.iter().map(|(k, v)| (k.clone(), Value::UInt(v.len() as u64))).collect()
    } else {
        e2e.iter().map(|(k, v)| ((*k).to_owned(), Value::UInt(v.len() as u64))).collect()
    };
    let manifest = Value::Object(vec![
        ("benchmark".into(), Value::String("hytlb-perfbench".into())),
        ("workload".into(), Value::String(args.workload.name().into())),
        ("commit".into(), Value::String(commit())),
        ("nproc".into(), Value::UInt(threads as u64)),
        ("threads".into(), Value::UInt(matrix.threads() as u64)),
        (
            "config_fingerprint".into(),
            Value::String(format!("{:016x}", matrix.config.fingerprint())),
        ),
        ("seed".into(), Value::UInt(args.seed)),
        ("traced".into(), Value::Bool(args.traced)),
        ("golden_checked".into(), Value::Bool(golden.is_some())),
        ("cells_per_run".into(), Value::UInt(matrix.cells() as u64)),
        ("accesses_per_cell".into(), Value::UInt(matrix.config.accesses)),
        ("runs".into(), Value::UInt(runs as u64)),
        ("samples".into(), Value::Object(samples)),
    ]);
    println!("manifest: {}", serde_json::to_string(&manifest).expect("manifest serializes"));

    let metrics: Vec<(String, Value)> = if args.traced {
        per_layer_catalog()
            .into_iter()
            .map(|(name, unit)| {
                let value = median(layers.get(&name).map_or(&[][..], Vec::as_slice));
                (name, metric(value.unwrap_or(f64::NAN), unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (name.to_owned(), metric(median(&e2e[name]).unwrap_or(f64::NAN), unit))
            })
            .collect()
    };
    let correct = verdict.is_correct();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(verdict.attempted.max(1))),
        ("failed".into(), Value::UInt(verdict.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::String(unit.into())),
    ])
}

fn spread(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, _, q3]) => format!("median of {} runs, q1 {q1:.4}, q3 {q3:.4}", xs.len()),
        None => format!("{} run", xs.len()),
    }
}

fn print_summary(
    args: &Args,
    matrix: &Matrix,
    e2e: &BTreeMap<&str, Vec<f64>>,
    layers: &BTreeMap<String, Vec<f64>>,
    verdict: &Verdict,
    runs: usize,
) {
    println!(
        "hytlb-perfbench: workload {}, seed {}, {} threads, {}, {runs} runs of {} cells x {} accesses",
        args.workload.name(),
        args.seed,
        matrix.threads(),
        if args.traced { "traced" } else { "untraced" },
        matrix.cells(),
        matrix.config.accesses,
    );
    for (name, unit) in END_TO_END {
        let xs = &e2e[name];
        let m = median(xs).unwrap_or(f64::NAN);
        println!("  {name:<22} {m:>12.4} {unit:<10} {}", spread(xs));
    }
    let rate = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    println!(
        "  {:<22} {rate:>12.4} {:<10} ({} of {} cells)",
        "cell_failure_rate", "ratio", verdict.failed, verdict.attempted
    );
    for problem in verdict.problems.iter().take(20) {
        println!("  FAILED: {problem}");
    }
    if !args.traced {
        return;
    }
    println!("per-layer ledger (medians over {runs} traced runs):");
    for (name, unit) in per_layer_catalog() {
        let xs = layers.get(&name).map_or(&[][..], Vec::as_slice);
        println!("  {name:<32} {:>14.6} {unit}", median(xs).unwrap_or(f64::NAN));
    }
    let sum = |n: &str| layers.get(n).map_or(0.0, |xs| xs.iter().sum::<f64>());
    println!(
        "  accounting over all traced runs: busy {:.4} s + idle {:.4} s = {} threads x {:.4} s \
         phase wall",
        sum("bench.busy_s"),
        sum("sim.worker_idle_s"),
        matrix.threads(),
        sum("bench.phase_wall_s"),
    );
    println!(
        "  cell tail: p{:.0} of {} cells (the highest percentile with >= 10 cells beyond it)",
        layers.get("sim.cell_s.tail_pct").and_then(|xs| median(xs)).unwrap_or(f64::NAN),
        matrix.cells()
    );
}
