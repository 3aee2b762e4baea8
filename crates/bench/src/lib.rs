//! Shared plumbing for the figure/table regenerator binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--quick`   — tiny footprints and traces (seconds; shapes still hold)
//! * `--paper`   — full scale (the default is a middle ground)
//! * `--seed N`  — override the master seed
//! * `--accesses N` — override the trace length
//!
//! Output goes to stdout and, as both text and JSON, into `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hytlb_sim::PaperConfig;
use std::fs;
use std::path::PathBuf;

/// The flags every regenerator accepts.
const USAGE: &str = "flags: --quick --paper --seed N --accesses N";

/// Parses the common CLI flags into a [`PaperConfig`]. A malformed
/// argument list prints the problem and the usage line to stderr and
/// exits with status 2.
#[must_use]
pub fn config_from_args() -> PaperConfig {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("error: {problem}\nusage: {USAGE}");
        std::process::exit(2)
    })
}

/// The argument parser behind [`config_from_args`]: returns what is
/// wrong with the arguments instead of exiting.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<PaperConfig, String> {
    let mut config =
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut integer = |flag: &str| {
            args.next().and_then(|v| v.parse().ok()).ok_or(format!("{flag} needs an integer"))
        };
        match arg.as_str() {
            "--quick" => {
                config.accesses = 200_000;
                config.footprint_shift = 4;
            }
            "--paper" => {
                config.accesses = 2_000_000;
                config.footprint_shift = 0;
            }
            "--seed" => config.seed = integer("--seed")?,
            "--accesses" => config.accesses = integer("--accesses")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

/// Prints a result and archives it under `results/<name>.txt` and
/// `results/<name>.json` (best-effort; failures to write are reported but
/// not fatal, so experiments still print on read-only checkouts).
pub fn emit(name: &str, text: &str, json: &str) {
    println!("{text}");
    // `cargo bench` runs with the package directory as CWD while `cargo
    // run` binaries inherit the invocation directory; anchor on the
    // workspace root so both land in the same `results/`.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: cannot create results/: {e}");
        return;
    }
    for (ext, body) in [("txt", text), ("json", json)] {
        let path = dir.join(format!("{name}.{ext}"));
        if let Err(e) = fs::write(&path, body) {
            eprintln!("note: cannot write {}: {e}", path.display());
        }
    }
}

/// Prints the experiment banner with the active configuration.
pub fn banner(experiment: &str, config: &PaperConfig) {
    println!(
        "== {experiment} ==\n   accesses/run: {}, footprint shift: {}, seed: {}\n",
        config.accesses, config.footprint_shift, config.seed
    );
}

use hytlb_mem::Scenario;
use hytlb_sim::experiment::SuiteResult;
use hytlb_sim::matrix::{try_run_matrix_with_static_ideal, MatrixCache};
use hytlb_sim::{SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

/// The static-ideal candidate sweep used by the figure binaries: one good
/// candidate per contiguity regime (exhaustive sweeps are available through
/// `hytlb_sim::matrix::try_run_matrix_with_static_ideal` with a custom
/// candidate list).
#[must_use]
pub fn figure_static_sweep() -> Vec<u64> {
    vec![4, 32, 512, 4096, 65_536]
}

/// Runs the per-benchmark figure experiment (Figures 7/8/10/11): the six
/// paper schemes plus a `Static Ideal` column, for every workload under one
/// scenario. Returns a suite whose last column is `Static Ideal`.
pub fn try_per_benchmark_suite(
    scenario: Scenario,
    config: &PaperConfig,
) -> Result<SuiteResult, SimError> {
    try_per_benchmark_suites(&[scenario], config)?.pop().ok_or(SimError::NoSuites)
}

/// [`try_per_benchmark_suite`] over several scenarios at once (Figure 9):
/// the whole scenario × workload × scheme × sweep matrix runs on one
/// worker pool, and each workload's mapping and trace are generated
/// exactly once per scenario — not once per scheme or figure.
pub fn try_per_benchmark_suites(
    scenarios: &[Scenario],
    config: &PaperConfig,
) -> Result<Vec<SuiteResult>, SimError> {
    try_run_matrix_with_static_ideal(
        &MatrixCache::new(),
        scenarios,
        &WorkloadKind::all(),
        &SchemeKind::paper_set(),
        &figure_static_sweep(),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PaperConfig, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn default_config_is_mid_scale() {
        let c = parse(&[]).unwrap();
        assert_eq!((c.accesses, c.footprint_shift), (1_000_000, 2));
        assert!(c.footprint_for(hytlb_trace::WorkloadKind::Gups) > 4096);
    }

    #[test]
    fn flags_override_the_defaults() {
        let c = parse(&["--quick", "--seed", "9", "--accesses", "1234"]).unwrap();
        assert_eq!((c.accesses, c.footprint_shift, c.seed), (1234, 4, 9));
    }
}
