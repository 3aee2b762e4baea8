//! The benchmark's correctness gate: per-cell invariants, golden digests
//! of every cell's `RunStats`, and exact input-cache counts.
//!
//! Simulated statistics are deterministic, so at the default seed every
//! cell must reproduce its recorded digest bit for bit. At any other seed
//! only the invariants are checked.

use hytlb_sim::experiment::SuiteResult;
use hytlb_sim::matrix::CacheStats;
use hytlb_sim::RunStats;
use std::collections::BTreeMap;

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one cell's statistics (every field, via its JSON form).
#[must_use]
pub fn run_digest(run: &RunStats) -> u64 {
    fnv1a(serde_json::to_string(run).expect("RunStats serializes").as_bytes())
}

/// A cell's coordinates, as `scenario/workload/scheme` labels.
pub type CellKey = String;

/// Every cell of a matrix result with its digest, in matrix order.
#[must_use]
pub fn cell_digests(suites: &[SuiteResult]) -> Vec<(CellKey, u64)> {
    let mut out = Vec::new();
    for suite in suites {
        for row in &suite.rows {
            for (scheme, run) in suite.schemes.iter().zip(&row.runs) {
                let key = format!("{}/{}/{scheme}", suite.scenario.label(), row.workload.label());
                out.push((key, run_digest(run)));
            }
        }
    }
    out
}

/// A recorded set of digests: one per cell plus one for the rendered
/// report text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    /// Cell key → digest.
    pub cells: BTreeMap<CellKey, u64>,
    /// Digest of the rendered figure/table text.
    pub render: Option<u64>,
}

impl Golden {
    /// Parses the text form written by [`Golden::to_text`]. Lines starting
    /// with `#` are comments.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("golden line {}: {line:?}", n + 1);
            match fields.as_slice() {
                ["cell", key, digest] => {
                    let d = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
                    golden.cells.insert((*key).to_owned(), d);
                }
                ["render", digest] => {
                    golden.render = Some(u64::from_str_radix(digest, 16).map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(golden)
    }

    /// The text form: a header comment, one `cell` line per cell in matrix
    /// order, then the `render` line.
    #[must_use]
    pub fn to_text(header: &str, cells: &[(CellKey, u64)], render: u64) -> String {
        let mut out = format!("# {header}\n");
        for (key, digest) in cells {
            out.push_str(&format!("cell {key} {digest:016x}\n"));
        }
        out.push_str(&format!("render {render:016x}\n"));
        out
    }
}

/// The outcome of checking one matrix result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed an invariant or disagreed with the golden record.
    pub failed: u64,
    /// Human-readable description of every problem found (cell failures
    /// and matrix-level ones such as wrong cache counts).
    pub problems: Vec<String>,
}

impl Verdict {
    /// True when nothing at all went wrong.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Adds another verdict's counts and problems.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Invariants every cell must satisfy: it simulated exactly `accesses`
/// accesses, never faulted, and every access resolved by exactly one of
/// L1, regular L2, coalesced entry or page walk.
#[must_use]
pub fn invariant_problem(run: &RunStats, accesses: u64) -> Option<String> {
    let s = &run.stats;
    if run.accesses != accesses || s.accesses != accesses {
        return Some(format!(
            "simulated {} / {} accesses, expected {accesses}",
            run.accesses, s.accesses
        ));
    }
    if s.faults != 0 {
        return Some(format!("{} faults", s.faults));
    }
    let resolved = s.l1_hits + s.l2_regular_hits + s.coalesced_hits + s.walks;
    if resolved != accesses {
        return Some(format!("L1 + L2 + coalesced + walks = {resolved}, expected {accesses}"));
    }
    None
}

/// Checks a matrix result: invariants on every cell, and, when `golden`
/// is given, every cell's digest and the rendered text's digest.
#[must_use]
pub fn check_suites(
    suites: &[SuiteResult],
    accesses: u64,
    golden: Option<&Golden>,
    render_digest: u64,
) -> Verdict {
    let mut verdict = Verdict::default();
    let digests = cell_digests(suites);
    let runs = suites.iter().flat_map(|s| s.rows.iter().flat_map(|r| r.runs.iter()));
    for ((key, digest), run) in digests.iter().zip(runs) {
        verdict.attempted += 1;
        let problem = invariant_problem(run, accesses).or_else(|| {
            let expected = golden?.cells.get(key);
            (expected != Some(digest)).then(|| match expected {
                Some(e) => format!("digest {digest:016x} != golden {e:016x}"),
                None => "cell missing from the golden record".to_owned(),
            })
        });
        if let Some(p) = problem {
            verdict.failed += 1;
            verdict.problems.push(format!("{key}: {p}"));
        }
    }
    if let Some(g) = golden {
        if g.cells.len() != digests.len() {
            verdict.problems.push(format!(
                "{} cells simulated, golden record has {}",
                digests.len(),
                g.cells.len()
            ));
        }
        if g.render != Some(render_digest) {
            verdict.problems.push(format!("rendered report digest {render_digest:016x} != golden"));
        }
    }
    verdict
}

/// Checks the input cache's build counters against their exact expected
/// values (each input built or loaded exactly once).
#[must_use]
pub fn check_cache(actual: CacheStats, expected: CacheStats) -> Option<String> {
    (actual != expected).then(|| format!("cache counts {actual:?}, expected {expected:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_sim::matrix::try_run_matrix;
    use hytlb_sim::{PaperConfig, SchemeKind};
    use hytlb_trace::WorkloadKind;

    fn small_suites() -> (Vec<SuiteResult>, PaperConfig) {
        let config = PaperConfig {
            accesses: 5_000,
            footprint_shift: 6,
            threads: Some(2),
            ..Default::default()
        };
        let suites = try_run_matrix(
            &[Scenario::LowContiguity],
            &[WorkloadKind::Gups, WorkloadKind::Mcf],
            &[SchemeKind::Baseline, SchemeKind::AnchorDynamic],
            &config,
        )
        .unwrap();
        (suites, config)
    }

    #[test]
    fn golden_round_trips_and_accepts_its_own_run() {
        let (suites, config) = small_suites();
        let digests = cell_digests(&suites);
        let text = Golden::to_text("test", &digests, 7);
        let golden = Golden::parse(&text).unwrap();
        assert_eq!(golden.cells.len(), 4);
        let v = check_suites(&suites, config.accesses, Some(&golden), 7);
        assert!(v.is_correct(), "{v:?}");
        assert_eq!(v.attempted, 4);
    }

    #[test]
    fn a_perturbed_cell_fails_the_digest_check() {
        let (mut suites, config) = small_suites();
        let golden = Golden::parse(&Golden::to_text("test", &cell_digests(&suites), 7)).unwrap();
        // A stats change that keeps every invariant: move one L1 hit to L2.
        let stats = &mut suites[0].rows[1].runs[0].stats;
        stats.l1_hits -= 1;
        stats.l2_regular_hits += 1;
        let v = check_suites(&suites, config.accesses, Some(&golden), 7);
        assert_eq!((v.attempted, v.failed), (4, 1), "{v:?}");
        assert!(v.problems[0].starts_with("low/mcf/Base: digest"), "{v:?}");
        // Without a golden record only invariants are checked.
        assert!(check_suites(&suites, config.accesses, None, 0).is_correct());
    }

    #[test]
    fn invariants_catch_faults_and_lost_accesses() {
        let (mut suites, config) = small_suites();
        suites[0].rows[0].runs[1].stats.walks += 1;
        suites[0].rows[1].runs[1].stats.faults = 1;
        let v = check_suites(&suites, config.accesses, None, 0);
        assert_eq!(v.failed, 2, "{v:?}");
        let rendered_wrong = check_suites(
            &small_suites().0,
            config.accesses,
            Some(&Golden { render: Some(1), ..Golden::default() }),
            2,
        );
        assert!(!rendered_wrong.is_correct());
    }
}
