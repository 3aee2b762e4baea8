//! The golden digests must not depend on the worker count: the same
//! matrix at 1 and 2 threads gives identical cell and report digests.

use hytlb_mem::Scenario;
use hytlb_perfbench::check::cell_digests;
use hytlb_perfbench::workload::Workload;
use hytlb_sim::matrix::try_run_matrix_with;
use hytlb_sim::MatrixCache;
use hytlb_trace::WorkloadKind;

#[test]
fn digests_are_identical_at_one_and_two_threads() {
    let digests = |threads: usize| {
        // The figure matrix's scheme columns (paper set plus sweep) over a
        // small slice of its scenarios and programs.
        let mut m = Workload::FiguresQuick.matrix(7, threads);
        m.config.accesses = 20_000;
        m.scenarios = vec![Scenario::LowContiguity, Scenario::DemandPaging];
        m.workloads = vec![WorkloadKind::Gups, WorkloadKind::Omnetpp, WorkloadKind::Mcf];
        let suites = try_run_matrix_with(
            &MatrixCache::new(),
            &m.scenarios,
            &m.workloads,
            &m.kinds,
            &m.config,
        )
        .expect("matrix runs");
        let report = m.render(&suites).expect("report renders");
        (cell_digests(&suites), report)
    };
    let (one, report_one) = digests(1);
    let (two, report_two) = digests(2);
    assert_eq!(one.len(), 2 * 3 * 11);
    assert_eq!(one, two);
    assert_eq!(report_one, report_two);
}

#[test]
fn untraced_and_traced_runs_agree_and_pass_their_checks() {
    let scratch = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let mut m = Workload::WalkBound.matrix(11, 2);
    m.config.accesses = 30_000;
    m.config.epoch_instructions = 30_000; // several epochs per cell
    m.workloads = vec![WorkloadKind::Mcf, WorkloadKind::Tigr];
    let untraced = m.run_untraced(&scratch, None);
    assert!(untraced.verdict.is_correct(), "{:?}", untraced.verdict);
    assert_eq!(untraced.cache, m.expected_cache());
    let traced = m.run_traced(&scratch, None);
    assert!(traced.verdict.is_correct(), "{:?}", traced.verdict);
    assert_eq!(traced.suites, untraced.suites);
    let l = &traced.ledger;
    assert_eq!(l.counts["core.epochs"], (2 * 2 * 30_000 / 10_000) as f64);
    assert_eq!(l.counts["tracefile.decoded_accesses"], 60_000.0);
    assert_eq!(l.cell_s.len(), m.cells());
    // Busy time never exceeds what the workers had.
    assert!(l.total_busy() <= traced.phase_wall_s * m.threads() as f64 + 1e-6);
    std::fs::remove_dir_all(&scratch).ok();
    assert!(!scratch.join("corpus").exists());
}
