//! The `hytlb` binary rejects bad arguments with usage and exit code 2,
//! never with a panic.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_hytlb")).args(args).output().expect("runs hytlb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_anchor_distances_exit_with_usage() {
    for scheme in ["anchor-d3", "anchor-d0", "anchor-d1", "anchor-d131072"] {
        assert_usage_error(&["--scheme", scheme]);
    }
}

#[test]
fn unknown_workload_exits_with_usage() {
    assert_usage_error(&["--workload", "no-such-workload"]);
}
