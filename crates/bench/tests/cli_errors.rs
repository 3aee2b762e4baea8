//! The figure regenerators reject bad flags with a usage line and exit
//! code 2, never with a panic — before any simulation starts.

use std::process::Command;

fn assert_usage_error(args: &[&str], problem: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig08_medium"))
        .args(args)
        .output()
        .expect("runs fig08_medium");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(problem), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed results");
}

#[test]
fn unknown_flag_exits_with_usage() {
    assert_usage_error(&["--bogus"], "unknown flag --bogus");
}

#[test]
fn non_integer_seed_exits_with_usage() {
    assert_usage_error(&["--seed", "x"], "--seed needs an integer");
}

#[test]
fn missing_accesses_value_exits_with_usage() {
    assert_usage_error(&["--quick", "--accesses"], "--accesses needs an integer");
}
