//! `hytlb-tracectl convert` end to end: a failed conversion exits 1 and
//! leaves no output file behind.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_gups.trace");
    std::fs::read(path).expect("committed fixture present")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hytlb_tracectl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `convert input output`, returning the exit code and stderr.
fn convert(input: &Path, output: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hytlb-tracectl"))
        .arg("convert")
        .arg(input)
        .arg(output)
        .output()
        .expect("tracectl runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn failed_convert_exits_1_and_leaves_no_output() {
    let dir = scratch_dir("convert");
    let bytes = fixture();
    let legacy = dir.join("gups.trace");
    std::fs::write(&legacy, &bytes).unwrap();
    let v2 = dir.join("gups.htr2");
    let (code, stderr) = convert(&legacy, &v2);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(v2.exists());
    let truncated = dir.join("truncated.trace");
    std::fs::write(&truncated, &bytes[..bytes.len() - 96]).unwrap();

    for (input, message) in
        [(&truncated, "payload ends after 1988 of 2000"), (&v2, "this reader reads version 1")]
    {
        let output = dir.join("out.htr2");
        let (code, stderr) = convert(input, &output);
        assert_eq!(code, Some(1), "{}: {stderr}", input.display());
        assert!(stderr.contains(message), "{}: {stderr}", input.display());
        assert!(!output.exists(), "{} left a partial {}", input.display(), output.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
