//! A committed `HYTLBTR1` fixture keeps the legacy path honest: if the
//! v1 reader or `convert` regresses, these tests fail against real
//! bytes, not bytes produced by the same code under test.
//!
//! The fixture is gups, footprint 8192 pages, seed 7, 2000 accesses. It
//! was written by the v1 writer `hytlb-trace` used to carry, which has
//! since been removed: v1 is frozen, `LegacyReader` is the only v1 code
//! left, and the fixture is never regenerated.

use hytlb_trace::WorkloadKind;
use hytlb_tracefile::{convert, verify, LegacyReader, TraceReader};
use std::path::PathBuf;

const WORKLOAD: WorkloadKind = WorkloadKind::Gups;
const FOOTPRINT_PAGES: u64 = 8192;
const SEED: u64 = 7;
const ACCESSES: usize = 2000;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_gups.trace")
}

fn expected_addresses() -> Vec<u64> {
    WORKLOAD.generator(FOOTPRINT_PAGES, SEED).take(ACCESSES).collect()
}

#[test]
fn fixture_streams_through_the_legacy_reader() {
    let bytes = std::fs::read(fixture_path()).expect("committed fixture present");
    let reader = LegacyReader::new(&bytes[..]).unwrap();
    assert_eq!(reader.workload(), "gups");
    assert_eq!(reader.footprint_pages(), FOOTPRINT_PAGES);
    assert_eq!(reader.seed(), SEED);
    assert_eq!(reader.declared_accesses(), ACCESSES as u64);
    let streamed: Result<Vec<u64>, _> = reader.collect();
    assert_eq!(streamed.unwrap(), expected_addresses());
}

#[test]
fn fixture_converts_to_v2_losslessly() {
    let bytes = std::fs::read(fixture_path()).expect("committed fixture present");
    let mut v2 = Vec::new();
    let summary = convert(&bytes[..], &mut v2, None).unwrap();
    assert_eq!(summary.written.accesses, ACCESSES as u64);
    assert!(
        summary.written.compression_ratio() > 1.8,
        "gups at 8192 pages should beat 1.8x, got {:.2}x",
        summary.written.compression_ratio()
    );

    let report = verify(&v2[..]).unwrap();
    assert_eq!(report.accesses, ACCESSES as u64);

    let reader = TraceReader::new(&v2[..]).unwrap();
    assert_eq!(reader.meta().workload, "gups");
    assert_eq!(reader.meta().footprint_pages, FOOTPRINT_PAGES);
    assert_eq!(reader.meta().seed, SEED);
    let replayed: Result<Vec<u64>, _> = reader.addresses().collect();
    assert_eq!(replayed.unwrap(), expected_addresses());
}
