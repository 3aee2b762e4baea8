//! Golden digests of every scheme's simulated numbers.
//!
//! Each row runs one scheme shape over a fixed `low` cell and a fixed
//! `demand` cell and pins an FNV-1a digest of the serialized [`RunStats`].
//! The epoch is short (3,000 accesses) so the dynamic anchor scheme's
//! `on_epoch` fires many times, and a flush period of 7,777 accesses makes
//! every scheme-private array flush mid-run. A refactor of any translation
//! path that changes a single counter, cycle or anchor distance trips the
//! row that covers it.
//!
//! The constants were recorded once and must never be edited to make a
//! change pass: a mismatch means the change altered simulated behaviour.

use hytlb::core::{AnchorConfig, AnchorScheme, FillPolicy};
use hytlb::mem::{AddressSpaceMap, Scenario};
use hytlb::schemes::{AnchorIndexing, ColtScheme, RmmScheme, TranslationScheme};
use hytlb::sim::experiment::{mapping_for, trace_for};
use hytlb::sim::report::try_to_json;
use hytlb::sim::{Machine, PaperConfig, RunStats, SchemeKind};
use hytlb::trace::WorkloadKind;
use std::sync::Arc;

/// Accesses between TLB flushes: coprime with the 4,096-access batch.
const FLUSH_PERIOD: u64 = 7_777;

/// The two cells every row runs: (workload, scenario).
const CELLS: [(WorkloadKind, Scenario); 2] = [
    (WorkloadKind::Canneal, Scenario::LowContiguity),
    (WorkloadKind::Gups, Scenario::DemandPaging),
];

/// Row label → digests for the `low` and `demand` cells.
const GOLDEN: [(&str, [u64; 2]); 15] = [
    ("Base", [0x28a18accae91da8e, 0xa1b11312a526d719]),
    ("THP", [0x41e3e9e30defe9b3, 0xc390e189887e796c]),
    ("THP-1G", [0x6a1a57c2d53036b0, 0x414d7cea02e0c303]),
    ("Cluster", [0x65f01d2648a57111, 0x56175f794a8981ed]),
    ("Cluster-2MB", [0xf3e8e368fa6176ad, 0xc31a9f22d03dc463]),
    ("CoLT", [0x65c714d2dd73dc3d, 0x547f8d78892611db]),
    ("RMM", [0xe30ac95954ddd4fb, 0x7ac4fbe8570b446e]),
    ("Dynamic", [0xceebbe79be8a97c6, 0xa9991db0d2a6b2cf]),
    ("Anchor-d16", [0xba7cb51202c1b59a, 0xfe1cea983f35e5f2]),
    ("Anchor-d4096", [0xd567dad96474549b, 0x41bba2ab45fb2213]),
    ("Anchor-region4", [0xa5403c123cbb5d46, 0xe098f179cdd80c84]),
    ("CoLT-FA32", [0xffff5e58a4f39ebc, 0xa9119e9c66b51396]),
    ("RMM-ranges8", [0xe30ac95954ddd4fb, 0x26e3685a2e1756ac]),
    ("Dynamic-always-regular", [0x373c48cb414a6035, 0x34f559478a05c052]),
    ("Dynamic-naive-indexing", [0x650bb00e79c250d2, 0x58574648307cf5ed]),
];

fn config() -> PaperConfig {
    PaperConfig {
        accesses: 30_000,
        footprint_shift: 3,
        epoch_instructions: 9_000,
        ..PaperConfig::default()
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A scheme shape: either a registry kind or a custom-configured scheme.
enum Shape {
    Kind(SchemeKind),
    Custom(fn(&Arc<AddressSpaceMap>, &PaperConfig) -> Box<dyn TranslationScheme>),
}

fn boxed_anchor(map: &Arc<AddressSpaceMap>, config: AnchorConfig) -> Box<dyn TranslationScheme> {
    Box::new(AnchorScheme::new(Arc::clone(map), config).into_mmu())
}

fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("Base", Shape::Kind(SchemeKind::Baseline)),
        ("THP", Shape::Kind(SchemeKind::Thp)),
        ("THP-1G", Shape::Kind(SchemeKind::Thp1G)),
        ("Cluster", Shape::Kind(SchemeKind::Cluster)),
        ("Cluster-2MB", Shape::Kind(SchemeKind::Cluster2Mb)),
        ("CoLT", Shape::Kind(SchemeKind::Colt)),
        ("RMM", Shape::Kind(SchemeKind::Rmm)),
        ("Dynamic", Shape::Kind(SchemeKind::AnchorDynamic)),
        ("Anchor-d16", Shape::Kind(SchemeKind::AnchorStatic(16))),
        ("Anchor-d4096", Shape::Kind(SchemeKind::AnchorStatic(4096))),
        ("Anchor-region4", Shape::Kind(SchemeKind::AnchorMultiRegion(4))),
        (
            "CoLT-FA32",
            Shape::Custom(|map, c| {
                Box::new(ColtScheme::with_fully_associative(Arc::clone(map), c.latency, 32))
            }),
        ),
        (
            "RMM-ranges8",
            Shape::Custom(|map, c| {
                Box::new(RmmScheme::with_range_entries(Arc::clone(map), c.latency, 8))
            }),
        ),
        (
            "Dynamic-always-regular",
            Shape::Custom(|map, c| {
                let cfg = AnchorConfig {
                    fill: FillPolicy::AlwaysRegular,
                    latency: c.latency,
                    ..AnchorConfig::dynamic()
                };
                boxed_anchor(map, cfg)
            }),
        ),
        (
            "Dynamic-naive-indexing",
            Shape::Custom(|map, c| {
                let cfg = AnchorConfig {
                    indexing: AnchorIndexing::NaiveLowBits,
                    latency: c.latency,
                    ..AnchorConfig::dynamic()
                };
                boxed_anchor(map, cfg)
            }),
        ),
    ]
}

fn run(shape: &Shape, map: &Arc<AddressSpaceMap>, trace: &[u64], config: &PaperConfig) -> RunStats {
    let mut machine = match shape {
        Shape::Kind(kind) => Machine::for_scheme(*kind, map, config),
        Shape::Custom(build) => Machine::from_scheme(build(map, config), map, config),
    };
    let resolved = map.page_index().resolve(trace);
    machine.try_run_resolved_with_flush_period(&resolved, FLUSH_PERIOD).expect("mapped trace")
}

#[test]
fn every_scheme_shape_matches_its_golden_digest() {
    let config = config();
    let cells: Vec<_> =
        CELLS.iter().map(|&(w, s)| (mapping_for(w, s, &config), trace_for(w, &config))).collect();
    let shapes = shapes();
    assert_eq!(shapes.len(), GOLDEN.len());
    let mut actual = Vec::new();
    for ((label, shape), (golden_label, _)) in shapes.iter().zip(GOLDEN) {
        assert_eq!(*label, golden_label, "shape table and golden table out of order");
        let mut digests = [0u64; 2];
        for (digest, (map, trace)) in digests.iter_mut().zip(&cells) {
            let stats = run(shape, map, trace, &config);
            assert_eq!(stats.accesses, config.accesses, "{label}");
            *digest = fnv1a(try_to_json(&stats).expect("serializable").as_bytes());
        }
        actual.push((*label, digests));
    }
    let table: String = actual
        .iter()
        .map(|(label, [low, demand])| {
            format!("    (\"{label}\", [{low:#018x}, {demand:#018x}]),\n")
        })
        .collect();
    assert!(
        actual.iter().zip(GOLDEN).all(|(&(_, got), (_, want))| got == want),
        "simulated numbers changed; digests now are:\n{table}"
    );
}
