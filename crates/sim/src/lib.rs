//! Trace-driven simulation engine and experiment harness.
//!
//! This crate ties everything together:
//!
//! * [`PaperConfig`] — the evaluation configuration of Table 3 (latencies,
//!   epoch length, trace length, seeds).
//! * [`SchemeKind`] — the registry of translation schemes compared in the
//!   paper; [`SchemeKind::build`] is the one constructor, returning the
//!   scheme's `Mmu` pipeline as a `Box<dyn TranslationScheme>`.
//! * [`Machine`] — a scheme plus the logical-address placement layer;
//!   drives a trace through the MMU in one chunked loop and collects
//!   [`RunStats`]. Each chunk of up to 4,096 accesses costs one virtual
//!   call.
//! * [`experiment`] — the evaluation matrix building blocks (mapping and
//!   trace generation, suites, the static-ideal sweep).
//! * [`matrix`] — the parallel, zero-copy matrix driver: memoized
//!   mapping/trace generation and a bounded worker pool over every
//!   (scenario, workload, scheme) cell, bit-identical to a serial run.
//! * [`report`] — text renderers that print the same rows/series as the
//!   paper's figures and tables, plus JSON output.
//!
//! # Examples
//!
//! ```
//! use hytlb_sim::{Machine, PaperConfig, SchemeKind};
//! use hytlb_mem::Scenario;
//! use hytlb_trace::WorkloadKind;
//!
//! let config = PaperConfig::default();
//! let map = std::sync::Arc::new(Scenario::MediumContiguity.generate(4096, config.seed));
//! let mut machine = Machine::for_scheme(SchemeKind::AnchorDynamic, &map, &config);
//! let trace = WorkloadKind::Canneal.generator(4096, config.seed).take(50_000);
//! let stats = machine.try_run(trace)?;
//! assert_eq!(stats.accesses, 50_000);
//! assert!(stats.translation_cpi() >= 0.0);
//! # Ok::<(), hytlb_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
pub mod experiment;
pub mod matrix;
pub mod report;

pub use config::{PaperConfig, SchemeKind};
pub use engine::{CpiBreakdown, Machine, RunStats};
pub use error::SimError;
pub use matrix::{try_run_matrix, MatrixCache};
