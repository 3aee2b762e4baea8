//! The hytlb performance benchmark.
//!
//! One command (`hytlb-perfbench`) runs one of three workloads — slices of
//! the paper's *scenario × workload × scheme* evaluation matrix — and
//! prints its end-to-end host-time metrics (untraced) or its per-layer
//! ledger (traced), after checking every simulated cell against its
//! invariants and, at the default seed, its golden digest. A second
//! command (`perfbench-compare`) turns saved runs of a parent and a change
//! into per-metric verdicts. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod ledger;
pub mod metrics;
pub mod stats;
pub mod workload;
