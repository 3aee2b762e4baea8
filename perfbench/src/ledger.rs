//! Host-time measurement: a wall clock, a fixed-size worker pool, and the
//! per-layer ledger the traced run fills in.
//!
//! The traced run records one span per call into a layer (mapping
//! generation, trace generation, scheme construction, the hot loop, ...)
//! from the benchmark's own code, never from inside the simulator. Spans
//! are summed per layer name in memory, so a layer's busy time is the
//! total of its spans across all worker threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A started wall-clock measurement of host time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        // audit:allow(determinism): host-time measurement only; no simulated
        // state ever reads this clock.
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Busy seconds and counts per layer, plus per-cell durations.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Busy seconds per layer metric name (e.g. `mem.mapping_s`).
    pub busy: BTreeMap<String, f64>,
    /// Exact counts per metric name (e.g. `mem.mapped_pages`).
    pub counts: BTreeMap<String, f64>,
    /// Wall time of every simulated cell (scheme build plus hot loop).
    pub cell_s: Vec<f64>,
}

impl Ledger {
    /// Runs `f`, charging its duration to layer `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = f();
        self.charge(name, clock.seconds());
        out
    }

    /// Charges `seconds` of busy time to layer `name`.
    pub fn charge(&mut self, name: &str, seconds: f64) {
        *self.busy.entry(name.to_owned()).or_default() += seconds;
    }

    /// Adds `n` to count `name`.
    pub fn count(&mut self, name: &str, n: f64) {
        *self.counts.entry(name.to_owned()).or_default() += n;
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (k, v) in other.busy {
            self.charge(&k, v);
        }
        for (k, v) in other.counts {
            self.count(&k, v);
        }
        self.cell_s.extend(other.cell_s);
    }

    /// Total busy seconds over every layer.
    #[must_use]
    pub fn total_busy(&self) -> f64 {
        self.busy.values().sum()
    }
}

/// Runs `f` over every job on `threads` workers that pull jobs in order
/// from a shared counter (the shape of the simulator's matrix pool).
/// Returns the phase's wall time and the merged ledger of all workers.
pub fn pool<J: Sync>(
    threads: usize,
    jobs: &[J],
    f: impl Fn(&J, &mut Ledger) + Sync,
) -> (f64, Ledger) {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Ledger::default());
    let clock = Stopwatch::start();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut ledger = Ledger::default();
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    f(job, &mut ledger);
                }
                merged.lock().expect("ledger lock poisoned").merge(ledger);
            });
        }
    });
    (clock.seconds(), merged.into_inner().expect("ledger lock poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_job_once_and_merges_ledgers() {
        let jobs: Vec<u64> = (1..=100).collect();
        let (_, ledger) = pool(3, &jobs, |&j, l| l.count("sum", j as f64));
        assert_eq!(ledger.counts["sum"], 5050.0);
    }

    #[test]
    fn spans_accumulate_per_layer() {
        let mut l = Ledger::default();
        l.charge("a", 1.5);
        l.charge("a", 0.5);
        let x = l.span("b", || 7);
        assert_eq!(x, 7);
        assert_eq!(l.busy["a"], 2.0);
        assert!(l.total_busy() >= 2.0);
    }
}
