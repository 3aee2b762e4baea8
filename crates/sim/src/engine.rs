//! The machine: a translation scheme driven by a trace, through one
//! chunked run loop.

use crate::config::{PaperConfig, SchemeKind};
use crate::error::SimError;
use hytlb_mem::{AddressSpaceMap, PageIndex};
use hytlb_schemes::{SchemeStats, TranslationScheme};
use hytlb_types::{VirtAddr, PAGE_SIZE_U64};
use std::sync::Arc;

/// Accesses per chunk of the run loop: large enough to amortize the
/// per-chunk virtual call and epoch/flush bookkeeping, small enough that a
/// chunk's addresses stay cache-resident.
const BATCH: usize = 4096;

/// The epoch and flush countdowns of one run, carried across chunks.
struct Cadence {
    epoch_every: u64,
    flush_period: u64,
    since_epoch: u64,
    since_flush: u64,
    accesses: u64,
}

impl Cadence {
    fn new(epoch_every: u64, flush_period: u64) -> Self {
        Cadence { epoch_every, flush_period, since_epoch: 0, since_flush: 0, accesses: 0 }
    }
}

/// Translation-CPI contributions, as stacked in Figures 10–11.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct CpiBreakdown {
    /// Regular L2 hits (7 cycles each).
    pub l2_hit: f64,
    /// Anchor / cluster / range hits (8 cycles each).
    pub coalesced_hit: f64,
    /// Page-table walks (50 cycles each).
    pub walk: f64,
}

impl CpiBreakdown {
    /// Total translation CPI.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.l2_hit + self.coalesced_hit + self.walk
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Scheme label.
    pub scheme: String,
    /// Accesses simulated.
    pub accesses: u64,
    /// Instructions represented (accesses / mem-op ratio).
    pub instructions: u64,
    /// The MMU counters.
    pub stats: SchemeStats,
    /// Cycle cost of each structure per instruction.
    pub cpi: CpiBreakdown,
    /// Anchor distance in effect at the end of the run (anchor schemes).
    pub anchor_distance: Option<u64>,
}

impl RunStats {
    /// The paper's headline metric: page walks ("TLB misses").
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.stats.walks
    }

    /// Total translation CPI.
    #[must_use]
    pub fn translation_cpi(&self) -> f64 {
        self.cpi.total()
    }

    /// Misses relative to a baseline run, in percent (Figures 2 and 7–9).
    ///
    /// A baseline with zero walks has nothing to improve on, so such cells
    /// report 100.0 (parity) rather than 0.0 — otherwise a scheme would
    /// appear to eliminate misses that never existed and drag every
    /// suite-level mean toward zero.
    #[must_use]
    pub fn relative_misses_pct(&self, baseline: &RunStats) -> f64 {
        if baseline.tlb_misses() == 0 {
            return 100.0;
        }
        self.tlb_misses() as f64 / baseline.tlb_misses() as f64 * 100.0
    }
}

/// A scheme plus the placement layer that turns logical trace addresses
/// into virtual addresses of the mapping under test.
pub struct Machine {
    scheme: Box<dyn TranslationScheme>,
    index: Arc<PageIndex>,
    config: PaperConfig,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("scheme", &self.scheme.name())
            .field("mapped_pages", &self.index.len())
            .finish()
    }
}

impl Machine {
    /// Builds a machine running `kind` over `map`. The map is shared with
    /// the scheme by reference count — no copy of the address-space data is
    /// made, so a matrix of machines over one mapping costs one mapping.
    #[must_use]
    pub fn for_scheme(kind: SchemeKind, map: &Arc<AddressSpaceMap>, config: &PaperConfig) -> Self {
        Machine {
            scheme: kind.build(map, config),
            index: Arc::new(map.page_index()),
            config: *config,
        }
    }

    /// Like [`Machine::for_scheme`], but reuses a pre-built [`PageIndex`]
    /// as well, so every machine of a matrix cell shares both the mapping
    /// and its placement index.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not built from `map` (detected by length).
    #[must_use]
    pub fn for_scheme_indexed(
        kind: SchemeKind,
        map: &Arc<AddressSpaceMap>,
        index: &Arc<PageIndex>,
        config: &PaperConfig,
    ) -> Self {
        assert_eq!(index.len(), map.mapped_pages(), "page index does not match the mapping");
        Machine { scheme: kind.build(map, config), index: Arc::clone(index), config: *config }
    }

    /// Builds a machine around an existing scheme (used for ablations that
    /// construct schemes with custom configs).
    #[must_use]
    pub fn from_scheme(
        scheme: Box<dyn TranslationScheme>,
        map: &Arc<AddressSpaceMap>,
        config: &PaperConfig,
    ) -> Self {
        Machine { scheme, index: Arc::new(map.page_index()), config: *config }
    }

    /// The underlying scheme.
    #[must_use]
    pub fn scheme(&self) -> &dyn TranslationScheme {
        &*self.scheme
    }

    /// Drives a logical-address trace through the MMU. The trace is
    /// streamed: up to 4,096 logical addresses at a time are placed onto
    /// the mapping with [`PageIndex::resolve`] and fed to the same chunked
    /// loop as [`Machine::try_run_resolved`], so a caller never has to
    /// hold a whole trace in memory.
    ///
    /// A logical address outside `mapped_pages × 4096` is reported as
    /// [`SimError::OutsideFootprint`]; a mistranslation as
    /// [`SimError::TraceFault`] naming the scheme and address.
    pub fn try_run<I: IntoIterator<Item = u64>>(&mut self, trace: I) -> Result<RunStats, SimError> {
        let footprint_pages = self.index.len();
        let limit = footprint_pages.saturating_mul(PAGE_SIZE_U64);
        let mut cadence = Cadence::new(self.config.epoch_accesses(), u64::MAX);
        let mut trace = trace.into_iter();
        let mut logical = Vec::with_capacity(BATCH);
        loop {
            logical.clear();
            logical.extend(trace.by_ref().take(BATCH));
            if logical.is_empty() {
                break;
            }
            if let Some(&address) = logical.iter().find(|&&a| a >= limit) {
                return Err(SimError::OutsideFootprint { address, footprint_pages });
            }
            self.run_chunks(&mut cadence, &self.index.resolve(&logical))?;
        }
        Ok(self.finish(cadence.accesses))
    }

    /// Drives a *pre-resolved* virtual-address trace (see
    /// [`PageIndex::resolve`]) through the MMU. Bit-identical to
    /// [`Machine::try_run`] over the logical trace that produced
    /// `resolved`.
    pub fn try_run_resolved(&mut self, resolved: &[VirtAddr]) -> Result<RunStats, SimError> {
        self.try_run_resolved_with_flush_period(resolved, u64::MAX)
    }

    /// [`Machine::try_run_resolved`], but flushes all TLB state every
    /// `flush_period` accesses — modelling context switches, which flush
    /// the TLB on native x86 Linux (paper §3.3). Coalesced schemes refill
    /// their reach with far fewer walks than the baseline, so frequent
    /// switches *widen* their advantage. A `flush_period` of 0 flushes
    /// after every access.
    pub fn try_run_resolved_with_flush_period(
        &mut self,
        resolved: &[VirtAddr],
        flush_period: u64,
    ) -> Result<RunStats, SimError> {
        let mut cadence = Cadence::new(self.config.epoch_accesses(), flush_period);
        self.run_chunks(&mut cadence, resolved)?;
        Ok(self.finish(cadence.accesses))
    }

    /// The run loop. Chunks are cut so that every epoch and flush boundary
    /// lands exactly on a chunk end, which makes `on_epoch`/`flush` fire
    /// after exactly the same accesses as a one-access-at-a-time loop —
    /// bit-identical stats by construction. Each chunk is one virtual
    /// `access_batch` call into the scheme's monomorphized loop. Checked in
    /// release builds too: a silent mistranslation would corrupt every
    /// figure downstream.
    fn run_chunks(&mut self, cadence: &mut Cadence, resolved: &[VirtAddr]) -> Result<(), SimError> {
        let mut pos = 0usize;
        while pos < resolved.len() {
            let remaining = (resolved.len() - pos) as u64;
            // `since_epoch < epoch_every` is a loop invariant (reset on
            // fire), so this cannot underflow. The flush gap is clamped to
            // one access so a `flush_period` of 0 still makes progress.
            let until_epoch = cadence.epoch_every - cadence.since_epoch;
            let until_flush = cadence.flush_period.saturating_sub(cadence.since_flush).max(1);
            let take = (BATCH as u64).min(remaining).min(until_epoch).min(until_flush);
            let end = pos + take as usize;
            if let Err(fault) = self.scheme.access_batch(&resolved[pos..end]) {
                return Err(SimError::TraceFault {
                    scheme: self.scheme.name().to_owned(),
                    vaddr: fault.vaddr,
                });
            }
            pos = end;
            cadence.accesses += take;
            cadence.since_epoch += take;
            cadence.since_flush += take;
            if cadence.since_epoch >= cadence.epoch_every {
                self.scheme.on_epoch();
                cadence.since_epoch = 0;
            }
            if cadence.since_flush >= cadence.flush_period {
                self.scheme.flush();
                cadence.since_flush = 0;
            }
        }
        Ok(())
    }

    fn finish(&self, accesses: u64) -> RunStats {
        let stats = *self.scheme.stats();
        let instructions =
            (accesses as f64 / self.config.mem_ops_per_instruction).round().max(1.0) as u64;
        let lat = self.config.latency;
        let cpi = CpiBreakdown {
            l2_hit: (stats.l2_regular_hits * lat.l2_hit.as_u64()) as f64 / instructions as f64,
            coalesced_hit: (stats.coalesced_hits * lat.coalesced_hit.as_u64()) as f64
                / instructions as f64,
            walk: ((stats.walks + stats.faults) * lat.walk.as_u64()) as f64 / instructions as f64,
        };
        RunStats {
            scheme: self.scheme.name().to_owned(),
            accesses,
            instructions,
            stats,
            cpi,
            anchor_distance: self.scheme.anchor_distance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_trace::WorkloadKind;

    fn quick() -> PaperConfig {
        PaperConfig { accesses: 20_000, ..PaperConfig::quick() }
    }

    /// Runs a logical trace through `kind` with periodic flushes.
    fn run_flushed(
        kind: SchemeKind,
        map: &Arc<AddressSpaceMap>,
        config: &PaperConfig,
        trace: &[u64],
        flush_period: u64,
    ) -> RunStats {
        let resolved = map.page_index().resolve(trace);
        Machine::for_scheme(kind, map, config)
            .try_run_resolved_with_flush_period(&resolved, flush_period)
            .expect("mapped trace")
    }

    #[test]
    fn run_counts_accesses_and_cpi() {
        let config = quick();
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 1));
        let mut m = Machine::for_scheme(SchemeKind::Baseline, &map, &config);
        let stats = m.try_run(WorkloadKind::Canneal.generator(4096, 1).take(20_000)).unwrap();
        assert_eq!(stats.accesses, 20_000);
        assert_eq!(stats.stats.accesses, 20_000);
        assert!(stats.translation_cpi() > 0.0);
        assert_eq!(stats.scheme, "Base");
        assert_eq!(stats.anchor_distance, None);
    }

    #[test]
    fn anchor_machine_reports_distance() {
        let config = quick();
        let map = Arc::new(Scenario::LowContiguity.generate(4096, 2));
        let mut m = Machine::for_scheme(SchemeKind::AnchorDynamic, &map, &config);
        let stats = m.try_run(WorkloadKind::Gups.generator(4096, 2).take(5_000)).unwrap();
        let d = stats.anchor_distance.expect("anchor scheme has a distance");
        assert!(d.is_power_of_two());
        assert!(d <= 16, "low contiguity should select a small distance, got {d}");
    }

    #[test]
    fn flush_period_increases_walks() {
        let config = quick();
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 5));
        let trace: Vec<u64> = WorkloadKind::Canneal.generator(4096, 5).take(30_000).collect();
        let calm = run_flushed(SchemeKind::Baseline, &map, &config, &trace, u64::MAX);
        let churned = run_flushed(SchemeKind::Baseline, &map, &config, &trace, 1_000);
        assert!(churned.tlb_misses() > calm.tlb_misses());
        assert_eq!(churned.accesses, calm.accesses);
    }

    #[test]
    fn coalescing_recovers_faster_from_flushes() {
        let config = quick();
        let map = Arc::new(Scenario::MediumContiguity.generate(8192, 6));
        let trace: Vec<u64> = WorkloadKind::Canneal.generator(8192, 6).take(50_000).collect();
        let walks = |kind| run_flushed(kind, &map, &config, &trace, 5_000).tlb_misses();
        assert!(walks(SchemeKind::AnchorDynamic) < walks(SchemeKind::Baseline));
    }

    #[test]
    fn try_run_names_the_faulting_scheme_and_address() {
        let config = quick();
        // The scheme only knows a 64-page mapping, but the placement layer
        // uses a 4096-page one: the trace soon leaves the scheme's map.
        let small = Arc::new(Scenario::MediumContiguity.generate(64, 7));
        let big = Arc::new(Scenario::MediumContiguity.generate(4096, 7));
        let scheme = SchemeKind::Baseline.build(&small, &config);
        let mut m = Machine::from_scheme(scheme, &big, &config);
        let err = m
            .try_run(WorkloadKind::Gups.generator(4096, 7).take(5_000))
            .expect_err("mismatched maps must fault");
        match err {
            crate::SimError::TraceFault { scheme, .. } => assert_eq!(scheme, "Base"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn try_run_rejects_addresses_outside_the_footprint() {
        let config = quick();
        let map = Arc::new(Scenario::MediumContiguity.generate(64, 8));
        let mut m = Machine::for_scheme(SchemeKind::Baseline, &map, &config);
        // The bad address sits in the second chunk, after a full first one.
        let trace = (0..5_000u64).map(|i| (i % 64) * PAGE_SIZE_U64).chain([64 * PAGE_SIZE_U64 + 8]);
        let err = m.try_run(trace).expect_err("address past the footprint");
        assert_eq!(
            err,
            crate::SimError::OutsideFootprint {
                address: 64 * PAGE_SIZE_U64 + 8,
                footprint_pages: 64
            }
        );
    }

    #[test]
    fn resolved_run_names_the_faulting_scheme() {
        let config = quick();
        let small = Arc::new(Scenario::MediumContiguity.generate(64, 7));
        let big = Arc::new(Scenario::MediumContiguity.generate(4096, 7));
        let scheme = SchemeKind::Baseline.build(&small, &config);
        let mut m = Machine::from_scheme(scheme, &big, &config);
        let trace: Vec<u64> = WorkloadKind::Gups.generator(4096, 7).take(5_000).collect();
        let resolved = Arc::new(big.page_index()).resolve(&trace);
        let err = m.try_run_resolved(&resolved).expect_err("mismatched maps must fault");
        match err {
            crate::SimError::TraceFault { scheme, .. } => assert_eq!(scheme, "Base"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn relative_misses_math() {
        let config = quick();
        let map = Arc::new(Scenario::MaxContiguity.generate(1 << 13, 3));
        let trace: Vec<u64> = WorkloadKind::Milc.generator(1 << 13, 3).take(30_000).collect();
        let run = |kind| Machine::for_scheme(kind, &map, &config).try_run(trace.iter().copied());
        let base = run(SchemeKind::Baseline).unwrap();
        let anchor = run(SchemeKind::AnchorDynamic).unwrap();
        let rel = anchor.relative_misses_pct(&base);
        assert!(rel < 30.0, "anchor at {rel}% of baseline misses");
        assert!((base.relative_misses_pct(&base) - 100.0).abs() < 1e-9);
    }
}
