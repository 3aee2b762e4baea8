//! The one translation pipeline every scheme runs.
//!
//! [`Mmu`] owns what every scheme shares — the split L1, the shared L2
//! array, the Table 3 latency model and the statistics — and is the only
//! code that runs the access sequence of the paper's Figure 5:
//!
//! 1. L1 probe (latency hidden);
//! 2. L2 4 KB probe, then 2 MB probe when the stage's regular array holds
//!    2 MB entries (7 cycles on a hit);
//! 3. the stage's coalesced probe (8 cycles on a coalesced hit);
//! 4. a walk of the stage's page table (50 cycles), the stage's fill
//!    decision, and an L1 fill at the leaf's size.
//!
//! Every access is priced once, by [`LatencyModel::charge`] on the path it
//! took, when the MMU records it in [`SchemeStats`].
//!
//! A scheme is an [`L2Stage`]: it supplies only what sets it apart — its
//! coalesced probe, its fill, its page table, and flush, geometry and epoch
//! hooks for any private arrays.

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{L1Tlb, TlbGeometry};
use hytlb_types::{PageSize, PhysFrameNum, VirtAddr, VirtPageNum};

/// The outcome of a stage's coalesced probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<M> {
    /// A coalesced entry translated the page: charged the coalesced-hit
    /// latency, and the L1 caches a 4 KB entry.
    Coalesced(PhysFrameNum),
    /// A stage-private regular array translated the page: charged the
    /// regular L2 latency, and the L1 caches an entry of the given size.
    Regular(PhysFrameNum, PageSize),
    /// Nothing translated the page. The token is handed to
    /// [`L2Stage::fill`] after the walk.
    Miss(M),
}

impl Probe<()> {
    /// A coalesced hit when the stage found a frame, otherwise a plain
    /// miss.
    #[must_use]
    pub fn coalesced(pfn: Option<PhysFrameNum>) -> Self {
        pfn.map_or(Probe::Miss(()), Probe::Coalesced)
    }
}

/// The scheme-specific part of the L2 lookup: everything past the shared
/// array's regular probes.
pub trait L2Stage: Send {
    /// What a missed probe tells the fill (e.g. the anchor scheme's Table 2
    /// row).
    type Miss;

    /// Scheme label, as in the paper's figures.
    fn name(&self) -> &str;

    /// Whether the shared array holds 2 MB entries, so the MMU probes it
    /// for one after a 4 KB miss.
    fn holds_2m(&self) -> bool;

    /// The page table the walker walks.
    fn table(&self) -> &PageTable;

    /// Probes the stage's coalesced structures after both regular probes
    /// missed.
    fn probe(&mut self, l2: &mut SharedL2, vpn: VirtPageNum) -> Probe<Self::Miss>;

    /// Decides what the walk of `vpn`, which found `leaf`, installs in the
    /// L2 structures. The MMU fills the L1 itself.
    fn fill(&mut self, l2: &mut SharedL2, vpn: VirtPageNum, leaf: &LeafEntry, miss: Self::Miss);

    /// Flushes the stage's private arrays (the MMU flushes L1 and L2).
    fn flush(&mut self) {}

    /// Appends the geometries of the stage's private arrays.
    fn geometries(&self, _out: &mut Vec<TlbGeometry>) {}

    /// Runs the stage's epoch work; `true` demands a full TLB shootdown.
    fn on_epoch(&mut self) -> bool {
        false
    }

    /// The anchor distance in effect, for stages that have one.
    fn anchor_distance(&self) -> Option<u64> {
        None
    }
}

/// An MMU: the shared L1/L2/page-walk pipeline around one [`L2Stage`].
#[derive(Debug)]
pub struct Mmu<S> {
    l1: L1Tlb,
    l2: SharedL2,
    latency: LatencyModel,
    stats: SchemeStats,
    stage: S,
}

impl<S: L2Stage> Mmu<S> {
    /// Assembles an MMU from a stage, the stage's shared-array geometry and
    /// a latency model, with the paper's L1.
    #[must_use]
    pub fn from_stage(stage: S, l2: SharedL2, latency: LatencyModel) -> Self {
        Mmu { l1: L1Tlb::paper_default(), l2, latency, stats: SchemeStats::default(), stage }
    }

    /// The scheme-specific stage.
    #[must_use]
    pub fn stage(&self) -> &S {
        &self.stage
    }

    /// Flushes only the L1, so the next access to a page shows which L2
    /// structure holds it.
    pub fn flush_l1(&mut self) {
        self.l1.flush();
    }

    #[inline]
    fn translate(&mut self, vpn: VirtPageNum) -> AccessResult {
        if let Some(pfn) = self.l1.lookup(vpn) {
            return AccessResult { path: TranslationPath::L1Hit, pfn: Some(pfn) };
        }
        let (path, pfn, size) = if let Some(pfn) = self.l2.lookup_4k(vpn) {
            (TranslationPath::L2RegularHit, pfn, PageSize::Base4K)
        } else if let Some(pfn) = self.stage.holds_2m().then(|| self.l2.lookup_2m(vpn)).flatten() {
            (TranslationPath::L2RegularHit, pfn, PageSize::Huge2M)
        } else {
            match self.stage.probe(&mut self.l2, vpn) {
                Probe::Regular(pfn, size) => (TranslationPath::L2RegularHit, pfn, size),
                Probe::Coalesced(pfn) => (TranslationPath::CoalescedHit, pfn, PageSize::Base4K),
                Probe::Miss(miss) => return self.walk(vpn, miss),
            }
        };
        self.l1.insert(vpn, pfn, size);
        AccessResult { path, pfn: Some(pfn) }
    }

    fn walk(&mut self, vpn: VirtPageNum, miss: S::Miss) -> AccessResult {
        let Some(leaf) = self.stage.table().lookup(vpn) else {
            return AccessResult { path: TranslationPath::Fault, pfn: None };
        };
        self.stage.fill(&mut self.l2, vpn, &leaf, miss);
        let pfn = leaf.pfn_for(vpn);
        self.l1.insert(vpn, pfn, leaf.size);
        AccessResult { path: TranslationPath::Walk, pfn: Some(pfn) }
    }
}

impl<S: L2Stage> TranslationScheme for Mmu<S> {
    fn name(&self) -> &str {
        self.stage.name()
    }

    fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        let result = self.translate(vaddr.page_number());
        self.stats.record(result.path, self.latency.charge(result.path));
        result
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn on_epoch(&mut self) {
        if self.stage.on_epoch() {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.stage.flush();
    }

    fn anchor_distance(&self) -> Option<u64> {
        self.stage.anchor_distance()
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.l2.geometry());
        self.stage.geometries(&mut g);
        g
    }
}
