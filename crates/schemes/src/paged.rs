//! Paging only: the paper's `Base` (4 KB pages) and `THP` (4 KB + 2 MB
//! pages sharing the L2 array) configurations.

use crate::mmu::{L2Stage, Mmu, Probe};
use crate::scheme::LatencyModel;
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_types::VirtPageNum;
use std::sync::Arc;

/// The paging-only stage: no coalesced probe. With `HUGE` the OS maps
/// 2 MB-shaped regions with huge PTEs (Linux transparent huge pages) and
/// both page sizes share the 1024-entry 8-way L2 (Table 3,
/// "Baseline/THP").
#[derive(Debug)]
pub struct PagedStage<const HUGE: bool> {
    table: PageTable,
}

/// The paper's `Base` configuration: every mapping is translated through
/// 4 KB PTEs; the shared 1024-entry 8-way L2 holds only 4 KB entries.
///
/// # Examples
///
/// ```
/// use hytlb_mem::Scenario;
/// use hytlb_schemes::{BaselineScheme, LatencyModel, TranslationScheme};
/// use hytlb_types::VirtAddr;
/// use std::sync::Arc;
///
/// let map = Arc::new(Scenario::LowContiguity.generate(256, 1));
/// let mut base = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
/// let va = map.chunks().next().unwrap().vpn.base_addr();
/// let first = base.access(va);
/// let second = base.access(va);
/// assert!(second.cycles < first.cycles); // second access hits
/// ```
pub type BaselineScheme = Mmu<PagedStage<false>>;

/// The paper's `THP` configuration: 4 KB + 2 MB entries in the shared L2.
pub type ThpScheme = Mmu<PagedStage<true>>;

impl<const HUGE: bool> Mmu<PagedStage<HUGE>> {
    /// Builds the MMU over a mapping; under THP every huge-page-shaped 2 MB
    /// region becomes a 2 MB leaf.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        let stage = PagedStage { table: PageTable::from_map(&map, HUGE) };
        Mmu::from_stage(stage, SharedL2::paper_default(), latency)
    }

    /// Number of 2 MB leaves the OS installed for this mapping.
    #[must_use]
    pub fn huge_leaves(&self) -> u64 {
        self.stage().table.mapped_huge_pages()
    }
}

impl<const HUGE: bool> L2Stage for PagedStage<HUGE> {
    type Miss = ();

    fn name(&self) -> &str {
        if HUGE {
            "THP"
        } else {
            "Base"
        }
    }

    fn holds_2m(&self) -> bool {
        HUGE
    }

    fn table(&self) -> &PageTable {
        &self.table
    }

    fn probe(&mut self, _: &mut SharedL2, _: VirtPageNum) -> Probe<()> {
        Probe::Miss(())
    }

    fn fill(&mut self, l2: &mut SharedL2, vpn: VirtPageNum, leaf: &LeafEntry, (): ()) {
        l2.insert_leaf(vpn, leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TranslationPath, TranslationScheme};
    use hytlb_mem::Scenario;
    use hytlb_types::{Cycles, VirtAddr};

    fn scheme(footprint: u64, seed: u64) -> (BaselineScheme, Arc<AddressSpaceMap>) {
        let map = Arc::new(Scenario::MediumContiguity.generate(footprint, seed));
        (BaselineScheme::new(Arc::clone(&map), LatencyModel::default()), map)
    }

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    #[test]
    fn first_access_walks_then_hits() {
        let (mut s, map) = scheme(64, 1);
        let vpn = map.chunks().next().unwrap().vpn;
        let r1 = s.access(va(vpn));
        assert_eq!(r1.path, TranslationPath::Walk);
        assert_eq!(r1.cycles, Cycles::new(50));
        // Second access: L1 hit, free.
        let r2 = s.access(va(vpn));
        assert_eq!(r2.path, TranslationPath::L1Hit);
        assert_eq!(r2.cycles, Cycles::ZERO);
        assert_eq!(r1.pfn, r2.pfn);
    }

    #[test]
    fn translations_match_the_map() {
        let (mut s, map) = scheme(512, 2);
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
        // And again, through TLB hits.
        for (vpn, pfn) in map.iter_pages().take(32) {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut s, _) = scheme(64, 3);
        let r = s.access(VirtAddr::new(0x10));
        assert_eq!(r.path, TranslationPath::Fault);
        assert_eq!(r.pfn, None);
        assert_eq!(s.stats().faults, 1);
    }

    #[test]
    fn working_set_larger_than_l2_thrashes() {
        // 4096 pages > 1024 L2 entries: cycling through them twice must
        // keep missing.
        let (mut s, map) = scheme(4096, 4);
        let pages: Vec<_> = map.iter_pages().map(|(v, _)| v).collect();
        for _ in 0..2 {
            for &v in &pages {
                s.access(va(v));
            }
        }
        let st = s.stats();
        assert!(st.walks as f64 > 0.9 * st.accesses as f64, "{st:?}");
    }

    #[test]
    fn flush_forgets_everything() {
        let (mut s, map) = scheme(64, 5);
        let vpn = map.chunks().next().unwrap().vpn;
        s.access(va(vpn));
        s.flush();
        let r = s.access(va(vpn));
        assert_eq!(r.path, TranslationPath::Walk);
    }

    #[test]
    fn baseline_ignores_huge_contiguity() {
        // Even a fully contiguous mapping gives baseline no benefit: one
        // walk per distinct page.
        let map = Arc::new(Scenario::MaxContiguity.generate(2048, 6));
        let mut s = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            s.access(va(vpn));
        }
        assert_eq!(s.stats().walks, 2048);
        assert_eq!(s.huge_leaves(), 0);
    }

    #[test]
    fn huge_shaped_mapping_needs_one_walk_per_2mb() {
        // A max-contiguity mapping is fully huge-page-shaped (modulo edge
        // remainders), so touching all 2048 pages costs ~4 walks.
        let map = Arc::new(Scenario::MaxContiguity.generate(2048, 1));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        assert!(s.huge_leaves() >= 2);
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
        let walks = s.stats().walks;
        assert!(walks <= 32, "walks = {walks}");
    }

    #[test]
    fn thp_beats_baseline_on_demand_mapping() {
        let map = Arc::new(Scenario::DemandPaging.generate(8192, 2));
        let mut thp = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        let mut base = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            thp.access(va(vpn));
            base.access(va(vpn));
        }
        assert!(thp.stats().walks < base.stats().walks);
    }

    #[test]
    fn thp_useless_on_low_contiguity() {
        let map = Arc::new(Scenario::LowContiguity.generate(4096, 3));
        let s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        assert_eq!(s.huge_leaves(), 0);
    }

    #[test]
    fn thp_translations_match_the_map() {
        let map = Arc::new(Scenario::DemandPaging.generate(2048, 4));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
    }

    #[test]
    fn l1_caches_huge_translations() {
        let map = Arc::new(Scenario::MaxContiguity.generate(4096, 5));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        let head = map.chunks().next().unwrap().vpn;
        s.access(va(head));
        // A different page of the same huge page: L1 hit.
        let r = s.access(va(head + 17));
        assert_eq!(r.path, TranslationPath::L1Hit);
        // Past the L1, the 2 MB entry in the shared L2 serves it.
        s.flush_l1();
        assert_eq!(s.access(va(head + 300)).path, TranslationPath::L2RegularHit);
    }
}
