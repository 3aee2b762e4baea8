//! Redundant Memory Mapping (Karakostas et al., ISCA 2015).
//!
//! RMM keeps the baseline paged translation (4 KB + 2 MB in the shared L2)
//! and *redundantly* maps large allocations as variable-length ranges held
//! in a small fully-associative range TLB (32 entries, Table 3). A range
//! hit costs 8 cycles; a miss falls back to the page walk, which also
//! refills the range TLB from the range table (modelled here from the OS's
//! chunk list).
//!
//! The scheme's character in the paper: near-perfect when a few huge
//! ranges cover the footprint (max contiguity), nearly useless when the
//! mapping is shattered into more small chunks than 32 entries can span
//! (low/medium contiguity).

use crate::mmu::{L2Stage, Mmu, Probe};
use crate::scheme::LatencyModel;
use crate::shared_l2::SharedL2;
use hytlb_mem::{AddressSpaceMap, ChunkCursor};
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{RangeEntry, RangeTlb, TlbGeometry};
use hytlb_types::VirtPageNum;
use std::sync::Arc;

/// Minimum chunk length (pages) the OS promotes to a range: only regions
/// *beyond huge-page reach* (> 2 MB) become ranges — smaller contiguity is
/// already served as well by 2 MB/4 KB paged entries, and per-chunk ranges
/// for small chunks would only thrash the 32-entry range TLB. This matches
/// the paper's observed behaviour: at medium contiguity (chunks ≤ 512
/// pages) "RMM also shows similar results to THP, due to the lack of high
/// contiguity" (§5.2.1), while at high/max contiguity RMM nearly
/// eliminates misses.
const MIN_RANGE_PAGES: u64 = hytlb_types::HUGE_PAGE_PAGES + 1;

/// The RMM stage: the range TLB and the range table it refills from.
#[derive(Debug)]
pub struct RmmStage {
    ranges: RangeTlb,
    table: PageTable,
    map: Arc<AddressSpaceMap>,
    /// Last-chunk cache for the walk-path range-table probe; `map` is never
    /// mutated after construction, so the cursor can never go stale.
    chunk_cursor: ChunkCursor,
}

/// The RMM scheme.
pub type RmmScheme = Mmu<RmmStage>;

impl RmmScheme {
    /// Builds the RMM MMU with the paper's 32-entry range TLB.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        Self::with_range_entries(map, latency, 32)
    }

    /// Builds RMM with an explicit range-TLB capacity (for sensitivity
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if `range_entries` is zero.
    #[must_use]
    pub fn with_range_entries(
        map: Arc<AddressSpaceMap>,
        latency: LatencyModel,
        range_entries: usize,
    ) -> Self {
        let stage = RmmStage {
            ranges: RangeTlb::new(range_entries),
            table: PageTable::from_map(&map, true),
            map,
            chunk_cursor: ChunkCursor::default(),
        };
        Mmu::from_stage(stage, SharedL2::paper_default(), latency)
    }

    /// Live range-TLB entries.
    #[must_use]
    pub fn cached_ranges(&self) -> usize {
        self.stage().ranges.len()
    }
}

impl L2Stage for RmmStage {
    type Miss = ();

    fn name(&self) -> &str {
        "RMM"
    }

    fn holds_2m(&self) -> bool {
        true
    }

    fn table(&self) -> &PageTable {
        &self.table
    }

    fn probe(&mut self, _: &mut SharedL2, vpn: VirtPageNum) -> Probe<()> {
        Probe::coalesced(self.ranges.lookup(vpn))
    }

    fn fill(&mut self, l2: &mut SharedL2, vpn: VirtPageNum, leaf: &LeafEntry, (): ()) {
        l2.insert_leaf(vpn, leaf);
        // Refill the range TLB from the range table: the chunk containing
        // this page, if large enough to be a range.
        if let Some(chunk) = self.map.chunk_containing_with(vpn, &mut self.chunk_cursor) {
            if chunk.len >= MIN_RANGE_PAGES {
                self.ranges.insert(RangeEntry {
                    start_vpn: chunk.vpn,
                    start_pfn: chunk.pfn,
                    len: chunk.len,
                });
            }
        }
    }

    fn flush(&mut self) {
        self.ranges.flush();
    }

    fn geometries(&self, out: &mut Vec<TlbGeometry>) {
        out.push(self.ranges.geometry("Range TLB"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TranslationPath, TranslationScheme};
    use hytlb_mem::Scenario;
    use hytlb_types::VirtAddr;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn touch_all(s: &mut RmmScheme, map: &AddressSpaceMap, rounds: usize) {
        for _ in 0..rounds {
            for (vpn, pfn) in map.iter_pages() {
                assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
            }
        }
    }

    #[test]
    fn max_contiguity_nearly_eliminates_misses() {
        let map = Arc::new(Scenario::MaxContiguity.generate(8192, 1));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        touch_all(&mut s, &map, 2);
        let st = s.stats();
        // After the handful of cold walks, everything hits.
        assert!(st.walks <= 64, "walks = {}", st.walks);
        assert!(s.cached_ranges() <= 4);
    }

    #[test]
    fn low_contiguity_defeats_the_range_tlb() {
        let map = Arc::new(Scenario::LowContiguity.generate(8192, 2));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        // Random access order (a golden-ratio stride walks all pages): with
        // ~1000 small chunks, 32 range entries cover almost nothing.
        let pages: Vec<_> = map.iter_pages().collect();
        let n = pages.len() as u64;
        for i in 0..2 * n {
            let idx = (i.wrapping_mul(11_400_714_819_323_198_485) % n) as usize;
            let (vpn, pfn) = pages[idx];
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
        let st = s.stats();
        assert!(st.walks as f64 > 0.3 * st.accesses as f64, "unexpectedly effective: {st:?}");
    }

    #[test]
    fn range_hits_cost_eight_cycles() {
        // A large chunk deliberately misaligned for 2 MB pages, so the L2
        // can only cache 4 KB entries and the far page must hit the range.
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(3),
            PhysFrameNum::new(1001),
            600,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        let first = map.chunks().next().unwrap().vpn;
        s.access(va(first));
        // A far page of the same chunk: L1 and L2 miss, range hit.
        let before = s.stats().cycles;
        let r = s.access(va(first + 300));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
        assert_eq!(s.stats().cycles.as_u64() - before.as_u64(), 8);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(1301)));
    }

    #[test]
    fn singleton_chunks_do_not_enter_range_tlb() {
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(100),
            1,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        s.access(va(VirtPageNum::new(0)));
        assert_eq!(s.cached_ranges(), 0);
    }

    use hytlb_types::PhysFrameNum;

    #[test]
    fn flush_clears_ranges_too() {
        // Footprint large enough that chunks exceed the >2MB range
        // threshold.
        let map = Arc::new(Scenario::MaxContiguity.generate(4096, 4));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        touch_all(&mut s, &map, 1);
        assert!(s.cached_ranges() > 0);
        s.flush();
        assert_eq!(s.cached_ranges(), 0);
    }
}
