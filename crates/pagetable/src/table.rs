//! A 4-level radix page table (PML4 → PDPT → PD → PT).
//!
//! The table is a real software radix tree over 512-entry nodes, with 2 MB
//! leaves at the PD level (PS bit) and 4 KB leaves at the PT level, so the
//! walker and the anchored-table maintenance operate on the same structure a
//! hardware walker would see.

use crate::pte::{read_distributed_contiguity, write_distributed_contiguity, PageTableEntry};
use hytlb_mem::AddressSpaceMap;
use hytlb_types::{
    PageSize, Permissions, PhysFrameNum, VirtPageNum, GIANT_PAGE_PAGES, HUGE_PAGE_PAGES,
    PTES_PER_CACHE_BLOCK,
};

const ENTRIES: usize = 512;
const LEVELS: usize = 4;

/// A translation found by walking the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafEntry {
    /// First VPN covered by the leaf (equals the queried VPN for 4 KB
    /// leaves; the 2 MB-aligned head for huge leaves).
    pub head_vpn: VirtPageNum,
    /// Frame backing `head_vpn`.
    pub head_pfn: PhysFrameNum,
    /// Page size of the leaf.
    pub size: PageSize,
    /// Permissions of the mapping.
    pub perms: Permissions,
}

impl LeafEntry {
    /// Frame backing an arbitrary `vpn` within this leaf.
    #[must_use]
    pub fn pfn_for(&self, vpn: VirtPageNum) -> PhysFrameNum {
        self.head_pfn + (vpn - self.head_vpn)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Interior { entries: Box<[PageTableEntry; ENTRIES]>, children: Vec<Option<Box<Node>>> },
    Leaf { entries: Box<[PageTableEntry; ENTRIES]> },
}

impl Node {
    fn interior() -> Node {
        Node::Interior {
            entries: Box::new([PageTableEntry::NOT_PRESENT; ENTRIES]),
            children: (0..ENTRIES).map(|_| None).collect(),
        }
    }

    fn leaf() -> Node {
        Node::Leaf { entries: Box::new([PageTableEntry::NOT_PRESENT; ENTRIES]) }
    }
}

/// A 4-level page table.
///
/// # Examples
///
/// ```
/// use hytlb_pagetable::PageTable;
/// use hytlb_types::{PageSize, Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(0x1000), PhysFrameNum::new(0x2000), Permissions::READ_WRITE);
/// let leaf = pt.lookup(VirtPageNum::new(0x1000)).expect("mapped");
/// assert_eq!(leaf.size, PageSize::Base4K);
/// assert_eq!(leaf.head_pfn, PhysFrameNum::new(0x2000));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    root: Node,
    mapped_base_pages: u64,
    mapped_huge_pages: u64,
    mapped_giant_pages: u64,
}

/// Index of `vpn` within the node at `level` (0 = PML4 ... 3 = PT).
fn index_at(vpn: VirtPageNum, level: usize) -> usize {
    let shift = 9 * (LEVELS - 1 - level) as u32;
    vpn.index_bits(shift, 0x1ff)
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> Self {
        PageTable {
            root: Node::interior(),
            mapped_base_pages: 0,
            mapped_huge_pages: 0,
            mapped_giant_pages: 0,
        }
    }

    /// Builds a page table for an entire address-space map.
    ///
    /// When `use_huge_pages` is set, any 2 MB region that
    /// [`AddressSpaceMap::huge_page_at`] reports as huge-page-shaped is
    /// installed as a single 2 MB leaf (this is what the paper's THP-enabled
    /// mappings look like); all remaining pages get 4 KB leaves.
    #[must_use]
    pub fn from_map(map: &AddressSpaceMap, use_huge_pages: bool) -> Self {
        let mut pt = PageTable::new();
        for chunk in map.chunks() {
            let mut vpn = chunk.vpn;
            let end = chunk.end_vpn();
            while vpn < end {
                let pfn = chunk.translate(vpn).expect("vpn inside chunk");
                // Huge-page candidacy decided chunk-locally: an aligned
                // `vpn` with `end - vpn` pages to spare inside this chunk
                // satisfies everything `map.huge_page_at(vpn) == Some(vpn)`
                // would check except PFN alignment, so only that remains —
                // no `BTreeMap` probe per 2 MB region.
                if use_huge_pages
                    && vpn.is_aligned(HUGE_PAGE_PAGES)
                    && end - vpn >= HUGE_PAGE_PAGES
                    && pfn.is_aligned(HUGE_PAGE_PAGES)
                {
                    pt.map_huge(vpn, pfn, chunk.perms);
                    vpn += HUGE_PAGE_PAGES;
                } else {
                    pt.map(vpn, pfn, chunk.perms);
                    vpn += 1;
                }
            }
        }
        pt
    }

    /// Number of 4 KB leaf entries installed.
    #[must_use]
    pub fn mapped_base_pages(&self) -> u64 {
        self.mapped_base_pages
    }

    /// Number of 2 MB leaf entries installed.
    #[must_use]
    pub fn mapped_huge_pages(&self) -> u64 {
        self.mapped_huge_pages
    }

    /// Maps one 4 KB page.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (including under a huge leaf).
    pub fn map(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = index_at(vpn, level);
            match node {
                Node::Interior { entries, children } => {
                    assert!(!entries[idx].is_huge(), "page {vpn} already mapped by a huge leaf");
                    if children[idx].is_none() {
                        let child =
                            if level == LEVELS - 2 { Node::leaf() } else { Node::interior() };
                        children[idx] = Some(Box::new(child));
                        entries[idx] = PageTableEntry::new_table(PhysFrameNum::new(0));
                    }
                    node = children[idx].as_mut().expect("just ensured");
                }
                Node::Leaf { .. } => unreachable!("leaf node above PT level"),
            }
        }
        let idx = index_at(vpn, LEVELS - 1);
        match node {
            Node::Leaf { entries } => {
                assert!(!entries[idx].is_present(), "page {vpn} already mapped");
                entries[idx] = PageTableEntry::new_leaf(pfn, perms);
                self.mapped_base_pages += 1;
            }
            Node::Interior { .. } => unreachable!("interior node at PT level"),
        }
    }

    /// Maps one 2 MB page at the PD level.
    ///
    /// # Panics
    ///
    /// Panics if `vpn`/`pfn` are not 2 MB-aligned or the slot is occupied.
    pub fn map_huge(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        assert!(vpn.is_aligned(HUGE_PAGE_PAGES), "huge VPN must be 2MB-aligned");
        assert!(pfn.is_aligned(HUGE_PAGE_PAGES), "huge PFN must be 2MB-aligned");
        let mut node = &mut self.root;
        for level in 0..LEVELS - 2 {
            let idx = index_at(vpn, level);
            match node {
                Node::Interior { entries, children } => {
                    if children[idx].is_none() {
                        children[idx] = Some(Box::new(Node::interior()));
                        entries[idx] = PageTableEntry::new_table(PhysFrameNum::new(0));
                    }
                    node = children[idx].as_mut().expect("just ensured");
                }
                Node::Leaf { .. } => unreachable!("leaf node above PD level"),
            }
        }
        let idx = index_at(vpn, LEVELS - 2);
        match node {
            Node::Interior { entries, children } => {
                assert!(
                    !entries[idx].is_present() && children[idx].is_none(),
                    "2MB region at {vpn} already mapped"
                );
                entries[idx] = PageTableEntry::new_huge_leaf(pfn, perms);
                self.mapped_huge_pages += 1;
            }
            Node::Leaf { .. } => unreachable!(),
        }
    }

    /// Maps one 1 GB page at the PDPT level.
    ///
    /// # Panics
    ///
    /// Panics if `vpn`/`pfn` are not 1 GB-aligned or the slot is occupied.
    pub fn map_giant(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        assert!(vpn.is_aligned(GIANT_PAGE_PAGES), "giant VPN must be 1GB-aligned");
        assert!(pfn.is_aligned(GIANT_PAGE_PAGES), "giant PFN must be 1GB-aligned");
        let idx0 = index_at(vpn, 0);
        let node = match &mut self.root {
            Node::Interior { entries, children } => {
                if children[idx0].is_none() {
                    children[idx0] = Some(Box::new(Node::interior()));
                    entries[idx0] = PageTableEntry::new_table(PhysFrameNum::new(0));
                }
                children[idx0].as_mut().expect("just ensured")
            }
            Node::Leaf { .. } => unreachable!("root is interior"),
        };
        let idx = index_at(vpn, 1);
        match node.as_mut() {
            Node::Interior { entries, children } => {
                assert!(
                    !entries[idx].is_present() && children[idx].is_none(),
                    "1GB region at {vpn} already mapped"
                );
                entries[idx] = PageTableEntry::new_huge_leaf(pfn, perms);
                self.mapped_giant_pages += 1;
            }
            Node::Leaf { .. } => unreachable!(),
        }
    }

    /// Number of 1 GB leaf entries installed.
    #[must_use]
    pub fn mapped_giant_pages(&self) -> u64 {
        self.mapped_giant_pages
    }

    /// Looks a VPN up, returning the leaf translation if mapped.
    #[inline]
    #[must_use]
    pub fn lookup(&self, vpn: VirtPageNum) -> Option<LeafEntry> {
        self.lookup_with_depth(vpn).0
    }

    /// The radix descent: returns the leaf translation (if mapped) together
    /// with the number of page-table nodes a hardware walker touches — 4
    /// for a 4 KB leaf, 3 for a 2 MB leaf, 2 for a 1 GB leaf, and however
    /// far it got before finding a hole for unmapped addresses.
    #[must_use]
    pub fn lookup_with_depth(&self, vpn: VirtPageNum) -> (Option<LeafEntry>, u32) {
        let mut node = &self.root;
        let mut depth = 0;
        for level in 0..LEVELS {
            let idx = index_at(vpn, level);
            depth += 1;
            match node {
                Node::Interior { entries, children } => {
                    let e = entries[idx];
                    if !e.is_present() {
                        return (None, depth);
                    }
                    if e.is_huge() {
                        // PS bit at the PDPT level (1) = 1 GB leaf; at the
                        // PD level (2) = 2 MB leaf.
                        let size = if level == 1 { PageSize::Giant1G } else { PageSize::Huge2M };
                        let leaf = LeafEntry {
                            head_vpn: vpn.align_down(size.base_pages()),
                            head_pfn: e.pfn(),
                            size,
                            perms: e.permissions(),
                        };
                        return (Some(leaf), depth);
                    }
                    match children[idx].as_ref() {
                        Some(c) => node = c,
                        None => return (None, depth),
                    }
                }
                Node::Leaf { entries } => {
                    let e = entries[idx];
                    let leaf = e.is_present().then(|| LeafEntry {
                        head_vpn: vpn,
                        head_pfn: e.pfn(),
                        size: PageSize::Base4K,
                        perms: e.permissions(),
                    });
                    return (leaf, depth);
                }
            }
        }
        (None, depth)
    }

    fn pt_leaf_entries(&self, vpn: VirtPageNum) -> Option<&[PageTableEntry; ENTRIES]> {
        let mut node = &self.root;
        for level in 0..LEVELS - 1 {
            let idx = index_at(vpn, level);
            match node {
                Node::Interior { entries, children } => {
                    if entries[idx].is_huge() {
                        return None;
                    }
                    node = children[idx].as_ref()?;
                }
                Node::Leaf { .. } => return None,
            }
        }
        match node {
            Node::Leaf { entries } => Some(entries),
            Node::Interior { .. } => None,
        }
    }

    fn pt_leaf_entries_mut(&mut self, vpn: VirtPageNum) -> Option<&mut [PageTableEntry; ENTRIES]> {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = index_at(vpn, level);
            match node {
                Node::Interior { entries, children } => {
                    if entries[idx].is_huge() {
                        return None;
                    }
                    node = children[idx].as_mut()?;
                }
                Node::Leaf { .. } => return None,
            }
        }
        match node {
            Node::Leaf { entries } => Some(entries),
            Node::Interior { .. } => None,
        }
    }

    /// Returns the 64-byte PTE cache block covering `vpn` at the PT (4 KB
    /// leaf) level: the 8 entries for the aligned VPN group
    /// `[vpn & !7, vpn | 7]`. This is what a hardware coalescing engine
    /// (CoLT / cluster TLB) inspects "for free" after a walk, since the
    /// block arrives as one cache line. `None` when the region has no PT
    /// node (unmapped or covered by a 2 MB leaf).
    #[must_use]
    pub fn leaf_block(&self, vpn: VirtPageNum) -> Option<&[PageTableEntry]> {
        let entries = self.pt_leaf_entries(vpn)?;
        let idx = index_at(vpn, LEVELS - 1);
        let base = idx - idx % PTES_PER_CACHE_BLOCK;
        Some(&entries[base..base + PTES_PER_CACHE_BLOCK])
    }

    /// Reads the contiguity field anchored at `anchor_vpn`.
    ///
    /// For anchor distances ≥ 8 the field is distributed over the anchor's
    /// cache block; for smaller distances it lives in the anchor PTE's own
    /// 11 ignored bits. Returns `None` when no 4 KB PT node covers the
    /// anchor (e.g. the region is mapped by a 2 MB leaf or unmapped).
    #[must_use]
    pub fn read_anchor_contiguity(&self, anchor_vpn: VirtPageNum, distance: u64) -> Option<u64> {
        let entries = self.pt_leaf_entries(anchor_vpn)?;
        let idx = index_at(anchor_vpn, LEVELS - 1);
        if distance >= PTES_PER_CACHE_BLOCK as u64 {
            debug_assert_eq!(idx % PTES_PER_CACHE_BLOCK, 0, "anchor aligned to its cache block");
            let base = idx - idx % PTES_PER_CACHE_BLOCK;
            Some(read_distributed_contiguity(&entries[base..base + PTES_PER_CACHE_BLOCK]))
        } else {
            Some(entries[idx].ignored_bits())
        }
    }

    /// Writes the contiguity field anchored at `anchor_vpn`. Returns `false`
    /// when no 4 KB PT node covers the anchor.
    pub fn write_anchor_contiguity(
        &mut self,
        anchor_vpn: VirtPageNum,
        distance: u64,
        contiguity: u64,
    ) -> bool {
        let Some(entries) = self.pt_leaf_entries_mut(anchor_vpn) else {
            return false;
        };
        let idx = index_at(anchor_vpn, LEVELS - 1);
        if distance >= PTES_PER_CACHE_BLOCK as u64 {
            let base = idx - idx % PTES_PER_CACHE_BLOCK;
            write_distributed_contiguity(
                &mut entries[base..base + PTES_PER_CACHE_BLOCK],
                contiguity,
            );
        } else {
            entries[idx].set_ignored_bits(contiguity.min((1 << crate::ANCHOR_BITS_PER_PTE) - 1));
        }
        true
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;

    fn rw() -> Permissions {
        Permissions::READ_WRITE
    }

    #[test]
    fn unmapped_lookup_is_none() {
        let pt = PageTable::new();
        assert_eq!(pt.lookup(VirtPageNum::new(12345)), None);
        assert_eq!(pt.lookup_with_depth(VirtPageNum::new(12345)).1, 1);
    }

    #[test]
    fn map_and_lookup_4k() {
        let mut pt = PageTable::new();
        let vpn = VirtPageNum::new(0x0000_7f40_0000);
        pt.map(vpn, PhysFrameNum::new(42), rw());
        let leaf = pt.lookup(vpn).unwrap();
        assert_eq!(leaf.head_pfn, PhysFrameNum::new(42));
        assert_eq!(leaf.size, PageSize::Base4K);
        assert_eq!(leaf.pfn_for(vpn), PhysFrameNum::new(42));
        assert_eq!(pt.lookup_with_depth(vpn).1, 4);
        assert_eq!(pt.mapped_base_pages(), 1);
    }

    #[test]
    fn map_and_lookup_huge() {
        let mut pt = PageTable::new();
        let head = VirtPageNum::new(512 * 7);
        pt.map_huge(head, PhysFrameNum::new(512 * 3), rw());
        let inner = head + 100;
        let leaf = pt.lookup(inner).unwrap();
        assert_eq!(leaf.size, PageSize::Huge2M);
        assert_eq!(leaf.head_vpn, head);
        assert_eq!(leaf.pfn_for(inner), PhysFrameNum::new(512 * 3 + 100));
        assert_eq!(pt.lookup_with_depth(inner).1, 3);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(1), PhysFrameNum::new(1), rw());
        pt.map(VirtPageNum::new(1), PhysFrameNum::new(2), rw());
    }

    #[test]
    #[should_panic(expected = "2MB-aligned")]
    fn misaligned_huge_map_panics() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPageNum::new(5), PhysFrameNum::new(512), rw());
    }

    #[test]
    fn from_map_with_thp_installs_huge_leaves() {
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        map.map_range(VirtPageNum::new(2048), PhysFrameNum::new(4097), 100, rw());
        let pt = PageTable::from_map(&map, true);
        assert_eq!(pt.mapped_huge_pages(), 1);
        assert_eq!(pt.mapped_base_pages(), 100);
        assert_eq!(pt.lookup(VirtPageNum::new(700)).unwrap().size, PageSize::Huge2M);
        assert_eq!(pt.lookup(VirtPageNum::new(2050)).unwrap().size, PageSize::Base4K);
    }

    #[test]
    fn from_map_without_thp_is_all_base_pages() {
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        let pt = PageTable::from_map(&map, false);
        assert_eq!(pt.mapped_huge_pages(), 0);
        assert_eq!(pt.mapped_base_pages(), 512);
    }

    #[test]
    fn from_map_translations_match_map() {
        let map = Scenario::MediumContiguity.generate(2048, 3);
        let pt = PageTable::from_map(&map, true);
        for (vpn, pfn) in map.iter_pages() {
            let leaf = pt.lookup(vpn).unwrap_or_else(|| panic!("{vpn} unmapped"));
            assert_eq!(leaf.pfn_for(vpn), pfn, "at {vpn}");
        }
    }

    #[test]
    fn descent_depth_matches_leaf_level() {
        let map = Scenario::MediumContiguity.generate(4096, 9);
        let pt = PageTable::from_map(&map, true);
        // Mapped pages, their neighbours (often unmapped holes), and a few
        // far-out unmapped addresses.
        let probes = map
            .iter_pages()
            .map(|(vpn, _)| vpn)
            .flat_map(|vpn| [vpn, vpn + 1])
            .chain([VirtPageNum::new(0), VirtPageNum::new(1 << 30)]);
        for vpn in probes {
            let (leaf, depth) = pt.lookup_with_depth(vpn);
            assert_eq!(leaf.map(|l| l.pfn_for(vpn)), map.translate(vpn), "{vpn}");
            match leaf.map(|l| l.size) {
                Some(PageSize::Base4K) => assert_eq!(depth, 4, "{vpn}"),
                Some(size) => assert_eq!((size, depth), (PageSize::Huge2M, 3), "{vpn}"),
                None => assert!((1..=4).contains(&depth), "{vpn}: depth {depth}"),
            }
        }
        let mut giant = PageTable::new();
        giant.map_giant(VirtPageNum::new(0), PhysFrameNum::new(0), rw());
        let (leaf, depth) = giant.lookup_with_depth(VirtPageNum::new(77));
        assert_eq!((leaf.map(|l| l.size), depth), (Some(PageSize::Giant1G), 2));
    }

    #[test]
    fn anchor_contiguity_roundtrip_large_distance() {
        let mut pt = PageTable::new();
        for i in 0..16 {
            pt.map(VirtPageNum::new(i), PhysFrameNum::new(100 + i), rw());
        }
        assert!(pt.write_anchor_contiguity(VirtPageNum::new(0), 8, 12_345));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), Some(12_345));
        assert!(pt.write_anchor_contiguity(VirtPageNum::new(8), 8, 3));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(8), 8), Some(3));
    }

    #[test]
    fn anchor_contiguity_small_distance_uses_own_pte() {
        let mut pt = PageTable::new();
        for i in 0..8 {
            pt.map(VirtPageNum::new(i), PhysFrameNum::new(100 + i), rw());
        }
        for anchor in (0..8).step_by(4) {
            assert!(pt.write_anchor_contiguity(VirtPageNum::new(anchor), 4, anchor + 1));
        }
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 4), Some(1));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(4), 4), Some(5));
    }

    #[test]
    fn anchor_contiguity_unmapped_region_is_none() {
        let pt = PageTable::new();
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), None);
        let mut pt = pt;
        assert!(!pt.write_anchor_contiguity(VirtPageNum::new(0), 8, 5));
    }

    #[test]
    fn anchor_contiguity_under_huge_leaf_is_none() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPageNum::new(0), PhysFrameNum::new(0), rw());
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), None);
    }
}
