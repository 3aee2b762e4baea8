//! The common scheme interface and the Table 3 latency model.

use hytlb_tlb::TlbGeometry;
use hytlb_types::{Cycles, PhysFrameNum, VirtAddr};

/// The timing model of the paper's Table 3.
///
/// L1 TLB hits are free (the L1 TLB is accessed in parallel with the L1
/// cache); regular L2 hits cost 7 cycles; coalesced hits (anchor, cluster or
/// range TLB) cost 8; a page-table walk costs 50.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyModel {
    /// Regular L2 TLB hit latency.
    pub l2_hit: Cycles,
    /// Anchor / cluster / range TLB hit latency.
    pub coalesced_hit: Cycles,
    /// Page-table walk latency.
    pub walk: Cycles,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l2_hit: Cycles::new(7),
            coalesced_hit: Cycles::new(8),
            walk: Cycles::new(50),
        }
    }
}

/// Which structure resolved (or failed to resolve) one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TranslationPath {
    /// Hit in the L1 TLB (latency hidden).
    L1Hit,
    /// Hit on a regular (4 KB or 2 MB) L2 entry.
    L2RegularHit,
    /// Hit on a coalesced entry: anchor, cluster or range.
    CoalescedHit,
    /// L2 miss resolved by a page-table walk.
    Walk,
    /// The address is not mapped at all (should not occur in well-formed
    /// experiments; counted separately so it can never masquerade as data).
    Fault,
}

/// The outcome of a single address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The structure that produced the translation.
    pub path: TranslationPath,
    /// Cycles charged for this access.
    pub cycles: Cycles,
    /// The translated frame, `None` on fault.
    pub pfn: Option<PhysFrameNum>,
}

/// Per-scheme accumulated statistics.
///
/// The paper's headline metric, "TLB misses", is [`SchemeStats::walks`]:
/// translations that had to walk the page table. Table 5's breakdown of L2
/// accesses is `l2_regular_hits` / `coalesced_hits` / `walks` over
/// [`SchemeStats::l2_accesses`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SchemeStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Resolved by the L1 TLB.
    pub l1_hits: u64,
    /// Resolved by a regular (4 KB / 2 MB) L2 entry.
    pub l2_regular_hits: u64,
    /// Resolved by a coalesced entry (anchor / cluster / range).
    pub coalesced_hits: u64,
    /// Resolved by a page-table walk — the paper's "TLB misses".
    pub walks: u64,
    /// Unmapped addresses encountered.
    pub faults: u64,
    /// Total translation cycles.
    pub cycles: Cycles,
}

impl SchemeStats {
    /// Accesses that reached the L2 structures (= L1 misses).
    #[must_use]
    pub fn l2_accesses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// Fraction of L2 accesses resolved by regular entries (Table 5
    /// "R.hit").
    #[must_use]
    pub fn l2_regular_hit_rate(&self) -> f64 {
        ratio(self.l2_regular_hits, self.l2_accesses())
    }

    /// Fraction of L2 accesses resolved by coalesced entries (Table 5
    /// "A.hit" for the anchor scheme).
    #[must_use]
    pub fn l2_coalesced_hit_rate(&self) -> f64 {
        ratio(self.coalesced_hits, self.l2_accesses())
    }

    /// Fraction of L2 accesses that missed everything (Table 5 "L2 miss").
    #[must_use]
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.walks + self.faults, self.l2_accesses())
    }

    /// Records one access outcome.
    pub fn record(&mut self, result: AccessResult) {
        self.accesses += 1;
        self.cycles += result.cycles;
        match result.path {
            TranslationPath::L1Hit => self.l1_hits += 1,
            TranslationPath::L2RegularHit => self.l2_regular_hits += 1,
            TranslationPath::CoalescedHit => self.coalesced_hits += 1,
            TranslationPath::Walk => self.walks += 1,
            TranslationPath::Fault => self.faults += 1,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An unmapped address hit inside [`TranslationScheme::access_batch`].
///
/// Identifies the first faulting access so the engine can surface the same
/// error the scalar path would have produced at that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFault {
    /// Position of the faulting address within the batch slice.
    pub index: usize,
    /// The virtual address that failed to translate.
    pub vaddr: VirtAddr,
}

/// A complete address-translation scheme: L1 TLB + L2 structures + walker.
///
/// Every scheme is an [`Mmu`](crate::Mmu) around its own
/// [`L2Stage`](crate::L2Stage); the simulation engine drives it with raw
/// virtual addresses. Schemes
/// are `Send` so experiment matrices can run cells on worker threads.
pub trait TranslationScheme: Send {
    /// Short scheme label as used in the paper's figures ("Base", "THP",
    /// "Cluster", "Cluster-2MB", "RMM", "Dynamic", "Static Ideal").
    fn name(&self) -> &str;

    /// Translates one virtual address, updating TLB state and statistics.
    fn access(&mut self, vaddr: VirtAddr) -> AccessResult;

    /// Translates a batch of virtual addresses, stopping at the first
    /// unmapped one. Statistics accumulate exactly as if each address had
    /// been passed to [`TranslationScheme::access`] in order. The default
    /// body is monomorphized per implementor, so behind a
    /// `dyn TranslationScheme` a whole batch costs one virtual call and
    /// every `access` inside it is statically dispatched.
    fn access_batch(&mut self, vaddrs: &[VirtAddr]) -> Result<(), BatchFault> {
        for (index, &vaddr) in vaddrs.iter().enumerate() {
            let result = self.access(vaddr);
            if result.pfn.is_none() {
                return Err(BatchFault { index, vaddr });
            }
        }
        Ok(())
    }

    /// Accumulated statistics.
    fn stats(&self) -> &SchemeStats;

    /// Notifies the scheme that an epoch boundary passed (the paper checks
    /// memory mappings every billion instructions). Only the dynamic anchor
    /// scheme reacts; the default is a no-op.
    fn on_epoch(&mut self) {}

    /// Flushes all TLB state (context switch / shootdown).
    fn flush(&mut self);

    /// The anchor distance currently in effect, for schemes that have one
    /// (Table 6 reports it). Non-anchor schemes return `None`.
    fn anchor_distance(&self) -> Option<u64> {
        None
    }

    /// Geometries of every TLB structure this scheme instantiates, so
    /// `hytlb-audit -- invariants` can verify the architectural constraints
    /// (power-of-two set counts, index masks covering the index bits)
    /// without reaching into scheme internals. Default: no structures.
    fn geometries(&self) -> Vec<TlbGeometry> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_table3() {
        let m = LatencyModel::default();
        assert_eq!(m.l2_hit, Cycles::new(7));
        assert_eq!(m.coalesced_hit, Cycles::new(8));
        assert_eq!(m.walk, Cycles::new(50));
    }

    #[test]
    fn stats_record_and_rates() {
        let mut s = SchemeStats::default();
        let mk = |path, cyc| AccessResult {
            path,
            cycles: Cycles::new(cyc),
            pfn: Some(PhysFrameNum::new(0)),
        };
        s.record(mk(TranslationPath::L1Hit, 0));
        s.record(mk(TranslationPath::L2RegularHit, 7));
        s.record(mk(TranslationPath::CoalescedHit, 8));
        s.record(mk(TranslationPath::Walk, 50));
        assert_eq!(s.accesses, 4);
        assert_eq!(s.l2_accesses(), 3);
        assert!((s.l2_regular_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.l2_coalesced_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.cycles, Cycles::new(65));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = SchemeStats::default();
        assert_eq!(s.l2_miss_rate(), 0.0);
        assert_eq!(s.l2_regular_hit_rate(), 0.0);
    }
}
