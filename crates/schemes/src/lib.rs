//! The translation pipeline and the competing schemes of the paper's
//! evaluation.
//!
//! Every scheme (including the hybrid-coalescing scheme in `hytlb-core`) is
//! an [`Mmu`] around one [`L2Stage`]. The `Mmu` owns the L1, the shared L2
//! array, the page walker, the Table 3 latency model and the statistics,
//! and runs the one access sequence: L1 → L2 4 KB → L2 2 MB → the stage's
//! coalesced probe → page walk → the stage's fill. A stage supplies only
//! what sets its scheme apart. Every `Mmu` implements
//! [`TranslationScheme`]: feed it a stream of virtual addresses and it
//! reports, per access, which structure resolved the translation and how
//! many cycles it cost.
//!
//! Schemes provided here:
//!
//! * [`BaselineScheme`] — 4 KB pages only, 1024-entry 8-way shared L2.
//! * [`ThpScheme`] — transparent huge pages: 4 KB + 2 MB entries share the
//!   L2 array.
//! * [`Thp1GScheme`] — THP plus 1 GB pages in a separate 16-entry TLB.
//! * [`ClusterScheme`] — cluster TLB (Pham et al. HPCA'14): the L2 is
//!   partitioned into a 768-entry 6-way regular array and a 320-entry 5-way
//!   cluster-8 array; optionally (`cluster-2MB`) the regular array also
//!   holds 2 MB entries.
//! * [`ColtScheme`] — CoLT (Pham et al. MICRO'12): contiguous runs inside
//!   an 8-page window, optionally plus a fully-associative run array.
//! * [`RmmScheme`] — redundant memory mapping (Karakostas et al. ISCA'15):
//!   baseline L2 plus a 32-entry fully-associative range TLB.
//!
//! The [`SharedL2`] helper implements the mixed-entry L2 array with the
//! paper's indexing rules (Figure 6), shared with `hytlb-core`'s anchor
//! scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod colt;
mod mmu;
mod paged;
mod rmm;
mod scheme;
mod shared_l2;
mod thp1g;

pub use cluster::{ClusterScheme, ClusterStage, CLUSTER_SPAN};
pub use colt::{ColtScheme, ColtStage};
pub use mmu::{L2Stage, Mmu, Probe};
pub use paged::{BaselineScheme, PagedStage, ThpScheme};
pub use rmm::{RmmScheme, RmmStage};
pub use scheme::{
    AccessResult, BatchFault, LatencyModel, SchemeStats, TranslationPath, TranslationScheme,
};
pub use shared_l2::{AnchorHit, AnchorIndexing, SharedL2};
pub use thp1g::{Thp1GScheme, Thp1GStage};
