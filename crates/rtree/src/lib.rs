//! # cbb-rtree — disk-style R-tree framework with four variants
//!
//! Re-implementation of the index substrate the paper evaluates on
//! (the C benchmark of Beckmann & Seeger \[33\]): a paged R-tree with the
//! four variants of §V-A —
//!
//! * **QR-tree** — Guttman's original with quadratic split;
//! * **HR-tree** — Hilbert R-tree (Hilbert-sort bulk loading; dynamic
//!   inserts ordered by Hilbert value with 2-to-3 sibling splits);
//! * **R\*-tree** — Beckmann et al. 1990 (overlap-aware choose-subtree,
//!   margin-driven split, forced reinsertion);
//! * **RR\*-tree** — the revised R\*-tree of Beckmann & Seeger 2009
//!   (covering-aware choose-subtree, perimeter goal functions, no
//!   reinsertion).
//!
//! Plus STR bulk loading as an extra baseline, per-node quality metrics
//! (overlap, dead space — Figure 1), instrumented queries counting leaf
//! accesses (the paper's I/O metric), and the **clipped** plug-in
//! ([`clipped`]) that attaches the CBB auxiliary structure of §IV to any
//! variant without altering the base tree.

#![forbid(unsafe_code)]

pub mod clipped;
pub mod config;
pub mod hilbert;
pub mod metrics;
pub mod node;
pub mod query;
pub mod stats;
pub mod tree;
pub mod validate;
pub mod variants;

pub use clipped::ClippedRTree;
pub use config::{TreeConfig, Variant};
pub use node::{Child, DataId, Entry, Node, NodeId};
pub use query::{push_neighbor, Neighbor};
pub use stats::AccessStats;
pub use tree::RTree;

// Parallel executors (cbb-engine) share immutable trees across worker
// threads; keep that property guarded at compile time so no interior
// mutability sneaks into the index types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree<2>>();
    assert_send_sync::<RTree<3>>();
    assert_send_sync::<ClippedRTree<2>>();
    assert_send_sync::<ClippedRTree<3>>();
    assert_send_sync::<AccessStats>();
    assert_send_sync::<TreeConfig<2>>();
};
