//! # clipped-bbox — Clipping Minimum Bounding Boxes
//!
//! A complete Rust reproduction of *"Improving Spatial Data Processing by
//! Clipping Minimum Bounding Boxes"* (Šidlauskas, Chester, Tzirita
//! Zacharatou, Ailamaki — ICDE 2018).
//!
//! Minimum bounding boxes waste most of their volume on *dead space*.
//! This library augments each MBB with a handful of **clip points** — a
//! point plus a corner mask declaring a rectangular corner region empty —
//! and plugs them into four R-tree variants (Guttman quadratic, Hilbert,
//! R\*, revised R\*) as a pure side-table: the base index layout is
//! untouched, queries gain one cheap dominance test per visited child, and
//! leaf I/O drops by double-digit percentages.
//!
//! ## Quick start
//!
//! ```
//! use clipped_bbox::prelude::*;
//!
//! // Index a few boxes with an R*-tree.
//! let mut tree: RTree<2> = RTree::new(TreeConfig::paper_default(Variant::RStar));
//! for (i, (x, y)) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
//!     let b = Rect::new(Point([*x, *y]), Point([x + 1.0, y + 1.0]));
//!     tree.insert(b, DataId(i as u32));
//! }
//!
//! // Attach clipped bounding boxes (stairline flavour, paper defaults).
//! let clipped = ClippedRTree::from_tree(
//!     tree,
//!     ClipConfig::paper_default::<2>(ClipMethod::Stairline),
//! );
//!
//! // Clipped queries return exactly the same results with fewer I/Os.
//! let q = Rect::new(Point([-1.0, -1.0]), Point([2.0, 2.0]));
//! assert_eq!(clipped.range_query(&q), vec![DataId(0)]);
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`geom`] | `cbb-geom` | points, rects, corner masks, dominance, union volumes |
//! | [`core`] | `cbb-core` | skylines, stairlines, Algorithm 1 & 2, [`Cbb`](core::Cbb) |
//! | [`rtree`] | `cbb-rtree` | the four variants, metrics, the clipped plug-in |
//! | [`storage`] | `cbb-storage` | pages, codecs, buffer pool, disk trees |
//! | [`datasets`] | `cbb-datasets` | the seven benchmark dataset stand-ins + queries |
//! | [`bounding`] | `cbb-bounding` | MBC / RMBB / k-corner / hull comparisons |
//! | [`joins`] | `cbb-joins` | INLJ, STT and plane-sweep spatial joins |
//! | [`engine`] | `cbb-engine` | parallel partitioned join + batched query execution |
//! | [`serve`] | `cbb-serve` | async query service: request queue → micro-batched executor |
//! | [`telemetry`] | `cbb-telemetry` | metrics registry, phase tracing, slow-query ring, scrape exposition |

#![forbid(unsafe_code)]

pub use cbb_bounding as bounding;
pub use cbb_core as core;
pub use cbb_datasets as datasets;
pub use cbb_engine as engine;
pub use cbb_geom as geom;
pub use cbb_joins as joins;
pub use cbb_rtree as rtree;
pub use cbb_serve as serve;
pub use cbb_storage as storage;
pub use cbb_telemetry as telemetry;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use cbb_core::{Cbb, ClipConfig, ClipMethod, ClipPoint};
    pub use cbb_engine::{
        partitioned_join, partitioned_join_forests, partitioned_join_with, AdaptiveGrid,
        AnyPartitioner, BatchOutcome, Catalog, CatalogError, DataVersion, DatasetId, DatasetStore,
        JoinAlgo, JoinPlan, KnnOutcome, Partitioner, QuadtreePartitioner, SplitPolicy, TileForest,
        Update, UpdateOutcome, UpdateResult,
    };
    pub use cbb_geom::{CornerMask, Point, Rect};
    pub use cbb_joins::JoinResult;
    pub use cbb_rtree::{
        AccessStats, ClippedRTree, DataId, Neighbor, NodeId, RTree, TreeConfig, Variant,
    };
    pub use cbb_serve::{
        DatasetReport, Request, RequestError, RequestKind, Response, Scrape, ServiceBuilder,
        ServiceReport, ShardMap, ShardTiling, ShardedService, UpdateSummary, DEFAULT_DATASET,
    };
    pub use cbb_telemetry::{
        Histogram, HistogramSnapshot, Phase, Registry, SlowQuery, SlowQueryRing, Span,
        TelemetryConfig, TelemetrySnapshot,
    };
}
