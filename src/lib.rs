#![doc = include_str!("../README.md")]
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
