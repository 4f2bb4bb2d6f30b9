//! # cbb-engine — parallel partitioned query/join execution
//!
//! The paper's clipping cuts leaf I/O per *probe*; this crate adds the
//! throughput layer above it: spatial partitioning and multi-threaded
//! execution, with every per-tile probe still benefiting from clip-point
//! pruning. Its modules:
//!
//! * [`partition`] — a PBSM-style uniform grid ([`UniformGrid`]):
//!   rectangles are multi-assigned to every tile they overlap, and
//!   reference-point ownership makes downstream dedup exact (after Aji et
//!   al., *Effective Spatial Data Partitioning for Scalable Query
//!   Processing*).
//! * [`join`] — the partitioned parallel join ([`partitioned_join`]):
//!   every tile is joined by one kernel, a plane sweep over the
//!   columnar [`cbb_joins::TileColumns`] layout (cached per tile on a
//!   prebuilt forest), on the worker pool with dynamic tile
//!   scheduling, counters merged via `AddAssign` (after Tsitsigkos et
//!   al., *Parallel In-Memory Evaluation of Spatial Joins*). Pair
//!   counts are exactly those of a sequential join.
//! * [`batch`] — the [`TileForest`] (one clipped R-tree per non-empty
//!   tile) and the outcomes of batched range and kNN queries, which
//!   [`DatasetStore::run`] answers across workers in workload order,
//!   [`cbb_rtree::AccessStats`] merged.
//! * [`update`] — the write side: [`Update`] batches applied through
//!   [`DatasetStore::apply_updates`] route each object to its covering
//!   tiles, and maintain the per-tile clipped trees incrementally
//!   (§IV-D) in place: a versioned store instead of a rebuild-per-change
//!   snapshot. A tile is copied only while someone else still holds the
//!   previous [`TileForest`].
//! * [`catalog`] — the multi-dataset layer: the mutable versioned
//!   [`DatasetStore`] (arena, liveness, free-slot compaction,
//!   per-dataset [`DataVersion`]) and the [`Catalog`] mapping
//!   [`DatasetId`]s to independently locked stores, each with its own
//!   partitioner ([`AnyPartitioner`] mixes kinds in one catalog).
//!   Cross-dataset joins borrow both sides' cached forests
//!   ([`partitioned_join_forests`]).
//! * [`persist`] — dataset durability codecs: full-store snapshots
//!   through the `cbb-storage` page layer (arena pages reuse the
//!   paper's Figure-4a node encoding) and per-batch WAL records with
//!   version-keyed idempotent replay ([`replay_update_batch`]), so the
//!   serve layer can recover a catalog after a crash.
//!
//! Everything runs on one persistent worker pool ([`pool`]): a
//! process-wide set of `available_parallelism() − 1` parked threads,
//! started on first use, plus the calling thread, which always works on
//! its own call. `workers` arguments throughout the crate count
//! *logical* chunks, so results and counters do not depend on the core
//! count. A panicking task surfaces on the caller (`engine worker
//! panicked`) and leaves the pool intact; nested and concurrent calls
//! cannot deadlock. No runtime, no external dependencies.
//!
//! ```
//! use cbb_core::{ClipConfig, ClipMethod};
//! use cbb_engine::{partitioned_join, JoinPlan, UniformGrid};
//! use cbb_geom::{Point, Rect};
//! use cbb_rtree::{TreeConfig, Variant};
//!
//! let r = |x: f64, y: f64| Rect::new(Point([x, y]), Point([x + 2.0, y + 2.0]));
//! let left = vec![r(0.0, 0.0), r(5.0, 5.0), r(9.0, 9.0)];
//! let right = vec![r(1.0, 1.0), r(8.5, 8.5)];
//! let plan = JoinPlan::new(
//!     UniformGrid::new(Rect::new(Point([0.0, 0.0]), Point([12.0, 12.0])), 2),
//!     TreeConfig::tiny(Variant::RStar),
//!     ClipConfig::paper_default::<2>(ClipMethod::Stairline),
//!     2,
//! );
//! assert_eq!(partitioned_join(&plan, &left, &right).pairs, 2);
//! ```

#![deny(unsafe_code)]

pub mod adaptive;
pub mod batch;
pub mod catalog;
pub mod join;
pub mod partition;
pub mod persist;
pub mod pool;
pub mod quadtree;
pub mod shard;
pub mod update;

pub use adaptive::AdaptiveGrid;
pub use batch::{BatchOutcome, KnnOutcome, QueryAlgo, TileForest};
pub use catalog::{
    Catalog, CatalogError, CompactionPolicy, Dataset, DatasetId, DatasetStore,
    DEFAULT_COMPACT_DEAD_FRACTION,
};
pub use join::{
    partitioned_join, partitioned_join_forests, partitioned_join_with, sequential_join, AutoPolicy,
    JoinAlgo, JoinPlan, SplitPolicy,
};
pub use partition::{load_imbalance, AnyPartitioner, DataVersion, Partitioner, UniformGrid};
pub use persist::{
    decode_update_batch, encode_update_batch, read_snapshot, replay_update_batch, restore_store,
    write_snapshot, ByteReader, PersistError, PersistPartitioner, SnapshotContents,
};
pub use quadtree::QuadtreePartitioner;
pub use shard::{assignment_loads, merge_knn, ShardMap, ShardTiling};
pub use update::{Update, UpdateOutcome, UpdateResult};
