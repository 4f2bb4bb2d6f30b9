//! The one way to start a service: named knobs, then
//! [`ServiceBuilder::build`] (one dataset) or
//! [`ServiceBuilder::build_catalog`] (empty catalog). Both return a
//! [`ShardedService`]; one shard (the default) *is* the unsharded
//! deployment — the router is a pass-through to its single shard.
//!
//! The knobs size and place work — shards, queue, batching,
//! dispatchers, workers, compaction, telemetry, durability. None picks
//! an algorithm: every range batch is answered by clipped descents and
//! every join tile is swept.
//!
//! ```no_run
//! use cbb_serve::{ServiceBuilder, ShardFitting};
//! # use cbb_core::{ClipConfig, ClipMethod};
//! # use cbb_engine::UniformGrid;
//! # use cbb_geom::{Point, Rect};
//! # use cbb_rtree::{TreeConfig, Variant};
//! # let (partitioner, objects) = (
//! #     UniformGrid::new(Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0])), 2),
//! #     vec![],
//! # );
//! let service = ServiceBuilder::new()
//!     .shards(4)
//!     .shard_fitting(ShardFitting::Fitted)
//!     .batch_max(32)
//!     .build(
//!         partitioner,
//!         objects,
//!         TreeConfig::tiny(Variant::RStar),
//!         ClipConfig::paper_default::<2>(ClipMethod::Stairline),
//!     );
//! ```

use std::path::Path;
use std::time::Duration;

use cbb_core::ClipConfig;
use cbb_engine::{CompactionPolicy, Partitioner};
use cbb_geom::Rect;
use cbb_rtree::TreeConfig;
use cbb_telemetry::TelemetryConfig;

use crate::durability::DurabilityConfig;
use crate::router::{ShardFitting, ShardedService};
use crate::service::ServiceConfig;

/// Fluent configuration for a (sharded) query service. Start from
/// [`ServiceBuilder::new`] (all defaults) or
/// [`ServiceBuilder::from_config`] (an existing [`ServiceConfig`]),
/// then finish with [`Self::build`] or [`Self::build_catalog`].
#[derive(Clone, Debug, Default)]
pub struct ServiceBuilder {
    config: ServiceConfig,
    shards: usize,
    fitting: ShardFitting,
}

impl ServiceBuilder {
    /// Defaults: one shard, [`ServiceConfig::default`] for everything
    /// else.
    pub fn new() -> Self {
        ServiceBuilder {
            config: ServiceConfig::default(),
            shards: 1,
            fitting: ShardFitting::default(),
        }
    }

    /// Start from an existing [`ServiceConfig`] (one shard).
    pub fn from_config(config: ServiceConfig) -> Self {
        ServiceBuilder {
            config,
            shards: 1,
            fitting: ShardFitting::default(),
        }
    }

    /// Number of shards (≥ 1; default 1). Every shard is a full query
    /// service with its own catalog, queue and dispatchers — the
    /// queue/batching knobs below apply *per shard*.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// How dataset tiles are cut into shard ranges (default
    /// [`ShardFitting::Balanced`]).
    pub fn shard_fitting(mut self, fitting: ShardFitting) -> Self {
        self.fitting = fitting;
        self
    }

    /// Per-shard admission bound (see
    /// [`ServiceConfig::queue_capacity`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Micro-batch size cap (see [`ServiceConfig::batch_max`]).
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// How long a non-full micro-batch waits for stragglers; zero (the
    /// default) takes the queued backlog and goes. See
    /// [`ServiceConfig::batch_deadline`] for when to set it.
    pub fn batch_deadline(mut self, deadline: Duration) -> Self {
        self.config.batch_deadline = deadline;
        self
    }

    /// Per-request execution: every batch holds exactly one request
    /// (see [`ServiceConfig::unbatched`]).
    pub fn unbatched(mut self) -> Self {
        self.config.batch_max = 1;
        self.config.batch_deadline = Duration::ZERO;
        self
    }

    /// Dispatcher threads per shard (see
    /// [`ServiceConfig::dispatchers`]); the router sizes its gather
    /// pool to match.
    pub fn dispatchers(mut self, dispatchers: usize) -> Self {
        self.config.dispatchers = dispatchers;
        self
    }

    /// Worker threads inside one batch execution (see
    /// [`ServiceConfig::exec_workers`]).
    pub fn exec_workers(mut self, workers: usize) -> Self {
        self.config.exec_workers = workers;
        self
    }

    /// Arena compaction policy for every store (see
    /// [`ServiceConfig::compaction`]).
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.config.compaction = policy;
        self
    }

    /// Telemetry collection (see [`ServiceConfig::telemetry`]).
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Persist every dataset under `root` as snapshot + write-ahead
    /// log, and recover the catalog from there on start (see
    /// [`ServiceConfig::durability`] and the [`crate::durability`]
    /// module docs). Off by default.
    pub fn durability(mut self, root: impl AsRef<Path>) -> Self {
        self.config.durability = Some(DurabilityConfig::new(root.as_ref()));
        self
    }

    /// WAL size past which a dataset's log is checkpointed into a
    /// fresh snapshot (see [`DurabilityConfig::checkpoint_bytes`]).
    /// Call [`Self::durability`] first.
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        let durable = self
            .config
            .durability
            .as_mut()
            .expect("call durability(root) before checkpoint_bytes");
        durable.checkpoint_bytes = bytes;
        self
    }

    /// The assembled per-shard [`ServiceConfig`].
    pub fn config(&self) -> ServiceConfig {
        self.config.clone()
    }

    /// Start with an **empty catalog**.
    ///
    /// With [`Self::durability`] set, shard `i` persists under
    /// `<root>/shard_<i>/`, and a catalog a previous run left there is
    /// recovered before the first request is admitted (see
    /// [`crate::durability`]).
    pub fn build_catalog<const D: usize, P>(
        self,
        tree: TreeConfig<D>,
        clip: ClipConfig,
    ) -> ShardedService<D, P>
    where
        P: Partitioner<D>
            + cbb_engine::PersistPartitioner
            + Clone
            + PartialEq
            + std::fmt::Debug
            + Send
            + Sync
            + 'static,
    {
        ShardedService::start_catalog(self.config, self.shards, self.fitting, tree, clip)
    }

    /// Start with one dataset named [`crate::DEFAULT_DATASET`] built
    /// from `objects`. A default dataset recovered from durable state
    /// wins over `partitioner` and `objects`.
    pub fn build<const D: usize, P>(
        self,
        partitioner: P,
        objects: Vec<Rect<D>>,
        tree: TreeConfig<D>,
        clip: ClipConfig,
    ) -> ShardedService<D, P>
    where
        P: Partitioner<D>
            + cbb_engine::PersistPartitioner
            + Clone
            + PartialEq
            + std::fmt::Debug
            + Send
            + Sync
            + 'static,
    {
        ShardedService::start(
            self.config,
            self.shards,
            self.fitting,
            partitioner,
            objects,
            tree,
            clip,
        )
    }
}
