//! The one way to start a service: named knobs, then
//! [`ServiceBuilder::build`] (one dataset) or
//! [`ServiceBuilder::build_catalog`] (empty catalog). Both return a
//! [`ShardedService`]; one shard (the default) *is* the unsharded
//! deployment — the router is a pass-through to its single shard.
//!
//! The knobs size and place work — shards, batching, dispatchers,
//! workers, telemetry, durability. None picks an algorithm: every
//! range batch is answered by clipped descents and every join tile is
//! swept. They are the only way to configure a service.
//!
//! ```no_run
//! use cbb_serve::ServiceBuilder;
//! # use cbb_core::{ClipConfig, ClipMethod};
//! # use cbb_engine::AdaptiveGrid;
//! # use cbb_geom::{Point, Rect};
//! # use cbb_rtree::{TreeConfig, Variant};
//! # let world = Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0]));
//! # let (partitioner, objects) = (AdaptiveGrid::from_sample(world, [2, 2], &[]), vec![]);
//! let service = ServiceBuilder::new()
//!     .shards(4)
//!     .batch_max(32)
//!     .build(
//!         partitioner,
//!         objects,
//!         TreeConfig::tiny(Variant::RStar),
//!         ClipConfig::paper_default::<2>(ClipMethod::Stairline),
//!     );
//! ```

use std::path::{Path, PathBuf};
use std::time::Duration;

use cbb_core::ClipConfig;
use cbb_engine::Partitioner;
use cbb_geom::Rect;
use cbb_rtree::TreeConfig;
use cbb_telemetry::TelemetryConfig;

use crate::durability::{DurabilityConfig, DEFAULT_CHECKPOINT_BYTES};
use crate::router::ShardedService;
use crate::service::ServiceConfig;

/// Fluent configuration for a (sharded) query service. Start from
/// [`ServiceBuilder::new`] (all defaults), set knobs in any order, then
/// finish with [`Self::build`] or [`Self::build_catalog`].
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    /// Per-shard knobs; `durability` stays `None` until [`Self::finish`].
    config: ServiceConfig,
    shards: usize,
    durable_root: Option<PathBuf>,
    checkpoint_bytes: u64,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// Defaults: one shard, micro-batches of up to 64 requests with a
    /// zero deadline, one dispatcher, 4 exec workers, telemetry on,
    /// durability off (4 MiB checkpoint threshold once it is turned
    /// on).
    pub fn new() -> Self {
        ServiceBuilder {
            config: ServiceConfig::default(),
            shards: 1,
            durable_root: None,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
        }
    }

    /// Number of shards (≥ 1; default 1). Every shard is a full query
    /// service with its own catalog, queue and dispatchers — the
    /// batching knobs below apply *per shard*. Each dataset's tiles
    /// are cut into near-equal contiguous shard ranges
    /// ([`cbb_engine::ShardMap::balanced`]). A sharded service is
    /// in-memory only: more than one shard together with
    /// [`Self::durability`] panics at build. See [`ShardedService`]
    /// for how answers merge and what stays consistent.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Flush a micro-batch at this many requests (≥ 1; default 64).
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// How long a non-full micro-batch stays open for stragglers after
    /// it opened — the latency batching is allowed to add. The default
    /// is **zero** (natural batching): a batch is the backlog that
    /// queued up while the previous one executed, so batches fill under
    /// load and a lone request is answered at once. Set it only when a
    /// batch's fixed cost dwarfs the wait and arrivals are too sparse
    /// to queue up by themselves — e.g. durable writes, to share one
    /// `fsync` among more of them.
    pub fn batch_deadline(mut self, deadline: Duration) -> Self {
        self.config.batch_deadline = deadline;
        self
    }

    /// Per-request execution, the no-batching baseline: every batch
    /// holds exactly one request (`batch_max` 1, zero deadline).
    pub fn unbatched(mut self) -> Self {
        self.config.batch_max = 1;
        self.config.batch_deadline = Duration::ZERO;
        self
    }

    /// Dispatcher threads per shard forming and executing batches
    /// (≥ 1; default 1); the router sizes its gather pool to match.
    pub fn dispatchers(mut self, dispatchers: usize) -> Self {
        self.config.dispatchers = dispatchers;
        self
    }

    /// Logical chunks the executor splits one batch into (default 4).
    /// They run on the engine's persistent pool ([`cbb_engine::pool`]),
    /// so answers and counters do not depend on it or on the core
    /// count.
    pub fn exec_workers(mut self, workers: usize) -> Self {
        self.config.exec_workers = workers;
        self
    }

    /// Telemetry collection (enabled by default). With
    /// [`TelemetryConfig::disabled`] every instrumentation point is a
    /// no-op: answers are identical, every scrape is empty, and
    /// [`crate::ServiceReport`] counters read zero.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Persist every dataset directly under `root` as snapshot +
    /// write-ahead log, and recover the catalog from there on start.
    /// Off by default (the service is in-memory only). Durability is
    /// one-shard: [`Self::build`] and [`Self::build_catalog`] panic
    /// when it is combined with [`Self::shards`] above 1, before
    /// anything is created under `root`.
    ///
    /// `root` holds, per dataset:
    ///
    /// * `ds_<id>.snap` — a full-store snapshot in the `cbb-storage`
    ///   page format ([`cbb_engine::write_snapshot`]), rewritten
    ///   atomically (temp file + rename) on creation, on `SwapData`,
    ///   and on checkpoint.
    /// * `ds_<id>.wal` — a checksummed, length-prefixed log
    ///   ([`cbb_storage::WalWriter`]) of coalesced update
    ///   micro-batches: **one applied batch = one version bump = one
    ///   WAL record**, appended and fsynced *before* any waiter of
    ///   that batch is woken (group commit — the batch that amortises
    ///   index maintenance also amortises the fsync).
    ///
    /// A third file, `catalog.wal`, logs dataset lifecycle (`Create` /
    /// `Drop`) so recovery knows which ids are live and under what
    /// names. Creation persists the dataset's snapshot *before* its
    /// `Create` record — a crash in between leaves an orphan snapshot
    /// that recovery deletes, never a live dataset without bytes.
    ///
    /// **Recovery.** On start, before the first request is admitted,
    /// the service replays `catalog.wal`'s valid prefix and, for each
    /// live dataset, loads the snapshot, rebuilds the tile forest, and
    /// replays the WAL tail. Replay is **idempotent by version** ([`cbb_engine::replay_update_batch`]):
    /// records at or below the snapshot's version are skipped, a gap
    /// is corruption. A torn tail (partial append at the kill point)
    /// is detected by checksum and truncated — committed batches
    /// survive, the half-written one vanishes, exactly as if the crash
    /// had hit before its fsync. Dataset ids are preserved, and a
    /// recovered default dataset wins over the objects passed to
    /// [`Self::build`]. Recovery failure panics — serving fresh over
    /// an undecipherable durable state would shed acknowledged writes.
    ///
    /// **Checkpoints.** When a dataset's WAL grows past
    /// [`Self::checkpoint_bytes`], the commit path rolls it into a
    /// fresh snapshot and resets the log. The order (snapshot rename,
    /// then WAL reset) is crash-safe: a crash in between leaves old
    /// records the version check skips.
    ///
    /// **What is NOT guaranteed.** Durability I/O errors at commit time
    /// **panic** the dispatcher: a service that cannot persist a write
    /// must not acknowledge it.
    pub fn durability(mut self, root: impl AsRef<Path>) -> Self {
        self.durable_root = Some(root.as_ref().to_path_buf());
        self
    }

    /// WAL size past which a dataset's log is checkpointed into a
    /// fresh snapshot (default 4 MiB). Only read when
    /// [`Self::durability`] is set; the two may be called in either
    /// order.
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }

    /// The per-shard configuration the setters assembled.
    fn finish(self) -> (ServiceConfig, usize) {
        let mut config = self.config;
        config.durability = self.durable_root.map(|root| DurabilityConfig {
            root,
            checkpoint_bytes: self.checkpoint_bytes,
        });
        (config, self.shards)
    }

    /// Start with an **empty catalog**. With [`Self::durability`] set,
    /// a catalog a previous run left under the root is recovered
    /// before the first request is admitted.
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
        let (config, shards) = self.finish();
        ShardedService::start_catalog(config, shards, tree, clip)
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
        let (config, shards) = self.finish();
        ShardedService::start(config, shards, partitioner, objects, tree, clip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_the_documented_defaults() {
        let (config, shards) = ServiceBuilder::new().finish();
        assert_eq!(shards, 1);
        assert_eq!(config.batch_max, 64);
        assert_eq!(config.batch_deadline, Duration::ZERO);
        assert_eq!(config.dispatchers, 1);
        assert_eq!(config.exec_workers, 4);
        assert_eq!(config.telemetry, TelemetryConfig::default());
        assert_eq!(config.durability, None);

        let (config, ..) = ServiceBuilder::new().durability("/tmp/cbb").finish();
        let durable = config.durability.expect("durability was set");
        assert_eq!(durable.root, Path::new("/tmp/cbb"));
        assert_eq!(durable.checkpoint_bytes, 4 << 20);
    }

    #[test]
    fn unbatched_is_one_request_per_batch_without_deadline() {
        let (config, ..) = ServiceBuilder::new()
            .batch_max(32)
            .batch_deadline(Duration::from_millis(2))
            .unbatched()
            .finish();
        assert_eq!(config.batch_max, 1);
        assert_eq!(config.batch_deadline, Duration::ZERO);
    }
}
