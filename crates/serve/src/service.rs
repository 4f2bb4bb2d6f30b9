//! One shard of the service: admission queue, dispatcher pool, a
//! catalog of independently versioned datasets, graceful shutdown.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbb_core::ClipConfig;
use cbb_engine::{
    Catalog, DataVersion, DatasetId, DatasetStore, Partitioner, SnapshotContents, TileForest,
};
use cbb_geom::Rect;
use cbb_rtree::TreeConfig;
use cbb_telemetry::{Histogram, SlowQuery, TelemetryConfig, TelemetrySnapshot};

use crate::batcher::{collect_batch, run_batch};
use crate::durability::{Durability, DurabilityConfig};
use crate::handle::{completion_pair, CompletionHandle, Promise};
use crate::queue::{Bounded, Closed};
use crate::request::{Completion, Request, RequestError};
use crate::stats::{names, DatasetReport, ServiceReport, ServiceStats};

use cbb_engine::PersistPartitioner;

/// Requests one shard (and the router's gather stage) holds unserved
/// before `submit` blocks.
pub(crate) const QUEUE_CAPACITY: usize = 1024;

/// Per-shard tuning, filled by [`crate::ServiceBuilder`] (whose setters
/// document each knob).
#[derive(Clone, Debug)]
pub(crate) struct ServiceConfig {
    /// Flush a micro-batch at this many requests.
    pub(crate) batch_max: usize,
    /// How long a non-full micro-batch stays open for stragglers.
    pub(crate) batch_deadline: Duration,
    /// Dispatcher (consumer) threads forming and executing batches.
    pub(crate) dispatchers: usize,
    /// Logical chunks the executor splits one batch into.
    pub(crate) exec_workers: usize,
    pub(crate) telemetry: TelemetryConfig,
    /// `None`: the service is in-memory only.
    pub(crate) durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_max: 64,
            batch_deadline: Duration::ZERO,
            dispatchers: 1,
            exec_workers: 4,
            telemetry: TelemetryConfig::default(),
            durability: None,
        }
    }
}

/// The name [`crate::ServiceBuilder::build`] registers its initial
/// dataset under.
pub const DEFAULT_DATASET: &str = "default";

/// One queued request: payload, completion promise, admission stamp.
pub(crate) struct Envelope<const D: usize, P> {
    pub(crate) request: Request<D, P>,
    pub(crate) promise: Promise<Completion>,
    pub(crate) enqueued: Instant,
}

/// Everything dispatchers share.
pub(crate) struct SharedState<const D: usize, P> {
    pub(crate) config: ServiceConfig,
    pub(crate) queue: Bounded<Envelope<D, P>>,
    /// The catalog: per-dataset stores behind per-dataset locks, so
    /// writes to one dataset never serialize reads of another.
    pub(crate) catalog: Catalog<D, P>,
    pub(crate) stats: ServiceStats,
    pub(crate) tree: TreeConfig<D>,
    pub(crate) clip: ClipConfig,
    /// The open WAL writers when the service is durable (`None`:
    /// in-memory only).
    pub(crate) durability: Option<Durability>,
}

/// Refuse a dataset payload holding a rectangle no index can place
/// (non-finite or inverted), naming the first such object.
fn check_objects<const D: usize>(objects: &[Rect<D>]) -> Result<(), RequestError> {
    match objects.iter().position(|r| !r.is_valid()) {
        Some(index) => Err(RequestError::InvalidObject(index)),
        None => Ok(()),
    }
}

impl<const D: usize, P> SharedState<D, P>
where
    P: Partitioner<D> + PersistPartitioner,
{
    /// Build a dataset store (the forest build is counted) and register
    /// it — the execution of a queued `CreateDataset` admin op. A
    /// payload holding a non-finite or inverted rectangle is refused
    /// before any forest is built.
    pub(crate) fn create_dataset_now(
        &self,
        name: &str,
        partitioner: P,
        objects: Vec<Rect<D>>,
    ) -> Result<DatasetId, RequestError> {
        // Cheap pre-check: do not pay a forest build for a name clash.
        // `Catalog::create` re-checks atomically; a racing same-name
        // create still fails cleanly there (its build is wasted, not
        // leaked).
        if self.catalog.resolve(name).is_some() {
            return Err(RequestError::NameTaken(name.to_string()));
        }
        check_objects(&objects)?;
        // A fresh arena handed over whole: `DatasetStore::build` borrows
        // and would copy it once more.
        let contents = SnapshotContents {
            live: vec![true; objects.len()],
            partitioner,
            objects,
            free: Vec::new(),
            version: DataVersion::initial(),
        };
        let store = DatasetStore::restore(contents, self.tree, self.clip, self.config.exec_workers);
        match self.catalog.create(name, store) {
            Ok(id) => {
                self.stats.forest_builds.inc();
                if let Some(durability) = &self.durability {
                    let entry = self.catalog.get(id).expect("dataset was just created");
                    let store = entry.store().read().expect("dataset store poisoned");
                    durability.record_create(id, name, &store);
                }
                Ok(id)
            }
            Err(cbb_engine::CatalogError::NameTaken(name)) => Err(RequestError::NameTaken(name)),
            Err(cbb_engine::CatalogError::UnknownDataset(id)) => {
                Err(RequestError::UnknownDataset(id))
            }
            // Only recovery's `restore_dataset` can collide on an id.
            Err(cbb_engine::CatalogError::IdTaken(id)) => {
                unreachable!("create assigned an occupied id {id:?}")
            }
        }
    }

    /// Drop a dataset (its forest goes with its store).
    pub(crate) fn drop_dataset_now(&self, id: DatasetId) -> bool {
        let existed = self.catalog.drop_dataset(id).is_some();
        if existed {
            if let Some(durability) = &self.durability {
                durability.record_drop(id);
            }
        }
        existed
    }

    /// Replace one dataset's objects (and optionally its partitioner),
    /// rebuilding the forest (a counted build) under the bumped
    /// version. A payload holding a non-finite or inverted rectangle is
    /// refused before any forest is built.
    ///
    /// The (expensive) forest build runs with **no lock held** — a swap
    /// of a big dataset must not block this dataset's readers longer
    /// than the install itself. The store's write lock is taken only to
    /// bump and install; if a concurrent re-fit changed the tiling in that
    /// window (an admin/admin race on one dataset), the forest is
    /// rebuilt under the lock against the tiling that won.
    pub(crate) fn swap_now(
        &self,
        id: DatasetId,
        objects: Vec<Rect<D>>,
        partitioner: Option<P>,
    ) -> Result<DataVersion, RequestError>
    where
        P: Clone + PartialEq,
    {
        let Some(entry) = self.catalog.get(id) else {
            return Err(RequestError::UnknownDataset(id));
        };
        check_objects(&objects)?;
        let refit = partitioner.is_some();
        let fit = match partitioner {
            Some(p) => p,
            None => entry
                .store()
                .read()
                .expect("dataset store poisoned")
                .partitioner()
                .clone(),
        };
        let built = TileForest::build(
            &fit,
            &objects,
            self.tree,
            self.clip,
            self.config.exec_workers,
        );
        let mut store = entry.store().write().expect("dataset store poisoned");
        let (fit, built) = if refit || *store.partitioner() == fit {
            (fit, built)
        } else {
            let won = store.partitioner().clone();
            let built = TileForest::build(
                &won,
                &objects,
                self.tree,
                self.clip,
                self.config.exec_workers,
            );
            (won, built)
        };
        let next = store.version().next();
        self.stats.forest_builds.inc();
        store.swap(fit, objects, Arc::new(built));
        debug_assert_eq!(store.version(), next);
        // Persist the swapped-in state while the write lock still
        // pins it: fresh snapshot, reset WAL.
        if let Some(durability) = &self.durability {
            durability.record_swap(id, &store);
        }
        Ok(next)
    }

    /// Per-dataset report rows (brief read lock per store). The
    /// occupancy distribution is rebuilt fresh per call through the
    /// shared histogram type — it is a *current-state* distribution,
    /// not an accumulating series.
    pub(crate) fn dataset_reports(&self) -> Vec<DatasetReport> {
        self.catalog
            .ids()
            .into_iter()
            .filter_map(|id| {
                let entry = self.catalog.get(id)?;
                let store = entry.store().read().expect("dataset store poisoned");
                let occupancy = Histogram::standalone();
                for load in store.tile_loads() {
                    occupancy.observe(load);
                }
                Some(DatasetReport {
                    id,
                    name: entry.name().to_string(),
                    version: store.version(),
                    live_objects: store.live_count(),
                    arena_slots: store.arena_len(),
                    free_slots: store.free_slots(),
                    compactions: store.compactions(),
                    write_batches: store.write_batches(),
                    updates_applied: store.updates_applied(),
                    delta_nodes_allocated: store.delta_nodes_allocated(),
                    load_imbalance: store.load_imbalance(),
                    occupancy: occupancy.snapshot(),
                })
            })
            .collect()
    }

    /// Refresh every **view-synced** metric from its source of truth:
    /// the per-dataset state gauges. Called on scrape/report — these
    /// series update at read time, not continuously. Gauges of a dropped
    /// dataset keep their last value (series are never unregistered;
    /// the `dataset` label identifies stale rows).
    pub(crate) fn sync_views(&self) -> Vec<DatasetReport> {
        let reports = self.dataset_reports();
        let registry = self.stats.registry();
        if registry.is_enabled() {
            for report in &reports {
                let labels = &[("dataset", report.name.as_str())][..];
                registry
                    .gauge(names::DS_LIVE, "Live (queryable) objects.", labels)
                    .set(report.live_objects as i64);
                registry
                    .gauge(
                        names::DS_SLOTS,
                        "Arena slots (live + tombstoned + reclaimed).",
                        labels,
                    )
                    .set(report.arena_slots as i64);
                registry
                    .gauge(
                        names::DS_VERSION,
                        "Current data version (bumps per applied write batch or swap).",
                        labels,
                    )
                    .set(report.version.0 as i64);
                registry
                    .float_gauge(
                        names::DS_IMBALANCE,
                        "Max-tile / mean-tile live objects (1.0 = perfectly balanced).",
                        labels,
                    )
                    .set(report.load_imbalance);
                registry
                    .gauge(
                        names::DS_OCC_P50,
                        "Median tile occupancy (objects in the median non-empty tile).",
                        labels,
                    )
                    .set(report.occupancy_p50() as i64);
                registry
                    .gauge(
                        names::DS_OCC_P99,
                        "99th-percentile tile occupancy — the partition-drift tail.",
                        labels,
                    )
                    .set(report.occupancy_p99() as i64);
            }
        }
        reports
    }
}

/// Everything a scrape returns: the rendered text and JSON expositions
/// plus the structured snapshot they were rendered from.
#[derive(Clone, Debug)]
pub struct Scrape {
    /// Prometheus-style text exposition (`# HELP`/`# TYPE` + samples).
    pub text: String,
    /// The same snapshot as a JSON document.
    pub json: String,
    /// The structured snapshot (programmatic access).
    pub snapshot: TelemetrySnapshot,
}

impl Scrape {
    /// Render `registry`'s current snapshot.
    pub(crate) fn of(registry: &cbb_telemetry::Registry) -> Self {
        let snapshot = registry.snapshot();
        Scrape {
            text: snapshot.render_text(),
            json: snapshot.to_json(),
            snapshot,
        }
    }
}

/// One shard of a [`crate::ShardedService`]: a catalog of named
/// datasets behind its own admission queue, dispatcher pool and
/// telemetry registry.
///
/// ```text
///  submit()                       dispatchers               catalog
///  ───────────────────▶ bounded ─▶ micro-batch ─▶ ds A ─ RwLock<DatasetStore>
///        handles ◀──────  MPMC  ◀─  (size or   ─▶ ds B ─ RwLock<DatasetStore>
///   (wait per request)   queue      backlog)      (each store owns
///                                                  its tile forest)
/// ```
///
/// Every data request names its target dataset; the batcher groups a
/// micro-batch **per dataset**, so a write burst into dataset A holds
/// only A's lock while reads of dataset B proceed under B's. Stores are
/// mutable (`Insert`/`Delete`/`UpdateBatch` coalesce into one
/// delta-apply and one version bump per dataset per micro-batch, no
/// rebuild), datasets are created/dropped/swapped through queued admin
/// requests with the same graceful-drain guarantee as everything else,
/// and [`Request::CrossJoin`] joins two served datasets against each
/// other re-using both sides' tile forests.
///
/// The contract the router relies on: `submit` returns a handle that
/// resolves exactly once (or is canceled if the shard dies); requests
/// are *applied* in admission order relative to each other (the queue
/// is FIFO), which keeps write replicas in lock-step; `close` stops
/// admission without discarding accepted work, and `shutdown` drains,
/// joins and reports.
pub(crate) struct Shard<const D: usize, P> {
    shared: Arc<SharedState<D, P>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl<const D: usize, P> Shard<D, P>
where
    P: Partitioner<D>
        + PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    /// Start with an **empty catalog**: no dataset exists until a
    /// queued [`Request::CreateDataset`] registers one. `tree`/`clip`
    /// configure every per-tile index the shard will ever build.
    ///
    /// With durability configured, any catalog persisted
    /// by a previous incarnation under the same root is **recovered
    /// before the first request is admitted**: snapshots loaded, WAL
    /// tails replayed (torn tails truncated), dataset ids preserved.
    /// Recovery failure panics — serving fresh over an undecipherable
    /// durable state would silently shed acknowledged writes.
    pub(crate) fn start(config: ServiceConfig, tree: TreeConfig<D>, clip: ClipConfig) -> Self {
        assert!(config.dispatchers >= 1, "need at least one dispatcher");
        assert!(config.batch_max >= 1, "a batch holds at least one request");
        let catalog = Catalog::new();
        let stats = ServiceStats::new(&config.telemetry);
        let durability = config.durability.as_ref().map(|cfg| {
            let (durability, recovery) =
                Durability::recover(cfg, &catalog, tree, clip, config.exec_workers).unwrap_or_else(
                    |err| {
                        panic!(
                            "durability recovery failed under {}: {err}",
                            cfg.root.display()
                        )
                    },
                );
            stats.record_recovery(
                recovery.datasets.len() as u64,
                recovery.records_replayed,
                recovery.pages_read,
            );
            durability
        });
        let queue = Bounded::new(QUEUE_CAPACITY);
        let shared = Arc::new(SharedState {
            config,
            queue,
            catalog,
            stats,
            tree,
            clip,
            durability,
        });
        let dispatchers = (0..shared.config.dispatchers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cbb-serve-{i}"))
                    .spawn(move || {
                        while let Some((batch, opened)) = collect_batch(
                            &shared.queue,
                            shared.config.batch_max,
                            shared.config.batch_deadline,
                        ) {
                            run_batch(&shared, batch, opened);
                        }
                    })
                    .expect("spawn dispatcher")
            })
            .collect();
        Shard {
            shared,
            dispatchers,
        }
    }

    /// Submit a request, blocking while the queue is full
    /// (backpressure). The handle resolves once a dispatcher has
    /// executed the batch carrying the request.
    pub(crate) fn submit(
        &self,
        request: Request<D, P>,
    ) -> Result<CompletionHandle<Completion>, Closed<Request<D, P>>> {
        let (promise, handle) = completion_pair();
        let envelope = Envelope {
            request,
            promise,
            enqueued: Instant::now(),
        };
        // Count BEFORE the push: a dispatcher can pop and complete the
        // envelope before this thread runs another instruction, and a
        // concurrent report() must never see completed > submitted (nor
        // a negative queue depth).
        self.shared.stats.submitted.inc();
        self.shared.stats.queue_depth.inc();
        match self.shared.queue.push(envelope) {
            Ok(()) => Ok(handle),
            Err(Closed(envelope)) => {
                self.shared.stats.submitted.sub(1);
                self.shared.stats.queue_depth.dec();
                self.shared.stats.rejected.inc();
                Err(Closed(envelope.request))
            }
        }
    }

    /// `(id, name, partitioner)` of every live dataset, ascending by
    /// id (brief read lock per store). The router uses this to rebuild
    /// its route table from a recovered shard.
    pub(crate) fn dataset_partitioners(&self) -> Vec<(DatasetId, String, P)> {
        self.shared
            .catalog
            .ids()
            .into_iter()
            .filter_map(|id| {
                let entry = self.shared.catalog.get(id)?;
                let partitioner = entry
                    .store()
                    .read()
                    .expect("dataset store poisoned")
                    .partitioner()
                    .clone();
                Some((id, entry.name().to_string(), partitioner))
            })
            .collect()
    }

    /// The data version one dataset currently serves (`None` for
    /// unknown ids), read under the store's read lock.
    pub(crate) fn dataset_version(&self, id: DatasetId) -> Option<DataVersion> {
        let entry = self.shared.catalog.get(id)?;
        let version = entry
            .store()
            .read()
            .expect("dataset store poisoned")
            .version();
        Some(version)
    }

    /// Number of live (queryable) objects in one dataset.
    pub(crate) fn dataset_live_count(&self, id: DatasetId) -> Option<usize> {
        let entry = self.shared.catalog.get(id)?;
        let count = entry
            .store()
            .read()
            .expect("dataset store poisoned")
            .live_count();
        Some(count)
    }

    /// A snapshot of the shard's counters, including one
    /// [`crate::DatasetReport`] row per live dataset. This is a **view
    /// over the telemetry registry** — the same cells [`Self::scrape`]
    /// exposes. With telemetry disabled the service-level counters
    /// read zero (dataset rows still reflect store state, which is
    /// tracked by the stores themselves).
    pub(crate) fn report(&self) -> ServiceReport {
        let datasets = self.shared.sync_views();
        self.shared.stats.snapshot(datasets)
    }

    /// Scrape the telemetry registry: view-synced metrics are
    /// refreshed, then the whole registry is rendered. Empty when
    /// telemetry is disabled.
    pub(crate) fn scrape(&self) -> Scrape {
        self.shared.sync_views();
        Scrape::of(self.shared.stats.registry())
    }

    /// The slowest requests answered so far (top-K by end-to-end
    /// latency, slowest first). Empty when telemetry is disabled.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.stats.slow().entries()
    }

    /// Graceful shutdown: stop admission, let the dispatchers drain the
    /// queue — every accepted request (admin ops included) is answered
    /// — and join them. The final counter snapshot is returned.
    pub(crate) fn shutdown(mut self) -> ServiceReport {
        self.shared.queue.close();
        for handle in self.dispatchers.drain(..) {
            handle.join().expect("dispatcher panicked");
        }
        self.report()
    }
}

impl<const D: usize, P> Shard<D, P> {
    /// Close admission without joining the dispatchers: every
    /// in-flight request still completes, later `submit`s fail with
    /// [`Closed`]. The router closes every shard *before* draining any.
    pub(crate) fn close(&self) {
        self.shared.queue.close();
    }
}

impl<const D: usize, P> Drop for Shard<D, P> {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains and joins — no
        // detached threads, no abandoned (hanging) handles.
        self.shared.queue.close();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}
