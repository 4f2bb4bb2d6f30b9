//! The scatter-gather router: the service, over N in-process shards.
//! The merge rules and the consistency contract are documented on
//! [`ShardedService`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use cbb_core::ClipConfig;
use cbb_engine::{merge_knn, DataVersion, DatasetId, Partitioner, ShardMap, ShardTiling};
use cbb_geom::Rect;
use cbb_joins::JoinResult;
use cbb_rtree::TreeConfig;
use cbb_telemetry::{Counter, Histogram, Phase, Registry, SlowQuery};

use crate::handle::{completion_pair, CompletionHandle, Promise};
use crate::queue::{Bounded, Closed};
use crate::request::{Completion, Request, Response};
use crate::service::{Scrape, ServiceConfig, Shard, DEFAULT_DATASET, QUEUE_CAPACITY};
use crate::stats::{names, ServiceReport};

/// Routing state of one dataset: its global partitioner and the shard
/// map its tiles were cut by.
struct DatasetRoute<P> {
    name: String,
    partitioner: P,
    map: ShardMap,
}

/// How the gather worker folds per-shard responses into one.
enum MergeKind {
    /// Merge disjoint range fragments into one id-sorted list.
    Concat,
    /// [`merge_knn`] with this `k`.
    Knn(usize),
    /// Sum the [`JoinResult`] counters.
    JoinSum,
    /// Replicated write/admin: every shard answered identically, take
    /// the first.
    First,
}

/// Route-table edit the gather worker applies once the fanned-out
/// admin op succeeded on every shard (before the merged handle
/// resolves, so a caller that awaited the admin op routes through the
/// new state).
enum RouteAction<P> {
    Install {
        name: String,
        partitioner: P,
        map: ShardMap,
    },
    Drop {
        dataset: DatasetId,
    },
    Swap {
        dataset: DatasetId,
        partitioner: P,
        map: ShardMap,
    },
}

/// One pending gather: the per-shard handles, the merged promise, and
/// what to do with the parts.
struct GatherJob<P> {
    parts: Vec<CompletionHandle<Completion>>,
    promise: Promise<Completion>,
    merge: MergeKind,
    action: Option<RouteAction<P>>,
}

/// Pre-resolved handles of the router's own registry (separate from
/// the per-shard registries, which [`ShardedService::shard_scrapes`]
/// exposes individually).
struct RouterStats {
    registry: Registry,
    requests: Counter,
    single_shard: Counter,
    fanout: Histogram,
    shard_requests: Vec<Counter>,
    scatter_ns: Histogram,
    gather_ns: Histogram,
}

impl RouterStats {
    fn new(config: &cbb_telemetry::TelemetryConfig, shards: usize) -> Self {
        let registry = config.build_registry();
        RouterStats {
            requests: registry.counter(
                "cbb_router_requests_total",
                "Requests admitted by the sharded router.",
                &[],
            ),
            single_shard: registry.counter(
                "cbb_router_single_shard_total",
                "Requests routed to exactly one shard (gather skipped).",
                &[],
            ),
            fanout: registry.histogram(
                "cbb_router_fanout_width",
                "Shards each routed request was scattered to.",
                &[],
            ),
            shard_requests: (0..shards)
                .map(|s| {
                    registry.counter(
                        "cbb_router_shard_requests_total",
                        "Requests routed to each shard.",
                        &[("shard", &s.to_string())],
                    )
                })
                .collect(),
            scatter_ns: registry.histogram(
                names::PHASE_NS,
                "Per-request service time by phase, in nanoseconds.",
                &[("phase", Phase::Scatter.name())],
            ),
            gather_ns: registry.histogram(
                names::PHASE_NS,
                "Per-request service time by phase, in nanoseconds.",
                &[("phase", Phase::Gather.name())],
            ),
            registry,
        }
    }
}

/// The query service: a catalog of named datasets served by N shards
/// behind a scatter-gather router (N = 1 by default, a pass-through).
/// Built by [`crate::ServiceBuilder`]; every request goes through
/// [`Self::submit`].
///
/// Each shard is a full query service — its own catalog, admission
/// queue, dispatcher pool and telemetry registry — whose stores are
/// built under a [`ShardTiling`] view of every dataset's partitioner:
/// the **object arena is fully mirrored** on every shard (identical
/// rectangles, identical live masks, identical [`cbb_rtree::DataId`]
/// assignment), while each shard's tile forest indexes only the
/// contiguous global tile range the dataset's [`ShardMap::balanced`]
/// cut assigns it.
/// Because the engine's reference-point rule attributes every result
/// and join pair to exactly one owning tile, and the shard ranges
/// partition the tile space, each answer fragment is produced by
/// exactly one shard — merging is exact, not approximate:
///
/// * **Range** — scattered to the shards whose ranges intersect the
///   query's covering tiles; the disjoint fragments merge by sorting
///   ascending by id (the canonical batched-range order a single
///   store emits).
/// * **kNN** — scattered to every shard; per-shard exact top-k lists
///   fold through [`cbb_engine::merge_knn`] (id-dedup +
///   `(distance, id)` insertion — the root-MBB-bounded per-shard
///   searches make each list exact for its tiles).
/// * **Join / CrossJoin** — scattered to every shard; the
///   [`cbb_joins::JoinResult`] counters are per-tile sums, and the
///   reference-point method already deduplicates boundary tiles, so
///   the merge is the counter **sum** across shards.
/// * **Writes & admin** — replicated to every shard (the mirrored
///   arenas must advance in lock-step); responses are identical
///   replicas and the first is returned.
///
/// With one shard (the default) every request targets shard 0 and the
/// router is a pass-through. Only a one-shard service can be durable
/// (see [`crate::ServiceBuilder::durability`]). The oracle tests pin
/// every merge **byte-equal** to a one-shard service and to the engine
/// called directly on the same data.
///
/// # Consistency
///
/// Replica lock-step relies on every shard applying writes in the same
/// order. The router pushes each request to all its target shards
/// under one fan-out lock (identical per-shard queue order), so writes
/// admitted *serially* — each handle awaited before the next write is
/// submitted, which is what [`Self::create_dataset`] and friends do —
/// keep the replicas identical. Pipelined writes stay individually
/// ordered, but shards may coalesce them into different micro-batch
/// boundaries: per-shard [`cbb_engine::DataVersion`]s can then skew,
/// and arena compaction's reclaimed-slot reuse can diverge, so a later
/// insert may get different ids on different shards. Through a sharded
/// service, await each write's handle before submitting the next write
/// to the same dataset. Likewise a `SwapData` that replaces the
/// partitioner (and with it the shard map) is not linearizable with
/// *concurrent* reads of that dataset: admit reads after the swap's
/// handle resolves.
///
/// There is deliberately no non-blocking submit: shedding a fan-out
/// after some shards already accepted their copy would fork the
/// replicas, so admission control stays at the per-shard queues
/// (backpressure blocks the fan-out instead).
pub struct ShardedService<const D: usize, P> {
    shards: Vec<Shard<D, ShardTiling<P>>>,
    routes: Arc<RwLock<HashMap<DatasetId, DatasetRoute<P>>>>,
    gather_queue: Arc<Bounded<GatherJob<P>>>,
    gather_workers: Vec<JoinHandle<()>>,
    stats: Arc<RouterStats>,
    /// Serializes fan-outs so every shard sees the same queue order —
    /// the invariant replica lock-step rests on.
    fanout: Mutex<()>,
    default_dataset: Option<DatasetId>,
}

impl<const D: usize, P> ShardedService<D, P>
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
    /// Start `shards` in-process shards (each with `config`'s
    /// batching/telemetry knobs) with an empty catalog. With
    /// durability configured, the one shard recovers the catalog under
    /// the root and the route table is rebuilt from it; durability over
    /// more shards panics before the root is touched.
    pub(crate) fn start_catalog(
        config: ServiceConfig,
        shards: usize,
        tree: TreeConfig<D>,
        clip: ClipConfig,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        // Every shard would persist into the same root.
        assert!(
            config.durability.is_none() || shards == 1,
            "durability() is one-shard: drop shards({shards}) or durability()"
        );
        let shards: Vec<Shard<D, ShardTiling<P>>> = (0..shards)
            .map(|_| Shard::start(config.clone(), tree, clip))
            .collect();
        // Only a durable (hence one-shard) service starts with
        // datasets; each recovered route is the whole tiling.
        let initial_routes = shards[0]
            .dataset_partitioners()
            .into_iter()
            .map(|(id, name, tiling)| {
                let partitioner = tiling.inner().clone();
                let map = ShardMap::balanced(partitioner.tile_count(), 1);
                let route = DatasetRoute {
                    name,
                    partitioner,
                    map,
                };
                (id, route)
            })
            .collect();
        let stats = Arc::new(RouterStats::new(&config.telemetry, shards.len()));
        let routes = Arc::new(RwLock::new(initial_routes));
        let gather_queue = Arc::new(Bounded::new(QUEUE_CAPACITY));
        let gather_workers = (0..config.dispatchers.max(1))
            .map(|i| {
                let queue = Arc::clone(&gather_queue);
                let routes = Arc::clone(&routes);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("cbb-gather-{i}"))
                    .spawn(move || gather_loop::<D, P>(&queue, &routes, &stats))
                    .expect("spawn gather worker")
            })
            .collect();
        ShardedService {
            shards,
            routes,
            gather_queue,
            gather_workers,
            stats,
            fanout: Mutex::new(()),
            default_dataset: None,
        }
    }

    /// [`Self::start_catalog`] plus one dataset named
    /// [`DEFAULT_DATASET`] built from `objects`.
    pub(crate) fn start(
        config: ServiceConfig,
        shards: usize,
        partitioner: P,
        objects: Vec<Rect<D>>,
        tree: TreeConfig<D>,
        clip: ClipConfig,
    ) -> Self {
        let mut service = Self::start_catalog(config, shards, tree, clip);
        // With durability enabled, a previous run's default dataset may
        // have been recovered; its objects and partitioner win over the
        // ones passed here (the acknowledged writes it holds must not
        // be shed by a restart).
        let id = match service.dataset_id(DEFAULT_DATASET) {
            Some(recovered) => recovered,
            None => service
                .create_dataset(DEFAULT_DATASET, partitioner, objects)
                .expect("fresh catalog cannot have a name clash"),
        };
        service.default_dataset = Some(id);
        service
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard map a dataset over `partitioner` is cut by.
    fn map_for(&self, partitioner: &P) -> ShardMap {
        ShardMap::balanced(partitioner.tile_count(), self.shards.len())
    }

    /// Decide targets, merge kind, route action, and (for admin ops
    /// that carry a partitioner) the wrap every per-shard copy uses.
    #[allow(clippy::type_complexity)]
    fn plan(
        &self,
        request: &Request<D, P>,
    ) -> (
        Vec<usize>,
        MergeKind,
        Option<RouteAction<P>>,
        Option<(P, ShardMap)>,
    ) {
        let all = || (0..self.shards.len()).collect::<Vec<_>>();
        match request {
            // A window with no answer has no covering tiles to route
            // by: any one shard refuses it (`RequestError::InvalidQuery`).
            Request::Range { query, .. } if !query.is_valid() => {
                (vec![0], MergeKind::Concat, None, None)
            }
            Request::Range { dataset, query, .. } => {
                let routes = self.routes.read().expect("route table poisoned");
                let targets = match routes.get(dataset) {
                    Some(route) => {
                        let tiles = route.partitioner.covering_tiles(query);
                        let shards = route.map.covering_shards(&tiles);
                        if shards.is_empty() {
                            // Zero covering tiles: any one shard
                            // answers the (empty) query exactly.
                            vec![0]
                        } else {
                            shards
                        }
                    }
                    // Unknown dataset: every shard refuses identically.
                    None => all(),
                };
                (targets, MergeKind::Concat, None, None)
            }
            Request::Knn { k, .. } => (all(), MergeKind::Knn(*k), None, None),
            Request::Join { .. } | Request::CrossJoin { .. } => {
                (all(), MergeKind::JoinSum, None, None)
            }
            Request::Insert { .. } | Request::Delete { .. } | Request::UpdateBatch { .. } => {
                (all(), MergeKind::First, None, None)
            }
            Request::CreateDataset {
                name, partitioner, ..
            } => {
                let map = self.map_for(partitioner);
                let action = RouteAction::Install {
                    name: name.clone(),
                    partitioner: partitioner.clone(),
                    map: map.clone(),
                };
                (
                    all(),
                    MergeKind::First,
                    Some(action),
                    Some((partitioner.clone(), map)),
                )
            }
            Request::DropDataset { dataset } => (
                all(),
                MergeKind::First,
                Some(RouteAction::Drop { dataset: *dataset }),
                None,
            ),
            Request::SwapData {
                dataset,
                partitioner,
                ..
            } => {
                let global = match partitioner {
                    Some(p) => Some(p.clone()),
                    None => {
                        let routes = self.routes.read().expect("route table poisoned");
                        routes.get(dataset).map(|r| r.partitioner.clone())
                    }
                };
                match global {
                    Some(p) => {
                        let map = self.map_for(&p);
                        let action = RouteAction::Swap {
                            dataset: *dataset,
                            partitioner: p.clone(),
                            map: map.clone(),
                        };
                        (all(), MergeKind::First, Some(action), Some((p, map)))
                    }
                    // Unknown dataset and no partitioner to cut:
                    // forward bare, every shard refuses identically.
                    None => (all(), MergeKind::First, None, None),
                }
            }
        }
    }

    /// Build shard `s`'s copy of `request`, wrapping any carried
    /// partitioner into that shard's [`ShardTiling`] view.
    fn shard_request(
        &self,
        request: &Request<D, P>,
        wrap: Option<&(P, ShardMap)>,
        s: usize,
    ) -> Request<D, ShardTiling<P>> {
        match request {
            Request::Range {
                dataset,
                query,
                use_clips,
            } => Request::Range {
                dataset: *dataset,
                query: *query,
                use_clips: *use_clips,
            },
            Request::Knn { dataset, center, k } => Request::Knn {
                dataset: *dataset,
                center: *center,
                k: *k,
            },
            Request::Join {
                dataset,
                probes,
                algo,
                use_clips,
            } => Request::Join {
                dataset: *dataset,
                probes: probes.clone(),
                algo: *algo,
                use_clips: *use_clips,
            },
            Request::CrossJoin {
                left,
                right,
                algo,
                use_clips,
            } => Request::CrossJoin {
                left: *left,
                right: *right,
                algo: *algo,
                use_clips: *use_clips,
            },
            Request::Insert { dataset, rect } => Request::Insert {
                dataset: *dataset,
                rect: *rect,
            },
            Request::Delete { dataset, id } => Request::Delete {
                dataset: *dataset,
                id: *id,
            },
            Request::UpdateBatch { dataset, updates } => Request::UpdateBatch {
                dataset: *dataset,
                updates: updates.clone(),
            },
            Request::DropDataset { dataset } => Request::DropDataset { dataset: *dataset },
            Request::CreateDataset { name, objects, .. } => {
                let (p, map) = wrap.expect("create always plans a wrap");
                Request::CreateDataset {
                    name: name.clone(),
                    partitioner: ShardTiling::new(p.clone(), map.range(s)),
                    objects: objects.clone(),
                }
            }
            Request::SwapData {
                dataset, objects, ..
            } => Request::SwapData {
                dataset: *dataset,
                objects: objects.clone(),
                partitioner: wrap.map(|(p, map)| ShardTiling::new(p.clone(), map.range(s))),
            },
        }
    }

    /// Submit a request: route it to the shards that can contribute,
    /// scatter per-shard copies (one fan-out lock keeps every shard's
    /// queue order identical), and return a handle onto the merged
    /// answer. Blocks while any target shard's queue is full
    /// (backpressure).
    pub fn submit(
        &self,
        request: Request<D, P>,
    ) -> Result<CompletionHandle<Completion>, Closed<Request<D, P>>> {
        let (targets, merge, action, wrap) = self.plan(&request);
        self.stats.requests.inc();
        self.stats.fanout.observe(targets.len() as u64);
        let scatter_started = Instant::now();

        // Single-target requests with no route edit skip the gather
        // hop entirely: the shard's own handle *is* the merged handle.
        if targets.len() == 1 && action.is_none() {
            let s = targets[0];
            let copy = self.shard_request(&request, wrap.as_ref(), s);
            let pushed = {
                let _guard = self.fanout.lock().expect("fanout lock poisoned");
                self.shards[s].submit(copy)
            };
            return match pushed {
                Ok(handle) => {
                    self.stats.shard_requests[s].inc();
                    self.stats.single_shard.inc();
                    self.stats.scatter_ns.observe(elapsed_ns(scatter_started));
                    Ok(handle)
                }
                Err(Closed(_)) => Err(Closed(request)),
            };
        }

        let (promise, handle) = completion_pair();
        let mut parts = Vec::with_capacity(targets.len());
        {
            let _guard = self.fanout.lock().expect("fanout lock poisoned");
            for &s in &targets {
                let copy = self.shard_request(&request, wrap.as_ref(), s);
                match self.shards[s].submit(copy) {
                    Ok(part) => {
                        self.stats.shard_requests[s].inc();
                        parts.push(part);
                    }
                    // Shards only close at shutdown, which owns the
                    // service — seeing this mid-fan-out means the
                    // caller raced teardown; the copies already pushed
                    // will be drained and their answers discarded.
                    Err(Closed(_)) => return Err(Closed(request)),
                }
            }
        }
        self.stats.scatter_ns.observe(elapsed_ns(scatter_started));
        let job = GatherJob {
            parts,
            promise,
            merge,
            action,
        };
        match self.gather_queue.push(job) {
            Ok(()) => Ok(handle),
            Err(Closed(_)) => Err(Closed(request)),
        }
    }

    // ── Catalog surface ────────────────────────────────────────────

    /// Create a named dataset on every shard and wait for its id. The
    /// dataset's tiles are cut into near-equal shard ranges
    /// ([`ShardMap::balanced`]).
    pub fn create_dataset(
        &self,
        name: &str,
        partitioner: P,
        objects: Vec<Rect<D>>,
    ) -> Result<DatasetId, crate::RequestError> {
        let response = self
            .submit(Request::CreateDataset {
                name: name.to_string(),
                partitioner,
                objects,
            })
            .expect("service is open")
            .wait()
            .expect("admitted requests are always answered")
            .response;
        match response {
            Response::Created(id) => Ok(id),
            Response::Failed(err) => Err(err),
            other => unreachable!("create answered with {other:?}"),
        }
    }

    /// Drop a dataset from every shard; `true` if it existed.
    pub fn drop_dataset(&self, id: DatasetId) -> bool {
        self.submit(Request::DropDataset { dataset: id })
            .expect("service is open")
            .wait()
            .expect("admitted requests are always answered")
            .response
            .into_dropped()
    }

    /// Replace one dataset's objects wholesale on every shard, with a
    /// replacement partitioner when one is given (the re-fit path for
    /// drifted data); the shard map is re-cut for that partitioner's
    /// tiles at the same time.
    pub fn swap_dataset(
        &self,
        id: DatasetId,
        objects: Vec<Rect<D>>,
        partitioner: Option<P>,
    ) -> Result<DataVersion, crate::RequestError> {
        let response = self
            .submit(Request::SwapData {
                dataset: id,
                objects,
                partitioner,
            })
            .expect("service is open")
            .wait()
            .expect("admitted requests are always answered")
            .response;
        match response {
            Response::Swapped(version) => Ok(version),
            Response::Failed(err) => Err(err),
            other => unreachable!("swap answered with {other:?}"),
        }
    }

    /// Resolve a dataset name to its id (route-table lookup).
    pub fn dataset_id(&self, name: &str) -> Option<DatasetId> {
        let routes = self.routes.read().expect("route table poisoned");
        routes
            .iter()
            .find(|(_, route)| route.name == name)
            .map(|(id, _)| *id)
    }

    /// `(id, name)` of every live dataset, ascending by id.
    pub fn datasets(&self) -> Vec<(DatasetId, String)> {
        let routes = self.routes.read().expect("route table poisoned");
        let mut out: Vec<(DatasetId, String)> = routes
            .iter()
            .map(|(id, route)| (*id, route.name.clone()))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The shard map one dataset's tiles are currently cut by.
    pub fn dataset_shard_map(&self, id: DatasetId) -> Option<ShardMap> {
        let routes = self.routes.read().expect("route table poisoned");
        routes.get(&id).map(|route| route.map.clone())
    }

    /// The data version one dataset serves (`None` for unknown ids),
    /// read from shard 0's store (replicas agree under the lock-step
    /// contract in the [type docs](Self)). Advances by one per
    /// applied write micro-batch and per swap of that dataset — other
    /// datasets' writes never move it.
    pub fn dataset_version(&self, id: DatasetId) -> Option<DataVersion> {
        self.shards[0].dataset_version(id)
    }

    /// Number of live objects in one dataset (exact on every shard —
    /// arenas are mirrored; only the *indexes* are sharded).
    pub fn dataset_live_count(&self, id: DatasetId) -> Option<usize> {
        self.shards[0].dataset_live_count(id)
    }

    /// The dataset [`crate::ServiceBuilder::build`] registered. Panics
    /// on a service started by
    /// [`crate::ServiceBuilder::build_catalog`].
    pub fn default_dataset(&self) -> DatasetId {
        self.default_dataset
            .expect("service was started with an empty catalog; name a dataset explicitly")
    }

    // ── Observability ──────────────────────────────────────────────

    /// Aggregate counter snapshot: counters summed across shards,
    /// dataset rows from shard 0. Identity, version, and live/arena
    /// columns are exact (mirrored); the tile-level columns
    /// (occupancy, imbalance) describe shard 0's tile slice — use
    /// [`Self::shard_scrapes`] for the per-shard view.
    pub fn report(&self) -> ServiceReport {
        merge_reports(self.shards.iter().map(|s| s.report()).collect())
    }

    /// The router's own telemetry: per-shard routed-request counters,
    /// fan-out width, single-shard fast-path count, and the
    /// scatter/gather phase histograms. Per-shard pipeline metrics
    /// live in [`Self::shard_scrapes`].
    pub fn scrape(&self) -> Scrape {
        Scrape::of(&self.stats.registry)
    }

    /// Every shard's own telemetry exposition, in shard order: the
    /// pipeline metrics (admission, batching, phases, per-dataset
    /// access counters and gauges).
    pub fn shard_scrapes(&self) -> Vec<Scrape> {
        self.shards.iter().map(|s| s.scrape()).collect()
    }

    /// The slowest requests answered so far, every shard's slow ring
    /// merged, slowest `total_ns` first; each entry carries its
    /// per-phase breakdown and the work counters attributed to it.
    /// A fanned-out request (kNN, joins, writes, admin ops, a range
    /// spanning shards) was answered once per shard and can appear
    /// once per shard fragment. Empty when telemetry is disabled.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let mut all: Vec<SlowQuery> = self.shards.iter().flat_map(|s| s.slow_queries()).collect();
        all.sort_by_key(|q| std::cmp::Reverse(q.total_ns));
        all
    }

    /// Graceful shutdown: close **all** shards first (no shard keeps
    /// admitting while siblings drain), drain each, stop the gather
    /// workers once every pending merge resolved, and return the
    /// aggregate report.
    pub fn shutdown(mut self) -> ServiceReport {
        for shard in &self.shards {
            shard.close();
        }
        let reports: Vec<ServiceReport> = self
            .shards
            .drain(..)
            .map(|shard| shard.shutdown())
            .collect();
        // Shards are drained: every part handle a queued gather job
        // waits on is resolved, so the workers finish the backlog and
        // exit on the closed queue.
        self.gather_queue.close();
        for worker in self.gather_workers.drain(..) {
            worker.join().expect("gather worker panicked");
        }
        merge_reports(reports)
    }
}

impl<const D: usize, P> Drop for ShardedService<D, P> {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains and joins — no
        // detached threads, no abandoned (hanging) handles.
        for shard in &self.shards {
            shard.close();
        }
        // Each shard's own Drop drains and joins its dispatchers.
        self.shards.clear();
        self.gather_queue.close();
        for worker in self.gather_workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sum per-shard reports into the aggregate view (dataset rows from
/// shard 0 — see [`ShardedService::report`]).
fn merge_reports(reports: Vec<ServiceReport>) -> ServiceReport {
    let mut merged = ServiceReport {
        submitted: 0,
        rejected: 0,
        shed: 0,
        queue_depth: 0,
        completed: 0,
        batches: 0,
        mean_batch: 0.0,
        max_batch: 0,
        forest_builds: 0,
        cross_joins: 0,
        probe_repartitions: 0,
        write_batches: 0,
        updates_applied: 0,
        delta_nodes_allocated: 0,
        wal_appends: 0,
        checkpoints: 0,
        recovered_datasets: 0,
        recovered_records: 0,
        recovered_pages: 0,
        datasets: Vec::new(),
    };
    let mut batched_total = 0.0;
    for (i, report) in reports.into_iter().enumerate() {
        merged.submitted += report.submitted;
        merged.rejected += report.rejected;
        merged.queue_depth += report.queue_depth;
        merged.completed += report.completed;
        batched_total += report.mean_batch * report.batches as f64;
        merged.batches += report.batches;
        merged.max_batch = merged.max_batch.max(report.max_batch);
        merged.forest_builds += report.forest_builds;
        merged.cross_joins += report.cross_joins;
        merged.probe_repartitions += report.probe_repartitions;
        merged.write_batches += report.write_batches;
        merged.updates_applied += report.updates_applied;
        merged.delta_nodes_allocated += report.delta_nodes_allocated;
        merged.wal_appends += report.wal_appends;
        merged.checkpoints += report.checkpoints;
        merged.recovered_datasets += report.recovered_datasets;
        merged.recovered_records += report.recovered_records;
        merged.recovered_pages += report.recovered_pages;
        if i == 0 {
            merged.datasets = report.datasets;
        }
    }
    if merged.batches > 0 {
        merged.mean_batch = batched_total / merged.batches as f64;
    }
    merged
}

/// The gather worker: wait the per-shard parts in shard order, merge,
/// apply any route edit, fulfil the merged promise.
fn gather_loop<const D: usize, P>(
    queue: &Bounded<GatherJob<P>>,
    routes: &RwLock<HashMap<DatasetId, DatasetRoute<P>>>,
    stats: &RouterStats,
) where
    P: Partitioner<D> + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    while let Some(job) = queue.pop() {
        let started = Instant::now();
        let mut completions = Vec::with_capacity(job.parts.len());
        let mut canceled = false;
        for part in job.parts {
            match part.wait() {
                Ok(completion) => completions.push(completion),
                Err(crate::handle::Canceled) => canceled = true,
            }
        }
        if canceled {
            // A dead shard cancels the merged request too (dropping
            // the promise cancels the caller's handle).
            drop(job.promise);
            continue;
        }
        let merged = merge_completions(&job.merge, completions);
        if let Some(action) = job.action {
            apply_route_action(routes, action, &merged.response);
        }
        stats.gather_ns.observe(elapsed_ns(started));
        job.promise.fulfill(merged);
    }
}

/// Fold per-shard completions into the merged one. Timing fields take
/// the slowest shard (the request was only done when its last fragment
/// was); `batch_size` likewise reports the largest carrying batch.
fn merge_completions(merge: &MergeKind, completions: Vec<Completion>) -> Completion {
    debug_assert!(!completions.is_empty(), "a fan-out targets >= 1 shard");
    let queued = completions
        .iter()
        .map(|c| c.queued)
        .max()
        .unwrap_or_default();
    let serviced = completions
        .iter()
        .map(|c| c.serviced)
        .max()
        .unwrap_or_default();
    let batch_size = completions.iter().map(|c| c.batch_size).max().unwrap_or(1);
    let response = merge_responses(merge, completions.into_iter().map(|c| c.response).collect());
    Completion {
        response,
        queued,
        serviced,
        batch_size,
    }
}

fn merge_responses(merge: &MergeKind, mut parts: Vec<Response>) -> Response {
    // A refused request is refused identically everywhere (same
    // catalog state on every shard): surface the first refusal.
    if let Some(i) = parts.iter().position(|r| matches!(r, Response::Failed(_))) {
        return parts.swap_remove(i);
    }
    match merge {
        MergeKind::First => {
            debug_assert!(
                !matches!(parts[0], Response::Created(_) | Response::Dropped(_))
                    || parts.iter().all(|r| *r == parts[0]),
                "replicated admin op answered divergently: {parts:?}"
            );
            parts.swap_remove(0)
        }
        MergeKind::Concat => {
            let mut ids: Vec<_> = parts.into_iter().flat_map(Response::into_range).collect();
            // Each fragment is sorted ascending by id (the canonical
            // batched-range order) but fragments interleave in id
            // space; re-sorting restores exactly what a single store
            // emits. Fragments are disjoint (one owning shard per
            // result), so no dedup is needed.
            ids.sort_unstable();
            Response::Range(ids)
        }
        MergeKind::Knn(k) => {
            Response::Knn(merge_knn(parts.into_iter().map(Response::into_knn), *k))
        }
        MergeKind::JoinSum => Response::Join(
            parts
                .into_iter()
                .map(Response::into_join)
                .sum::<JoinResult>(),
        ),
    }
}

fn apply_route_action<P>(
    routes: &RwLock<HashMap<DatasetId, DatasetRoute<P>>>,
    action: RouteAction<P>,
    response: &Response,
) {
    let mut routes = routes.write().expect("route table poisoned");
    match (action, response) {
        (
            RouteAction::Install {
                name,
                partitioner,
                map,
            },
            Response::Created(id),
        ) => {
            routes.insert(
                *id,
                DatasetRoute {
                    name,
                    partitioner,
                    map,
                },
            );
        }
        (RouteAction::Drop { dataset }, Response::Dropped(true)) => {
            routes.remove(&dataset);
        }
        (
            RouteAction::Swap {
                dataset,
                partitioner,
                map,
            },
            Response::Swapped(_),
        ) => {
            if let Some(route) = routes.get_mut(&dataset) {
                route.partitioner = partitioner;
                route.map = map;
            }
        }
        // Failed admin ops (and no-op drops) edit nothing.
        _ => {}
    }
}
