//! Service counters as **views over the telemetry registry**, plus the
//! report types snapshots are read through.
//!
//! Every counter the service maintains lives in the shared
//! [`Registry`]; [`ServiceStats`] holds the pre-resolved handles the
//! dispatchers record through (one relaxed `fetch_add` per record, no
//! allocation), and [`ServiceReport`] is assembled by *reading the same
//! cells back* — there is no second, hand-maintained set of counters to
//! drift out of sync. With telemetry disabled every handle is a no-op:
//! the service runs (and answers) identically, and reports read zero.

use std::sync::Arc;

use cbb_engine::{DataVersion, DatasetId};
use cbb_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Phase, Registry, SlowQueryRing, TelemetryConfig,
};

use crate::request::RequestKind;

/// Metric names the service registers — the scrape surface is an API;
/// the golden scrape test pins this list.
pub(crate) mod names {
    /// Requests admitted to the queue.
    pub(crate) const SUBMITTED: &str = "cbb_requests_submitted_total";
    /// Requests refused by a closed service.
    pub(crate) const REJECTED: &str = "cbb_requests_rejected_total";
    /// Requests answered (handles fulfilled).
    pub(crate) const COMPLETED: &str = "cbb_requests_completed_total";
    /// Requests answered, by request kind.
    pub(crate) const COMPLETED_BY_KIND: &str = "cbb_requests_by_kind_total";
    /// Requests admitted but not yet picked up by a dispatcher.
    pub(crate) const QUEUE_DEPTH: &str = "cbb_queue_depth";
    /// Micro-batches executed.
    pub(crate) const BATCHES: &str = "cbb_batches_total";
    /// Requests carried by those batches.
    pub(crate) const BATCHED_REQUESTS: &str = "cbb_batched_requests_total";
    /// Largest batch executed.
    pub(crate) const MAX_BATCH: &str = "cbb_batch_size_max";
    /// Batch size distribution.
    pub(crate) const BATCH_SIZE: &str = "cbb_batch_size";
    /// End-to-end request latency (admission → answer), by kind.
    pub(crate) const LATENCY_NS: &str = "cbb_request_latency_ns";
    /// Per-phase service time, by phase.
    pub(crate) const PHASE_NS: &str = "cbb_request_phase_ns";
    /// Tile-forest builds (one per dataset create or swap).
    pub(crate) const FOREST_BUILDS: &str = "cbb_forest_builds_total";
    /// Cross-dataset join requests served.
    pub(crate) const CROSS_JOINS: &str = "cbb_cross_joins_total";
    /// Cross-join probe sides re-partitioned instead of served from a
    /// cached forest (the fallback the forest-native path avoids).
    pub(crate) const PROBE_REPARTITIONS: &str = "cbb_probe_repartitions_total";
    /// (dataset, micro-batch) pairs that applied ≥ 1 write.
    pub(crate) const WRITE_BATCHES: &str = "cbb_write_batches_total";
    /// Individual updates applied.
    pub(crate) const UPDATES_APPLIED: &str = "cbb_updates_applied_total";
    /// R-tree nodes constructed by delta maintenance.
    pub(crate) const DELTA_NODES: &str = "cbb_delta_nodes_allocated_total";
    /// Intersecting pairs produced by join requests.
    pub(crate) const JOIN_PAIRS: &str = "cbb_join_pairs_total";
    /// WAL records appended (one per applied write micro-batch).
    pub(crate) const WAL_APPENDS: &str = "cbb_wal_appends_total";
    /// Bytes appended to data WALs (frame headers included).
    pub(crate) const WAL_BYTES: &str = "cbb_wal_bytes_total";
    /// Per-commit fsync latency.
    pub(crate) const WAL_FSYNC_NS: &str = "cbb_wal_fsync_ns";
    /// WALs rolled into fresh snapshots past the size threshold.
    pub(crate) const CHECKPOINTS: &str = "cbb_checkpoints_total";
    /// Datasets recovered from durable state at startup.
    pub(crate) const RECOVERED_DATASETS: &str = "cbb_recovered_datasets_total";
    /// WAL records replayed (applied, not version-skipped) at startup.
    pub(crate) const RECOVERED_RECORDS: &str = "cbb_recovered_wal_records_total";
    /// Snapshot pages read by startup recovery.
    pub(crate) const RECOVERED_PAGES: &str = "cbb_recovered_pages_total";
    /// Per-dataset traversal counter prefix: the six `AccessStats`
    /// fields become `cbb_access_<field>_total{dataset=...}`.
    pub(crate) const ACCESS_PREFIX: &str = "cbb_access_";
    /// Live (queryable) objects per dataset.
    pub(crate) const DS_LIVE: &str = "cbb_dataset_live_objects";
    /// Arena slots per dataset.
    pub(crate) const DS_SLOTS: &str = "cbb_dataset_arena_slots";
    /// Current data version per dataset.
    pub(crate) const DS_VERSION: &str = "cbb_dataset_version";
    /// Max-tile / mean-tile live objects per dataset.
    pub(crate) const DS_IMBALANCE: &str = "cbb_dataset_load_imbalance";
    /// Median tile occupancy per dataset.
    pub(crate) const DS_OCC_P50: &str = "cbb_dataset_tile_occupancy_p50";
    /// 99th-percentile tile occupancy per dataset.
    pub(crate) const DS_OCC_P99: &str = "cbb_dataset_tile_occupancy_p99";
}

/// Pre-resolved telemetry handles of a running service. Dispatchers
/// record through these; [`ServiceReport`] reads the same registry
/// cells back.
pub(crate) struct ServiceStats {
    registry: Registry,
    slow: SlowQueryRing,
    pub(crate) submitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) completed: Counter,
    pub(crate) by_kind: Vec<Counter>,
    pub(crate) queue_depth: Gauge,
    pub(crate) batches: Counter,
    pub(crate) batched_requests: Counter,
    pub(crate) max_batch: Gauge,
    pub(crate) batch_size: Histogram,
    pub(crate) latency: Vec<Histogram>,
    pub(crate) phase: Vec<Histogram>,
    /// Bumped once per dataset create and once per swap.
    pub(crate) forest_builds: Counter,
    pub(crate) cross_joins: Counter,
    pub(crate) probe_repartitions: Counter,
    pub(crate) write_batches: Counter,
    pub(crate) updates_applied: Counter,
    pub(crate) delta_nodes_allocated: Counter,
    pub(crate) join_pairs: Counter,
    pub(crate) wal_appends: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_fsync_ns: Histogram,
    pub(crate) checkpoints: Counter,
    pub(crate) recovered_datasets: Counter,
    pub(crate) recovered_records: Counter,
    pub(crate) recovered_pages: Counter,
}

impl ServiceStats {
    /// Build the registry this configuration calls for and resolve
    /// every service-level handle (one registration pass; the hot path
    /// never registers).
    pub(crate) fn new(config: &TelemetryConfig) -> Self {
        let registry = config.build_registry();
        let slow = config.build_slow_ring();
        ServiceStats {
            submitted: registry.counter(names::SUBMITTED, "Requests admitted to the queue.", &[]),
            rejected: registry.counter(
                names::REJECTED,
                "Requests refused by a closed service.",
                &[],
            ),
            completed: registry.counter(
                names::COMPLETED,
                "Requests answered (completion handles fulfilled).",
                &[],
            ),
            by_kind: RequestKind::ALL
                .iter()
                .map(|k| {
                    registry.counter(
                        names::COMPLETED_BY_KIND,
                        "Requests answered, by request kind.",
                        &[("request_kind", k.name())],
                    )
                })
                .collect(),
            queue_depth: registry.gauge(
                names::QUEUE_DEPTH,
                "Requests admitted but not yet picked up by a dispatcher.",
                &[],
            ),
            batches: registry.counter(names::BATCHES, "Micro-batches executed.", &[]),
            batched_requests: registry.counter(
                names::BATCHED_REQUESTS,
                "Requests carried by executed micro-batches.",
                &[],
            ),
            max_batch: registry.gauge(names::MAX_BATCH, "Largest batch executed.", &[]),
            batch_size: registry.histogram(
                names::BATCH_SIZE,
                "Requests per executed micro-batch.",
                &[],
            ),
            latency: RequestKind::ALL
                .iter()
                .map(|k| {
                    registry.histogram(
                        names::LATENCY_NS,
                        "End-to-end request latency in nanoseconds (admission to answer).",
                        &[("request_kind", k.name())],
                    )
                })
                .collect(),
            phase: Phase::ALL
                .iter()
                .map(|p| {
                    registry.histogram(
                        names::PHASE_NS,
                        "Per-request service time by phase, in nanoseconds.",
                        &[("phase", p.name())],
                    )
                })
                .collect(),
            forest_builds: registry.counter(
                names::FOREST_BUILDS,
                "Tile-forest builds (one per dataset create or swap).",
                &[],
            ),
            cross_joins: registry.counter(
                names::CROSS_JOINS,
                "Cross-dataset join requests served.",
                &[],
            ),
            probe_repartitions: registry.counter(
                names::PROBE_REPARTITIONS,
                "Cross-join probe sides re-partitioned instead of served from a cached forest.",
                &[],
            ),
            write_batches: registry.counter(
                names::WRITE_BATCHES,
                "(dataset, micro-batch) pairs that applied at least one write.",
                &[],
            ),
            updates_applied: registry.counter(
                names::UPDATES_APPLIED,
                "Individual updates applied across all write batches.",
                &[],
            ),
            delta_nodes_allocated: registry.counter(
                names::DELTA_NODES,
                "R-tree nodes constructed by delta maintenance.",
                &[],
            ),
            join_pairs: registry.counter(
                names::JOIN_PAIRS,
                "Intersecting pairs produced by join requests.",
                &[],
            ),
            wal_appends: registry.counter(
                names::WAL_APPENDS,
                "WAL records appended (one per applied write micro-batch).",
                &[],
            ),
            wal_bytes: registry.counter(
                names::WAL_BYTES,
                "Bytes appended to data WALs, frame headers included.",
                &[],
            ),
            wal_fsync_ns: registry.histogram(
                names::WAL_FSYNC_NS,
                "Per-commit WAL fsync latency in nanoseconds.",
                &[],
            ),
            checkpoints: registry.counter(
                names::CHECKPOINTS,
                "WALs rolled into fresh snapshots past the size threshold.",
                &[],
            ),
            recovered_datasets: registry.counter(
                names::RECOVERED_DATASETS,
                "Datasets recovered from durable state at startup.",
                &[],
            ),
            recovered_records: registry.counter(
                names::RECOVERED_RECORDS,
                "WAL records replayed (applied, not version-skipped) at startup.",
                &[],
            ),
            recovered_pages: registry.counter(
                names::RECOVERED_PAGES,
                "Snapshot pages read by startup recovery.",
                &[],
            ),
            registry,
            slow,
        }
    }

    /// The shared registry (scrape surface).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The slow-query ring.
    pub(crate) fn slow(&self) -> &SlowQueryRing {
        &self.slow
    }

    /// Per-dataset traversal-counter handles (the seven `AccessStats`
    /// fields), resolved once per (dataset, batch group) — the per-query
    /// record path then touches only these.
    pub(crate) fn access_counters(&self, dataset: &str) -> [Counter; 7] {
        let field = |name: &str, help: &str| {
            self.registry.counter(
                &format!("{}{}_total", names::ACCESS_PREFIX, name),
                help,
                &[("dataset", dataset)],
            )
        };
        [
            field("leaf_accesses", "Leaf nodes read (the paper's I/O metric)."),
            field(
                "contributing_leaf_accesses",
                "Leaf reads that contained at least one result.",
            ),
            field("internal_accesses", "Internal (directory) nodes visited."),
            field("results", "Result objects produced."),
            field("clip_tests", "Clip-point dominance comparisons performed."),
            field("clip_prunes", "Subtree visits avoided by clip points."),
            field(
                "overlap_tests",
                "Rectangle-rectangle intersection tests performed.",
            ),
        ]
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batched_requests.add(size as u64);
        self.max_batch.set_max(size as i64);
        self.batch_size.observe(size as u64);
    }

    pub(crate) fn record_write_batch(&self, updates: u64, nodes_allocated: u64) {
        self.write_batches.inc();
        self.updates_applied.add(updates);
        self.delta_nodes_allocated.add(nodes_allocated);
    }

    /// Record one durable commit: a WAL record of `bytes` framed
    /// bytes, fsynced in `fsync_ns`.
    pub(crate) fn record_wal_append(&self, bytes: u64, fsync_ns: u64) {
        self.wal_appends.inc();
        self.wal_bytes.add(bytes);
        self.wal_fsync_ns.observe(fsync_ns);
    }

    /// Record what startup recovery restored.
    pub(crate) fn record_recovery(&self, datasets: u64, records: u64, pages: u64) {
        self.recovered_datasets.add(datasets);
        self.recovered_records.add(records);
        self.recovered_pages.add(pages);
    }

    /// Record one answered request: completion counters, latency
    /// histogram, per-phase histograms, slow ring.
    pub(crate) fn record_completion(
        &self,
        kind: RequestKind,
        latency_ns: u64,
        span: &cbb_telemetry::Span,
        dataset: Option<Arc<str>>,
        counters: Vec<(&'static str, u64)>,
    ) {
        self.completed.inc();
        self.by_kind[kind.index()].inc();
        self.latency[kind.index()].observe(latency_ns);
        for phase in Phase::ALL {
            let ns = span.get(phase);
            if ns > 0 {
                self.phase[phase as usize].observe(ns);
            }
        }
        if self.registry.is_enabled() {
            self.slow.offer(cbb_telemetry::SlowQuery {
                kind: kind.name(),
                dataset,
                total_ns: latency_ns,
                span: *span,
                counters,
            });
        }
    }

    pub(crate) fn snapshot(&self, datasets: Vec<DatasetReport>) -> ServiceReport {
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        ServiceReport {
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            shed: 0,
            queue_depth: self.queue_depth.get(),
            completed: self.completed.get(),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            max_batch: self.max_batch.get() as u64,
            forest_builds: self.forest_builds.get(),
            cross_joins: self.cross_joins.get(),
            probe_repartitions: self.probe_repartitions.get(),
            write_batches: self.write_batches.get(),
            updates_applied: self.updates_applied.get(),
            delta_nodes_allocated: self.delta_nodes_allocated.get(),
            wal_appends: self.wal_appends.get(),
            checkpoints: self.checkpoints.get(),
            recovered_datasets: self.recovered_datasets.get(),
            recovered_records: self.recovered_records.get(),
            recovered_pages: self.recovered_pages.get(),
            datasets,
        }
    }
}

/// One dataset's row in a [`ServiceReport`]: identity, version, store
/// shape, maintenance counters, and the tile-occupancy observability
/// metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetReport {
    /// The catalog id.
    pub id: DatasetId,
    /// The name the dataset was created under.
    pub name: String,
    /// Current data version (one bump per applied write batch or swap).
    pub version: DataVersion,
    /// Live (queryable) objects.
    pub live_objects: usize,
    /// Total arena slots (live + tombstoned + reclaimed).
    pub arena_slots: usize,
    /// Reclaimed slots currently available for id reuse.
    pub free_slots: usize,
    /// Compaction sweeps performed.
    pub compactions: u64,
    /// Micro-batches that applied at least one write to this dataset.
    pub write_batches: u64,
    /// Individual updates applied to this dataset.
    pub updates_applied: u64,
    /// R-tree nodes constructed by this dataset's delta maintenance.
    pub delta_nodes_allocated: u64,
    /// Max-tile / mean-tile live objects over the dataset's non-empty
    /// tiles (`1.0` = perfectly balanced). Watches a data-fitted
    /// partitioner drift as churn moves the distribution: when this
    /// climbs, re-fit via `SwapData` with a fresh partitioner.
    pub load_imbalance: f64,
    /// The full per-tile occupancy **distribution** (indexed objects of
    /// every non-empty tile, log₂-bucketed). The max/mean ratio above
    /// hides the tail; `occupancy.quantile(0.99)` vs
    /// `occupancy.quantile(0.5)` is the re-fit trigger signal.
    pub occupancy: HistogramSnapshot,
}

impl DatasetReport {
    /// Median tile occupancy (`0` for an empty forest).
    pub fn occupancy_p50(&self) -> u64 {
        self.occupancy.quantile(0.5)
    }

    /// 99th-percentile tile occupancy — the drift tail.
    pub fn occupancy_p99(&self) -> u64 {
        self.occupancy.quantile(0.99)
    }
}

/// A point-in-time view of a service's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests refused because the service was closed.
    pub rejected: u64,
    /// Always 0: admission never sheds load — a full queue blocks
    /// `submit` instead. Kept only for readers that still name it.
    pub shed: u64,
    /// Requests admitted but not yet picked up by a dispatcher at
    /// snapshot time.
    pub queue_depth: i64,
    /// Requests answered (handles fulfilled).
    pub completed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean requests per batch (0 when no batch ran).
    pub mean_batch: f64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Tile-forest builds: one per dataset create and one per swap.
    /// Only wholesale (re)builds count — write batches maintain the
    /// forest in place without one.
    pub forest_builds: u64,
    /// Cross-dataset join requests served.
    pub cross_joins: u64,
    /// Cross-join probe sides re-partitioned instead of served from a
    /// cached forest. Zero on a steady-state service whose cross-joined
    /// datasets share a tiling — every probe side is forest-native; the
    /// counter moving means a partitioner mismatch forced the fallback.
    pub probe_repartitions: u64,
    /// (dataset, micro-batch) pairs that applied at least one write
    /// (= version bumps from the write path; each coalesces every
    /// write sharing the batch against that dataset, and all-no-op
    /// batches bump nothing).
    pub write_batches: u64,
    /// Individual updates *applied* across all write batches (no-op
    /// deletes of dead ids and rejected inserts are not counted).
    pub updates_applied: u64,
    /// R-tree nodes constructed by delta maintenance — compare against
    /// the node count of one wholesale rebuild to see what batching
    /// plus delta-apply saved.
    pub delta_nodes_allocated: u64,
    /// WAL records appended (one per applied write micro-batch; zero
    /// on a service without durability).
    pub wal_appends: u64,
    /// WALs rolled into fresh snapshots past the size threshold.
    pub checkpoints: u64,
    /// Datasets recovered from durable state at startup.
    pub recovered_datasets: u64,
    /// WAL records replayed (applied, not version-skipped) at startup.
    pub recovered_records: u64,
    /// Snapshot pages read by startup recovery — without
    /// [`crate::ServiceBuilder::durability`] this stays zero.
    pub recovered_pages: u64,
    /// Per-dataset rows, ascending by id (dropped datasets disappear
    /// from here; their aggregate contributions above remain).
    pub datasets: Vec<DatasetReport>,
}

impl ServiceReport {
    /// The row of one dataset, if it is (still) in the catalog.
    pub fn dataset(&self, id: DatasetId) -> Option<&DatasetReport> {
        self.datasets.iter().find(|d| d.id == id)
    }
}
