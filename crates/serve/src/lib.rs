//! # cbb-serve — async query service over a catalog of datasets
//!
//! The paper's clipping and the engine's partitioned execution cut the
//! cost of one *batch*; this crate turns the batch API into a
//! **long-running service over a catalog of named datasets**: requests
//! (range / kNN / join / cross-dataset join / writes / admin) are
//! admitted onto a bounded MPMC queue, dispatcher threads coalesce them
//! into micro-batches, batches execute against per-dataset
//! [`cbb_engine::DatasetStore`]s (each behind its own lock, each with
//! its own [`cbb_engine::Partitioner`] and
//! [`cbb_engine::DataVersion`]), and each caller waits on a per-request
//! [`CompletionHandle`]. Aji et al. (*Effective Spatial Data
//! Partitioning for Scalable Query Processing*) make the case that a
//! partitioned spatial system is a catalog of layers served side by
//! side; Tsitsigkos & Mamoulis (*Parallel In-Memory Evaluation of
//! Spatial Joins*) define the join across two independently indexed
//! inputs — [`Request::CrossJoin`] is that join over two *served*
//! datasets, both sides' tile forests borrowed from their stores.
//!
//! ```text
//!  clients                     service                        catalog
//!  ───────┐
//!  submit ├─▶ bounded MPMC ─▶ dispatcher: micro-batch ─▶ "roads" store (v3)
//!  submit │      queue         coalesced PER DATASET   ─▶ "pois"  store (v17)
//!  submit ├─◀ completion ◀─── fulfil handles ◀────────── each store owns its
//!  ───────┘    handles                                   tile forest
//! ```
//!
//! Properties the tests pin down. Most are checked by one seeded,
//! model-based harness (`tests/model.rs`, with `tests/harness/` and
//! `cbb-engine`'s `tests/model/`): each seed draws datasets, tilings, a
//! tree variant, an engine execution and a service shape (shards,
//! dispatchers, batch size and deadline, exec workers, durability),
//! streams reads,
//! writes, admin ops and hostile geometry through the service, and
//! compares every response byte for byte with the engine reference,
//! which is itself checked against a brute-force model. The other test
//! files name cases of it and keep the properties it cannot see
//! (concurrency, telemetry, recovery).
//!
//! * **Transparency** — a batched answer is byte-identical to calling
//!   the executor directly with the same request; batching changes
//!   *when* work runs, never *what* it computes.
//! * **Isolation** — writes to dataset A bump only A's version and
//!   touch only A's forest; concurrent reads of dataset B never block
//!   on them and observe no change.
//! * **Graceful shutdown** — [`ShardedService::shutdown`] closes
//!   admission, then answers everything already accepted (admin ops
//!   included) before the dispatchers exit; no request is dropped, no
//!   waiter hangs.
//! * **Forest reuse** — per-tile trees are built once per dataset
//!   create or swap and served from the dataset's store across
//!   requests; repeated (cross-) joins rebuild nothing.
//! * **Mutability without rebuilds** — writes are coalesced per
//!   dataset per micro-batch into one atomic delta-apply (a single
//!   version bump, tiles maintained in place, arena compaction past a
//!   fixed dead fraction with stable live ids); answers afterwards equal a
//!   wholesale swap with the same surviving objects, and a request
//!   admitted after a write completes observes that write.
//! * **Durability (opt-in, one shard)** — with
//!   [`ServiceBuilder::durability`] set, every dataset persists as
//!   snapshot + write-ahead log directly under the configured root; each write batch is fsynced before its
//!   waiters are fulfilled, and a restarted service recovers the full
//!   catalog and answers byte-equal to one that never stopped (see
//!   that method's docs, including what is *not* guaranteed).
//!
//! Everything is `std`: dispatcher threads, `Mutex`/`Condvar` queues and
//! one-shots, the engine's persistent worker pool inside a batch — no
//! async runtime, in keeping with the workspace's zero-dependency rule.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod batcher;
mod builder;
mod durability;
mod handle;
mod queue;
mod request;
mod router;
mod service;
mod stats;

pub use builder::ServiceBuilder;
pub use cbb_engine::{AnyPartitioner, DatasetId, ShardMap, ShardTiling, Update, UpdateResult};
pub use cbb_telemetry::{HistogramSnapshot, SlowQuery, Span, TelemetryConfig, TelemetrySnapshot};
pub use handle::{Canceled, CompletionHandle};
pub use queue::Closed;
pub use request::{Completion, Request, RequestError, RequestKind, Response, UpdateSummary};
pub use router::ShardedService;
pub use service::{Scrape, DEFAULT_DATASET};
pub use stats::{DatasetReport, ServiceReport};

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_engine::AdaptiveGrid;
    use cbb_geom::{Point, Rect};
    use cbb_rtree::{TreeConfig, Variant};

    #[test]
    fn end_to_end_smoke() {
        let r = |x: f64, y: f64| Rect::new(Point([x, y]), Point([x + 2.0, y + 2.0]));
        let objects = vec![r(0.0, 0.0), r(5.0, 5.0), r(9.0, 9.0)];
        let service = ServiceBuilder::new().build(
            AdaptiveGrid::from_sample(
                Rect::new(Point([0.0, 0.0]), Point([12.0, 12.0])),
                [2, 2],
                &[],
            ),
            objects,
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        );
        let dataset = service.default_dataset();
        assert_eq!(service.dataset_id(DEFAULT_DATASET), Some(dataset));
        let range = service
            .submit(Request::Range {
                dataset,
                query: r(4.0, 4.0),
                use_clips: true,
            })
            .unwrap();
        let knn = service
            .submit(Request::Knn {
                dataset,
                center: Point([9.5, 9.5]),
                k: 2,
            })
            .unwrap();
        let ids = range.wait().unwrap().response.into_range();
        assert_eq!(ids.len(), 1);
        let nn = knn.wait().unwrap().response.into_knn();
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].1, 0.0, "the query point is inside the nearest box");
        let report = service.shutdown();
        // The default dataset's create is the first admitted request.
        assert_eq!(report.submitted, 3);
        assert_eq!(report.completed, 3);
        assert_eq!(report.forest_builds, 1);
        assert_eq!(report.datasets.len(), 1);
        assert_eq!(report.datasets[0].name, DEFAULT_DATASET);
        assert_eq!(report.datasets[0].live_objects, 3);
    }
}
