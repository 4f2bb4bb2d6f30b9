//! The catalog acceptance suite.
//!
//! * **Named harness cases** (`harness/`): `CrossJoin` over served
//!   datasets is byte-equal (every `JoinResult` counter) to the engine
//!   reference for every tiling on the indexed side and for a shared
//!   tiling, with zero forest rebuilds on repeated joins; create / drop
//!   / swap ride the queue and fail like the reference catalog (unknown
//!   ids, taken names, dropped ids never reused); writes and admin ops
//!   sharing a micro-batch resolve in queue order; a non-finite or
//!   inverted object in a create or swap payload, and a window, kNN
//!   centre or join probe set with no answer, are refused, and the
//!   service keeps answering, on one shard and on two.
//! * **Isolation** — concurrent write batches to dataset A bump only
//!   A's `DataVersion`; reads of B observe no version change and no
//!   cache invalidation.
//! * **Repartitioning, report rows** — a shared tiling never
//!   re-partitions the probe side; per-dataset report rows carry the
//!   load-imbalance metric.

mod harness;
#[path = "../../engine/tests/model/mod.rs"]
mod model;

use std::time::Duration;

use cbb_datasets::skew::{clustered_with_layout, zipfian};
use cbb_engine::{
    AdaptiveGrid, AnyPartitioner, DataVersion, DatasetId, JoinAlgo, QuadtreePartitioner,
};
use cbb_geom::{Point, Rect};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Request, Response, ServiceBuilder};
use harness::{answer, run, Service};
use model::Tiling;

const EXEC_WORKERS: usize = 3;

fn tree() -> TreeConfig<2> {
    model::tree(Variant::RStar)
}

fn catalog_service() -> Service {
    ServiceBuilder::new()
        .exec_workers(EXEC_WORKERS)
        .build_catalog(tree(), model::clip())
}

fn cross_join(svc: &Service, left: DatasetId, right: DatasetId, use_clips: bool) -> Response {
    let algo = JoinAlgo::Auto;
    answer(
        svc,
        Request::CrossJoin {
            left,
            right,
            algo,
            use_clips,
        },
    )
}

/// Cross-joins against an indexed side under every tiling, and under
/// the probe side's own tiling; forest builds stay at creates plus
/// swaps (checked at the end of every case).
#[test]
fn cross_join_equals_direct_partitioned_join_for_all_partitioners() {
    for (i, tiling) in Tiling::ALL.into_iter().enumerate() {
        let seen = run(301 + i as u64, |c| {
            c.data.tilings = vec![Tiling::Fitted, tiling];
            c.data.share = tiling == Tiling::Fitted;
        });
        assert!(seen.contains("kind=CrossJoin"));
    }
}

/// Admin ops in queue order on one dispatcher: creates (fresh, taken
/// and re-used names), drops, swaps with and without a re-fit, and
/// reads and writes against dropped or unknown ids.
#[test]
fn admin_ops_ride_the_queue_and_fail_cleanly() {
    let seen = run(311, |c| {
        c.shape.shards = 1;
        c.shape.dispatchers = 1;
        c.rounds = 10;
    });
    for refusal in ["name taken", "unknown dataset Range"] {
        assert!(seen.contains(&format!("refused={refusal}")), "{refusal}");
    }
}

/// A hostile stream: one request in four carries a NaN, infinite or
/// inverted rect (a create or swap payload is refused by index, an
/// insert is not applied, a read is refused), and the single
/// dispatcher answers every request after it.
#[test]
fn invalid_objects_are_refused_and_the_service_keeps_answering() {
    run(306, |c| {
        c.shape.dispatchers = 1;
        c.hostile = 0.25;
    });
}

/// On a shared tiling the probe side is served forest-native —
/// repeated cross-joins (self-joins included) extract no live
/// rectangles and re-partition nothing. Only a genuine partitioner
/// mismatch moves the counter.
#[test]
fn same_tiling_cross_joins_never_repartition_probes() {
    let svc = catalog_service();
    let data_a = clustered_with_layout::<2>(900, 5, 25_000.0, 0.12, 9, 9);
    let data_b = clustered_with_layout::<2>(1_000, 5, 25_000.0, 0.12, 9, 10);
    let domain = data_a.domain.union(&data_b.domain);
    let shared_part = AnyPartitioner::from(AdaptiveGrid::from_sample(domain, [4, 4], &[]));
    let a = svc
        .create_dataset("a", shared_part.clone(), data_a.boxes.clone())
        .unwrap();
    let b = svc
        .create_dataset("b", shared_part.clone(), data_b.boxes.clone())
        .unwrap();
    let cross_pairs = brute_force_pairs(&data_a.boxes, &data_b.boxes);
    let self_pairs = brute_force_pairs(&data_a.boxes, &data_a.boxes);
    for round in 0..3 {
        for use_clips in [true, false] {
            assert_eq!(
                cross_join(&svc, a, b, use_clips).into_join().pairs,
                cross_pairs,
                "clips={use_clips} round {round}"
            );
            assert_eq!(
                cross_join(&svc, a, a, use_clips).into_join().pairs,
                self_pairs,
                "clips={use_clips} self round {round}"
            );
        }
    }
    let report = svc.report();
    assert_eq!(
        report.probe_repartitions, 0,
        "shared tiling must never re-partition the probe side"
    );
    assert_eq!(
        report.forest_builds, 2,
        "one build per dataset creation, zero per join"
    );
    // A mismatched tiling is exactly what moves the counter.
    let other = AnyPartitioner::from(AdaptiveGrid::from_sample(domain, [5, 5], &[]));
    let c = svc
        .create_dataset("c", other, data_b.boxes.clone())
        .unwrap();
    let mismatched = cross_join(&svc, a, c, true).into_join();
    assert_eq!(mismatched.pairs, cross_pairs);
    let report = svc.shutdown();
    assert_eq!(report.probe_repartitions, 1);
}

/// The isolation acceptance test: hammering dataset A with write
/// batches moves only A's version; B's version, cache entries, and
/// answers are untouched, and B's reads proceed concurrently.
#[test]
fn writes_to_one_dataset_leave_others_unversioned_and_cached() {
    let svc = std::sync::Arc::new(catalog_service());
    let a_data = clustered_with_layout::<2>(900, 5, 40_000.0, 0.2, 3, 3);
    let b_data = zipfian::<2>(900, 8, 11);
    let a = svc
        .create_dataset(
            "churny",
            AdaptiveGrid::from_sample(a_data.domain, [4, 4], &[]).into(),
            a_data.boxes.clone(),
        )
        .unwrap();
    let b = svc
        .create_dataset(
            "steady",
            AdaptiveGrid::from_sample(b_data.domain, [3, 3], &b_data.boxes).into(),
            b_data.boxes.clone(),
        )
        .unwrap();
    let b_query = Rect::new(Point([0.0, 0.0]), Point([1_000_000.0, 1_000_000.0]));
    let b_baseline = svc
        .submit(Request::Range {
            dataset: b,
            query: b_query,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range();
    assert_eq!(b_baseline.len(), 900);
    let builds_before = svc.report().forest_builds;

    // Writers hammer A; a reader hammers B concurrently, recording the
    // B version it observes before and after every read.
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for i in 0..25 {
                    let base = (w * 1_000 + i * 7) as f64;
                    let rect = Rect::new(Point([base, base]), Point([base + 50.0, base + 50.0]));
                    let id = svc
                        .submit(Request::Insert { dataset: a, rect })
                        .unwrap()
                        .wait()
                        .unwrap()
                        .response
                        .into_inserted()
                        .expect("finite rect applies");
                    let _ = id;
                }
            })
        })
        .collect();
    let reader = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            let mut answers = Vec::new();
            for _ in 0..20 {
                assert_eq!(
                    svc.dataset_version(b),
                    Some(DataVersion(0)),
                    "B's version must never move while A churns"
                );
                answers.push(
                    svc.submit(Request::Range {
                        dataset: b,
                        query: b_query,
                        use_clips: true,
                    })
                    .unwrap()
                    .wait()
                    .unwrap()
                    .response
                    .into_range(),
                );
            }
            answers
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    for answer in reader.join().unwrap() {
        assert_eq!(answer, b_baseline, "B's answers are isolation-stable");
    }

    // A moved: one version bump per applied write micro-batch, 75
    // applied inserts. B did not move — and nothing was rebuilt, so
    // B's cached forest was never invalidated by A's write traffic.
    let report = std::sync::Arc::into_inner(svc)
        .expect("all threads joined")
        .shutdown();
    let row_a = report.dataset(a).expect("A is live").clone();
    let row_b = report.dataset(b).expect("B is live").clone();
    assert_eq!(
        row_a.version.0, row_a.write_batches,
        "A bumps once per batch"
    );
    assert!(row_a.version.0 >= 1);
    assert_eq!(row_a.updates_applied, 75);
    assert_eq!(row_a.live_objects, 900 + 75);
    assert_eq!(row_b.version, DataVersion(0), "B never bumped");
    assert_eq!(row_b.write_batches, 0);
    assert_eq!(row_b.updates_applied, 0);
    assert_eq!(
        report.forest_builds, builds_before,
        "A's delta writes install without rebuilds; B's cache key stays hot"
    );
}

/// A read whose geometry has no answer is refused, not answered: a
/// range window with a NaN, infinite or inverted bound, a kNN centre
/// with a NaN or infinite coordinate, and a join probe set holding such
/// a window each fail with `InvalidQuery`, alone or sharing a
/// micro-batch with valid reads, on one shard and on two. The next
/// valid request is answered, and every wait is bounded.
#[test]
fn invalid_read_queries_are_refused_and_the_service_keeps_answering() {
    for shards in [1, 2] {
        let seen = run(306 + shards as u64, |c| {
            c.shape.shards = shards;
            c.shape.dispatchers = 1;
            c.shape.durable = false;
            c.hostile = 0.3;
        });
        for kind in ["Range", "Knn", "Join"] {
            assert!(seen.contains(&format!("refused=hostile {kind}")), "{kind}");
        }
    }
}

/// Mutations sharing a micro-batch resolve to the queue-order final
/// state: an admin op is a write barrier, so a write enqueued before a
/// swap or drop of its dataset is applied first, and one enqueued after
/// it lands on the fresh arena (or fails). One dispatcher, wide batches
/// held open long enough that a burst is one batch: the harness
/// replays each of the service's batches in queue order.
#[test]
fn writes_and_admin_ops_resolve_in_queue_order() {
    let seen = run(309, |c| {
        c.shape.shards = 1;
        c.shape.dispatchers = 1;
        c.shape.batch_max = Some(64);
        c.shape.deadline = Duration::from_millis(10);
        c.rounds = 10;
    });
    assert!(seen.contains("batch=writes around an admin op"));
}

/// Per-dataset report rows surface the load-imbalance observability
/// metric: a uniform grid over clustered data reads hot, a fitted
/// partitioner reads near-balanced, and per-dataset write counters
/// stay per-dataset.
#[test]
fn report_rows_surface_per_dataset_imbalance_and_counters() {
    let svc = catalog_service();
    let data = clustered_with_layout::<2>(1_200, 3, 15_000.0, 0.05, 21, 21);
    let skewed = svc
        .create_dataset(
            "skewed",
            AdaptiveGrid::from_sample(data.domain, [5, 5], &[]).into(),
            data.boxes.clone(),
        )
        .unwrap();
    let fitted = svc
        .create_dataset(
            "fitted",
            AnyPartitioner::from(QuadtreePartitioner::build(data.domain, &data.boxes, 150)),
            data.boxes.clone(),
        )
        .unwrap();
    svc.submit(Request::Insert {
        dataset: fitted,
        rect: data.boxes[0],
    })
    .unwrap()
    .wait()
    .unwrap();

    let report = svc.shutdown();
    let skewed_row = report.dataset(skewed).unwrap();
    let fitted_row = report.dataset(fitted).unwrap();
    assert!(
        skewed_row.load_imbalance > 2.0,
        "clustered data under a uniform grid must read hot (got {})",
        skewed_row.load_imbalance
    );
    assert!(
        fitted_row.load_imbalance < skewed_row.load_imbalance,
        "a fitted partitioner must balance better ({} vs {})",
        fitted_row.load_imbalance,
        skewed_row.load_imbalance
    );
    assert!(fitted_row.load_imbalance >= 1.0);
    assert_eq!(
        (skewed_row.write_batches, fitted_row.write_batches),
        (0, 1),
        "write counters are per dataset"
    );
    assert_eq!(fitted_row.version, DataVersion(1));
    assert_eq!(skewed_row.version, DataVersion(0));
    assert_eq!(fitted_row.live_objects, 1_201);
}
