//! The catalog acceptance suite.
//!
//! * **Cross-join oracle** — `CrossJoin` over two served datasets is
//!   byte-equal (every `JoinResult` counter, not just pairs) to a
//!   direct engine join over the same two object sets — per call with
//!   clips off, over forests built from them with clips on — for an
//!   equal-cut grid, a fitted grid and a quadtree on the indexed side
//!   plus a shared tiling, with the indexed side's forest served from
//!   the cache — the build counter proves zero rebuilds on repeat
//!   joins.
//! * **Isolation** — concurrent write batches to dataset A bump only
//!   A's `DataVersion`; reads of B observe no version change and no
//!   cache invalidation.
//! * Admin ops (create/drop/swap) ride the queue, fail cleanly, and
//!   per-dataset report rows carry the load-imbalance metric.

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::{clustered_with_layout, zipfian};
use cbb_engine::{
    partitioned_join, partitioned_join_forests, partitioned_join_with, AdaptiveGrid,
    AnyPartitioner, DataVersion, DatasetId, JoinAlgo, JoinPlan, QuadtreePartitioner, TileForest,
};
use cbb_geom::{Point, Rect};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, RequestError, Response, ServiceBuilder, ShardedService};
use std::time::Duration;

const EXEC_WORKERS: usize = 3;

type Service = ShardedService<2, AnyPartitioner<2>>;

fn tree() -> TreeConfig<2> {
    TreeConfig::tiny(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

fn catalog_service() -> Service {
    ServiceBuilder::new()
        .exec_workers(EXEC_WORKERS)
        .build_catalog(tree(), clip())
}

fn cross_join(svc: &Service, left: DatasetId, right: DatasetId, use_clips: bool) -> Response {
    svc.submit(Request::CrossJoin {
        left,
        right,
        algo: JoinAlgo::Auto,
        use_clips,
    })
    .unwrap()
    .wait()
    .unwrap()
    .response
}

/// The acceptance oracle: cross-dataset joins through the service equal
/// direct engine joins over the same object sets — byte-for-byte —
/// across uniform / adaptive / quadtree indexed sides and a shared
/// tiling, every tile swept, and repeat joins rebuild nothing.
#[test]
fn cross_join_equals_direct_partitioned_join_for_all_partitioners() {
    let svc = catalog_service();
    let left_data = clustered_with_layout::<2>(1_300, 6, 30_000.0, 0.15, 5, 5);
    let right_data = clustered_with_layout::<2>(1_500, 6, 30_000.0, 0.15, 5, 6);
    let domain = left_data.domain;

    let left_part =
        AnyPartitioner::from(AdaptiveGrid::from_sample(domain, [4, 4], &left_data.boxes));
    let left = svc
        .create_dataset("probes", left_part.clone(), left_data.boxes.clone())
        .unwrap();
    let forest = |part: &AnyPartitioner<2>, boxes: &[Rect<2>]| {
        TileForest::build(part, boxes, tree(), clip(), EXEC_WORKERS)
    };

    let rights: Vec<(&str, AnyPartitioner<2>)> = vec![
        (
            "uniform",
            AdaptiveGrid::from_sample(domain, [4, 4], &[]).into(),
        ),
        (
            "adaptive",
            AdaptiveGrid::from_sample(domain, [5, 3], &right_data.boxes).into(),
        ),
        (
            "quadtree",
            QuadtreePartitioner::build(domain, &right_data.boxes, 250).into(),
        ),
        // Shares the probe dataset's exact tiling: the fast path that
        // borrows BOTH cached forests.
        ("same-tiling", left_part.clone()),
    ];
    let mut created = 1u64; // the probe dataset
    let expected_pairs = brute_force_pairs(&left_data.boxes, &right_data.boxes);
    for (name, partitioner) in rights {
        let right = svc
            .create_dataset(name, partitioner.clone(), right_data.boxes.clone())
            .unwrap();
        created += 1;
        let right_forest = forest(&partitioner, &right_data.boxes);
        for use_clips in [true, false] {
            let plan = JoinPlan::new(partitioner.clone(), tree(), clip(), EXEC_WORKERS)
                .with_clips(use_clips);
            // Clips off: the per-call join is byte-equal (one canonical
            // column sort on both paths). Clips on: the forest-backed
            // sides' root CBBs may prune tiles, so the oracle is the
            // same engine call over forests built from the same sets.
            let direct = if !use_clips {
                partitioned_join(&plan, &left_data.boxes, &right_data.boxes)
            } else if partitioner == left_part {
                let left_forest = forest(&left_part, &left_data.boxes);
                partitioned_join_forests(&plan, &left_forest, &right_data.boxes, &right_forest)
            } else {
                partitioned_join_with(&plan, &left_data.boxes, &right_data.boxes, &right_forest)
            };
            assert_eq!(direct.pairs, expected_pairs, "{name} oracle sanity");
            assert_eq!(direct.tiles_stt + direct.tiles_inlj, 0, "{name} sweeps");
            let served = cross_join(&svc, left, right, use_clips).into_join();
            assert_eq!(
                served, direct,
                "{name} clips={use_clips}: served cross-join must be byte-equal"
            );
            // Repeat: identical answer, still no rebuild.
            let again = cross_join(&svc, left, right, use_clips).into_join();
            assert_eq!(again, direct, "{name} repeat");
        }
        assert_eq!(
            svc.report().forest_builds,
            created,
            "{name}: joins must be served from cached forests (zero rebuilds)"
        );
    }

    // Self-join: left ⋈ left through one store.
    let self_direct = {
        let plan = JoinPlan::new(left_part.clone(), tree(), clip(), EXEC_WORKERS);
        let left_forest = forest(&left_part, &left_data.boxes);
        partitioned_join_forests(&plan, &left_forest, &left_data.boxes, &left_forest)
    };
    assert_eq!(
        self_direct.pairs,
        brute_force_pairs(&left_data.boxes, &left_data.boxes)
    );
    assert_eq!(cross_join(&svc, left, left, true).into_join(), self_direct);

    let report = svc.shutdown();
    assert_eq!(
        report.forest_builds, created,
        "no rebuild over the whole run"
    );
    assert!(report.cross_joins > 0);
    assert!(
        report.probe_repartitions > 0,
        "the mismatched-tiling legs above re-partition"
    );
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

/// Admin ops ride the queue: create/drop/swap answer through completion
/// handles, fail cleanly on bad targets, and dropped ids are never
/// reused.
#[test]
fn admin_ops_ride_the_queue_and_fail_cleanly() {
    let svc = catalog_service();
    let data = clustered_with_layout::<2>(400, 4, 40_000.0, 0.2, 9, 9);
    let grid: AnyPartitioner<2> = AdaptiveGrid::from_sample(data.domain, [3, 3], &[]).into();

    // Queued create, then a name clash.
    let id = svc
        .submit(Request::CreateDataset {
            name: "layer".into(),
            partitioner: grid.clone(),
            objects: data.boxes.clone(),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_created();
    assert_eq!(svc.dataset_id("layer"), Some(id));
    assert_eq!(
        svc.create_dataset("layer", grid.clone(), Vec::new()),
        Err(RequestError::NameTaken("layer".into()))
    );
    assert_eq!(svc.datasets(), vec![(id, "layer".to_string())]);

    // Swap bumps the version and re-keys the id space.
    let v = svc
        .swap_dataset(id, data.boxes[..100].to_vec(), None)
        .unwrap();
    assert_eq!(v, DataVersion(1));
    assert_eq!(svc.dataset_live_count(id), Some(100));
    // Swap with a re-fitted partitioner (the drift answer).
    let refit: AnyPartitioner<2> =
        AdaptiveGrid::from_sample(data.domain, [4, 4], &data.boxes).into();
    let v = svc
        .swap_dataset(id, data.boxes.clone(), Some(refit))
        .unwrap();
    assert_eq!(v, DataVersion(2));
    assert_eq!(svc.dataset_live_count(id), Some(400));

    // Requests against unknown datasets are answered with failures,
    // not dropped.
    let ghost = DatasetId(77);
    let failed = svc
        .submit(Request::Range {
            dataset: ghost,
            query: data.boxes[0],
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    assert_eq!(failed.error(), Some(&RequestError::UnknownDataset(ghost)));
    let failed = svc
        .submit(Request::Insert {
            dataset: ghost,
            rect: data.boxes[0],
        })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    assert_eq!(failed.error(), Some(&RequestError::UnknownDataset(ghost)));
    let failed = cross_join(&svc, id, ghost, true);
    assert_eq!(failed.error(), Some(&RequestError::UnknownDataset(ghost)));
    assert_eq!(
        svc.swap_dataset(ghost, Vec::new(), None),
        Err(RequestError::UnknownDataset(ghost))
    );

    // Drop: true once, false after; queries on the dropped id fail; a
    // recreate under the same name gets a FRESH id.
    assert!(svc.drop_dataset(id));
    assert!(!svc.drop_dataset(id));
    let failed = svc
        .submit(Request::Knn {
            dataset: id,
            center: Point([0.0, 0.0]),
            k: 3,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    assert_eq!(failed.error(), Some(&RequestError::UnknownDataset(id)));
    let reborn = svc
        .create_dataset("layer", grid, data.boxes.clone())
        .unwrap();
    assert_ne!(reborn, id, "dropped ids are never reused");

    let report = svc.shutdown();
    assert_eq!(report.completed, report.submitted, "admin ops drain too");
}

/// One malformed object cannot take the service down. A `CreateDataset`
/// or `SwapData` payload holding a non-finite or inverted rectangle is
/// refused whole, naming the offending index, before any forest build
/// (whose bulk load cannot order a NaN center), and the single
/// dispatcher goes on answering. Every wait is bounded, so a dead
/// dispatcher fails the test instead of hanging it.
#[test]
fn invalid_objects_are_refused_and_the_service_keeps_answering() {
    let svc: Service = ServiceBuilder::new()
        .dispatchers(1)
        .exec_workers(EXEC_WORKERS)
        .build_catalog(tree(), clip());
    let data = clustered_with_layout::<2>(200, 4, 40_000.0, 0.2, 21, 21);
    let grid: AnyPartitioner<2> = AdaptiveGrid::from_sample(data.domain, [3, 3], &[]).into();
    let answer = |request: Request<2, AnyPartitioner<2>>| -> Response {
        match svc
            .submit(request)
            .unwrap()
            .wait_timeout(Duration::from_secs(10))
        {
            Ok(done) => {
                done.expect("request canceled: the dispatcher died")
                    .response
            }
            Err(_) => panic!("request not answered within 10 s"),
        }
    };
    let raw = |lo: [f64; 2], hi: [f64; 2]| Rect {
        lo: Point(lo),
        hi: Point(hi),
    };
    let with_bad = |at: usize, bad: Rect<2>| {
        let mut objects = data.boxes.clone();
        objects[at] = bad;
        objects
    };

    // A NaN corner, then an axis spanning −∞..+∞ (a NaN center).
    let nan = with_bad(7, raw([f64::NAN, 10.0], [20.0, 20.0]));
    let response = answer(Request::CreateDataset {
        name: "nan".into(),
        partitioner: grid.clone(),
        objects: nan,
    });
    assert_eq!(response.error(), Some(&RequestError::InvalidObject(7)));
    let unbounded = with_bad(0, raw([1.0, f64::NEG_INFINITY], [2.0, f64::INFINITY]));
    let response = answer(Request::CreateDataset {
        name: "unbounded".into(),
        partitioner: grid.clone(),
        objects: unbounded.clone(),
    });
    assert_eq!(response.error(), Some(&RequestError::InvalidObject(0)));
    // An inverted rect is refused too, not indexed under some tiling.
    let inverted = with_bad(199, raw([30.0, 30.0], [10.0, 40.0]));
    let response = answer(Request::CreateDataset {
        name: "inverted".into(),
        partitioner: grid.clone(),
        objects: inverted,
    });
    assert_eq!(response.error(), Some(&RequestError::InvalidObject(199)));
    assert!(svc.datasets().is_empty(), "nothing was created");

    // The same service still creates, and a bad swap leaves the
    // dataset as it was.
    let id = answer(Request::CreateDataset {
        name: "good".into(),
        partitioner: grid.clone(),
        objects: data.boxes.clone(),
    })
    .into_created();
    let response = answer(Request::SwapData {
        dataset: id,
        objects: unbounded,
        partitioner: None,
    });
    assert_eq!(response.error(), Some(&RequestError::InvalidObject(0)));
    assert_eq!(svc.dataset_version(id), Some(DataVersion(0)));
    assert_eq!(svc.dataset_live_count(id), Some(data.boxes.len()));
    let everything = Rect::mbb_of(&data.boxes).unwrap();
    let found = answer(Request::Range {
        dataset: id,
        query: everything,
        use_clips: true,
    });
    assert_eq!(found, Response::Range((0..200).map(DataId).collect()));
    svc.shutdown();
}

/// Mutations sharing a micro-batch resolve to the queue-order final
/// state: an admin op is a write barrier, so an insert enqueued
/// *before* a swap of its dataset is applied first and swapped away,
/// while one enqueued *after* survives on the fresh arena.
#[test]
fn writes_and_admin_ops_resolve_in_queue_order() {
    // Single dispatcher, wide batch, generous deadline: back-to-back
    // submissions near-certainly share one micro-batch — and when they
    // happen not to, queue-order execution across batches produces the
    // same final state, so the assertions are timing-independent.
    let svc: Service = ServiceBuilder::new()
        .batch_max(16)
        .batch_deadline(std::time::Duration::from_millis(100))
        .dispatchers(1)
        .exec_workers(2)
        .build_catalog(tree(), clip());
    let data = clustered_with_layout::<2>(50, 3, 40_000.0, 0.2, 13, 13);
    let dataset = svc
        .create_dataset(
            "layer",
            AdaptiveGrid::from_sample(data.domain, [3, 3], &[]).into(),
            data.boxes.clone(),
        )
        .unwrap();
    // Far corner of the domain, disjoint from the swap replacement.
    let marker = Rect::new(Point([990_000.0, 990_000.0]), Point([990_100.0, 990_100.0]));

    let before_swap = svc
        .submit(Request::Insert {
            dataset,
            rect: marker,
        })
        .unwrap();
    let swap = svc
        .submit(Request::SwapData {
            dataset,
            objects: data.boxes[..10].to_vec(),
            partitioner: None,
        })
        .unwrap();
    let after_swap = svc
        .submit(Request::Insert {
            dataset,
            rect: marker,
        })
        .unwrap();
    let pre_id = before_swap
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .expect("the pre-swap insert IS applied (then swapped away)");
    assert_eq!(pre_id, DataId(50), "applied onto the pre-swap arena");
    let version = swap.wait().unwrap().response.into_swapped();
    let post_id = after_swap
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .expect("the post-swap insert lands on the fresh arena");
    assert_eq!(post_id, DataId(10), "fresh id space after the swap");

    // Final state is the queue-order state: 10 swapped objects plus
    // only the post-swap marker.
    assert_eq!(svc.dataset_live_count(dataset), Some(11));
    let found = svc
        .submit(Request::Range {
            dataset,
            query: marker,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range();
    assert_eq!(found, vec![post_id], "exactly one marker survives");
    // v1 = pre-swap write flush, v2 = swap, v3 = post-swap write.
    assert_eq!(version, DataVersion(2));
    assert_eq!(svc.dataset_version(dataset), Some(DataVersion(3)));
    svc.shutdown();
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
