//! Service lifecycle: graceful shutdown drains the queue, the
//! version-keyed tile-tree cache skips rebuilds until the data version
//! bumps, and concurrent producers are all answered.

use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, DataVersion, JoinAlgo};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Request, ServiceBuilder, ShardedService};

fn service(
    builder: ServiceBuilder,
    n: usize,
) -> (ShardedService<2, AdaptiveGrid<2>>, Vec<Rect<2>>) {
    let data = clustered_with_layout::<2>(n, 5, 40_000.0, 0.2, 3, 3);
    let svc = builder.build(
        AdaptiveGrid::from_sample(data.domain, [4, 4], &[]),
        data.boxes.clone(),
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    );
    (svc, data.boxes)
}

fn some_query(seed: u64) -> Rect<2> {
    let mut rng = SplitMix64::new(seed);
    let x = rng.gen_range(0.0, 900_000.0);
    let y = rng.gen_range(0.0, 900_000.0);
    Rect::new(Point([x, y]), Point([x + 50_000.0, y + 50_000.0]))
}

/// Shutdown answers everything already admitted: no dropped requests,
/// no canceled handles, submitted == completed.
#[test]
fn shutdown_drains_queue() {
    let (svc, _) = service(
        ServiceBuilder::new()
            .batch_max(8)
            .batch_deadline(Duration::from_millis(1)),
        1_500,
    );
    let handles: Vec<_> = (0..400)
        .map(|i| {
            svc.submit(Request::Range {
                dataset: svc.default_dataset(),
                query: some_query(i),
                use_clips: i % 2 == 0,
            })
            .unwrap()
        })
        .collect();
    // Close admission while most of the backlog is still queued.
    let report = svc.shutdown();
    // 400 ranges plus the queued create of the default dataset.
    assert_eq!(report.submitted, 401);
    assert_eq!(report.completed, 401, "drain must answer every request");
    assert_eq!(report.rejected, 0);
    for (i, handle) in handles.into_iter().enumerate() {
        assert!(
            handle.wait().is_ok(),
            "request {i} was admitted and must be answered"
        );
    }
}

/// Dropping the service without an explicit shutdown behaves the same:
/// the Drop impl drains and joins, so waiters never hang.
#[test]
fn drop_is_a_graceful_shutdown() {
    let (svc, _) = service(ServiceBuilder::new(), 800);
    let handles: Vec<_> = (0..50)
        .map(|i| {
            svc.submit(Request::Range {
                dataset: svc.default_dataset(),
                query: some_query(1_000 + i),
                use_clips: true,
            })
            .unwrap()
        })
        .collect();
    drop(svc);
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
}

/// The ROADMAP cache item, end to end: repeated joins on one data
/// version build the tile trees exactly once; bumping the version via
/// `swap_dataset` rebuilds exactly once more; pair counts are stable.
#[test]
fn join_tree_cache_skips_rebuilds_until_version_bump() {
    let (svc, boxes) = service(ServiceBuilder::new(), 1_200);
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(0)
    );
    let probes: Vec<Rect<2>> = (0..300).map(|i| some_query(2_000 + i)).collect();
    let join = || {
        svc.submit(Request::Join {
            dataset: svc.default_dataset(),
            probes: probes.clone(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_join()
    };

    // One forest build at service start; joins reuse the store's forest.
    let first = join();
    let second = join();
    assert_eq!(first, second, "identical requests, identical counters");
    assert_eq!(first.pairs, brute_force_pairs(&probes, &boxes));
    let report = svc.report();
    assert_eq!(
        report.forest_builds, 1,
        "trees must NOT be rebuilt per join"
    );

    // Same data under a bumped version: exactly one rebuild, same pairs.
    svc.swap_dataset(svc.default_dataset(), boxes.clone(), None)
        .unwrap();
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(1)
    );
    let after_swap = join();
    assert_eq!(after_swap, first, "same data ⇒ same join, rebuilt trees");
    let report = svc.report();
    assert_eq!(
        report.forest_builds, 2,
        "version bump invalidates the cache"
    );

    // Different data actually changes answers (the version is not
    // cosmetic): drop half the boxes.
    svc.swap_dataset(
        svc.default_dataset(),
        boxes[..boxes.len() / 2].to_vec(),
        None,
    )
    .unwrap();
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(2)
    );
    let shrunk = join();
    assert!(
        shrunk.pairs < first.pairs,
        "half the data must join fewer pairs ({} vs {})",
        shrunk.pairs,
        first.pairs
    );
    assert_eq!(svc.report().forest_builds, 3);
    svc.shutdown();
}

/// Range queries see swapped data too (the whole executor is re-keyed,
/// not just the join path).
#[test]
fn swap_data_changes_range_answers() {
    let (svc, boxes) = service(ServiceBuilder::new(), 900);
    let q = Rect::new(Point([0.0, 0.0]), Point([1_000_000.0, 1_000_000.0]));
    let all = |svc: &ShardedService<2, AdaptiveGrid<2>>| {
        svc.submit(Request::Range {
            dataset: svc.default_dataset(),
            query: q,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range()
        .len()
    };
    assert_eq!(all(&svc), 900);
    svc.swap_dataset(svc.default_dataset(), boxes[..100].to_vec(), None)
        .unwrap();
    assert_eq!(all(&svc), 100);
    svc.shutdown();
}

/// `swap_dataset` with a partitioner re-fits it alongside the data: the new
/// tiling (different tile count) serves correct answers and counts as a
/// normal version bump.
#[test]
fn swap_data_with_refits_the_partitioner() {
    let (svc, boxes) = service(ServiceBuilder::new(), 700);
    let q = Rect::new(Point([0.0, 0.0]), Point([1_000_000.0, 1_000_000.0]));
    let count_all = |svc: &ShardedService<2, AdaptiveGrid<2>>| {
        svc.submit(Request::Range {
            dataset: svc.default_dataset(),
            query: q,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range()
        .len()
    };
    assert_eq!(count_all(&svc), 700);
    // Re-fit to a finer grid over the same data: answers unchanged.
    let domain = Rect::new(Point([0.0, 0.0]), Point([1_000_000.0, 1_000_000.0]));
    svc.swap_dataset(
        svc.default_dataset(),
        boxes.clone(),
        Some(AdaptiveGrid::from_sample(domain, [7, 7], &[])),
    )
    .unwrap();
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(1)
    );
    assert_eq!(count_all(&svc), 700);
    let probes: Vec<Rect<2>> = (0..100).map(|i| some_query(9_000 + i)).collect();
    let pairs = |svc: &ShardedService<2, AdaptiveGrid<2>>| {
        svc.submit(Request::Join {
            dataset: svc.default_dataset(),
            probes: probes.clone(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_join()
        .pairs
    };
    let under_7 = pairs(&svc);
    svc.swap_dataset(
        svc.default_dataset(),
        boxes,
        Some(AdaptiveGrid::from_sample(domain, [3, 3], &[])),
    )
    .unwrap();
    let under_3 = pairs(&svc);
    assert_eq!(under_7, under_3, "tiling never changes join answers");
    assert_eq!(svc.report().forest_builds, 3);
    svc.shutdown();
}

/// Many producer threads, several dispatchers: every request answered,
/// and the micro-batcher actually coalesces (mean batch > 1).
#[test]
fn concurrent_producers_all_served_and_batched() {
    let (svc, _) = service(
        ServiceBuilder::new()
            .batch_max(32)
            .batch_deadline(Duration::from_millis(10))
            .dispatchers(2)
            .exec_workers(2),
        1_000,
    );
    let svc = std::sync::Arc::new(svc);
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut sizes = Vec::new();
                for i in 0..80 {
                    let handle = svc
                        .submit(Request::Range {
                            dataset: svc.default_dataset(),
                            query: some_query(p * 1_000 + i),
                            use_clips: true,
                        })
                        .unwrap();
                    if i % 8 == 7 {
                        // Wait inline now and then so handles overlap
                        // the producing, like real clients.
                        sizes.push(handle.wait().unwrap().batch_size);
                    }
                }
                sizes
            })
        })
        .collect();
    for p in producers {
        assert!(p.join().unwrap().iter().all(|&s| s >= 1));
    }
    let svc = std::sync::Arc::into_inner(svc).expect("all producers joined");
    let report = svc.shutdown();
    // 320 ranges plus the queued create of the default dataset.
    assert_eq!(report.submitted, 321);
    assert_eq!(report.completed, 321);
    assert!(
        report.mean_batch > 1.0,
        "4 concurrent producers against a 10 ms deadline must coalesce \
         (mean batch {:.2})",
        report.mean_batch
    );
    assert!(report.max_batch <= 32);
}
