//! Service oracle: every answer produced through the queue→batch
//! pipeline is byte-identical to calling the engine directly with the
//! same request. Batching changes scheduling, never results.

use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    partitioned_join_with, AdaptiveGrid, AutoPolicy, DatasetStore, JoinAlgo, JoinPlan, QueryAlgo,
    SplitPolicy,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Request, ServiceBuilder, ServiceConfig};

const EXEC_WORKERS: usize = 3;

struct Fixture {
    objects: Vec<Rect<2>>,
    partitioner: AdaptiveGrid<2>,
    tree: TreeConfig<2>,
    clip: ClipConfig,
}

fn fixture() -> Fixture {
    let data = clustered_with_layout::<2>(2_500, 6, 30_000.0, 0.15, 7, 7);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [4, 4], &data.boxes);
    Fixture {
        objects: data.boxes,
        partitioner,
        tree: TreeConfig::tiny(Variant::RStar),
        clip: ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    }
}

fn queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(-20_000.0, 1_000_000.0);
            let y = rng.gen_range(-20_000.0, 1_000_000.0);
            // Every fourth query is far outside the data: empty answers
            // must round-trip too.
            let off = if i % 4 == 3 { 2_000_000.0 } else { 0.0 };
            let s = rng.gen_range(1_000.0, 60_000.0);
            Rect::new(Point([x + off, y + off]), Point([x + off + s, y + off + s]))
        })
        .collect()
}

/// Mixed workload through a batching service vs the direct engine —
/// identical `Vec<DataId>` / neighbour lists / `JoinResult`s.
#[test]
fn batched_answers_equal_direct_executor_answers() {
    let f = fixture();
    let direct = DatasetStore::build(
        f.partitioner.clone(),
        &f.objects,
        f.tree,
        f.clip,
        EXEC_WORKERS,
    );
    let service = ServiceBuilder::from_config(ServiceConfig {
        batch_max: 16,
        batch_deadline: Duration::from_millis(5),
        exec_workers: EXEC_WORKERS,
        ..ServiceConfig::default()
    })
    .build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
    let dataset = service.default_dataset();

    let range_qs = queries(60, 41);
    let mut rng = SplitMix64::new(42);
    let knn_probes: Vec<(Point<2>, usize)> = (0..40)
        .map(|i| {
            let p = Point([
                rng.gen_range(-50_000.0, 1_050_000.0),
                rng.gen_range(-50_000.0, 1_050_000.0),
            ]);
            (p, [0, 1, 5, 20][i % 4])
        })
        .collect();
    let join_probes = queries(150, 43);

    // Interleave kinds so real batches mix them.
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for i in 0..60 {
        let use_clips = i % 3 != 0;
        let q = range_qs[i];
        expected.push(cbb_serve::Response::Range(
            direct.run(&[q], 1, use_clips).results.remove(0),
        ));
        handles.push(
            service
                .submit(Request::Range {
                    dataset,
                    query: q,
                    use_clips,
                })
                .unwrap(),
        );
        if i < 40 {
            let (center, k) = knn_probes[i];
            expected.push(cbb_serve::Response::Knn(
                direct.run_knn(&[(center, k)], 1).results.remove(0),
            ));
            handles.push(service.submit(Request::Knn { dataset, center, k }).unwrap());
        }
        if i % 20 == 0 {
            for use_clips in [true, false] {
                let plan = JoinPlan::new(f.partitioner.clone(), f.tree, f.clip, EXEC_WORKERS)
                    .with_clips(use_clips);
                let joined =
                    partitioned_join_with(&plan, &join_probes, direct.objects(), direct.forest());
                assert_eq!(joined.pairs, brute_force_pairs(&join_probes, &f.objects));
                expected.push(cbb_serve::Response::Join(joined));
                handles.push(
                    service
                        .submit(Request::Join {
                            dataset,
                            probes: join_probes.clone(),
                            algo: JoinAlgo::Auto,
                            use_clips,
                        })
                        .unwrap(),
                );
            }
        }
    }

    let mut batched = 0u64;
    for (i, (handle, want)) in handles.into_iter().zip(expected).enumerate() {
        let completion = handle.wait().expect("request served");
        assert_eq!(completion.response, want, "request {i}");
        assert!(completion.batch_size >= 1);
        if completion.batch_size > 1 {
            batched += 1;
        }
    }
    assert!(batched > 0, "the batching config must form real batches");
    let report = service.shutdown();
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.forest_builds, 1, "one data version, one forest");
}

/// The same workload answered identically under wildly different
/// batching configurations — batching is invisible in the results.
#[test]
fn batching_configuration_does_not_change_answers() {
    let f = fixture();
    let range_qs = queries(40, 77);
    let configs = [
        ServiceConfig::unbatched(),
        ServiceConfig {
            batch_max: 4,
            batch_deadline: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
        ServiceConfig {
            batch_max: 64,
            batch_deadline: Duration::from_millis(20),
            dispatchers: 2,
            ..ServiceConfig::default()
        },
    ];
    let mut all_answers: Vec<Vec<cbb_serve::Response>> = Vec::new();
    for config in configs {
        let service = ServiceBuilder::from_config(config).build(
            f.partitioner.clone(),
            f.objects.clone(),
            f.tree,
            f.clip,
        );
        let dataset = service.default_dataset();
        let handles: Vec<_> = range_qs
            .iter()
            .map(|q| {
                service
                    .submit(Request::Range {
                        dataset,
                        query: *q,
                        use_clips: true,
                    })
                    .unwrap()
            })
            .collect();
        all_answers.push(
            handles
                .into_iter()
                .map(|h| h.wait().unwrap().response)
                .collect(),
        );
        service.shutdown();
    }
    assert_eq!(all_answers[0], all_answers[1]);
    assert_eq!(all_answers[0], all_answers[2]);
}

/// Degenerate requests round-trip: k = 0, empty join probe sets, and a
/// range query that matches nothing.
#[test]
fn degenerate_requests_are_served() {
    let f = fixture();
    let service =
        ServiceBuilder::new().build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
    let dataset = service.default_dataset();
    let knn = service
        .submit(Request::Knn {
            dataset,
            center: Point([0.0, 0.0]),
            k: 0,
        })
        .unwrap();
    let join = service
        .submit(Request::Join {
            dataset,
            probes: Vec::new(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .unwrap();
    let miss = service
        .submit(Request::Range {
            dataset,
            query: Rect::new(Point([-9e7, -9e7]), Point([-8e7, -8e7])),
            use_clips: false,
        })
        .unwrap();
    assert!(knn.wait().unwrap().response.into_knn().is_empty());
    assert_eq!(join.wait().unwrap().response.into_join().pairs, 0);
    assert!(miss.wait().unwrap().response.into_range().is_empty());
    service.shutdown();
}

/// The engine's range paths (`QueryAlgo`) move work counters, never
/// answers, and the service — which always descends — returns the same
/// byte-identical responses in every shape: coalescing micro-batches
/// and the unbatched per-request path, on one shard and on three, all
/// in the canonical ascending-id order.
#[test]
fn query_algo_never_changes_answers_in_any_service_shape() {
    let f = fixture();
    let range_qs = queries(48, 97);
    let direct = DatasetStore::build(
        f.partitioner.clone(),
        &f.objects,
        f.tree,
        f.clip,
        EXEC_WORKERS,
    );
    let engine = |use_clips: bool, algo: QueryAlgo| {
        direct
            .run_with(
                &range_qs,
                EXEC_WORKERS,
                use_clips,
                algo,
                &AutoPolicy::default(),
                SplitPolicy::Auto,
            )
            .results
    };
    let expected: Vec<Vec<cbb_rtree::DataId>> = (0..range_qs.len())
        .map(|i| engine(i % 3 != 0, QueryAlgo::Descend)[i].clone())
        .collect();
    for algo in [QueryAlgo::SharedSweep, QueryAlgo::Auto] {
        for use_clips in [true, false] {
            assert_eq!(
                engine(use_clips, algo),
                engine(use_clips, QueryAlgo::Descend),
                "{algo:?} clips={use_clips}"
            );
        }
    }

    for shards in [1, 3] {
        for unbatched in [false, true] {
            let mut builder = ServiceBuilder::new()
                .shards(shards)
                .batch_max(16)
                .batch_deadline(Duration::from_millis(3))
                .exec_workers(EXEC_WORKERS);
            if unbatched {
                builder = builder.unbatched();
            }
            let service = builder.build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
            let dataset = service.default_dataset();
            let handles: Vec<_> = range_qs
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    service
                        .submit(Request::Range {
                            dataset,
                            query: *q,
                            use_clips: i % 3 != 0,
                        })
                        .unwrap()
                })
                .collect();
            let answers: Vec<Vec<cbb_rtree::DataId>> = handles
                .into_iter()
                .map(|h| h.wait().unwrap().response.into_range())
                .collect();
            service.shutdown();
            for ids in &answers {
                assert!(ids.is_sorted(), "canonical order is ascending by id");
            }
            assert_eq!(
                answers, expected,
                "shards={shards} unbatched={unbatched} must answer byte-equal to the engine"
            );
        }
    }
}
