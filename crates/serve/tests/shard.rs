//! Shard oracle: an N-shard [`ShardedService`] answers **byte-equal**
//! to a one-shard service on the same seeded data, for
//! every request kind, across shard counts and partitioner kinds —
//! plus the router edge cases (boundary straddling, empty shards,
//! atomic admin fan-out, cross-join dedup).

use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    AdaptiveGrid, AnyPartitioner, JoinAlgo, Partitioner, QuadtreePartitioner, Update,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, RequestError, Response, ServiceBuilder, ShardedService};

fn tree() -> TreeConfig<2> {
    TreeConfig::tiny(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

fn builder() -> ServiceBuilder {
    ServiceBuilder::new()
        .batch_max(8)
        .batch_deadline(Duration::from_millis(2))
}

fn dataset(n: usize, seed: u64) -> (Rect<2>, Vec<Rect<2>>) {
    let data = clustered_with_layout::<2>(n, 5, 20_000.0, 0.2, seed, seed ^ 0x5EED);
    (data.domain, data.boxes)
}

fn range_queries(domain: &Rect<2>, n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    let span = [domain.hi[0] - domain.lo[0], domain.hi[1] - domain.lo[1]];
    (0..n)
        .map(|i| {
            let x = rng.gen_range(domain.lo[0] - 0.1 * span[0], domain.hi[0]);
            let y = rng.gen_range(domain.lo[1] - 0.1 * span[1], domain.hi[1]);
            // Mix tight windows, shard-straddling strips, and misses.
            let (w, h) = match i % 4 {
                0 => (0.02 * span[0], 0.02 * span[1]),
                // Full-width strip: covers tiles in every shard.
                1 => (1.2 * span[0], 0.05 * span[1]),
                2 => (0.3 * span[0], 0.3 * span[1]),
                _ => (0.01 * span[0], 0.01 * span[1]),
            };
            let off = if i % 7 == 6 { 10.0 * span[0] } else { 0.0 };
            Rect::new(Point([x + off, y + off]), Point([x + off + w, y + off + h]))
        })
        .collect()
}

/// Submit one request to both services and assert byte-equal
/// responses.
fn assert_same<P>(
    single: &ShardedService<2, P>,
    sharded: &ShardedService<2, P>,
    request: Request<2, P>,
    what: &str,
) -> (Response, Response)
where
    P: Partitioner<2>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    let a = single
        .submit(request.clone())
        .unwrap()
        .wait()
        .unwrap()
        .response;
    let b = sharded.submit(request).unwrap().wait().unwrap().response;
    assert_eq!(a, b, "{what}");
    (a, b)
}

/// The full mixed workload — every request kind, serially — against a
/// one-shard service and an N-shard service over the same partitioner.
fn oracle_roundtrip<P>(partitioner: P, domain: Rect<2>, objects: Vec<Rect<2>>, shards: usize)
where
    P: Partitioner<2>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    let single = builder().build(partitioner.clone(), objects.clone(), tree(), clip());
    let sharded =
        builder()
            .shards(shards)
            .build(partitioner.clone(), objects.clone(), tree(), clip());
    assert_eq!(sharded.shard_count(), shards);
    let ds = single.default_dataset();
    assert_eq!(ds, sharded.default_dataset(), "mirrored creation order");

    // Ranges (clipped and baseline), kNN, probe joins.
    for (i, q) in range_queries(&domain, 24, 0xA11C).into_iter().enumerate() {
        assert_same(
            &single,
            &sharded,
            Request::Range {
                dataset: ds,
                query: q,
                use_clips: i % 3 != 0,
            },
            &format!("range {i} ({shards} shards)"),
        );
    }
    let mut rng = SplitMix64::new(0xCAFE);
    for i in 0..12 {
        let center = Point([
            rng.gen_range(domain.lo[0], domain.hi[0] * 1.2),
            rng.gen_range(domain.lo[1], domain.hi[1] * 1.2),
        ]);
        let k = [0, 1, 7, 50][i % 4];
        assert_same(
            &single,
            &sharded,
            Request::Knn {
                dataset: ds,
                center,
                k,
            },
            &format!("knn {i} ({shards} shards)"),
        );
    }
    let probes = range_queries(&domain, 40, 0x1017);
    for use_clips in [true, false] {
        assert_same(
            &single,
            &sharded,
            Request::Join {
                dataset: ds,
                probes: probes.clone(),
                algo: JoinAlgo::Auto,
                use_clips,
            },
            &format!("probe join clips={use_clips} ({shards} shards)"),
        );
    }

    // Self cross-join: boundary pairs must be counted exactly once.
    for use_clips in [true, false] {
        assert_same(
            &single,
            &sharded,
            Request::CrossJoin {
                left: ds,
                right: ds,
                algo: JoinAlgo::Auto,
                use_clips,
            },
            &format!("self cross join clips={use_clips} ({shards} shards)"),
        );
    }

    // Writes, serially: inserts, deletes, batches — mirrored arenas
    // must assign identical ids and bump identical versions.
    let mut rng = SplitMix64::new(0xD00D);
    let mut live: Vec<DataId> = Vec::new();
    for i in 0..20 {
        let x = rng.gen_range(domain.lo[0], domain.hi[0]);
        let y = rng.gen_range(domain.lo[1], domain.hi[1]);
        let rect = Rect::new(Point([x, y]), Point([x + 500.0, y + 500.0]));
        let (a, _) = assert_same(
            &single,
            &sharded,
            Request::Insert { dataset: ds, rect },
            &format!("insert {i} ({shards} shards)"),
        );
        if let Response::Inserted(Some(id)) = a {
            live.push(id);
        }
        if i % 3 == 2 {
            let victim = live.remove(0);
            assert_same(
                &single,
                &sharded,
                Request::Delete {
                    dataset: ds,
                    id: victim,
                },
                &format!("delete {i} ({shards} shards)"),
            );
        }
    }
    let batch: Vec<Update<2>> = vec![
        Update::Insert(Rect::new(Point([1.0, 1.0]), Point([2.0, 2.0]))),
        Update::Delete(live[0]),
        Update::Delete(DataId(9_999_999)), // no-op delete
        Update::Insert(Rect::new(Point([3.0, 3.0]), Point([4.0, 4.0]))),
    ];
    assert_same(
        &single,
        &sharded,
        Request::UpdateBatch {
            dataset: ds,
            updates: batch,
        },
        &format!("update batch ({shards} shards)"),
    );
    assert_eq!(
        single.dataset_version(ds),
        sharded.dataset_version(ds),
        "versions advance in lock-step"
    );
    assert_eq!(
        single.dataset_live_count(ds),
        sharded.dataset_live_count(ds),
        "mirrored arenas agree on live counts"
    );

    // Post-write queries: the sharded forests were delta-maintained
    // per shard and must still merge byte-equal.
    for (i, q) in range_queries(&domain, 12, 0xBEEF).into_iter().enumerate() {
        assert_same(
            &single,
            &sharded,
            Request::Range {
                dataset: ds,
                query: q,
                use_clips: true,
            },
            &format!("post-write range {i} ({shards} shards)"),
        );
    }
    assert_same(
        &single,
        &sharded,
        Request::Knn {
            dataset: ds,
            center: Point([2.0, 2.0]),
            k: 5,
        },
        &format!("post-write knn ({shards} shards)"),
    );

    let single_report = single.shutdown();
    let sharded_report = sharded.shutdown();
    assert_eq!(single_report.completed, single_report.submitted);
    assert!(sharded_report.completed >= single_report.completed);
}

#[test]
fn uniform_grid_oracle_balanced() {
    let (domain, objects) = dataset(1_500, 11);
    for shards in [2, 3] {
        oracle_roundtrip(
            AdaptiveGrid::from_sample(domain, [4, 4], &[]),
            domain,
            objects.clone(),
            shards,
        );
    }
}

/// A data-fitted partitioner (cuts at the objects' quantiles) behind
/// balanced shard maps.
#[test]
fn adaptive_grid_oracle_fitted() {
    let (domain, objects) = dataset(1_500, 23);
    for shards in [2, 5] {
        oracle_roundtrip(
            AdaptiveGrid::from_sample(domain, [4, 4], &objects),
            domain,
            objects.clone(),
            shards,
        );
    }
}

/// A quadtree fitted to the objects, behind balanced shard maps.
#[test]
fn quadtree_oracle_fitted() {
    let (domain, objects) = dataset(1_200, 37);
    oracle_roundtrip(
        QuadtreePartitioner::build(domain, &objects, 150),
        domain,
        objects,
        3,
    );
}

/// More shards than tiles: some shards own zero tiles yet must mirror
/// writes and contribute empty fragments without disturbing merges.
#[test]
fn empty_shards_answer_correctly() {
    let (domain, objects) = dataset(600, 41);
    // 2×2 grid = 4 tiles across 7 shards → ≥ 3 empty shards.
    oracle_roundtrip(
        AdaptiveGrid::from_sample(domain, [2, 2], &[]),
        domain,
        objects,
        7,
    );
}

/// Cross-dataset joins between two independently partitioned datasets.
#[test]
fn cross_join_oracle_two_datasets() {
    let (domain, roads) = dataset(900, 51);
    let (_, parcels) = dataset(700, 52);
    let p_roads = AdaptiveGrid::from_sample(domain, [3, 3], &roads);
    let p_parcels = AdaptiveGrid::from_sample(domain, [4, 2], &parcels);
    for shards in [2, 3] {
        let single = builder().build_catalog(tree(), clip());
        let sharded = builder()
            .shards(shards)
            .build_catalog::<2, AdaptiveGrid<2>>(tree(), clip());
        let r1 = single
            .create_dataset("roads", p_roads.clone(), roads.clone())
            .unwrap();
        let r2 = sharded
            .create_dataset("roads", p_roads.clone(), roads.clone())
            .unwrap();
        assert_eq!(r1, r2);
        let l1 = single
            .create_dataset("parcels", p_parcels.clone(), parcels.clone())
            .unwrap();
        let l2 = sharded
            .create_dataset("parcels", p_parcels.clone(), parcels.clone())
            .unwrap();
        assert_eq!(l1, l2);
        for use_clips in [true, false] {
            for (left, right) in [(l1, r1), (r1, l1)] {
                assert_same(
                    &single,
                    &sharded,
                    Request::CrossJoin {
                        left,
                        right,
                        algo: JoinAlgo::Auto,
                        use_clips,
                    },
                    &format!("cross join clips={use_clips} {left:?}⋈{right:?} ({shards} shards)"),
                );
            }
        }
        single.shutdown();
        sharded.shutdown();
    }
}

/// Admin ops fan out atomically: ids assigned in lock-step, drops
/// leave no shard behind, swaps re-cut the shard map, and requests
/// against dropped datasets fail identically.
#[test]
fn admin_fanout_is_atomic() {
    let (domain, objects) = dataset(500, 61);
    let grid = AdaptiveGrid::from_sample(domain, [4, 4], &[]);
    let sharded = builder()
        .shards(3)
        .build_catalog::<2, AnyPartitioner<2>>(tree(), clip());

    let a = sharded
        .create_dataset("a", grid.clone().into(), objects.clone())
        .unwrap();
    assert_eq!(sharded.dataset_id("a"), Some(a));
    // Name clash fails identically everywhere — and leaves no partial
    // registration behind.
    assert!(matches!(
        sharded.create_dataset("a", grid.into(), Vec::new()),
        Err(RequestError::NameTaken(_))
    ));
    let b = sharded
        .create_dataset(
            "b",
            AdaptiveGrid::from_sample(domain, [2, 2], &objects).into(),
            objects.clone(),
        )
        .unwrap();
    assert_ne!(a, b);
    assert_eq!(
        sharded.datasets(),
        vec![(a, "a".to_string()), (b, "b".to_string())]
    );

    // The shard map covers the dataset's tile space exactly.
    let map = sharded.dataset_shard_map(a).unwrap();
    assert_eq!(map.shard_count(), 3);
    assert_eq!(map.tile_count(), 16);

    // Swap with a re-fit partitioner: the route (and every shard)
    // switches tilings atomically; queries still answer.
    let quad: AnyPartitioner<2> = QuadtreePartitioner::build(domain, &objects, 100).into();
    let v = sharded
        .swap_dataset(a, objects.clone(), Some(quad.clone()))
        .unwrap();
    assert_eq!(sharded.dataset_version(a), Some(v));
    let map = sharded.dataset_shard_map(a).unwrap();
    assert_eq!(
        map.tile_count(),
        quad.tile_count(),
        "map re-cut for the new tiling"
    );
    let hits = sharded
        .submit(Request::Range {
            dataset: a,
            query: domain,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range();
    assert_eq!(hits.len(), sharded.dataset_live_count(a).unwrap());

    // Drop: gone from the route table and from every shard.
    assert!(sharded.drop_dataset(a));
    assert!(!sharded.drop_dataset(a), "second drop reports absence");
    assert_eq!(sharded.dataset_id("a"), None);
    let miss = sharded
        .submit(Request::Range {
            dataset: a,
            query: domain,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    assert_eq!(miss, Response::Failed(RequestError::UnknownDataset(a)));
    // Swapping a dropped dataset fails cleanly too (no route, no
    // partitioner to fit — the bare fan-out path).
    assert!(matches!(
        sharded.swap_dataset(a, Vec::new(), None),
        Err(RequestError::UnknownDataset(_))
    ));

    let report = sharded.shutdown();
    assert_eq!(report.datasets.len(), 1, "only b remains");
}

/// Router telemetry: scatter/gather phases and per-shard routing
/// counters appear in the router's scrape; shard scrapes stay
/// per-shard.
#[test]
fn router_scrape_exposes_scatter_gather() {
    let (domain, objects) = dataset(400, 81);
    let sharded = builder().shards(2).build(
        AdaptiveGrid::from_sample(domain, [4, 4], &[]),
        objects,
        tree(),
        clip(),
    );
    let ds = sharded.default_dataset();
    for _ in 0..4 {
        sharded
            .submit(Request::Knn {
                dataset: ds,
                center: Point([0.0, 0.0]),
                k: 3,
            })
            .unwrap()
            .wait()
            .unwrap();
    }
    let scrape = sharded.scrape();
    assert!(scrape.text.contains("cbb_router_requests_total"));
    assert!(scrape.text.contains("cbb_router_shard_requests_total"));
    assert!(scrape.text.contains("phase=\"scatter\""));
    assert!(scrape.text.contains("phase=\"gather\""));
    assert_eq!(
        scrape
            .snapshot
            .counter("cbb_router_shard_requests_total", &[("shard", "0")]),
        scrape
            .snapshot
            .counter("cbb_router_shard_requests_total", &[("shard", "1")]),
        "kNN scatters to every shard"
    );
    assert_eq!(sharded.shard_scrapes().len(), 2);
    sharded.shutdown();
}
