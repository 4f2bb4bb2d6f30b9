//! Shard oracle: an N-shard [`ShardedService`] answers **byte-equal**
//! to the engine on the same seeded data, for every request kind and
//! partitioner kind — boundary-straddling windows, shards that own no
//! tile, cross-joins between differently tiled datasets — plus the
//! router's own edges: atomic admin fan-out and its telemetry.
//!
//! The answer checks are named cases of the seeded harness
//! (`harness/`) with 2, 3, 5 or 7 shards pinned; the harness compares
//! every merged response with the engine reference over the whole
//! dataset.

mod harness;
#[path = "../../engine/tests/model/mod.rs"]
mod model;

use std::time::Duration;

use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, AnyPartitioner, Partitioner, QuadtreePartitioner};
use cbb_geom::{Point, Rect};
use cbb_rtree::Variant;
use cbb_serve::{Request, RequestError, Response, ServiceBuilder};
use harness::{answer, cross_join, run, wait, ServeCase, Service};
use model::{clip, tree, Tiling};

/// `n` shards over `tiling` for every initial dataset.
fn sharded(c: &mut ServeCase, n: usize, tiling: Tiling) {
    c.shape.shards = n;
    c.shape.durable = false;
    c.data.tilings.fill(tiling);
}

/// An equal-cut grid on two shards, and on three, where the middle
/// shard owns tiles at both ends of its range.
#[test]
fn uniform_grid_oracle_balanced() {
    for n in [2, 3] {
        run(201, |c| sharded(c, n, Tiling::Equal));
    }
}

/// A data-fitted partitioner (cuts at the objects' quantiles) behind
/// balanced shard maps over five shards.
#[test]
fn adaptive_grid_oracle_fitted() {
    run(202, |c| sharded(c, 5, Tiling::Fitted));
}

/// A quadtree fitted to the objects, behind balanced shard maps over
/// three shards.
#[test]
fn quadtree_oracle_fitted() {
    run(203, |c| sharded(c, 3, Tiling::Quadtree));
}

/// More shards than tiles: 4 tiles over 7 shards leave shards 0, 2
/// and 4 without a tile, and a 1 × 1 grid leaves six. They must mirror
/// writes and contribute empty fragments without disturbing merges.
#[test]
fn empty_shards_answer_correctly() {
    run(204, |c| {
        sharded(c, 7, Tiling::Coarse);
        c.data.tilings[1] = Tiling::Single;
        c.data.share = false;
    });
}

/// Cross-dataset joins between two independently tiled datasets, on
/// three shards.
#[test]
fn cross_join_oracle_two_datasets() {
    let seen = run(205, |c| {
        sharded(c, 3, Tiling::Fitted);
        c.data.tilings[1] = Tiling::Equal;
        c.data.share = false;
    });
    assert!(seen.contains("cross join=cross tiling"));
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

/// Admin ops fan out atomically: ids assigned in lock-step, drops
/// leave no shard behind, swaps re-cut the shard map, and requests
/// against dropped datasets fail identically.
#[test]
fn admin_fanout_is_atomic() {
    let (domain, objects) = dataset(500, 61);
    let grid = AdaptiveGrid::from_sample(domain, [4, 4], &[]);
    let sharded = builder()
        .shards(3)
        .build_catalog::<2, AnyPartitioner<2>>(tree(Variant::RStar), clip());

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
    let everything = Request::Range {
        dataset: a,
        query: domain,
        use_clips: true,
    };
    let hits = answer(&sharded, everything.clone()).into_range();
    assert_eq!(hits.len(), sharded.dataset_live_count(a).unwrap());

    // Drop: gone from the route table and from every shard.
    assert!(sharded.drop_dataset(a));
    assert!(!sharded.drop_dataset(a), "second drop reports absence");
    assert_eq!(sharded.dataset_id("a"), None);
    let miss = answer(&sharded, everything);
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

/// A swap without a partitioner keeps the tiling its dataset holds
/// when the swap is dequeued, even right behind a pipelined re-fit:
/// the dataset then joins like one created under the re-fit tiling.
#[test]
fn pipelined_swaps_keep_the_latest_refit() {
    let (domain, objects) = dataset(400, 91);
    let quad: AnyPartitioner<2> = QuadtreePartitioner::build(domain, &objects, 50).into();
    let fresh = builder().build_catalog(tree(Variant::RStar), clip());
    let id = fresh
        .create_dataset("a", quad.clone(), objects.clone())
        .unwrap();
    let want = answer(&fresh, cross_join(id, id, true));
    fresh.shutdown();
    for shards in [1, 2] {
        let svc: Service = builder()
            .shards(shards)
            .build_catalog(tree(Variant::RStar), clip());
        let grid = AdaptiveGrid::from_sample(domain, [4, 4], &[]);
        let a = svc
            .create_dataset("a", grid.into(), objects.clone())
            .unwrap();
        let swap = |partitioner| Request::SwapData {
            dataset: a,
            objects: objects.clone(),
            partitioner,
        };
        let handles = [swap(Some(quad.clone())), swap(None)].map(|q| svc.submit(q).unwrap());
        for handle in handles {
            assert!(matches!(wait(handle).response, Response::Swapped(_)));
        }
        let map = svc.dataset_shard_map(a).unwrap();
        assert_eq!(map.tile_count(), quad.tile_count(), "{shards} shards");
        let got = answer(&svc, cross_join(a, a, true));
        assert_eq!(got, want, "{shards} shards: self-join after both swaps");
        svc.shutdown();
    }
}

/// Router telemetry: scatter/gather phases and per-shard routing
/// counters appear in the router's scrape; shard scrapes stay
/// per-shard.
#[test]
fn router_scrape_exposes_scatter_gather() {
    let (domain, objects) = dataset(400, 81);
    let sharded = builder().shards(2).build(
        AnyPartitioner::from(AdaptiveGrid::from_sample(domain, [4, 4], &[])),
        objects,
        tree(Variant::RStar),
        clip(),
    );
    let ds = sharded.default_dataset();
    for _ in 0..4 {
        let center = Point([0.0, 0.0]);
        answer(
            &sharded,
            Request::Knn {
                dataset: ds,
                center,
                k: 3,
            },
        )
        .into_knn();
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
