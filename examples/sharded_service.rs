//! A sharded scatter-gather service: the same catalog surface and the
//! same `submit` path as the default one-shard service, served by N
//! in-process shards. Arenas are mirrored (every shard
//! holds every object), forests are sharded (each shard indexes a
//! contiguous tile range), and the reference-point rule makes each
//! merge exact — a 4-shard answer is byte-identical to the 1-shard
//! one.
//!
//! ```text
//! cargo run --release --example sharded_service
//! ```

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::engine::AdaptiveGrid;
use clipped_bbox::prelude::*;

fn main() {
    let n = 8_000;
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 7);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    println!("dataset: {n} clustered boxes, adaptive 6×6 partitioning");

    // The shard count is just a builder knob; each dataset's tiles are
    // cut into near-equal contiguous ranges, one per shard.
    let service =
        ServiceBuilder::new()
            .shards(4)
            .build(partitioner.clone(), data.boxes.clone(), tree, clip);
    let map = service
        .dataset_shard_map(service.default_dataset())
        .expect("default dataset is routed");
    println!(
        "shards : {} shards over {} tiles, balanced ranges {:?}",
        map.shard_count(),
        map.tile_count(),
        (0..map.shard_count())
            .map(|s| map.range(s))
            .collect::<Vec<_>>(),
    );

    // Every request is a `Request` value submitted to the router; the
    // handles resolve to the merged answers.
    let roads = service
        .dataset_id(DEFAULT_DATASET)
        .expect("created at start");
    let center = data.boxes[0].center();
    let window = Rect::new(
        Point([center[0] - 30_000.0, center[1] - 30_000.0]),
        Point([center[0] + 30_000.0, center[1] + 30_000.0]),
    );
    let range_in = |dataset| Request::Range {
        dataset,
        query: window,
        use_clips: true,
    };
    let range = service.submit(range_in(roads)).expect("service is open");
    let knn = service
        .submit(Request::Knn {
            dataset: roads,
            center,
            k: 5,
        })
        .expect("service is open");

    // A second served layer, then a cross-dataset join by name.
    let parcels_boxes: Vec<Rect<2>> = data.boxes.iter().step_by(3).copied().collect();
    let parcels_p = AdaptiveGrid::from_sample(data.domain, [4, 4], &parcels_boxes);
    let parcels = service
        .create_dataset("parcels", parcels_p, parcels_boxes.clone())
        .expect("fresh name");
    let join = service
        .submit(Request::CrossJoin {
            left: roads,
            right: parcels,
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .expect("service is open");

    let hits = range.wait().unwrap().response.into_range();
    println!("range  : {} objects in a 60k-unit window", hits.len());
    let nn = knn.wait().unwrap().response.into_knn();
    println!(
        "knn    : 5 nearest, distances {:.0} .. {:.0}",
        nn.first().unwrap().1.sqrt(),
        nn.last().unwrap().1.sqrt(),
    );
    let pairs = join.wait().unwrap().response.into_join().pairs;
    println!("join   : roads ⋈ parcels = {pairs} pairs, merged across 4 shards");

    // The oracle property, demonstrated: a one-shard service on the
    // same data answers every one of those requests identically.
    let single = ServiceBuilder::new().build(partitioner, data.boxes.clone(), tree, clip);
    let same_hits = single
        .submit(range_in(single.default_dataset()))
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range();
    assert_eq!(hits, same_hits, "sharding never changes an answer");
    println!("oracle : 1-shard service returns the identical range answer");
    single.shutdown();

    // The router's own telemetry: scatter width and per-shard routing.
    let scrape = service.scrape();
    let routed: Vec<u64> = (0..4)
        .map(|s| {
            scrape
                .snapshot
                .counter(
                    "cbb_router_shard_requests_total",
                    &[("shard", &s.to_string())],
                )
                .unwrap_or(0)
        })
        .collect();
    println!("router : per-shard routed requests {routed:?}");

    let report = service.shutdown();
    println!(
        "report : {} shard-level requests completed across 4 shards, \
         {} tile-forest builds",
        report.completed, report.forest_builds,
    );
    assert_eq!(report.completed, report.submitted);
}
