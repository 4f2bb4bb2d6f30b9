//! A catalog of named spatial layers served side by side: two
//! co-located datasets with *different* partitioner kinds, per-dataset
//! versioning, cross-dataset joins reusing both sides' tile forests,
//! and per-dataset report rows (including the tile
//! load-imbalance drift metric).
//!
//! ```text
//! cargo run --release --example multi_dataset
//! ```

use clipped_bbox::datasets::multi::{layers, LayerSpec};
use clipped_bbox::engine::{AnyPartitioner, QuadtreePartitioner};
use clipped_bbox::prelude::*;

fn main() {
    // Two co-located clustered layers: roads and points of interest
    // drawn around the same "cities" (shared blob layout), so joining
    // them means something.
    let n = 8_000;
    let generated = layers::<2>(
        &[
            LayerSpec::clustered("roads", n),
            LayerSpec::clustered("pois", n / 2),
        ],
        7,
        42,
    );
    let (roads, pois) = (&generated[0].dataset, &generated[1].dataset);
    println!(
        "layers : roads ({}) + pois ({}) over one shared domain",
        roads.boxes.len(),
        pois.boxes.len()
    );

    // An empty catalog; each layer gets the partitioner that fits its
    // character — AnyPartitioner lets one service mix kinds.
    let service: ShardedService<2, AnyPartitioner<2>> = ServiceBuilder::new().build_catalog(
        TreeConfig::paper_default(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    );
    let roads_id = service
        .create_dataset(
            "roads",
            AdaptiveGrid::from_sample(roads.domain, [6, 6], &roads.boxes).into(),
            roads.boxes.clone(),
        )
        .expect("fresh name");
    let pois_id = service
        .create_dataset(
            "pois",
            QuadtreePartitioner::build(pois.domain, &pois.boxes, 400).into(),
            pois.boxes.clone(),
        )
        .expect("fresh name");
    println!(
        "catalog: {:?} (adaptive grid) + {:?} (quadtree)",
        roads_id, pois_id
    );
    assert_eq!(service.dataset_id("roads"), Some(roads_id));

    // Each dataset answers its own queries, independently versioned.
    let window = {
        let c = roads.boxes[0].center();
        Rect::new(
            Point([c[0] - 25_000.0, c[1] - 25_000.0]),
            Point([c[0] + 25_000.0, c[1] + 25_000.0]),
        )
    };
    for (name, id) in [("roads", roads_id), ("pois", pois_id)] {
        let found = service
            .submit(Request::Range {
                dataset: id,
                query: window,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .unwrap()
            .response
            .into_range();
        println!("range  : {} {name} in a 50k-unit window", found.len());
    }

    // The cross-dataset join: every (road, poi) intersection, tiled by
    // the indexed side's partitioner, BOTH stores' forests reused —
    // repeat joins rebuild nothing.
    let cross = |left, right, algo| {
        service
            .submit(Request::CrossJoin {
                left,
                right,
                algo,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .unwrap()
            .response
            .into_join()
    };
    let stt = cross(roads_id, pois_id, JoinAlgo::Stt);
    let stt_again = cross(roads_id, pois_id, JoinAlgo::Stt);
    let inlj = cross(roads_id, pois_id, JoinAlgo::Inlj);
    assert_eq!(stt, stt_again, "repeat cross joins answer identically");
    assert_eq!(stt.pairs, inlj.pairs, "STT and INLJ agree on pairs");
    println!(
        "cross  : roads ⋈ pois = {} pairs (×2 STT, ×1 INLJ)",
        stt.pairs
    );

    // Writes to one layer bump only that layer's version; the other
    // keeps serving its trees untouched.
    let inserted = service
        .submit(Request::Insert {
            dataset: pois_id,
            rect: pois.boxes[0],
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .expect("finite rect");
    println!(
        "write  : inserted {inserted:?} into pois → versions roads {:?} / pois {:?}",
        service.dataset_version(roads_id).unwrap(),
        service.dataset_version(pois_id).unwrap(),
    );
    assert_eq!(service.dataset_version(roads_id), Some(DataVersion(0)));
    assert_eq!(service.dataset_version(pois_id), Some(DataVersion(1)));

    // Per-dataset report rows: stores, versions, maintenance counters,
    // and the load-imbalance drift metric.
    let report = service.report();
    for ds in &report.datasets {
        println!(
            "report : {:<6} v{} — {} live, imbalance {:.2}, {} write batches",
            ds.name, ds.version.0, ds.live_objects, ds.load_imbalance, ds.write_batches,
        );
    }
    assert_eq!(
        report.forest_builds, 2,
        "one build per layer, none per join"
    );

    // Drop a layer: its id never comes back, its forest goes with its
    // store, in-flight work drains gracefully.
    assert!(service.drop_dataset(roads_id));
    assert_eq!(service.dataset_id("roads"), None);
    let report = service.shutdown();
    println!(
        "done   : {} requests served, {} cross joins, {} forest builds total",
        report.completed, report.cross_joins, report.forest_builds,
    );
    assert_eq!(report.completed, report.submitted);
}
