//! The query service end to end, started from `ServiceBuilder::new()`
//! defaults: a catalog of two named layers with different partitioner
//! kinds; reads (range, kNN, probe join) coalesced into micro-batches;
//! writes delta-applied into the per-tile trees with read-your-writes;
//! cross-dataset joins that reuse both sides' forests; and a scrape of
//! the metrics registry with the slow-query ring's phase breakdowns.
//!
//! ```text
//! cargo run --release --example service
//! ```

use clipped_bbox::datasets::multi::{layers, LayerSpec};
use clipped_bbox::prelude::*;

fn main() {
    // Two co-located clustered layers: roads and points of interest
    // drawn around the same "cities" (shared blob layout), so joining
    // them means something.
    let n = 10_000;
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

    // ── A catalog: each layer gets the partitioner that fits it, and
    // `AnyPartitioner` lets one service mix kinds. Each create builds
    // that layer's tile forest once.
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
    assert_eq!(service.dataset_id("roads"), Some(roads_id));
    println!("catalog: {roads_id:?} (adaptive grid) + {pois_id:?} (quadtree)");

    // ── Reads: a burst of mixed requests, submitted before anything is
    // awaited — the dispatcher coalesces the backlog into one batch.
    let center = roads.boxes[0].center();
    let window = Rect::new(
        Point([center[0] - 30_000.0, center[1] - 30_000.0]),
        Point([center[0] + 30_000.0, center[1] + 30_000.0]),
    );
    let probes: Vec<Rect<2>> = roads.boxes.iter().step_by(50).copied().collect();
    let join = || {
        service
            .submit(Request::Join {
                dataset: roads_id,
                probes: probes.clone(),
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open")
    };
    let found = service
        .submit(Request::Range {
            dataset: roads_id,
            query: window,
            use_clips: true,
        })
        .expect("service is open");
    let knn = service
        .submit(Request::Knn {
            dataset: roads_id,
            center,
            k: 5,
        })
        .expect("service is open");
    let (join1, join2) = (join(), join());

    let found = found.wait().unwrap();
    println!(
        "range  : {} roads in a 60k-unit window (batch of {}, {:.2} ms latency)",
        found.response.clone().into_range().len(),
        found.batch_size,
        found.latency().as_secs_f64() * 1e3,
    );
    let nn = knn.wait().unwrap().response.into_knn();
    println!(
        "knn    : 5 nearest, distances {:.0} .. {:.0}",
        nn.first().unwrap().1.sqrt(),
        nn.last().unwrap().1.sqrt(),
    );
    let j1 = join1.wait().unwrap().response.into_join();
    let j2 = join2.wait().unwrap().response.into_join();
    assert_eq!(j1, j2, "repeat joins answer identically");
    println!(
        "join   : {} pairs ({} probes ⋈ roads), twice",
        j1.pairs,
        probes.len()
    );

    // ── Writes ride the same queue. A read admitted after a write's
    // handle resolves sees it (read-your-writes).
    let rect = Rect::new(Point([123.0, 456.0]), Point([321.0, 654.0]));
    let id = service
        .submit(Request::Insert {
            dataset: roads_id,
            rect,
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .expect("finite rect");
    let seen = service
        .submit(Request::Range {
            dataset: roads_id,
            query: rect,
            use_clips: true,
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_range();
    assert!(seen.contains(&id), "read-your-writes");
    println!("insert : assigned {id:?}, immediately visible to reads");

    // Churn: delete a third of the roads and insert replacements in one
    // update batch — atomic, and one version bump however many updates.
    let before = service.dataset_version(roads_id).unwrap();
    let mut updates: Vec<Update<2>> = (0..n / 3)
        .map(|i| Update::Delete(DataId((i * 3) as u32)))
        .collect();
    updates.extend(roads.boxes.iter().take(n / 4).map(|b| {
        let c = b.center();
        Update::Insert(Rect::new(
            Point([c[0], c[1]]),
            Point([c[0] + b.extent(0), c[1] + b.extent(1)]),
        ))
    }));
    let churned = updates.len();
    let summary = service
        .submit(Request::UpdateBatch {
            dataset: roads_id,
            updates,
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_updated();
    assert_eq!(summary.version, DataVersion(before.0 + 1), "one bump");
    let gone = service
        .submit(Request::Delete {
            dataset: roads_id,
            id,
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_deleted();
    assert!(gone);
    println!(
        "churn  : {} updates in one batch → version {:?}, {} live roads",
        churned,
        summary.version,
        service.dataset_live_count(roads_id).unwrap()
    );

    // ── Cross-dataset join: every (road, poi) intersection, tiled by the
    // indexed side's partitioner and swept per tile, both stores' cached
    // columns reused — repeat joins rebuild nothing.
    let cross = || {
        service
            .submit(Request::CrossJoin {
                left: roads_id,
                right: pois_id,
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .unwrap()
            .response
            .into_join()
    };
    let joined = cross();
    assert_eq!(joined, cross(), "repeat cross joins answer identically");
    println!("cross  : roads ⋈ pois = {} pairs (×2)", joined.pairs);

    // Writes to one layer bump only that layer's version.
    let roads_version = service.dataset_version(roads_id);
    service
        .submit(Request::Insert {
            dataset: pois_id,
            rect: pois.boxes[0],
        })
        .expect("service is open")
        .wait()
        .unwrap();
    assert_eq!(service.dataset_version(roads_id), roads_version);
    assert_eq!(service.dataset_version(pois_id), Some(DataVersion(1)));

    // Replacing a layer wholesale bumps its version and rebuilds its
    // forest — the only rebuild besides the two creates.
    service
        .swap_dataset(pois_id, pois.boxes[..n / 4].to_vec(), None)
        .unwrap();
    let shrunk = cross();
    assert!(shrunk.pairs < joined.pairs);
    println!("swap   : half the pois → {} pairs", shrunk.pairs);

    // ── Scrape: one registry, text + JSON renderings. The pipeline
    // metrics live in each shard's registry (one shard by default);
    // `service.scrape()` is the router's own.
    let scrape = service.shard_scrapes().remove(0);
    let families = scrape.snapshot.families.len();
    println!("\nscrape : {families} metric families, for example");
    for line in scrape
        .text
        .lines()
        .filter(|l| l.starts_with("cbb_requests_") || l.starts_with("cbb_access_leaf"))
        .take(8)
    {
        println!("  {line}");
    }
    assert!(families >= 15, "the scrape surface is a pinned API");
    assert!(scrape.json.contains("cbb_request_latency_ns"));

    // The slow-query ring: top requests by service time, each with its
    // phase breakdown (queue-wait → coalesce → lock-acquire → execute →
    // respond).
    println!("\nslowest requests (phase breakdown in µs):");
    for q in service.slow_queries().iter().take(5) {
        let phases: Vec<String> = q
            .span
            .breakdown()
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}", *ns as f64 / 1e3))
            .collect();
        let dataset = q.dataset.as_deref().unwrap_or("-");
        println!(
            "  {:>12} on {dataset}: total {:.1} µs [{}]",
            q.kind,
            q.total_ns as f64 / 1e3,
            phases.join(", "),
        );
    }

    // Reports are views over the same registry cells, with one row per
    // layer (version, live objects, the load-imbalance drift metric).
    let report = service.report();
    let completed = scrape
        .snapshot
        .counter("cbb_requests_completed_total", &[])
        .expect("registered");
    assert_eq!(completed, report.completed, "report == registry view");
    println!();
    for ds in &report.datasets {
        println!(
            "report : {:<6} v{} — {} live, imbalance {:.2}, occupancy p50 {} / p99 {}",
            ds.name,
            ds.version.0,
            ds.live_objects,
            ds.load_imbalance,
            ds.occupancy_p50(),
            ds.occupancy_p99(),
        );
    }
    assert_eq!(
        report.forest_builds, 3,
        "one build per create and one per swap — none per join or write"
    );

    // Drop a layer: its id never comes back. Shutdown drains the queue.
    assert!(service.drop_dataset(roads_id));
    assert_eq!(service.dataset_id("roads"), None);
    let report = service.shutdown();
    println!(
        "done   : {} requests in {} batches (mean {:.2}), {} write batches, {} cross joins",
        report.completed,
        report.batches,
        report.mean_batch,
        report.write_batches,
        report.cross_joins,
    );
    assert_eq!(report.completed, report.submitted);
}
