//! A long-running query service in front of the partitioned engine:
//! clients submit range / kNN / join requests onto a bounded queue,
//! dispatchers coalesce them into micro-batches, and the dataset's
//! tile trees, built once, make repeated joins free of rebuild cost
//! until the data is swapped.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use std::time::Duration;

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::engine::AdaptiveGrid;
use clipped_bbox::prelude::*;

fn main() {
    // The dataset: clustered boxes, the shape that makes partitioning
    // (and therefore per-tile tree caching) worth having.
    let n = 10_000;
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 7);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    println!("dataset: {n} clustered boxes, adaptive 6×6 partitioning");

    // Start the service: trees are partitioned and bulk-loaded ONCE,
    // then every request is served from them.
    let service = ServiceBuilder::new()
        .batch_max(32)
        .batch_deadline(Duration::from_millis(2))
        .build(
            partitioner,
            data.boxes.clone(),
            TreeConfig::paper_default(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        );
    let dataset = service.default_dataset();

    // A burst of mixed requests, submitted before anything is awaited —
    // the micro-batcher coalesces them into shared executor runs.
    let center = data.boxes[0].center();
    let window = Rect::new(
        Point([center[0] - 30_000.0, center[1] - 30_000.0]),
        Point([center[0] + 30_000.0, center[1] + 30_000.0]),
    );
    let range = service
        .submit(Request::Range {
            dataset,
            query: window,
            use_clips: true,
        })
        .expect("service is open");
    let knn = service
        .submit(Request::Knn {
            dataset,
            center,
            k: 5,
        })
        .expect("service is open");
    let probes: Vec<Rect<2>> = data.boxes.iter().step_by(50).copied().collect();
    let join = || {
        service
            .submit(Request::Join {
                dataset,
                probes: probes.clone(),
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open")
    };
    let join1 = join();
    let join2 = join(); // identical request: same cached columns

    let found = range.wait().unwrap();
    println!(
        "range  : {} objects in a 60k-unit window (batch of {}, {:.2} ms latency)",
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
        "join   : {} pairs ({} probes ⋈ dataset), twice",
        j1.pairs,
        probes.len()
    );

    // Replace the dataset: the version bumps, the next request rebuilds.
    service
        .swap_dataset(dataset, data.boxes[..n / 2].to_vec(), None)
        .unwrap();
    let shrunk = join().wait().unwrap().response.into_join();
    println!("swap   : half the data → {} pairs", shrunk.pairs);
    assert!(shrunk.pairs < j1.pairs);

    let report = service.shutdown();
    println!(
        "report : {} requests, {} batches (mean {:.2}, max {}), \
         {} tile-forest builds",
        report.completed, report.batches, report.mean_batch, report.max_batch, report.forest_builds,
    );
    assert_eq!(report.completed, report.submitted);
    assert_eq!(
        report.forest_builds, 2,
        "one build at start, one after swap_dataset — never per join"
    );
}
