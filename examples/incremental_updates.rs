//! A service taking interleaved writes and reads: inserts, deletes, and
//! update batches flow through the same queue and micro-batcher as
//! queries; every write-carrying batch bumps the data version exactly
//! once and delta-applies into the per-tile trees — no forest rebuild,
//! untouched tiles shared copy-on-write with the previous version.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use std::time::Duration;

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::engine::{AdaptiveGrid, Update};
use clipped_bbox::prelude::*;

fn main() {
    let n = 10_000;
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 11, 11);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    println!("dataset: {n} clustered boxes, adaptive 6×6 partitioning");

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
    println!(
        "start  : version {:?}, {} live objects",
        service.dataset_version(dataset).unwrap(),
        service.dataset_live_count(dataset).unwrap()
    );

    // A single insert: the store assigns the next arena id, and a read
    // admitted after the write completes is guaranteed to see it.
    let rect = Rect::new(Point([123.0, 456.0]), Point([321.0, 654.0]));
    let id = service
        .submit(Request::Insert { dataset, rect })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .expect("finite rect");
    let seen = service
        .submit(Request::Range {
            dataset,
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

    // Churn: delete a third of the originals and insert replacements,
    // shipped as update batches — each batch is atomic and bumps the
    // version once, however many updates it carries.
    let mut updates: Vec<Update<2>> = Vec::new();
    for i in 0..n / 3 {
        updates.push(Update::Delete(DataId((i * 3) as u32)));
    }
    for b in data.boxes.iter().take(n / 4) {
        let c = b.center();
        updates.push(Update::Insert(Rect::new(
            Point([c[0], c[1]]),
            Point([c[0] + b.extent(0), c[1] + b.extent(1)]),
        )));
    }
    let summary = service
        .submit(Request::UpdateBatch {
            dataset,
            updates: updates.clone(),
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_updated();
    println!(
        "churn  : {} updates in one batch → version {:?} (one bump)",
        updates.len(),
        summary.version,
    );
    println!(
        "store  : {} live objects after churn",
        service.dataset_live_count(dataset).unwrap()
    );

    // Reads interleave freely; delete the first insert again.
    let gone = service
        .submit(Request::Delete { dataset, id })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_deleted();
    assert!(gone);
    let probes: Vec<Rect<2>> = data.boxes.iter().step_by(50).copied().collect();
    let join = service
        .submit(Request::Join {
            dataset,
            probes: probes.clone(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .expect("service is open")
        .wait()
        .unwrap()
        .response
        .into_join();
    println!(
        "join   : {} pairs ({} probes ⋈ churned dataset)",
        join.pairs,
        probes.len()
    );

    let report = service.shutdown();
    println!(
        "report : {} requests, {} write batches ({} updates), \
         {} delta node allocations, {} forest builds",
        report.completed,
        report.write_batches,
        report.updates_applied,
        report.delta_nodes_allocated,
        report.forest_builds,
    );
    assert_eq!(report.completed, report.submitted);
    assert_eq!(
        report.forest_builds, 1,
        "writes delta-apply — the start-time build is the only one"
    );
}
