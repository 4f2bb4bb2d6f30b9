//! Durability end to end: a service persists its catalog as snapshot +
//! write-ahead log, "crashes" (is dropped without a clean shutdown
//! path mattering — every acked write is already fsynced), and a
//! second service recovers the full catalog from disk and picks up
//! exactly where the first left off.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::prelude::*;

fn main() {
    let data = clustered_with_layout::<2>(10_000, 6, 30_000.0, 0.15, 7, 7);
    // A 4 × 4 grid with cuts at the data's quantiles: its cut arrays are
    // part of what the snapshot must restore.
    let partitioner = AdaptiveGrid::from_sample(data.domain, [4, 4], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let root = std::env::temp_dir().join(format!("durable_service_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // ── First life: create, write, "crash". ────────────────────────
    // The builder's `durability` knob turns persistence on; everything
    // else about the service is unchanged.
    let service = ServiceBuilder::new().durability(&root).build(
        partitioner.clone(),
        data.boxes.clone(),
        tree,
        clip,
    );
    let dataset = service.default_dataset();
    for i in 0..25u32 {
        let x = f64::from(i) * 1_000.0;
        let summary = service
            .submit(Request::UpdateBatch {
                dataset,
                updates: vec![Update::Insert(Rect::new(
                    Point([x, x]),
                    Point([x + 500.0, x + 500.0]),
                ))],
            })
            .expect("service is open")
            .wait()
            .expect("write served")
            .response;
        // The moment this response arrived, the WAL record behind it
        // was already fsynced: an acknowledgement is a promise.
        assert!(matches!(summary, Response::Updated(_)));
    }
    let report = service.shutdown();
    println!(
        "first life : {} WAL records fsynced, {} checkpoints, version {:?}",
        report.wal_appends, report.checkpoints, report.datasets[0].version,
    );
    let pre_crash_version = report.datasets[0].version;
    let pre_crash_live = report.datasets[0].live_objects;

    // ── Second life: recover from the directory alone. ─────────────
    // Objects and partitioner passed here are ignored: the recovered
    // default dataset wins.
    let service =
        ServiceBuilder::new()
            .durability(&root)
            .build(partitioner, Vec::new(), tree, clip);
    let dataset = service.default_dataset();
    let recovered = service
        .submit(Request::Range {
            dataset,
            query: Rect::new(Point([0.0, 0.0]), Point([26_000.0, 26_000.0])),
            use_clips: true,
        })
        .expect("service is open")
        .wait()
        .expect("range served")
        .response
        .into_range();
    println!(
        "second life: recovered {} objects at version {:?}, probe over the crash-era diagonal returned {}",
        service.report().datasets[0].live_objects,
        service.report().datasets[0].version,
        recovered.len(),
    );
    let report = service.shutdown();
    assert_eq!(report.datasets[0].version, pre_crash_version);
    assert_eq!(report.datasets[0].live_objects, pre_crash_live);
    assert!(report.recovered_records > 0, "the WAL tail replayed");
    println!(
        "recovery   : {} dataset(s), {} WAL records replayed, {} snapshot pages read",
        report.recovered_datasets, report.recovered_records, report.recovered_pages,
    );

    let _ = std::fs::remove_dir_all(&root);
}
