//! Torn-write fault injection: damage the durability files the way a
//! kill mid-`write(2)` or a dying disk would, and pin recovery's
//! response — checksum-detect, truncate to the last valid record, and
//! never serve a half-applied batch. Snapshot damage (which has no
//! older copy to fall back to) must refuse recovery loudly.

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::AdaptiveGrid;
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, Response, ServiceBuilder, ShardedService, Update};
use cbb_storage::FaultyLog;

const BATCHES: usize = 6;

fn tree() -> TreeConfig<2> {
    TreeConfig::tiny(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cbb_serve_fault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable service with `BATCHES` single-insert batches applied,
/// shut down cleanly. Returns the root and the per-batch acked
/// versions.
fn run_stream(tag: &str) -> (std::path::PathBuf, Vec<u64>) {
    let data = clustered_with_layout::<2>(600, 4, 30_000.0, 0.15, 5, 5);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [3, 3], &[]);
    let root = tmp_root(tag);
    let service =
        ServiceBuilder::new()
            .durability(&root)
            .build(partitioner, data.boxes, tree(), clip());
    let dataset = service.default_dataset();
    let mut rng = SplitMix64::new(5);
    let mut versions = Vec::new();
    for _ in 0..BATCHES {
        let x = rng.gen_range(0.0, 100_000.0);
        let y = rng.gen_range(0.0, 100_000.0);
        let response = service
            .submit(Request::UpdateBatch {
                dataset,
                updates: vec![
                    Update::Insert(Rect::new(Point([x, y]), Point([x + 50.0, y + 50.0]))),
                    Update::Delete(DataId((x as u32) % 600)),
                ],
            })
            .unwrap()
            .wait()
            .unwrap();
        match response.response {
            Response::Updated(summary) => versions.push(summary.version.0),
            other => panic!("expected update summary, got {other:?}"),
        }
    }
    service.shutdown();
    (root, versions)
}

fn restart(root: &std::path::Path) -> ShardedService<2, AdaptiveGrid<2>> {
    let data = clustered_with_layout::<2>(600, 4, 30_000.0, 0.15, 5, 5);
    ServiceBuilder::new().durability(root).build(
        AdaptiveGrid::from_sample(data.domain, [3, 3], &[]),
        Vec::new(),
        tree(),
        clip(),
    )
}

/// A truncated tail (the classic torn write: the kill landed inside
/// the last `write(2)`) is detected and dropped; every fully-written
/// batch before it survives.
#[test]
fn truncated_wal_tail_loses_only_the_last_batch() {
    let (root, versions) = run_stream("truncate");
    let wal = root.join("ds_0.wal");
    // Chop 3 bytes off the final record: its length prefix now promises
    // more payload than the file holds.
    FaultyLog::new(&wal).truncate_tail(3).unwrap();

    let service = restart(&root);
    let dataset = service.default_dataset();
    assert_eq!(
        service.dataset_version(dataset).unwrap().0,
        versions[BATCHES - 2],
        "the torn final batch vanished, the previous commit survived"
    );
    let report = service.shutdown();
    assert_eq!(report.recovered_records, (BATCHES - 1) as u64);
    let _ = std::fs::remove_dir_all(&root);
}

/// A flipped bit inside the tail record fails its checksum — recovery
/// must treat it exactly like a torn tail, not apply half-garbage.
#[test]
fn bit_flip_in_wal_tail_is_detected_by_checksum() {
    let (root, versions) = run_stream("bitflip");
    let wal = root.join("ds_0.wal");
    // Damage the payload of the final record (well past its 8-byte
    // frame, counted from the end).
    FaultyLog::new(&wal).flip_bit_from_end(4).unwrap();

    let service = restart(&root);
    let dataset = service.default_dataset();
    assert_eq!(
        service.dataset_version(dataset).unwrap().0,
        versions[BATCHES - 2],
        "the corrupt record and nothing else was discarded"
    );
    let report = service.shutdown();
    assert_eq!(report.recovered_records, (BATCHES - 1) as u64);
    let _ = std::fs::remove_dir_all(&root);
}

/// A flipped bit in the *middle* of the WAL cuts replay at that record:
/// everything before is served, everything after (whose versions would
/// now gap) is discarded with it. The recovered state is still a clean
/// prefix — never a half-applied batch.
#[test]
fn bit_flip_mid_wal_recovers_the_valid_prefix() {
    let (root, versions) = run_stream("midflip");
    let wal = root.join("ds_0.wal");
    let len = std::fs::metadata(&wal).unwrap().len();
    // Land inside one of the middle records' payloads.
    FaultyLog::new(&wal).flip_bit_at(len / 2).unwrap();

    let service = restart(&root);
    let dataset = service.default_dataset();
    let recovered = service.dataset_version(dataset).unwrap().0;
    assert!(
        versions.contains(&recovered) || recovered == versions[0] - 1,
        "recovered version {recovered} must be one of the acked prefix versions {versions:?}"
    );
    assert!(
        recovered < versions[BATCHES - 1],
        "records after the damaged one must not replay"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Snapshot damage is not survivable (there is no older snapshot to
/// fall back to) — recovery must refuse to start rather than serve a
/// corrupt store.
#[test]
fn corrupt_snapshot_refuses_recovery() {
    let (root, _) = run_stream("snapcorrupt");
    let snap = root.join("ds_0.snap");
    // Flip a bit inside the arena section, far from the header.
    let len = std::fs::metadata(&snap).unwrap().len();
    FaultyLog::new(&snap).flip_bit_at(len / 2).unwrap();

    let result = std::panic::catch_unwind(|| restart(&root));
    assert!(
        result.is_err(),
        "a checksum-failing snapshot must refuse recovery, not serve garbage"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A torn `catalog.wal` tail loses only the lifecycle event it carried:
/// a dataset whose `Create` record was half-written comes back as an
/// orphan snapshot (deleted), not a live dataset.
#[test]
fn torn_catalog_wal_undoes_the_halfwritten_create() {
    let data = clustered_with_layout::<2>(400, 4, 30_000.0, 0.15, 5, 5);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [3, 3], &[]);
    let root = tmp_root("admin_torn");
    let service = ServiceBuilder::new().durability(&root).build(
        partitioner.clone(),
        data.boxes.clone(),
        tree(),
        clip(),
    );
    let extra = service
        .create_dataset("extra", partitioner, data.boxes[..32].to_vec())
        .unwrap();
    service.shutdown();

    // Tear the tail of catalog.wal inside the "extra" Create record.
    FaultyLog::new(&root.join("catalog.wal"))
        .truncate_tail(2)
        .unwrap();
    let snap = root.join(format!("ds_{}.snap", extra.0));
    assert!(
        snap.exists(),
        "the orphan snapshot was written before the record"
    );

    let service = restart(&root);
    assert_eq!(
        service.dataset_id("extra"),
        None,
        "half-created dataset is gone"
    );
    assert!(
        service.dataset_id(cbb_serve::DEFAULT_DATASET).is_some(),
        "the fully-committed dataset still recovers"
    );
    assert!(!snap.exists(), "recovery deletes the orphan snapshot");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
