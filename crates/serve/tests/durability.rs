//! The recovery oracle: a service recovered from snapshot + WAL
//! answers every request kind identically to a service that never
//! restarted, at every simulated kill point, for multiple partitioner
//! kinds. Durability is one-shard: a durable multi-shard service is
//! refused at build.
//!
//! Crash points are simulated by copying the durability directory
//! right after the k-th write batch is acknowledged: because each
//! batch is fsynced *before* its waiters wake, the copy is exactly
//! what a `SIGKILL` at that moment would leave on disk (the scripted
//! real-kill gauntlet lives in the `crash_recovery` bench binary).
//! Comparison follows the workspace convention: range answers as
//! sorted sets (traversal order differs between grown and rebuilt
//! forests), kNN byte-equal, joins by pair count.

use std::path::Path;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, JoinAlgo};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, Response, ServiceBuilder, ShardedService, Update};

const KILL_POINTS: [usize; 3] = [1, 4, 9];
const BATCHES: usize = 10;

fn tree() -> TreeConfig<2> {
    TreeConfig::tiny(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

fn fixture() -> (Vec<Rect<2>>, Rect<2>) {
    let data = clustered_with_layout::<2>(1_200, 5, 30_000.0, 0.15, 11, 11);
    (data.boxes, data.domain)
}

/// The scripted write stream: `BATCHES` update batches mixing inserts
/// and deletes, deterministic in `seed`.
fn scripted_batches(seed: u64, base_objects: usize) -> Vec<Vec<Update<2>>> {
    let mut rng = SplitMix64::new(seed);
    (0..BATCHES)
        .map(|b| {
            let mut ops = Vec::new();
            for _ in 0..12 {
                let x = rng.gen_range(0.0, 900_000.0);
                let y = rng.gen_range(0.0, 900_000.0);
                let s = rng.gen_range(500.0, 20_000.0);
                ops.push(Update::Insert(Rect::new(
                    Point([x, y]),
                    Point([x + s, y + s]),
                )));
            }
            for d in 0..4 {
                ops.push(Update::Delete(DataId(
                    ((b * 7 + d * 3) % base_objects) as u32,
                )));
            }
            ops
        })
        .collect()
}

fn probes(seed: u64) -> (Vec<Rect<2>>, Vec<(Point<2>, usize)>) {
    let mut rng = SplitMix64::new(seed);
    let ranges = (0..25)
        .map(|_| {
            let x = rng.gen_range(-10_000.0, 900_000.0);
            let y = rng.gen_range(-10_000.0, 900_000.0);
            let s = rng.gen_range(2_000.0, 80_000.0);
            Rect::new(Point([x, y]), Point([x + s, y + s]))
        })
        .collect();
    let knns = (0..15)
        .map(|i| {
            let p = Point([rng.gen_range(0.0, 900_000.0), rng.gen_range(0.0, 900_000.0)]);
            (p, [1, 3, 10][i % 3])
        })
        .collect();
    (ranges, knns)
}

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cbb_serve_durability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy a durability root (flat: every file sits directly under it).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Answers for the full probe set, ranges sorted into set form.
fn answers<P>(service: &ShardedService<2, P>, dataset: cbb_serve::DatasetId) -> Vec<Response>
where
    P: cbb_engine::Partitioner<2>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    let (ranges, knns) = probes(99);
    let mut out = Vec::new();
    for query in ranges {
        let response = service
            .submit(Request::Range {
                dataset,
                query,
                use_clips: true,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response;
        let mut ids = match response {
            Response::Range(ids) => ids,
            other => panic!("expected range, got {other:?}"),
        };
        ids.sort_unstable();
        out.push(Response::Range(ids));
    }
    for (center, k) in knns {
        out.push(
            service
                .submit(Request::Knn { dataset, center, k })
                .unwrap()
                .wait()
                .unwrap()
                .response,
        );
    }
    // Joins compare by pair count: the I/O counters depend on tree
    // shape, which legitimately differs between grown and rebuilt
    // forests.
    let join_probes: Vec<Rect<2>> = probes(123).0;
    for use_clips in [true, false] {
        let join = service
            .submit(Request::Join {
                dataset,
                probes: join_probes.clone(),
                algo: JoinAlgo::Auto,
                use_clips,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response;
        let pairs = match join {
            Response::Join(result) => result.pairs,
            other => panic!("expected join, got {other:?}"),
        };
        out.push(Response::Range(vec![DataId(u32::try_from(pairs).unwrap())]));
    }
    out
}

/// Run the scripted stream on a durable one-shard service, copying the
/// durability root after each kill-point ack; then recover each copy
/// and compare against a never-restarted reference with the same
/// prefix applied.
fn single_service_oracle<P>(tag: &str, partitioner: P)
where
    P: cbb_engine::Partitioner<2>
        + cbb_engine::PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static,
{
    let (objects, _) = fixture();
    let batches = scripted_batches(7, objects.len());
    let root = tmp_root(tag);

    let builder = ServiceBuilder::new().durability(&root);
    let durable = builder.build(partitioner.clone(), objects.clone(), tree(), clip());
    let dataset = durable.default_dataset();
    for (i, ops) in batches.iter().enumerate() {
        let completion = durable
            .submit(Request::UpdateBatch {
                dataset,
                updates: ops.clone(),
            })
            .unwrap()
            .wait()
            .unwrap();
        assert!(matches!(completion.response, Response::Updated(_)));
        let acked = i + 1;
        if KILL_POINTS.contains(&acked) {
            copy_dir(&root, &root.with_extension(format!("kill{acked}")));
        }
    }
    durable.shutdown();

    for kill in KILL_POINTS {
        // The reference: never restarted, same prefix applied in memory.
        let reference =
            ServiceBuilder::new().build(partitioner.clone(), objects.clone(), tree(), clip());
        let ref_dataset = reference.default_dataset();
        for ops in &batches[..kill] {
            reference
                .submit(Request::UpdateBatch {
                    dataset: ref_dataset,
                    updates: ops.clone(),
                })
                .unwrap()
                .wait()
                .unwrap();
        }

        let recovered = ServiceBuilder::new()
            .durability(root.with_extension(format!("kill{kill}")))
            .build(
                partitioner.clone(),
                Vec::new(), // recovery wins: these objects must be ignored
                tree(),
                clip(),
            );
        let rec_dataset = recovered.default_dataset();
        assert_eq!(
            recovered.dataset_version(rec_dataset),
            reference.dataset_version(ref_dataset),
            "kill point {kill}: replayed version"
        );
        assert_eq!(
            recovered.dataset_live_count(rec_dataset),
            reference.dataset_live_count(ref_dataset),
            "kill point {kill}: live objects"
        );
        assert_eq!(
            answers(&recovered, rec_dataset),
            answers(&reference, ref_dataset),
            "kill point {kill}: answers"
        );
        let report = recovered.shutdown();
        assert_eq!(report.recovered_datasets, 1);
        assert_eq!(
            report.recovered_records, kill as u64,
            "one WAL record per batch"
        );
        assert!(
            report.recovered_pages > 0,
            "kill point {kill}: recovery must read the snapshot's pages"
        );
        reference.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    for kill in KILL_POINTS {
        let _ = std::fs::remove_dir_all(root.with_extension(format!("kill{kill}")));
    }
}

#[test]
fn recovered_single_service_matches_reference_uniform_grid() {
    let (_, domain) = fixture();
    single_service_oracle("uniform", AdaptiveGrid::from_sample(domain, [4, 4], &[]));
}

#[test]
fn recovered_single_service_matches_reference_adaptive_grid() {
    let (objects, domain) = fixture();
    single_service_oracle(
        "adaptive",
        AdaptiveGrid::from_sample(domain, [4, 4], &objects),
    );
}

/// Lifecycle survives restart: created datasets come back under their
/// names, dropped datasets stay dead, and dropped ids are never reused
/// even across the restart. The files live directly under the root,
/// and each recovered dataset routes exactly as a fresh in-memory
/// service over the same partitioner would.
#[test]
fn catalog_lifecycle_survives_restart() {
    let (objects, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let root = tmp_root("lifecycle");
    let builder = ServiceBuilder::new().durability(&root);

    let first = builder
        .clone()
        .build(partitioner.clone(), objects.clone(), tree(), clip());
    let keep = first
        .create_dataset("keep", partitioner.clone(), objects[..100].to_vec())
        .unwrap();
    let doomed = first
        .create_dataset("doomed", partitioner.clone(), objects[..50].to_vec())
        .unwrap();
    assert!(first.drop_dataset(doomed));
    first.shutdown();

    let second = builder.build(partitioner.clone(), Vec::new(), tree(), clip());
    assert!(
        root.join("catalog.wal").is_file(),
        "catalog.wal lives directly under the root"
    );
    for entry in std::fs::read_dir(&root).unwrap() {
        let entry = entry.unwrap();
        assert!(
            entry.file_type().unwrap().is_file(),
            "no subdirectory under the root: {:?}",
            entry.file_name()
        );
    }
    let in_memory = ServiceBuilder::new().build(partitioner.clone(), Vec::new(), tree(), clip());
    let fresh_map = in_memory.dataset_shard_map(in_memory.default_dataset());
    in_memory.shutdown();
    let recovered = second.datasets();
    assert_eq!(recovered.len(), 2, "the default dataset and \"keep\"");
    for (id, name) in recovered {
        assert_eq!(
            second.dataset_shard_map(id),
            fresh_map,
            "recovered {name}: route equals a fresh service's"
        );
    }
    assert_eq!(second.dataset_id("keep"), Some(keep));
    assert_eq!(second.dataset_id("doomed"), None);
    assert_eq!(
        second.dataset_live_count(keep),
        Some(100),
        "recovered dataset serves its own objects"
    );
    let fresh = second
        .create_dataset("fresh", partitioner, objects[..10].to_vec())
        .unwrap();
    assert!(
        fresh.0 > doomed.0,
        "a dropped id is retired across restarts, not reassigned"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Checkpointing folds the WAL into a fresh snapshot and the recovered
/// state is unaffected; after a checkpoint the WAL starts empty, so
/// recovery replays only the post-checkpoint tail.
#[test]
fn checkpoint_rolls_wal_and_preserves_answers() {
    let (objects, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let batches = scripted_batches(33, objects.len());
    let root = tmp_root("checkpoint");
    let builder = ServiceBuilder::new().durability(&root).checkpoint_bytes(64);

    let durable = builder
        .clone()
        .build(partitioner.clone(), objects.clone(), tree(), clip());
    let dataset = durable.default_dataset();
    for ops in &batches {
        durable
            .submit(Request::UpdateBatch {
                dataset,
                updates: ops.clone(),
            })
            .unwrap()
            .wait()
            .unwrap();
    }
    let report = durable.shutdown();
    assert!(
        report.checkpoints >= BATCHES as u64,
        "the 64-byte threshold checkpoints every batch (got {})",
        report.checkpoints
    );

    let reference =
        ServiceBuilder::new().build(partitioner.clone(), objects.clone(), tree(), clip());
    let ref_dataset = reference.default_dataset();
    for ops in &batches {
        reference
            .submit(Request::UpdateBatch {
                dataset: ref_dataset,
                updates: ops.clone(),
            })
            .unwrap()
            .wait()
            .unwrap();
    }

    let recovered = builder.build(partitioner, Vec::new(), tree(), clip());
    let rec_dataset = recovered.default_dataset();
    assert_eq!(
        answers(&recovered, rec_dataset),
        answers(&reference, ref_dataset)
    );
    let report = recovered.shutdown();
    assert_eq!(
        report.recovered_records, 0,
        "everything was checkpointed into the snapshot; the WAL tail is empty"
    );
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Group commit is commit-before-fulfil: the moment a write's waiter
/// wakes, the WAL record carrying that write's version is already on
/// disk (readable and checksum-valid in a fresh scan of the file).
#[test]
fn waiter_wakes_only_after_wal_record_is_durable() {
    let (objects, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let root = tmp_root("commit_order");
    let service =
        ServiceBuilder::new()
            .durability(&root)
            .build(partitioner, objects, tree(), clip());
    let dataset = service.default_dataset();
    let wal = root.join(format!("ds_{}.wal", dataset.0));

    for i in 0..8u64 {
        let response = service
            .submit(Request::UpdateBatch {
                dataset,
                updates: vec![Update::Insert(Rect::new(
                    Point([i as f64, i as f64]),
                    Point([i as f64 + 1.0, i as f64 + 1.0]),
                ))],
            })
            .unwrap()
            .wait()
            .unwrap();
        let version = match response.response {
            Response::Updated(summary) => summary.version,
            other => panic!("expected update summary, got {other:?}"),
        };
        // Scan the WAL from scratch, as a crashed-and-restarted reader
        // would: the acked version must already be a valid record.
        let recovery = cbb_storage::recover_wal(&wal).unwrap();
        assert!(!recovery.torn, "no torn tail while the writer is alive");
        let on_disk: Vec<u64> = recovery
            .records
            .iter()
            .map(|payload| u64::from_le_bytes(payload[..8].try_into().unwrap()))
            .collect();
        assert!(
            on_disk.contains(&version.0),
            "write {i}: version {} acked but WAL holds only {on_disk:?}",
            version.0
        );
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `SwapData` rewrites the snapshot and resets the WAL; the swapped
/// state survives restart.
#[test]
fn swap_survives_restart() {
    let (objects, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let root = tmp_root("swap");
    let builder = ServiceBuilder::new().durability(&root);
    let first = builder
        .clone()
        .build(partitioner.clone(), objects.clone(), tree(), clip());
    let dataset = first.default_dataset();
    let replacement: Vec<Rect<2>> = objects[..64].to_vec();
    first
        .swap_dataset(dataset, replacement.clone(), None)
        .unwrap();
    // Post-swap writes land in the reset WAL.
    first
        .submit(Request::UpdateBatch {
            dataset,
            updates: vec![Update::Insert(Rect::new(
                Point([1.0, 1.0]),
                Point([2.0, 2.0]),
            ))],
        })
        .unwrap()
        .wait()
        .unwrap();
    let want_version = first.dataset_version(dataset);
    let want_live = first.dataset_live_count(dataset);
    first.shutdown();

    let second = builder.build(partitioner, Vec::new(), tree(), clip());
    assert_eq!(second.dataset_version(dataset), want_version);
    assert_eq!(second.dataset_live_count(dataset), want_live);
    assert_eq!(second.dataset_live_count(dataset), Some(65));
    second.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `checkpoint_bytes` and `durability` are independent setters: in
/// either order the service is durable and checkpoints at the small
/// threshold.
#[test]
fn checkpoint_threshold_holds_in_either_setter_order() {
    let (objects, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let batches = scripted_batches(35, objects.len());
    for threshold_first in [true, false] {
        let tag = if threshold_first {
            "threshold_first"
        } else {
            "root_first"
        };
        let root = tmp_root(tag);
        let builder = if threshold_first {
            ServiceBuilder::new().checkpoint_bytes(64).durability(&root)
        } else {
            ServiceBuilder::new().durability(&root).checkpoint_bytes(64)
        };
        let service = builder.build(partitioner.clone(), objects.clone(), tree(), clip());
        let dataset = service.default_dataset();
        for ops in &batches[..3] {
            service
                .submit(Request::UpdateBatch {
                    dataset,
                    updates: ops.clone(),
                })
                .unwrap()
                .wait()
                .unwrap();
        }
        let report = service.report();
        assert!(
            report.checkpoints > 0,
            "{tag}: the 64-byte threshold must checkpoint"
        );
        assert_eq!(report.wal_appends, 3, "{tag}: the service is durable");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Durability is one-shard: two shards with a durable root panic at
/// build, in either setter order and through either entry point. The
/// message names both setters, and nothing is created under the root.
#[test]
fn sharded_durability_is_refused_at_build() {
    let (_, domain) = fixture();
    let partitioner = AdaptiveGrid::from_sample(domain, [3, 3], &[]);
    let root = std::env::temp_dir().join(format!(
        "cbb_serve_durability_refused_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    for builder in [
        ServiceBuilder::new().shards(2).durability(&root),
        ServiceBuilder::new().durability(&root).shards(2),
    ] {
        for catalog in [false, true] {
            let (builder, partitioner) = (builder.clone(), partitioner.clone());
            let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                if catalog {
                    builder.build_catalog::<2, AdaptiveGrid<2>>(tree(), clip());
                } else {
                    builder.build(partitioner, Vec::new(), tree(), clip());
                }
            }));
            let payload = started.expect_err("a two-shard durable service must not start");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("shards(") && message.contains("durability("),
                "the panic names both setters: {message:?}"
            );
            assert!(!root.exists(), "the refused build created {root:?}");
        }
    }
}
