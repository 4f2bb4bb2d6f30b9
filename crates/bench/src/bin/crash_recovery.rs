//! The crash-recovery gauntlet: a child process runs a durable service
//! over a scripted write stream and is **SIGKILLed** — no drop glue, no
//! flush, exactly the failure the WAL exists for — at several seeded
//! offsets into the acknowledgement stream. After each kill the parent
//! recovers the directory in-process and asserts:
//!
//! * every batch the child acknowledged before the kill survived
//!   (durability: commit-before-fulfil means an ack is a promise), and
//! * the recovered state equals a reference replay of exactly the
//!   surviving prefix on a never-crashed service — ranges as sorted
//!   sets, kNN byte-equal, live counts and versions exact, and the same
//!   per-tile occupancy: the dataset is partitioned by a grid fitted to
//!   its boxes, so recovery must restore those cut arrays from the
//!   snapshot, not fall back to the equal-cut grid it is handed, and
//! * the recovered arena and free-list sizes equal the reference's. The
//!   stream opens with delete-only batches that push the dead fraction
//!   past the compaction threshold, so a sweep fires before the third
//!   kill offset; with a small checkpoint size, later snapshots carry a
//!   non-empty free list and replay puts inserts into reclaimed slots.
//!
//! The child is this same binary re-executed with `CBB_CRASH_CHILD=1`;
//! it reports progress by atomically renaming a one-line counter file
//! after each ack. Runs as a CI job under `timeout`; `CBB_BENCH_SMOKE=1`
//! shrinks the dataset, not the kill schedule.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin crash_recovery
//! ```

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cbb_bench::smoke_mode;
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::AdaptiveGrid;
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, Response, ServiceBuilder, ShardedService, Update};

/// Ack counts at which the child is killed. Deliberately uneven: early
/// (snapshot barely cold, before the sweep), just after the delete-heavy
/// prefix, and deep into the stream, where recovery starts from a
/// checkpoint snapshot and replays its WAL tail.
const KILL_OFFSETS: [usize; 5] = [3, 11, 26, 57, 120];

/// More batches than the deepest kill offset — the child never finishes
/// the stream on its own.
const CHILD_BATCHES: usize = 200;

/// Leading batches that only delete, each 2 % of the base objects: the
/// dead fraction passes the 30 % compaction threshold after batch 16,
/// before the third kill offset, in smoke mode and at full size.
const DELETE_HEAVY_BATCHES: usize = 20;

/// WAL size that triggers a checkpoint in the child: small, so snapshots
/// are also taken after the sweep and recovery restores a non-empty
/// free list.
const CHECKPOINT_BYTES: u64 = 2 << 10;

fn objects() -> (Vec<Rect<2>>, Rect<2>) {
    let n = if smoke_mode() { 800 } else { 6_000 };
    let data = clustered_with_layout::<2>(n, 5, 30_000.0, 0.15, 13, 13);
    (data.boxes, data.domain)
}

/// The grid the dataset is created with: 4 × 4 with cuts at the
/// quantiles of its own boxes.
fn fitted_grid(boxes: &[Rect<2>], domain: Rect<2>) -> AdaptiveGrid<2> {
    AdaptiveGrid::from_sample(domain, [4, 4], boxes)
}

fn scripted_batches(base: usize) -> Vec<Vec<Update<2>>> {
    let mut rng = SplitMix64::new(0xC4A5);
    let per_batch = base / 50;
    (0..CHILD_BATCHES)
        .map(|b| {
            if b < DELETE_HEAVY_BATCHES {
                return (b * per_batch..(b + 1) * per_batch)
                    .map(|i| Update::Delete(DataId(i as u32)))
                    .collect();
            }
            let mut ops = Vec::new();
            for _ in 0..8 {
                let x = rng.gen_range(0.0, 900_000.0);
                let y = rng.gen_range(0.0, 900_000.0);
                let s = rng.gen_range(500.0, 20_000.0);
                ops.push(Update::Insert(Rect::new(
                    Point([x, y]),
                    Point([x + s, y + s]),
                )));
            }
            ops.push(Update::Delete(DataId(((b * 17) % base) as u32)));
            ops
        })
        .collect()
}

fn start(
    root: &Path,
    objects: Vec<Rect<2>>,
    partitioner: AdaptiveGrid<2>,
) -> ShardedService<2, AdaptiveGrid<2>> {
    ServiceBuilder::new()
        .durability(root)
        .checkpoint_bytes(CHECKPOINT_BYTES)
        .build(
            partitioner,
            objects,
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        )
}

fn start_reference(
    objects: Vec<Rect<2>>,
    partitioner: AdaptiveGrid<2>,
) -> ShardedService<2, AdaptiveGrid<2>> {
    ServiceBuilder::new().build(
        partitioner,
        objects,
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    )
}

/// Child mode: apply the scripted stream one acked batch at a time,
/// bumping the progress file after each ack, until killed.
fn run_child(root: &Path, progress: &Path) -> ! {
    let (boxes, domain) = objects();
    let batches = scripted_batches(boxes.len());
    let grid = fitted_grid(&boxes, domain);
    let service = start(root, boxes, grid);
    let dataset = service.default_dataset();
    for (i, ops) in batches.iter().enumerate() {
        service
            .submit(Request::UpdateBatch {
                dataset,
                updates: ops.clone(),
            })
            .expect("child service is open")
            .wait()
            .expect("child write served");
        // Atomic progress bump: the parent must never read a torn count.
        let tmp = progress.with_extension("tmp");
        std::fs::write(&tmp, format!("{}", i + 1)).expect("write progress");
        std::fs::rename(&tmp, progress).expect("publish progress");
    }
    // Only reachable if the parent failed to kill in time.
    std::process::exit(3);
}

fn read_progress(progress: &Path) -> usize {
    std::fs::read_to_string(progress)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Range answers as sorted sets + kNN verbatim.
fn answers(
    service: &ShardedService<2, AdaptiveGrid<2>>,
    dataset: cbb_serve::DatasetId,
) -> Vec<Response> {
    let mut rng = SplitMix64::new(777);
    let mut out = Vec::new();
    for _ in 0..15 {
        let x = rng.gen_range(0.0, 900_000.0);
        let y = rng.gen_range(0.0, 900_000.0);
        let s = rng.gen_range(5_000.0, 90_000.0);
        let response = service
            .submit(Request::Range {
                dataset,
                query: Rect::new(Point([x, y]), Point([x + s, y + s])),
                use_clips: true,
            })
            .expect("open")
            .wait()
            .expect("served")
            .response;
        let mut ids = match response {
            Response::Range(ids) => ids,
            other => panic!("expected range, got {other:?}"),
        };
        ids.sort_unstable();
        out.push(Response::Range(ids));
        let center = Point([rng.gen_range(0.0, 900_000.0), rng.gen_range(0.0, 900_000.0)]);
        out.push(
            service
                .submit(Request::Knn {
                    dataset,
                    center,
                    k: 4,
                })
                .expect("open")
                .wait()
                .expect("served")
                .response,
        );
    }
    out
}

fn gauntlet_root(offset: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cbb_crash_recovery_{offset}_{}",
        std::process::id()
    ))
}

fn main() {
    if std::env::var("CBB_CRASH_CHILD").is_ok() {
        let root = PathBuf::from(std::env::var("CBB_CRASH_ROOT").expect("CBB_CRASH_ROOT"));
        let progress =
            PathBuf::from(std::env::var("CBB_CRASH_PROGRESS").expect("CBB_CRASH_PROGRESS"));
        run_child(&root, &progress);
    }

    let exe = std::env::current_exe().expect("own path");
    let (boxes, domain) = objects();
    let batches = scripted_batches(boxes.len());
    let partitioner = fitted_grid(&boxes, domain);
    // Handed to the recovering service, which must ignore it: a
    // recovered dataset keeps the partitioner its snapshot recorded.
    let equal_cuts = AdaptiveGrid::from_sample(domain, [4, 4], &[]);

    // The version a fresh default dataset starts at — replayed batch
    // count is recovered_version - base_version.
    let base_version = {
        let probe = start_reference(boxes.clone(), partitioner.clone());
        let v = probe
            .dataset_version(probe.default_dataset())
            .expect("default dataset exists")
            .0;
        probe.shutdown();
        v
    };

    println!(
        "gauntlet: {} objects, SIGKILL at ack offsets {KILL_OFFSETS:?}",
        boxes.len()
    );
    for offset in KILL_OFFSETS {
        let root = gauntlet_root(offset);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("gauntlet dir");
        let progress = root.with_extension("progress");
        let _ = std::fs::remove_file(&progress);

        let mut child = std::process::Command::new(&exe)
            .env("CBB_CRASH_CHILD", "1")
            .env("CBB_CRASH_ROOT", &root)
            .env("CBB_CRASH_PROGRESS", &progress)
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn child");

        // Wait for the child to ack `offset` batches, then SIGKILL it
        // mid-flight — the next batch may be anywhere in its lifecycle.
        let deadline = Instant::now() + Duration::from_secs(120);
        while read_progress(&progress) < offset {
            if let Some(status) = child.try_wait().expect("child status") {
                panic!("child exited early ({status}) before ack {offset}");
            }
            assert!(
                Instant::now() < deadline,
                "child too slow to reach ack {offset}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let acked = read_progress(&progress);
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");

        // Recover the kill site.
        let started = Instant::now();
        let recovered = start(&root, Vec::new(), equal_cuts.clone());
        let recover_ms = started.elapsed().as_secs_f64() * 1e3;
        let dataset = recovered.default_dataset();
        let recovered_version = recovered
            .dataset_version(dataset)
            .expect("default dataset recovered")
            .0;
        let survived = usize::try_from(recovered_version - base_version).unwrap();
        assert!(
            survived >= acked,
            "offset {offset}: only {survived} batches survived but {acked} were acked"
        );
        assert!(
            survived <= batches.len(),
            "offset {offset}: impossible replay count {survived}"
        );

        // Reference: the surviving prefix on a never-crashed service.
        let reference = start_reference(boxes.clone(), partitioner.clone());
        let ref_dataset = reference.default_dataset();
        for ops in &batches[..survived] {
            reference
                .submit(Request::UpdateBatch {
                    dataset: ref_dataset,
                    updates: ops.clone(),
                })
                .expect("open")
                .wait()
                .expect("served");
        }
        assert_eq!(
            recovered.dataset_live_count(dataset),
            reference.dataset_live_count(ref_dataset),
            "offset {offset}: live counts"
        );
        let (recovered_report, reference_report) = (recovered.report(), reference.report());
        let (got, want) = (&recovered_report.datasets[0], &reference_report.datasets[0]);
        // Slot reuse depends on the restored free list: a recovery that
        // lost it would append where the reference reuses.
        assert_eq!(
            (got.arena_slots, got.free_slots),
            (want.arena_slots, want.free_slots),
            "offset {offset}: arena and free-list sizes"
        );
        assert_eq!(
            answers(&recovered, dataset),
            answers(&reference, ref_dataset),
            "offset {offset}: answers"
        );
        // Tile occupancy depends on the cut arrays, so it pins the
        // restored partitioner to the fitted one.
        assert_eq!(
            (got.load_imbalance, &got.occupancy),
            (want.load_imbalance, &want.occupancy),
            "offset {offset}: tile occupancy (restored partitioner)"
        );
        if survived >= DELETE_HEAVY_BATCHES {
            assert!(
                want.compactions >= 1,
                "offset {offset}: the delete-heavy prefix must have swept"
            );
        }
        let report = recovered.shutdown();
        reference.shutdown();
        println!(
            "  kill@{offset:>3}: acked {acked:>3}, survived {survived:>3}, \
             replayed {:>3} WAL records, {} snapshot pages, {} free slots, \
             recovered in {recover_ms:.0} ms — recovered state equals reference prefix",
            report.recovered_records, report.recovered_pages, got.free_slots,
        );

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_file(&progress);
    }
    println!("gauntlet passed: {} kill points", KILL_OFFSETS.len());
}
