//! Update experiment: the cost of keeping the tile-tree store fresh
//! under a churning write stream — delta-apply (per-tile incremental
//! maintenance in place) vs rebuilding the forest
//! per batch. Emits `BENCH_update.json`.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin update_scale \
//!     [--exact N] [--batches N] [--ops N] [--seed N]
//! ```
//!
//! The headline column is **nodes allocated**: R-tree node
//! constructions performed to absorb the whole write stream. It is
//! machine-independent (the 1-core-container caveat of the wall-clock
//! columns does not apply), and the bin *asserts* delta-apply allocates
//! fewer nodes than rebuild-per-batch while serving byte-identical
//! answers. A third row drives the same stream through the `cbb-serve`
//! write path (`UpdateBatch` requests) to show the service counters
//! agree with the engine-level run. `CBB_BENCH_SMOKE=1` shrinks the
//! workload to CI scale (explicit flags still override).

use std::sync::Arc;
use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_datasets::stream::{query_stream, StreamKind, StreamProfile};
use cbb_engine::{AdaptiveGrid, CompactionPolicy, DatasetStore, TileForest, Update};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, ServiceBuilder, ServiceConfig};

fn verification_queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0, 950_000.0);
            let y = rng.gen_range(0.0, 950_000.0);
            let s = rng.gen_range(5_000.0, 60_000.0);
            Rect::new(Point([x, y]), Point([x + s, y + s]))
        })
        .collect()
}

fn sorted(mut v: Vec<DataId>) -> Vec<DataId> {
    v.sort();
    v
}

fn main() {
    let (mut n, mut batches, mut ops_per_batch) = if smoke_mode() {
        (4_000usize, 8usize, 150usize)
    } else {
        (20_000usize, 40usize, 400usize)
    };
    let mut seed = 0xCBBu64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a numeric argument"))
        };
        match a.as_str() {
            "--exact" => n = next_usize("--exact"),
            "--batches" => batches = next_usize("--batches"),
            "--ops" => ops_per_batch = next_usize("--ops"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }
    let workers = 2usize;

    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    // One write script for every mode: a churn stream (60 % inserts /
    // 40 % deletes of distinct base objects), cut into batches.
    let profile = StreamProfile {
        write_fraction: 1.0,
        delete_share: 0.4,
        ..StreamProfile::default()
    };
    let script: Vec<Update<2>> = query_stream(&data, batches * ops_per_batch, &profile, seed)
        .into_iter()
        .map(|q| match q.kind {
            StreamKind::Insert(rect) => Update::Insert(rect),
            StreamKind::Delete(i) => Update::Delete(DataId(i)),
            other => unreachable!("all-write profile produced {other:?}"),
        })
        .collect();
    let queries = verification_queries(60, seed ^ 0x51);
    println!(
        "workload: clu02 ({n} boxes), {batches} batches × {ops_per_batch} updates \
         (60% insert / 40% delete), adaptive 6×6 grid, R*-tree + CSTA",
    );

    // ── Delta-apply: one build, then per-tile incremental maintenance.
    // Compaction is disabled on every mode: the rebuild oracle below
    // mirrors the arena append-only, and the pre/post-catalog node
    // numbers stay directly comparable (slot reuse would not change
    // them, but determinism beats trusting that).
    let started = Instant::now();
    let mut store = DatasetStore::build(partitioner.clone(), &data.boxes, tree, clip, workers);
    store.set_compaction(CompactionPolicy::never());
    let initial_build_nodes = store.forest().nodes_allocated();
    let mut delta_nodes = 0u64;
    let mut delta_tiles = 0usize;
    for ops in script.chunks(ops_per_batch) {
        let outcome = store.apply_updates(ops, tree, clip);
        delta_nodes += outcome.nodes_allocated;
        delta_tiles += outcome.tiles_touched;
    }
    let delta_wall = started.elapsed().as_secs_f64() * 1e3;
    let delta_answers = store.run(&queries, workers, true);

    // ── Rebuild-per-batch: the same script absorbed by building a
    // fresh forest after every batch (the `swap_dataset` discipline).
    let started = Instant::now();
    let mut arena = data.boxes.clone();
    let mut live = vec![true; arena.len()];
    let mut rebuild_nodes = 0u64;
    let mut last_forest = None;
    for ops in script.chunks(ops_per_batch) {
        for op in ops {
            match op {
                Update::Insert(r) => {
                    arena.push(*r);
                    live.push(true);
                }
                Update::Delete(id) => live[id.0 as usize] = false,
            }
        }
        let forest =
            TileForest::build_where(&partitioner, &arena, Some(&live), tree, clip, workers);
        rebuild_nodes += forest.nodes_allocated();
        last_forest = Some(forest);
    }
    let rebuild_wall = started.elapsed().as_secs_f64() * 1e3;
    let rebuilt = DatasetStore::with_forest_where(
        partitioner.clone(),
        arena.clone(),
        live.clone(),
        Arc::new(last_forest.expect("at least one batch")),
    );
    let rebuilt_answers = rebuilt.run(&queries, workers, true);

    // Counter-exactness: the maintained store answers exactly like the
    // rebuilt one (ids are shared — both use the same arena slots).
    assert_eq!(store.objects(), &arena[..], "arenas diverged");
    assert_eq!(store.live(), &live[..], "liveness diverged");
    for (i, (d, r)) in delta_answers
        .results
        .iter()
        .zip(&rebuilt_answers.results)
        .enumerate()
    {
        assert_eq!(
            sorted(d.clone()),
            sorted(r.clone()),
            "delta and rebuild disagree on query {i}"
        );
    }

    // ── The serve write path: the same batches as `UpdateBatch`
    // requests through the service queue (one version bump per batch,
    // zero rebuilds).
    let started = Instant::now();
    let service = ServiceBuilder::from_config(ServiceConfig {
        exec_workers: workers,
        compaction: CompactionPolicy::never(),
        ..ServiceConfig::default()
    })
    .build(partitioner.clone(), data.boxes.clone(), tree, clip);
    let dataset = service.default_dataset();
    for ops in script.chunks(ops_per_batch) {
        let summary = service
            .submit(Request::UpdateBatch {
                dataset,
                updates: ops.to_vec(),
            })
            .expect("service is open")
            .wait()
            .expect("update batch served")
            .response
            .into_updated();
        assert_eq!(summary.results.len(), ops.len());
    }
    let serve_wall = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        service.dataset_live_count(dataset),
        Some(store.live_count())
    );
    assert_eq!(service.dataset_version(dataset).unwrap().0, batches as u64);
    // Service path ≡ the store maintained directly: the served answers
    // must be identical.
    for (i, q) in queries.iter().enumerate() {
        let served = service
            .submit(Request::Range {
                dataset,
                query: *q,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .expect("query served")
            .response
            .into_range();
        assert_eq!(
            sorted(served),
            sorted(delta_answers.results[i].clone()),
            "served answer diverged from the directly maintained store on query {i}"
        );
    }
    let report = service.shutdown();
    assert_eq!(report.forest_builds, 1, "the write path must not rebuild");
    assert_eq!(report.write_batches, batches as u64);
    assert_eq!(report.delta_nodes_allocated, delta_nodes);
    let ds_row = report
        .dataset(dataset)
        .expect("default dataset is in the report");
    assert_eq!(ds_row.write_batches, batches as u64);
    assert_eq!(ds_row.delta_nodes_allocated, delta_nodes);

    // The point of the exercise, enforced: delta maintenance builds
    // measurably less structure than rebuild-per-batch.
    assert!(
        delta_nodes < rebuild_nodes,
        "delta-apply ({delta_nodes} nodes) must beat rebuild-per-batch ({rebuild_nodes})"
    );

    header(
        "update maintenance scan",
        "mode",
        &["batches", "nodes alloc", "tiles", "wall ms"],
    );
    let rows = [
        (
            "delta",
            delta_nodes,
            delta_tiles.to_string(),
            delta_wall,
            initial_build_nodes,
        ),
        (
            "rebuild",
            rebuild_nodes,
            "-".to_string(),
            rebuild_wall,
            initial_build_nodes,
        ),
        (
            "serve_delta",
            report.delta_nodes_allocated,
            "-".to_string(),
            serve_wall,
            initial_build_nodes,
        ),
    ];
    let mut json_rows = Vec::new();
    for (mode, nodes, tiles, wall, initial) in rows {
        println!(
            "{}",
            row(
                mode,
                &[
                    batches.to_string(),
                    nodes.to_string(),
                    tiles.clone(),
                    format!("{wall:.1}"),
                ],
            )
        );
        json_rows.push(format!(
            "{{\"mode\": \"{mode}\", \"batches\": {batches}, \"ops_per_batch\": {ops_per_batch}, \
             \"nodes_allocated\": {nodes}, \"initial_build_nodes\": {initial}, \
             \"wall_ms\": {wall:.2}, \"final_live\": {}}}",
            store.live_count(),
        ));
    }
    println!(
        "\ndelta-apply absorbed the stream with {:.1}x fewer node allocations than \
         rebuild-per-batch",
        rebuild_nodes as f64 / delta_nodes.max(1) as f64
    );

    let json = format!(
        "{{\n  \"workload\": {{\"dataset\": \"clu02\", \"objects\": {n}, \
         \"batches\": {batches}, \"ops_per_batch\": {ops_per_batch}, \
         \"insert_share\": 0.6, \"delete_share\": 0.4, \"grid\": [6, 6], \
         \"variant\": \"R*-tree\", \"clip\": \"CSTA\"}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        json_rows.join(",\n    "),
    );
    std::fs::write("BENCH_update.json", &json).expect("write BENCH_update.json");
    println!("wrote BENCH_update.json ({} modes)", json_rows.len());
}
