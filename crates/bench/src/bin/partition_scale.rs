//! Engine scaling experiment: sequential vs partitioned-parallel join and
//! batched range queries on a ≥ 50 k-object workload, across worker
//! counts. Emits `BENCH_engine.json` (machine-readable) next to the
//! usual table output.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin partition_scale [--exact N] [--queries N] [--seed N]
//! ```
//!
//! `CBB_BENCH_SMOKE=1` shrinks the default workload to CI-smoke scale
//! (explicit flags still override).

use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::{dataset2, generate_queries, QueryProfile, Scale};
use cbb_engine::pool::fold_dynamic_tasks;
use cbb_engine::{
    parallel_range_queries, partitioned_join, partitioned_join_with, sequential_join, JoinPlan,
    TileForest, UniformGrid,
};
use cbb_joins::{inlj_filtered, reference_point, stt_filtered, JoinResult};
use cbb_rtree::{ClippedRTree, RTree, TreeConfig, Variant};

const GRID_PER_DIM: usize = 8;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // Defaults sized for the acceptance bar (≥ 50 k objects per side);
    // smoke mode shrinks them, `--exact` / `--queries` / `--seed`
    // override either way.
    let (mut n, mut n_queries) = if smoke_mode() {
        (8_000usize, 500usize)
    } else {
        (60_000usize, 4_000usize)
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
            "--queries" => n_queries = next_usize("--queries"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }

    let streets = dataset2("rea02", Scale::Exact(n));
    let parcels = dataset2("par02", Scale::Exact(n));
    let domain = streets.domain.union(&parcels.domain);
    println!(
        "workload: rea02 ({}) ⋈ par02 ({}), grid {GRID_PER_DIM}×{GRID_PER_DIM}, R*-tree + CSTA",
        streets.len(),
        parcels.len(),
    );

    let base_plan = JoinPlan::new(
        UniformGrid::new(domain, GRID_PER_DIM),
        TreeConfig::paper_default(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        1,
    );

    // ---- partitioned parallel join vs sequential -------------------
    let t = Instant::now();
    let seq = sequential_join(&streets.boxes, &parcels.boxes);
    let seq_join_ms = t.elapsed().as_secs_f64() * 1e3;

    header(
        "partitioned parallel swept join (sort + sweep per run)",
        "configuration",
        &["pairs", "wall ms", "speedup"],
    );
    println!(
        "{}",
        row(
            "sequential",
            &[
                seq.pairs.to_string(),
                format!("{seq_join_ms:.1}"),
                "1.00x".into(),
            ],
        )
    );
    let mut join_rows = Vec::new();
    for workers in WORKER_COUNTS {
        let plan = JoinPlan {
            workers,
            ..base_plan
        };
        let t = Instant::now();
        let par = partitioned_join(&plan, &streets.boxes, &parcels.boxes);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(par.pairs, seq.pairs, "partitioning changed the pair count");
        println!(
            "{}",
            row(
                &format!("partitioned, {workers} thr"),
                &[
                    par.pairs.to_string(),
                    format!("{ms:.1}"),
                    format!("{:.2}x", seq_join_ms / ms),
                ],
            )
        );
        join_rows.push(format!(
            "{{\"workers\": {workers}, \"wall_ms\": {ms:.3}, \"pairs\": {}, \"leaf_accesses\": {}, \"clip_prunes\": {}}}",
            par.pairs,
            par.leaf_accesses(),
            par.clip_prunes,
        ));
    }

    // ---- join algorithm head-to-head (cached right forest) ---------
    // The serving-layer shape: the indexed side's forest is cached,
    // the probe side arrives per call. Work counters are machine-
    // independent — the currency of the sweep-vs-INLJ comparison.
    // `sweep` and `auto` are the engine's join (every tile swept); the
    // paper's index kernels run per tile over the same cached forest
    // with the same reference-point owner filter, so all four rows
    // compare like with like: STT joins each tile's probe tree (bulk-
    // loaded per call) against the cached tree, INLJ probes the cached
    // tree with the tile's probe rectangles.
    const ALGO_WORKERS: usize = 4;
    let algo_plan = JoinPlan {
        workers: ALGO_WORKERS,
        ..base_plan
    };
    let forest = TileForest::build(
        &algo_plan.partitioner,
        &parcels.boxes,
        algo_plan.tree,
        algo_plan.clip,
        ALGO_WORKERS,
    );
    let grid = &algo_plan.partitioner;
    // Tiles where both sides are populated, as the engine schedules them.
    let probe_tiles = grid.assign(&streets.boxes);
    let tiles: Vec<usize> = (0..grid.tile_count())
        .filter(|&t| !probe_tiles[t].is_empty() && forest.tree(t).is_some())
        .collect();
    let per_tile = |kernel: &(dyn Fn(usize) -> JoinResult + Sync)| -> JoinResult {
        fold_dynamic_tasks(ALGO_WORKERS, &tiles, JoinResult::default, |&t, acc| {
            *acc += kernel(t)
        })
        .into_iter()
        .sum()
    };
    header(
        &format!("join algorithms, {ALGO_WORKERS} thr (right forest cached)"),
        "algorithm",
        &[
            "pairs",
            "overlap tests",
            "leaf I/O",
            "tiles s/i/w",
            "wall ms",
        ],
    );
    let mut algo_rows = Vec::new();
    for name in ["stt", "inlj", "sweep", "auto"] {
        let t = Instant::now();
        let res = match name {
            "stt" => {
                let probe_forest = TileForest::build(
                    grid,
                    &streets.boxes,
                    algo_plan.tree,
                    algo_plan.clip,
                    ALGO_WORKERS,
                );
                per_tile(&|t| {
                    let mut r = stt_filtered(
                        probe_forest.tree(t).expect("populated probe tile"),
                        forest.tree(t).expect("populated tile"),
                        true,
                        |a, b| grid.owns(t, &reference_point(a, b)),
                    );
                    r.tiles_stt = 1;
                    r
                })
            }
            "inlj" => per_tile(&|t| {
                let probes: Vec<_> = probe_tiles[t]
                    .iter()
                    .map(|&i| streets.boxes[i as usize])
                    .collect();
                let tree = forest.tree(t).expect("populated tile");
                let mut r = inlj_filtered(&probes, tree, true, |probe, id| {
                    grid.owns(t, &reference_point(probe, &parcels.boxes[id.0 as usize]))
                });
                r.tiles_inlj = 1;
                r
            }),
            _ => partitioned_join_with(&algo_plan, &streets.boxes, &parcels.boxes, &forest),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(res.pairs, seq.pairs, "{name} changed the pair count");
        println!(
            "{}",
            row(
                name,
                &[
                    res.pairs.to_string(),
                    res.overlap_tests.to_string(),
                    res.leaf_accesses().to_string(),
                    format!("{}/{}/{}", res.tiles_stt, res.tiles_inlj, res.tiles_sweep),
                    format!("{ms:.1}"),
                ],
            )
        );
        algo_rows.push(format!(
            "{{\"algo\": \"{name}\", \"wall_ms\": {ms:.3}, \"pairs\": {}, \"overlap_tests\": {}, \"leaf_accesses\": {}, \"internal_accesses\": {}, \"clip_prunes\": {}, \"tiles_stt\": {}, \"tiles_inlj\": {}, \"tiles_sweep\": {}}}",
            res.pairs,
            res.overlap_tests,
            res.leaf_accesses(),
            res.internal_accesses,
            res.clip_prunes,
            res.tiles_stt,
            res.tiles_inlj,
            res.tiles_sweep,
        ));
    }

    // ---- batched range queries over one shared tree ----------------
    let items = streets.items();
    let tree = ClippedRTree::from_tree(
        RTree::bulk_load(
            TreeConfig::paper_default(Variant::RStar).with_world(streets.domain),
            &items,
        ),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    );
    let mut counter = |q: &cbb_geom::Rect<2>| tree.tree.range_query(q).len();
    let queries = generate_queries(&streets, QueryProfile::QR1, n_queries, seed, &mut counter);

    let t = Instant::now();
    let base = parallel_range_queries(&tree, &queries, 1, true);
    let seq_batch_ms = t.elapsed().as_secs_f64() * 1e3;

    header(
        &format!("batched clipped range queries ({} queries)", queries.len()),
        "configuration",
        &["results", "leaf I/O", "wall ms", "speedup"],
    );
    println!(
        "{}",
        row(
            "sequential",
            &[
                base.total_results().to_string(),
                base.stats.leaf_accesses.to_string(),
                format!("{seq_batch_ms:.1}"),
                "1.00x".into(),
            ],
        )
    );
    let mut batch_rows = Vec::new();
    for workers in WORKER_COUNTS {
        let t = Instant::now();
        let out = parallel_range_queries(&tree, &queries, workers, true);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.results, base.results, "sharding changed the answers");
        println!(
            "{}",
            row(
                &format!("batched, {workers} thr"),
                &[
                    out.total_results().to_string(),
                    out.stats.leaf_accesses.to_string(),
                    format!("{ms:.1}"),
                    format!("{:.2}x", seq_batch_ms / ms),
                ],
            )
        );
        batch_rows.push(format!(
            "{{\"workers\": {workers}, \"wall_ms\": {ms:.3}, \"results\": {}, \"leaf_accesses\": {}}}",
            out.total_results(),
            out.stats.leaf_accesses,
        ));
    }

    // ---- machine-readable report -----------------------------------
    let json = format!(
        "{{\n  \"workload\": {{\"left\": \"rea02\", \"right\": \"par02\", \"objects_per_side\": {n}, \"grid\": [{GRID_PER_DIM}, {GRID_PER_DIM}], \"variant\": \"R*-tree\", \"clip\": \"CSTA\", \"queries\": {}}},\n  \"join\": {{\n    \"sequential\": {{\"wall_ms\": {seq_join_ms:.3}, \"pairs\": {}}},\n    \"parallel\": [\n      {}\n    ]\n  }},\n  \"algos\": [\n    {}\n  ],\n  \"batch\": {{\n    \"sequential\": {{\"wall_ms\": {seq_batch_ms:.3}, \"results\": {}, \"leaf_accesses\": {}}},\n    \"parallel\": [\n      {}\n    ]\n  }}\n}}\n",
        queries.len(),
        seq.pairs,
        join_rows.join(",\n      "),
        algo_rows.join(",\n    "),
        base.total_results(),
        base.stats.leaf_accesses,
        batch_rows.join(",\n      "),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");
}
