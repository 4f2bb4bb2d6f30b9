//! Skew experiment: uniform vs adaptive vs quadtree partitioning of a
//! clustered spatial join, every tile swept by the engine's one join
//! kernel. Emits `BENCH_skew.json` with per-partitioner load imbalance
//! (max-tile / mean-tile estimated work), overlap tests and wall-clock.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin skew_scale \
//!     [--exact N] [--grid N] [--budget N] [--workers N] [--seed N]
//! ```
//!
//! `CBB_BENCH_SMOKE=1` shrinks the default workload to CI-smoke scale
//! (explicit flags still override).
//!
//! The run aborts if any configuration disagrees on the pair count, or if
//! the adaptive grid fails to reduce imbalance vs the uniform grid — the
//! acceptance bar this experiment exists to demonstrate.

use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    load_imbalance, partitioned_join, AdaptiveGrid, JoinPlan, Partitioner, QuadtreePartitioner,
    UniformGrid,
};
use cbb_rtree::{TreeConfig, Variant};

fn main() {
    let mut n = if smoke_mode() {
        6_000usize
    } else {
        30_000usize
    };
    let mut grid = 8usize;
    let mut budget = 0usize; // 0 = derive from n and the tile count
    let mut workers = 4usize;
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
            "--grid" => grid = next_usize("--grid"),
            "--budget" => budget = next_usize("--budget"),
            "--workers" => workers = next_usize("--workers"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }
    if budget == 0 {
        // Aim the region split at the same granularity as the grids.
        budget = (2 * n / (grid * grid)).max(64);
    }

    // Zipf-populated blobs at shared locations on both sides: the dense
    // blob pair is the hot tile a uniform grid serialises on.
    let left = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed);
    let right = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed ^ 0xFACE);
    let domain = left.domain.union(&right.domain);
    println!(
        "workload: clu02 ⋈ clu02 ({n} boxes/side, 8 Zipf clusters), \
         grid {grid}×{grid}, quadtree budget {budget}, {workers} workers",
    );

    // A combined sample drives the adaptive boundaries: both sides load
    // the same tiles, so both belong in the quantile estimate.
    let mut sample = left.boxes.clone();
    sample.extend_from_slice(&right.boxes);
    let uniform = UniformGrid::new(domain, grid);
    let adaptive = AdaptiveGrid::from_sample(domain, [grid; 2], &sample);
    let quadtree = QuadtreePartitioner::build(domain, &sample, budget);

    let imb_uniform = load_imbalance(&uniform, &left.boxes, &right.boxes);
    let imb_adaptive = load_imbalance(&adaptive, &left.boxes, &right.boxes);
    let imb_quadtree = load_imbalance(&quadtree, &left.boxes, &right.boxes);

    header(
        "load imbalance (max-tile / mean-tile estimated work)",
        "partitioner",
        &["tiles", "imbalance"],
    );
    for (name, tiles, imb) in [
        ("uniform", uniform.tile_count(), imb_uniform),
        ("adaptive", adaptive.tile_count(), imb_adaptive),
        ("quadtree", quadtree.tile_count(), imb_quadtree),
    ] {
        println!("{}", row(name, &[tiles.to_string(), format!("{imb:.2}")]));
    }
    assert!(
        imb_adaptive < imb_uniform,
        "adaptive imbalance {imb_adaptive:.2} did not improve on uniform {imb_uniform:.2}"
    );

    // The sweep builds no tree, so one plan per partitioner covers every
    // R-tree variant; the plan's tree template is never read.
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let mut runs = Vec::new();
    let mut expected: Option<u64> = None;
    header(
        "partitioned swept join",
        "partitioner",
        &["pairs", "overlap tests", "wall ms"],
    );
    let mut timed = |name: &str, result: cbb_joins::JoinResult, ms: f64| {
        println!(
            "{}",
            row(
                name,
                &[
                    result.pairs.to_string(),
                    result.overlap_tests.to_string(),
                    format!("{ms:.1}")
                ]
            )
        );
        match expected {
            None => expected = Some(result.pairs),
            Some(e) => assert_eq!(
                result.pairs, e,
                "{name}: partitioning changed the pair count"
            ),
        }
        runs.push(format!(
            "{{\"partitioner\": \"{name}\", \"wall_ms\": {ms:.3}, \"pairs\": {}, \
             \"overlap_tests\": {}}}",
            result.pairs, result.overlap_tests,
        ));
    };
    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(uniform, tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    timed("uniform", r, t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(adaptive.clone(), tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    timed("adaptive", r, t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(quadtree.clone(), tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    timed("quadtree", r, t.elapsed().as_secs_f64() * 1e3);

    let json = format!(
        "{{\n  \"workload\": {{\"dataset\": \"clu02\", \"objects_per_side\": {n}, \
         \"clusters\": 8, \"grid\": [{grid}, {grid}], \"quadtree_budget\": {budget}, \
         \"workers\": {workers}, \"clip\": \"CSTA\", \"pairs\": {}}},\n  \
         \"imbalance\": {{\"uniform\": {imb_uniform:.4}, \"adaptive\": {imb_adaptive:.4}, \
         \"quadtree\": {imb_quadtree:.4}}},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        expected.unwrap_or(0),
        runs.join(",\n    "),
    );
    std::fs::write("BENCH_skew.json", &json).expect("write BENCH_skew.json");
    println!(
        "\nimbalance uniform {imb_uniform:.2} → adaptive {imb_adaptive:.2} \
         / quadtree {imb_quadtree:.2}; wrote BENCH_skew.json"
    );
}
