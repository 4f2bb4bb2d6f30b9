//! Choosing a partitioner for skewed data: a clustered join runs under
//! the uniform grid, the sample-based adaptive grid, and the quadtree
//! region split, every tile swept by the plane-sweep kernel — same
//! exact pair count, very different load balance.
//!
//! ```text
//! cargo run --release --example skewed_join
//! ```

use std::time::Instant;

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::engine::{load_imbalance, AdaptiveGrid, Partitioner, QuadtreePartitioner};
use clipped_bbox::prelude::*;

fn main() {
    // Both sides cluster at the same eight Zipf-populated spots.
    let n = 20_000;
    let left = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 1);
    let right = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 2);
    let domain = left.domain.union(&right.domain);
    println!("join inputs: 2 × {n} clustered boxes (shared blob layout)");

    let mut sample = left.boxes.clone();
    sample.extend_from_slice(&right.boxes);
    let uniform = UniformGrid::new(domain, 8);
    let adaptive = AdaptiveGrid::from_sample(domain, [8, 8], &sample);
    let quadtree = QuadtreePartitioner::build(domain, &sample, 2 * n / 64);

    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let workers = 4;

    let mut expected = None;
    let mut report = |name: &str, imbalance: f64, tiles: usize, result: JoinResult, ms: f64| {
        println!(
            "{name:<9}: {tiles:>4} tiles, imbalance {imbalance:>6.2}, {} pairs, {ms:>7.1} ms",
            result.pairs,
        );
        match expected {
            None => expected = Some(result.pairs),
            Some(e) => assert_eq!(result.pairs, e, "{name}: pair count changed"),
        }
    };

    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(uniform, tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    report(
        "uniform",
        load_imbalance(&uniform, &left.boxes, &right.boxes),
        uniform.tile_count(),
        r,
        t.elapsed().as_secs_f64() * 1e3,
    );

    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(adaptive.clone(), tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    report(
        "adaptive",
        load_imbalance(&adaptive, &left.boxes, &right.boxes),
        adaptive.tile_count(),
        r,
        t.elapsed().as_secs_f64() * 1e3,
    );

    let t = Instant::now();
    let r = partitioned_join(
        &JoinPlan::new(quadtree.clone(), tree, clip, workers),
        &left.boxes,
        &right.boxes,
    );
    report(
        "quadtree",
        load_imbalance(&quadtree, &left.boxes, &right.boxes),
        quadtree.tile_count(),
        r,
        t.elapsed().as_secs_f64() * 1e3,
    );

    // A dataset store reuses its per-tile trees across query batches —
    // build once, serve many.
    let store = DatasetStore::build(adaptive, &left.boxes, tree, clip, workers);
    let queries: Vec<Rect<2>> = right.boxes.iter().take(2_000).copied().collect();
    let t = Instant::now();
    let first = store.run(&queries, workers, true);
    let first_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let second = store.run(&queries, workers, true);
    let second_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(first.results, second.results);
    println!(
        "\ndataset store ({} tile trees reused): {} results, {first_ms:.1} ms then {second_ms:.1} ms",
        store.tile_tree_count(),
        first.total_results(),
    );
}
