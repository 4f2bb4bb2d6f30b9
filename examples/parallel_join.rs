//! Parallel partitioned join demo: the `cbb-engine` subsystem fans a
//! spatial join out over a grid and a worker pool, sweeping every tile
//! with the forward-scan plane sweep. Pair counts are bit-identical to
//! the sequential (one global sweep) join whatever the partitioner; on
//! skewed data the partitioner decides the load balance. The clipped
//! trees show up in the batched range queries at the end, answered by a
//! `DatasetStore`'s per-tile descents, which prune with clip points.
//!
//! ```text
//! cargo run --release --example parallel_join
//! ```

use std::time::Instant;

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::datasets::{self, Scale};
use clipped_bbox::engine::{load_imbalance, sequential_join};
use clipped_bbox::prelude::*;

fn main() {
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    // 1. Uniform-ish inputs on an 8 × 8 equal-cut grid (an empty sample),
    //    across worker counts.
    let streets = datasets::dataset2("rea02", Scale::Exact(60_000));
    let parcels = datasets::dataset2("par02", Scale::Exact(60_000));
    println!(
        "join inputs: {} street boxes ⋈ {} parcel boxes",
        streets.len(),
        parcels.len(),
    );
    let grid = AdaptiveGrid::from_sample(streets.domain.union(&parcels.domain), [8, 8], &[]);

    let t = Instant::now();
    let seq = sequential_join(&streets.boxes, &parcels.boxes);
    let seq_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nsequential sweep        : {:>9} pairs  {:>8.1} ms",
        seq.pairs, seq_ms
    );
    for workers in [1, 2, 4, 8] {
        let plan = JoinPlan::new(grid.clone(), tree, clip, workers);
        let t = Instant::now();
        let par = partitioned_join(&plan, &streets.boxes, &parcels.boxes);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(par.pairs, seq.pairs, "partitioning must not change pairs");
        println!(
            "partitioned 8×8, {workers} thr : {:>9} pairs  {:>8.1} ms  ({:.2}× vs sequential)",
            par.pairs,
            ms,
            seq_ms / ms,
        );
    }

    // 2. Choosing a partitioner for skewed data: both sides cluster at
    //    the same eight Zipf-populated spots. Equal cuts, cuts at sample
    //    quantiles and the quadtree region split find the same pairs
    //    with very different load balance.
    let n = 20_000;
    let left = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 1);
    let right = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 7, 2);
    let domain = left.domain.union(&right.domain);
    println!("\nskewed inputs: 2 × {n} clustered boxes (shared blob layout)");
    let mut sample = left.boxes.clone();
    sample.extend_from_slice(&right.boxes);
    let partitioners: [(&str, AnyPartitioner<2>); 3] = [
        (
            "equal",
            AdaptiveGrid::from_sample(domain, [8, 8], &[]).into(),
        ),
        (
            "adaptive",
            AdaptiveGrid::from_sample(domain, [8, 8], &sample).into(),
        ),
        (
            "quadtree",
            QuadtreePartitioner::build(domain, &sample, 2 * n / 64).into(),
        ),
    ];
    let expected = sequential_join(&left.boxes, &right.boxes).pairs;
    for (name, p) in &partitioners {
        let t = Instant::now();
        let r = partitioned_join(
            &JoinPlan::new(p.clone(), tree, clip, 4),
            &left.boxes,
            &right.boxes,
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.pairs, expected, "{name}: pair count changed");
        println!(
            "{name:<9}: {:>4} tiles, imbalance {:>6.2}, {} pairs, {ms:>7.1} ms",
            p.tile_count(),
            load_imbalance(p, &left.boxes, &right.boxes),
            r.pairs,
        );
    }

    // 3. Batched range queries against the streets' tile forest: one
    //    clipped tree per tile, built once and reused by every batch —
    //    the store the service answers reads from.
    let store = DatasetStore::build(grid, &streets.boxes, tree, clip, 4);
    let mut counter = |q: &Rect<2>| store.run(&[*q], 1, true).results[0].len();
    let queries = datasets::generate_queries(
        &streets,
        datasets::QueryProfile::QR1,
        4_000,
        7,
        &mut counter,
    );
    println!(
        "\nbatched range queries ({} queries, {} tile trees):",
        queries.len(),
        store.tile_tree_count()
    );
    let t = Instant::now();
    let base = store.run(&queries, 1, true);
    let base_ms = t.elapsed().as_secs_f64() * 1e3;
    for workers in [2, 4, 8] {
        let t = Instant::now();
        let out = store.run(&queries, workers, true);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.results, base.results);
        println!(
            "  {workers} workers: {:>8.1} ms ({:.2}× vs 1 worker), {} results, {} leaf accesses",
            ms,
            base_ms / ms,
            out.total_results(),
            out.stats.leaf_accesses,
        );
    }
    let unclipped = store.run(&queries, 4, false);
    assert_eq!(unclipped.results, base.results);
    println!(
        "  clip points: {} leaf accesses vs {} unclipped",
        base.stats.leaf_accesses, unclipped.stats.leaf_accesses,
    );
}
