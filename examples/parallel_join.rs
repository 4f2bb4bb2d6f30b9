//! Parallel partitioned join demo: the `cbb-engine` subsystem fans a
//! spatial join out over a uniform grid and a worker pool, sweeping
//! every tile with the forward-scan plane sweep. Pair counts are
//! bit-identical to the sequential (one global sweep) join; the
//! clipped trees show up in the batched range queries below, answered
//! by a `DatasetStore`'s per-tile descents, which prune with clip
//! points.
//!
//! ```text
//! cargo run --release --example parallel_join
//! ```

use std::time::Instant;

use clipped_bbox::datasets::{self, Scale};
use clipped_bbox::engine::sequential_join;
use clipped_bbox::prelude::*;

fn main() {
    let streets = datasets::dataset2("rea02", Scale::Exact(60_000));
    let parcels = datasets::dataset2("par02", Scale::Exact(60_000));
    println!(
        "join inputs: {} street boxes ⋈ {} parcel boxes",
        streets.len(),
        parcels.len(),
    );

    // Any `Partitioner` fits here — see examples/skewed_join.rs for the
    // adaptive and quadtree alternatives on skewed data.
    let grid = UniformGrid::new(streets.domain.union(&parcels.domain), 8);
    let base_plan = JoinPlan::new(
        grid,
        TreeConfig::paper_default(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        1,
    );

    let t = Instant::now();
    let seq = sequential_join(&streets.boxes, &parcels.boxes);
    let seq_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nsequential sweep        : {:>9} pairs  {:>8.1} ms",
        seq.pairs, seq_ms
    );

    for workers in [1, 2, 4, 8] {
        let plan = JoinPlan {
            workers,
            ..base_plan
        };
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

    // Batched range queries against the streets' tile forest: one
    // clipped tree per tile, the store the service answers reads from.
    let store = DatasetStore::build(
        base_plan.partitioner,
        &streets.boxes,
        TreeConfig::paper_default(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        4,
    );
    let mut counter = |q: &Rect<2>| store.run(&[*q], 1, true).results[0].len();
    let queries = datasets::generate_queries(
        &streets,
        datasets::QueryProfile::QR1,
        4_000,
        7,
        &mut counter,
    );
    println!("\nbatched range queries ({} queries):", queries.len());
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
