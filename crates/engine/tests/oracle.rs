//! Oracle tests for the partitioned executor.
//!
//! The answer checks are named cases of the seeded model (`model/`):
//! each test pins the axes its name gives (a tiling, a tree variant, an
//! execution shape, wide objects) and leaves the rest to its seed, then
//! checks every range hit, kNN neighbour and join pair — probe joins,
//! cross-tiling and same-tiling cross-joins, self-joins — against the
//! brute-force model, and the drawn execution against the reference,
//! across three rounds of writes. The remaining tests pin properties
//! that are not answer equality: merged join counters, the clip
//! saving inside tiles, and the fitted partitioners' balance.

mod model;

use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    load_imbalance, partitioned_join, AdaptiveGrid, DatasetStore, JoinPlan, QuadtreePartitioner,
    QueryAlgo, SplitPolicy,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::JoinResult;
use cbb_rtree::{TreeConfig, Variant};
use model::{clip, engine_case, r2, Exec, Tiling};

/// An equal-cut grid under every tree variant, at one and three workers.
#[test]
fn partitioned_join_matches_oracles_on_all_variants() {
    for (i, variant) in Variant::ALL.into_iter().enumerate() {
        engine_case(310 + i as u64, |c| {
            c.variant = variant;
            c.tilings = vec![Tiling::Equal; 2];
            c.exec.workers = [1, 3][i % 2];
        });
    }
}

/// Every object spans several tiles, so most hits and pairs are found
/// in more than one tile and must be reported by exactly one, under
/// every tree variant: one dataset on an equal-cut grid, one on a
/// fitted grid, joined across tilings and with itself. (A quadtree
/// over such data splits to its depth cap.)
#[test]
fn tile_spanning_objects_are_counted_exactly_once() {
    for variant in Variant::ALL {
        engine_case(330, |c| {
            c.variant = variant;
            c.wide = true;
            c.size = 60;
            c.tilings = vec![Tiling::Equal, Tiling::Fitted];
            c.share = false;
        });
    }
}

/// One tile holding everything: with clips off a probe join equals
/// `sequential_join` in every counter (checked inside the model).
#[test]
fn degenerate_1x1_grid_equals_sequential_exactly() {
    for variant in [Variant::Quadratic, Variant::RRStar] {
        engine_case(350, |c| {
            c.variant = variant;
            c.tilings = vec![Tiling::Single; 2];
        });
    }
}

#[test]
fn adaptive_partitioner_matches_oracles_on_all_variants() {
    for (i, variant) in Variant::ALL.into_iter().enumerate() {
        engine_case(510 + i as u64, |c| {
            c.variant = variant;
            c.tilings = vec![Tiling::Fitted; 2];
        });
    }
}

#[test]
fn quadtree_partitioner_matches_oracles_on_all_variants() {
    for (i, variant) in Variant::ALL.into_iter().enumerate() {
        engine_case(520 + i as u64, |c| {
            c.variant = variant;
            c.tilings = vec![Tiling::Quadtree; 2];
        });
    }
}

/// Hot-tile decomposition changes no join counter, on an equal-cut and
/// a fitted grid.
#[test]
fn two_level_scheduling_stays_exact_under_skew() {
    for tiling in [Tiling::Equal, Tiling::Fitted] {
        engine_case(530, |c| {
            c.tilings = vec![tiling; 2];
            c.exec = Exec {
                algo: QueryAlgo::Descend,
                split: SplitPolicy::Above(0),
                workers: 3,
            };
        });
    }
}

/// Batched descents at several worker counts: answers equal brute
/// force, counters equal the one-worker run, and per-query counters sum
/// to the batch total.
#[test]
fn batched_queries_match_sequential_and_merge_stats() {
    for workers in [2, 7] {
        engine_case(410, |c| {
            c.variant = Variant::RRStar;
            c.exec = Exec {
                workers,
                ..Exec::REFERENCE
            };
        });
    }
}

#[test]
fn partitioned_counters_merge_consistently() {
    let a = boxes(200, 37, 40.0);
    let b = boxes(200, 38, 40.0);
    let r: JoinResult = partitioned_join(&plan(Variant::RStar, 3), &a, &b);
    // Merged counters come from real per-tile work; the sweep reads
    // no index, so its work is overlap tests, not leaf accesses.
    assert!(r.pairs > 0);
    assert!(r.overlap_tests > 0);
    assert_eq!(r.leaf_accesses(), 0);
    // JoinResult::sum agrees with operator merging.
    let halves = [r, JoinResult::default()];
    assert_eq!(JoinResult::sum(halves.iter()), r);
    let mut acc = JoinResult::default();
    acc += r;
    acc += &JoinResult::default();
    assert_eq!(acc, r);
}

const WORLD: Rect<2> = Rect {
    lo: Point([0.0, 0.0]),
    hi: Point([500.0, 500.0]),
};

fn boxes(n: usize, seed: u64, max_side: f64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            let w = rng.gen_range(0.5, max_side);
            let h = rng.gen_range(0.5, max_side);
            r2(x, y, x + w, y + h)
        })
        .collect()
}

fn plan(variant: Variant, workers: usize) -> JoinPlan<2, AdaptiveGrid<2>> {
    let grid = AdaptiveGrid::from_sample(WORLD, [4, 4], &[]);
    JoinPlan::new(grid, TreeConfig::tiny(variant), clip(), workers)
}

#[test]
fn clipping_helps_inside_tiles() {
    // The whole point of the subsystem: per-tile probes still benefit
    // from clip pruning. The served probes are the range descents of a
    // dataset store's forest; compare them clipped vs unclipped.
    let a = boxes(400, 39, 12.0);
    let b = boxes(500, 40, 12.0);
    let p = plan(Variant::RStar, 4);
    let store = DatasetStore::build(p.partitioner, &b, p.tree, p.clip, 4);
    let clipped = store.run(&a, 4, true);
    let unclipped = store.run(&a, 4, false);
    assert_eq!(clipped.results, unclipped.results);
    assert!(
        clipped.stats.clip_prunes > 0,
        "clip points never pruned anything"
    );
    assert!(
        clipped.stats.leaf_accesses <= unclipped.stats.leaf_accesses,
        "clipping increased per-tile I/O"
    );
}

#[test]
fn adaptive_partitioners_reduce_imbalance_on_clustered_data() {
    // The acceptance bar BENCH_skew.json demonstrates at scale, asserted
    // here on a small deterministic workload: both sides concentrate at
    // the same Zipf blobs, so a uniform grid goes hot where the pairs are.
    let a = clustered_with_layout::<2>(2_000, 6, 20_000.0, 0.1, 54, 54);
    let b = clustered_with_layout::<2>(2_000, 6, 20_000.0, 0.1, 54, 54 ^ 0xFACE);
    let domain = a.domain.union(&b.domain);
    let (a, b) = (a.boxes, b.boxes);
    let mut sample = a.clone();
    sample.extend_from_slice(&b);
    let uniform = AdaptiveGrid::from_sample(domain, [6, 6], &[]);
    let adaptive = AdaptiveGrid::from_sample(domain, [6, 6], &sample);
    let quadtree = QuadtreePartitioner::build(domain, &sample, 2 * 2_000 / 36);
    let ui = load_imbalance(&uniform, &a, &b);
    let ai = load_imbalance(&adaptive, &a, &b);
    let qi = load_imbalance(&quadtree, &a, &b);
    assert!(ai < ui, "adaptive {ai:.2} not below uniform {ui:.2}");
    assert!(qi < ui, "quadtree {qi:.2} not below uniform {ui:.2}");
}
