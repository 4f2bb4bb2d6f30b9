//! Oracle tests for the partitioned parallel executor: for every
//! partitioner, every R-tree variant behind a cached forest, and every
//! side shape the service produces — same tiling (both forests
//! borrowed), cross tiling (the probe side re-partitioned onto the
//! indexed forest), self-join, an empty side — the partitioned join
//! sweeps every populated tile and returns *exactly* the pair count of
//! `brute_force_pairs` (and of the paper's global `stt`/`inlj`),
//! including workloads engineered so that most objects span tile
//! boundaries (the duplicate-elimination edge case) and the degenerate
//! 1×1 grid (pure overhead, no partitioning effect).

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    load_imbalance, partitioned_join, partitioned_join_forests, partitioned_join_with,
    sequential_join, AdaptiveGrid, DatasetStore, JoinPlan, Partitioner, QuadtreePartitioner,
    SplitPolicy, TileForest, UniformGrid,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::{brute_force_pairs, inlj, stt, JoinResult};
use cbb_rtree::{AccessStats, ClippedRTree, DataId, RTree, TreeConfig, Variant};

fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
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

fn plan(variant: Variant, per_dim: usize, workers: usize) -> JoinPlan<2> {
    JoinPlan::new(
        UniformGrid::new(WORLD, per_dim),
        TreeConfig::tiny(variant),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        workers,
    )
}

fn global_clipped(objects: &[Rect<2>], variant: Variant) -> ClippedRTree<2> {
    let items: Vec<(Rect<2>, DataId)> = objects
        .iter()
        .enumerate()
        .map(|(i, b)| (*b, DataId(i as u32)))
        .collect();
    ClippedRTree::from_tree(
        RTree::bulk_load(TreeConfig::tiny(variant).with_world(WORLD), &items),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    )
}

fn forest<P: Partitioner<2>>(plan: &JoinPlan<2, P>, objects: &[Rect<2>]) -> TileForest<2> {
    TileForest::build(&plan.partitioner, objects, plan.tree, plan.clip, 2)
}

/// Join `a ⋈ b` in every side shape the service produces and assert
/// each sweeps every populated tile with pairs equal to brute force:
/// per call, the probe side re-partitioned onto a cached forest (the
/// cross-tiling path), both forests borrowed (the same-tiling path),
/// the self-join `a ⋈ a` and an empty probe side.
fn assert_every_shape_sweeps_exactly<P: Partitioner<2>>(
    plan: &JoinPlan<2, P>,
    a: &[Rect<2>],
    b: &[Rect<2>],
    label: &str,
) {
    let (fa, fb) = (forest(plan, a), forest(plan, b));
    let shapes = [
        ("per call", partitioned_join(plan, a, b), a, b),
        ("cross tiling", partitioned_join_with(plan, a, b, &fb), a, b),
        (
            "same tiling",
            partitioned_join_forests(plan, &fa, b, &fb),
            a,
            b,
        ),
        ("self", partitioned_join_forests(plan, &fa, a, &fa), a, a),
        (
            "empty side",
            partitioned_join_with(plan, &[], b, &fb),
            &[][..],
            b,
        ),
    ];
    for (shape, res, l, r) in shapes {
        assert_eq!(res.pairs, brute_force_pairs(l, r), "{label} {shape}");
        let (ll, lr) = (plan.partitioner.assign(l), plan.partitioner.assign(r));
        let populated = (0..plan.partitioner.tile_count())
            .filter(|&t| !ll[t].is_empty() && !lr[t].is_empty())
            .count() as u64;
        assert_eq!(
            res.tiles_sweep, populated,
            "{label} {shape}: every tile sweeps"
        );
        assert_eq!(res.tiles_stt + res.tiles_inlj, 0, "{label} {shape}");
    }
}

#[test]
fn partitioned_join_matches_oracles_on_all_variants() {
    let a = boxes(220, 31, 25.0);
    let b = boxes(260, 32, 25.0);
    let expected = brute_force_pairs(&a, &b);
    for variant in Variant::ALL {
        let left = global_clipped(&a, variant);
        let right = global_clipped(&b, variant);
        assert_eq!(stt(&left, &right, true).pairs, expected, "{variant:?} stt");
        assert_eq!(inlj(&a, &right, true).pairs, expected, "{variant:?} inlj");
        for workers in [1, 3] {
            assert_every_shape_sweeps_exactly(
                &plan(variant, 4, workers),
                &a,
                &b,
                &format!("{variant:?} workers={workers}"),
            );
        }
    }
}

#[test]
fn tile_spanning_objects_are_counted_exactly_once() {
    // 125-wide tiles, objects up to 180 wide: nearly everything spans
    // multiple tiles and many pairs intersect inside several tiles.
    let a = boxes(100, 33, 180.0);
    let b = boxes(120, 34, 180.0);
    for variant in Variant::ALL {
        assert_every_shape_sweeps_exactly(&plan(variant, 4, 4), &a, &b, &format!("{variant:?}"));
    }
}

#[test]
fn degenerate_1x1_grid_equals_sequential_exactly() {
    let a = boxes(150, 35, 30.0);
    let b = boxes(170, 36, 30.0);
    for variant in [Variant::Quadratic, Variant::RRStar] {
        let p = plan(variant, 1, 2);
        // One tile holding everything: identical columns, identical
        // sweep, so *all* counters match, not just pairs.
        assert_eq!(
            partitioned_join(&p, &a, &b),
            sequential_join(&a, &b),
            "{variant:?}"
        );
    }
}

#[test]
fn partitioned_counters_merge_consistently() {
    let a = boxes(200, 37, 40.0);
    let b = boxes(200, 38, 40.0);
    let p = plan(Variant::RStar, 4, 3);
    let r: JoinResult = partitioned_join(&p, &a, &b);
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

#[test]
fn clipping_helps_inside_tiles() {
    // The whole point of the subsystem: per-tile probes still benefit
    // from clip pruning. The served probes are the range descents of a
    // dataset store's forest; compare them clipped vs unclipped.
    let a = boxes(400, 39, 12.0);
    let b = boxes(500, 40, 12.0);
    let p = plan(Variant::RStar, 4, 4);
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

/// Shared-layout clustered sides: both concentrate at the same Zipf
/// blobs, so a uniform grid goes hot exactly where the join pairs are.
fn skewed_sides(n: usize, seed: u64) -> (Vec<Rect<2>>, Vec<Rect<2>>, Rect<2>) {
    let left = clustered_with_layout::<2>(n, 6, 20_000.0, 0.1, seed, seed);
    let right = clustered_with_layout::<2>(n, 6, 20_000.0, 0.1, seed, seed ^ 0xFACE);
    let domain = left.domain.union(&right.domain);
    (left.boxes, right.boxes, domain)
}

#[test]
fn adaptive_partitioner_matches_oracles_on_all_variants() {
    let (a, b, domain) = skewed_sides(320, 51);
    let mut sample = a.clone();
    sample.extend_from_slice(&b);
    let adaptive = AdaptiveGrid::from_sample(domain, [4, 4], &sample);
    assert_eq!(sequential_join(&a, &b).pairs, brute_force_pairs(&a, &b));
    for variant in Variant::ALL {
        let p = JoinPlan::new(
            adaptive.clone(),
            TreeConfig::tiny(variant),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            3,
        );
        assert_every_shape_sweeps_exactly(&p, &a, &b, &format!("{variant:?} adaptive"));
    }
}

#[test]
fn quadtree_partitioner_matches_oracles_on_all_variants() {
    let (a, b, domain) = skewed_sides(320, 52);
    let mut sample = a.clone();
    sample.extend_from_slice(&b);
    let quadtree = QuadtreePartitioner::build(domain, &sample, 80);
    for variant in Variant::ALL {
        let p = JoinPlan::new(
            quadtree.clone(),
            TreeConfig::tiny(variant),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            3,
        );
        assert_every_shape_sweeps_exactly(&p, &a, &b, &format!("{variant:?} quadtree"));
    }
}

#[test]
fn two_level_scheduling_stays_exact_under_skew() {
    // The intra-tile decomposition (hot tiles → x-range sweep chunks)
    // must not change any counter for any partitioner.
    let (a, b, domain) = skewed_sides(400, 53);
    let mut sample = a.clone();
    sample.extend_from_slice(&b);
    let uniform = UniformGrid::new(domain, 4);
    let adaptive = AdaptiveGrid::from_sample(domain, [4, 4], &sample);
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let base = JoinPlan::new(uniform, tree, clip, 3).with_split(SplitPolicy::Never);
    let split = base.with_split(SplitPolicy::Above(0));
    assert_eq!(
        partitioned_join(&base, &a, &b),
        partitioned_join(&split, &a, &b),
        "uniform"
    );
    let base = JoinPlan::new(adaptive.clone(), tree, clip, 3).with_split(SplitPolicy::Never);
    let split = base.clone().with_split(SplitPolicy::Above(0));
    assert_eq!(
        partitioned_join(&base, &a, &b),
        partitioned_join(&split, &a, &b),
        "adaptive"
    );
}

#[test]
fn adaptive_partitioners_reduce_imbalance_on_clustered_data() {
    // The acceptance bar BENCH_skew.json demonstrates at scale, asserted
    // here on a small deterministic workload.
    let (a, b, domain) = skewed_sides(2_000, 54);
    let mut sample = a.clone();
    sample.extend_from_slice(&b);
    let uniform = UniformGrid::new(domain, 6);
    let adaptive = AdaptiveGrid::from_sample(domain, [6, 6], &sample);
    let quadtree = QuadtreePartitioner::build(domain, &sample, 2 * 2_000 / 36);
    let ui = load_imbalance(&uniform, &a, &b);
    let ai = load_imbalance(&adaptive, &a, &b);
    let qi = load_imbalance(&quadtree, &a, &b);
    assert!(ai < ui, "adaptive {ai:.2} not below uniform {ui:.2}");
    assert!(qi < ui, "quadtree {qi:.2} not below uniform {ui:.2}");
}

#[test]
fn batched_queries_match_sequential_and_merge_stats() {
    let objects = boxes(1_200, 41, 15.0);
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RRStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        2,
    );
    let mut rng = SplitMix64::new(42);
    let queries: Vec<Rect<2>> = (0..300)
        .map(|_| {
            let x = rng.gen_range(0.0, 460.0);
            let y = rng.gen_range(0.0, 460.0);
            let s = rng.gen_range(1.0, 30.0);
            r2(x, y, x + s, y + s)
        })
        .collect();

    // Sequential reference: brute force, ids ascending.
    let seq: Vec<Vec<DataId>> = queries
        .iter()
        .map(|q| {
            (0..objects.len() as u32)
                .filter(|&i| objects[i as usize].intersects(q))
                .map(DataId)
                .collect()
        })
        .collect();

    let one = store.run(&queries, 1, true);
    for workers in [1, 2, 7] {
        let out = store.run(&queries, workers, true);
        assert_eq!(out.results, seq, "workers = {workers}");
        assert_eq!(out.stats, one.stats, "workers = {workers}");
        assert_eq!(
            AccessStats::sum(&out.per_query),
            out.stats,
            "workers = {workers}: per-query counters merge to the total"
        );
    }

    // AccessStats::sum helper merges like repeated absorb.
    let merged = AccessStats::sum([one.stats, AccessStats::new()].iter());
    assert_eq!(merged, one.stats);
}
