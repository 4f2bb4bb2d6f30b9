//! Oracle tests for shared-scan batched query execution: the fused
//! `SharedSweep` and `Auto` paths must be **byte-equal** to the
//! per-query `Descend` path across every partitioner, clip setting and
//! split policy — including empty tiles, point-extent queries and
//! queries straddling tile boundaries — and every path must return each
//! query's results in the canonical order (ascending by id). The kNN
//! half pins the clipped-MBB prefilter: identical answers, no more
//! node accesses than the plain root-MBB ordering.

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    AdaptiveGrid, AutoPolicy, DatasetStore, Partitioner, QuadtreePartitioner, QueryAlgo,
    SplitPolicy, UniformGrid,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{AccessStats, TreeConfig, Variant};

fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
}

const WORLD: Rect<2> = Rect {
    lo: Point([0.0, 0.0]),
    hi: Point([500.0, 500.0]),
};

/// Clustered boxes: most mass in one corner so coarse grids carry many
/// EMPTY tiles, plus a sprinkle of wide tile-straddling rectangles.
fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            if i % 7 == 0 {
                // Wide straddler: up to 200 across — spans tiles.
                let x = rng.gen_range(0.0, 280.0);
                let y = rng.gen_range(0.0, 280.0);
                let w = rng.gen_range(40.0, 200.0);
                let h = rng.gen_range(40.0, 200.0);
                r2(x, y, x + w, y + h)
            } else {
                // Clustered in the lower-left 150×150 corner.
                let x = rng.gen_range(0.0, 140.0);
                let y = rng.gen_range(0.0, 140.0);
                let w = rng.gen_range(0.5, 10.0);
                let h = rng.gen_range(0.5, 10.0);
                r2(x, y, x + w, y + h)
            }
        })
        .collect()
}

/// Mixed query batch: point-extent probes, tile-sized rects, wide
/// straddlers, and a few out-of-cluster rects that hit empty tiles.
fn queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            match i % 4 {
                // Degenerate point-extent query.
                0 => r2(x, y, x, y),
                // Small rect.
                1 => {
                    let s = rng.gen_range(1.0, 20.0);
                    r2(x, y, x + s, y + s)
                }
                // Wide straddler crossing several tile boundaries.
                2 => {
                    let w = rng.gen_range(100.0, 300.0);
                    r2(x, y, (x + w).min(500.0), (y + w * 0.5).min(500.0))
                }
                // Thin sliver along one axis.
                _ => r2(x, y, (x + 250.0).min(500.0), y + 0.25),
            }
        })
        .collect()
}

const SPLITS: [SplitPolicy; 3] = [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)];

fn check_fusion_oracle<P: Partitioner<2>>(store: &DatasetStore<2, P>, label: &str) {
    let qs = queries(64, 77);
    let policy = AutoPolicy::default();
    for use_clips in [true, false] {
        // The pinned baseline: the per-query descent path.
        let descend = store.run_with(
            &qs,
            1,
            use_clips,
            QueryAlgo::Descend,
            &policy,
            SplitPolicy::Never,
        );
        for ids in &descend.results {
            assert!(
                ids.is_sorted(),
                "{label}: canonical order is ascending by id"
            );
        }
        assert_eq!(descend.tiles_fused, 0);
        assert_eq!(descend.fused_widths, Vec::<u64>::new());
        for algo in [QueryAlgo::SharedSweep, QueryAlgo::Auto] {
            for split in SPLITS {
                for workers in [1, 3] {
                    let out = store.run_with(&qs, workers, use_clips, algo, &policy, split);
                    assert_eq!(
                        out.results, descend.results,
                        "{label}: {algo:?}/{split:?}/workers={workers}/clips={use_clips} \
                         must be byte-equal to Descend"
                    );
                }
            }
        }
        // A policy that never fuses reproduces the whole Descend
        // outcome — counters included — through the Auto path.
        let never = AutoPolicy {
            fuse_min_queries: usize::MAX,
            ..AutoPolicy::default()
        };
        let out = store.run_with(
            &qs,
            1,
            use_clips,
            QueryAlgo::Auto,
            &never,
            SplitPolicy::Never,
        );
        assert_eq!(out, descend, "{label}: non-fusing Auto == Descend");
    }
}

#[test]
fn fused_execution_matches_descend_on_all_partitioners() {
    let objects = boxes(900, 21);
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    let uniform = DatasetStore::build(UniformGrid::new(WORLD, 5), &objects, tree, clip, 2);
    check_fusion_oracle(&uniform, "uniform");

    let adaptive = DatasetStore::build(
        AdaptiveGrid::from_sample(WORLD, [5, 5], &objects),
        &objects,
        tree,
        clip,
        2,
    );
    check_fusion_oracle(&adaptive, "adaptive");

    let quadtree = DatasetStore::build(
        QuadtreePartitioner::build(WORLD, &objects, 120),
        &objects,
        tree,
        clip,
        2,
    );
    check_fusion_oracle(&quadtree, "quadtree");
}

/// Counters of a fixed algorithm are a pure function of the workload:
/// identical across worker counts and split policies (the chunk-sum
/// exactness of the sweep kernel and of per-query descents), and the
/// per-tile `Auto` resolution is taken before decomposition, so the
/// descend/fused tile mix never moves either.
#[test]
fn fused_counters_are_exact_under_decomposition() {
    let objects = boxes(700, 22);
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RRStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        2,
    );
    let qs = queries(48, 23);
    let policy = AutoPolicy::default();
    // Warm every column so Auto's cachedness input is stable across
    // the repeated runs below (a fused run warms them as a side
    // effect; pre-warming makes the baseline itself reproducible).
    for t in 0..store.forest().tile_count() {
        store.forest().columns(t);
    }
    for algo in [QueryAlgo::Descend, QueryAlgo::SharedSweep, QueryAlgo::Auto] {
        let base = store.run_with(&qs, 1, true, algo, &policy, SplitPolicy::Never);
        assert_eq!(
            base.stats,
            cbb_rtree::AccessStats::sum(&base.per_query),
            "{algo:?}: per-query counters must sum to the batch total"
        );
        for split in SPLITS {
            for workers in [1, 2, 5] {
                let out = store.run_with(&qs, workers, true, algo, &policy, split);
                assert_eq!(out, base, "{algo:?}/{split:?}/workers={workers}");
            }
        }
    }
    // The fused paths really fused something on this workload.
    let fused = store.run_with(
        &qs,
        1,
        true,
        QueryAlgo::SharedSweep,
        &policy,
        SplitPolicy::Auto,
    );
    assert!(fused.tiles_fused > 0);
    assert_eq!(fused.fused_widths.len(), fused.tiles_fused as usize);
    let auto = store.run_with(&qs, 1, true, QueryAlgo::Auto, &policy, SplitPolicy::Auto);
    assert!(auto.tiles_fused > 0, "warm columns must let Auto fuse");
}

/// Empty batches and batches probing only empty space stay exact on
/// every path.
#[test]
fn degenerate_batches_answer_identically() {
    let objects = boxes(300, 24);
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        1,
    );
    let policy = AutoPolicy::default();
    let empty_space = vec![r2(490.0, 490.0, 499.0, 499.0); 8];
    for algo in [QueryAlgo::Descend, QueryAlgo::SharedSweep, QueryAlgo::Auto] {
        let none = store.run_with(&[], 2, true, algo, &policy, SplitPolicy::Auto);
        assert!(none.results.is_empty());
        assert_eq!(none.stats, cbb_rtree::AccessStats::new());
        let out = store.run_with(&empty_space, 2, true, algo, &policy, SplitPolicy::Auto);
        assert!(out.results.iter().all(|ids| ids.is_empty()));
    }
}

/// The clipped-MBB kNN prefilter: byte-equal neighbour lists, and node
/// accesses never above the plain root-MBB tile ordering. The diagonal
/// workload leaves large dead corners in every tile's root MBB, so the
/// tighter bound must actually skip trees (strictly fewer accesses).
#[test]
fn knn_clipped_prefilter_is_exact_and_cheaper() {
    let mut rng = SplitMix64::new(25);
    // Diagonal band: tiles' root MBBs are mostly dead space off the
    // diagonal — the shape the paper's clipping targets.
    let objects: Vec<Rect<2>> = (0..1_200)
        .map(|_| {
            let t = rng.gen_range(0.0, 480.0);
            let d = rng.gen_range(-8.0, 8.0);
            let s = rng.gen_range(0.5, 6.0);
            let (x, y) = (t, (t + d).clamp(0.0, 480.0));
            r2(x, y, x + s, y + s)
        })
        .collect();
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        2,
    );
    // Probes off the diagonal, where the plain root-MBB MINDIST
    // underestimates badly.
    let probes: Vec<(Point<2>, usize)> = (0..40)
        .map(|i| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            (Point([x, y]), 1 + i % 7)
        })
        .collect();
    for workers in [1, 3] {
        let plain = store.run_knn_with(&probes, workers, false);
        let clipped = store.run_knn_with(&probes, workers, true);
        assert_eq!(clipped.results, plain.results, "answers must be identical");
        let accesses = |s: &cbb_rtree::AccessStats| s.leaf_accesses + s.internal_accesses;
        for (c, p) in clipped.per_query.iter().zip(&plain.per_query) {
            assert!(
                accesses(c) <= accesses(p),
                "prefilter must never add node accesses"
            );
        }
        assert!(
            accesses(&clipped.stats) < accesses(&plain.stats),
            "diagonal data must make the clipped prefilter strictly cheaper \
             ({} vs {})",
            accesses(&clipped.stats),
            accesses(&plain.stats)
        );
        // The default path IS the prefiltered one.
        assert_eq!(store.run_knn(&probes, workers), clipped);
    }
}

/// The counted-work claim behind `SharedSweep`, on the shape a
/// coalescing batcher hands the engine: small selective rects around a
/// few hot spots of clustered data, over tiles of a few hundred
/// objects. A fused tile never touches a tree node, at every batch
/// width; once the batch is wide (≥ 32) the shared scans also do
/// strictly less counted work (node accesses + overlap tests) than the
/// per-query descents, with byte-equal answers.
#[test]
fn shared_sweep_does_no_node_accesses_and_less_work_when_wide() {
    let n = 6_000;
    let seed = 0xCBB;
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed);
    let store = DatasetStore::build(
        AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes),
        &data.boxes,
        TreeConfig::paper_default(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        4,
    );
    let nodes = |s: &AccessStats| s.leaf_accesses + s.internal_accesses;
    let work = |s: &AccessStats| nodes(s) + s.overlap_tests;
    let mut rng = SplitMix64::new(seed ^ 0xF05E);
    let (lo, hi) = (data.domain.lo.0, data.domain.hi.0);
    let extent = hi[0] - lo[0];
    let policy = AutoPolicy::default();
    for batch in [1usize, 4, 8, 32, 128] {
        let qs: Vec<Rect<2>> = (0..batch)
            .map(|i| {
                let anchor = data.boxes[((i % 4) * 9973) % n];
                let s = rng.gen_range(extent * 0.0005, extent * 0.005);
                let x = (anchor.lo[0] + rng.gen_range(-s, s)).clamp(lo[0], hi[0] - s);
                let y = (anchor.lo[1] + rng.gen_range(-s, s)).clamp(lo[1], hi[1] - s);
                r2(x, y, x + s, y + s)
            })
            .collect();
        let run = |algo| store.run_with(&qs, 4, true, algo, &policy, SplitPolicy::Auto);
        let descend = run(QueryAlgo::Descend);
        let fused = run(QueryAlgo::SharedSweep);
        assert_eq!(fused.results, descend.results, "batch {batch}: answers");
        assert_eq!(fused.tiles_descend, 0, "batch {batch}: every tile fuses");
        assert_eq!(nodes(&fused.stats), 0, "batch {batch}: fused node accesses");
        if batch >= 32 {
            assert!(
                work(&fused.stats) < work(&descend.stats),
                "batch {batch}: fused work {} !< descend work {}",
                work(&fused.stats),
                work(&descend.stats)
            );
        }
    }
}
