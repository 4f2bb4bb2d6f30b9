//! Shared-scan batched query execution and the carried kNN bound.
//!
//! The fused `SharedSweep` and `Auto` paths answer byte-equal to the
//! per-query `Descend` path; the named cases below run the seeded model
//! (`model/`) with the drawn engine execution pinned to them, on every
//! tiling, split policy and worker count (answers against the
//! reference and the brute-force model, fused counters exact under any
//! decomposition). The other tests pin work, not answers: a fused tile
//! touches no tree node and wins when the batch is wide, and the
//! carried k-nearest set opens fewer nodes than restarting every
//! tile's search.

mod model;

use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    AdaptiveGrid, AutoPolicy, DatasetStore, Partitioner, QueryAlgo, SplitPolicy, Update,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{push_neighbor, AccessStats, DataId, Neighbor, TreeConfig, Variant};
use model::{clip, engine_case, r2, Exec, Tiling};

#[test]
fn fused_execution_matches_descend_on_all_partitioners() {
    for tiling in Tiling::ALL {
        for algo in [QueryAlgo::SharedSweep, QueryAlgo::Auto] {
            engine_case(210, |c| {
                c.tilings = vec![tiling; 2];
                c.exec.algo = algo;
            });
        }
    }
}

/// Counters of the fused path are a pure function of the workload:
/// identical across worker counts and split policies (checked inside
/// the model against the undivided run). With warm columns, `Auto`
/// fuses too.
#[test]
fn fused_counters_are_exact_under_decomposition() {
    for split in Exec::SPLITS {
        for workers in [2, 5] {
            engine_case(220, |c| {
                c.exec = Exec {
                    algo: QueryAlgo::SharedSweep,
                    split,
                    workers,
                }
            });
        }
    }
    let store = clustered_store(700, [4, 4]);
    for t in 0..store.forest().tile_count() {
        store.forest().columns(t);
    }
    let queries = windows(&store, 48, 23);
    let auto = store.run_with(
        &queries,
        1,
        true,
        QueryAlgo::Auto,
        &AutoPolicy::default(),
        SplitPolicy::Auto,
    );
    assert!(auto.tiles_fused > 0, "warm columns must let Auto fuse");
}

/// Empty batches and batches probing only empty space stay exact on
/// every path.
#[test]
fn degenerate_batches_answer_identically() {
    let store = clustered_store(300, [4, 4]);
    let empty_space = vec![r2(-9e6, -9e6, -8e6, -8e6); 8];
    for algo in Exec::ALGOS {
        let none = store.run_with(
            &[],
            2,
            true,
            algo,
            &AutoPolicy::default(),
            SplitPolicy::Auto,
        );
        assert!(none.results.is_empty());
        assert_eq!(none.stats, AccessStats::new());
        let out = store.run_with(
            &empty_space,
            2,
            true,
            algo,
            &AutoPolicy::default(),
            SplitPolicy::Auto,
        );
        assert!(out.results.iter().all(|ids| ids.is_empty()));
    }
}

/// A store over `n` clustered objects under an equal-cut grid.
fn clustered_store(n: usize, dims: [usize; 2]) -> DatasetStore<2, AdaptiveGrid<2>> {
    let data = clustered_with_layout::<2>(n, 4, 30_000.0, 0.1, 22, 22);
    let grid = AdaptiveGrid::from_sample(data.domain, dims, &[]);
    DatasetStore::build(
        grid,
        &data.boxes,
        TreeConfig::tiny(Variant::RRStar),
        clip(),
        2,
    )
}

/// Small windows anchored at the store's objects.
fn windows(store: &DatasetStore<2, AdaptiveGrid<2>>, n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    let objects = store.objects();
    (0..n)
        .map(|_| {
            let at = objects[rng.gen_index(objects.len())].lo;
            let s = rng.gen_range(1_000.0, 40_000.0);
            r2(at[0], at[1], at[0] + s, at[1] + s)
        })
        .collect()
}

/// The parent algorithm of the served kNN, kept as the work reference:
/// the same tile order and early break, but each visited tile's search
/// restarts from radius ∞ ([`cbb_rtree::ClippedRTree::knn_stats`]) and
/// its k-nearest list is merged afterwards. Returns the node accesses
/// it spends on one probe.
fn per_tile_restart_accesses<P: Partitioner<2>>(
    store: &DatasetStore<2, P>,
    center: &Point<2>,
    k: usize,
) -> u64 {
    let forest = store.forest();
    let mut tiles: Vec<(f64, usize)> = (0..forest.tile_count())
        .filter_map(|t| Some((forest.tree(t)?.tree.bounds()?.min_dist_sq(center), t)))
        .collect();
    tiles.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut best: Vec<Neighbor> = Vec::new();
    let mut stats = AccessStats::new();
    for (tile_dist, t) in tiles {
        if k == 0 || (best.len() == k && tile_dist > best[k - 1].1) {
            break;
        }
        let tree = forest.tree(t).expect("listed tiles are built");
        for (id, dist) in tree.knn_stats(center, k, &mut stats) {
            push_neighbor(&mut best, k, id, dist);
        }
    }
    stats.leaf_accesses + stats.internal_accesses
}

/// The served kNN carries one k-nearest set across tiles, so a later
/// tile's search starts from the set's k-th distance: at one and three
/// workers it spends strictly fewer node accesses in total than
/// restarting every tile's search from radius ∞. The data has
/// tile-spanning objects, exact copies and deletes; k is 0, 1, 7 and
/// more than the live count. (Its answers are the model's business.)
#[test]
fn knn_carried_bound_opens_fewer_nodes_than_per_tile_restart() {
    let mut rng = SplitMix64::new(25);
    // Diagonal band: tiles' root MBBs are mostly dead space off the
    // diagonal — the shape the paper's clipping targets.
    let mut objects: Vec<Rect<2>> = (0..1_200)
        .map(|_| {
            let t = rng.gen_range(0.0, 480.0);
            let d = rng.gen_range(-8.0, 8.0);
            let s = rng.gen_range(0.5, 6.0);
            let (x, y) = (t, (t + d).clamp(0.0, 480.0));
            r2(x, y, x + s, y + s)
        })
        .collect();
    // Tile-spanning objects, and exact copies (equidistant from every
    // probe).
    for i in 0..30 {
        let t = 15.0 * i as f64;
        objects.push(r2(t, t, t + 140.0, t + 90.0));
    }
    for i in 0..60 {
        objects.push(objects[i * 17]);
    }
    let tree = TreeConfig::tiny(Variant::RStar);
    let world = r2(0.0, 0.0, 500.0, 500.0);
    let mut store = DatasetStore::build(
        AdaptiveGrid::from_sample(world, [4, 4], &[]),
        &objects,
        tree,
        clip(),
        2,
    );
    let deletes: Vec<Update<2>> = (0..objects.len())
        .step_by(9)
        .map(|i| Update::Delete(DataId(i as u32)))
        .collect();
    store.apply_updates(&deletes, tree, clip());
    let live = store.live_count();

    // Probes off the diagonal, where the plain root-MBB MINDIST
    // underestimates badly, and probes at the equidistant copies.
    let mut probes: Vec<(Point<2>, usize)> = (0..40)
        .map(|i| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            (Point([x, y]), [1, 7][i % 2])
        })
        .collect();
    probes.extend((0..20).map(|i| (objects[i * 17 + 1].center(), [1, 7][i % 2])));
    probes.push((Point([250.0, 240.0]), live + 5));
    probes.push((Point([-30.0, 600.0]), live + 5));
    probes.push((Point([100.0, 100.0]), 0));

    let restart: u64 = probes
        .iter()
        .map(|(c, k)| per_tile_restart_accesses(&store, c, *k))
        .sum();
    for workers in [1, 3] {
        let stats = store.run_knn(&probes, workers).stats;
        let carried = stats.leaf_accesses + stats.internal_accesses;
        assert!(
            carried < restart,
            "workers {workers}: carried bound {carried} !< per-tile restart {restart}"
        );
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
        clip(),
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
