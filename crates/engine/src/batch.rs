//! Batched range/kNN-query execution over a partitioned [`TileForest`]
//! served by a [`crate::DatasetStore`].
//!
//! A query workload is grouped per covered tile, the (query, tile) work
//! is cut into chunks that run on the worker pool against read-only
//! indexes (the index types are `Sync`), and the per-chunk
//! [`AccessStats`] are merged. Results come back **in workload order**
//! regardless of the worker count, so callers can line answers up with
//! their queries.
//!
//! The [`TileForest`] — one clipped R-tree per non-empty tile of a
//! [`Partitioner`] — is the unit a dataset store keeps across requests:
//! the store owns a forest (`Arc`-shared), and the same forest
//! doubles as the prebuilt indexed side of repeated joins
//! ([`crate::join::partitioned_join_with`]).

use std::sync::{Arc, OnceLock};

use cbb_core::ClipConfig;
use cbb_geom::Rect;
use cbb_joins::TileColumns;
use cbb_rtree::{AccessStats, ClippedRTree, DataId, Neighbor, RTree, TreeConfig};

use crate::partition::Partitioner;
use crate::pool::map_chunked;

/// One clipped R-tree per non-empty tile of a partitioner — the shared
/// index substrate of [`crate::DatasetStore`] and forest-reusing joins.
///
/// Trees are always built *with* clip tables, so every consumer can
/// choose clipped or unclipped probing per call (an unused clip table
/// changes no traversal counter). Ids stored in the trees are global
/// [`DataId`]s into the object slice the forest was built from.
///
/// Each tile tree sits behind its own `Arc`: cloning a forest is a
/// per-tile refcount bump, and the mutable maintenance path
/// ([`Self::insert_object`] / [`Self::delete_object`]) mutates a tile
/// in place when this forest is its only owner and copies it first
/// when an older version still shares it — so the tiles of every older
/// version stay intact, and a single-owner write copies nothing.
///
/// Alongside each tree the forest lazily caches the tile's
/// [`TileColumns`] — the x-sorted SoA layout the plane-sweep join kernel
/// consumes. Columns are extracted from the tile tree on first use
/// ([`Self::columns`]) and share the trees' version-exact lifetime:
/// cloning a forest shares the already-extracted columns, and the
/// maintenance path invalidates exactly the tiles it touches, so a
/// cached forest never serves columns that disagree with its trees.
#[derive(Clone)]
pub struct TileForest<const D: usize> {
    /// One tree per tile; `None` for empty tiles.
    trees: Vec<Option<Arc<ClippedRTree<D>>>>,
    /// Lazily extracted sweep columns per tile, parallel to `trees`.
    columns: Vec<OnceLock<Arc<TileColumns<D>>>>,
}

impl<const D: usize> TileForest<D> {
    /// Multi-assign `objects` to `partitioner`'s tiles and bulk-load one
    /// clipped tree per non-empty tile in `workers` parallel chunks.
    pub fn build<P: Partitioner<D>>(
        partitioner: &P,
        objects: &[Rect<D>],
        tree: TreeConfig<D>,
        clip: ClipConfig,
        workers: usize,
    ) -> Self {
        Self::build_where(partitioner, objects, None, tree, clip, workers)
    }

    /// [`Self::build`] over the live subset of a tombstoned object
    /// arena: slot `i` is indexed iff `live[i]` (when a mask is given).
    /// This is the wholesale-rebuild twin of the delta maintenance path
    /// — the oracle and update property tests compare the two.
    pub fn build_where<P: Partitioner<D>>(
        partitioner: &P,
        objects: &[Rect<D>],
        live: Option<&[bool]>,
        tree: TreeConfig<D>,
        clip: ClipConfig,
        workers: usize,
    ) -> Self {
        if let Some(mask) = live {
            assert_eq!(mask.len(), objects.len(), "mask must cover every slot");
        }
        let assign = partitioner.assign(objects);
        let built = map_chunked(workers, &assign, |_, chunk| {
            chunk
                .iter()
                .map(|ids| {
                    let items: Vec<(Rect<D>, DataId)> = ids
                        .iter()
                        .filter(|&&i| live.is_none_or(|mask| mask[i as usize]))
                        .map(|&i| (objects[i as usize], DataId(i)))
                        .collect();
                    if items.is_empty() {
                        return None;
                    }
                    Some(Arc::new(ClippedRTree::from_tree(
                        RTree::bulk_load(tree, &items),
                        clip,
                    )))
                })
                .collect::<Vec<_>>()
        });
        let trees: Vec<Option<Arc<ClippedRTree<D>>>> = built.into_iter().flatten().collect();
        let columns = trees.iter().map(|_| OnceLock::new()).collect();
        TileForest { trees, columns }
    }

    /// Total number of tiles (matches the partitioner's `tile_count`).
    pub fn tile_count(&self) -> usize {
        self.trees.len()
    }

    /// The tree of tile `t`, `None` when the tile is empty.
    pub fn tree(&self, t: usize) -> Option<&ClippedRTree<D>> {
        self.trees[t].as_deref()
    }

    /// The sweep columns of tile `t`, `None` when the tile is empty.
    ///
    /// Extracted from the tile tree's leaves on first call (one sort),
    /// then cached for the forest's lifetime; concurrent first calls
    /// race benignly (`OnceLock` keeps one winner). The returned `Arc`
    /// is stable across calls — and across forest clones until a
    /// maintenance write touches the tile — so repeated sweeps and
    /// forest-native probe extraction pay the sort exactly once per
    /// tile version.
    pub fn columns(&self, t: usize) -> Option<Arc<TileColumns<D>>> {
        let tree = self.trees[t].as_deref()?;
        Some(
            self.columns[t]
                .get_or_init(|| Arc::new(TileColumns::from_items(&tree.tree.all_objects())))
                .clone(),
        )
    }

    /// Whether tile `t`'s columns are already extracted — a non-forcing
    /// probe of the [`Self::columns`] cache. [`crate::QueryAlgo::Auto`]
    /// reads this: a tile whose columns are in hand fuses a smaller
    /// batch than one that would pay the extraction sort first.
    pub fn columns_cached(&self, t: usize) -> bool {
        self.columns[t].get().is_some()
    }

    /// Drop tile `t`'s cached columns (its tree changed).
    fn invalidate_columns(&mut self, t: usize) {
        self.columns[t] = OnceLock::new();
    }

    /// Number of non-empty tiles (built trees).
    pub fn built_tree_count(&self) -> usize {
        self.trees.iter().filter(|t| t.is_some()).count()
    }

    /// Total objects over all tile trees (≥ the dataset size: spanning
    /// objects are multi-assigned).
    pub fn total_indexed(&self) -> usize {
        self.trees.iter().flatten().map(|t| t.tree.len()).sum()
    }

    /// Cumulative R-tree node constructions over all tile trees (the
    /// structural build-work counter the update tests compare between
    /// delta-apply and rebuild-per-batch).
    pub fn nodes_allocated(&self) -> u64 {
        self.trees
            .iter()
            .flatten()
            .map(|t| t.tree.nodes_allocated())
            .sum()
    }

    /// Indexed-object count of every non-empty tile tree — the raw
    /// occupancy distribution behind [`Self::load_imbalance`]. Feed it
    /// to a histogram to see the tail (p99 tile), which the max/mean
    /// ratio hides.
    pub fn tile_loads(&self) -> Vec<u64> {
        self.trees
            .iter()
            .flatten()
            .map(|t| t.tree.len() as u64)
            .collect()
    }

    /// Max-tile / mean-tile indexed objects over the non-empty tiles:
    /// `1.0` is perfect balance (and the empty-forest value). Under
    /// churn a data-fitted partitioner drifts away from its sample;
    /// this is the per-dataset observability metric serve reports so
    /// the drift is visible before a re-fit is triggered.
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<f64> = self
            .trees
            .iter()
            .flatten()
            .map(|t| t.tree.len() as f64)
            .collect();
        if loads.is_empty() {
            return 1.0;
        }
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        max / mean
    }

    /// Mutable access to tile `t`'s tree, copy-on-write: if the tree is
    /// shared with another forest (an older version), it is cloned
    /// first, so the sharer is never disturbed.
    fn tile_mut(&mut self, t: usize) -> Option<&mut ClippedRTree<D>> {
        self.trees[t].as_mut().map(Arc::make_mut)
    }

    /// Route one insert to every tile `rect` overlaps, maintaining clip
    /// points through the eager §IV-D path; empty tiles get a fresh
    /// incremental tree. Returns the number of R-tree nodes constructed
    /// (plus whether any tree was created) for the maintenance
    /// accounting.
    ///
    /// The caller owns the id space: `id` must be unique among live
    /// objects (the [`crate::DatasetStore`] assigns arena slots).
    pub fn insert_object<P: Partitioner<D>>(
        &mut self,
        partitioner: &P,
        rect: Rect<D>,
        id: DataId,
        tree: TreeConfig<D>,
        clip: ClipConfig,
        touched: &mut [bool],
    ) -> (u64, usize) {
        let mut nodes = 0u64;
        let mut created = 0usize;
        for t in partitioner.covering_tiles(&rect) {
            touched[t] = true;
            self.invalidate_columns(t);
            match self.tile_mut(t) {
                Some(tile) => {
                    let before = tile.tree.nodes_allocated();
                    tile.insert(rect, id);
                    nodes += tile.tree.nodes_allocated() - before;
                }
                None => {
                    let mut fresh = ClippedRTree::from_tree(RTree::new(tree), clip);
                    fresh.insert(rect, id);
                    nodes += fresh.tree.nodes_allocated();
                    created += 1;
                    self.trees[t] = Some(Arc::new(fresh));
                }
            }
        }
        (nodes, created)
    }

    /// Route one delete to every tile `rect` overlaps (the same
    /// covering set the insert used — the partitioner must not have
    /// changed in between, which version-bump rebuilds guarantee).
    /// Deletions are lazy per §IV-D; a tile whose last object leaves is
    /// dropped back to `None`. Returns whether the object was present,
    /// plus the number of trees dropped.
    pub fn delete_object<P: Partitioner<D>>(
        &mut self,
        partitioner: &P,
        rect: Rect<D>,
        id: DataId,
        touched: &mut [bool],
    ) -> (bool, usize) {
        let mut found = None;
        let mut dropped = 0usize;
        for t in partitioner.covering_tiles(&rect) {
            let removed = match self.tile_mut(t) {
                Some(tile) => {
                    touched[t] = true;
                    let removed = tile.delete(&rect, id);
                    if removed && tile.tree.is_empty() {
                        self.trees[t] = None;
                        dropped += 1;
                    }
                    removed
                }
                None => false,
            };
            if removed {
                self.invalidate_columns(t);
            }
            // Multi-assignment is all-or-nothing: every covering tile
            // holds the object or none does.
            match found {
                None => found = Some(removed),
                Some(prev) => {
                    debug_assert_eq!(prev, removed, "covering tiles disagree on {id:?}")
                }
            }
        }
        (found.unwrap_or(false), dropped)
    }
}

/// Which execution path a batched range run uses per tile.
///
/// A micro-batch of range queries against one tile **is** a spatial
/// join between the query-rect set and the tile's objects, so the
/// [`cbb_joins::sweep_queries`] kernel can answer the whole batch with
/// ONE shared scan over the tile's cached columnar layout instead of
/// `batch_size` independent tree descents. Answers are **byte-equal**
/// across all three variants for every workload — per-query result
/// lists are canonically sorted ascending by [`DataId`] on every path
/// (the oracle tests pin this across partitioners, clip settings and
/// split policies); only the work counters differ (the fused path does
/// zero node accesses and counts sweep `overlap_tests` instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryAlgo {
    /// One clipped-tree descent per (query, covered tile) — the
    /// classic per-query path, and the baseline the fused path is
    /// measured against.
    Descend,
    /// Sort the batch's query rects into their own
    /// [`TileColumns`] and answer each populated tile with one plane
    /// sweep against the tile's cached columns.
    SharedSweep,
    /// Choose per tile, deterministically, from the batch size landing
    /// on the tile, the tile's cardinality, and whether the tile's
    /// columns are already extracted — the thresholds live in
    /// [`crate::AutoPolicy`] (see [`crate::AutoPolicy::fuse_tile`]).
    Auto,
}

/// Merged outcome of a batched query run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Result ids per query, in workload order (same order the queries
    /// were given). Each list is sorted ascending by id — the canonical
    /// order every execution path produces, regardless of tile visit
    /// order and of per-query vs fused execution.
    pub results: Vec<Vec<DataId>>,
    /// Access counters summed over all workers.
    pub stats: AccessStats,
    /// Access counters per query, in workload order (sums to
    /// [`Self::stats`]) — what telemetry layers attribute to individual
    /// requests.
    pub per_query: Vec<AccessStats>,
    /// Populated tiles answered by per-query descents.
    pub tiles_descend: u64,
    /// Populated tiles answered by one fused shared sweep.
    pub tiles_fused: u64,
    /// Per fused tile, how many of the batch's queries rode its shared
    /// sweep (the fused-width distribution telemetry exposes).
    pub fused_widths: Vec<u64>,
}

impl BatchOutcome {
    /// Total result objects over the whole batch.
    pub fn total_results(&self) -> u64 {
        self.results.iter().map(|r| r.len() as u64).sum()
    }
}

/// Merged outcome of a batched kNN run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KnnOutcome {
    /// Neighbour lists per probe, in workload order; each list sorted by
    /// `(squared distance, id)`.
    pub results: Vec<Vec<Neighbor>>,
    /// Access counters summed over all workers.
    pub stats: AccessStats,
    /// Access counters per probe, in workload order (sums to
    /// [`Self::stats`]).
    pub per_query: Vec<AccessStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetStore;
    use crate::partition::UniformGrid;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_geom::{Point, SplitMix64};
    use cbb_rtree::{TreeConfig, Variant};

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    /// A one-tile store: its batch executor answers the workload from
    /// one shared clipped tree, so a plain per-query loop over that
    /// tree is the reference.
    fn setup(n: usize) -> (DatasetStore<2, UniformGrid<2>>, Vec<Rect<2>>) {
        let mut rng = SplitMix64::new(21);
        let objects: Vec<Rect<2>> = (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 950.0);
                let y = rng.gen_range(0.0, 950.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.5, 20.0),
                    y + rng.gen_range(0.5, 20.0),
                )
            })
            .collect();
        let store = DatasetStore::build(
            UniformGrid::new(r2(0.0, 0.0, 1000.0, 1000.0), 1),
            &objects,
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            2,
        );
        let queries: Vec<Rect<2>> = (0..200)
            .map(|_| {
                let x = rng.gen_range(0.0, 960.0);
                let y = rng.gen_range(0.0, 960.0);
                let s = rng.gen_range(1.0, 40.0);
                r2(x, y, x + s, y + s)
            })
            .collect();
        (store, queries)
    }

    #[test]
    fn parallel_equals_sequential_for_any_worker_count() {
        let (store, queries) = setup(800);
        let tree = store.forest().tree(0).expect("the one tile is populated");
        // Sequential reference computed directly on the tile's tree.
        let mut stats = AccessStats::new();
        let expected: Vec<Vec<DataId>> = queries
            .iter()
            .map(|q| {
                let mut ids = tree.range_query_stats(q, &mut stats);
                ids.sort_unstable();
                ids
            })
            .collect();
        for workers in [1, 2, 3, 8, 200] {
            let out = store.run(&queries, workers, true);
            assert_eq!(out.results, expected, "workers = {workers}");
            assert_eq!(out.stats, stats, "workers = {workers}");
            assert_eq!(
                AccessStats::sum(&out.per_query),
                stats,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn clipped_batch_saves_io_but_returns_identical_results() {
        let (store, queries) = setup(1_000);
        let base = store.run(&queries, 4, false);
        let clip = store.run(&queries, 4, true);
        assert_eq!(clip.results, base.results);
        assert!(clip.stats.leaf_accesses <= base.stats.leaf_accesses);
        assert!(clip.stats.clip_prunes > 0);
        assert_eq!(clip.total_results(), base.total_results());
    }

    #[test]
    fn empty_workload() {
        let (store, _) = setup(100);
        let out = store.run(&[], 4, true);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, AccessStats::new());
    }

    mod executor {
        use super::*;
        use crate::adaptive::AdaptiveGrid;
        use crate::catalog::DatasetStore;
        use crate::partition::UniformGrid;
        use crate::quadtree::QuadtreePartitioner;
        use cbb_rtree::{TreeConfig, Variant};

        fn objects_and_queries() -> (Vec<Rect<2>>, Vec<Rect<2>>) {
            let mut rng = SplitMix64::new(31);
            // Clustered objects, some spanning many tiles.
            let objects: Vec<Rect<2>> = (0..1_500)
                .map(|_| {
                    let clustered = rng.gen_range(0.0, 1.0) < 0.6;
                    let (cx, cy) = if clustered {
                        (120.0, 120.0)
                    } else {
                        (rng.gen_range(0.0, 900.0), rng.gen_range(0.0, 900.0))
                    };
                    let x = (cx + rng.gen_range(-80.0, 80.0)).clamp(0.0, 900.0);
                    let y = (cy + rng.gen_range(-80.0, 80.0)).clamp(0.0, 900.0);
                    let w = rng.gen_range(0.0, 60.0); // degenerate extents included
                    let h = rng.gen_range(0.0, 60.0);
                    r2(x, y, x + w, y + h)
                })
                .collect();
            let queries: Vec<Rect<2>> = (0..250)
                .map(|_| {
                    let x = rng.gen_range(-20.0, 950.0);
                    let y = rng.gen_range(-20.0, 950.0);
                    let s = rng.gen_range(1.0, 120.0);
                    r2(x, y, x + s, y + s)
                })
                .collect();
            (objects, queries)
        }

        fn brute(objects: &[Rect<2>], q: &Rect<2>) -> Vec<DataId> {
            let mut ids: Vec<DataId> = objects
                .iter()
                .enumerate()
                .filter(|(_, o)| o.intersects(q))
                .map(|(i, _)| DataId(i as u32))
                .collect();
            ids.sort();
            ids
        }

        fn sorted(mut v: Vec<DataId>) -> Vec<DataId> {
            v.sort();
            v
        }

        #[test]
        fn partitioned_batches_match_brute_force_exactly_once() {
            let (objects, queries) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let tree = TreeConfig::tiny(Variant::RStar);
            let uniform = DatasetStore::build(UniformGrid::new(domain, 4), &objects, tree, clip, 2);
            let adaptive = DatasetStore::build(
                AdaptiveGrid::from_sample(domain, [4, 4], &objects),
                &objects,
                tree,
                clip,
                2,
            );
            let quadtree = DatasetStore::build(
                QuadtreePartitioner::build(domain, &objects, 300),
                &objects,
                tree,
                clip,
                2,
            );
            let out_u = uniform.run(&queries, 3, true);
            let out_a = adaptive.run(&queries, 3, true);
            let out_q = quadtree.run(&queries, 3, true);
            for (i, q) in queries.iter().enumerate() {
                let want = brute(&objects, q);
                // Exactly once: sorted equality fails on duplicates too.
                assert_eq!(sorted(out_u.results[i].clone()), want, "uniform q{i}");
                assert_eq!(sorted(out_a.results[i].clone()), want, "adaptive q{i}");
                assert_eq!(sorted(out_q.results[i].clone()), want, "quadtree q{i}");
            }
        }

        #[test]
        fn executor_is_deterministic_across_workers_and_reusable() {
            let (objects, queries) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let store = DatasetStore::build(
                AdaptiveGrid::from_sample(domain, [3, 5], &objects),
                &objects,
                TreeConfig::tiny(Variant::RRStar),
                ClipConfig::paper_default::<2>(ClipMethod::Stairline),
                2,
            );
            assert!(store.tile_tree_count() > 1);
            assert_eq!(store.partitioner().dims(), [3, 5]);
            let base = store.run(&queries, 1, true);
            for workers in [2, 5, 64] {
                let out = store.run(&queries, workers, true);
                assert_eq!(out.results, base.results, "workers = {workers}");
                assert_eq!(out.stats, base.stats, "workers = {workers}");
            }
            // Second batch on the same executor: trees are reused, fresh
            // counters.
            let again = store.run(&queries, 3, true);
            assert_eq!(again.results, base.results);
            // Unclipped probing answers identically with no prunes.
            let unclipped = store.run(&queries, 3, false);
            assert_eq!(unclipped.results.len(), base.results.len());
            for (b, u) in base.results.iter().zip(&unclipped.results) {
                assert_eq!(sorted(b.clone()), sorted(u.clone()));
            }
            assert_eq!(unclipped.stats.clip_prunes, 0);
            assert!(base.stats.clip_prunes > 0);
        }

        /// Brute-force kNN oracle over raw objects: sort by (dist², id).
        fn brute_knn(objects: &[Rect<2>], center: &Point<2>, k: usize) -> Vec<(DataId, f64)> {
            let mut all: Vec<(DataId, f64)> = objects
                .iter()
                .enumerate()
                .map(|(i, o)| (DataId(i as u32), o.min_dist_sq(center)))
                .collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            all.truncate(k);
            all
        }

        #[test]
        fn partitioned_knn_matches_brute_force() {
            let (mut objects, _) = objects_and_queries();
            // Out-of-domain objects land in clamped border tiles whose
            // tile rect does NOT contain them — the case that forces the
            // executor to bound tiles by root MBB, not tile geometry.
            objects.push(r2(-250.0, -250.0, -240.0, -240.0));
            objects.push(r2(1_500.0, 400.0, 1_510.0, 410.0));
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let tree = TreeConfig::tiny(Variant::RStar);
            let uniform = DatasetStore::build(UniformGrid::new(domain, 4), &objects, tree, clip, 2);
            let quad = DatasetStore::build(
                QuadtreePartitioner::build(domain, &objects, 300),
                &objects,
                tree,
                clip,
                2,
            );
            let mut rng = SplitMix64::new(99);
            let mut probes: Vec<(Point<2>, usize)> = (0..60)
                .map(|i| {
                    let p = Point([rng.gen_range(-300.0, 1300.0), rng.gen_range(-300.0, 1300.0)]);
                    (p, [1, 3, 10, 64][i % 4])
                })
                .collect();
            // Probe right at the out-of-domain stragglers too.
            probes.push((Point([-245.0, -245.0]), 2));
            probes.push((Point([1_505.0, 405.0]), 5));
            let out = uniform.run_knn(&probes, 3);
            for (i, (p, k)) in probes.iter().enumerate() {
                assert_eq!(
                    out.results[i],
                    brute_knn(&objects, p, *k),
                    "uniform probe {i}"
                );
            }
            // Worker-count independence.
            let again = uniform.run_knn(&probes, 7);
            assert_eq!(again.results, out.results);
            assert_eq!(again.stats, out.stats);
            let out = quad.run_knn(&probes, 2);
            for (i, (p, k)) in probes.iter().enumerate() {
                assert_eq!(
                    out.results[i],
                    brute_knn(&objects, p, *k),
                    "quadtree probe {i}"
                );
            }
        }

        #[test]
        fn forest_is_shareable_across_executors() {
            let (objects, queries) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let grid = UniformGrid::new(domain, 4);
            let built = DatasetStore::build(
                grid,
                &objects,
                TreeConfig::tiny(Variant::RStar),
                ClipConfig::paper_default::<2>(ClipMethod::Stairline),
                2,
            );
            assert_eq!(built.forest().tile_count(), grid.tile_count());
            assert!(built.forest().total_indexed() >= objects.len());
            // A second executor over the same Arc answers identically
            // without building anything.
            let shared =
                DatasetStore::with_forest(grid, built.objects().to_vec(), built.forest().clone());
            assert_eq!(
                shared.run(&queries, 2, true).results,
                built.run(&queries, 2, true).results
            );
            assert_eq!(std::sync::Arc::strong_count(built.forest()), 2);
        }

        #[test]
        fn apply_updates_matches_wholesale_rebuild() {
            use crate::update::{Update, UpdateResult};
            let (objects, queries) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let grid = UniformGrid::new(domain, 4);
            let tree = TreeConfig::tiny(Variant::RStar);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let mut store = DatasetStore::build(grid, &objects, tree, clip, 2);
            let before_forest = store.forest().clone();
            let before_answers = store.run(&queries, 2, true);

            // A mixed batch: deletes across the id range (including a
            // spanning-object-rich low range), fresh inserts (one
            // spanning many tiles, one out-of-domain), a dead delete, a
            // delete of a just-inserted object, and two rejected inserts
            // (non-finite, inverted).
            let mut rng = SplitMix64::new(77);
            let mut updates: Vec<Update<2>> = (0..200)
                .map(|_| Update::Delete(DataId(rng.gen_range(0.0, 1_500.0) as u32)))
                .collect();
            for _ in 0..150 {
                let x = rng.gen_range(-30.0, 950.0);
                let y = rng.gen_range(-30.0, 950.0);
                updates.push(Update::Insert(r2(
                    x,
                    y,
                    x + rng.gen_range(0.0, 80.0),
                    y + rng.gen_range(0.0, 80.0),
                )));
            }
            updates.push(Update::Insert(r2(-100.0, 400.0, 1_200.0, 460.0)));
            updates.push(Update::Insert(r2(1_500.0, 1_500.0, 1_600.0, 1_600.0)));
            updates.push(Update::Delete(DataId(1_500))); // first insert above
            updates.push(Update::Delete(DataId(999_999)));
            updates.push(Update::Insert(Rect::new(
                Point([0.0, 0.0]),
                Point([f64::INFINITY, 1.0]),
            )));
            updates.push(Update::Insert(Rect {
                lo: Point([500.0, 500.0]),
                hi: Point([400.0, 600.0]),
            }));
            let outcome = store.apply_updates(&updates, tree, clip);
            assert_eq!(outcome.results.len(), updates.len());
            assert!(outcome.nodes_allocated > 0);
            assert!(outcome.tiles_touched > 0);
            assert!(matches!(
                outcome.results[updates.len() - 4],
                UpdateResult::Deleted(true)
            ));
            assert_eq!(
                outcome.results[updates.len() - 3],
                UpdateResult::Deleted(false)
            );
            assert_eq!(
                outcome.results[updates.len() - 2..],
                [UpdateResult::Rejected, UpdateResult::Rejected]
            );
            // A rejected insert takes no arena slot.
            assert_eq!(store.objects().len(), objects.len() + 152);

            // Oracle: a wholesale rebuild over the surviving arena
            // answers identically (kNN byte-equal, ranges as sets —
            // traversal order differs between built and grown trees).
            let rebuilt_forest = Arc::new(TileForest::build_where(
                store.partitioner(),
                store.objects(),
                Some(store.live()),
                tree,
                clip,
                2,
            ));
            let rebuilt = DatasetStore::with_forest_where(
                *store.partitioner(),
                store.objects().to_vec(),
                store.live().to_vec(),
                rebuilt_forest,
            );
            let delta_out = store.run(&queries, 2, true);
            let rebuilt_out = rebuilt.run(&queries, 2, true);
            for (i, (d, r)) in delta_out
                .results
                .iter()
                .zip(&rebuilt_out.results)
                .enumerate()
            {
                assert_eq!(sorted(d.clone()), sorted(r.clone()), "query {i}");
            }
            let probes: Vec<(Point<2>, usize)> =
                queries.iter().take(60).map(|q| (q.center(), 7)).collect();
            assert_eq!(
                store.run_knn(&probes, 2).results,
                rebuilt.run_knn(&probes, 2).results,
                "kNN answers are canonical and must match exactly"
            );

            // Copy-on-write: the pre-update forest still answers the
            // original dataset — shared tiles were never disturbed.
            let old = DatasetStore::with_forest(
                *store.partitioner(),
                objects.clone(),
                before_forest.clone(),
            );
            assert_eq!(old.run(&queries, 2, true).results, before_answers.results);
        }

        #[test]
        fn delta_apply_shares_untouched_tiles() {
            use crate::update::Update;
            let (objects, _) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let grid = UniformGrid::new(domain, 4);
            let tree = TreeConfig::tiny(Variant::RStar);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let mut store = DatasetStore::build(grid, &objects, tree, clip, 2);
            let before = store.forest().clone();
            // One tiny insert confined to a single tile.
            let outcome =
                store.apply_updates(&[Update::Insert(r2(10.0, 10.0, 12.0, 12.0))], tree, clip);
            assert_eq!(outcome.tiles_touched, 1);
            let shared = (0..before.tile_count())
                .filter(
                    |&t| match (before.trees[t].as_ref(), store.forest().trees[t].as_ref()) {
                        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                        _ => false,
                    },
                )
                .count();
            assert_eq!(
                shared,
                before.built_tree_count() - 1,
                "only the touched tile may be copied"
            );

            // Single owner: with no clone of the old forest held, the
            // batch mutates in place — every tile tree, touched or not,
            // keeps its address.
            drop(before);
            let addrs: Vec<Option<*const ClippedRTree<2>>> = (0..store.forest().tile_count())
                .map(|t| store.forest().tree(t).map(|tree| tree as *const _))
                .collect();
            let outcome = store.apply_updates(
                &[
                    Update::Insert(r2(10.0, 10.0, 12.0, 12.0)),
                    Update::Insert(r2(600.0, 600.0, 700.0, 700.0)),
                    Update::Delete(DataId(5)),
                ],
                tree,
                clip,
            );
            assert!(outcome.tiles_touched >= 2);
            assert_eq!((outcome.trees_created, outcome.trees_dropped), (0, 0));
            for (t, addr) in addrs.iter().enumerate() {
                let now = store.forest().tree(t).map(|tree| tree as *const _);
                match (addr, now) {
                    (Some(a), Some(b)) => assert!(std::ptr::eq(*a, b), "tile {t} was copied"),
                    (a, b) => assert_eq!(a.is_some(), b.is_some(), "tile {t}"),
                }
            }
        }

        #[test]
        fn incremental_inserts_from_empty_executor() {
            use crate::update::Update;
            let domain = r2(0.0, 0.0, 100.0, 100.0);
            let grid = UniformGrid::new(domain, 2);
            let tree = TreeConfig::tiny(Variant::Quadratic);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let mut store = DatasetStore::build(grid, &[], tree, clip, 1);
            assert_eq!(store.tile_tree_count(), 0);
            let updates: Vec<Update<2>> = (0..40)
                .map(|i| {
                    let t = (i % 10) as f64 * 9.0;
                    Update::Insert(r2(t, t, t + 8.0, t + 8.0))
                })
                .collect();
            let outcome = store.apply_updates(&updates, tree, clip);
            assert_eq!(outcome.inserted_ids().len(), 40);
            assert!(outcome.trees_created >= 1);
            assert_eq!(store.live_count(), 40);
            let q = r2(0.0, 0.0, 100.0, 100.0);
            assert_eq!(store.run(&[q], 1, true).results[0].len(), 40);
            // Delete everything again: trees drop, answers empty.
            let deletes: Vec<Update<2>> = (0..40).map(|i| Update::Delete(DataId(i))).collect();
            let outcome = store.apply_updates(&deletes, tree, clip);
            assert_eq!(outcome.deletes_applied(), 40);
            assert!(outcome.trees_dropped >= 1);
            assert_eq!(store.live_count(), 0);
            assert_eq!(store.tile_tree_count(), 0);
            assert!(store.run(&[q], 1, true).results[0].is_empty());
            // Double delete reports false.
            let again = store.apply_updates(&[Update::<2>::Delete(DataId(3))], tree, clip);
            assert_eq!(
                again.results,
                vec![crate::update::UpdateResult::Deleted(false)]
            );
        }

        #[test]
        fn columns_cache_is_lazy_shared_and_invalidated_per_tile() {
            use crate::update::Update;
            let (objects, _) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let grid = UniformGrid::new(domain, 4);
            let tree = TreeConfig::tiny(Variant::RStar);
            let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
            let mut store = DatasetStore::build(grid, &objects, tree, clip, 2);
            let before = store.forest().clone();
            let t = (0..before.tile_count())
                .find(|&t| before.tree(t).is_some())
                .unwrap();
            // Lazy extraction, stable Arc across calls.
            let c1 = before.columns(t).unwrap();
            let c2 = before.columns(t).unwrap();
            assert!(Arc::ptr_eq(&c1, &c2));
            assert_eq!(c1.len(), before.tree(t).unwrap().tree.len());
            // Columns agree with the tree's objects.
            let mut from_tree = before.tree(t).unwrap().tree.all_objects();
            from_tree.sort_by_key(|(_, id)| *id);
            let mut from_cols: Vec<(Rect<2>, DataId)> =
                (0..c1.len()).map(|i| (c1.rect(i), c1.id(i))).collect();
            from_cols.sort_by_key(|(_, id)| *id);
            assert_eq!(from_cols, from_tree);
            // A forest clone shares the already-extracted columns.
            assert!(Arc::ptr_eq(&before.clone().columns(t).unwrap(), &c1));
            // A write confined to one tile invalidates only that tile.
            let touched = before
                .tree(t)
                .unwrap()
                .tree
                .all_objects()
                .first()
                .map(|(r, _)| *r)
                .unwrap();
            store.apply_updates(&[Update::Insert(touched)], tree, clip);
            let after = store.forest();
            assert!(
                !Arc::ptr_eq(&after.columns(t).unwrap(), &c1),
                "touched tile must re-extract"
            );
            assert_eq!(
                after.columns(t).unwrap().len(),
                c1.len() + 1,
                "re-extracted columns see the insert"
            );
            for u in 0..before.tile_count() {
                if u != t && before.tree(u).is_some() && after.tree(u).is_some() {
                    // Untouched tiles still share the original columns.
                    let _ = before.columns(u).unwrap();
                }
            }
            // Empty tiles have no columns.
            if let Some(e) = (0..before.tile_count()).find(|&u| before.tree(u).is_none()) {
                assert!(before.columns(e).is_none());
            }
        }

        #[test]
        #[should_panic(expected = "different partitioning")]
        fn with_forest_rejects_mismatched_tiling() {
            let (objects, _) = objects_and_queries();
            let domain = r2(0.0, 0.0, 1000.0, 1000.0);
            let built = DatasetStore::build(
                UniformGrid::new(domain, 4),
                &objects,
                TreeConfig::tiny(Variant::RStar),
                ClipConfig::paper_default::<2>(ClipMethod::Stairline),
                2,
            );
            let _ = DatasetStore::with_forest(
                UniformGrid::new(domain, 5),
                objects,
                built.forest().clone(),
            );
        }
    }
}
