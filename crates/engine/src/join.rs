//! Partition-parallel spatial join with two-level dynamic scheduling.
//!
//! The input rectangle sets are multi-assigned to the tiles of a
//! [`Partitioner`], and every tile is joined by one kernel: the
//! forward-scan plane sweep over the columnar [`TileColumns`] layout
//! (the kernel of Tsitsigkos et al., *Parallel In-Memory Evaluation of
//! Spatial Joins*). The per-tile sweeps run on the worker pool
//! ([`crate::pool`]) pulling from one shared dynamic queue. Duplicate
//! pairs from spanning objects are eliminated with the reference-point
//! rule (see [`crate::partition`]), so the merged [`JoinResult`]
//! reports **exactly** the global pair count of a sequential join —
//! verified against `brute_force_pairs` in the tests.
//!
//! The paper's index joins (STT and INLJ over clipped R-trees) stay in
//! `cbb-joins` as the reference the `join_experiment` and `fig*` bins
//! reproduce; the engine does not run them. The §IV clip filter still
//! composes at tile granularity: a forest-backed side's root CBB prunes
//! the tile's sweep window before any scan runs ([`sweep_precheck`]).
//!
//! **Two-level scheduling.** Per-tile tasks alone cannot balance skewed
//! data: one dense tile can hold most of the work and straggle the run
//! no matter how the remaining tiles are stolen. Tiles whose estimated
//! work exceeds the [`SplitPolicy`] threshold are therefore *decomposed*
//! into x-range chunks of both sides' scans ([`sweep_scan`]), and the
//! chunks are fed to the same dynamic queue as the remaining whole
//! tiles, heaviest first. The decomposition is counter-exact: every
//! [`JoinResult`] field, not just `pairs`, matches the undecomposed run.
//!
//! **Column reuse across joins.** [`partitioned_join`] sorts the
//! per-tile columns of *both* sides per call. A serving layer joining
//! many probe sets against one slowly-changing dataset should instead
//! keep a [`TileForest`] over the indexed side and call
//! [`partitioned_join_with`] per request — only the probe side is
//! sorted; [`partitioned_join_forests`] borrows both sides. A
//! [`crate::DatasetStore`] keeps its forest (and the columns it caches)
//! current under writes. Pair counts are identical on every path; with
//! `use_clips` off every counter is too, since cached and per-call
//! columns share one canonical sort.

use std::sync::Arc;

use cbb_core::{ClipConfig, ClipPoint};
use cbb_geom::Rect;
use cbb_joins::{reference_point, sweep_precheck, sweep_scan, JoinResult, SweepSide, TileColumns};
use cbb_rtree::{DataId, TreeConfig};

use crate::batch::TileForest;
use crate::partition::Partitioner;
use crate::pool::{fold_dynamic_tasks, map_chunked};

/// The join strategy a plan or request names. Every tile is swept, so
/// this has one variant; it stays only because `benchmark/src/layers.rs`
/// names it (with `Request::{Join, CrossJoin}::algo`), and ROADMAP item
/// F retires it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Plane sweep over [`TileColumns`] on every tile.
    Auto,
}

/// The thresholds of [`crate::QueryAlgo::Auto`]'s per-tile range-fusion
/// choice ([`Self::fuse_tile`]). Joins read none of it; the
/// [`JoinPlan::auto`] field that carries it is kept only because
/// `benchmark/src/layers.rs` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoPolicy {
    /// A tile is fused only when at least this many of the batch's
    /// queries cover it — below that, the shared scan cannot amortise
    /// anything over per-query descents. Default 4.
    pub fuse_min_queries: usize,
    /// Cold tile (columns not yet extracted): fuse only when the tile
    /// holds at most `queries × ratio` objects, so the one-off
    /// `O(n log n)` column extraction is amortised by the batch that
    /// forces it. A cached tile fuses on `fuse_min_queries` alone.
    /// Default 8.
    pub fuse_cold_ratio: usize,
}

impl Default for AutoPolicy {
    fn default() -> Self {
        AutoPolicy {
            fuse_min_queries: 4,
            fuse_cold_ratio: 8,
        }
    }
}

impl AutoPolicy {
    /// [`crate::QueryAlgo::Auto`]'s per-tile resolution: fuse the
    /// `queries` range queries covering a tile of `tile_len` objects
    /// into one shared sweep, or descend per query? Deterministic in
    /// its three inputs — batch size, tile cardinality, and whether the
    /// tile's columns are already cached on the forest.
    pub fn fuse_tile(&self, queries: usize, tile_len: usize, columns_cached: bool) -> bool {
        queries >= self.fuse_min_queries
            && (columns_cached || tile_len <= queries.saturating_mul(self.fuse_cold_ratio))
    }
}

/// When to decompose a tile into intra-tile subtasks (the second
/// scheduling level). Estimated tile work is `|left| × |right|`, the
/// candidate cross product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Per-tile tasks only: a hot tile serialises its whole sweep on
    /// one worker.
    Never,
    /// Decompose tiles holding more than `1/(2·workers)` of the total
    /// estimated work — a tile light enough to fit its fair share twice
    /// over is not worth the extra task bookkeeping. No-op with one
    /// worker.
    Auto,
    /// Decompose tiles whose estimated work exceeds this many candidate
    /// pairs, regardless of worker count.
    Above(u64),
}

impl SplitPolicy {
    /// The decomposition threshold for a workload of `total` estimated
    /// work on `workers` threads; `None` disables decomposition.
    pub(crate) fn threshold(self, total: u64, workers: usize) -> Option<u64> {
        match self {
            SplitPolicy::Never => None,
            SplitPolicy::Above(thr) => Some(thr),
            SplitPolicy::Auto if workers <= 1 => None,
            SplitPolicy::Auto => Some(total / (2 * workers as u64)),
        }
    }
}

/// A complete partitioned-join plan: partitioning, clip pre-check,
/// parallelism, and the intra-tile decomposition policy.
///
/// `tree`, `clip`, `algo` and `auto` are read by no join: the sweep
/// builds no tree and has no kernel to choose. They stay only because
/// `benchmark/src/layers.rs` builds a `JoinPlan` literal naming them;
/// ROADMAP item F retires them.
#[derive(Clone, Debug)]
pub struct JoinPlan<const D: usize, P> {
    /// Spatial partitioning of the workload (any [`Partitioner`]).
    pub partitioner: P,
    /// Ignored (see the type docs).
    pub tree: TreeConfig<D>,
    /// Ignored (see the type docs).
    pub clip: ClipConfig,
    /// Prune a tile's sweep with the root clip points of each
    /// forest-backed side ([`sweep_precheck`]). Clips never change
    /// pairs.
    pub use_clips: bool,
    /// Ignored (see the type docs).
    pub algo: JoinAlgo,
    /// Parallel slots on the worker pool (clamped to the number of
    /// scheduled tasks).
    pub workers: usize,
    /// When to decompose hot tiles into subtasks.
    pub split: SplitPolicy,
    /// Ignored (see the type docs).
    pub auto: AutoPolicy,
}

impl<const D: usize, P> JoinPlan<D, P> {
    /// A plan sweeping over `partitioner` with `workers` threads, the
    /// clip pre-check on, and automatic hot-tile decomposition.
    pub fn new(partitioner: P, tree: TreeConfig<D>, clip: ClipConfig, workers: usize) -> Self {
        JoinPlan {
            partitioner,
            tree,
            clip,
            use_clips: true,
            algo: JoinAlgo::Auto,
            workers,
            split: SplitPolicy::Auto,
            auto: AutoPolicy::default(),
        }
    }

    /// Enable/disable the root clip pre-check of forest-backed sides.
    pub fn with_clips(mut self, use_clips: bool) -> Self {
        self.use_clips = use_clips;
        self
    }

    /// Set the hot-tile decomposition policy.
    pub fn with_split(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }
}

/// A decomposed (hot) tile: both sides' columns are sourced once up
/// front, then the element scans of each side, cut into x-range
/// `chunks` ([`sweep_scan`] is counter-exact over any partition of the
/// element ranges), interleave with whole tiles on the shared queue.
/// `chunks` is empty when the tile pre-check pruned the whole sweep.
struct HotTile<const D: usize> {
    tile: usize,
    /// The pre-check's counters (and the tile's `tiles_sweep` tick),
    /// which the chunks must not re-count.
    base: JoinResult,
    left: Arc<TileColumns<D>>,
    right: Arc<TileColumns<D>>,
    chunks: Vec<(SweepSide, usize, usize)>,
}

/// One unit on the shared dynamic queue.
enum Task {
    /// A whole (cold) tile: source both sides' columns and sweep.
    Tile(usize),
    /// One element-range chunk of a hot tile.
    SweepChunk { hot: usize, chunk: usize },
}

/// Cut `0..len` into `chunk`-size ranges tagged with `side`.
fn sweep_chunks(side: SweepSide, len: usize, chunk: usize) -> Vec<(SweepSide, usize, usize)> {
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < len {
        let hi = (lo + chunk).min(len);
        out.push((side, lo, hi));
        lo = hi;
    }
    out
}

/// Source both sides of `tile` and run the sweep's tile pre-check:
/// the two columns, the pre-check's counters (with the tile's
/// `tiles_sweep` tick) and whether any scan should run.
fn open_tile<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    tile: usize,
    left: &[Rect<D>],
    lsource: &TileSource<'_, D>,
    right: &[Rect<D>],
    rsource: &TileSource<'_, D>,
) -> (Arc<TileColumns<D>>, Arc<TileColumns<D>>, JoinResult, bool) {
    let lcols = lsource.columns(left, tile);
    let rcols = rsource.columns(right, tile);
    let (lclips, rclips) = if plan.use_clips {
        (lsource.root_clips(tile), rsource.root_clips(tile))
    } else {
        (&[][..], &[][..])
    };
    let (mut base, live) = sweep_precheck(&lcols, lclips, &rcols, rclips);
    base.tiles_sweep += 1;
    (lcols, rcols, base, live)
}

/// Build the decomposed form of one hot tile.
fn build_hot<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    tile: usize,
    left: &[Rect<D>],
    lsource: &TileSource<'_, D>,
    right: &[Rect<D>],
    rsource: &TileSource<'_, D>,
) -> HotTile<D> {
    let (lcols, rcols, base, live) = open_tile(plan, tile, left, lsource, right, rsource);
    // Aim for a few chunks per worker across both sides' scans.
    let chunk = (lcols.len() + rcols.len())
        .div_ceil((plan.workers * 4).max(1))
        .max(1);
    let chunks = if live {
        let mut chunks = sweep_chunks(SweepSide::Left, lcols.len(), chunk);
        chunks.extend(sweep_chunks(SweepSide::Right, rcols.len(), chunk));
        chunks
    } else {
        Vec::new()
    };
    HotTile {
        tile,
        base,
        left: lcols,
        right: rcols,
        chunks,
    }
}

/// Run the partitioned parallel join of `left ⋈ right` under `plan`.
///
/// Returns the merged counters; `pairs` equals the sequential (and
/// brute-force) pair count exactly, for every partitioner and split
/// policy.
pub fn partitioned_join<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    left: &[Rect<D>],
    right: &[Rect<D>],
) -> JoinResult {
    partitioned_join_impl(plan, left, right, None, None)
}

/// [`partitioned_join`] with the right (indexed) side's per-tile
/// columns taken from a prebuilt [`TileForest`] instead of being
/// sorted per call — the repeat-join fast path. The forest must have
/// been built over `right` under `plan.partitioner` (tile counts are
/// checked; content correspondence is the caller's contract — a
/// [`crate::DatasetStore`]'s own forest and arena satisfy it).
///
/// Pairs equal the build-per-call path exactly; with `use_clips` off,
/// so does every counter. With clips on, the forest side's root clip
/// points may prune tiles the per-call path sweeps.
pub fn partitioned_join_with<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    left: &[Rect<D>],
    right: &[Rect<D>],
    forest: &TileForest<D>,
) -> JoinResult {
    assert_eq!(
        forest.tile_count(),
        plan.partitioner.tile_count(),
        "forest was built under a different partitioning"
    );
    partitioned_join_impl(plan, left, right, None, Some(forest))
}

/// The cross-dataset fast path: **both** sides' columns come from
/// prebuilt [`TileForest`]s — nothing is assigned, nothing is sorted
/// beyond each forest's once-per-tile-version column cache. This is
/// what a catalog-serving layer runs for a cross-dataset join of two
/// datasets that share a tiling. Both forests must be tiled by
/// `plan.partitioner` (tile counts are checked; content correspondence
/// is the caller's contract — each side's [`crate::DatasetStore`]
/// satisfies it for its own forest).
///
/// `right` is the indexed side's object arena (tombstoned slots
/// included — only ids present in the forest are ever looked up).
pub fn partitioned_join_forests<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    left_forest: &TileForest<D>,
    right: &[Rect<D>],
    right_forest: &TileForest<D>,
) -> JoinResult {
    for (side, forest) in [("left", left_forest), ("right", right_forest)] {
        assert_eq!(
            forest.tile_count(),
            plan.partitioner.tile_count(),
            "{side} forest was built under a different partitioning"
        );
    }
    partitioned_join_impl(plan, &[], right, Some(left_forest), Some(right_forest))
}

/// Where a join side's per-tile columns come from: a prebuilt (cached)
/// forest, or a fresh per-call assignment to sort them from. The enum
/// carries exactly one source, so per-tile lookups cannot desynchronise
/// from the setup path.
enum TileSource<'f, const D: usize> {
    Forest(&'f TileForest<D>),
    Assign(Vec<Vec<u32>>),
}

impl<const D: usize> TileSource<'_, D> {
    /// Population of tile `t` on this side (0 for empty tiles).
    fn count(&self, t: usize) -> usize {
        match self {
            TileSource::Forest(f) => f.tree(t).map_or(0, |tree| tree.tree.len()),
            TileSource::Assign(assign) => assign[t].len(),
        }
    }

    /// The columnar SoA layout of tile `t`: shared from the forest's
    /// version-exact cache, or sorted from the assignment for this
    /// call. Both produce the identical canonical layout —
    /// [`TileColumns::from_items`] sorts by `(x-min, id)` regardless of
    /// input order.
    fn columns(&self, objects: &[Rect<D>], t: usize) -> Arc<TileColumns<D>> {
        match self {
            TileSource::Forest(f) => f.columns(t).expect("populated tile has columns"),
            TileSource::Assign(assign) => {
                let items: Vec<(Rect<D>, DataId)> = assign[t]
                    .iter()
                    .map(|&i| (objects[i as usize], DataId(i)))
                    .collect();
                Arc::new(TileColumns::from_items(&items))
            }
        }
    }

    /// The root clip points of tile `t`'s tree, for the sweep's tile
    /// pre-check. Only a forest-backed side has a tree to read them
    /// from; an assigned side prunes on the plain window only.
    fn root_clips(&self, t: usize) -> &[ClipPoint<D>] {
        match self {
            TileSource::Forest(f) => f
                .tree(t)
                .map(|tree| tree.clips_of(tree.tree.root_id()))
                .unwrap_or(&[]),
            TileSource::Assign(_) => &[],
        }
    }
}

fn partitioned_join_impl<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    left: &[Rect<D>],
    right: &[Rect<D>],
    left_forest: Option<&TileForest<D>>,
    right_forest: Option<&TileForest<D>>,
) -> JoinResult {
    // Each side's per-tile population comes from its forest when given
    // (the trees hold exactly the assigned ids), otherwise from
    // assigning now.
    let lsource = match left_forest {
        Some(f) => TileSource::Forest(f),
        None => TileSource::Assign(plan.partitioner.assign(left)),
    };
    let rsource = match right_forest {
        Some(f) => TileSource::Forest(f),
        None => TileSource::Assign(plan.partitioner.assign(right)),
    };
    // Only tiles where both sides are populated can produce pairs.
    let mut tiles: Vec<usize> = (0..plan.partitioner.tile_count())
        .filter(|&t| lsource.count(t) > 0 && rsource.count(t) > 0)
        .collect();
    let weight = |t: usize| (lsource.count(t) as u64).saturating_mul(rsource.count(t) as u64);
    let total = tiles
        .iter()
        .fold(0u64, |acc, &t| acc.saturating_add(weight(t)));
    // Heaviest first (LPT): stragglers start before the queue drains.
    tiles.sort_by_key(|&t| std::cmp::Reverse(weight(t)));
    let (hot_tiles, cold_tiles): (Vec<usize>, Vec<usize>) =
        match plan.split.threshold(total, plan.workers) {
            Some(thr) => tiles.into_iter().partition(|&t| weight(t) > thr),
            None => (Vec::new(), tiles),
        };

    // Level 1: source hot tiles' columns in parallel and cut them into
    // chunks.
    let hot: Vec<HotTile<D>> = map_chunked(plan.workers, &hot_tiles, |_, chunk| {
        chunk
            .iter()
            .map(|&t| build_hot(plan, t, left, &lsource, right, &rsource))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // Level 2: one shared dynamic queue over hot chunks (first — they
    // belong to the heaviest tiles) and whole cold tiles.
    let mut tasks: Vec<Task> = Vec::new();
    for (h, ht) in hot.iter().enumerate() {
        tasks.extend((0..ht.chunks.len()).map(|chunk| Task::SweepChunk { hot: h, chunk }));
    }
    tasks.extend(cold_tiles.iter().map(|&t| Task::Tile(t)));

    let parts = fold_dynamic_tasks(
        plan.workers,
        &tasks,
        JoinResult::default,
        |task, acc: &mut JoinResult| match *task {
            Task::Tile(t) => {
                *acc += join_tile(plan, t, left, &lsource, right, &rsource);
            }
            Task::SweepChunk { hot: h, chunk } => {
                let ht = &hot[h];
                let (side, lo, hi) = ht.chunks[chunk];
                *acc += sweep_scan(&ht.left, &ht.right, side, lo, hi, |a, b| {
                    plan.partitioner.owns(ht.tile, &reference_point(a, b))
                });
            }
        },
    );
    let mut result: JoinResult = parts.into_iter().sum();
    for ht in &hot {
        result += ht.base;
    }
    result
}

/// Sweep one whole tile with the reference-point ownership filter.
fn join_tile<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    tile: usize,
    left: &[Rect<D>],
    lsource: &TileSource<'_, D>,
    right: &[Rect<D>],
    rsource: &TileSource<'_, D>,
) -> JoinResult {
    let (lcols, rcols, mut result, live) = open_tile(plan, tile, left, lsource, right, rsource);
    if live {
        let keep = |a: &Rect<D>, b: &Rect<D>| plan.partitioner.owns(tile, &reference_point(a, b));
        result += sweep_scan(&lcols, &rcols, SweepSide::Left, 0, lcols.len(), keep);
        result += sweep_scan(&lcols, &rcols, SweepSide::Right, 0, rcols.len(), keep);
    }
    result
}

/// Sequential baseline: one global sweep of both sides, one thread, no
/// partitioning and no clip tables. Used by benches and tests as the
/// ground truth the partitioned join must reproduce.
pub fn sequential_join<const D: usize>(left: &[Rect<D>], right: &[Rect<D>]) -> JoinResult {
    let columns = |objects: &[Rect<D>]| {
        let items: Vec<(Rect<D>, DataId)> = objects
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, DataId(i as u32)))
            .collect();
        TileColumns::from_items(&items)
    };
    let (lcols, rcols) = (columns(left), columns(right));
    // The whole input is one logical tile, so the run reports one
    // `tiles_sweep` tick — a 1×1-grid partitioned join is byte-identical.
    let (mut result, live) = sweep_precheck(&lcols, &[], &rcols, &[]);
    result.tiles_sweep += 1;
    if live {
        result += cbb_joins::sweep(&lcols, &rcols);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveGrid;
    use crate::quadtree::QuadtreePartitioner;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_geom::{Point, SplitMix64};
    use cbb_joins::brute_force_pairs;
    use cbb_rtree::Variant;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

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

    /// ~70 % of objects in one corner blob: guarantees a hot tile.
    fn clustered_boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let (cx, cy, s) = if rng.gen_range(0.0, 1.0) < 0.7 {
                    (60.0, 60.0, 30.0)
                } else {
                    (250.0, 250.0, 240.0)
                };
                let x = (cx + rng.gen_range(-s, s)).clamp(0.0, 480.0);
                let y = (cy + rng.gen_range(-s, s)).clamp(0.0, 480.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.5, 15.0),
                    y + rng.gen_range(0.5, 15.0),
                )
            })
            .collect()
    }

    fn plan2(per_dim: usize, workers: usize) -> JoinPlan<2, AdaptiveGrid<2>> {
        JoinPlan::new(
            AdaptiveGrid::from_sample(r2(0.0, 0.0, 500.0, 500.0), [per_dim; 2], &[]),
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            workers,
        )
    }

    fn forest(plan: &JoinPlan<2, AdaptiveGrid<2>>, objects: &[Rect<2>]) -> TileForest<2> {
        TileForest::build(&plan.partitioner, objects, plan.tree, plan.clip, 2)
    }

    /// Tiles where both sides hold at least one object.
    fn populated(plan: &JoinPlan<2, AdaptiveGrid<2>>, a: &[Rect<2>], b: &[Rect<2>]) -> u64 {
        let (la, lb) = (plan.partitioner.assign(a), plan.partitioner.assign(b));
        (0..plan.partitioner.tile_count())
            .filter(|&t| !la[t].is_empty() && !lb[t].is_empty())
            .count() as u64
    }

    #[test]
    fn matches_brute_force_for_every_algo() {
        let a = boxes(250, 1, 20.0);
        let b = boxes(300, 2, 20.0);
        let expected = brute_force_pairs(&a, &b);
        for workers in [1, 4] {
            let plan = plan2(4, workers);
            assert_eq!(
                partitioned_join(&plan, &a, &b).pairs,
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn wide_spanning_objects_do_not_double_count() {
        // Sides up to 150 over 125-wide tiles: most objects span tiles.
        let a = boxes(120, 3, 150.0);
        let b = boxes(140, 4, 150.0);
        let plan = plan2(4, 3);
        assert_eq!(
            partitioned_join(&plan, &a, &b).pairs,
            brute_force_pairs(&a, &b)
        );
    }

    #[test]
    fn unclipped_plan_matches_too() {
        let a = boxes(200, 5, 25.0);
        let b = boxes(200, 6, 25.0);
        let expected = brute_force_pairs(&a, &b);
        let plan = plan2(3, 2).with_clips(false);
        let res = partitioned_join_forests(&plan, &forest(&plan, &a), &b, &forest(&plan, &b));
        assert_eq!(res.pairs, expected);
        assert_eq!(res.clip_prunes, 0, "no clips, no prunes");
    }

    #[test]
    fn empty_inputs() {
        let a = boxes(50, 7, 20.0);
        let plan = plan2(4, 2);
        assert_eq!(partitioned_join(&plan, &a, &[]).pairs, 0);
        assert_eq!(partitioned_join(&plan, &[], &a).pairs, 0);
        assert_eq!(partitioned_join(&plan, &[], &[]), JoinResult::default());
    }

    #[test]
    fn sequential_baseline_agrees() {
        let a = boxes(180, 8, 30.0);
        let b = boxes(220, 9, 30.0);
        let plan = plan2(4, 4);
        assert_eq!(
            sequential_join(&a, &b).pairs,
            partitioned_join(&plan, &a, &b).pairs
        );
    }

    #[test]
    fn decomposition_is_counter_exact() {
        // The two-level scheduler must not change *any* counter relative
        // to whole-tile execution — same columns, same scans, only the
        // work order differs.
        let a = clustered_boxes(500, 10);
        let b = clustered_boxes(550, 11);
        for workers in [2, 4] {
            let never = plan2(4, workers).with_split(SplitPolicy::Never);
            let auto = never.clone().with_split(SplitPolicy::Auto);
            let eager = never.clone().with_split(SplitPolicy::Above(0));
            let base = partitioned_join(&never, &a, &b);
            assert_eq!(partitioned_join(&auto, &a, &b), base, "auto");
            assert_eq!(partitioned_join(&eager, &a, &b), base, "eager");
            // The forest-backed path decomposes counter-exactly too.
            let (fa, fb) = (forest(&never, &a), forest(&never, &b));
            let base = partitioned_join_forests(&never, &fa, &b, &fb);
            assert_eq!(partitioned_join_forests(&auto, &fa, &b, &fb), base);
            assert_eq!(partitioned_join_forests(&eager, &fa, &b, &fb), base);
        }
    }

    #[test]
    fn eager_split_decomposes_every_tile() {
        // Above(0) forces every non-empty tile through the decomposition
        // path; pair counts must still be exact.
        let a = boxes(200, 12, 40.0);
        let b = boxes(200, 13, 40.0);
        let plan = plan2(3, 4).with_split(SplitPolicy::Above(0));
        assert_eq!(
            partitioned_join(&plan, &a, &b).pairs,
            brute_force_pairs(&a, &b)
        );
    }

    #[test]
    fn adaptive_and_quadtree_partitioners_join_exactly() {
        let a = clustered_boxes(400, 14);
        let b = clustered_boxes(450, 15);
        let expected = brute_force_pairs(&a, &b);
        let domain = r2(0.0, 0.0, 500.0, 500.0);
        let adaptive = AdaptiveGrid::from_sample(domain, [4, 4], &a);
        let quadtree = QuadtreePartitioner::build(domain, &a, 120);
        let tree = TreeConfig::tiny(Variant::RStar);
        let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
        let plan = JoinPlan::new(adaptive, tree, clip, 3);
        assert_eq!(partitioned_join(&plan, &a, &b).pairs, expected, "adaptive");
        let plan = JoinPlan::new(quadtree, tree, clip, 3);
        assert_eq!(partitioned_join(&plan, &a, &b).pairs, expected, "quadtree");
    }

    #[test]
    fn forest_join_is_counter_exact() {
        // Cached columns and per-call columns share one canonical sort,
        // so with clips off a forest-backed join reproduces EVERY
        // counter of the build-per-call path, across split policies.
        // With clips on, only the forest side has root clip points to
        // pre-check with, so pruned-tile work may differ — never pairs.
        let a = clustered_boxes(400, 20);
        let b = clustered_boxes(450, 21);
        let base_plan = plan2(4, 3);
        let forest = forest(&base_plan, &b);
        for split in [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)] {
            let plan = base_plan.clone().with_clips(false).with_split(split);
            assert_eq!(
                partitioned_join_with(&plan, &a, &b, &forest),
                partitioned_join(&plan, &a, &b),
                "unclipped {split:?}"
            );
            let clipped = plan.with_clips(true);
            assert_eq!(
                partitioned_join_with(&clipped, &a, &b, &forest).pairs,
                partitioned_join(&clipped, &a, &b).pairs,
                "clipped {split:?}"
            );
        }
    }

    #[test]
    fn forest_join_handles_empty_probe_side() {
        let b = boxes(120, 22, 25.0);
        let plan = plan2(3, 2);
        assert_eq!(
            partitioned_join_with(&plan, &[], &b, &forest(&plan, &b)),
            JoinResult::default()
        );
    }

    #[test]
    #[should_panic(expected = "different partitioning")]
    fn forest_join_rejects_mismatched_tiling() {
        let b = boxes(50, 23, 20.0);
        let plan = plan2(4, 2);
        let forest = forest(&plan, &b);
        let other = plan2(5, 2);
        let _ = partitioned_join_with(&other, &b, &b, &forest);
    }

    #[test]
    fn forests_join_is_counter_exact_for_both_sides_cached() {
        // The cross-dataset fast path: BOTH sides served from prebuilt
        // forests reproduce every counter of the build-per-call join
        // with clips off, and its pairs with clips on.
        let a = clustered_boxes(380, 30);
        let b = clustered_boxes(420, 31);
        let base_plan = plan2(4, 3);
        let (left_forest, right_forest) = (forest(&base_plan, &a), forest(&base_plan, &b));
        for split in [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)] {
            let plan = base_plan.clone().with_clips(false).with_split(split);
            assert_eq!(
                partitioned_join_forests(&plan, &left_forest, &b, &right_forest),
                partitioned_join(&plan, &a, &b),
                "unclipped {split:?}"
            );
            let clipped = plan.with_clips(true);
            assert_eq!(
                partitioned_join_forests(&clipped, &left_forest, &b, &right_forest).pairs,
                brute_force_pairs(&a, &b),
                "clipped {split:?}"
            );
        }
    }

    #[test]
    fn forests_join_supports_every_algo() {
        // `JoinAlgo::Auto` is the one strategy: with both sides cached
        // it sweeps every populated tile — no tree kernel runs.
        let a = clustered_boxes(300, 32);
        let b = clustered_boxes(340, 33);
        let plan = plan2(4, 2);
        let (lf, rf) = (forest(&plan, &a), forest(&plan, &b));
        let cached = partitioned_join_forests(&plan, &lf, &b, &rf);
        assert_eq!(cached.pairs, brute_force_pairs(&a, &b));
        assert_eq!(cached.tiles_sweep, populated(&plan, &a, &b));
        assert_eq!(cached.tiles_stt + cached.tiles_inlj, 0);
        assert_eq!(cached.leaf_accesses() + cached.internal_accesses, 0);
    }

    #[test]
    fn auto_sweeps_every_tile_whatever_is_cached() {
        // Every side shape the service produces — nothing cached, only
        // the indexed side cached (balanced or a tiny probe set), both
        // cached, a self-join — sweeps every populated tile, and pairs
        // equal brute force.
        let a = boxes(200, 34, 25.0);
        let b = boxes(240, 35, 25.0);
        let probe = boxes(8, 36, 25.0);
        let plan = plan2(4, 2);
        let (fa, fb) = (forest(&plan, &a), forest(&plan, &b));
        let runs = [
            ("direct", partitioned_join(&plan, &a, &b), &a, &b),
            (
                "balanced",
                partitioned_join_with(&plan, &a, &b, &fb),
                &a,
                &b,
            ),
            (
                "tiny probe",
                partitioned_join_with(&plan, &probe, &b, &fb),
                &probe,
                &b,
            ),
            (
                "both",
                partitioned_join_forests(&plan, &fa, &b, &fb),
                &a,
                &b,
            ),
            (
                "self",
                partitioned_join_forests(&plan, &fa, &a, &fa),
                &a,
                &a,
            ),
        ];
        for (name, res, l, r) in runs {
            assert_eq!(res.pairs, brute_force_pairs(l, r), "{name}");
            assert_eq!(res.tiles_sweep, populated(&plan, l, r), "{name}");
            assert_eq!(res.tiles_stt + res.tiles_inlj, 0, "{name}");
        }
    }

    /// The default `AutoPolicy` pins the range-fusion thresholds that
    /// were hard-coded constants before the policy was named.
    #[test]
    fn default_auto_policy_reproduces_legacy_thresholds() {
        assert_eq!(
            AutoPolicy::default(),
            AutoPolicy {
                fuse_min_queries: 4,
                fuse_cold_ratio: 8,
            }
        );
        // Fusion gate: width below the minimum never fuses; at the
        // minimum, cold tiles need the 8× cardinality bound and warm
        // tiles always fuse.
        let p = AutoPolicy::default();
        assert!(!p.fuse_tile(3, 0, true));
        assert!(p.fuse_tile(4, 1_000_000, true));
        assert!(p.fuse_tile(4, 32, false));
        assert!(!p.fuse_tile(4, 33, false));
    }

    #[test]
    fn tile_algo_counters_count_each_populated_tile_once() {
        let a = clustered_boxes(300, 37);
        let b = clustered_boxes(320, 38);
        let base_plan = plan2(4, 3);
        let populated = populated(&base_plan, &a, &b);
        for split in [SplitPolicy::Never, SplitPolicy::Above(0)] {
            let res = partitioned_join(&base_plan.clone().with_split(split), &a, &b);
            assert_eq!(res.tiles_sweep, populated, "{split:?}");
            assert_eq!(res.tiles_stt + res.tiles_inlj, 0, "{split:?}");
        }
    }

    #[test]
    fn degenerate_inputs_join_exactly_for_every_algo() {
        // Zero-extent rectangles, exact duplicates, x-min ties, and
        // tile-spanning giants — the sweep's tie-breaks and the dedup
        // filter must agree with brute force, per call and cached.
        let mut a = boxes(60, 39, 150.0);
        a.push(r2(100.0, 100.0, 100.0, 100.0)); // zero extent
        a.push(r2(100.0, 100.0, 100.0, 100.0)); // duplicate of it
        a.push(r2(0.0, 0.0, 500.0, 500.0)); // spans every tile
        let dup = a[0];
        a.push(dup);
        let mut b = boxes(70, 40, 150.0);
        b.push(r2(100.0, 100.0, 100.0, 100.0));
        b.push(r2(250.0, 0.0, 250.0, 500.0)); // zero-width full-height sliver
        let expected = brute_force_pairs(&a, &b);
        for use_clips in [true, false] {
            let plan = plan2(4, 2).with_clips(use_clips);
            assert_eq!(
                partitioned_join(&plan, &a, &b).pairs,
                expected,
                "clips={use_clips}"
            );
            let cached =
                partitioned_join_forests(&plan, &forest(&plan, &a), &b, &forest(&plan, &b));
            assert_eq!(cached.pairs, expected, "cached clips={use_clips}");
        }
    }

    #[test]
    fn split_policy_thresholds() {
        assert_eq!(SplitPolicy::Never.threshold(1_000, 8), None);
        assert_eq!(SplitPolicy::Auto.threshold(1_000, 1), None);
        assert_eq!(SplitPolicy::Auto.threshold(1_000, 4), Some(125));
        assert_eq!(SplitPolicy::Above(7).threshold(1_000, 1), Some(7));
    }
}
