//! Partition-parallel spatial join with two-level dynamic scheduling.
//!
//! The input rectangle sets are multi-assigned to the tiles of a
//! [`Partitioner`], a clipped R-tree is bulk-loaded per tile and side,
//! and the per-tile joins (STT or INLJ, clipped or not) run on the
//! worker pool ([`crate::pool`]) pulling from one shared dynamic queue.
//! Duplicate pairs from spanning objects are eliminated with the
//! reference-point rule
//! (see [`crate::partition`]), so the merged [`JoinResult`] reports
//! **exactly** the global pair count of a sequential join — verified
//! against `brute_force_pairs` and sequential `stt`/`inlj` in the tests.
//!
//! **Two-level scheduling.** Per-tile tasks alone cannot balance skewed
//! data: one dense tile can hold most of the work and straggle the run
//! no matter how the remaining tiles are stolen. Tiles whose estimated
//! work exceeds the [`SplitPolicy`] threshold are therefore *decomposed*
//! — STT tiles into root-level node-pair subtasks
//! ([`cbb_joins::stt_tasks`]), INLJ tiles into probe chunks — and the
//! subtasks are fed to the same dynamic queue as the remaining whole
//! tiles, heaviest first. The decomposition is counter-exact: every
//! [`JoinResult`] field, not just `pairs`, matches the undecomposed run.
//!
//! I/O counters are summed over tiles. They are comparable across runs of
//! the same plan (the paper's join I/O metric per tile), but not directly
//! to a single global-tree join: per-tile trees are smaller and shallower.
//!
//! **Tree reuse across joins.** [`partitioned_join`] builds the per-tile
//! trees of *both* sides per call. A serving layer joining many probe
//! sets against one slowly-changing dataset should instead build a
//! [`TileForest`] over the indexed side once and call
//! [`partitioned_join_with`] per request — only the probe side is
//! (re)built. A [`crate::DatasetStore`] keeps its forest current under
//! writes, so the forest it hands out always matches its arena.
//! Counters and pair counts are identical to the build-per-call path:
//! the same `bulk_load` runs over the same per-tile id lists, and a clip
//! table that is present but unused changes no traversal.

use std::sync::Arc;

use cbb_core::{ClipConfig, ClipPoint};
use cbb_geom::Rect;
use cbb_joins::{
    inlj_filtered, reference_point, stt_filtered, stt_filtered_from, stt_tasks, sweep_precheck,
    sweep_scan, JoinResult, SweepSide, TileColumns,
};
use cbb_rtree::{ClippedRTree, DataId, NodeId, RTree, TreeConfig};

use crate::batch::TileForest;
use crate::partition::{Partitioner, UniformGrid};
use crate::pool::{fold_dynamic_tasks, map_chunked};

/// Which per-tile join strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Synchronised tree traversal: both tile sides are indexed.
    Stt,
    /// Index nested loops: the right tile side is indexed, the left tile
    /// side streamed as probes.
    Inlj,
    /// Plane sweep over the columnar SoA layout ([`TileColumns`]):
    /// neither side is indexed — both are sorted by x-min (extracted
    /// from a cached forest, or sorted for this call) and swept with
    /// forward scans. The fast path for dense index-less tiles, where
    /// one sort beats bulk-loading two trees.
    ///
    /// The §IV clip filter composes at tile granularity: when a side is
    /// forest-backed, its root CBB prunes the tile's sweep window
    /// before any scan runs ([`sweep_precheck`]). An assignment-sourced
    /// side has no tree and therefore no clip points — pair counts are
    /// unaffected (clipping only removes dead space), but `clip_prunes`
    /// and pruned-tile work can differ between the cached and the
    /// build-per-call path, unlike the index algorithms.
    Sweep,
    /// Choose per tile from data already in hand — tile cardinalities
    /// and whether each side's forest (trees + columns) is cached:
    ///
    /// * both sides cached → [`JoinAlgo::Stt`] (the trees exist; the
    ///   lock-step descent does the least work),
    /// * right side cached and the probe side at most 1/8 of it →
    ///   [`JoinAlgo::Inlj`] (few probes against a prebuilt index),
    /// * otherwise → [`JoinAlgo::Sweep`] (building indexes for one
    ///   dense index-less join costs more than one sort).
    ///
    /// The choice is deterministic per tile and recorded in the
    /// [`JoinResult`] `tiles_*` counters; pair counts are identical for
    /// every choice (the oracle tests pin this).
    Auto,
}

/// The concrete kernel a tile runs after [`JoinAlgo::Auto`] resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TileAlgo {
    Stt,
    Inlj,
    Sweep,
}

/// The thresholds every per-tile `Auto` resolution reads — for joins
/// ([`JoinAlgo::Auto`]) and for fused batched range execution
/// ([`crate::QueryAlgo::Auto`]).
///
/// The defaults reproduce the previous hard-coded constants exactly (a
/// regression test pins this), so a plan or service that never touches
/// the policy behaves byte-identically. Tuning is exposed because the
/// right cut-overs are workload- and hardware-dependent: the defaults
/// were chosen on a 1-core container from machine-independent counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoPolicy {
    /// [`JoinAlgo::Auto`]: a probe side at most `1/ratio` of a cached
    /// indexed side is "small" enough that per-probe index descents
    /// beat sorting both sides (INLJ over Sweep). Default 8.
    pub inlj_probe_ratio: usize,
    /// [`crate::QueryAlgo::Auto`]: a tile is fused only when at least
    /// this many of the batch's queries cover it — below that, the
    /// shared scan cannot amortise anything over per-query descents.
    /// Default 4.
    pub fuse_min_queries: usize,
    /// [`crate::QueryAlgo::Auto`], cold tile (columns not yet
    /// extracted): fuse only when the tile holds at most
    /// `queries × ratio` objects, so the one-off `O(n log n)`
    /// column extraction is amortised by the batch that forces it.
    /// A cached tile fuses on `fuse_min_queries` alone. Default 8.
    pub fuse_cold_ratio: usize,
}

impl Default for AutoPolicy {
    fn default() -> Self {
        AutoPolicy {
            inlj_probe_ratio: 8,
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

/// Resolve the per-tile kernel from the plan and the data in hand: the
/// sides' cachedness (forest-backed or assigned for this call) and the
/// tile populations. Deterministic — the hot and cold paths of one run
/// resolve identically.
fn resolve_tile_algo(
    algo: JoinAlgo,
    policy: &AutoPolicy,
    left_cached: bool,
    right_cached: bool,
    left_count: usize,
    right_count: usize,
) -> TileAlgo {
    match algo {
        JoinAlgo::Stt => TileAlgo::Stt,
        JoinAlgo::Inlj => TileAlgo::Inlj,
        JoinAlgo::Sweep => TileAlgo::Sweep,
        JoinAlgo::Auto => {
            if left_cached && right_cached {
                TileAlgo::Stt
            } else if right_cached
                && left_count.saturating_mul(policy.inlj_probe_ratio) <= right_count
            {
                TileAlgo::Inlj
            } else {
                TileAlgo::Sweep
            }
        }
    }
}

/// When to decompose a tile into intra-tile subtasks (the second
/// scheduling level). Estimated tile work is `|left| × |right|`, the
/// candidate cross product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Per-tile tasks only (the PR 1 behaviour): a hot tile serialises
    /// its whole work on one worker.
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

/// A complete partitioned-join plan: partitioning, per-tile index and
/// clipping configuration, strategy, parallelism, and the intra-tile
/// decomposition policy.
#[derive(Clone, Copy, Debug)]
pub struct JoinPlan<const D: usize, P = UniformGrid<D>> {
    /// Spatial partitioning of the workload (any [`Partitioner`]).
    pub partitioner: P,
    /// Template for every per-tile tree (world bounds are taken from the
    /// template as-is; leave `world` unset to derive them per tile).
    pub tree: TreeConfig<D>,
    /// Clip-point parameters for the per-tile trees.
    pub clip: ClipConfig,
    /// Run Algorithm 2 dominance pruning inside each tile join.
    pub use_clips: bool,
    /// Per-tile strategy.
    pub algo: JoinAlgo,
    /// Parallel slots on the worker pool (clamped to the number of
    /// scheduled tasks).
    pub workers: usize,
    /// When to decompose hot tiles into subtasks.
    pub split: SplitPolicy,
    /// Thresholds [`JoinAlgo::Auto`] resolves against (defaults
    /// reproduce the previous hard-coded constants).
    pub auto: AutoPolicy,
}

impl<const D: usize, P> JoinPlan<D, P> {
    /// A plan joining with STT over `partitioner` using `workers`
    /// threads, paper-default clipping, automatic hot-tile decomposition,
    /// and the given tree template.
    pub fn new(partitioner: P, tree: TreeConfig<D>, clip: ClipConfig, workers: usize) -> Self {
        JoinPlan {
            partitioner,
            tree,
            clip,
            use_clips: true,
            algo: JoinAlgo::Stt,
            workers,
            split: SplitPolicy::Auto,
            auto: AutoPolicy::default(),
        }
    }

    /// Switch the per-tile strategy.
    pub fn with_algo(mut self, algo: JoinAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Enable/disable clip-point pruning (the tile trees are built
    /// without clip tables when disabled, so the baseline pays no
    /// Algorithm 1 cost either).
    pub fn with_clips(mut self, use_clips: bool) -> Self {
        self.use_clips = use_clips;
        self
    }

    /// Set the hot-tile decomposition policy.
    pub fn with_split(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// Replace the [`JoinAlgo::Auto`] resolution thresholds.
    pub fn with_auto(mut self, auto: AutoPolicy) -> Self {
        self.auto = auto;
        self
    }
}

/// Bulk-load one side of a tile: `ids` index into `objects` and are kept
/// as global [`DataId`]s so cross-tile dedup reasons about global pairs.
fn build_tile_tree<const D: usize>(
    objects: &[Rect<D>],
    ids: &[u32],
    tree: TreeConfig<D>,
    clip: ClipConfig,
    use_clips: bool,
) -> ClippedRTree<D> {
    let items: Vec<(Rect<D>, DataId)> = ids
        .iter()
        .map(|&i| (objects[i as usize], DataId(i)))
        .collect();
    let base = RTree::bulk_load(tree, &items);
    if use_clips {
        ClippedRTree::from_tree(base, clip)
    } else {
        ClippedRTree::unclipped(base)
    }
}

/// Where a tile's tree (either side) comes from: built for this call,
/// or borrowed from a cached [`TileForest`].
enum TileTree<'f, const D: usize> {
    Owned(ClippedRTree<D>),
    Cached(&'f ClippedRTree<D>),
}

impl<const D: usize> TileTree<'_, D> {
    fn get(&self) -> &ClippedRTree<D> {
        match self {
            TileTree::Owned(t) => t,
            TileTree::Cached(t) => t,
        }
    }
}

/// The right-side tree source of one tile (kept as a named alias — the
/// setup paths below read better with the side spelled out).
type RightTile<'f, const D: usize> = TileTree<'f, D>;

/// A decomposed (hot) tile: its trees are built (or borrowed) once up
/// front, then its subtasks interleave with whole tiles on the shared
/// queue.
enum HotWork<'f, const D: usize> {
    /// STT: both sides indexed; `seeds` are the root-level node pairs
    /// from [`stt_tasks`].
    Stt {
        left: TileTree<'f, D>,
        right: RightTile<'f, D>,
        seeds: Vec<(NodeId, NodeId)>,
    },
    /// INLJ: the right side indexed, the probe list cut into `chunk`-size
    /// subtasks.
    Inlj {
        right: RightTile<'f, D>,
        probes: Vec<Rect<D>>,
        chunk: usize,
    },
    /// Sweep: both sides columnar, the element scans of each side cut
    /// into x-range chunks ([`sweep_scan`] is counter-exact over any
    /// partition of the element ranges). `chunks` is empty when the
    /// tile pre-check pruned the whole sweep.
    Sweep {
        left: Arc<TileColumns<D>>,
        right: Arc<TileColumns<D>>,
        chunks: Vec<(SweepSide, usize, usize)>,
    },
}

struct HotTile<'f, const D: usize> {
    tile: usize,
    /// Root-level counters of the decomposition (directory accesses and
    /// clip prunes the subtasks must not re-count).
    base: JoinResult,
    work: HotWork<'f, D>,
}

/// One unit on the shared dynamic queue.
enum Task {
    /// A whole (cold) tile: build trees and join, as in PR 1.
    Tile(usize),
    /// One STT node-pair seed of a hot tile.
    SttSeed { hot: usize, seed: usize },
    /// One probe chunk of a hot INLJ tile.
    InljChunk { hot: usize, lo: usize, hi: usize },
    /// One element-range chunk of a hot sweep tile.
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

/// Build the decomposed form of one hot tile. The tile's kernel is
/// resolved here with the same inputs as [`join_tile`], so hot and cold
/// tiles of one run always agree.
fn build_hot<'f, const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    tile: usize,
    left: &[Rect<D>],
    lsource: &'f LeftSource<'f, D>,
    right: &[Rect<D>],
    rsource: &'f RightSource<'f, D>,
) -> HotTile<'f, D> {
    let algo = resolve_tile_algo(
        plan.algo,
        &plan.auto,
        lsource.is_forest(),
        rsource.is_forest(),
        lsource.count(tile),
        rsource.count(tile),
    );
    match algo {
        TileAlgo::Stt => {
            let ltree = lsource.tile(plan, left, tile);
            let rtree = rsource.tile(plan, right, tile);
            let (mut base, seeds) = stt_tasks(ltree.get(), rtree.get(), plan.use_clips);
            base.tiles_stt += 1;
            HotTile {
                tile,
                base,
                work: HotWork::Stt {
                    left: ltree,
                    right: rtree,
                    seeds,
                },
            }
        }
        TileAlgo::Inlj => {
            let probes = lsource.probes(left, tile);
            let rtree = rsource.tile(plan, right, tile);
            // Aim for a few chunks per worker so the queue can rebalance.
            let chunk = probes.len().div_ceil((plan.workers * 4).max(1)).max(1);
            HotTile {
                tile,
                base: JoinResult {
                    tiles_inlj: 1,
                    ..JoinResult::default()
                },
                work: HotWork::Inlj {
                    right: rtree,
                    probes,
                    chunk,
                },
            }
        }
        TileAlgo::Sweep => {
            let lcols = lsource.columns(left, tile);
            let rcols = rsource.columns(right, tile);
            let (lclips, rclips) = if plan.use_clips {
                (lsource.root_clips(tile), rsource.root_clips(tile))
            } else {
                (&[][..], &[][..])
            };
            let (mut base, live) = sweep_precheck(&lcols, lclips, &rcols, rclips);
            base.tiles_sweep += 1;
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
                work: HotWork::Sweep {
                    left: lcols,
                    right: rcols,
                    chunks,
                },
            }
        }
    }
}

/// Run the partitioned parallel join of `left ⋈ right` under `plan`.
///
/// Returns the merged counters; `pairs` equals the sequential
/// `stt`/`inlj` (and brute-force) pair count exactly, for every
/// partitioner and split policy.
pub fn partitioned_join<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    left: &[Rect<D>],
    right: &[Rect<D>],
) -> JoinResult {
    partitioned_join_impl(plan, left, right, None, None)
}

/// [`partitioned_join`] with the right (indexed) side's per-tile trees
/// taken from a prebuilt [`TileForest`] instead of being rebuilt — the
/// repeat-join fast path. The forest must have been built over `right`
/// under `plan.partitioner` with `plan.tree`/`plan.clip` (tile counts
/// are checked; content correspondence is the caller's contract — a
/// [`crate::DatasetStore`]'s own forest and arena satisfy it).
///
/// Every counter of the returned [`JoinResult`] equals the build-per-call
/// path exactly; only the right-side build work (assignment + bulk
/// loading) is skipped.
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

/// The cross-dataset fast path: **both** sides come from prebuilt
/// [`TileForest`]s — nothing is assigned, nothing is bulk loaded. This
/// is what a catalog-serving layer runs for a cross-dataset join of two
/// datasets that share a tiling: the probe dataset's cached forest *is*
/// the per-tile left side a [`partitioned_join`] would have built, so
/// every counter of the returned [`JoinResult`] equals the
/// build-per-call path exactly (rect-identical trees traverse
/// identically; id values play no part in traversal or reference-point
/// dedup).
///
/// Every [`JoinAlgo`] is supported: STT borrows both trees, INLJ reads
/// its probe list from the probe forest's cached columns, the sweep
/// borrows both sides' cached [`TileColumns`], and [`JoinAlgo::Auto`]
/// sees two cached sides and resolves to STT. Both forests must be
/// tiled by `plan.partitioner` (tile counts are checked; content
/// correspondence is the caller's contract — each side's
/// [`crate::DatasetStore`] satisfies it for its own forest).
///
/// `right` is the indexed side's object arena (tombstoned slots
/// included — only ids present in the forest's trees are ever looked
/// up).
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

/// Where a join side's per-tile trees come from: a prebuilt (cached)
/// forest, or a fresh per-call assignment to build tile trees from. The
/// enum carries exactly one source, so per-tile lookups cannot
/// desynchronise from the setup path.
enum TileSource<'f, const D: usize> {
    Forest(&'f TileForest<D>),
    Assign(Vec<Vec<u32>>),
}

/// The two sides read the same source type; the aliases keep the setup
/// paths legible.
type LeftSource<'f, const D: usize> = TileSource<'f, D>;
type RightSource<'f, const D: usize> = TileSource<'f, D>;

impl<const D: usize> TileSource<'_, D> {
    /// Whether this side is forest-backed (trees and columns cached) —
    /// the cachedness input of [`JoinAlgo::Auto`] resolution.
    fn is_forest(&self) -> bool {
        matches!(self, TileSource::Forest(_))
    }

    /// Population of tile `t` on this side (0 for empty tiles).
    fn count(&self, t: usize) -> usize {
        match self {
            TileSource::Forest(f) => f.tree(t).map_or(0, |tree| tree.tree.len()),
            TileSource::Assign(assign) => assign[t].len(),
        }
    }

    /// The tree of a populated tile `t`: borrowed from the forest, or
    /// built from the assignment for this call.
    fn tile<'s, P: Partitioner<D>>(
        &'s self,
        plan: &JoinPlan<D, P>,
        objects: &[Rect<D>],
        t: usize,
    ) -> TileTree<'s, D> {
        match self {
            TileSource::Forest(f) => {
                TileTree::Cached(f.tree(t).expect("populated tile has a tree"))
            }
            TileSource::Assign(assign) => TileTree::Owned(build_tile_tree(
                objects,
                &assign[t],
                plan.tree,
                plan.clip,
                plan.use_clips,
            )),
        }
    }

    /// The raw probe rectangles of tile `t` (INLJ left side). A
    /// forest-backed side reads them from its cached columns (x-sorted
    /// order — INLJ's counters are order-independent sums, so this is
    /// indistinguishable from assignment order); an assigned side
    /// gathers them from the arena.
    fn probes(&self, objects: &[Rect<D>], t: usize) -> Vec<Rect<D>> {
        match self {
            TileSource::Forest(f) => f.columns(t).map(|c| c.rects()).unwrap_or_default(),
            TileSource::Assign(assign) => assign[t].iter().map(|&i| objects[i as usize]).collect(),
        }
    }

    /// The columnar SoA layout of tile `t` (sweep sides): shared from
    /// the forest's version-exact cache, or sorted from the assignment
    /// for this call. Both produce the identical canonical layout —
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
    /// from; an assigned sweep side is index-less by design and prunes
    /// on the plain window only.
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
        Some(f) => LeftSource::Forest(f),
        None => LeftSource::Assign(plan.partitioner.assign(left)),
    };
    let source = match right_forest {
        Some(f) => RightSource::Forest(f),
        None => RightSource::Assign(plan.partitioner.assign(right)),
    };
    // Only tiles where both sides are populated can produce pairs.
    let mut tiles: Vec<usize> = (0..plan.partitioner.tile_count())
        .filter(|&t| lsource.count(t) > 0 && source.count(t) > 0)
        .collect();
    let weight = |t: usize| (lsource.count(t) as u64).saturating_mul(source.count(t) as u64);
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

    // Level 1: build hot tiles' trees/columns in parallel and decompose
    // them.
    let hot: Vec<HotTile<D>> = map_chunked(plan.workers, &hot_tiles, |_, chunk| {
        chunk
            .iter()
            .map(|&t| build_hot(plan, t, left, &lsource, right, &source))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // Level 2: one shared dynamic queue over hot subtasks (first — they
    // belong to the heaviest tiles) and whole cold tiles.
    let mut tasks: Vec<Task> = Vec::new();
    for (h, ht) in hot.iter().enumerate() {
        match &ht.work {
            HotWork::Stt { seeds, .. } => {
                tasks.extend((0..seeds.len()).map(|seed| Task::SttSeed { hot: h, seed }));
            }
            HotWork::Inlj { probes, chunk, .. } => {
                let mut lo = 0;
                while lo < probes.len() {
                    let hi = (lo + chunk).min(probes.len());
                    tasks.push(Task::InljChunk { hot: h, lo, hi });
                    lo = hi;
                }
            }
            HotWork::Sweep { chunks, .. } => {
                tasks.extend((0..chunks.len()).map(|chunk| Task::SweepChunk { hot: h, chunk }));
            }
        }
    }
    tasks.extend(cold_tiles.iter().map(|&t| Task::Tile(t)));

    let parts = fold_dynamic_tasks(
        plan.workers,
        &tasks,
        JoinResult::default,
        |task, acc: &mut JoinResult| match *task {
            Task::Tile(t) => {
                *acc += join_tile(plan, t, left, &lsource, right, &source);
            }
            Task::SttSeed { hot: h, seed } => {
                let ht = &hot[h];
                let HotWork::Stt {
                    left: ltree,
                    right: rtree,
                    seeds,
                } = &ht.work
                else {
                    unreachable!("STT seed on a non-STT tile");
                };
                let (lid, rid) = seeds[seed];
                *acc += stt_filtered_from(
                    ltree.get(),
                    lid,
                    rtree.get(),
                    rid,
                    plan.use_clips,
                    |a, b| plan.partitioner.owns(ht.tile, &reference_point(a, b)),
                );
            }
            Task::InljChunk { hot: h, lo, hi } => {
                let ht = &hot[h];
                let HotWork::Inlj {
                    right: rtree,
                    probes,
                    ..
                } = &ht.work
                else {
                    unreachable!("INLJ chunk on a non-INLJ tile");
                };
                *acc += inlj_filtered(&probes[lo..hi], rtree.get(), plan.use_clips, |probe, id| {
                    plan.partitioner
                        .owns(ht.tile, &reference_point(probe, &right[id.0 as usize]))
                });
            }
            Task::SweepChunk { hot: h, chunk } => {
                let ht = &hot[h];
                let HotWork::Sweep {
                    left: lcols,
                    right: rcols,
                    chunks,
                } = &ht.work
                else {
                    unreachable!("sweep chunk on a non-sweep tile");
                };
                let (side, lo, hi) = chunks[chunk];
                *acc += sweep_scan(lcols, rcols, side, lo, hi, |a, b| {
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

/// Join one whole tile: resolve the kernel ([`resolve_tile_algo`] —
/// identical inputs to [`build_hot`], so hot and cold tiles of one run
/// agree), source only what that kernel needs (trees, probe list, or
/// columns), and run it with the reference-point ownership filter.
fn join_tile<const D: usize, P: Partitioner<D>>(
    plan: &JoinPlan<D, P>,
    tile: usize,
    left: &[Rect<D>],
    lsource: &LeftSource<'_, D>,
    right: &[Rect<D>],
    rsource: &RightSource<'_, D>,
) -> JoinResult {
    let algo = resolve_tile_algo(
        plan.algo,
        &plan.auto,
        lsource.is_forest(),
        rsource.is_forest(),
        lsource.count(tile),
        rsource.count(tile),
    );
    match algo {
        TileAlgo::Stt => {
            let ltree = lsource.tile(plan, left, tile);
            let rtree = rsource.tile(plan, right, tile);
            let mut result = stt_filtered(ltree.get(), rtree.get(), plan.use_clips, |a, b| {
                plan.partitioner.owns(tile, &reference_point(a, b))
            });
            result.tiles_stt += 1;
            result
        }
        TileAlgo::Inlj => {
            let probes = lsource.probes(left, tile);
            let rtree = rsource.tile(plan, right, tile);
            let mut result = inlj_filtered(&probes, rtree.get(), plan.use_clips, |probe, id| {
                plan.partitioner
                    .owns(tile, &reference_point(probe, &right[id.0 as usize]))
            });
            result.tiles_inlj += 1;
            result
        }
        TileAlgo::Sweep => {
            let lcols = lsource.columns(left, tile);
            let rcols = rsource.columns(right, tile);
            let (lclips, rclips) = if plan.use_clips {
                (lsource.root_clips(tile), rsource.root_clips(tile))
            } else {
                (&[][..], &[][..])
            };
            let (mut result, live) = sweep_precheck(&lcols, lclips, &rcols, rclips);
            result.tiles_sweep += 1;
            if live {
                let keep =
                    |a: &Rect<D>, b: &Rect<D>| plan.partitioner.owns(tile, &reference_point(a, b));
                result += sweep_scan(&lcols, &rcols, SweepSide::Left, 0, lcols.len(), keep);
                result += sweep_scan(&lcols, &rcols, SweepSide::Right, 0, rcols.len(), keep);
            }
            result
        }
    }
}

/// Sequential baseline with the same per-tile index configuration: one
/// global tree per side, one thread, no partitioning. Used by benches and
/// tests as the ground truth the partitioned join must reproduce.
pub fn sequential_join<const D: usize, P>(
    plan: &JoinPlan<D, P>,
    left: &[Rect<D>],
    right: &[Rect<D>],
) -> JoinResult {
    let all_left: Vec<u32> = (0..left.len() as u32).collect();
    let all_right: Vec<u32> = (0..right.len() as u32).collect();
    // The whole input is one logical tile, so the run reports one
    // `tiles_*` tick — a 1×1-grid partitioned join is byte-identical.
    match plan.algo {
        JoinAlgo::Stt => {
            let ltree = build_tile_tree(left, &all_left, plan.tree, plan.clip, plan.use_clips);
            let rtree = build_tile_tree(right, &all_right, plan.tree, plan.clip, plan.use_clips);
            let mut result = cbb_joins::stt(&ltree, &rtree, plan.use_clips);
            result.tiles_stt += 1;
            result
        }
        JoinAlgo::Inlj => {
            let rtree = build_tile_tree(right, &all_right, plan.tree, plan.clip, plan.use_clips);
            let mut result = cbb_joins::inlj(left, &rtree, plan.use_clips);
            result.tiles_inlj += 1;
            result
        }
        // Sequentially nothing is cached, which is precisely the state
        // Auto resolves to a sweep for — so both run the one global
        // sweep, index-less (no trees means no clip tables either).
        JoinAlgo::Sweep | JoinAlgo::Auto => {
            let to_items = |objects: &[Rect<D>], ids: &[u32]| -> Vec<(Rect<D>, DataId)> {
                ids.iter()
                    .map(|&i| (objects[i as usize], DataId(i)))
                    .collect()
            };
            let lcols = TileColumns::from_items(&to_items(left, &all_left));
            let rcols = TileColumns::from_items(&to_items(right, &all_right));
            let (mut result, live) = sweep_precheck(&lcols, &[], &rcols, &[]);
            result.tiles_sweep += 1;
            if live {
                result += cbb_joins::sweep(&lcols, &rcols);
            }
            result
        }
    }
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

    fn plan2(per_dim: usize, workers: usize) -> JoinPlan<2> {
        JoinPlan::new(
            UniformGrid::new(r2(0.0, 0.0, 500.0, 500.0), per_dim),
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            workers,
        )
    }

    const ALL_ALGOS: [JoinAlgo; 4] = [
        JoinAlgo::Stt,
        JoinAlgo::Inlj,
        JoinAlgo::Sweep,
        JoinAlgo::Auto,
    ];

    #[test]
    fn matches_brute_force_for_every_algo() {
        let a = boxes(250, 1, 20.0);
        let b = boxes(300, 2, 20.0);
        let expected = brute_force_pairs(&a, &b);
        for algo in ALL_ALGOS {
            for workers in [1, 4] {
                let plan = plan2(4, workers).with_algo(algo);
                assert_eq!(
                    partitioned_join(&plan, &a, &b).pairs,
                    expected,
                    "{algo:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn wide_spanning_objects_do_not_double_count() {
        // Sides up to 150 over 125-wide tiles: most objects span tiles.
        let a = boxes(120, 3, 150.0);
        let b = boxes(140, 4, 150.0);
        let expected = brute_force_pairs(&a, &b);
        for algo in ALL_ALGOS {
            let plan = plan2(4, 3).with_algo(algo);
            assert_eq!(partitioned_join(&plan, &a, &b).pairs, expected, "{algo:?}");
        }
    }

    #[test]
    fn unclipped_plan_matches_too() {
        let a = boxes(200, 5, 25.0);
        let b = boxes(200, 6, 25.0);
        let expected = brute_force_pairs(&a, &b);
        let plan = plan2(3, 2).with_clips(false);
        let res = partitioned_join(&plan, &a, &b);
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
        for algo in ALL_ALGOS {
            let plan = plan2(4, 4).with_algo(algo);
            assert_eq!(
                sequential_join(&plan, &a, &b).pairs,
                partitioned_join(&plan, &a, &b).pairs,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn decomposition_is_counter_exact() {
        // The two-level scheduler must not change *any* counter relative
        // to whole-tile execution — same trees/columns, same traversals
        // and scans, only the work order differs. Auto qualifies too:
        // resolution reads only per-tile facts, so hot and cold paths
        // pick the same kernel.
        let a = clustered_boxes(500, 10);
        let b = clustered_boxes(550, 11);
        for algo in ALL_ALGOS {
            for workers in [2, 4] {
                let never = plan2(4, workers)
                    .with_algo(algo)
                    .with_split(SplitPolicy::Never);
                let auto = never.with_split(SplitPolicy::Auto);
                let eager = never.with_split(SplitPolicy::Above(0));
                let base = partitioned_join(&never, &a, &b);
                assert_eq!(partitioned_join(&auto, &a, &b), base, "{algo:?} auto");
                assert_eq!(partitioned_join(&eager, &a, &b), base, "{algo:?} eager");
            }
        }
    }

    #[test]
    fn eager_split_decomposes_every_tile() {
        // Above(0) forces every non-empty tile through the decomposition
        // path; pair counts must still be exact.
        let a = boxes(200, 12, 40.0);
        let b = boxes(200, 13, 40.0);
        let expected = brute_force_pairs(&a, &b);
        for algo in ALL_ALGOS {
            let plan = plan2(3, 4)
                .with_algo(algo)
                .with_split(SplitPolicy::Above(0));
            assert_eq!(partitioned_join(&plan, &a, &b).pairs, expected, "{algo:?}");
        }
    }

    #[test]
    fn adaptive_and_quadtree_partitioners_join_exactly() {
        let a = clustered_boxes(400, 14);
        let b = clustered_boxes(450, 15);
        let expected = brute_force_pairs(&a, &b);
        let domain = r2(0.0, 0.0, 500.0, 500.0);
        let adaptive = AdaptiveGrid::from_sample(domain, [4, 4], &a);
        let quadtree = QuadtreePartitioner::build(domain, &a, 120);
        for algo in ALL_ALGOS {
            let plan = JoinPlan::new(
                adaptive.clone(),
                TreeConfig::tiny(Variant::RStar),
                ClipConfig::paper_default::<2>(ClipMethod::Stairline),
                3,
            )
            .with_algo(algo);
            assert_eq!(
                partitioned_join(&plan, &a, &b).pairs,
                expected,
                "adaptive {algo:?}"
            );
            let plan = JoinPlan::new(
                quadtree.clone(),
                TreeConfig::tiny(Variant::RStar),
                ClipConfig::paper_default::<2>(ClipMethod::Stairline),
                3,
            )
            .with_algo(algo);
            assert_eq!(
                partitioned_join(&plan, &a, &b).pairs,
                expected,
                "quadtree {algo:?}"
            );
        }
    }

    #[test]
    fn forest_join_is_counter_exact() {
        // Joining against a prebuilt forest must reproduce EVERY counter
        // of the build-per-call path, for both algorithms, clipped and
        // not, across split policies — same trees, same traversals.
        let a = clustered_boxes(400, 20);
        let b = clustered_boxes(450, 21);
        let base_plan = plan2(4, 3);
        let forest = TileForest::build(
            &base_plan.partitioner,
            &b,
            base_plan.tree,
            base_plan.clip,
            3,
        );
        for algo in [JoinAlgo::Stt, JoinAlgo::Inlj] {
            for use_clips in [true, false] {
                for split in [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)] {
                    let plan = base_plan
                        .with_algo(algo)
                        .with_clips(use_clips)
                        .with_split(split);
                    let direct = partitioned_join(&plan, &a, &b);
                    let cached = partitioned_join_with(&plan, &a, &b, &forest);
                    assert_eq!(cached, direct, "{algo:?} clips={use_clips} {split:?}");
                }
            }
        }
        // The sweep is byte-equal too when clips are off (cached columns
        // and per-call columns share one canonical sort). With clips on,
        // only the forest-backed side has a tree to read root clip
        // points from, so pruned-tile work may differ — but never pairs.
        for split in [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)] {
            let plan = base_plan
                .with_algo(JoinAlgo::Sweep)
                .with_clips(false)
                .with_split(split);
            assert_eq!(
                partitioned_join_with(&plan, &a, &b, &forest),
                partitioned_join(&plan, &a, &b),
                "sweep unclipped {split:?}"
            );
            let clipped = plan.with_clips(true);
            assert_eq!(
                partitioned_join_with(&clipped, &a, &b, &forest).pairs,
                partitioned_join(&clipped, &a, &b).pairs,
                "sweep clipped {split:?}"
            );
        }
        // Auto may resolve differently depending on which sides are
        // cached — the pair set must not notice.
        let auto_plan = base_plan.with_algo(JoinAlgo::Auto);
        assert_eq!(
            partitioned_join_with(&auto_plan, &a, &b, &forest).pairs,
            partitioned_join(&auto_plan, &a, &b).pairs,
            "auto cached vs direct"
        );
    }

    #[test]
    fn forest_join_handles_empty_probe_side() {
        let b = boxes(120, 22, 25.0);
        let plan = plan2(3, 2);
        let forest = TileForest::build(&plan.partitioner, &b, plan.tree, plan.clip, 2);
        assert_eq!(
            partitioned_join_with(&plan, &[], &b, &forest),
            JoinResult::default()
        );
    }

    #[test]
    #[should_panic(expected = "different partitioning")]
    fn forest_join_rejects_mismatched_tiling() {
        let b = boxes(50, 23, 20.0);
        let plan = plan2(4, 2);
        let forest = TileForest::build(&plan.partitioner, &b, plan.tree, plan.clip, 2);
        let other = plan2(5, 2);
        let _ = partitioned_join_with(&other, &b, &b, &forest);
    }

    #[test]
    fn forests_join_is_counter_exact_for_both_sides_cached() {
        // The cross-dataset STT fast path: BOTH sides served from
        // prebuilt forests must reproduce EVERY counter of the
        // build-per-call join, clipped and not, across split policies.
        let a = clustered_boxes(380, 30);
        let b = clustered_boxes(420, 31);
        let base_plan = plan2(4, 3);
        let left_forest = TileForest::build(
            &base_plan.partitioner,
            &a,
            base_plan.tree,
            base_plan.clip,
            3,
        );
        let right_forest = TileForest::build(
            &base_plan.partitioner,
            &b,
            base_plan.tree,
            base_plan.clip,
            3,
        );
        for use_clips in [true, false] {
            for split in [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)] {
                let plan = base_plan.with_clips(use_clips).with_split(split);
                let direct = partitioned_join(&plan, &a, &b);
                let cached = partitioned_join_forests(&plan, &left_forest, &b, &right_forest);
                assert_eq!(cached, direct, "clips={use_clips} {split:?}");
            }
        }
        assert_eq!(
            partitioned_join_forests(&base_plan, &left_forest, &b, &right_forest).pairs,
            brute_force_pairs(&a, &b)
        );
    }

    #[test]
    fn forests_join_supports_every_algo() {
        // PR 5 left INLJ (and now the sweep) off the both-sides-cached
        // path; every algorithm now runs forest-native. INLJ reads its
        // probes from the probe forest's columns (x-sorted — its
        // counters are order-independent sums, so still byte-equal to
        // the build-per-call run); Auto sees two cached sides and
        // resolves to STT.
        let a = clustered_boxes(300, 32);
        let b = clustered_boxes(340, 33);
        let base_plan = plan2(4, 2);
        let lf = TileForest::build(
            &base_plan.partitioner,
            &a,
            base_plan.tree,
            base_plan.clip,
            2,
        );
        let rf = TileForest::build(
            &base_plan.partitioner,
            &b,
            base_plan.tree,
            base_plan.clip,
            2,
        );
        let expected = brute_force_pairs(&a, &b);
        for algo in [JoinAlgo::Stt, JoinAlgo::Inlj] {
            let plan = base_plan.with_algo(algo);
            let direct = partitioned_join(&plan, &a, &b);
            let cached = partitioned_join_forests(&plan, &lf, &b, &rf);
            assert_eq!(cached, direct, "{algo:?}");
            assert_eq!(cached.pairs, expected, "{algo:?}");
        }
        let sweep_plan = base_plan.with_algo(JoinAlgo::Sweep).with_clips(false);
        assert_eq!(
            partitioned_join_forests(&sweep_plan, &lf, &b, &rf),
            partitioned_join(&sweep_plan, &a, &b),
            "sweep unclipped"
        );
        for algo in [JoinAlgo::Sweep, JoinAlgo::Auto] {
            let plan = base_plan.with_algo(algo);
            let cached = partitioned_join_forests(&plan, &lf, &b, &rf);
            assert_eq!(cached.pairs, expected, "{algo:?}");
        }
        // Auto with both sides cached is STT on every populated tile.
        let auto = partitioned_join_forests(&base_plan.with_algo(JoinAlgo::Auto), &lf, &b, &rf);
        assert!(auto.tiles_stt > 0);
        assert_eq!(auto.tiles_inlj + auto.tiles_sweep, 0);
    }

    #[test]
    fn auto_resolution_follows_cachedness_and_cardinality() {
        // Direct join: nothing cached → every tile sweeps.
        let a = boxes(200, 34, 25.0);
        let b = boxes(240, 35, 25.0);
        let plan = plan2(4, 2).with_algo(JoinAlgo::Auto);
        let direct = partitioned_join(&plan, &a, &b);
        assert!(direct.tiles_sweep > 0);
        assert_eq!(direct.tiles_stt + direct.tiles_inlj, 0);

        // Tiny probe set against a cached forest → INLJ tiles (1/8
        // ratio met wherever the probe tile is small enough).
        let probe = boxes(8, 36, 25.0);
        let forest = TileForest::build(&plan.partitioner, &b, plan.tree, plan.clip, 2);
        let asym = partitioned_join_with(&plan, &probe, &b, &forest);
        assert!(asym.tiles_inlj > 0, "small probes should index-probe");
        assert_eq!(asym.tiles_stt, 0, "one cached side is never STT");

        // Balanced sides with only the right cached → the ratio fails
        // and the sweep takes over.
        let balanced = partitioned_join_with(&plan, &a, &b, &forest);
        assert!(balanced.tiles_sweep > 0);
        assert_eq!(balanced.pairs, brute_force_pairs(&a, &b));
    }

    /// The named [`AutoPolicy`] replaced hard-coded `Auto` thresholds;
    /// the default must reproduce them byte-for-byte, and a plan built
    /// without [`JoinPlan::with_auto`] must behave identically to one
    /// carrying an explicit default policy.
    #[test]
    fn default_auto_policy_reproduces_legacy_thresholds() {
        assert_eq!(
            AutoPolicy::default(),
            AutoPolicy {
                inlj_probe_ratio: 8,
                fuse_min_queries: 4,
                fuse_cold_ratio: 8,
            }
        );
        // The INLJ resolution table of the previous hard-coded 8×
        // ratio, spelled out: probes × 8 ≤ tile cardinality.
        let p = AutoPolicy::default();
        for (probes, tile, expect_inlj) in
            [(1, 8, true), (1, 7, false), (10, 80, true), (10, 79, false)]
        {
            assert_eq!(
                probes * p.inlj_probe_ratio <= tile,
                expect_inlj,
                "probes={probes} tile={tile}"
            );
        }
        // Fusion gate: width below the minimum never fuses; at the
        // minimum, cold tiles need the 8× cardinality bound and warm
        // tiles always fuse.
        assert!(!p.fuse_tile(3, 0, true));
        assert!(p.fuse_tile(4, 1_000_000, true));
        assert!(p.fuse_tile(4, 32, false));
        assert!(!p.fuse_tile(4, 33, false));

        let a = boxes(200, 34, 25.0);
        let b = boxes(240, 35, 25.0);
        let plan = plan2(4, 2).with_algo(JoinAlgo::Auto);
        let explicit = plan.with_auto(AutoPolicy::default());
        let forest = TileForest::build(&plan.partitioner, &b, plan.tree, plan.clip, 2);
        let default_run = partitioned_join_with(&plan, &a, &b, &forest);
        let explicit_run = partitioned_join_with(&explicit, &a, &b, &forest);
        assert_eq!(default_run, explicit_run);
        // A policy with a stricter ratio moves tiles off INLJ — the
        // knob is live, not decorative.
        let strict = plan.with_auto(AutoPolicy {
            inlj_probe_ratio: usize::MAX,
            ..AutoPolicy::default()
        });
        let probe = boxes(8, 36, 25.0);
        let strict_run = partitioned_join_with(&strict, &probe, &b, &forest);
        assert_eq!(strict_run.tiles_inlj, 0, "MAX ratio must disable INLJ");
        assert_eq!(
            strict_run.pairs,
            partitioned_join_with(&plan, &probe, &b, &forest).pairs
        );
    }

    #[test]
    fn tile_algo_counters_count_each_populated_tile_once() {
        let a = clustered_boxes(300, 37);
        let b = clustered_boxes(320, 38);
        let base_plan = plan2(4, 3);
        let la = base_plan.partitioner.assign(&a);
        let lb = base_plan.partitioner.assign(&b);
        let populated = (0..base_plan.partitioner.tile_count())
            .filter(|&t| !la[t].is_empty() && !lb[t].is_empty())
            .count() as u64;
        for algo in ALL_ALGOS {
            for split in [SplitPolicy::Never, SplitPolicy::Above(0)] {
                let res = partitioned_join(&base_plan.with_algo(algo).with_split(split), &a, &b);
                assert_eq!(
                    res.tiles_stt + res.tiles_inlj + res.tiles_sweep,
                    populated,
                    "{algo:?} {split:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_join_exactly_for_every_algo() {
        // Zero-extent rectangles, exact duplicates, x-min ties, and
        // tile-spanning giants — the sweep's tie-breaks and the dedup
        // filter must agree with brute force for every kernel.
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
        for algo in ALL_ALGOS {
            for use_clips in [true, false] {
                let plan = plan2(4, 2).with_algo(algo).with_clips(use_clips);
                assert_eq!(
                    partitioned_join(&plan, &a, &b).pairs,
                    expected,
                    "{algo:?} clips={use_clips}"
                );
            }
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
