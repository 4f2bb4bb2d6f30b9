//! The multi-dataset layer: a [`DatasetStore`] per named dataset and
//! the [`Catalog`] that owns them.
//!
//! Production spatial systems are *catalogs of layers* joined against
//! each other — SATO-style systems partition and serve many named
//! layers side by side (Aji et al., *Effective Spatial Data
//! Partitioning for Scalable Query Processing*), and parallel in-memory
//! spatial joins are defined across two independently indexed inputs
//! (Tsitsigkos & Mamoulis, *Parallel In-Memory Evaluation of Spatial
//! Joins*). This module promotes the engine's single implicit dataset
//! to that model:
//!
//! * [`DatasetStore`] — the mutable versioned store: object arena, liveness mask,
//!   free-slot list, partitioner, [`TileForest`], and a per-dataset
//!   [`DataVersion`]. It owns the read path (range/kNN batches), the
//!   write path ([`DatasetStore::apply_updates`], with threshold-driven
//!   arena compaction), and wholesale replacement
//!   ([`DatasetStore::swap`]).
//! * [`Catalog`] — a concurrent map `DatasetId -> DatasetStore`, each
//!   store behind its own `RwLock` so writes to dataset A never
//!   serialize reads of dataset B. Ids are never reused, which keeps
//!   `(DatasetId, DataVersion)` cache keys unambiguous forever.
//!
//! Each dataset carries its **own** partitioner instance (and, through
//! [`crate::AnyPartitioner`], its own partitioner *kind*), fitted to
//! its data; cross-dataset joins re-partition the probe side onto the
//! indexed side's tiling (see [`crate::join::partitioned_join_forests`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

use cbb_core::ClipConfig;
use cbb_geom::{Point, Rect};
use cbb_joins::{reference_point, sweep_queries_scan, SweepSide, TileColumns};
use cbb_rtree::{AccessStats, DataId, Neighbor, TreeConfig};

use crate::batch::{BatchOutcome, KnnOutcome, QueryAlgo, TileForest};
use crate::join::{AutoPolicy, SplitPolicy};
use crate::partition::{DataVersion, Partitioner};
use crate::persist::SnapshotContents;
use crate::pool::map_chunked;
use crate::update::{Update, UpdateOutcome, UpdateResult};

/// Identity of a dataset in a [`Catalog`]. Ids are assigned by the
/// catalog at creation, are unique over the catalog's lifetime, and are
/// **never reused** after a drop — so a `(DatasetId, DataVersion)` pair
/// can never alias a different dataset's state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u32);

/// The tombstoned fraction of the arena past which a [`DatasetStore`]
/// reclaims dead slots: rare enough that id assignment stays
/// append-like under light churn, early enough that a delete-heavy
/// stream cannot triple the arena.
///
/// Deletes tombstone their slot (the id never reappears in any tree,
/// live ids stay stable), but an append-only arena grows without bound
/// under churn. After every write batch, once tombstones exceed this
/// fraction of the arena, a sweep moves every dead slot to a free list;
/// later inserts reuse freed slots (smallest id first) instead of
/// growing the arena. Live ids are untouched — only dead ids are
/// recycled. The rule is fixed, so replaying the same batches over the
/// same arena and free list reassigns the same ids.
///
/// **Id-reuse caveat:** once a dead slot is reclaimed and reassigned,
/// a *stale* delete of the old id (a client retrying a delete whose
/// response was lost) targets the new occupant — [`DataId`]s carry no
/// generation tag to tell the difference, so applied deletes are not
/// idempotent across a sweep. At-least-once clients that retry deletes
/// must dedup delete retries on their side.
pub const COMPACT_DEAD_FRACTION: f64 = 0.3;

/// One mutable versioned spatial dataset: the arena / liveness /
/// partitioner / forest state every executor and serving layer shares.
///
/// The store is the unit a [`Catalog`] maps a [`DatasetId`] to. It is
/// deliberately lock-free itself — the catalog wraps each store in an
/// `RwLock`, and a single-dataset caller owns one directly.
///
/// Object ids ([`DataId`]) are arena slots: live ids are stable across
/// every update *and* every compaction; deleted ids are recycled only
/// once a sweep past [`COMPACT_DEAD_FRACTION`] frees them.
///
/// Invariant: every forest entry for `DataId(i)` carries the arena rect
/// `objects()[i]` bit for bit (build, restore, swap and insert all
/// index the arena rect itself). The range path therefore takes an
/// object's rect from the leaf entry instead of the arena; a debug
/// assertion there checks the invariant on every hit.
pub struct DatasetStore<const D: usize, P> {
    partitioner: P,
    /// Object arena: slot `i` is the rect of `DataId(i)`. Slots of
    /// deleted objects stay in place as tombstones until a compaction
    /// sweep moves them to `free` for reuse.
    objects: Vec<Rect<D>>,
    /// Liveness per arena slot.
    live: Vec<bool>,
    /// Dead slots available for reuse, sorted descending so `pop()`
    /// yields the smallest id — deterministic reassignment order.
    free: Vec<u32>,
    /// Dead slots *not* yet in `free` (what compaction can reclaim).
    tombstones: usize,
    forest: Arc<TileForest<D>>,
    version: DataVersion,
    // Per-dataset maintenance counters (mutated under the catalog's
    // write lock, read for per-dataset reports).
    compactions: u64,
    write_batches: u64,
    updates_applied: u64,
    delta_nodes_allocated: u64,
}

impl<const D: usize, P: Partitioner<D>> DatasetStore<D, P> {
    /// Partition `objects` and bulk-load the per-tile trees in
    /// `workers` parallel chunks. Trees are always built with clip tables
    /// so every batch can choose clipped or unclipped probing.
    pub fn build(
        partitioner: P,
        objects: &[Rect<D>],
        tree: TreeConfig<D>,
        clip: ClipConfig,
        workers: usize,
    ) -> Self {
        let forest = TileForest::build(&partitioner, objects, tree, clip, workers);
        Self::from_parts(
            partitioner,
            objects.to_vec(),
            vec![true; objects.len()],
            Vec::new(),
            forest,
            DataVersion::initial(),
        )
    }

    /// Reconstruct a store exactly as a snapshot captured it: arena,
    /// liveness, reusable free slots and version restored verbatim, the
    /// forest freshly built over the live slots (trees are derived
    /// state and are not persisted). Contents with every slot live, no
    /// free slot and [`DataVersion::initial`] make the store
    /// [`Self::build`] would, without copying the arena.
    ///
    /// Restoring the free list is what makes WAL replay deterministic:
    /// the id a replayed insert takes depends on it, and the moment a
    /// sweep fires depends on it and the fixed [`COMPACT_DEAD_FRACTION`].
    /// Lifetime maintenance counters ([`Self::write_batches`] etc.)
    /// restart at zero: they are process-local observability, not data.
    pub fn restore(
        contents: SnapshotContents<D, P>,
        tree: TreeConfig<D>,
        clip: ClipConfig,
        workers: usize,
    ) -> Self {
        let SnapshotContents {
            partitioner,
            objects,
            live,
            free,
            version,
        } = contents;
        assert_eq!(live.len(), objects.len(), "mask must cover every slot");
        assert!(
            free.iter()
                .all(|&s| (s as usize) < live.len() && !live[s as usize]),
            "free slots must be dead arena slots"
        );
        let forest =
            TileForest::build_where(&partitioner, &objects, Some(&live), tree, clip, workers);
        Self::from_parts(partitioner, objects, live, free, forest, version)
    }

    /// The one place the store's fields are assembled: free slots sorted
    /// for smallest-first reuse, every other dead slot a tombstone.
    fn from_parts(
        partitioner: P,
        objects: Vec<Rect<D>>,
        live: Vec<bool>,
        mut free: Vec<u32>,
        forest: TileForest<D>,
        version: DataVersion,
    ) -> Self {
        free.sort_unstable_by(|a, b| b.cmp(a)); // pop() = smallest id
        let tombstones = live.iter().filter(|&&l| !l).count() - free.len();
        DatasetStore {
            partitioner,
            objects,
            live,
            free,
            tombstones,
            forest: Arc::new(forest),
            version,
            compactions: 0,
            write_batches: 0,
            updates_applied: 0,
            delta_nodes_allocated: 0,
        }
    }

    /// Dead slots currently reusable, smallest id first (snapshot
    /// serialization needs the exact set; [`Self::free_slots`] only
    /// counts them).
    pub fn free_list(&self) -> Vec<u32> {
        let mut slots = self.free.clone();
        slots.sort_unstable();
        slots
    }

    /// The partitioner the store was built over.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// The objects the store serves (global [`DataId`] id space,
    /// including tombstoned slots of deleted objects).
    pub fn objects(&self) -> &[Rect<D>] {
        &self.objects
    }

    /// Liveness of every arena slot (parallel to [`Self::objects`]).
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Number of live (queryable) objects.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// The live objects, in arena order — the probe side a cross-dataset
    /// join streams against another dataset's indexed forest.
    pub fn live_rects(&self) -> Vec<Rect<D>> {
        self.objects
            .iter()
            .zip(&self.live)
            .filter(|(_, l)| **l)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Total arena slots (live + tombstoned + free).
    pub fn arena_len(&self) -> usize {
        self.objects.len()
    }

    /// Dead slots currently available for id reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Compaction sweeps performed over the store's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Write batches that applied at least one update (each bumped the
    /// version exactly once).
    pub fn write_batches(&self) -> u64 {
        self.write_batches
    }

    /// Individual updates applied across all write batches.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// R-tree nodes constructed by delta maintenance on this store.
    pub fn delta_nodes_allocated(&self) -> u64 {
        self.delta_nodes_allocated
    }

    /// The data version queries are currently answered from. Bumps once
    /// per applied write batch and once per [`Self::swap`].
    pub fn version(&self) -> DataVersion {
        self.version
    }

    /// The shared per-tile trees (clone the `Arc` to reuse them in a
    /// join or a successor store; while a clone is held, the next write
    /// copies the tiles it touches instead of mutating them in place).
    pub fn forest(&self) -> &Arc<TileForest<D>> {
        &self.forest
    }

    /// Number of non-empty tiles (built trees).
    pub fn tile_tree_count(&self) -> usize {
        self.forest.built_tree_count()
    }

    /// Max-tile / mean-tile **live** objects over the non-empty tiles —
    /// the churn-drift observability metric surfaced per dataset in
    /// serve reports. `1.0` is perfect balance (and the empty-forest
    /// value); a data-fitted partitioner whose data moved under churn
    /// shows up here before any re-fit mechanism needs to exist.
    pub fn load_imbalance(&self) -> f64 {
        self.forest.load_imbalance()
    }

    /// Per-tile indexed-object counts over the non-empty tiles (see
    /// [`TileForest::tile_loads`]) — the occupancy distribution the
    /// serve layer histograms so the drift *tail* is visible, not just
    /// the max/mean ratio.
    pub fn tile_loads(&self) -> Vec<u64> {
        self.forest.tile_loads()
    }

    /// Replace the dataset wholesale: a new partitioner (the current
    /// one again, or a re-fit for data whose distribution moved), a new
    /// arena (all slots live), and a forest built over it under that
    /// partitioner, then bump the version. The tile count is checked;
    /// the content correspondence is the caller's contract.
    pub fn swap(&mut self, partitioner: P, objects: Vec<Rect<D>>, forest: Arc<TileForest<D>>) {
        assert_eq!(
            forest.tile_count(),
            partitioner.tile_count(),
            "forest was built under a different partitioning"
        );
        self.partitioner = partitioner;
        self.live = vec![true; objects.len()];
        self.objects = objects;
        self.free.clear();
        self.tombstones = 0;
        self.forest = forest;
        self.version.bump();
    }

    /// Apply an update batch *in order*, in place when the store is the
    /// forest's only owner. A caller still holding an `Arc` clone of the
    /// previous forest keeps it unchanged: then only the tiles the batch
    /// reaches are copied, and every other tile stays shared. Inserts take the
    /// smallest reclaimed slot when one is free, else a fresh arena
    /// slot; deletes tombstone theirs. `tree`/`clip` only configure
    /// trees for previously empty tiles.
    ///
    /// An insert whose rectangle is non-finite or inverted (`lo > hi` on
    /// some axis) is [`UpdateResult::Rejected`] and indexes nothing.
    /// A batch that applied at least one update bumps the version
    /// exactly once; an all-no-op batch (dead-id deletes, rejected
    /// inserts) changes nothing and bumps nothing. After the batch, a
    /// compaction sweep runs when tombstones exceed
    /// [`COMPACT_DEAD_FRACTION`] of the arena — live ids are never moved by it
    /// ([`UpdateOutcome::slots_reclaimed`] counts what it freed).
    ///
    /// Answers afterwards are exactly those of a wholesale rebuild over
    /// the surviving objects ([`TileForest::build_where`]) — the oracle
    /// tests pin that — at a structural cost proportional to the batch,
    /// which [`UpdateOutcome::nodes_allocated`] measures.
    pub fn apply_updates(
        &mut self,
        updates: &[Update<D>],
        tree: TreeConfig<D>,
        clip: ClipConfig,
    ) -> UpdateOutcome {
        let forest = Arc::make_mut(&mut self.forest);
        let mut touched = vec![false; forest.tile_count()];
        let mut outcome = UpdateOutcome::default();
        for update in updates {
            let result = match *update {
                Update::Insert(rect) => {
                    if !rect.is_valid() {
                        UpdateResult::Rejected
                    } else {
                        let id = match self.free.pop() {
                            Some(slot) => {
                                self.objects[slot as usize] = rect;
                                self.live[slot as usize] = true;
                                DataId(slot)
                            }
                            None => {
                                assert!(
                                    self.objects.len() < u32::MAX as usize,
                                    "object arena exceeds the u32 id space"
                                );
                                let id = DataId(self.objects.len() as u32);
                                self.objects.push(rect);
                                self.live.push(true);
                                id
                            }
                        };
                        let (nodes, created) = forest.insert_object(
                            &self.partitioner,
                            rect,
                            id,
                            tree,
                            clip,
                            &mut touched,
                        );
                        outcome.nodes_allocated += nodes;
                        outcome.trees_created += created;
                        UpdateResult::Inserted(id)
                    }
                }
                Update::Delete(id) => {
                    let slot = id.0 as usize;
                    if slot >= self.objects.len() || !self.live[slot] {
                        UpdateResult::Deleted(false)
                    } else {
                        let rect = self.objects[slot];
                        let (removed, dropped) =
                            forest.delete_object(&self.partitioner, rect, id, &mut touched);
                        // Under a shard view of the tiling
                        // (`crate::ShardTiling`) a live object whose
                        // coverage misses the shard's tile range is
                        // legitimately unindexed here; the shard that
                        // does cover it removes the entries.
                        debug_assert!(
                            removed || self.partitioner.covering_tiles(&rect).is_empty(),
                            "live object must be indexed"
                        );
                        self.live[slot] = false;
                        self.tombstones += 1;
                        outcome.trees_dropped += dropped;
                        // A live slot always flips to dead: report the
                        // delete as applied regardless of how many
                        // (possibly zero, under a shard view) index
                        // entries existed, so `applied()` — and with
                        // it version bumps — stays identical across
                        // every shard of the same logical store.
                        UpdateResult::Deleted(true)
                    }
                }
            };
            outcome.results.push(result);
        }
        outcome.tiles_touched = touched.iter().filter(|&&t| t).count();
        let applied = outcome.applied();
        if applied > 0 {
            self.version.bump();
            self.write_batches += 1;
            self.updates_applied += applied;
            self.delta_nodes_allocated += outcome.nodes_allocated;
        }
        // Compaction sweep: once the tombstoned fraction crosses the
        // threshold, every dead slot becomes reusable. Live ids are
        // untouched; the arena stops growing under churn.
        if self.tombstones as f64 > COMPACT_DEAD_FRACTION * self.objects.len() as f64 {
            outcome.slots_reclaimed = self.tombstones;
            self.free = (0..self.objects.len() as u32)
                .rev()
                .filter(|&s| !self.live[s as usize])
                .collect();
            self.tombstones = 0;
            self.compactions += 1;
        }
        outcome
    }

    /// Answer one query against one tile by tree descent, pushing into
    /// `kept` each hit this tile owns under the query/object reference
    /// point (the duplicate-elimination rule — a multi-assigned object
    /// is reported by exactly one covered tile).
    ///
    /// The ownership test runs inside the descent's visitor on the leaf
    /// entry's own rect, which *is* the object's arena rect (see the
    /// type docs): the range path reads nothing from the arena, and no
    /// list of raw hits is built. `stats.results` still counts raw hits
    /// before ownership.
    fn descend_tile(
        &self,
        t: usize,
        q: &Rect<D>,
        use_clips: bool,
        stats: &mut AccessStats,
        kept: &mut Vec<DataId>,
    ) {
        let tree = self.forest.tree(t).expect("planned tiles are built");
        let mut keep = |rect: &Rect<D>, id: DataId| {
            debug_assert!(
                *rect == self.objects[id.0 as usize],
                "tile {t} indexes {id:?} under a rect that is not its arena rect"
            );
            if self.partitioner.owns(t, &reference_point(q, rect)) {
                kept.push(id);
            }
        };
        if use_clips {
            tree.range_query_visit(q, stats, &mut keep);
        } else {
            tree.tree.range_query_visit(q, stats, &mut keep);
        }
    }

    /// Answer one kNN probe: visit tile trees in ascending MINDIST of
    /// their *root MBB* (not the tile rectangle — border tiles own
    /// clamped out-of-domain objects that can stick out of their tile),
    /// carrying one running k-nearest set through them, and stop once
    /// the next tree's MINDIST exceeds the set's k-th distance.
    ///
    /// Each visited tree's search merges into that set
    /// ([`cbb_rtree::ClippedRTree::knn_merge_stats`]) and prunes from its
    /// current k-th distance, so a later tile opens only nodes that can
    /// still improve the answer; an object assigned to several tiles
    /// enters the set once. Exact: the root MBB lower-bounds the
    /// distance of every object in the tile, and each merge keeps the
    /// `(dist, id)` top-k of everything seen so far.
    fn knn_one(&self, center: &Point<D>, k: usize, stats: &mut AccessStats) -> Vec<Neighbor> {
        let mut best: Vec<Neighbor> = Vec::new();
        if k == 0 {
            return best;
        }
        let mut tiles: Vec<(f64, usize)> = (0..self.forest.tile_count())
            .filter_map(|t| {
                let mbb = self.forest.tree(t)?.tree.bounds();
                Some((
                    mbb.expect("forest trees are non-empty").min_dist_sq(center),
                    t,
                ))
            })
            .collect();
        tiles.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (tile_dist, t) in tiles {
            if best.len() == k && tile_dist > best[k - 1].1 {
                break;
            }
            let tree = self.forest.tree(t).expect("listed tiles are built");
            tree.knn_merge_stats(center, k, stats, &mut best);
        }
        best
    }

    /// Execute `queries` in `workers` parallel chunks. With `use_clips = false`
    /// the probes run on the base trees (the unclipped baseline on the
    /// same indexes). Shorthand for [`Self::run_with`] on the classic
    /// per-query path ([`QueryAlgo::Descend`]).
    pub fn run(&self, queries: &[Rect<D>], workers: usize, use_clips: bool) -> BatchOutcome {
        self.run_with(
            queries,
            workers,
            use_clips,
            QueryAlgo::Descend,
            &AutoPolicy::default(),
            SplitPolicy::Auto,
        )
    }

    /// Execute `queries` in `workers` parallel chunks under an explicit
    /// execution algorithm, [`AutoPolicy`] and intra-tile decomposition
    /// policy.
    ///
    /// The batch is first grouped per covered, populated tile. Each
    /// tile then answers its slice of the batch either by per-query
    /// tree descents ([`QueryAlgo::Descend`]) or by ONE shared plane
    /// sweep of the batch's query rects against the tile's cached
    /// columnar layout ([`QueryAlgo::SharedSweep`], the
    /// [`cbb_joins::sweep_queries`] kernel). [`QueryAlgo::Auto`]
    /// resolves per tile — **before** any decomposition, from the
    /// number of batch queries covering the tile, the tile's
    /// cardinality, and whether the tile's columns are already
    /// extracted — so the resolution (and with it every counter) is
    /// identical across worker counts and [`SplitPolicy`] choices.
    ///
    /// All variants return byte-equal `results` (each per-query list
    /// sorted ascending by id, the canonical order); only the work
    /// counters differ. Fused tiles do zero node accesses and charge
    /// sweep `overlap_tests` (plus raw sweep hits as `results`) to the
    /// exact query that incurred them, so `per_query` attribution stays
    /// counter-exact against the aggregate [`cbb_joins::sweep`]. Note
    /// the fused path never consults clip tables — `use_clips` only
    /// affects descents (clips prune traversals, never answers).
    pub fn run_with(
        &self,
        queries: &[Rect<D>],
        workers: usize,
        use_clips: bool,
        algo: QueryAlgo,
        policy: &AutoPolicy,
        split: SplitPolicy,
    ) -> BatchOutcome {
        let n = queries.len();
        let mut outcome = BatchOutcome {
            results: vec![Vec::new(); n],
            per_query: vec![AccessStats::new(); n],
            ..BatchOutcome::default()
        };
        // Group the batch per covered, populated tile. BTreeMap iteration
        // gives ascending tile order; queries land in workload order.
        let mut by_tile: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (qi, q) in queries.iter().enumerate() {
            for t in self.partitioner.covering_tiles(q) {
                if self.forest.tree(t).is_some() {
                    by_tile.entry(t).or_default().push(qi as u32);
                }
            }
        }
        // Resolve the algorithm per tile and extract fused columns up
        // front, on the coordinating thread: the cold path and the hot
        // decomposition path see the very same per-tile decision, and
        // `Auto` reads the cache state exactly once per tile.
        struct TilePlan<const D: usize> {
            t: usize,
            qs: Vec<u32>,
            tile_len: usize,
            fused: Option<(TileColumns<D>, Arc<TileColumns<D>>)>,
        }
        let mut plans: Vec<TilePlan<D>> = Vec::with_capacity(by_tile.len());
        let mut total_work = 0u64;
        for (t, qs) in by_tile {
            let tree = self.forest.tree(t).expect("grouped tiles are built");
            let tile_len = tree.tree.len();
            let fuse = match algo {
                QueryAlgo::Descend => false,
                QueryAlgo::SharedSweep => true,
                QueryAlgo::Auto => {
                    policy.fuse_tile(qs.len(), tile_len, self.forest.columns_cached(t))
                }
            };
            total_work += qs.len() as u64 * tile_len.max(1) as u64;
            let fused = if fuse {
                outcome.tiles_fused += 1;
                outcome.fused_widths.push(qs.len() as u64);
                // Query ids are *local slots* into `qs`, so the sweep
                // positions map back to workload indices.
                let items: Vec<(Rect<D>, DataId)> = qs
                    .iter()
                    .enumerate()
                    .map(|(local, &qi)| (queries[qi as usize], DataId(local as u32)))
                    .collect();
                let ocols = self.forest.columns(t).expect("grouped tiles are built");
                Some((TileColumns::from_items(&items), ocols))
            } else {
                outcome.tiles_descend += 1;
                None
            };
            plans.push(TilePlan {
                t,
                qs,
                tile_len,
                fused,
            });
        }
        // Cut each tile's work into tasks: hot tiles decompose into
        // outer-index ranges (queries for descents and the Left scan,
        // objects for the Right scan). Chunk sums reproduce the whole
        // tile's pairs and counters exactly, so the decomposition is
        // invisible in every output.
        enum Task {
            Descend {
                plan: usize,
                lo: usize,
                hi: usize,
            },
            Sweep {
                plan: usize,
                side: SweepSide,
                lo: usize,
                hi: usize,
            },
        }
        let threshold = split.threshold(total_work, workers);
        let ranges = |outer: usize, inner: usize| -> Vec<(usize, usize)> {
            let step = match threshold {
                Some(thr) => (thr / inner.max(1) as u64).max(1) as usize,
                None => outer.max(1),
            };
            (0..outer)
                .step_by(step)
                .map(|lo| (lo, (lo + step).min(outer)))
                .collect()
        };
        let mut tasks: Vec<Task> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            match &plan.fused {
                Some((qcols, ocols)) => {
                    for (lo, hi) in ranges(qcols.len(), ocols.len()) {
                        tasks.push(Task::Sweep {
                            plan: pi,
                            side: SweepSide::Left,
                            lo,
                            hi,
                        });
                    }
                    for (lo, hi) in ranges(ocols.len(), qcols.len()) {
                        tasks.push(Task::Sweep {
                            plan: pi,
                            side: SweepSide::Right,
                            lo,
                            hi,
                        });
                    }
                }
                None => {
                    for (lo, hi) in ranges(plan.qs.len(), plan.tile_len) {
                        tasks.push(Task::Descend { plan: pi, lo, hi });
                    }
                }
            }
        }
        let shards = map_chunked(workers, &tasks, |_offset, chunk| {
            let mut out: Vec<(u32, Vec<DataId>, AccessStats)> = Vec::new();
            for task in chunk {
                match *task {
                    Task::Descend { plan, lo, hi } => {
                        let plan = &plans[plan];
                        for &qi in &plan.qs[lo..hi] {
                            let q = &queries[qi as usize];
                            let mut stats = AccessStats::new();
                            let mut kept = Vec::new();
                            self.descend_tile(plan.t, q, use_clips, &mut stats, &mut kept);
                            out.push((qi, kept, stats));
                        }
                    }
                    Task::Sweep { plan, side, lo, hi } => {
                        let plan = &plans[plan];
                        let (qcols, ocols) =
                            plan.fused.as_ref().expect("sweep tasks target fused tiles");
                        let mut tests = vec![0u64; qcols.len()];
                        let mut hits: Vec<Vec<DataId>> = vec![Vec::new(); qcols.len()];
                        sweep_queries_scan(qcols, ocols, side, lo, hi, &mut tests, &mut |p, id| {
                            hits[p].push(id)
                        });
                        for (pos, ids) in hits.into_iter().enumerate() {
                            if tests[pos] == 0 && ids.is_empty() {
                                continue;
                            }
                            let qi = plan.qs[qcols.id(pos).0 as usize];
                            let q = &queries[qi as usize];
                            let mut stats = AccessStats::new();
                            stats.overlap_tests = tests[pos];
                            // Raw sweep hits mirror the tree-query
                            // `results` semantics: counted before the
                            // ownership filter.
                            stats.results = ids.len() as u64;
                            let kept: Vec<DataId> = ids
                                .into_iter()
                                .filter(|id| {
                                    self.partitioner.owns(
                                        plan.t,
                                        &reference_point(q, &self.objects[id.0 as usize]),
                                    )
                                })
                                .collect();
                            out.push((qi, kept, stats));
                        }
                    }
                }
            }
            out
        });
        for shard in shards {
            for (qi, kept, stats) in shard {
                outcome.per_query[qi as usize].absorb(&stats);
                outcome.stats += stats;
                outcome.results[qi as usize].extend(kept);
            }
        }
        // Canonical result order: ascending by id, independent of tile
        // visit order and of per-query vs fused execution. An object is
        // kept by exactly one covered tile (the reference-point owner),
        // so the lists are duplicate-free by construction.
        for r in &mut outcome.results {
            r.sort_unstable();
        }
        outcome
    }

    /// Execute the kNN probes `(center, k)` in `workers` parallel chunks.
    /// Results come back in workload order and are independent of the
    /// worker count. Each probe carries one k-nearest set through the
    /// tiles it visits, and each tile's search is the clip-aware kNN
    /// merging into it ([`cbb_rtree::ClippedRTree::knn_merge_stats`]):
    /// clip points tighten node MINDISTs for probes near clipped
    /// corners, with answers identical to the base-tree search.
    ///
    /// `results` in the counters is the number of neighbours returned.
    pub fn run_knn(&self, probes: &[(Point<D>, usize)], workers: usize) -> KnnOutcome {
        let shards = map_chunked(workers, probes, |_offset, chunk| {
            let mut per_query = Vec::with_capacity(chunk.len());
            let results: Vec<Vec<Neighbor>> = chunk
                .iter()
                .map(|(center, k)| {
                    let mut stats = AccessStats::new();
                    let best = self.knn_one(center, *k, &mut stats);
                    per_query.push(stats);
                    best
                })
                .collect();
            (results, per_query)
        });
        let mut outcome = KnnOutcome::default();
        for (results, per_query) in shards {
            outcome.results.extend(results);
            outcome.stats += AccessStats::sum(&per_query);
            outcome.per_query.extend(per_query);
        }
        outcome
    }
}

/// Why a catalog operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// A dataset of this name already exists.
    NameTaken(String),
    /// No dataset with this id (never created, or dropped).
    UnknownDataset(DatasetId),
    /// A dataset with this id already exists (recovery replayed a
    /// create into an occupied slot — the durability log is corrupt).
    IdTaken(DatasetId),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::NameTaken(name) => write!(f, "dataset name {name:?} is taken"),
            CatalogError::UnknownDataset(id) => write!(f, "unknown dataset {id:?}"),
            CatalogError::IdTaken(id) => write!(f, "dataset id {id:?} is taken"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One catalog entry: a named dataset behind its own `RwLock`.
///
/// The lock granularity is the whole point — every dataset can be read
/// and written independently, so a write batch draining into dataset A
/// never blocks a query batch reading dataset B.
pub struct Dataset<const D: usize, P> {
    id: DatasetId,
    name: String,
    store: RwLock<DatasetStore<D, P>>,
}

impl<const D: usize, P> Dataset<D, P> {
    /// The catalog-assigned id.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// The name the dataset was created under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store lock. Readers take `read()`, the write path `write()`;
    /// multi-dataset operations must acquire locks in ascending
    /// [`DatasetId`] order to stay deadlock-free.
    pub fn store(&self) -> &RwLock<DatasetStore<D, P>> {
        &self.store
    }
}

struct CatalogInner<const D: usize, P> {
    /// Slot `i` holds the dataset with id `i`; dropped datasets leave a
    /// permanent `None` (ids are never reused).
    entries: Vec<Option<Arc<Dataset<D, P>>>>,
    by_name: HashMap<String, DatasetId>,
}

/// A concurrent map of named datasets: `DatasetId -> DatasetStore`,
/// per-dataset versioning and locking.
///
/// The catalog's own lock guards only the *map* (create / drop /
/// resolve); every returned [`Dataset`] is an `Arc`, so lookups release
/// the map lock immediately and in-flight readers keep a dropped
/// dataset alive until they finish.
pub struct Catalog<const D: usize, P> {
    inner: RwLock<CatalogInner<D, P>>,
}

impl<const D: usize, P> Default for Catalog<D, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize, P> Catalog<D, P> {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            inner: RwLock::new(CatalogInner {
                entries: Vec::new(),
                by_name: HashMap::new(),
            }),
        }
    }

    /// Register `store` under `name`, assigning the next [`DatasetId`].
    /// Fails without side effects when the name is taken.
    pub fn create(&self, name: &str, store: DatasetStore<D, P>) -> Result<DatasetId, CatalogError> {
        let mut inner = self.inner.write().expect("catalog poisoned");
        if inner.by_name.contains_key(name) {
            return Err(CatalogError::NameTaken(name.to_string()));
        }
        let id = DatasetId(inner.entries.len() as u32);
        inner.entries.push(Some(Arc::new(Dataset {
            id,
            name: name.to_string(),
            store: RwLock::new(store),
        })));
        inner.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Re-register a recovered dataset under the id it held before the
    /// restart. Slots between the current end and `id` are padded with
    /// `None` (they belonged to datasets dropped before the snapshot —
    /// ids are never reused, even across restarts), so ids assigned by
    /// later [`Catalog::create`] calls continue past every recovered
    /// one.
    pub fn restore_dataset(
        &self,
        id: DatasetId,
        name: &str,
        store: DatasetStore<D, P>,
    ) -> Result<(), CatalogError> {
        let mut inner = self.inner.write().expect("catalog poisoned");
        if inner.by_name.contains_key(name) {
            return Err(CatalogError::NameTaken(name.to_string()));
        }
        let slot = id.0 as usize;
        if inner.entries.len() <= slot {
            inner.entries.resize_with(slot + 1, || None);
        }
        if inner.entries[slot].is_some() {
            return Err(CatalogError::IdTaken(id));
        }
        inner.entries[slot] = Some(Arc::new(Dataset {
            id,
            name: name.to_string(),
            store: RwLock::new(store),
        }));
        inner.by_name.insert(name.to_string(), id);
        Ok(())
    }

    /// Pad the id space so the next [`Catalog::create`] assigns
    /// `DatasetId(next)` or later. Recovery uses this to keep the ids
    /// of datasets dropped *before* a crash retired *after* it —
    /// without it, a restart would reassign the highest dropped id.
    pub fn reserve_ids(&self, next: u32) {
        let mut inner = self.inner.write().expect("catalog poisoned");
        if (inner.entries.len() as u32) < next {
            inner.entries.resize_with(next as usize, || None);
        }
    }

    /// Remove a dataset, returning its entry (callers holding the `Arc`
    /// finish their work; the id is never reassigned). `None` for
    /// unknown/already-dropped ids.
    pub fn drop_dataset(&self, id: DatasetId) -> Option<Arc<Dataset<D, P>>> {
        let mut inner = self.inner.write().expect("catalog poisoned");
        let entry = inner.entries.get_mut(id.0 as usize)?.take()?;
        inner.by_name.remove(entry.name());
        Some(entry)
    }

    /// The dataset with this id, if it exists.
    pub fn get(&self, id: DatasetId) -> Option<Arc<Dataset<D, P>>> {
        self.inner
            .read()
            .expect("catalog poisoned")
            .entries
            .get(id.0 as usize)?
            .clone()
    }

    /// Resolve a dataset name to its id.
    pub fn resolve(&self, name: &str) -> Option<DatasetId> {
        self.inner
            .read()
            .expect("catalog poisoned")
            .by_name
            .get(name)
            .copied()
    }

    /// Ids of every live dataset, ascending.
    pub fn ids(&self) -> Vec<DatasetId> {
        self.inner
            .read()
            .expect("catalog poisoned")
            .entries
            .iter()
            .flatten()
            .map(|d| d.id)
            .collect()
    }

    /// Number of live datasets.
    pub fn len(&self) -> usize {
        self.inner.read().expect("catalog poisoned").by_name.len()
    }

    /// Whether the catalog holds no dataset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveGrid;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_geom::SplitMix64;
    use cbb_rtree::Variant;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 90.0);
                let y = rng.gen_range(0.0, 90.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.5, 8.0),
                    y + rng.gen_range(0.5, 8.0),
                )
            })
            .collect()
    }

    fn store(n: usize, seed: u64) -> DatasetStore<2, AdaptiveGrid<2>> {
        DatasetStore::build(
            AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [3, 3], &[]),
            &boxes(n, seed),
            TreeConfig::tiny(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
            2,
        )
    }

    #[test]
    fn catalog_creates_resolves_and_drops() {
        let catalog: Catalog<2, AdaptiveGrid<2>> = Catalog::new();
        assert!(catalog.is_empty());
        let a = catalog.create("roads", store(40, 1)).unwrap();
        let b = catalog.create("pois", store(30, 2)).unwrap();
        assert_eq!((a, b), (DatasetId(0), DatasetId(1)));
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.resolve("roads"), Some(a));
        assert_eq!(catalog.resolve("nope"), None);
        assert_eq!(
            catalog.create("roads", store(5, 3)),
            Err(CatalogError::NameTaken("roads".into()))
        );
        assert_eq!(catalog.get(a).unwrap().name(), "roads");
        assert_eq!(catalog.ids(), vec![a, b]);

        // Drop: the name frees up, the id never comes back.
        let dropped = catalog.drop_dataset(a).expect("roads existed");
        assert_eq!(dropped.id(), a);
        assert!(catalog.get(a).is_none());
        assert!(catalog.drop_dataset(a).is_none());
        assert_eq!(catalog.resolve("roads"), None);
        let c = catalog.create("roads", store(10, 4)).unwrap();
        assert_eq!(c, DatasetId(2), "ids are never reused");
        assert_eq!(catalog.ids(), vec![b, c]);
        assert!(catalog.drop_dataset(DatasetId(99)).is_none());
    }

    #[test]
    fn store_versions_bump_per_applied_batch_only() {
        let mut s = store(50, 7);
        assert_eq!(s.version(), DataVersion(0));
        let tree = TreeConfig::tiny(Variant::RStar);
        let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
        let out = s.apply_updates(
            &[
                Update::Insert(r2(1.0, 1.0, 2.0, 2.0)),
                Update::Delete(DataId(0)),
            ],
            tree,
            clip,
        );
        assert_eq!(out.applied(), 2);
        assert_eq!(s.version(), DataVersion(1));
        assert_eq!((s.write_batches(), s.updates_applied()), (1, 2));
        // All-no-op batch: nothing bumps.
        let out = s.apply_updates(&[Update::<2>::Delete(DataId(999))], tree, clip);
        assert_eq!(out.applied(), 0);
        assert_eq!(s.version(), DataVersion(1));
        assert_eq!(s.write_batches(), 1);
        // Swap bumps and resets the arena.
        let objs = boxes(9, 9);
        let forest = Arc::new(TileForest::build(s.partitioner(), &objs, tree, clip, 1));
        s.swap(s.partitioner().clone(), objs, forest);
        assert_eq!(s.version(), DataVersion(2));
        assert_eq!(s.live_count(), 9);
        assert_eq!(s.free_slots(), 0);
    }

    /// The compaction satellite's regression test: a sweep reclaims
    /// tombstoned slots for reuse while every live id keeps answering
    /// exactly as before, and the arena stops growing.
    #[test]
    fn compaction_reclaims_slots_with_stable_live_ids() {
        let tree = TreeConfig::tiny(Variant::RStar);
        let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
        let mut s = store(100, 11);
        let everything = r2(-10.0, -10.0, 200.0, 200.0);
        let before: Vec<DataId> = {
            let mut ids = s.run(&[everything], 1, true).results.remove(0);
            ids.sort();
            ids
        };
        assert_eq!(before.len(), 100);

        // Delete every third id, 34 of 100: 34 % dead > 30 % → sweep.
        let deletes: Vec<Update<2>> = (0..34).map(|i| Update::Delete(DataId(i * 3))).collect();
        let out = s.apply_updates(&deletes, tree, clip);
        assert_eq!(out.slots_reclaimed, 34, "sweep reclaimed every tombstone");
        assert_eq!(s.compactions(), 1);
        assert_eq!(s.free_slots(), 34);
        assert_eq!(s.arena_len(), 100);

        // Live ids are stable across the compaction: the survivors
        // answer under exactly their old ids.
        let survivors: Vec<DataId> = {
            let mut ids = s.run(&[everything], 1, true).results.remove(0);
            ids.sort();
            ids
        };
        let expected: Vec<DataId> = before.iter().copied().filter(|id| id.0 % 3 != 0).collect();
        assert_eq!(survivors, expected);

        // Inserts reuse the reclaimed slots, smallest id first; the
        // arena does not grow until the free list is exhausted.
        let out = s.apply_updates(
            &[
                Update::Insert(r2(50.0, 50.0, 51.0, 51.0)),
                Update::Insert(r2(60.0, 60.0, 61.0, 61.0)),
            ],
            tree,
            clip,
        );
        assert_eq!(
            out.inserted_ids(),
            vec![DataId(0), DataId(3)],
            "smallest reclaimed slots are reused first"
        );
        assert_eq!(s.arena_len(), 100, "reuse does not grow the arena");
        assert_eq!(s.free_slots(), 32);
        let found = s
            .run(&[r2(49.0, 49.0, 52.0, 52.0)], 1, true)
            .results
            .remove(0);
        assert!(found.contains(&DataId(0)), "reused id is queryable");

        // 35 inserts: 32 reuses, then 3 appends.
        let inserts: Vec<Update<2>> = (0..35)
            .map(|i| Update::Insert(r2(i as f64, 0.0, i as f64 + 0.5, 0.5)))
            .collect();
        s.apply_updates(&inserts, tree, clip);
        assert_eq!(s.arena_len(), 103);
        assert_eq!(s.free_slots(), 0);
        assert_eq!(s.live_count(), 103);
    }

    #[test]
    fn at_or_below_the_threshold_the_arena_stays_append_only() {
        let tree = TreeConfig::tiny(Variant::RStar);
        let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
        let mut s = store(10, 13);
        // 3 of 10 dead is exactly the threshold, which does not exceed it.
        let deletes: Vec<Update<2>> = (0..3).map(|i| Update::Delete(DataId(i))).collect();
        let out = s.apply_updates(&deletes, tree, clip);
        assert_eq!(out.slots_reclaimed, 0);
        assert_eq!(s.compactions(), 0);
        let out = s.apply_updates(&[Update::Insert(r2(1.0, 1.0, 2.0, 2.0))], tree, clip);
        assert_eq!(out.inserted_ids(), vec![DataId(10)], "append, not reuse");
        assert_eq!(s.arena_len(), 11);
    }
}
