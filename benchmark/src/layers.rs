//! The one file through which the benchmark calls the workspace crates.
//!
//! Everything else in `benchmark/` speaks the harness's own vocabulary
//! (`gen::Box2`, `gen::Op`, plain ids and counters); this module
//! translates it into `cbb-*` types and back. It uses only the surfaces
//! ROADMAP item C intends to keep — `ServiceBuilder` + `submit`,
//! `DatasetStore`, `partitioned_join*`, `ClippedRTree`,
//! `TileColumns`/`sweep*`, `WalWriter` and the snapshot/WAL codecs.
//!
//! **If an API collapse (ROADMAP item C) renames or merges any of
//! those, the follow-up in `benchmark/` is this one file:** no other
//! module names a `cbb-*` item.
//!
//! The product runs as shipped: `ServiceBuilder::new()` defaults (one
//! shard, `batch_max` 64, 2 ms deadline, telemetry on,
//! `QueryAlgo::Auto`), `JoinAlgo::Auto`, R\*-tree nodes with
//! `ClipMethod::Stairline`, an 8 × 8 `AdaptiveGrid`. [`SvcOpts`] names
//! the only deviations the ladder rungs make.

use std::path::{Path, PathBuf};

use cbb_core::{ClipConfig, ClipMethod};
use cbb_engine::{
    decode_update_batch, encode_update_batch, partitioned_join_forests, partitioned_join_with,
    read_snapshot, replay_update_batch, write_snapshot, AdaptiveGrid, AnyPartitioner, AutoPolicy,
    DataVersion, DatasetId, DatasetStore, JoinAlgo, JoinPlan, Partitioner, QuadtreePartitioner,
    QueryAlgo, SnapshotContents, SplitPolicy, Update,
};
use cbb_geom::{Point, Rect};
use cbb_joins::{inlj, stt, sweep, sweep_queries, JoinResult, TileColumns};
use cbb_rtree::{AccessStats, ClippedRTree, DataId, Neighbor, RTree, TreeConfig, Variant};
use cbb_serve::{
    Completion, CompletionHandle, Request, Response, ServiceBuilder, ShardedService,
    TelemetryConfig,
};
use cbb_storage::{recover_wal, FilePageStore, WalWriter};

use crate::gen::{Box2, Op, DOMAIN};

type P = AnyPartitioner<2>;

/// Tiles per axis of the adaptive grid every dataset is served under.
const GRID: [usize; 2] = [8, 8];
/// Objects per leaf region before the quadtree partitioner splits.
const QUADTREE_BUDGET_DIVISOR: usize = 48;

fn rect(b: &Box2) -> Rect<2> {
    Rect::new(Point(b.lo), Point(b.hi))
}

fn rects(bs: &[Box2]) -> Vec<Rect<2>> {
    bs.iter().map(rect).collect()
}

fn domain() -> Rect<2> {
    Rect::new(Point([0.0, 0.0]), Point([DOMAIN, DOMAIN]))
}

fn tree_cfg() -> TreeConfig<2> {
    TreeConfig::paper_default(Variant::RStar)
}

fn clip_cfg() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

// ── Tilings ──────────────────────────────────────────────────────────

/// A dataset's partitioner.
#[derive(Clone)]
pub struct Tiling(P);

impl Tiling {
    /// The default: an 8 × 8 grid cut at the data's quantiles.
    pub fn adaptive(objects: &[Box2]) -> Self {
        Tiling(AdaptiveGrid::from_sample(domain(), GRID, &rects(objects)).into())
    }

    /// A quadtree with about as many tiles as the grid has — the
    /// mismatched tiling of `join_batch`'s third dataset.
    pub fn quadtree(objects: &[Box2]) -> Self {
        let budget = (objects.len() / QUADTREE_BUDGET_DIVISOR).max(1);
        Tiling(QuadtreePartitioner::build(domain(), &rects(objects), budget).into())
    }

    pub fn covering_tiles(&self, b: &Box2) -> Vec<usize> {
        self.0.covering_tiles(&rect(b))
    }

    /// Share of `objects` assigned to more than one tile.
    pub fn boundary_object_ratio(&self, objects: &[Box2]) -> f64 {
        let multi = objects
            .iter()
            .filter(|b| self.0.covering_tiles(&rect(b)).len() > 1)
            .count();
        multi as f64 / objects.len().max(1) as f64
    }

    /// The objects of each tile, as the forest build assigns them.
    pub fn assign(&self, objects: &[Box2]) -> Vec<Items> {
        let all = rects(objects);
        self.0
            .assign(&all)
            .into_iter()
            .map(|ids| {
                Items(
                    ids.into_iter()
                        .map(|i| (all[i as usize], DataId(i)))
                        .collect(),
                )
            })
            .collect()
    }
}

// ── The service ──────────────────────────────────────────────────────

/// The deviations from `ServiceBuilder::new()` a ladder rung may make;
/// `SvcOpts::default()` is the product as shipped.
#[derive(Clone, Debug, Default)]
pub struct SvcOpts {
    /// `.shards(2)` when set.
    pub two_shards: bool,
    /// `.unbatched()` when set.
    pub unbatched: bool,
    /// `TelemetryConfig::disabled()` when set.
    pub telemetry_off: bool,
    /// `.durability(dir)` when set.
    pub durable: Option<PathBuf>,
}

impl SvcOpts {
    fn builder(&self) -> ServiceBuilder {
        let mut b = ServiceBuilder::new();
        if self.two_shards {
            b = b.shards(2);
        }
        if self.unbatched {
            b = b.unbatched();
        }
        if self.telemetry_off {
            b = b.telemetry(TelemetryConfig::disabled());
        }
        if let Some(dir) = &self.durable {
            b = b.durability(dir);
        }
        b
    }
}

/// A running service and the datasets of the workload, by index.
pub struct Svc {
    inner: ShardedService<2, P>,
    datasets: Vec<DatasetId>,
}

/// A submitted request.
pub struct Ticket(CompletionHandle<Completion>);

/// A completed request: the answer and the service's own timing.
pub struct Done {
    pub answer: Answer,
    pub queued_ns: u64,
    pub serviced_ns: u64,
}

/// An answer, kept in the product's representation until a check asks
/// for it (so unchecked answers cost the client nothing to receive).
pub enum Answer {
    Range(Vec<DataId>),
    Knn(Vec<Neighbor>),
    Join(JoinOut),
    Inserted(Option<u32>),
    Deleted(bool),
    /// The service refused or failed the request.
    Failed,
}

impl Answer {
    pub fn range_ids(&self) -> Option<Vec<u32>> {
        match self {
            Answer::Range(ids) => Some(ids.iter().map(|d| d.0).collect()),
            _ => None,
        }
    }

    pub fn knn(&self) -> Option<Vec<(u32, f64)>> {
        match self {
            Answer::Knn(nn) => Some(nn.iter().map(|&(id, d)| (id.0, d)).collect()),
            _ => None,
        }
    }
}

/// Join counters the harness reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinOut {
    pub pairs: u64,
    pub overlap_tests: u64,
    pub tiles_stt: u64,
    pub tiles_inlj: u64,
    pub tiles_sweep: u64,
}

impl From<JoinResult> for JoinOut {
    fn from(r: JoinResult) -> Self {
        JoinOut {
            pairs: r.pairs,
            overlap_tests: r.overlap_tests,
            tiles_stt: r.tiles_stt,
            tiles_inlj: r.tiles_inlj,
            tiles_sweep: r.tiles_sweep,
        }
    }
}

impl Svc {
    /// Start a service and create `datasets` in order (index `i` of the
    /// slice is dataset `i` of the workload).
    pub fn start(opts: &SvcOpts, datasets: &[(&str, &Tiling, &[Box2])]) -> Svc {
        let inner = opts.builder().build_catalog(tree_cfg(), clip_cfg());
        let datasets = datasets
            .iter()
            .map(|(name, tiling, objects)| {
                inner
                    .create_dataset(name, tiling.0.clone(), rects(objects))
                    .expect("fresh catalog has no name clash")
            })
            .collect();
        Svc { inner, datasets }
    }

    /// Restart from the durability directory alone; `None` when a named
    /// dataset did not come back.
    pub fn recover(opts: &SvcOpts, names: &[&str]) -> Option<Svc> {
        let inner = opts.builder().build_catalog(tree_cfg(), clip_cfg());
        let datasets = names
            .iter()
            .map(|n| inner.dataset_id(n))
            .collect::<Option<Vec<_>>>()?;
        Some(Svc { inner, datasets })
    }

    /// Submit `op` against dataset `ds`; `None` when admission refused.
    pub fn submit(&self, ds: usize, op: &Op) -> Option<Ticket> {
        let dataset = self.datasets[ds];
        let request = match op {
            Op::Range(q) => Request::Range {
                dataset,
                query: rect(q),
                use_clips: true,
            },
            Op::Knn(c, k) => Request::Knn {
                dataset,
                center: Point(*c),
                k: *k,
            },
            Op::Insert(b) => Request::Insert {
                dataset,
                rect: rect(b),
            },
            Op::Delete(id) => Request::Delete {
                dataset,
                id: DataId(*id),
            },
            Op::ProbeJoin(probes) => Request::Join {
                dataset,
                probes: rects(probes),
                algo: JoinAlgo::Auto,
                use_clips: true,
            },
            Op::CrossJoin(left, right) => Request::CrossJoin {
                left: self.datasets[*left],
                right: self.datasets[*right],
                algo: JoinAlgo::Auto,
                use_clips: true,
            },
        };
        self.inner.submit(request).ok().map(Ticket)
    }

    pub fn live_count(&self, ds: usize) -> Option<usize> {
        self.inner.dataset_live_count(self.datasets[ds])
    }

    /// Counters and phase histograms, summed over shards. Take one
    /// before and one after a pass and [`SvcStats::since`] the two.
    pub fn stats(&self) -> SvcStats {
        let report = self.inner.report();
        let mut stats = SvcStats {
            requests: report.completed,
            batches: report.batches,
            write_batches: report.write_batches,
            updates_applied: report.updates_applied,
            wal_appends: report.wal_appends,
            checkpoints: report.checkpoints,
            shed: report.shed,
            recovered_records: report.recovered_records,
            phase_ns: [(0, 0); PHASES.len()],
        };
        for scrape in self.inner.shard_scrapes() {
            for (slot, phase) in stats.phase_ns.iter_mut().zip(PHASES) {
                if let Some(h) = scrape
                    .snapshot
                    .histogram("cbb_request_phase_ns", &[("phase", phase)])
                {
                    slot.0 += h.count;
                    slot.1 += h.sum;
                }
            }
        }
        stats
    }

    /// Graceful shutdown: drains, joins every service thread.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

impl Ticket {
    /// Block until the answer arrives; `None` when the request was
    /// canceled.
    pub fn wait(self) -> Option<Done> {
        let c = self.0.wait().ok()?;
        let answer = match c.response {
            Response::Range(ids) => Answer::Range(ids),
            Response::Knn(nn) => Answer::Knn(nn),
            Response::Join(r) => Answer::Join(r.into()),
            Response::Inserted(id) => Answer::Inserted(id.map(|d| d.0)),
            Response::Deleted(ok) => Answer::Deleted(ok),
            _ => Answer::Failed,
        };
        Some(Done {
            answer,
            queued_ns: c.queued.as_nanos() as u64,
            serviced_ns: c.serviced.as_nanos() as u64,
        })
    }
}

/// The request phases the service's telemetry stamps, in ladder order.
pub const PHASES: [&str; 5] = [
    "queue_wait",
    "coalesce",
    "lock_acquire",
    "execute",
    "respond",
];

/// A point-in-time read of `report()` and `scrape()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SvcStats {
    pub requests: u64,
    pub batches: u64,
    pub write_batches: u64,
    pub updates_applied: u64,
    pub wal_appends: u64,
    pub checkpoints: u64,
    pub shed: u64,
    pub recovered_records: u64,
    /// `(samples, total ns)` per entry of [`PHASES`].
    pub phase_ns: [(u64, u64); PHASES.len()],
}

impl SvcStats {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &SvcStats) -> SvcStats {
        let mut phase_ns = self.phase_ns;
        for (now, then) in phase_ns.iter_mut().zip(earlier.phase_ns) {
            *now = (now.0 - then.0, now.1 - then.1);
        }
        SvcStats {
            requests: self.requests - earlier.requests,
            batches: self.batches - earlier.batches,
            write_batches: self.write_batches - earlier.write_batches,
            updates_applied: self.updates_applied - earlier.updates_applied,
            wal_appends: self.wal_appends - earlier.wal_appends,
            checkpoints: self.checkpoints - earlier.checkpoints,
            shed: self.shed - earlier.shed,
            recovered_records: self.recovered_records,
            phase_ns,
        }
    }

    /// Mean microseconds a request spent in phase `i` of [`PHASES`].
    pub fn phase_us(&self, i: usize) -> f64 {
        let (n, ns) = self.phase_ns[i];
        ns as f64 / n.max(1) as f64 / 1e3
    }
}

// ── engine: the dataset store ────────────────────────────────────────

/// Work counters of index traversals, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub leaf_accesses: u64,
    pub node_accesses: u64,
    pub clip_prunes: u64,
    pub overlap_tests: u64,
    pub results: u64,
}

impl Counters {
    fn add(&mut self, s: &AccessStats) {
        self.leaf_accesses += s.leaf_accesses;
        self.node_accesses += s.leaf_accesses + s.internal_accesses;
        self.clip_prunes += s.clip_prunes;
        self.overlap_tests += s.overlap_tests;
        self.results += s.results;
    }
}

/// How a range batch executes (`QueryAlgo`).
#[derive(Clone, Copy, Debug)]
pub enum Algo {
    Auto,
    Descend,
    SharedSweep,
}

/// Outcome of one `DatasetStore::run_with` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOut {
    pub counters: Counters,
    pub tiles_fused: u64,
    pub tiles_descend: u64,
}

/// Outcome of one `DatasetStore::apply_updates` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyOut {
    pub tiles_touched: usize,
    pub nodes_allocated: u64,
}

/// One update of a write batch.
#[derive(Clone, Copy, Debug)]
pub enum Upd {
    Insert(Box2),
    Delete(u32),
}

fn updates(ups: &[Upd]) -> Vec<Update<2>> {
    ups.iter()
        .map(|u| match u {
            Upd::Insert(b) => Update::Insert(rect(b)),
            Upd::Delete(id) => Update::Delete(DataId(*id)),
        })
        .collect()
}

/// A `DatasetStore` — what one served dataset is underneath the service.
pub struct Store {
    inner: DatasetStore<2, P>,
}

impl Store {
    /// Partition, bulk-load and clip on one worker thread.
    pub fn build(tiling: &Tiling, objects: &[Box2]) -> Store {
        Store {
            inner: DatasetStore::build(
                tiling.0.clone(),
                &rects(objects),
                tree_cfg(),
                clip_cfg(),
                1,
            ),
        }
    }

    pub fn live_count(&self) -> usize {
        self.inner.live_count()
    }

    pub fn load_imbalance(&self) -> f64 {
        self.inner.load_imbalance()
    }

    /// Indexed objects per tile.
    pub fn tile_loads(&self) -> Vec<u64> {
        self.inner.tile_loads()
    }

    /// One clipped (or, with `clipped = false`, base-tree) descent of
    /// tile `t`'s tree; returns the raw hit count.
    pub fn tile_range(&self, t: usize, q: &Box2, clipped: bool, counters: &mut Counters) -> usize {
        let Some(tree) = self.inner.forest().tree(t) else {
            return 0;
        };
        let mut stats = AccessStats::new();
        let hits = if clipped {
            tree.range_query_stats(&rect(q), &mut stats)
        } else {
            tree.tree.range_query_stats(&rect(q), &mut stats)
        };
        counters.add(&stats);
        hits.len()
    }

    /// One clipped kNN search of tile `t`'s tree.
    pub fn tile_knn(&self, t: usize, p: &[f64; 2], k: usize, counters: &mut Counters) -> usize {
        let Some(tree) = self.inner.forest().tree(t) else {
            return 0;
        };
        let mut stats = AccessStats::new();
        let found = tree.knn_stats(&Point(*p), k, &mut stats);
        counters.add(&stats);
        found.len()
    }

    /// `run_with` on one worker under the default `AutoPolicy`.
    pub fn run(&self, queries: &[Box2], algo: Algo) -> RunOut {
        let algo = match algo {
            Algo::Auto => QueryAlgo::Auto,
            Algo::Descend => QueryAlgo::Descend,
            Algo::SharedSweep => QueryAlgo::SharedSweep,
        };
        let out = self.inner.run_with(
            &rects(queries),
            1,
            true,
            algo,
            &AutoPolicy::default(),
            SplitPolicy::Auto,
        );
        let mut counters = Counters::default();
        counters.add(&out.stats);
        RunOut {
            counters,
            tiles_fused: out.tiles_fused,
            tiles_descend: out.tiles_descend,
        }
    }

    /// `run_knn` on one worker; returns the neighbours found.
    pub fn run_knn(&self, probes: &[([f64; 2], usize)]) -> u64 {
        let probes: Vec<(Point<2>, usize)> = probes.iter().map(|(p, k)| (Point(*p), *k)).collect();
        self.inner.run_knn(&probes, 1).stats.results
    }

    pub fn apply(&mut self, ups: &[Upd]) -> ApplyOut {
        let out = self
            .inner
            .apply_updates(&updates(ups), tree_cfg(), clip_cfg());
        ApplyOut {
            tiles_touched: out.tiles_touched,
            nodes_allocated: out.nodes_allocated,
        }
    }

    /// The cached x-sorted columns of tile `t` (extracted on first use).
    pub fn columns(&self, t: usize) -> Option<Cols> {
        self.inner.forest().columns(t).map(|c| Cols((*c).clone()))
    }

    fn plan(&self) -> JoinPlan<2, P> {
        JoinPlan {
            partitioner: self.inner.partitioner().clone(),
            tree: tree_cfg(),
            clip: clip_cfg(),
            use_clips: true,
            algo: JoinAlgo::Auto,
            workers: 1,
            split: SplitPolicy::Auto,
            auto: AutoPolicy::default(),
        }
    }

    /// `left ⋈ self` the way the service joins two datasets that share
    /// a tiling: both cached forests borrowed.
    pub fn join_same_tiling(&self, left: &Store) -> JoinOut {
        partitioned_join_forests(
            &self.plan(),
            left.inner.forest(),
            self.inner.objects(),
            self.inner.forest(),
        )
        .into()
    }

    /// `left ⋈ self` the way the service joins across tilings: the
    /// left side's live objects re-partitioned onto this side's tiles.
    pub fn join_repartition(&self, left: &Store) -> JoinOut {
        let probes = left.inner.live_rects();
        partitioned_join_with(
            &self.plan(),
            &probes,
            self.inner.objects(),
            self.inner.forest(),
        )
        .into()
    }

    /// Kernel-level joins of tile `t` of `left` against tile `t` of
    /// `self` (same tiling): the three per-tile kernels `Auto` picks
    /// from, on the tile's own trees and columns.
    pub fn tile_kernels<'a>(&'a self, left: &'a Store, t: usize) -> Option<TileKernels<'a>> {
        Some(TileKernels {
            left_tree: left.inner.forest().tree(t)?,
            right_tree: self.inner.forest().tree(t)?,
            left_cols: left.inner.forest().columns(t)?,
            right_cols: self.inner.forest().columns(t)?,
        })
    }

    // ── persist codecs ──

    /// Write a full snapshot to `path` and sync it; returns its bytes.
    pub fn snapshot_write(&self, path: &Path) -> std::io::Result<u64> {
        let mut file = FilePageStore::create(path)?;
        write_snapshot(&mut file, &self.inner);
        file.sync()?;
        Ok(std::fs::metadata(path)?.len())
    }

    /// Replay one logged batch (as recovery does); `Ok(true)` when it
    /// applied.
    pub fn replay(&mut self, record: &[u8]) -> Result<bool, String> {
        let (version, ops) = decode_update_batch::<2>(record).map_err(|e| e.to_string())?;
        replay_update_batch(&mut self.inner, version, &ops, tree_cfg(), clip_cfg())
            .map_err(|e| e.to_string())
    }

    /// The WAL record the service would log for `ups` applied next.
    pub fn encode_next(&self, ups: &[Upd]) -> Vec<u8> {
        encode_update_batch(DataVersion(self.inner.version().0 + 1), &updates(ups))
    }
}

/// Decode the snapshot at `path` (checksums verified); returns the live
/// object count it holds.
pub fn snapshot_read(path: &Path) -> Result<usize, String> {
    let mut file = FilePageStore::open(path).map_err(|e| e.to_string())?;
    let contents: SnapshotContents<2, P> = read_snapshot(&mut file).map_err(|e| e.to_string())?;
    Ok(contents.live.iter().filter(|&&l| l).count())
}

// ── rtree / core: single trees ───────────────────────────────────────

/// `(rect, id)` pairs of one tile.
pub struct Items(Vec<(Rect<2>, DataId)>);

impl Items {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn boxes(&self) -> Vec<(Box2, u32)> {
        self.0
            .iter()
            .map(|(r, id)| {
                (
                    Box2 {
                        lo: r.lo.0,
                        hi: r.hi.0,
                    },
                    id.0,
                )
            })
            .collect()
    }
}

/// An STR bulk-loaded R\*-tree, not yet clipped.
pub struct BaseTree(RTree<2>);

pub fn bulk_load(items: &Items) -> BaseTree {
    BaseTree(RTree::bulk_load(tree_cfg(), &items.0))
}

/// A clipped tree (`ClippedRTree::from_tree`, Stairline).
pub struct Clipped(ClippedRTree<2>);

pub fn clip(base: BaseTree) -> Clipped {
    Clipped(ClippedRTree::from_tree(base.0, clip_cfg()))
}

impl Clipped {
    pub fn nodes(&self) -> usize {
        self.0.tree.node_count()
    }

    pub fn clip_points(&self) -> usize {
        self.0.total_clip_points()
    }

    pub fn insert(&mut self, b: &Box2, id: u32) {
        self.0.insert(rect(b), DataId(id));
    }

    pub fn delete(&mut self, b: &Box2, id: u32) -> bool {
        self.0.delete(&rect(b), DataId(id))
    }

    /// Node re-clips since the tree was built (§IV-D maintenance).
    pub fn reclips(&self) -> u64 {
        self.0.maintenance.total_reclips()
    }
}

// ── joins: columns and kernels ───────────────────────────────────────

/// x-sorted struct-of-arrays columns (`TileColumns`).
pub struct Cols(TileColumns<2>);

impl Cols {
    pub fn build(items: &Items) -> Cols {
        Cols(TileColumns::from_items(&items.0))
    }

    /// Columns of a query batch, ids = positions in `queries`.
    pub fn of_queries(queries: &[Box2]) -> Cols {
        let items: Vec<(Rect<2>, DataId)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (rect(q), DataId(i as u32)))
            .collect();
        Cols(TileColumns::from_items(&items))
    }

    /// One shared sweep of `queries` against `self`; returns
    /// `(hits, overlap tests)`.
    pub fn sweep_queries(&self, queries: &Cols) -> (u64, u64) {
        let mut tests = vec![0u64; queries.0.len()];
        let mut hits = 0u64;
        sweep_queries(&queries.0, &self.0, &mut tests, |_, _| hits += 1);
        (hits, tests.iter().sum())
    }
}

/// Both sides of one tile, as trees and as columns.
pub struct TileKernels<'a> {
    left_tree: &'a ClippedRTree<2>,
    right_tree: &'a ClippedRTree<2>,
    left_cols: std::sync::Arc<TileColumns<2>>,
    right_cols: std::sync::Arc<TileColumns<2>>,
}

impl TileKernels<'_> {
    pub fn sweep(&self) -> JoinOut {
        sweep(&self.left_cols, &self.right_cols).into()
    }

    pub fn stt(&self) -> JoinOut {
        stt(self.left_tree, self.right_tree, true).into()
    }

    pub fn inlj(&self) -> JoinOut {
        inlj(&self.left_cols.rects(), self.right_tree, true).into()
    }
}

// ── storage: the write-ahead log ─────────────────────────────────────

/// A `WalWriter` on a fresh file.
pub struct Wal(WalWriter);

impl Wal {
    pub fn create(path: &Path) -> std::io::Result<Wal> {
        WalWriter::create(path).map(Wal)
    }

    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.0.append(payload)
    }

    /// fdatasync — in this sandbox, not a device's flush.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync()
    }

    pub fn bytes(&self) -> u64 {
        self.0.bytes()
    }
}

/// Scan (and, if torn, truncate) the log at `path`; returns its valid
/// record payloads.
pub fn wal_recover(path: &Path) -> std::io::Result<Vec<Vec<u8>>> {
    recover_wal(path).map(|r| r.records)
}
