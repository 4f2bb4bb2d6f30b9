//! The seeded model behind the differential tests.
//!
//! A seed draws a [`Case`]: datasets clustered at a shared layout, with
//! tile-spanning, point, segment, duplicate and out-of-domain objects
//! mixed in; a tiling per dataset (an equal-cut grid, a fitted grid, a
//! 1 × 1 grid or a quadtree; the second dataset may share the first's);
//! a tree variant; and one engine execution shape ([`Exec`]). Three
//! parties answer the same reads:
//!
//! * **M** — [`Model`], a brute-force model of one dataset: its arena,
//!   live mask, id reuse and version, and every answer by exhaustive
//!   scan (`cbb_joins::brute_force_pairs` for joins);
//! * **R** — the engine reference: [`DatasetStore::run`],
//!   [`DatasetStore::run_knn`] and `partitioned_join_{with,forests}` at
//!   one worker, [`QueryAlgo::Descend`], [`SplitPolicy::Never`];
//! * **E** — the drawn engine execution of the same batches.
//!
//! The checks: R equals M (a range hit, join pair or kNN neighbour is
//! reported exactly once whatever the tiling — the reference-point
//! duplicate avoidance), and E equals R (`Descend` counters included;
//! the fused paths' counters differ by design, so for them the answers,
//! the per-query counter sums and the counters' independence of workers
//! and decomposition are pinned). After every write batch [`audit`]
//! runs the clip audit and the structural validation on every tile
//! tree.
//!
//! The engine's `tests/oracle.rs` and `tests/fusion.rs` run
//! [`engine_case`]; `cbb-serve`'s `tests/model.rs` drives the same model
//! and reference through the service.
#![allow(dead_code)]

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    partitioned_join_forests, partitioned_join_with, sequential_join, AdaptiveGrid, AnyPartitioner,
    AutoPolicy, BatchOutcome, DatasetStore, JoinPlan, Partitioner, QuadtreePartitioner, QueryAlgo,
    SplitPolicy, Update, UpdateResult, COMPACT_DEAD_FRACTION,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::{brute_force_pairs, JoinResult};
use cbb_rtree::{AccessStats, DataId, Neighbor, TreeConfig, Variant};

pub type Store = DatasetStore<2, AnyPartitioner<2>>;

/// The square `clustered_with_layout` draws into; partitioners are
/// fitted to it, so objects outside it are clamped to border tiles.
pub const DOMAIN: f64 = 1_000_000.0;

pub fn tree(variant: Variant) -> TreeConfig<2> {
    TreeConfig::tiny(variant)
}

pub fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

pub fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
}

pub fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.gen_index(from.len())]
}

/// The tilings a case draws from ([`Tiling::ALL`]), plus a coarse
/// grid that cases pin where shards must outnumber tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tiling {
    Equal,
    Fitted,
    Single,
    Quadtree,
    Coarse,
}

impl Tiling {
    pub const ALL: [Tiling; 4] = [
        Tiling::Equal,
        Tiling::Fitted,
        Tiling::Single,
        Tiling::Quadtree,
    ];

    pub fn partitioner(self, sample: &[Rect<2>]) -> AnyPartitioner<2> {
        let domain = r2(0.0, 0.0, DOMAIN, DOMAIN);
        match self {
            Tiling::Equal => AdaptiveGrid::from_sample(domain, [4, 3], &[]).into(),
            Tiling::Fitted => AdaptiveGrid::from_sample(domain, [3, 4], sample).into(),
            Tiling::Single => AdaptiveGrid::from_sample(domain, [1, 1], &[]).into(),
            Tiling::Coarse => AdaptiveGrid::from_sample(domain, [2, 2], &[]).into(),
            Tiling::Quadtree => {
                QuadtreePartitioner::build(domain, sample, sample.len() / 8 + 1).into()
            }
        }
    }
}

/// One engine execution shape: the axes the reference fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exec {
    pub algo: QueryAlgo,
    pub split: SplitPolicy,
    pub workers: usize,
}

impl Exec {
    pub const REFERENCE: Exec = Exec {
        algo: QueryAlgo::Descend,
        split: SplitPolicy::Never,
        workers: 1,
    };
    pub const ALGOS: [QueryAlgo; 3] = [QueryAlgo::Descend, QueryAlgo::SharedSweep, QueryAlgo::Auto];
    pub const SPLITS: [SplitPolicy; 3] =
        [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)];

    pub fn draw(rng: &mut SplitMix64) -> Exec {
        Exec {
            algo: pick(rng, &Self::ALGOS),
            split: pick(rng, &Self::SPLITS),
            workers: pick(rng, &[1, 3]),
        }
    }

    fn plan(
        self,
        partitioner: &AnyPartitioner<2>,
        use_clips: bool,
    ) -> JoinPlan<2, AnyPartitioner<2>> {
        JoinPlan::new(
            partitioner.clone(),
            tree(Variant::RStar),
            clip(),
            self.workers,
        )
        .with_clips(use_clips)
        .with_split(self.split)
    }
}

/// What a seed draws before its stream starts.
#[derive(Clone, Debug)]
pub struct Case {
    pub rng: SplitMix64,
    pub variant: Variant,
    pub exec: Exec,
    /// One tiling per initial dataset.
    pub tilings: Vec<Tiling>,
    /// Dataset 1 reuses dataset 0's partitioner (same-tiling joins).
    pub share: bool,
    /// Objects per initial dataset.
    pub size: usize,
    /// Every object spans tiles: the duplicate-avoidance edge case.
    /// For grids only: a quadtree splits to its depth cap where more
    /// objects than its budget overlap one point.
    pub wide: bool,
    /// Shared blob layout, so the datasets' joins are dense.
    pub layout: u64,
}

impl Case {
    pub fn draw(seed: u64, datasets: usize) -> Case {
        let mut rng = SplitMix64::new(seed);
        Case {
            variant: pick(&mut rng, &Variant::ALL),
            exec: Exec::draw(&mut rng),
            tilings: (0..datasets)
                .map(|_| pick(&mut rng, &Tiling::ALL))
                .collect(),
            share: rng.gen_index(2) == 0,
            size: 150 + rng.gen_index(150),
            wide: false,
            layout: rng.next_u64(),
            rng,
        }
    }

    /// Objects for a new dataset (or an insert burst).
    pub fn objects(&mut self, n: usize) -> Vec<Rect<2>> {
        let seed = self.rng.next_u64();
        let mut boxes = clustered_with_layout::<2>(n, 4, 40_000.0, 0.2, self.layout, seed).boxes;
        for i in 0..boxes.len() {
            if self.wide || i % 4 == 0 {
                let odd = self.odd_object(&boxes[..=i]);
                boxes[i] = odd;
            }
        }
        boxes
    }

    /// A tile-spanning, point, segment, duplicate or out-of-domain
    /// object near the last of `so_far`.
    fn odd_object(&mut self, so_far: &[Rect<2>]) -> Rect<2> {
        let c = so_far[so_far.len() - 1].center().0;
        let rng = &mut self.rng;
        let kind = if self.wide { 0 } else { rng.gen_index(5) };
        match kind {
            0 => {
                let (w, h) = (rng.gen_range(0.2, 0.7), rng.gen_range(0.02, 0.5));
                r2(c[0], c[1], c[0] + w * DOMAIN, c[1] + h * DOMAIN)
            }
            1 => r2(c[0], c[1], c[0], c[1]),
            2 => r2(c[0], c[1], c[0] + rng.gen_range(1.0, 0.3 * DOMAIN), c[1]),
            3 => so_far[rng.gen_index(so_far.len())],
            _ => {
                let d = rng.gen_range(1.0, 0.1 * DOMAIN);
                let (x, y) = if rng.gen_index(2) == 0 {
                    (-d - 5_000.0, c[1])
                } else {
                    (c[0], DOMAIN + d)
                };
                r2(x, y, x + 5_000.0, y + 5_000.0)
            }
        }
    }

    /// A range window: tiny, tile-sized, a strip across the domain, a
    /// point, or a miss outside it.
    pub fn window(&mut self) -> Rect<2> {
        let rng = &mut self.rng;
        let (x, y) = (
            rng.gen_range(-0.05, 1.0) * DOMAIN,
            rng.gen_range(-0.05, 1.0) * DOMAIN,
        );
        let (w, h) = match rng.gen_index(5) {
            0 => (0.01, 0.01),
            1 => (0.3, 0.25),
            2 => (1.2, 0.03),
            3 => (0.0, 0.0),
            _ => return r2(-3.0 * DOMAIN, y, -2.0 * DOMAIN, y + 1.0),
        };
        r2(x, y, x + w * DOMAIN, y + h * DOMAIN)
    }

    /// A kNN centre, sometimes outside the domain.
    pub fn centre(&mut self) -> Point<2> {
        let rng = &mut self.rng;
        Point([
            rng.gen_range(-0.2, 1.2) * DOMAIN,
            rng.gen_range(-0.2, 1.2) * DOMAIN,
        ])
    }

    /// k ∈ {0, 1, 7, more than live}.
    pub fn k(&mut self, live: usize) -> usize {
        pick(&mut self.rng, &[0, 1, 7, live + 3])
    }

    /// A probe set: empty, one probe, or a handful to a few dozen.
    pub fn probes(&mut self) -> Vec<Rect<2>> {
        let n = pick(&mut self.rng, &[0, 1, 8, 30]);
        (0..n).map(|_| self.window()).collect()
    }

    /// A write batch against `model`: inserts, deletes of live ids, and
    /// no-op deletes of dead or never-issued ids; sometimes
    /// delete-heavy, so arena compaction and id reuse happen.
    pub fn updates(&mut self, model: &Model, n: usize) -> Vec<Update<2>> {
        let live: Vec<DataId> = model.live_ids().collect();
        let delete_share = pick(&mut self.rng, &[0.2, 0.5, 0.9]);
        let fresh = self.objects(n);
        fresh
            .into_iter()
            .map(|rect| {
                let roll = self.rng.next_f64();
                if roll < 0.05 {
                    Update::Delete(DataId((model.arena_len() + self.rng.gen_index(9)) as u32))
                } else if roll < delete_share && !live.is_empty() {
                    Update::Delete(pick(&mut self.rng, &live))
                } else {
                    Update::Insert(rect)
                }
            })
            .collect()
    }
}

/// M: the brute-force model of one dataset.
#[derive(Clone, Debug)]
pub struct Model {
    objects: Vec<Rect<2>>,
    live: Vec<bool>,
    /// Reclaimed slots, largest first (the store reuses the smallest).
    free: Vec<u32>,
    tombstones: usize,
    pub version: u64,
}

impl Model {
    pub fn new(objects: Vec<Rect<2>>) -> Model {
        Model {
            live: vec![true; objects.len()],
            objects,
            free: Vec::new(),
            tombstones: 0,
            version: 0,
        }
    }

    /// A wholesale replacement: a fresh arena under the next version.
    pub fn swap(&mut self, objects: Vec<Rect<2>>) {
        let version = self.version + 1;
        *self = Model::new(objects);
        self.version = version;
    }

    /// One write batch, in order: an insert takes the smallest
    /// reclaimed slot, else a fresh one; an invalid rect is rejected; a
    /// batch that applied anything bumps the version once; past the
    /// dead fraction a sweep reclaims every dead slot.
    pub fn apply(&mut self, updates: &[Update<2>]) -> Vec<UpdateResult> {
        let results: Vec<UpdateResult> = updates
            .iter()
            .map(|update| match *update {
                Update::Insert(rect) if !rect.is_valid() => UpdateResult::Rejected,
                Update::Insert(rect) => {
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.objects.push(rect);
                        self.live.push(false);
                        self.objects.len() as u32 - 1
                    });
                    self.objects[slot as usize] = rect;
                    self.live[slot as usize] = true;
                    UpdateResult::Inserted(DataId(slot))
                }
                Update::Delete(id) => {
                    let was_live = self.live.get(id.0 as usize).copied().unwrap_or(false);
                    if was_live {
                        self.live[id.0 as usize] = false;
                        self.tombstones += 1;
                    }
                    UpdateResult::Deleted(was_live)
                }
            })
            .collect();
        if results
            .iter()
            .any(|r| matches!(r, UpdateResult::Inserted(_) | UpdateResult::Deleted(true)))
        {
            self.version += 1;
        }
        if self.tombstones as f64 > COMPACT_DEAD_FRACTION * self.objects.len() as f64 {
            self.free = (0..self.objects.len() as u32)
                .rev()
                .filter(|&s| !self.live[s as usize])
                .collect();
            self.tombstones = 0;
        }
        results
    }

    pub fn arena_len(&self) -> usize {
        self.objects.len()
    }

    pub fn rect(&self, id: DataId) -> Rect<2> {
        self.objects[id.0 as usize]
    }

    pub fn live_ids(&self) -> impl Iterator<Item = DataId> + '_ {
        (0..self.objects.len() as u32)
            .filter(|&i| self.live[i as usize])
            .map(DataId)
    }

    pub fn live_count(&self) -> usize {
        self.live_ids().count()
    }

    /// The survivors in id order — what a swap to the final state holds.
    pub fn live_rects(&self) -> Vec<Rect<2>> {
        self.live_ids().map(|id| self.rect(id)).collect()
    }

    pub fn range(&self, q: &Rect<2>) -> Vec<DataId> {
        self.live_ids()
            .filter(|&id| self.rect(id).intersects(q))
            .collect()
    }

    /// The exact `(squared distance, id)` top-k.
    pub fn knn(&self, c: &Point<2>, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = self
            .live_ids()
            .map(|id| (id, self.rect(id).min_dist_sq(c)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// R's arena state equals M's: live set, rects and version.
    pub fn assert_mirrors(&self, store: &Store, what: &str) {
        assert_eq!(store.live_count(), self.live_count(), "{what}: live count");
        assert_eq!(store.version().0, self.version, "{what}: version");
        for id in self.live_ids() {
            assert!(
                store.live()[id.0 as usize],
                "{what}: {id:?} live in M, dead in R"
            );
            assert_eq!(
                store.objects()[id.0 as usize],
                self.rect(id),
                "{what}: {id:?}"
            );
        }
    }
}

/// R's store for `objects` under `partitioner` (one build worker).
pub fn store(partitioner: AnyPartitioner<2>, objects: &[Rect<2>], variant: Variant) -> Store {
    DatasetStore::build(partitioner, objects, tree(variant), clip(), 1)
}

/// The §IV-D invariant and the tree structure, on every tile tree.
pub fn audit(store: &Store, what: &str) {
    let forest = store.forest();
    for t in 0..forest.tile_count() {
        if let Some(tree) = forest.tree(t) {
            let checked = tree.verify_clips().and_then(|()| tree.tree.validate());
            checked.unwrap_or_else(|e| panic!("{what}: tile {t}: {e}"));
        }
    }
}

/// R's answers to a batch of ranges, checked against M, with E checked
/// against R.
pub fn ranges(
    store: &Store,
    model: &Model,
    queries: &[Rect<2>],
    use_clips: bool,
    exec: Exec,
) -> Vec<Vec<DataId>> {
    let reference = store.run(queries, 1, use_clips);
    for (q, got) in queries.iter().zip(&reference.results) {
        assert_eq!(*got, model.range(q), "R ≠ M: range {q:?} clips={use_clips}");
    }
    let drawn = ranges_with(store, queries, use_clips, exec);
    assert_eq!(
        drawn.results, reference.results,
        "E ≠ R: {exec:?} clips={use_clips}"
    );
    assert_eq!(
        AccessStats::sum(&drawn.per_query),
        drawn.stats,
        "{exec:?}: per-query counters sum"
    );
    let undivided = Exec {
        split: SplitPolicy::Never,
        workers: 1,
        ..exec
    };
    match exec.algo {
        QueryAlgo::Descend => assert_eq!(drawn, reference, "E ≠ R: {exec:?} counters"),
        // Fused: no tile descends, one width per fused tile, and the
        // counters are exact under any worker count and decomposition.
        QueryAlgo::SharedSweep => {
            assert_eq!(drawn.tiles_descend, 0, "{exec:?}: every tile fuses");
            assert_eq!(drawn.fused_widths.len() as u64, drawn.tiles_fused);
            let whole = ranges_with(store, queries, use_clips, undivided);
            assert_eq!(drawn, whole, "{exec:?}: counters");
        }
        // Auto decides per tile from whether the tile's columns are
        // cached: with every column warm it is exact under any
        // decomposition, and a policy that never fuses is `Descend`.
        QueryAlgo::Auto => {
            for t in 0..store.forest().tile_count() {
                store.forest().columns(t);
            }
            let warm = ranges_with(store, queries, use_clips, exec);
            let whole = ranges_with(store, queries, use_clips, undivided);
            assert_eq!(warm, whole, "{exec:?}: warm counters");
            let never = AutoPolicy {
                fuse_min_queries: usize::MAX,
                ..AutoPolicy::default()
            };
            let (workers, split) = (exec.workers, exec.split);
            let auto = store.run_with(queries, workers, use_clips, exec.algo, &never, split);
            assert_eq!(auto, reference, "{exec:?}: a never-fusing Auto is Descend");
        }
    }
    reference.results
}

fn ranges_with(store: &Store, queries: &[Rect<2>], use_clips: bool, exec: Exec) -> BatchOutcome {
    store.run_with(
        queries,
        exec.workers,
        use_clips,
        exec.algo,
        &AutoPolicy::default(),
        exec.split,
    )
}

/// R's answers to a batch of kNN probes, checked against M, with E
/// (worker count) checked against R counters included.
pub fn knns(
    store: &Store,
    model: &Model,
    probes: &[(Point<2>, usize)],
    exec: Exec,
) -> Vec<Vec<Neighbor>> {
    let reference = store.run_knn(probes, 1);
    for ((c, k), got) in probes.iter().zip(&reference.results) {
        assert_eq!(*got, model.knn(c, *k), "R ≠ M: kNN k={k} at {c:?}");
    }
    assert_eq!(
        store.run_knn(probes, exec.workers),
        reference,
        "E ≠ R: kNN {exec:?}"
    );
    reference.results
}

/// Swept tiles: those where both sides hold something.
fn populated(left: &[bool], right: &Store) -> u64 {
    (0..left.len())
        .filter(|&t| left[t] && right.forest().tree(t).is_some())
        .count() as u64
}

fn check_join(
    reference: JoinResult,
    drawn: JoinResult,
    pairs: u64,
    swept: u64,
    what: &str,
) -> JoinResult {
    assert_eq!(reference.pairs, pairs, "R ≠ M: {what}");
    assert_eq!(
        reference.tiles_sweep, swept,
        "{what}: every populated tile sweeps"
    );
    assert_eq!(reference.tiles_stt + reference.tiles_inlj, 0, "{what}");
    assert_eq!(drawn, reference, "E ≠ R: {what}");
    reference
}

/// R's probe join `probes ⋈ store` (the served `Join`), checked against
/// M; on a 1 × 1 tiling with clips off and both sides non-empty,
/// every counter equals [`sequential_join`]'s.
pub fn probe_join(
    store: &Store,
    model: &Model,
    probes: &[Rect<2>],
    use_clips: bool,
    exec: Exec,
) -> JoinResult {
    let part = store.partitioner();
    let run = |e: Exec| {
        partitioned_join_with(
            &e.plan(part, use_clips),
            probes,
            store.objects(),
            store.forest(),
        )
    };
    let assigned: Vec<bool> = part.assign(probes).iter().map(|t| !t.is_empty()).collect();
    let pairs = brute_force_pairs(probes, &model.live_rects());
    let what = format!("probe join of {} clips={use_clips}", probes.len());
    let reference = check_join(
        run(Exec::REFERENCE),
        run(exec),
        pairs,
        populated(&assigned, store),
        &what,
    );
    if part.tile_count() == 1 && !use_clips && reference.tiles_sweep == 1 {
        assert_eq!(
            reference,
            sequential_join(probes, &model.live_rects()),
            "1 × 1 ≠ sequential"
        );
    }
    reference
}

/// R's cross-join `left ⋈ right` (the served `CrossJoin`), tiled by
/// the right side: one forest joined with itself for a self-join, both
/// forests borrowed on a shared tiling, the left's survivors
/// re-partitioned otherwise.
pub fn cross_join(
    left: (&Store, &Model),
    right: (&Store, &Model),
    use_clips: bool,
    exec: Exec,
) -> JoinResult {
    let ((ls, lm), (rs, rm)) = (left, right);
    let part = rs.partitioner();
    let shared = ls.partitioner() == part;
    let run = |e: Exec| {
        let plan = e.plan(part, use_clips);
        if shared {
            partitioned_join_forests(&plan, ls.forest(), rs.objects(), rs.forest())
        } else {
            partitioned_join_with(&plan, &ls.live_rects(), rs.objects(), rs.forest())
        }
    };
    let left_tiles: Vec<bool> = if shared {
        (0..part.tile_count())
            .map(|t| ls.forest().tree(t).is_some())
            .collect()
    } else {
        part.assign(&ls.live_rects())
            .iter()
            .map(|t| !t.is_empty())
            .collect()
    };
    let pairs = brute_force_pairs(&lm.live_rects(), &rm.live_rects());
    let what = format!("cross join shared={shared} clips={use_clips}");
    check_join(
        run(Exec::REFERENCE),
        run(exec),
        pairs,
        populated(&left_tiles, rs),
        &what,
    )
}

/// One engine-only case: two datasets, three rounds of reads (ranges with
/// and without clips, kNN, probe joins, cross-joins both ways and a
/// self-join — R against M, E against R) each followed by a write batch
/// per dataset applied to R and M alike and audited. `pin` overrides
/// drawn axes before anything is built.
pub fn engine_case(seed: u64, pin: impl FnOnce(&mut Case)) {
    let mut case = Case::draw(seed, 2);
    pin(&mut case);
    let (variant, exec) = (case.variant, case.exec);
    let mut sides: Vec<(Store, Model)> = Vec::new();
    for i in 0..2 {
        let objects = case.objects(case.size);
        let part = if i == 1 && case.share {
            sides[0].0.partitioner().clone()
        } else {
            case.tilings[i].partitioner(&objects)
        };
        sides.push((store(part, &objects, variant), Model::new(objects)));
    }
    for round in 0..3 {
        for (store, model) in &sides {
            for use_clips in [true, false] {
                let windows: Vec<Rect<2>> = (0..12).map(|_| case.window()).collect();
                ranges(store, model, &windows, use_clips, exec);
                probe_join(store, model, &case.probes(), use_clips, exec);
            }
            let probes: Vec<(Point<2>, usize)> = (0..8)
                .map(|_| (case.centre(), case.k(model.live_count())))
                .collect();
            knns(store, model, &probes, exec);
        }
        let [(a, am), (b, bm)] = &sides[..] else {
            unreachable!()
        };
        for use_clips in [true, false] {
            cross_join((a, am), (b, bm), use_clips, exec);
            cross_join((b, bm), (a, am), use_clips, exec);
            cross_join((a, am), (a, am), use_clips, exec);
        }
        for (store, model) in &mut sides {
            let updates = case.updates(model, 30);
            let outcome = store.apply_updates(&updates, tree(variant), clip());
            assert_eq!(
                outcome.results,
                model.apply(&updates),
                "R ≠ M: write results"
            );
            model.assert_mirrors(store, &format!("seed {seed} round {round}"));
            audit(store, &format!("seed {seed} round {round}"));
        }
    }
}
