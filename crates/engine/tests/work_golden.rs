//! Counted work as a golden: one seeded clustered dataset on a fitted
//! 8 × 8 grid (R\*, Stairline), driven through the engine's range, kNN,
//! join and update paths, with every deterministic counter printed as a
//! `name = value` line and compared byte for byte with
//! `golden/work.txt`.
//!
//! The oracle tests pin answers, and the counter-exact tests pin one
//! path against another; this file pins the *amount* of work. A change
//! that silently loses pruning (a clip test that never fires, a re-clip
//! that no longer happens, a kNN bound that restarts at ∞) changes a
//! line here and fails, with the first differing line in the message.
//!
//! A change that moves the counters on purpose regenerates the file —
//! `CBB_BLESS_GOLDEN=1 cargo test -p cbb-engine --test work_golden` —
//! and says which lines moved and why. Do not re-seed or resize the
//! workload to make it pass.

use std::fmt::Write as _;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    partitioned_join_forests, partitioned_join_with, AdaptiveGrid, DatasetStore, JoinPlan, Update,
    UpdateOutcome, UpdateResult,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::JoinResult;
use cbb_rtree::{AccessStats, DataId, Neighbor, TreeConfig, Variant};

const OBJECTS: usize = 20_000;
const PROBE_OBJECTS: usize = 5_000;
const RANGE_QUERIES: usize = 512;
const KNN_PROBES: usize = 128;
const UPDATE_BATCHES: usize = 4;
const UPDATES_PER_BATCH: usize = 200;
const WORKERS: usize = 2;
const SEED: u64 = 0x60_1DE4;

type Store = DatasetStore<2, AdaptiveGrid<2>>;

fn tree() -> TreeConfig<2> {
    TreeConfig::paper_default(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

/// FNV-1a over a stream of words: a compact digest of an answer set, so
/// the golden notices a changed answer as well as changed work.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn put(out: &mut String, name: &str, value: impl std::fmt::Display) {
    writeln!(out, "{name} = {value}").expect("writing to a String");
}

fn put_stats(out: &mut String, prefix: &str, stats: &AccessStats) {
    for (name, value) in stats.fields() {
        put(out, &format!("{prefix}.{name}"), value);
    }
}

fn put_join(out: &mut String, prefix: &str, join: &JoinResult) {
    put(out, &format!("{prefix}.pairs"), join.pairs);
    put(out, &format!("{prefix}.overlap_tests"), join.overlap_tests);
    put(
        out,
        &format!("{prefix}.leaf_accesses"),
        join.leaf_accesses(),
    );
    put(
        out,
        &format!("{prefix}.internal_accesses"),
        join.internal_accesses,
    );
    put(out, &format!("{prefix}.clip_prunes"), join.clip_prunes);
    put(out, &format!("{prefix}.tiles_sweep"), join.tiles_sweep);
}

/// Range windows: three in four are small windows anchored at an
/// object, the rest span several tiles (multi-assigned objects, and so
/// the reference-point dedup, matter there).
fn range_queries(objects: &[Rect<2>], domain: &Rect<2>, rng: &mut SplitMix64) -> Vec<Rect<2>> {
    let hi = domain.hi.0;
    (0..RANGE_QUERIES)
        .map(|i| {
            let anchor = objects[rng.gen_range(0.0, objects.len() as f64) as usize];
            let s = if i % 4 == 3 {
                rng.gen_range(10_000.0, 40_000.0)
            } else {
                rng.gen_range(50.0, 2_000.0)
            };
            let x = (anchor.lo[0] - s / 2.0).clamp(0.0, hi[0] - s);
            let y = (anchor.lo[1] - s / 2.0).clamp(0.0, hi[1] - s);
            Rect::new(Point([x, y]), Point([x + s, y + s]))
        })
        .collect()
}

/// kNN probes: half at objects, half anywhere in the domain, with `k`
/// cycling through 1, 4, 16 and 64.
fn knn_probes(
    objects: &[Rect<2>],
    domain: &Rect<2>,
    rng: &mut SplitMix64,
) -> Vec<(Point<2>, usize)> {
    let hi = domain.hi.0;
    (0..KNN_PROBES)
        .map(|i| {
            let center = if i % 2 == 0 {
                objects[rng.gen_range(0.0, objects.len() as f64) as usize].center()
            } else {
                Point([rng.gen_range(0.0, hi[0]), rng.gen_range(0.0, hi[1])])
            };
            (center, [1, 4, 16, 64][i % 4])
        })
        .collect()
}

/// One seeded update batch: inserts next to existing objects, deletes
/// of random ids (some already dead), and one refused insert.
fn update_batch(store: &Store, rng: &mut SplitMix64) -> Vec<Update<2>> {
    let objects = store.objects();
    let mut batch: Vec<Update<2>> = (0..UPDATES_PER_BATCH)
        .map(|_| {
            let i = rng.gen_range(0.0, objects.len() as f64) as usize;
            if rng.gen_range(0.0, 1.0) < 0.5 {
                let r = objects[i];
                let (dx, dy) = (
                    rng.gen_range(-3_000.0, 3_000.0),
                    rng.gen_range(-3_000.0, 3_000.0),
                );
                Update::Insert(Rect::new(
                    Point([r.lo[0] + dx, r.lo[1] + dy]),
                    Point([r.hi[0] + dx, r.hi[1] + dy]),
                ))
            } else {
                Update::Delete(DataId(i as u32))
            }
        })
        .collect();
    batch.push(Update::Insert(Rect {
        lo: Point([f64::NAN, 0.0]),
        hi: Point([1.0, 1.0]),
    }));
    batch
}

fn range_digest(results: &[Vec<DataId>]) -> u64 {
    let mut d = Digest::new();
    for r in results {
        d.word(r.len() as u64);
        for id in r {
            d.word(u64::from(id.0));
        }
    }
    d.0
}

fn knn_digest(results: &[Vec<Neighbor>]) -> u64 {
    let mut d = Digest::new();
    for r in results {
        d.word(r.len() as u64);
        for (id, dist) in r {
            d.word(u64::from(id.0));
            d.word(dist.to_bits());
        }
    }
    d.0
}

/// The range and kNN batches, counters and answer digests.
fn reads(
    out: &mut String,
    prefix: &str,
    store: &Store,
    ranges: &[Rect<2>],
    knns: &[(Point<2>, usize)],
) {
    let range = store.run(ranges, WORKERS, true);
    put_stats(out, &format!("{prefix}range"), &range.stats);
    put(
        out,
        &format!("{prefix}range.answers"),
        range.total_results(),
    );
    put(
        out,
        &format!("{prefix}range.answer_digest"),
        format_args!("{:#018x}", range_digest(&range.results)),
    );
    let knn = store.run_knn(knns, WORKERS);
    put_stats(out, &format!("{prefix}knn"), &knn.stats);
    let answers: usize = knn.results.iter().map(Vec::len).sum();
    put(out, &format!("{prefix}knn.answers"), answers);
    put(
        out,
        &format!("{prefix}knn.answer_digest"),
        format_args!("{:#018x}", knn_digest(&knn.results)),
    );
}

fn put_update(out: &mut String, prefix: &str, outcome: &UpdateOutcome) {
    let count = |f: fn(&UpdateResult) -> bool| outcome.results.iter().filter(|r| f(r)).count();
    put(
        out,
        &format!("{prefix}.inserted"),
        count(|r| matches!(r, UpdateResult::Inserted(_))),
    );
    put(
        out,
        &format!("{prefix}.deleted"),
        count(|r| matches!(r, UpdateResult::Deleted(true))),
    );
    put(
        out,
        &format!("{prefix}.deletes_missed"),
        count(|r| matches!(r, UpdateResult::Deleted(false))),
    );
    put(
        out,
        &format!("{prefix}.rejected"),
        count(|r| matches!(r, UpdateResult::Rejected)),
    );
    put(
        out,
        &format!("{prefix}.tiles_touched"),
        outcome.tiles_touched,
    );
    put(
        out,
        &format!("{prefix}.trees_created"),
        outcome.trees_created,
    );
    put(
        out,
        &format!("{prefix}.trees_dropped"),
        outcome.trees_dropped,
    );
    put(
        out,
        &format!("{prefix}.nodes_allocated"),
        outcome.nodes_allocated,
    );
    put(
        out,
        &format!("{prefix}.slots_reclaimed"),
        outcome.slots_reclaimed,
    );
}

fn put_maintenance(out: &mut String, store: &Store) {
    let forest = store.forest();
    let trees: Vec<_> = (0..forest.tile_count())
        .filter_map(|t| forest.tree(t))
        .map(|tree| tree.maintenance)
        .collect();
    let sum =
        |f: fn(&cbb_rtree::clipped::MaintenanceStats) -> u64| trees.iter().map(f).sum::<u64>();
    put(out, "maintenance.reclips_split", sum(|m| m.reclips_split));
    put(out, "maintenance.reclips_mbb", sum(|m| m.reclips_mbb));
    put(out, "maintenance.reclips_cbb", sum(|m| m.reclips_cbb));
    put(out, "maintenance.validity_tests", sum(|m| m.validity_tests));
    put(out, "maintenance.inserts", sum(|m| m.inserts));
    put(out, "maintenance.deletes", sum(|m| m.deletes));
}

/// Every counter of the workload, one `name = value` line each.
fn counted_work() -> String {
    let data = clustered_with_layout::<2>(OBJECTS, 8, 20_000.0, 0.1, SEED, SEED);
    let grid = AdaptiveGrid::from_sample(data.domain, [8, 8], &data.boxes);
    let mut store = DatasetStore::build(grid.clone(), &data.boxes, tree(), clip(), WORKERS);
    let mut out = String::new();
    put(&mut out, "dataset.objects", store.live_count());
    put(&mut out, "dataset.tiles_built", store.tile_tree_count());
    put(&mut out, "dataset.indexed", store.forest().total_indexed());
    put(
        &mut out,
        "dataset.nodes_allocated",
        store.forest().nodes_allocated(),
    );

    let mut rng = SplitMix64::new(SEED ^ 0x0123);
    let ranges = range_queries(&data.boxes, &data.domain, &mut rng);
    let knns = knn_probes(&data.boxes, &data.domain, &mut rng);
    reads(&mut out, "", &store, &ranges, &knns);

    // Joins against a second dataset clustered at the same places: once
    // on the same tiling (both sides' forests), once on its own fitted
    // grid (the probe side re-partitioned onto the indexed side's tiles).
    let probe = clustered_with_layout::<2>(PROBE_OBJECTS, 8, 20_000.0, 0.1, SEED, SEED ^ 0x50BE);
    let plan = JoinPlan::new(grid.clone(), tree(), clip(), WORKERS);
    let same = DatasetStore::build(grid, &probe.boxes, tree(), clip(), WORKERS);
    let join = partitioned_join_forests(&plan, same.forest(), store.objects(), store.forest());
    put_join(&mut out, "join_same_tiling", &join);
    let own_grid = AdaptiveGrid::from_sample(probe.domain, [5, 7], &probe.boxes);
    let cross = DatasetStore::build(own_grid, &probe.boxes, tree(), clip(), WORKERS);
    let join = partitioned_join_with(&plan, &cross.live_rects(), store.objects(), store.forest());
    put_join(&mut out, "join_cross_tiling", &join);

    let mut rng = SplitMix64::new(SEED ^ 0x0BA7);
    for b in 0..UPDATE_BATCHES {
        let batch = update_batch(&store, &mut rng);
        let outcome = store.apply_updates(&batch, tree(), clip());
        put_update(&mut out, &format!("update{b}"), &outcome);
    }
    put_maintenance(&mut out, &store);
    put(&mut out, "after_updates.objects", store.live_count());
    reads(&mut out, "after_updates.", &store, &ranges, &knns);
    out
}

#[test]
fn counted_work_matches_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/work.txt");
    let got = counted_work();
    if std::env::var_os("CBB_BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write the golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden/work.txt is committed");
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "golden/work.txt line {} differs (got left, golden right)",
            line + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden/work.txt has a different number of lines"
    );
}
