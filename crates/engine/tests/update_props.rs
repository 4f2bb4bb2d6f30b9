//! Property tests for the mutable versioned store: after *any*
//! interleaving of inserts and deletes, the delta-maintained
//! [`TileForest`] answers range, kNN, and join requests exactly like a
//! forest rebuilt wholesale over the surviving objects.
//!
//! kNN answers are canonical (`(dist², id)`-sorted) and must match
//! byte-for-byte; range answers are compared as sorted id lists
//! (per-query result *sets* — traversal order legitimately differs
//! between bulk-loaded and incrementally grown trees); joins must agree
//! on the exact global pair count. Inputs are adversarially skewed the
//! same way the partitioner property tests are: clustered blobs,
//! tile-spanning rects, and degenerate point-extent rects. One
//! deterministic churn test also pins what delta maintenance saves over
//! rebuilding: R-tree node allocations.

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    partitioned_join_with, AdaptiveGrid, CompactionPolicy, DatasetStore, JoinPlan, Partitioner,
    QuadtreePartitioner, TileForest, UniformGrid, Update,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{DataId, TreeConfig, Variant};
use proptest::prelude::*;
use std::sync::Arc;

const DOMAIN: Rect<2> = Rect {
    lo: Point([0.0, 0.0]),
    hi: Point([1000.0, 1000.0]),
};

fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
}

/// One skewed rectangle: clustered small box, tile-spanning box, or
/// degenerate point-extent box (weighted towards the clusters).
fn arb_skewed_rect() -> impl Strategy<Value = Rect<2>> {
    let blob = |cx: f64, cy: f64| {
        (-40.0f64..40.0, -40.0f64..40.0, 0.1f64..8.0, 0.1f64..8.0).prop_map(
            move |(dx, dy, w, h)| {
                let x = (cx + dx).clamp(0.0, 990.0);
                let y = (cy + dy).clamp(0.0, 990.0);
                r2(x, y, x + w, y + h)
            },
        )
    };
    let spanning = (
        0.0f64..700.0,
        0.0f64..700.0,
        100.0f64..300.0,
        100.0f64..300.0,
    )
        .prop_map(|(x, y, w, h)| r2(x, y, x + w, y + h));
    let point_extent = (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| {
        let p = Point([x, y]);
        Rect::new(p, p)
    });
    prop_oneof![
        blob(150.0, 150.0),
        blob(150.0, 150.0),
        blob(820.0, 780.0),
        spanning,
        point_extent,
    ]
}

/// A raw update script: inserts carry a rect; deletes carry an index
/// resolved against the (growing) arena at application time, so scripts
/// can delete initial objects *and* objects inserted earlier in the
/// same script, and occasionally miss (dead/unknown id).
#[derive(Clone, Debug)]
enum ScriptOp {
    Insert(Rect<2>),
    Delete(usize),
}

fn arb_script(max_len: usize) -> impl Strategy<Value = Vec<ScriptOp>> {
    let op = prop_oneof![
        arb_skewed_rect().prop_map(ScriptOp::Insert),
        (0usize..4000).prop_map(ScriptOp::Delete),
    ];
    prop::collection::vec(op, 1..max_len)
}

/// Apply a script through the store in per-batch chunks, mirroring
/// the arena in plain vectors for the oracle — including the store's
/// documented slot-reclamation semantics: deletes tombstone their slot,
/// a post-batch sweep frees every dead slot once tombstones exceed
/// [`cbb_engine::DEFAULT_COMPACT_DEAD_FRACTION`] of the arena, and
/// later inserts reuse freed slots smallest-id-first before appending.
/// The adversarial delete-heavy scripts cross the threshold routinely,
/// so the mirror exercises compaction on most cases.
fn run_script<P: Partitioner<2> + Clone>(
    partitioner: P,
    initial: &[Rect<2>],
    script: &[ScriptOp],
    chunk: usize,
) -> (DatasetStore<2, P>, Vec<Rect<2>>, Vec<bool>) {
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let mut store = DatasetStore::build(partitioner, initial, tree, clip, 2);
    let mut arena: Vec<Rect<2>> = initial.to_vec();
    let mut live = vec![true; initial.len()];
    // Free slots sorted descending: `pop()` reuses the smallest id,
    // exactly as the store does.
    let mut free: Vec<u32> = Vec::new();
    let mut tombstones = 0usize;
    for ops in script.chunks(chunk.max(1)) {
        let batch: Vec<Update<2>> = ops
            .iter()
            .map(|op| match op {
                ScriptOp::Insert(r) => Update::Insert(*r),
                ScriptOp::Delete(i) => Update::Delete(DataId((*i % (arena.len() + 5)) as u32)),
            })
            .collect();
        // Mirror the batch on the oracle arena.
        for u in &batch {
            match u {
                Update::Insert(r) => match free.pop() {
                    Some(slot) => {
                        arena[slot as usize] = *r;
                        live[slot as usize] = true;
                    }
                    None => {
                        arena.push(*r);
                        live.push(true);
                    }
                },
                Update::Delete(id) => {
                    let slot = id.0 as usize;
                    if slot < live.len() && live[slot] {
                        live[slot] = false;
                        tombstones += 1;
                    }
                }
            }
        }
        // Mirror the post-batch compaction sweep.
        if tombstones as f64 > cbb_engine::DEFAULT_COMPACT_DEAD_FRACTION * arena.len() as f64 {
            free = (0..arena.len() as u32)
                .rev()
                .filter(|&s| !live[s as usize])
                .collect();
            tombstones = 0;
        }
        store.apply_updates(&batch, tree, clip);
    }
    (store, arena, live)
}

fn check_against_rebuild<P: Partitioner<2> + Clone>(
    store: &DatasetStore<2, P>,
    arena: &[Rect<2>],
    live: &[bool],
    queries: &[Rect<2>],
) -> Result<(), TestCaseError> {
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    prop_assert_eq!(store.objects(), arena);
    prop_assert_eq!(store.live(), live);
    let rebuilt_forest = Arc::new(TileForest::build_where(
        store.partitioner(),
        arena,
        Some(live),
        tree,
        clip,
        2,
    ));
    let rebuilt = DatasetStore::with_forest_where(
        store.partitioner().clone(),
        arena.to_vec(),
        live.to_vec(),
        rebuilt_forest.clone(),
    );

    // Ranges: same id sets per query, against brute force over the
    // live arena.
    let delta_out = store.run(queries, 2, true);
    let rebuilt_out = rebuilt.run(queries, 2, true);
    for (i, q) in queries.iter().enumerate() {
        let mut want: Vec<DataId> = arena
            .iter()
            .enumerate()
            .filter(|(j, r)| live[*j] && r.intersects(q))
            .map(|(j, _)| DataId(j as u32))
            .collect();
        want.sort();
        let mut delta = delta_out.results[i].clone();
        delta.sort();
        let mut reb = rebuilt_out.results[i].clone();
        reb.sort();
        prop_assert_eq!(&delta, &want, "delta range {}", i);
        prop_assert_eq!(&reb, &want, "rebuilt range {}", i);
    }

    // kNN: canonical order, byte-equal.
    let probes: Vec<(Point<2>, usize)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.center(), [1, 3, 9][i % 3]))
        .collect();
    prop_assert_eq!(
        store.run_knn(&probes, 2).results,
        rebuilt.run_knn(&probes, 2).results
    );

    // Join: exact pair count vs brute force over live objects.
    let live_rects: Vec<Rect<2>> = arena
        .iter()
        .zip(live)
        .filter(|(_, l)| **l)
        .map(|(r, _)| *r)
        .collect();
    let plan = JoinPlan::new(store.partitioner().clone(), tree, clip, 2);
    let joined = partitioned_join_with(&plan, queries, store.objects(), store.forest());
    prop_assert_eq!(joined.pairs, brute_force_pairs(queries, &live_rects));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_store_equals_rebuild_uniform_grid(
        initial in prop::collection::vec(arb_skewed_rect(), 0..60),
        script in arb_script(80),
        queries in prop::collection::vec(arb_skewed_rect(), 1..12),
        chunk in 1usize..20,
    ) {
        let grid = UniformGrid::new(DOMAIN, 4);
        let (store, arena, live) = run_script(grid, &initial, &script, chunk);
        check_against_rebuild(&store, &arena, &live, &queries)?;
    }

    #[test]
    fn delta_store_equals_rebuild_adaptive_grid(
        initial in prop::collection::vec(arb_skewed_rect(), 1..60),
        script in arb_script(60),
        queries in prop::collection::vec(arb_skewed_rect(), 1..10),
    ) {
        // Boundaries fitted to the initial data only: later inserts
        // cross cuts they never voted for.
        let grid = AdaptiveGrid::from_sample(DOMAIN, [3, 3], &initial);
        let (store, arena, live) = run_script(grid, &initial, &script, 7);
        check_against_rebuild(&store, &arena, &live, &queries)?;
    }

    #[test]
    fn delta_store_equals_rebuild_quadtree(
        initial in prop::collection::vec(arb_skewed_rect(), 1..50),
        script in arb_script(60),
        queries in prop::collection::vec(arb_skewed_rect(), 1..10),
    ) {
        let qt = QuadtreePartitioner::build(DOMAIN, &initial, 16);
        let (store, arena, live) = run_script(qt, &initial, &script, 11);
        check_against_rebuild(&store, &arena, &live, &queries)?;
    }
}

/// Delta maintenance pays for itself: a churn stream (60 % inserts
/// shaped like the data and dropped near it, 40 % deletes of distinct
/// base objects) absorbed batch by batch allocates fewer R-tree nodes
/// than rebuilding the forest after every batch, and the maintained
/// store answers exactly like the last rebuild. Compaction is off so
/// both sides keep the same append-only id space.
#[test]
fn delta_apply_allocates_fewer_nodes_than_rebuild_per_batch() {
    let (n, batches, ops_per_batch) = (4_000, 8, 150);
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 0xCBB, 0xCBB);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    let mut rng = SplitMix64::new(0x5EED);
    let mut deletable: Vec<u32> = (0..n as u32).collect();
    let jig = data.domain.extent(0) * 0.02;
    let script: Vec<Update<2>> = (0..batches * ops_per_batch)
        .map(|_| {
            if rng.gen_range(0.0, 1.0) < 0.4 {
                let pick = rng.gen_index(deletable.len());
                Update::Delete(DataId(deletable.swap_remove(pick)))
            } else {
                let anchor = data.boxes[rng.gen_index(n)].center();
                let template = data.boxes[rng.gen_index(n)];
                let x = anchor[0] + rng.gen_range(-jig, jig);
                let y = anchor[1] + rng.gen_range(-jig, jig);
                Update::Insert(r2(x, y, x + template.extent(0), y + template.extent(1)))
            }
        })
        .collect();

    let mut store = DatasetStore::build(partitioner.clone(), &data.boxes, tree, clip, 2)
        .with_compaction(CompactionPolicy::never());
    let mut delta_nodes = 0;
    let mut arena = data.boxes.clone();
    let mut live = vec![true; n];
    let mut rebuild_nodes = 0;
    let mut rebuilt = None;
    for ops in script.chunks(ops_per_batch) {
        delta_nodes += store.apply_updates(ops, tree, clip).nodes_allocated;
        for op in ops {
            match op {
                Update::Insert(r) => {
                    arena.push(*r);
                    live.push(true);
                }
                Update::Delete(id) => live[id.0 as usize] = false,
            }
        }
        let forest = TileForest::build_where(&partitioner, &arena, Some(&live), tree, clip, 2);
        rebuild_nodes += forest.nodes_allocated();
        rebuilt = Some(forest);
    }
    assert!(
        delta_nodes < rebuild_nodes,
        "delta-apply allocated {delta_nodes} nodes, rebuild-per-batch {rebuild_nodes}"
    );

    assert_eq!(store.objects(), &arena[..]);
    assert_eq!(store.live(), &live[..]);
    let rebuilt = DatasetStore::with_forest_where(
        partitioner,
        arena,
        live,
        Arc::new(rebuilt.expect("at least one batch")),
    );
    let queries: Vec<Rect<2>> = (0..60)
        .map(|_| {
            let anchor = data.boxes[rng.gen_index(n)].center();
            let s = rng.gen_range(5_000.0, 60_000.0);
            r2(
                anchor[0] - s / 2.0,
                anchor[1] - s / 2.0,
                anchor[0] + s / 2.0,
                anchor[1] + s / 2.0,
            )
        })
        .collect();
    // Each per-query list is sorted by id, so the lists compare directly.
    assert_eq!(
        store.run(&queries, 2, true).results,
        rebuilt.run(&queries, 2, true).results
    );
}
