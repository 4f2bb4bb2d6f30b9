//! The write path, end to end: update batches through the queue →
//! batcher → engine pipeline are atomic (one version bump per
//! micro-batch), delta-applied (no forest rebuild), read-your-writes
//! ordered, and — the oracle — answer-identical to a wholesale
//! `swap_dataset` with the surviving objects.

use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, DataVersion, DatasetStore, JoinAlgo, Update, UpdateResult};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_joins::brute_force_pairs;
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, ServiceBuilder, ShardedService};

type Service = ShardedService<2, AdaptiveGrid<2>>;

fn tree() -> TreeConfig<2> {
    TreeConfig::tiny(Variant::RStar)
}

fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

/// The layer every service here serves: `n` clustered boxes over a
/// 4 × 4 uniform grid.
fn layer(n: usize) -> (AdaptiveGrid<2>, Vec<Rect<2>>) {
    let data = clustered_with_layout::<2>(n, 5, 40_000.0, 0.2, 3, 3);
    (
        AdaptiveGrid::from_sample(data.domain, [4, 4], &[]),
        data.boxes,
    )
}

fn service(builder: ServiceBuilder, n: usize) -> (Service, Vec<Rect<2>>) {
    let (grid, boxes) = layer(n);
    let svc = builder.build(grid, boxes.clone(), tree(), clip());
    (svc, boxes)
}

fn queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(-20_000.0, 950_000.0);
            let y = rng.gen_range(-20_000.0, 950_000.0);
            let s = rng.gen_range(5_000.0, 90_000.0);
            Rect::new(Point([x, y]), Point([x + s, y + s]))
        })
        .collect()
}

fn range(svc: &Service, q: Rect<2>) -> Vec<DataId> {
    let mut ids = svc
        .submit(Request::Range {
            dataset: svc.default_dataset(),
            query: q,
            use_clips: true,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_range();
    ids.sort();
    ids
}

/// The acceptance oracle: a batch of mixed updates yields exactly the
/// same query/join answers as `swap_dataset` with the final dataset —
/// without a single forest rebuild on the update path.
#[test]
fn update_batch_equals_swap_data_with_final_dataset() {
    let (svc, boxes) = service(ServiceBuilder::new(), 1_200);
    let base = boxes.len();
    let mut rng = SplitMix64::new(41);

    // Mixed script: delete a spread of initial objects, insert fresh
    // ones (clustered + spanning + out-of-domain), delete one insert.
    let mut updates: Vec<Update<2>> = Vec::new();
    for i in 0..300 {
        updates.push(Update::Delete(DataId((i * 3) as u32)));
    }
    for _ in 0..250 {
        let x = rng.gen_range(0.0, 900_000.0);
        let y = rng.gen_range(0.0, 900_000.0);
        let w = rng.gen_range(0.0, 60_000.0);
        let h = rng.gen_range(0.0, 60_000.0);
        updates.push(Update::Insert(Rect::new(
            Point([x, y]),
            Point([x + w, y + h]),
        )));
    }
    updates.push(Update::Insert(Rect::new(
        Point([-50_000.0, 400_000.0]),
        Point([1_200_000.0, 430_000.0]),
    )));
    updates.push(Update::Delete(DataId(base as u32))); // first insert above
    let summary = svc
        .submit(Request::UpdateBatch {
            dataset: svc.default_dataset(),
            updates: updates.clone(),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_updated();
    assert_eq!(summary.version, DataVersion(1), "one batch, one bump");
    assert_eq!(summary.results.len(), updates.len());

    // Mirror the script to know the surviving (rect, id) set.
    let mut arena = boxes.clone();
    let mut live = vec![true; base];
    for u in &updates {
        match u {
            Update::Insert(r) => {
                arena.push(*r);
                live.push(true);
            }
            Update::Delete(id) => live[id.0 as usize] = false,
        }
    }
    let live_rects: Vec<Rect<2>> = arena
        .iter()
        .zip(&live)
        .filter(|(_, l)| **l)
        .map(|(r, _)| *r)
        .collect();
    assert_eq!(
        svc.dataset_live_count(svc.default_dataset()).unwrap(),
        live_rects.len()
    );

    // Reference service: wholesale swap to the final dataset (fresh id
    // space, so compare by rectangle).
    let (reference, _) = service(ServiceBuilder::new(), 1_200);
    reference
        .swap_dataset(reference.default_dataset(), live_rects.clone(), None)
        .unwrap();

    for (qi, q) in queries(40, 42).into_iter().enumerate() {
        // Ranges: identical result rectangles; against brute force too.
        let got: Vec<Rect<2>> = range(&svc, q)
            .iter()
            .map(|id| arena[id.0 as usize])
            .collect();
        let want: Vec<Rect<2>> = range(&reference, q)
            .iter()
            .map(|id| live_rects[id.0 as usize])
            .collect();
        let brute: Vec<&Rect<2>> = live_rects.iter().filter(|r| r.intersects(&q)).collect();
        assert_eq!(got.len(), brute.len(), "query {qi} vs brute force");
        let key = |r: &Rect<2>| {
            (
                r.lo[0].to_bits(),
                r.lo[1].to_bits(),
                r.hi[0].to_bits(),
                r.hi[1].to_bits(),
            )
        };
        let mut got_keys: Vec<_> = got.iter().map(key).collect();
        let mut want_keys: Vec<_> = want.iter().map(key).collect();
        got_keys.sort_unstable();
        want_keys.sort_unstable();
        assert_eq!(got_keys, want_keys, "query {qi}");

        // kNN: identical distance profiles.
        let knn = |svc: &Service| -> Vec<u64> {
            svc.submit(Request::Knn {
                dataset: svc.default_dataset(),
                center: q.center(),
                k: 9,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response
            .into_knn()
            .into_iter()
            .map(|(_, d)| d.to_bits())
            .collect()
        };
        assert_eq!(knn(&svc), knn(&reference), "kNN {qi}");
    }

    // Joins: exact pair counts, equal to brute force over survivors.
    let probes = queries(120, 43);
    let pairs = |svc: &Service, use_clips| {
        svc.submit(Request::Join {
            dataset: svc.default_dataset(),
            probes: probes.clone(),
            algo: JoinAlgo::Auto,
            use_clips,
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_join()
        .pairs
    };
    let expected = brute_force_pairs(&probes, &live_rects);
    for use_clips in [true, false] {
        assert_eq!(pairs(&svc, use_clips), expected, "delta clips={use_clips}");
        assert_eq!(
            pairs(&reference, use_clips),
            expected,
            "rebuilt clips={use_clips}"
        );
    }

    // The delta service never rebuilt: still the single start-time
    // forest build, with the whole script in one write batch, and it
    // allocated exactly the nodes the same batch costs a direct store.
    let report = svc.shutdown();
    assert_eq!(report.forest_builds, 1, "updates must not rebuild");
    assert_eq!(report.write_batches, 1);
    assert_eq!(report.updates_applied, updates.len() as u64);
    let (grid, _) = layer(1_200);
    let direct_nodes = DatasetStore::build(grid, &boxes, tree(), clip(), 1)
        .apply_updates(&updates, tree(), clip())
        .nodes_allocated;
    assert!(direct_nodes > 0);
    assert_eq!(report.delta_nodes_allocated, direct_nodes);
}

/// A request admitted after a write's completion observes the write —
/// across dispatcher threads and batch boundaries.
#[test]
fn read_your_writes_after_completion() {
    let (svc, _) = service(
        ServiceBuilder::new()
            .batch_max(16)
            .batch_deadline(Duration::from_millis(1))
            .dispatchers(2)
            .exec_workers(2),
        600,
    );
    let mut rng = SplitMix64::new(7);
    for i in 0..30 {
        let x = rng.gen_range(0.0, 900_000.0);
        let y = rng.gen_range(0.0, 900_000.0);
        let rect = Rect::new(Point([x, y]), Point([x + 500.0, y + 500.0]));
        let id = svc
            .submit(Request::Insert {
                dataset: svc.default_dataset(),
                rect,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response
            .into_inserted()
            .expect("finite rect is applied");
        // Admitted strictly after the insert completed: must see it.
        assert!(
            range(&svc, rect).contains(&id),
            "iteration {i}: fresh insert invisible"
        );
        let deleted = svc
            .submit(Request::Delete {
                dataset: svc.default_dataset(),
                id,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response
            .into_deleted();
        assert!(deleted, "iteration {i}");
        assert!(
            !range(&svc, rect).contains(&id),
            "iteration {i}: delete invisible"
        );
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.updates_applied, 60);
    assert_eq!(report.forest_builds, 1);
}

/// Every write sharing a micro-batch rides one version bump; empty
/// update batches bump nothing; degenerate writes answer cleanly.
#[test]
fn write_batches_bump_once_and_degenerates_answer() {
    let (svc, boxes) = service(ServiceBuilder::new(), 400);
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(0)
    );

    // One multi-op batch: exactly one bump.
    let summary = svc
        .submit(Request::UpdateBatch {
            dataset: svc.default_dataset(),
            updates: vec![
                Update::Insert(Rect::new(Point([1.0, 1.0]), Point([2.0, 2.0]))),
                Update::Delete(DataId(0)),
                Update::Delete(DataId(0)), // now dead
                Update::Delete(DataId(999_999)),
                Update::Insert(Rect::new(Point([0.0, 0.0]), Point([f64::INFINITY, 1.0]))),
            ],
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_updated();
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(1)
    );
    assert_eq!(summary.version, DataVersion(1));
    assert_eq!(
        summary.results,
        vec![
            UpdateResult::Inserted(DataId(400)),
            UpdateResult::Deleted(true),
            UpdateResult::Deleted(false),
            UpdateResult::Deleted(false),
            UpdateResult::Rejected,
        ]
    );

    // Empty batch: answered, no bump.
    let empty = svc
        .submit(Request::UpdateBatch {
            dataset: svc.default_dataset(),
            updates: Vec::new(),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_updated();
    assert_eq!(empty.version, DataVersion(1));
    assert!(empty.results.is_empty());
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(1)
    );

    // All-no-op write batches (rejected inserts, a dead delete) are
    // answered but change nothing: no bump, no applied-update
    // accounting — a retry storm cannot roll versions.
    let none = svc
        .submit(Request::Insert {
            dataset: svc.default_dataset(),
            rect: Rect::new(Point([0.0, 0.0]), Point([f64::INFINITY, 1.0])),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_inserted();
    assert_eq!(none, None);
    // An inverted rectangle (lo > hi on x) is refused like a
    // non-finite one: nothing is indexed.
    let inverted = svc
        .submit(Request::Insert {
            dataset: svc.default_dataset(),
            rect: Rect {
                lo: Point([5.0, 5.0]),
                hi: Point([4.0, 6.0]),
            },
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_inserted();
    assert_eq!(inverted, None);
    let dead = svc
        .submit(Request::Delete {
            dataset: svc.default_dataset(),
            id: DataId(0),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_deleted();
    assert!(!dead, "id 0 was deleted above");
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        DataVersion(1),
        "no-ops bump nothing"
    );
    let report = svc.report();
    assert_eq!(report.write_batches, 1);
    assert_eq!(report.updates_applied, 2, "only the applied insert+delete");

    // swap_dataset composes with the write path: wholesale replacement
    // re-keys ids, then updates keep working.
    svc.swap_dataset(svc.default_dataset(), boxes[..100].to_vec(), None)
        .unwrap();
    let v = svc.dataset_version(svc.default_dataset()).unwrap();
    let id = svc
        .submit(Request::Insert {
            dataset: svc.default_dataset(),
            rect: Rect::new(Point([5.0, 5.0]), Point([6.0, 6.0])),
        })
        .unwrap()
        .wait()
        .unwrap()
        .response
        .into_inserted()
        .unwrap();
    assert_eq!(id, DataId(100), "fresh arena after swap");
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap(),
        v.next()
    );
    assert_eq!(svc.dataset_live_count(svc.default_dataset()).unwrap(), 101);
    let report = svc.shutdown();
    assert_eq!(report.forest_builds, 2, "start + swap, never for writes");
}

/// Concurrent writers and readers: every request answered, the store
/// ends exactly where the applied updates put it, and large coalesced
/// write batches produce fewer bumps than writes.
#[test]
fn concurrent_writers_and_readers_drain_consistently() {
    let (svc, _) = service(
        ServiceBuilder::new()
            .batch_max(64)
            .batch_deadline(Duration::from_millis(5))
            .dispatchers(2)
            .exec_workers(2),
        500,
    );
    let svc = std::sync::Arc::new(svc);
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(100 + w);
                let mut inserted = 0usize;
                for _ in 0..60 {
                    let x = rng.gen_range(0.0, 900_000.0);
                    let y = rng.gen_range(0.0, 900_000.0);
                    let rect = Rect::new(Point([x, y]), Point([x + 1_000.0, y + 1_000.0]));
                    if svc
                        .submit(Request::Insert {
                            dataset: svc.default_dataset(),
                            rect,
                        })
                        .unwrap()
                        .wait()
                        .unwrap()
                        .response
                        .into_inserted()
                        .is_some()
                    {
                        inserted += 1;
                    }
                }
                inserted
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for q in queries(60, 200 + r) {
                    let _ = svc
                        .submit(Request::Range {
                            dataset: svc.default_dataset(),
                            query: q,
                            use_clips: true,
                        })
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            })
        })
        .collect();
    let inserted: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(inserted, 180);
    let svc = std::sync::Arc::into_inner(svc).expect("all threads joined");
    assert_eq!(
        svc.dataset_live_count(svc.default_dataset()).unwrap(),
        500 + 180
    );
    assert_eq!(
        svc.dataset_version(svc.default_dataset()).unwrap().0,
        svc.report().write_batches
    );
    let report = svc.shutdown();
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.updates_applied, 180);
    assert_eq!(report.forest_builds, 1);
}
