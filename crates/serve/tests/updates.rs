//! The write path, end to end: update batches through the queue →
//! batcher → engine pipeline are atomic (one version bump per
//! micro-batch), delta-applied (no forest rebuild), read-your-writes
//! ordered, and — the oracle — answer-identical to a wholesale
//! `SwapData` with the surviving objects.
//!
//! The first three tests are named cases of the seeded harness
//! (`harness/`), which replays the service's own write batches on the
//! engine reference, compares every response (ids, versions,
//! per-update results), versions and live counts after every round,
//! counts forest builds, and ends every case by swapping each dataset
//! to its model's survivors and comparing answers.

mod harness;
#[path = "../../engine/tests/model/mod.rs"]
mod model;

use std::time::Duration;

use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::AdaptiveGrid;
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::Variant;
use cbb_serve::{Request, ServiceBuilder, ShardedService};
use harness::{run, Shape};

type Service = ShardedService<2, AdaptiveGrid<2>>;

/// Long write streams on one dispatcher, every dataset swapped to its
/// survivors at the end.
#[test]
fn update_batch_equals_swap_data_with_final_dataset() {
    run(401, |c| {
        c.shape.dispatchers = 1;
        c.rounds = 10;
    });
}

/// Every round's reads are admitted after its writes completed, across
/// two dispatchers and batch boundaries: they must observe them.
#[test]
fn read_your_writes_after_completion() {
    run(402, |c| {
        c.shape = Shape {
            shards: 1,
            dispatchers: 2,
            batch_max: Some(16),
            deadline: Duration::ZERO,
            exec_workers: 2,
            durable: false,
        }
    });
}

/// Writes sharing a micro-batch ride one version bump, empty and
/// all-no-op batches bump nothing, rejected inserts answer `None`.
#[test]
fn write_batches_bump_once_and_degenerates_answer() {
    let seen = run(403, |c| {
        c.shape = Shape {
            shards: 1,
            dispatchers: 1,
            batch_max: Some(64),
            deadline: Duration::from_millis(5),
            exec_workers: 3,
            durable: false,
        };
        c.hostile = 0.1;
    });
    assert!(seen.contains("batch>1"), "writes must share batches");
}

fn service(builder: ServiceBuilder, n: usize) -> Service {
    let data = clustered_with_layout::<2>(n, 5, 40_000.0, 0.2, 3, 3);
    let grid = AdaptiveGrid::from_sample(data.domain, [4, 4], &[]);
    builder.build(grid, data.boxes, model::tree(Variant::RStar), model::clip())
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

/// Concurrent writers and readers: every request answered, the store
/// ends exactly where the applied updates put it, and large coalesced
/// write batches produce fewer bumps than writes.
#[test]
fn concurrent_writers_and_readers_drain_consistently() {
    let svc = service(
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
