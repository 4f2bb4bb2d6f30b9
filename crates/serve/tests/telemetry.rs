//! Telemetry correctness: the registry is a *view* over the same
//! counters the engine already maintains, so its values must be
//! byte-equal to a direct-engine oracle; totals must stay exact under
//! concurrent producers; disabled telemetry must record nothing while
//! answering identically; and the scrape text format is a pinned API.

use std::collections::BTreeMap;
use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, DatasetStore, JoinAlgo, UniformGrid};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{AccessStats, TreeConfig, Variant};
use cbb_serve::{
    Request, Response, ServiceBuilder, ServiceConfig, ShardedService, TelemetryConfig,
    DEFAULT_DATASET,
};

const EXEC_WORKERS: usize = 2;

struct Fixture {
    objects: Vec<Rect<2>>,
    partitioner: AdaptiveGrid<2>,
    tree: TreeConfig<2>,
    clip: ClipConfig,
}

fn fixture() -> Fixture {
    let data = clustered_with_layout::<2>(1_800, 5, 25_000.0, 0.2, 11, 11);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [4, 4], &data.boxes);
    Fixture {
        objects: data.boxes,
        partitioner,
        tree: TreeConfig::tiny(Variant::RStar),
        clip: ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    }
}

fn service(f: &Fixture, telemetry: TelemetryConfig) -> ShardedService<2, AdaptiveGrid<2>> {
    ServiceBuilder::from_config(ServiceConfig {
        batch_max: 8,
        batch_deadline: Duration::from_millis(2),
        exec_workers: EXEC_WORKERS,
        telemetry,
        ..ServiceConfig::default()
    })
    .build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip)
}

fn range_queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(-10_000.0, 800_000.0);
            let y = rng.gen_range(-10_000.0, 800_000.0);
            let s = rng.gen_range(2_000.0, 50_000.0);
            Rect::new(Point([x, y]), Point([x + s, y + s]))
        })
        .collect()
}

fn knn_probes(n: usize, seed: u64) -> Vec<(Point<2>, usize)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let p = Point([
                rng.gen_range(-10_000.0, 800_000.0),
                rng.gen_range(-10_000.0, 800_000.0),
            ]);
            (p, 1 + i % 5)
        })
        .collect()
}

/// The registry's per-dataset `cbb_access_*` counters are fed from the
/// exact `AccessStats` the engine produces, so running the identical
/// workload against a directly-built [`DatasetStore`] must reproduce
/// every field byte-for-byte.
///
/// The service answers every range with clipped descents, whose
/// per-query counters are a pure function of the (query, tile) pair,
/// so the totals are independent of how the service cut the workload
/// into micro-batches.
#[test]
fn registry_access_counters_match_direct_engine_oracle() {
    let f = fixture();
    let svc = ServiceBuilder::from_config(ServiceConfig {
        batch_max: 8,
        batch_deadline: Duration::from_millis(2),
        exec_workers: EXEC_WORKERS,
        ..ServiceConfig::default()
    })
    .build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
    let dataset = svc.default_dataset();

    let clipped = range_queries(30, 9);
    let baseline = range_queries(24, 10);
    let probes = knn_probes(20, 11);

    let mut handles = Vec::new();
    for q in &clipped {
        handles.push(
            svc.submit(Request::Range {
                dataset,
                query: *q,
                use_clips: true,
            })
            .unwrap(),
        );
    }
    for q in &baseline {
        handles.push(
            svc.submit(Request::Range {
                dataset,
                query: *q,
                use_clips: false,
            })
            .unwrap(),
        );
    }
    for (center, k) in &probes {
        handles.push(
            svc.submit(Request::Knn {
                dataset,
                center: *center,
                k: *k,
            })
            .unwrap(),
        );
    }
    for h in handles {
        h.wait().unwrap();
    }
    let scrape = svc.shard_scrapes().remove(0);
    svc.shutdown();

    // The oracle: the same store built directly, probed with the same
    // queries, its AccessStats summed per field.
    let store = DatasetStore::build(
        f.partitioner.clone(),
        &f.objects,
        f.tree,
        f.clip,
        EXEC_WORKERS,
    );
    let mut oracle = AccessStats::new();
    oracle += &store.run(&clipped, EXEC_WORKERS, true).stats;
    oracle += &store.run(&baseline, EXEC_WORKERS, false).stats;
    oracle += &store.run_knn(&probes, EXEC_WORKERS).stats;

    let labels = [("dataset", DEFAULT_DATASET)];
    for (field, expected) in oracle.fields() {
        let name = format!("cbb_access_{field}_total");
        assert_eq!(
            scrape.snapshot.counter(&name, &labels),
            Some(expected),
            "{name} must equal the direct-engine AccessStats oracle"
        );
    }

    // The build counter ticks once per dataset create or swap: the one
    // initial build, zero read-path rebuilds.
    assert_eq!(
        scrape.snapshot.counter("cbb_forest_builds_total", &[]),
        Some(1)
    );
    // Every read, plus the queued create of the default dataset.
    assert_eq!(
        scrape.snapshot.counter("cbb_requests_completed_total", &[]),
        Some((clipped.len() + baseline.len() + probes.len() + 1) as u64)
    );
}

/// Reads stay clipped descents whatever the forest has cached: cross
/// joins sweep the dataset's tiles and cache their columns, and a
/// following micro-batch of ranges all landing in one tile still moves
/// the `cbb_access_*` counters by exactly what a direct
/// `DatasetStore::run` of the same queries counts — no shared sweep
/// replaces the descents.
#[test]
fn reads_stay_descents_whatever_the_forest_has_cached() {
    const RANGES: usize = 16;
    let f = fixture();
    let domain = Rect::mbb_of(&f.objects).expect("non-empty fixture");
    let grid = UniformGrid::new(domain, 4);
    let svc = ServiceBuilder::new()
        .batch_max(64)
        .batch_deadline(Duration::from_millis(200))
        .exec_workers(EXEC_WORKERS)
        .build(grid, f.objects.clone(), f.tree, f.clip);
    let dataset = svc.default_dataset();
    // A self-join, and a join from a differently tiled copy whose live
    // objects are re-partitioned onto this dataset's tiles.
    let other = svc
        .create_dataset("other", UniformGrid::new(domain, 3), f.objects.clone())
        .unwrap();
    for left in [dataset, other] {
        let joined = svc
            .submit(Request::CrossJoin {
                left,
                right: dataset,
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response
            .into_join();
        assert!(joined.pairs >= f.objects.len() as u64);
    }

    // Small windows inside the middle half of the busiest tile.
    let loads = grid.assign(&f.objects);
    let busiest = (0..grid.tile_count())
        .max_by_key(|&t| loads[t].len())
        .expect("tiles exist");
    let tile = grid.tile_rect(busiest);
    let (w, h) = (tile.hi.0[0] - tile.lo.0[0], tile.hi.0[1] - tile.lo.0[1]);
    let mut rng = SplitMix64::new(21);
    let queries: Vec<Rect<2>> = (0..RANGES)
        .map(|_| {
            let x = tile.lo.0[0] + w * rng.gen_range(0.25, 0.625);
            let y = tile.lo.0[1] + h * rng.gen_range(0.25, 0.625);
            Rect::new(Point([x, y]), Point([x + w / 8.0, y + h / 8.0]))
        })
        .collect();
    for q in &queries {
        assert_eq!(grid.covering_tiles(q), vec![busiest], "one tile per query");
    }

    let before = svc.shard_scrapes().remove(0).snapshot;
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            svc.submit(Request::Range {
                dataset,
                query: *q,
                use_clips: true,
            })
            .unwrap()
        })
        .collect();
    for h in handles {
        let done = h.wait().unwrap();
        assert_eq!(done.batch_size, RANGES, "the ranges ride one micro-batch");
    }
    let after = svc.shard_scrapes().remove(0).snapshot;
    svc.shutdown();

    let store = DatasetStore::build(grid, &f.objects, f.tree, f.clip, EXEC_WORKERS);
    let oracle = store.run(&queries, EXEC_WORKERS, true).stats;
    assert!(oracle.leaf_accesses > 0, "the descents read leaves");
    let labels = [("dataset", DEFAULT_DATASET)];
    for (field, expected) in oracle.fields() {
        let name = format!("cbb_access_{field}_total");
        let delta = after.counter(&name, &labels).unwrap_or(0)
            - before.counter(&name, &labels).unwrap_or(0);
        assert_eq!(delta, expected, "{name} delta must equal DatasetStore::run");
    }
}

/// N producer threads hammering the queue: every admission-side and
/// completion-side total must come out exact — no lost or double
/// counts, queue depth back to zero.
#[test]
fn concurrent_producers_record_exact_totals() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 40;

    let f = fixture();
    let svc = service(&f, TelemetryConfig::default());
    let dataset = svc.default_dataset();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = &svc;
            let queries = range_queries(PER_THREAD, 100 + t as u64);
            scope.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    let h = svc
                        .submit(Request::Range {
                            dataset,
                            query: *q,
                            use_clips: i % 2 == 0,
                        })
                        .unwrap();
                    h.wait().unwrap();
                }
            });
        }
    });

    let total = (THREADS * PER_THREAD) as u64;
    // The ranges plus the queued create of the default dataset.
    let admitted = total + 1;
    let scrape = svc.shard_scrapes().remove(0);
    let snap = &scrape.snapshot;
    assert_eq!(
        snap.counter("cbb_requests_submitted_total", &[]),
        Some(admitted)
    );
    assert_eq!(
        snap.counter("cbb_requests_completed_total", &[]),
        Some(admitted)
    );
    assert_eq!(
        snap.counter("cbb_requests_by_kind_total", &[("request_kind", "range")]),
        Some(total),
        "every request was a range"
    );
    assert_eq!(snap.gauge("cbb_queue_depth", &[]), Some(0));
    assert_eq!(
        snap.counter("cbb_batched_requests_total", &[]),
        Some(admitted),
        "batches carried every request exactly once"
    );
    let latency = snap
        .histogram("cbb_request_latency_ns", &[("request_kind", "range")])
        .expect("latency histogram registered");
    assert_eq!(latency.count, total);
    let batch_size = snap
        .histogram("cbb_batch_size", &[])
        .expect("batch size histogram registered");
    assert_eq!(batch_size.sum, admitted);
    assert_eq!(
        Some(batch_size.count),
        snap.counter("cbb_batches_total", &[])
    );
    svc.shutdown();
}

/// `TelemetryConfig::disabled()`: zero samples retained anywhere, empty
/// scrapes, inert slow ring — and byte-identical answers.
#[test]
fn disabled_telemetry_records_nothing_and_answers_identically() {
    let f = fixture();
    let on = service(&f, TelemetryConfig::default());
    let off = service(&f, TelemetryConfig::disabled());

    let queries = range_queries(25, 77);
    let probes = knn_probes(10, 78);
    let answers = |svc: &ShardedService<2, AdaptiveGrid<2>>| {
        let dataset = svc.default_dataset();
        let mut ranges = Vec::new();
        for q in &queries {
            let h = svc
                .submit(Request::Range {
                    dataset,
                    query: *q,
                    use_clips: true,
                })
                .unwrap();
            ranges.push(h.wait().unwrap().response.into_range());
        }
        let mut knns = Vec::new();
        for (center, k) in &probes {
            let h = svc
                .submit(Request::Knn {
                    dataset,
                    center: *center,
                    k: *k,
                })
                .unwrap();
            knns.push(h.wait().unwrap().response.into_knn());
        }
        (ranges, knns)
    };

    assert_eq!(
        answers(&on),
        answers(&off),
        "telemetry must not change answers"
    );

    let scrape = off.shard_scrapes().remove(0);
    assert_eq!(
        scrape.snapshot.total_recorded(),
        0,
        "disabled registry retains zero samples"
    );
    assert!(scrape.text.is_empty(), "disabled scrape renders no text");
    assert!(scrape.snapshot.families.is_empty());
    assert!(off.scrape().text.is_empty(), "the router's registry too");
    assert!(off.slow_queries().is_empty(), "slow ring stays inert");
    assert!(
        !on.slow_queries().is_empty(),
        "enabled ring retains entries"
    );

    // The report still answers questions the stores own (shape, rows),
    // but registry-backed counters read zero.
    let report = off.report();
    assert_eq!(report.submitted, 0);
    assert_eq!(report.datasets.len(), 1);
    assert_eq!(report.datasets[0].live_objects, f.objects.len());
    on.shutdown();
    off.shutdown();
}

/// The scrape text is a pinned format: stable family names and kinds,
/// ≥ 15 families after a mixed workload, per-dataset labels, and
/// internally consistent histogram expansions
/// (`_bucket{le="+Inf"}` == `_count`, `_sum`/`_count` present).
#[test]
fn golden_scrape_format() {
    let f = fixture();
    let svc = service(&f, TelemetryConfig::default());
    let dataset = svc.default_dataset();

    // One request of every data-path kind so every family has traffic.
    let mut handles = Vec::new();
    for (i, q) in range_queries(8, 5).into_iter().enumerate() {
        handles.push(
            svc.submit(Request::Range {
                dataset,
                query: q,
                use_clips: i % 2 == 0,
            })
            .unwrap(),
        );
    }
    handles.push(
        svc.submit(Request::Knn {
            dataset,
            center: Point([100.0, 100.0]),
            k: 3,
        })
        .unwrap(),
    );
    handles.push(
        svc.submit(Request::Join {
            dataset,
            probes: range_queries(5, 6),
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .unwrap(),
    );
    handles.push(
        svc.submit(Request::CrossJoin {
            left: dataset,
            right: dataset,
            algo: JoinAlgo::Auto,
            use_clips: true,
        })
        .unwrap(),
    );
    for h in handles {
        h.wait().unwrap();
    }
    let rect = Rect::new(Point([1.0, 1.0]), Point([2.0, 2.0]));
    let inserted = svc
        .submit(Request::Insert { dataset, rect })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    let id = match inserted {
        Response::Inserted(Some(id)) => id,
        other => panic!("insert failed: {other:?}"),
    };
    let deleted = svc
        .submit(Request::Delete { dataset, id })
        .unwrap()
        .wait()
        .unwrap()
        .response;
    assert_eq!(deleted, Response::Deleted(true));

    let scrape = svc.shard_scrapes().remove(0);
    let text = &scrape.text;

    // ── Golden family catalog: names and kinds are API.
    let expected_types = [
        ("cbb_requests_submitted_total", "counter"),
        ("cbb_requests_rejected_total", "counter"),
        ("cbb_requests_completed_total", "counter"),
        ("cbb_requests_by_kind_total", "counter"),
        ("cbb_queue_depth", "gauge"),
        ("cbb_batches_total", "counter"),
        ("cbb_batched_requests_total", "counter"),
        ("cbb_batch_size_max", "gauge"),
        ("cbb_batch_size", "histogram"),
        ("cbb_request_latency_ns", "histogram"),
        ("cbb_request_phase_ns", "histogram"),
        ("cbb_forest_builds_total", "counter"),
        ("cbb_cross_joins_total", "counter"),
        ("cbb_probe_repartitions_total", "counter"),
        ("cbb_write_batches_total", "counter"),
        ("cbb_updates_applied_total", "counter"),
        ("cbb_delta_nodes_allocated_total", "counter"),
        ("cbb_join_pairs_total", "counter"),
        ("cbb_access_leaf_accesses_total", "counter"),
        ("cbb_access_contributing_leaf_accesses_total", "counter"),
        ("cbb_access_internal_accesses_total", "counter"),
        ("cbb_access_results_total", "counter"),
        ("cbb_access_clip_tests_total", "counter"),
        ("cbb_access_clip_prunes_total", "counter"),
        ("cbb_access_overlap_tests_total", "counter"),
        ("cbb_dataset_live_objects", "gauge"),
        ("cbb_dataset_arena_slots", "gauge"),
        ("cbb_dataset_version", "gauge"),
        ("cbb_dataset_load_imbalance", "gauge"),
        ("cbb_dataset_tile_occupancy_p50", "gauge"),
        ("cbb_dataset_tile_occupancy_p99", "gauge"),
    ];
    for (name, kind) in expected_types {
        assert!(
            text.contains(&format!("# TYPE {name} {kind}\n")),
            "scrape must expose {name} as a {kind}"
        );
    }
    let distinct_families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(
        distinct_families >= 15,
        "need ≥ 15 families, got {distinct_families}"
    );

    // ── Per-dataset labels on the access counters and dataset gauges.
    assert!(text.contains(&format!(
        "cbb_access_leaf_accesses_total{{dataset=\"{DEFAULT_DATASET}\"}}"
    )));
    assert!(text.contains(&format!(
        "cbb_dataset_live_objects{{dataset=\"{DEFAULT_DATASET}\"}}"
    )));
    assert!(text.contains("request_kind=\"range\""));
    assert!(text.contains("phase=\"execute\""));
    // Each served job has one kernel, so no series reports a kernel mix.
    for gone in ["cbb_join_algo", "cbb_query_algo", "cbb_fused"] {
        assert!(!text.contains(gone), "{gone}* series must not be exposed");
    }

    // ── Histogram expansion invariants: every series' +Inf bucket
    // equals its _count, and _sum exists alongside.
    let mut inf_buckets: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut sums = 0usize;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        if series.contains("le=\"+Inf\"") {
            let key = series_key(series, "_bucket").expect("+Inf line is a bucket");
            inf_buckets.insert(key, value.parse().unwrap());
        } else if let Some(key) = series_key(series, "_count") {
            counts.insert(key, value.parse().unwrap());
        } else if series_key(series, "_sum").is_some() {
            sums += 1;
        }
    }
    assert!(!inf_buckets.is_empty(), "histograms render +Inf buckets");
    assert!(sums >= inf_buckets.len(), "every histogram renders a _sum");
    assert_eq!(
        inf_buckets, counts,
        "per series, the +Inf cumulative bucket must equal _count"
    );

    // ── JSON exposition covers the same families.
    assert!(scrape.json.contains("cbb_requests_submitted_total"));
    assert!(scrape.json.contains("cbb_request_latency_ns"));

    // ── The slow ring has entries with phase breakdowns.
    let slow = svc.slow_queries();
    assert!(!slow.is_empty());
    assert!(
        slow.iter().all(|q| q
            .span
            .breakdown()
            .iter()
            .any(|(name, _)| *name == "execute")),
        "every retained slow query carries an execute phase"
    );

    svc.shutdown();
}

/// Normalize a histogram sample's series name: strip `suffix` from the
/// metric name and drop the `le` label, so `_bucket{le="+Inf"}` and
/// `_count` lines of the same series map to the same key. Returns
/// `None` when the metric name does not carry `suffix`.
fn series_key(series: &str, suffix: &str) -> Option<String> {
    let (name, labels) = match series.split_once('{') {
        Some((name, labels)) => (name, labels.trim_end_matches('}')),
        None => (series, ""),
    };
    let base = name.strip_suffix(suffix)?;
    let kept: Vec<&str> = labels
        .split(',')
        .filter(|kv| !kv.is_empty() && !kv.starts_with("le="))
        .collect();
    Some(format!("{base}{{{}}}", kept.join(",")))
}
