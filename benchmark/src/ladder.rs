//! The layer ladder: the same data and queries run at every rung —
//! kernel on one tile, `DatasetStore`, the service, two shards, durable
//! — each timed and counted through `layers.rs`, so that each rung's
//! overhead over the one below is a number.
//!
//! The ladder is the same on every traced run, whatever the workload:
//! it always replays the first 20 480 range and 5 120 kNN queries of
//! `read_saturated` over its 200 000 objects, and joins `join_batch`'s
//! three datasets.
//! Counts (accesses, tests, tiles) repeat exactly for one seed; times
//! are this sandbox's.

use std::path::Path;
use std::time::Duration;

use crate::drive::{self, Client, Stop};
use crate::gen::{self, stream, Box2, ObjectGen, Op};
use crate::layers::{
    self, Algo, Answer, Clipped, Cols, Counters, Store, Svc, SvcOpts, Tiling, Upd, Wal,
};
use crate::model;
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workloads::{self, Cfg, Inputs, MixedClient, Workload};

const OBJECTS: usize = 200_000;
const RANGE_QUERIES: usize = 20_480;
const KNN_QUERIES: usize = 5_120;
const BATCH: usize = 64;
/// Queries run one per call (`engine.run_b1`, the unbatched service).
const SINGLE_QUERIES: usize = 4_096;
/// Objects deleted from and re-inserted into one tile's clipped tree.
const TREE_UPDATES: usize = 2_000;
/// Write batches applied to the store, and their width.
const APPLY_BATCHES: usize = 32;
const APPLY_SINGLES: usize = 256;
/// WAL records appended and synced one by one, and updates per record
/// (about what one micro-batch of `mixed_rw` coalesces).
const WAL_RECORDS: usize = 256;
const WAL_RECORD_UPDATES: usize = 8;
/// Requests of the `mixed_rw` stream sent through the plain and the
/// durable service.
const DURABLE_REQUESTS: usize = 20_000;
/// Turns each side of the telemetry comparison takes; a tenth of
/// `--seconds` is split among them.
const TELEMETRY_TURNS: usize = 5;
/// Times a millisecond-scale kernel is repeated; the median is reported.
const KERNEL_REPS: usize = 5;

fn us(ns: u64, per: usize) -> f64 {
    ns as f64 / per.max(1) as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median wall time of `KERNEL_REPS` calls of `f`, and its last result.
fn median_ns<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    mut f: impl FnMut() -> T,
) -> (T, u64) {
    let mut times = Vec::with_capacity(KERNEL_REPS);
    let mut last = None;
    for _ in 0..KERNEL_REPS {
        let (out, ns) = tracer.timed(name, parent, &mut f);
        times.push(ns as f64);
        last = Some(out);
    }
    (
        last.expect("KERNEL_REPS is at least one"),
        stats::median(&times) as u64,
    )
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Cycles through a fixed list of operations.
struct Replay<'a> {
    ops: &'a [Op],
    at: usize,
}

impl Client for Replay<'_> {
    fn next(&mut self) -> (usize, Op) {
        let op = self.ops[self.at % self.ops.len()].clone();
        self.at += 1;
        (0, op)
    }

    fn done(&mut self, op: Op, answer: Answer) -> bool {
        workloads::shape_ok(&op, &answer)
    }
}

/// One closed-loop pass of `ops` through `svc` (window 256), as one
/// span; returns nanoseconds per request. Failures go to the report.
fn service_pass(
    svc: &Svc,
    ops: &[Op],
    stop: Stop,
    name: &'static str,
    parent: SpanId,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let mut client = Replay { ops, at: 0 };
    let span = tracer.open(name, parent);
    tracer.set_on(false);
    let rec = drive::closed_loop(svc, &mut client, 256, stop, 0, false, tracer);
    tracer.set_on(true);
    tracer.close(span);
    report.attempted += rec.attempted;
    report.failed += rec.failed;
    rec.elapsed_ns as f64 / rec.completed.max(1) as f64
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer, report: &mut Report) {
    let n = cfg.scaled(OBJECTS);
    let a = gen::objects(cfg.seed, 0, n);
    let (mut ranges, mut knns) = (Vec::new(), Vec::new());
    let (want_ranges, want_knns) = (cfg.scaled(RANGE_QUERIES), cfg.scaled(KNN_QUERIES));
    let mut reads = workloads::saturated_reads(cfg.seed, &a);
    while ranges.len() < want_ranges || knns.len() < want_knns {
        match reads.next() {
            Op::Range(q) if ranges.len() < want_ranges => ranges.push(q),
            Op::Knn(p, k) if knns.len() < want_knns => knns.push((p, k)),
            _ => {}
        }
    }
    let tiling = Tiling::adaptive(&a);

    let busiest = build_costs(&tiling, &a, tracer, report);
    tree_updates(busiest, tracer, report);

    let (mut store_a, ns) = tracer.timed("engine.forest_build", NONE, || Store::build(&tiling, &a));
    report.put("engine.forest_build_s", ns as f64 / 1e9);
    report.put("engine.load_imbalance", store_a.load_imbalance());
    report.put(
        "engine.boundary_object_ratio",
        tiling.boundary_object_ratio(&a),
    );

    let run_b64_us = tree_and_engine_reads(&tiling, &store_a, &ranges, &knns, tracer, report);

    query_sweep(&tiling, &store_a, &ranges, tracer, report);

    // The join rungs run on `join_batch`'s own three datasets, tiled as
    // that workload tiles them.
    let joined = Inputs::generate(Workload::JoinBatch, cfg).datasets;
    let grid = Tiling::adaptive(&joined[0]);
    let stores = [
        Store::build(&grid, &joined[0]),
        Store::build(&grid, &joined[1]),
        Store::build(&Tiling::quadtree(&joined[2]), &joined[2]),
    ];
    join_kernels(&grid, &stores[0], &stores[1], &joined[1], tracer, report);
    engine_joins(&stores, &joined, tracer, report);
    drop(stores);

    let record = writes_and_persistence(cfg, &tiling, &a, &mut store_a, tracer, report);
    wal(cfg, &record, tracer, report);
    drop(store_a);

    serve_rungs(cfg, &tiling, &a, &ranges, run_b64_us, tracer, report);
    report.put("bench.spans_recorded", tracer.len() as f64);
}

/// `rtree.bulk_load_us_per_obj`, `core.clip_*`: the two halves of a
/// forest build, per tile. Returns the most populated tile's tree and
/// its objects.
fn build_costs(
    tiling: &Tiling,
    a: &[Box2],
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Clipped, Vec<(Box2, u32)>) {
    let span = tracer.open("ladder.build_costs", NONE);
    let (mut load_ns, mut clip_ns, mut objects, mut nodes, mut clip_points) =
        (0u64, 0u64, 0usize, 0usize, 0usize);
    let mut busiest: Option<(Clipped, Vec<(Box2, u32)>)> = None;
    for items in tiling.assign(a).iter().filter(|items| items.len() > 0) {
        let (base, ns) = tracer.timed("rtree.bulk_load", span, || layers::bulk_load(items));
        load_ns += ns;
        let (tree, ns) = tracer.timed("core.clip_tree", span, || layers::clip(base));
        clip_ns += ns;
        objects += items.len();
        nodes += tree.nodes();
        clip_points += tree.clip_points();
        if busiest
            .as_ref()
            .is_none_or(|(_, held)| held.len() < items.len())
        {
            busiest = Some((tree, items.boxes()));
        }
    }
    tracer.close(span);
    report.put("rtree.bulk_load_us_per_obj", us(load_ns, objects));
    report.put("core.clip_build_us_per_node", us(clip_ns, nodes));
    report.put(
        "core.clip_points_per_node",
        clip_points as f64 / nodes.max(1) as f64,
    );
    busiest.expect("the dataset is not empty")
}

/// `rtree.insert_us`, `rtree.delete_us`, `rtree.reclips_per_update`:
/// §IV-D maintenance on one tile's clipped tree.
fn tree_updates(
    (mut tree, items): (Clipped, Vec<(Box2, u32)>),
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let span = tracer.open("ladder.tree_updates", NONE);
    let step = (items.len() / TREE_UPDATES).max(1);
    let moved: Vec<&(Box2, u32)> = items.iter().step_by(step).take(TREE_UPDATES).collect();
    let before = tree.reclips();
    let (mut delete_ns, mut insert_ns) = (0u64, 0u64);
    for (rect, id) in &moved {
        let (found, ns) = tracer.timed("rtree.delete", span, || tree.delete(rect, *id));
        delete_ns += ns;
        report.attempted += 1;
        report.failed += u64::from(!found);
    }
    for (rect, id) in &moved {
        insert_ns += tracer
            .timed("rtree.insert", span, || tree.insert(rect, *id))
            .1;
    }
    tracer.close(span);
    report.put("rtree.delete_us", us(delete_ns, moved.len()));
    report.put("rtree.insert_us", us(insert_ns, moved.len()));
    report.put(
        "rtree.reclips_per_update",
        (tree.reclips() - before) as f64 / (2 * moved.len()).max(1) as f64,
    );
}

/// The read rungs below the service: per-tile tree descents
/// (`rtree.*`), then `DatasetStore::run_with` / `run_knn` on one worker
/// (`engine.*`). Returns `engine.run_b64_us_per_query`.
fn tree_and_engine_reads(
    tiling: &Tiling,
    store: &Store,
    ranges: &[Box2],
    knns: &[([f64; 2], usize)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let n = ranges.len();
    let (tiles, ns) = tracer.timed("engine.covering_tiles", NONE, || {
        ranges
            .iter()
            .map(|q| tiling.covering_tiles(q))
            .collect::<Vec<_>>()
    });
    report.put("engine.covering_tiles_ns_per_query", ns as f64 / n as f64);

    let span = tracer.open("ladder.rtree_replay", NONE);
    let (mut clipped, mut base) = (Counters::default(), Counters::default());
    let mut range_ns = 0u64;
    for (q, tiles) in ranges.iter().zip(&tiles) {
        range_ns += tracer
            .timed("rtree.range", span, || {
                for &t in tiles {
                    store.tile_range(t, q, true, &mut clipped);
                }
            })
            .1;
    }
    tracer.timed("rtree.range_unclipped_pass", span, || {
        for (q, tiles) in ranges.iter().zip(&tiles) {
            for &t in tiles {
                store.tile_range(t, q, false, &mut base);
            }
        }
    });
    let mut knn_counters = Counters::default();
    let mut knn_ns = 0u64;
    for (p, k) in knns {
        let point = Box2 { lo: *p, hi: *p };
        let tiles = tiling.covering_tiles(&point);
        knn_ns += tracer
            .timed("rtree.knn", span, || {
                for &t in &tiles {
                    store.tile_knn(t, p, *k, &mut knn_counters);
                }
            })
            .1;
    }
    tracer.close(span);
    report.put("rtree.range_us_per_query", us(range_ns, n));
    report.put("rtree.knn_us_per_query", us(knn_ns, knns.len()));
    report.put(
        "rtree.leaf_accesses_per_query",
        clipped.leaf_accesses as f64 / n as f64,
    );
    report.put(
        "rtree.node_accesses_per_query",
        clipped.node_accesses as f64 / n as f64,
    );
    report.put(
        "rtree.clip_prunes_per_query",
        clipped.clip_prunes as f64 / n as f64,
    );
    report.put(
        "rtree.results_per_leaf_access",
        clipped.results as f64 / clipped.leaf_accesses.max(1) as f64,
    );
    report.put(
        "rtree.clip_leaf_saving_ratio",
        1.0 - clipped.leaf_accesses as f64 / base.leaf_accesses.max(1) as f64,
    );
    report.attempted += 1;
    report.failed += u64::from(clipped.results != base.results);

    // Descend first: it reads no cached state. `Auto` next, while the
    // forest's columns are as cold as a freshly started service's; the
    // forced shared sweep last, because it extracts every tile's columns.
    let span = tracer.open("ladder.engine_run", NONE);
    let batched =
        |name: &'static str, algo: Algo, width: usize, queries: &[Box2], tracer: &mut Tracer| {
            let mut total = layers::RunOut::default();
            let mut ns = 0u64;
            for chunk in queries.chunks(width) {
                let (out, took) = tracer.timed(name, span, || store.run(chunk, algo));
                ns += took;
                total.tiles_fused += out.tiles_fused;
                total.tiles_descend += out.tiles_descend;
                total.counters.overlap_tests += out.counters.overlap_tests;
                total.counters.node_accesses += out.counters.node_accesses;
            }
            (total, us(ns, queries.len()))
        };
    let (_, descend_us) = batched(
        "engine.run_b64_descend",
        Algo::Descend,
        BATCH,
        ranges,
        tracer,
    );
    let (auto, auto_us) = batched("engine.run_b64", Algo::Auto, BATCH, ranges, tracer);
    let singles = &ranges[..ranges.len().min(SINGLE_QUERIES)];
    let (_, single_us) = batched("engine.run_b1", Algo::Auto, 1, singles, tracer);
    let mut knn_ns = 0u64;
    for chunk in knns.chunks(BATCH) {
        knn_ns += tracer
            .timed("engine.run_knn_b64", span, || store.run_knn(chunk))
            .1;
    }
    let (_, sweep_us) = batched(
        "engine.run_b64_sweep",
        Algo::SharedSweep,
        BATCH,
        ranges,
        tracer,
    );
    tracer.close(span);
    report.put("engine.run_b64_us_per_query", auto_us);
    report.put("engine.run_b64_descend_us_per_query", descend_us);
    report.put("engine.run_b64_sweep_us_per_query", sweep_us);
    report.put("engine.run_b1_us_per_query", single_us);
    report.put("engine.knn_us_per_query", us(knn_ns, knns.len()));
    report.put(
        "engine.fused_tile_frac",
        auto.tiles_fused as f64 / (auto.tiles_fused + auto.tiles_descend).max(1) as f64,
    );
    report.put(
        "engine.overlap_tests_per_query",
        auto.counters.overlap_tests as f64 / n as f64,
    );
    report.put(
        "engine.node_accesses_per_query",
        auto.counters.node_accesses as f64 / n as f64,
    );
    auto_us
}

/// `joins.*`: the three per-tile kernels on the most populated tile
/// pair of `a ⋈ b` (same tiling).
fn join_kernels(
    tiling: &Tiling,
    store_a: &Store,
    store_b: &Store,
    b: &[Box2],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let span = tracer.open("ladder.join_kernels", NONE);
    let loads_b = store_b.tile_loads();
    let t = store_a
        .tile_loads()
        .iter()
        .zip(&loads_b)
        .enumerate()
        .max_by_key(|(_, (x, y))| **x * **y)
        .map_or(0, |(t, _)| t);
    let items = &tiling.assign(b)[t];
    let (_, ns) = median_ns(tracer, "joins.columns_build", span, || Cols::build(items));
    report.put("joins.columns_build_us_per_obj", us(ns, items.len()));

    let kernels = store_b
        .tile_kernels(store_a, t)
        .expect("the busiest tile pair is populated on both sides");
    let (sweep, sweep_ns) = median_ns(tracer, "joins.sweep", span, || kernels.sweep());
    let (stt, stt_ns) = median_ns(tracer, "joins.stt", span, || kernels.stt());
    let (inlj, inlj_ns) = median_ns(tracer, "joins.inlj", span, || kernels.inlj());
    let per_pair = |tests: u64, pairs: u64| tests as f64 / pairs.max(1) as f64;
    report.put("joins.sweep_ms", ms(sweep_ns));
    report.put(
        "joins.sweep_ns_per_test",
        sweep_ns as f64 / sweep.overlap_tests.max(1) as f64,
    );
    report.put(
        "joins.sweep_tests_per_pair",
        per_pair(sweep.overlap_tests, sweep.pairs),
    );
    report.put("joins.stt_ms", ms(stt_ns));
    report.put(
        "joins.stt_tests_per_pair",
        per_pair(stt.overlap_tests, stt.pairs),
    );
    report.put("joins.inlj_ms", ms(inlj_ns));
    report.put(
        "joins.inlj_tests_per_pair",
        per_pair(inlj.overlap_tests, inlj.pairs),
    );
    report.attempted += 1;
    report.failed += u64::from(sweep.pairs != stt.pairs || sweep.pairs != inlj.pairs);
    tracer.close(span);
}

/// `joins.sweep_queries_us_per_query`: 64-wide query batches swept
/// against the columns of the store's most populated tile.
fn query_sweep(
    tiling: &Tiling,
    store: &Store,
    ranges: &[Box2],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let span = tracer.open("ladder.query_sweep", NONE);
    let t = store
        .tile_loads()
        .iter()
        .enumerate()
        .max_by_key(|(_, load)| **load)
        .map_or(0, |(t, _)| t);
    let covering: Vec<Box2> = ranges
        .iter()
        .filter(|q| tiling.covering_tiles(q).contains(&t))
        .copied()
        .collect();
    let columns = store.columns(t).expect("the busiest tile is populated");
    let mut ns = 0u64;
    for chunk in covering.chunks(BATCH) {
        let queries = Cols::of_queries(chunk);
        ns += tracer
            .timed("joins.sweep_queries", span, || {
                columns.sweep_queries(&queries)
            })
            .1;
    }
    tracer.close(span);
    report.put("joins.sweep_queries_us_per_query", us(ns, covering.len()));
}

/// `engine.join_*`: whole-dataset joins the way the service runs a
/// same-tiling and a cross-tiling `CrossJoin`, checked against the
/// harness's own pair counter.
fn engine_joins(stores: &[Store; 3], data: &[Vec<Box2>], tracer: &mut Tracer, report: &mut Report) {
    let span = tracer.open("ladder.engine_joins", NONE);
    let (same, same_ns) = median_ns(tracer, "engine.join_same_tiling", span, || {
        stores[1].join_same_tiling(&stores[0])
    });
    let (cross, cross_ns) = median_ns(tracer, "engine.join_repartition", span, || {
        stores[2].join_repartition(&stores[0])
    });
    tracer.close(span);
    report.put("engine.join_same_tiling_ms", ms(same_ns));
    report.put("engine.join_repartition_ms", ms(cross_ns));
    report.put(
        "engine.join_tiles_stt",
        (same.tiles_stt + cross.tiles_stt) as f64,
    );
    report.put(
        "engine.join_tiles_inlj",
        (same.tiles_inlj + cross.tiles_inlj) as f64,
    );
    report.put(
        "engine.join_tiles_sweep",
        (same.tiles_sweep + cross.tiles_sweep) as f64,
    );
    report.put(
        "engine.join_tests_per_pair",
        (same.overlap_tests + cross.overlap_tests) as f64
            / (same.pairs + cross.pairs).max(1) as f64,
    );
    report.attempted += 2;
    report.failed += u64::from(same.pairs != model::sweep_pairs(&data[0], &data[1]));
    report.failed += u64::from(cross.pairs != model::sweep_pairs(&data[0], &data[2]));
}

/// `engine.apply_*`, `engine.wal_encode_*`, `engine.replay_*`,
/// `engine.snapshot_*`: the write path below the service. Returns the
/// WAL record of a `WAL_RECORD_UPDATES`-wide batch, for the storage rung.
fn writes_and_persistence(
    cfg: &Cfg,
    tiling: &Tiling,
    a: &[Box2],
    store: &mut Store,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<u8> {
    let span = tracer.open("ladder.writes", NONE);
    let snap = cfg.out.join(format!("ladder-{}.snap", std::process::id()));
    let (written, ns) = tracer.timed("engine.snapshot_write", span, || {
        store.snapshot_write(&snap)
    });
    report.put("engine.snapshot_write_ms", ms(ns));
    let (read, ns) = tracer.timed("engine.snapshot_read", span, || {
        layers::snapshot_read(&snap)
    });
    report.put("engine.snapshot_read_ms", ms(ns));
    report.attempted += 1;
    report.failed += u64::from(written.is_err() || read != Ok(store.live_count()));
    let _ = std::fs::remove_file(&snap);

    // Half inserts, half deletes of initial objects, spread over ids.
    let mut fresh = ObjectGen::new(cfg.seed, stream::UPDATES);
    let stride = (a.len() / (APPLY_BATCHES * BATCH)).max(1);
    let mut victim = 0usize;
    let batches: Vec<Vec<Upd>> = (0..APPLY_BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    if i % 2 == 0 {
                        Upd::Insert(fresh.next())
                    } else {
                        victim += stride;
                        Upd::Delete((victim % a.len()) as u32)
                    }
                })
                .collect()
        })
        .collect();
    let (mut encode_ns, mut apply_ns, mut tiles, mut nodes) = (0u64, 0u64, 0usize, 0u64);
    let small_record = store.encode_next(&batches[0][..WAL_RECORD_UPDATES]);
    let mut records = Vec::with_capacity(batches.len());
    for batch in &batches {
        let (record, ns) = tracer.timed("engine.wal_encode", span, || store.encode_next(batch));
        encode_ns += ns;
        records.push(record);
        let (out, ns) = tracer.timed("engine.apply_b64", span, || store.apply(batch));
        apply_ns += ns;
        tiles += out.tiles_touched;
        nodes += out.nodes_allocated;
    }
    let updates = APPLY_BATCHES * BATCH;
    report.put("engine.wal_encode_us_per_update", us(encode_ns, updates));
    report.put("engine.apply_b64_us_per_update", us(apply_ns, updates));
    report.put(
        "engine.apply_tiles_touched_per_batch",
        tiles as f64 / APPLY_BATCHES as f64,
    );
    report.put(
        "engine.apply_nodes_allocated_per_update",
        nodes as f64 / updates as f64,
    );

    // Recovery's inner loop: the same records replayed into a store
    // built from the same objects must reach the same live count.
    let mut replica = Store::build(tiling, a);
    let mut replay_ns = 0u64;
    let mut applied = 0usize;
    for record in &records {
        let (outcome, ns) = tracer.timed("engine.replay", span, || replica.replay(record));
        replay_ns += ns;
        applied += usize::from(outcome == Ok(true));
    }
    report.put("engine.replay_us_per_update", us(replay_ns, updates));
    report.attempted += 1;
    report.failed +=
        u64::from(applied != records.len() || replica.live_count() != store.live_count());
    drop(replica);

    let mut single_ns = 0u64;
    for _ in 0..APPLY_SINGLES {
        let one = [Upd::Insert(fresh.next())];
        single_ns += tracer
            .timed("engine.apply_b1", span, || store.apply(&one))
            .1;
    }
    tracer.close(span);
    report.put(
        "engine.apply_b1_us_per_update",
        us(single_ns, APPLY_SINGLES),
    );
    small_record
}

/// `storage.wal_*`: append + fdatasync per record, then recovery's scan.
/// The sync is this sandbox's file system's, not a device's.
/// `payload` is a record of the size one coalesced micro-batch logs.
fn wal(cfg: &Cfg, payload: &[u8], tracer: &mut Tracer, report: &mut Report) {
    let span = tracer.open("ladder.wal", NONE);
    let path = cfg.out.join(format!("ladder-{}.wal", std::process::id()));
    let (mut append_ns, mut sync_ns) = (0u64, 0u64);
    let mut ok = true;
    let mut log_bytes = 0;
    match Wal::create(&path) {
        Ok(mut log) => {
            for _ in 0..WAL_RECORDS {
                let (r, ns) = tracer.timed("storage.wal_append", span, || log.append(payload));
                append_ns += ns;
                ok &= r.is_ok();
                let (r, ns) = tracer.timed("storage.wal_sync", span, || log.sync());
                sync_ns += ns;
                ok &= r.is_ok();
            }
            log_bytes = log.bytes();
        }
        Err(_) => ok = false,
    }
    let (recovered, recover_ns) =
        tracer.timed("storage.wal_recover", span, || layers::wal_recover(&path));
    tracer.close(span);
    ok &= recovered.is_ok_and(|records| records.len() == WAL_RECORDS);
    let _ = std::fs::remove_file(&path);
    report.put("storage.wal_append_us", us(append_ns, WAL_RECORDS));
    report.put("storage.wal_sync_us", us(sync_ns, WAL_RECORDS));
    report.put(
        "storage.wal_bytes_per_update",
        log_bytes as f64 / (WAL_RECORDS * WAL_RECORD_UPDATES) as f64,
    );
    report.put("storage.wal_recover_ms", ms(recover_ns));
    report.attempted += 1;
    report.failed += u64::from(!ok);
}

/// `serve.*_overhead_*`, `telemetry.overhead_frac`: the same queries
/// through the service as shipped, then with one knob changed per rung.
fn serve_rungs(
    cfg: &Cfg,
    tiling: &Tiling,
    a: &[Box2],
    ranges: &[Box2],
    run_b64_us: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let span = tracer.open("ladder.serve_rungs", NONE);
    let reads: Vec<Op> = ranges.iter().map(|q| Op::Range(*q)).collect();
    let singles = &reads[..reads.len().min(SINGLE_QUERIES)];
    let all = Stop::Requests(reads.len() as u64);
    let start = |opts: &SvcOpts| Svc::start(opts, &[("ladder", tiling, a)]);

    // As shipped: the b64 rung, the telemetry-on side, the plain writes.
    let svc = start(&SvcOpts::default());
    service_pass(&svc, &reads, all, "serve.warm", span, tracer, report);
    let shipped_ns = service_pass(
        &svc,
        &reads,
        all,
        "serve.pass_shipped",
        span,
        tracer,
        report,
    );
    // Telemetry: the shipped service and one with telemetry disabled,
    // both alive, take turns — so drift in the machine's speed hits both
    // sides alike — and the medians are compared.
    let quiet = start(&SvcOpts {
        telemetry_off: true,
        ..SvcOpts::default()
    });
    service_pass(&quiet, &reads, all, "serve.warm", span, tracer, report);
    let turn = Stop::After(Duration::from_secs_f64(
        cfg.seconds / 10.0 / TELEMETRY_TURNS as f64,
    ));
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    for _ in 0..TELEMETRY_TURNS {
        on_ns.push(service_pass(
            &svc,
            &reads,
            turn,
            "serve.pass_telemetry_on",
            span,
            tracer,
            report,
        ));
        off_ns.push(service_pass(
            &quiet,
            &reads,
            turn,
            "serve.pass_telemetry_off",
            span,
            tracer,
            report,
        ));
    }
    quiet.shutdown();
    report.put(
        "telemetry.overhead_frac",
        1.0 - stats::median(&off_ns) / stats::median(&on_ns).max(1e-9),
    );
    let (plain_mixed_ns, _, _) =
        mixed_pass(&svc, cfg, a, "serve.mixed_plain", span, tracer, report);
    svc.shutdown();
    report.put(
        "serve.overhead_b64_us_per_query",
        shipped_ns / 1e3 - run_b64_us,
    );

    let svc = start(&SvcOpts {
        unbatched: true,
        ..SvcOpts::default()
    });
    service_pass(
        &svc,
        singles,
        Stop::Requests(singles.len() as u64),
        "serve.warm",
        span,
        tracer,
        report,
    );
    let unbatched_ns = service_pass(
        &svc,
        singles,
        Stop::Requests(singles.len() as u64),
        "serve.pass_unbatched",
        span,
        tracer,
        report,
    );
    svc.shutdown();
    report.put(
        "serve.overhead_b1_us_per_query",
        unbatched_ns / 1e3 - report.get("engine.run_b1_us_per_query"),
    );

    let svc = start(&SvcOpts {
        two_shards: true,
        ..SvcOpts::default()
    });
    service_pass(&svc, &reads, all, "serve.warm", span, tracer, report);
    let sharded_ns = service_pass(
        &svc,
        &reads,
        all,
        "serve.pass_two_shards",
        span,
        tracer,
        report,
    );
    svc.shutdown();
    report.put(
        "serve.shard2_overhead_us_per_query",
        (sharded_ns - shipped_ns) / 1e3,
    );

    // Durable: the `mixed_rw` stream with `.durability(dir)` on, then a
    // restart from the directory alone. The fsync is this sandbox's
    // file system's, and its latency swings by an order of magnitude
    // from minute to minute — which is why no end-to-end workload is
    // durable and these numbers carry no bound.
    let dir = cfg
        .out
        .join(format!("ladder-durable-{}", std::process::id()));
    remove_dir(&dir);
    let opts = SvcOpts {
        durable: Some(dir.clone()),
        ..SvcOpts::default()
    };
    let svc = start(&opts);
    let (durable_mixed_ns, writes, model) =
        mixed_pass(&svc, cfg, a, "serve.mixed_durable", span, tracer, report);
    let stats = svc.stats();
    report.put("serve.wal_appends", stats.wal_appends as f64);
    report.put("serve.checkpoints", stats.checkpoints as f64);
    report.put(
        "storage.disk_bytes_per_user_byte",
        dir_bytes(&dir) as f64 / (32.0 * model.live().max(1) as f64),
    );
    report.put(
        "serve.durable_overhead_us_per_write",
        (durable_mixed_ns - plain_mixed_ns) / 1e3 / writes.max(1) as f64,
    );
    svc.shutdown();

    let restart = tracer.open("serve.recover", span);
    let recovered = Svc::recover(&opts, &["ladder"]);
    let first = recovered
        .as_ref()
        .and_then(|s| s.submit(0, &Op::Knn([gen::DOMAIN / 2.0, gen::DOMAIN / 2.0], 1)))
        .and_then(|ticket| ticket.wait());
    tracer.close(restart);
    report.put("client.recovery_s", tracer.span_ns(restart) as f64 / 1e9);
    report.attempted += 1;
    match (recovered, first) {
        (Some(recovered), Some(_)) => {
            report.note(
                "recovered_wal_records",
                recovered.stats().recovered_records as f64,
                "count",
                "replayed between restart and first answer",
            );
            tracer.set_on(false);
            let (checked, wrong) = workloads::check_quiesced(&recovered, &model, cfg, a, tracer);
            tracer.set_on(true);
            report.attempted += checked;
            report.failed += wrong;
            recovered.shutdown();
        }
        _ => report.failed += 1,
    }
    remove_dir(&dir);
    tracer.close(span);
}

/// The `mixed_rw` request stream, `DURABLE_REQUESTS` long, through
/// `svc`; the quiet service must then equal the model. Returns the
/// pass's total nanoseconds, its write count and the model.
fn mixed_pass(
    svc: &Svc,
    cfg: &Cfg,
    a: &[Box2],
    name: &'static str,
    parent: SpanId,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (f64, u64, model::Model) {
    let mut client = MixedClient::new(cfg.seed, a);
    let span = tracer.open(name, parent);
    tracer.set_on(false);
    let rec = drive::closed_loop(
        svc,
        &mut client,
        256,
        Stop::Requests(cfg.scaled(DURABLE_REQUESTS) as u64),
        0,
        false,
        tracer,
    );
    let (checked, wrong) = workloads::check_quiesced(svc, &client.model, cfg, a, tracer);
    tracer.set_on(true);
    tracer.close(span);
    report.attempted += rec.attempted + checked;
    report.failed += rec.failed + wrong;
    (rec.elapsed_ns as f64, client.writes, client.model)
}
