//! Catalog experiment: what serving **named datasets** buys a
//! join-heavy workload. Three ways to run the same repeated
//! `roads ⋈ pois` join over two co-located layers:
//!
//! * `rebuild_per_call` — the engine baseline: `partitioned_join`
//!   assigns *both* sides and sorts their tile columns on every call.
//! * `same_dataset` — the pre-catalog serving shape: one dataset is
//!   served (its forest built once and kept by its store, its tile
//!   columns cached), the probe side is streamed by the client per
//!   request.
//! * `cross_dataset` — both layers served: `Request::CrossJoin` joins
//!   the two stores, borrowing **both** sides' cached columns (the
//!   layers share a tiling) — nothing is assigned or sorted per call.
//!
//! Every mode sweeps every tile (the engine's one join kernel).
//!
//! Pair counts are asserted identical across all three modes, and the
//! forest-build counter is asserted flat across every repetition —
//! repeats must reuse the stores' forests, never rebuild. Emits
//! `BENCH_catalog.json`. `CBB_BENCH_SMOKE=1` shrinks the workload to CI
//! scale (explicit flags still override).
//!
//! ```text
//! cargo run --release -p cbb-bench --bin catalog_scale \
//!     [--exact N] [--reps N] [--seed N]
//! ```

use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::multi::{layers, LayerSpec};
use cbb_engine::{partitioned_join, AdaptiveGrid, AnyPartitioner, JoinAlgo, JoinPlan};
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Request, ServiceBuilder, ServiceConfig, ShardedService};

fn main() {
    let (mut n, mut reps) = if smoke_mode() {
        (3_000usize, 6usize)
    } else {
        (15_000usize, 20usize)
    };
    let mut seed = 0xCBBu64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a numeric argument"))
        };
        match a.as_str() {
            "--exact" => n = next_usize("--exact"),
            "--reps" => reps = next_usize("--reps"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }
    let workers = 4usize;

    // Two co-located clustered layers (shared blob layout): the
    // cross-layer join concentrates where real cross-layer joins do.
    let specs = [
        LayerSpec::clustered("roads", n),
        LayerSpec::clustered("pois", n),
    ];
    let generated = layers::<2>(&specs, seed, seed ^ 0x5EED);
    let (roads, pois) = (&generated[0].dataset, &generated[1].dataset);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    // One tiling fitted to the indexed layer, shared by both datasets —
    // the shape that lets CrossJoin borrow the probe forest too.
    let tiling: AnyPartitioner<2> =
        AdaptiveGrid::from_sample(pois.domain, [6, 6], &pois.boxes).into();
    println!(
        "workload: 2 co-located clustered layers × {n} boxes, {reps} repeated \
         roads ⋈ pois swept joins, shared adaptive 6×6 tiling, R*-tree + CSTA",
    );

    let plan = JoinPlan::new(tiling.clone(), tree, clip, workers);

    // ── rebuild_per_call: both sides assigned + sorted per join.
    let started = Instant::now();
    let mut expected_pairs = None;
    for _ in 0..reps {
        let result = partitioned_join(&plan, &roads.boxes, &pois.boxes);
        assert_eq!(
            *expected_pairs.get_or_insert(result.pairs),
            result.pairs,
            "repeat joins must be stable"
        );
    }
    let rebuild_wall = started.elapsed().as_secs_f64() * 1e3;
    let expected_pairs = expected_pairs.expect("at least one rep");
    assert!(expected_pairs > 0, "co-located layers must join pairs");

    // ── The served modes share one service holding both layers.
    let service: ShardedService<2, AnyPartitioner<2>> =
        ServiceBuilder::from_config(ServiceConfig {
            exec_workers: workers,
            ..ServiceConfig::default()
        })
        .build_catalog(tree, clip);
    let roads_id = service
        .create_dataset("roads", tiling.clone(), roads.boxes.clone())
        .expect("fresh name");
    let pois_id = service
        .create_dataset("pois", tiling.clone(), pois.boxes.clone())
        .expect("fresh name");
    let builds_after_create = service.report().forest_builds;
    assert_eq!(builds_after_create, 2, "one build per created dataset");

    // ── same_dataset: the indexed side is served (store's forest), the
    // probe side streams from the client per request.
    let started = Instant::now();
    for _ in 0..reps {
        let result = service
            .submit(Request::Join {
                dataset: pois_id,
                probes: roads.boxes.clone(),
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .expect("join served")
            .response
            .into_join();
        assert_eq!(result.pairs, expected_pairs, "same-dataset join pairs");
    }
    let same_wall = started.elapsed().as_secs_f64() * 1e3;
    let report = service.report();
    assert_eq!(
        report.forest_builds, builds_after_create,
        "served joins must not rebuild"
    );

    // ── cross_dataset: both sides served, both forests borrowed.
    let started = Instant::now();
    for _ in 0..reps {
        let result = service
            .submit(Request::CrossJoin {
                left: roads_id,
                right: pois_id,
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open")
            .wait()
            .expect("cross join served")
            .response
            .into_join();
        assert_eq!(result.pairs, expected_pairs, "cross-dataset join pairs");
    }
    let cross_wall = started.elapsed().as_secs_f64() * 1e3;
    let report = service.shutdown();
    assert_eq!(
        report.forest_builds, builds_after_create,
        "cross-dataset joins must not rebuild either side"
    );
    assert_eq!(report.cross_joins, reps as u64);
    assert_eq!(
        report.probe_repartitions, 0,
        "every cross join borrows BOTH forests"
    );

    header(
        "repeated-join catalog scan",
        "mode",
        &["reps", "pairs", "wall ms", "ms/join"],
    );
    let rows = [
        ("rebuild_per_call", rebuild_wall, 0u64),
        ("same_dataset", same_wall, builds_after_create),
        ("cross_dataset", cross_wall, report.forest_builds),
    ];
    let mut json_rows = Vec::new();
    for (mode, wall, builds) in rows {
        println!(
            "{}",
            row(
                mode,
                &[
                    reps.to_string(),
                    expected_pairs.to_string(),
                    format!("{wall:.1}"),
                    format!("{:.2}", wall / reps as f64),
                ],
            )
        );
        json_rows.push(format!(
            "{{\"mode\": \"{mode}\", \"reps\": {reps}, \"pairs\": {expected_pairs}, \
             \"wall_ms\": {wall:.2}, \"ms_per_join\": {:.3}, \
             \"forest_builds\": {builds}}}",
            wall / reps as f64,
        ));
    }
    println!(
        "\ncross-dataset served joins ran {:.1}x faster per call than rebuild-per-call",
        rebuild_wall / cross_wall.max(1e-9)
    );

    let json = format!(
        "{{\n  \"workload\": {{\"layers\": [\"roads\", \"pois\"], \"objects_per_layer\": {n}, \
         \"reps\": {reps}, \"algo\": \"sweep\", \"grid\": [6, 6], \
         \"variant\": \"R*-tree\", \"clip\": \"CSTA\"}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        json_rows.join(",\n    "),
    );
    std::fs::write("BENCH_catalog.json", &json).expect("write BENCH_catalog.json");
    println!("wrote BENCH_catalog.json ({} modes)", json_rows.len());
}
