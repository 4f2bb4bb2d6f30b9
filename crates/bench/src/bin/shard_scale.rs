//! Shard experiment: scatter-gather over N in-process shards vs the
//! single-store service, on a clustered layer under an adaptive grid.
//!
//! Every row re-runs the **same** seeded workload (ranges, kNN, one
//! streamed probe join, one self cross-join) at a different shard
//! count × [`ShardFitting`], and every answer is asserted byte-equal
//! to the 1-shard baseline before the row is emitted — the bench is
//! its own oracle. The JSON carries only machine-independent counters:
//! per-shard routed-request counts (from the router's registry),
//! per-shard assigned-object loads (from the dataset's
//! [`cbb_serve::ShardMap`]), the shard load imbalance (max/mean) that
//! [`ShardFitting::Fitted`] exists to flatten, and the answer anchors
//! (hits, pairs) the
//! equality assertions pinned. Wall times are printed for local
//! reading but not written to the report. Emits `BENCH_shard.json`.
//! `CBB_BENCH_SMOKE=1` shrinks the workload to CI scale (explicit
//! flags still override).
//!
//! ```text
//! cargo run --release -p cbb-bench --bin shard_scale \
//!     [--exact N] [--ranges N] [--knn N] [--seed N]
//! ```

use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{assignment_loads, AdaptiveGrid, JoinAlgo};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Request, Response, ServiceBuilder, ShardFitting, ShardedService};

fn main() {
    let (mut n, mut ranges, mut knns) = if smoke_mode() {
        (2_000usize, 40usize, 20usize)
    } else {
        (20_000usize, 200usize, 100usize)
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
            "--ranges" => ranges = next_usize("--ranges"),
            "--knn" => knns = next_usize("--knn"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }

    let data = clustered_with_layout::<2>(n, 6, 25_000.0, 0.15, seed, seed ^ 0x5EED);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let queries = range_queries(&data.domain, ranges, seed ^ 0xA11C);
    let centers = knn_centers(&data.domain, knns, seed ^ 0xCAFE);
    let probes = range_queries(&data.domain, ranges / 2, seed ^ 0x1017);
    println!(
        "workload: {n} clustered boxes, adaptive 6x6 tiling, {ranges} ranges + \
         {knns} kNN(k=10) + streamed probe join + self cross-join (swept), \
         R*-tree + CSTA",
    );

    let modes: Vec<(usize, ShardFitting)> = vec![
        (1, ShardFitting::Balanced),
        (2, ShardFitting::Balanced),
        (2, ShardFitting::Fitted),
        (4, ShardFitting::Balanced),
        (4, ShardFitting::Fitted),
    ];

    header(
        "sharded scatter-gather scan",
        "mode",
        &["hits", "pairs", "imbalance", "wall ms"],
    );
    let mut baseline: Option<Answers> = None;
    let mut json_rows = Vec::new();
    for (shards, fitting) in modes {
        let service = ServiceBuilder::new()
            .shards(shards)
            .shard_fitting(fitting)
            .build(partitioner.clone(), data.boxes.clone(), tree, clip);
        let started = Instant::now();
        let answers = run_workload(&service, &queries, &centers, &probes);
        let wall = started.elapsed().as_secs_f64() * 1e3;

        // The bench is its own oracle: every mode must answer exactly
        // like the 1-shard baseline.
        let base = baseline.get_or_insert_with(|| answers.clone());
        assert_eq!(
            *base, answers,
            "{shards}-shard {fitting:?} answers diverged"
        );

        // Machine-independent shard shape: how the dataset's objects
        // landed on shards under this fitting, and how the router
        // spread the workload.
        let map = service
            .dataset_shard_map(service.default_dataset())
            .expect("default dataset is routed");
        let tile_loads = assignment_loads(&partitioner, &data.boxes);
        let shard_loads: Vec<u64> = (0..map.shard_count())
            .map(|s| map.range(s).map(|t| tile_loads[t]).sum())
            .collect();
        let max = *shard_loads.iter().max().expect(">=1 shard") as f64;
        let mean = shard_loads.iter().sum::<u64>() as f64 / shard_loads.len() as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };

        let scrape = service.scrape();
        let requests = scrape
            .snapshot
            .counter("cbb_router_requests_total", &[])
            .expect("router counts requests");
        let single_shard = scrape
            .snapshot
            .counter("cbb_router_single_shard_total", &[])
            .unwrap_or(0);
        let routed: Vec<u64> = (0..shards)
            .map(|s| {
                scrape
                    .snapshot
                    .counter(
                        "cbb_router_shard_requests_total",
                        &[("shard", &s.to_string())],
                    )
                    .unwrap_or(0)
            })
            .collect();
        service.shutdown();

        let mode = format!("{shards}sh_{fitting:?}");
        println!(
            "{}",
            row(
                &mode,
                &[
                    answers.range_hits.to_string(),
                    answers.cross_pairs.to_string(),
                    format!("{imbalance:.2}"),
                    format!("{wall:.1}"),
                ],
            )
        );
        json_rows.push(format!(
            "{{\"shards\": {shards}, \"fitting\": \"{fitting:?}\", \
             \"requests\": {requests}, \"single_shard\": {single_shard}, \
             \"shard_routed\": {routed:?}, \"shard_loads\": {shard_loads:?}, \
             \"load_imbalance\": {imbalance:.4}, \"range_hits\": {}, \
             \"knn_returned\": {}, \"join_pairs\": {}, \"cross_pairs\": {}}}",
            answers.range_hits, answers.knn_returned, answers.join_pairs, answers.cross_pairs,
        ));
    }

    let json = format!(
        "{{\n  \"workload\": {{\"objects\": {n}, \"ranges\": {ranges}, \"knn\": {knns}, \
         \"k\": 10, \"grid\": [6, 6], \"algo\": \"sweep\", \
         \"variant\": \"R*-tree\", \"clip\": \"CSTA\"}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        json_rows.join(",\n    "),
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json ({} modes)", json_rows.len());
}

/// The workload's exact answers — what every mode must reproduce.
#[derive(Clone, Debug, PartialEq)]
struct Answers {
    range_hits: u64,
    knn_returned: u64,
    join_pairs: u64,
    cross_pairs: u64,
}

fn run_workload(
    service: &ShardedService<2, AdaptiveGrid<2>>,
    queries: &[Rect<2>],
    centers: &[Point<2>],
    probes: &[Rect<2>],
) -> Answers {
    let dataset = service.default_dataset();
    let mut range_hits = 0u64;
    for &query in queries {
        let hits = wait(
            service,
            Request::Range {
                dataset,
                query,
                use_clips: true,
            },
        )
        .into_range();
        range_hits += hits.len() as u64;
    }
    let mut knn_returned = 0u64;
    for &center in centers {
        let nn = wait(
            service,
            Request::Knn {
                dataset,
                center,
                k: 10,
            },
        )
        .into_knn();
        knn_returned += nn.len() as u64;
    }
    let join_pairs = wait(
        service,
        Request::Join {
            dataset,
            probes: probes.to_vec(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        },
    )
    .into_join()
    .pairs;
    let cross_pairs = wait(
        service,
        Request::CrossJoin {
            left: dataset,
            right: dataset,
            algo: JoinAlgo::Auto,
            use_clips: true,
        },
    )
    .into_join()
    .pairs;
    Answers {
        range_hits,
        knn_returned,
        join_pairs,
        cross_pairs,
    }
}

fn wait(
    service: &ShardedService<2, AdaptiveGrid<2>>,
    request: Request<2, AdaptiveGrid<2>>,
) -> Response {
    service
        .submit(request)
        .expect("service is open")
        .wait()
        .expect("admitted requests are answered")
        .response
}

fn range_queries(domain: &Rect<2>, n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    let span = [domain.hi[0] - domain.lo[0], domain.hi[1] - domain.lo[1]];
    (0..n)
        .map(|i| {
            let x = rng.gen_range(domain.lo[0], domain.hi[0]);
            let y = rng.gen_range(domain.lo[1], domain.hi[1]);
            // Every third query is a wide strip that straddles shards.
            let (w, h) = if i % 3 == 0 {
                (1.1 * span[0], 0.04 * span[1])
            } else {
                (0.03 * span[0], 0.03 * span[1])
            };
            Rect::new(Point([x, y]), Point([x + w, y + h]))
        })
        .collect()
}

fn knn_centers(domain: &Rect<2>, n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            Point([
                rng.gen_range(domain.lo[0], domain.hi[0]),
                rng.gen_range(domain.lo[1], domain.hi[1]),
            ])
        })
        .collect()
}
