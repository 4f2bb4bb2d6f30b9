//! Serving experiment: open-loop latency/throughput of the `cbb-serve`
//! query service under a bursty request stream, across micro-batching
//! configurations. Emits `BENCH_serve.json` with per-config throughput,
//! p50/p99 latency, batch shape, and join-tree-cache counters.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin serve_scale \
//!     [--exact N] [--requests N] [--rate HZ] [--seed N]
//! ```
//!
//! Open loop: requests are submitted at the stream's scheduled arrival
//! times regardless of completions (the "millions of users" model — the
//! world does not slow down because the service is busy), so queue wait
//! shows up in the latency percentiles instead of being hidden by a
//! closed feedback loop. `CBB_BENCH_SMOKE=1` shrinks the default
//! workload to CI-smoke scale (explicit flags still override).

use std::time::{Duration, Instant};

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_datasets::stream::{query_stream, StreamKind, StreamProfile};
use cbb_engine::{AdaptiveGrid, DatasetStore, JoinAlgo};
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{Completion, Request, Response, ServiceBuilder, ServiceConfig};
use cbb_telemetry::Histogram;

struct ConfigRow {
    name: &'static str,
    config: ServiceConfig,
}

fn main() {
    let (mut n, mut requests, mut rate) = if smoke_mode() {
        (4_000usize, 800usize, 1_500.0f64)
    } else {
        (30_000usize, 6_000usize, 3_000.0f64)
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
            "--requests" => requests = next_usize("--requests"),
            "--rate" => {
                rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| *r > 0.0)
                    .unwrap_or_else(|| panic!("--rate needs a positive numeric argument"));
            }
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }

    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    let profile = StreamProfile {
        mean_rate_hz: rate,
        burstiness: 4.0,
        knn_fraction: 0.2,
        knn_k: 10,
        extent_frac: 0.02,
        ..StreamProfile::default()
    };
    let stream = query_stream(&data, requests, &profile, seed);
    let join_probes: Vec<_> = data
        .boxes
        .iter()
        .step_by((n / 200).max(1))
        .copied()
        .collect();
    println!(
        "workload: clu02 ({n} boxes), {requests} requests at {rate:.0} Hz \
         (burstiness 4, 20% kNN), adaptive 6×6 grid, R*-tree + CSTA",
    );

    // The engine oracle: a direct `DatasetStore` over the same data.
    // The service must answer a sample of the stream identically, so
    // the bench numbers measure scheduling, never different answers.
    let direct = DatasetStore::build(partitioner.clone(), &data.boxes, tree, clip, 4);
    let verify = stream.len().min(64);

    let configs = [
        ConfigRow {
            name: "unbatched",
            config: ServiceConfig {
                exec_workers: 4,
                ..ServiceConfig::unbatched()
            },
        },
        ConfigRow {
            name: "batch32_1ms",
            config: ServiceConfig {
                batch_max: 32,
                batch_deadline: Duration::from_millis(1),
                exec_workers: 4,
                ..ServiceConfig::default()
            },
        },
        ConfigRow {
            name: "batch128_3ms",
            config: ServiceConfig {
                batch_max: 128,
                batch_deadline: Duration::from_millis(3),
                exec_workers: 4,
                ..ServiceConfig::default()
            },
        },
    ];

    header(
        "open-loop service scan",
        "config",
        &["done", "rps", "p50 ms", "p99 ms", "mean batch"],
    );
    let mut rows = Vec::new();
    for ConfigRow { name, config } in configs {
        let config = ServiceConfig {
            queue_capacity: requests.max(1),
            ..config
        };
        let service = ServiceBuilder::from_config(config.clone()).build(
            partitioner.clone(),
            data.boxes.clone(),
            tree,
            clip,
        );
        let dataset = service.default_dataset();

        // Replay the stream open-loop, then collect every completion.
        let started = Instant::now();
        let mut handles = Vec::with_capacity(stream.len());
        for q in &stream {
            let scheduled = started + Duration::from_secs_f64(q.at_ms / 1_000.0);
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let request = match &q.kind {
                StreamKind::Range(rect) => Request::Range {
                    dataset,
                    query: *rect,
                    use_clips: true,
                },
                StreamKind::Knn(center, k) => Request::Knn {
                    dataset,
                    center: *center,
                    k: *k,
                },
                other => unreachable!("read-only profile produced {other:?}"),
            };
            handles.push(service.submit(request).expect("service is open"));
        }
        let completions: Vec<Completion> = handles
            .into_iter()
            .map(|h| h.wait().expect("request served"))
            .collect();
        let wall = started.elapsed().as_secs_f64();

        // Service path ≡ the store called directly: the sampled answers
        // must be identical.
        for (q, completion) in stream.iter().zip(&completions).take(verify) {
            match (&q.kind, &completion.response) {
                (StreamKind::Range(rect), Response::Range(ids)) => {
                    let want = direct.run(&[*rect], 1, true).results.remove(0);
                    assert_eq!(ids, &want, "served range diverged from the direct store");
                }
                (StreamKind::Knn(center, k), Response::Knn(nn)) => {
                    let want = direct.run_knn(&[(*center, *k)], 1).results.remove(0);
                    assert_eq!(nn, &want, "served kNN diverged from the direct store");
                }
                (kind, response) => unreachable!("{kind:?} answered with {response:?}"),
            }
        }

        // Latency percentiles through the shared telemetry histogram
        // (log₂ buckets, capped at the true max) — the same estimator
        // the service's own latency metrics report, so bench numbers
        // and scrape numbers read on one scale.
        let latency = Histogram::standalone();
        for c in &completions {
            latency.observe_duration(c.latency());
        }
        let latency = latency.snapshot();

        // Repeat joins on the warm service: the dataset's store must
        // serve them all from the single start-time forest build.
        for _ in 0..3 {
            let result = service
                .submit(Request::Join {
                    dataset,
                    probes: join_probes.clone(),
                    algo: JoinAlgo::Stt,
                    use_clips: true,
                })
                .expect("service is open")
                .wait()
                .expect("join served")
                .response
                .into_join();
            assert!(result.pairs > 0, "join probes were drawn from the data");
        }
        let report = service.shutdown();
        assert_eq!(report.completed, report.submitted, "shutdown drains");
        assert_eq!(
            report.forest_builds, 1,
            "repeat joins must not rebuild tile trees"
        );

        let rps = latency.count as f64 / wall;
        let p50 = latency.quantile(0.5) as f64 / 1e6;
        let p99 = latency.quantile(0.99) as f64 / 1e6;
        println!(
            "{}",
            row(
                name,
                &[
                    report.completed.to_string(),
                    format!("{rps:.0}"),
                    format!("{p50:.3}"),
                    format!("{p99:.3}"),
                    format!("{:.2}", report.mean_batch),
                ],
            )
        );
        rows.push(format!(
            "{{\"config\": \"{name}\", \"batch_max\": {}, \"deadline_ms\": {:.3}, \
             \"dispatchers\": {}, \"exec_workers\": {}, \"requests\": {}, \
             \"throughput_rps\": {rps:.1}, \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \
             \"mean_batch\": {:.3}, \"max_batch\": {}, \"batches\": {}, \
             \"forest_builds\": {}}}",
            config.batch_max,
            config.batch_deadline.as_secs_f64() * 1e3,
            config.dispatchers,
            config.exec_workers,
            report.completed,
            report.mean_batch,
            report.max_batch,
            report.batches,
            report.forest_builds,
        ));
    }
    assert!(rows.len() >= 2, "the scan must compare batching configs");

    let json = format!(
        "{{\n  \"workload\": {{\"dataset\": \"clu02\", \"objects\": {n}, \
         \"requests\": {requests}, \"rate_hz\": {rate:.1}, \"burstiness\": 4.0, \
         \"knn_fraction\": 0.2, \"grid\": [6, 6], \"variant\": \"R*-tree\", \
         \"clip\": \"CSTA\"}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    "),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json ({} configs)", rows.len());
}
