//! Observability overhead experiment: the same scripted workload served
//! with telemetry **enabled** vs **disabled**, checked three ways:
//!
//! 1. **Answers are identical** — instrumentation must never change
//!    results.
//! 2. **Machine-independent overhead** — the enabled service's
//!    registry-recorded engine work (`cbb_access_*` counters) is
//!    compared against a direct-engine oracle running the identical
//!    workload: telemetry must induce *zero* extra traversal work, so
//!    the gated ratio is 1.0 (CI bound: < 1.05).
//! 3. **Wall clock** (informational) — enabled / disabled elapsed
//!    ratio, reported but not gated: CI machines are too noisy for a
//!    5% wall bound to be a stable gate, the counter ratio is not.
//!
//! Emits `BENCH_obs.json`. `CBB_BENCH_SMOKE=1` shrinks the workload to
//! CI-smoke scale (explicit flags still override).
//!
//! ```text
//! cargo run --release -p cbb-bench --bin obs_scale \
//!     [--exact N] [--requests N] [--seed N]
//! ```

use std::time::{Duration, Instant};

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{AdaptiveGrid, DatasetStore};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{AccessStats, TreeConfig, Variant};
use cbb_serve::{
    Request, Response, ServiceBuilder, ServiceConfig, TelemetryConfig, DEFAULT_DATASET,
};

const EXEC_WORKERS: usize = 4;

/// One scripted request, dataset-agnostic (the id is resolved per
/// service instance).
enum Op {
    Range(Rect<2>, bool),
    Knn(Point<2>, usize),
}

struct RunOutcome {
    answers: Vec<Response>,
    wall_s: f64,
    families: usize,
    total_recorded: u64,
    scrape_text_len: usize,
    slow_entries: usize,
    access: Vec<(&'static str, u64)>,
}

fn main() {
    let (mut n, mut requests) = if smoke_mode() {
        (4_000usize, 800usize)
    } else {
        (30_000usize, 6_000usize)
    };
    let mut seed = 0x0B5u64;
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
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }

    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, seed, seed);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    let tree = TreeConfig::paper_default(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    // Scripted closed-loop workload: 80% ranges (half clipped), 20% kNN.
    let mut rng = SplitMix64::new(seed ^ 0x51);
    let lo = data.domain.lo.0;
    let hi = data.domain.hi.0;
    let workload: Vec<Op> = (0..requests)
        .map(|i| {
            let x = rng.gen_range(lo[0], hi[0]);
            let y = rng.gen_range(lo[1], hi[1]);
            if i % 5 == 4 {
                Op::Knn(Point([x, y]), 1 + i % 10)
            } else {
                let s = rng.gen_range((hi[0] - lo[0]) * 0.002, (hi[0] - lo[0]) * 0.02);
                Op::Range(Rect::new(Point([x, y]), Point([x + s, y + s])), i % 2 == 0)
            }
        })
        .collect();
    println!(
        "workload: clu02 ({n} boxes), {requests} scripted requests \
         (80% range / 20% kNN), adaptive 6×6 grid, R*-tree + CSTA",
    );

    let access_fields: Vec<&'static str> = AccessStats::new()
        .fields()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    let run = |telemetry: TelemetryConfig| -> RunOutcome {
        let service = ServiceBuilder::from_config(ServiceConfig {
            batch_max: 32,
            batch_deadline: Duration::from_millis(1),
            exec_workers: EXEC_WORKERS,
            queue_capacity: requests.max(1),
            telemetry,
            ..ServiceConfig::default()
        })
        .build(partitioner.clone(), data.boxes.clone(), tree, clip);
        let dataset = service.default_dataset();
        let started = Instant::now();
        let handles: Vec<_> = workload
            .iter()
            .map(|op| {
                let req = match op {
                    Op::Range(query, use_clips) => Request::Range {
                        dataset,
                        query: *query,
                        use_clips: *use_clips,
                    },
                    Op::Knn(center, k) => Request::Knn {
                        dataset,
                        center: *center,
                        k: *k,
                    },
                };
                service.submit(req).expect("service is open")
            })
            .collect();
        let answers: Vec<Response> = handles
            .into_iter()
            .map(|h| h.wait().expect("request served").response)
            .collect();
        let wall_s = started.elapsed().as_secs_f64();
        // The pipeline metrics live in the (only) shard's registry.
        let scrape = service.shard_scrapes().remove(0);
        let slow_entries = service.slow_queries().len();
        let labels = [("dataset", DEFAULT_DATASET)];
        let access = access_fields
            .iter()
            .map(|field| {
                let name = format!("cbb_access_{field}_total");
                (*field, scrape.snapshot.counter(&name, &labels).unwrap_or(0))
            })
            .collect();
        service.shutdown();
        RunOutcome {
            answers,
            wall_s,
            families: scrape.snapshot.families.len(),
            total_recorded: scrape.snapshot.total_recorded(),
            scrape_text_len: scrape.text.len(),
            slow_entries,
            access,
        }
    };

    header(
        "telemetry on/off",
        "mode",
        &["answers", "wall s", "families", "slow ring"],
    );
    let enabled = run(TelemetryConfig::default());
    let disabled = run(TelemetryConfig::disabled());
    for (name, o) in [("enabled", &enabled), ("disabled", &disabled)] {
        println!(
            "{}",
            row(
                name,
                &[
                    o.answers.len().to_string(),
                    format!("{:.3}", o.wall_s),
                    o.families.to_string(),
                    o.slow_entries.to_string(),
                ],
            )
        );
    }

    // 1. Instrumentation never changes answers.
    assert_eq!(
        enabled.answers, disabled.answers,
        "telemetry must not change answers"
    );
    // Disabled mode retains nothing and renders nothing.
    assert_eq!(disabled.total_recorded, 0, "disabled registry records");
    assert_eq!(disabled.scrape_text_len, 0, "disabled scrape renders text");
    assert_eq!(disabled.slow_entries, 0, "disabled slow ring retains");
    // Enabled mode exposes the full catalog and retains slow queries.
    assert!(
        enabled.families >= 15,
        "scrape covers {} families, need ≥ 15",
        enabled.families
    );
    assert!(enabled.slow_entries > 0, "slow ring is empty");

    // 2. Machine-independent overhead: the enabled service's recorded
    // engine work vs a direct-engine oracle on the same workload.
    let store = DatasetStore::build(partitioner.clone(), &data.boxes, tree, clip, EXEC_WORKERS);
    let mut clipped = Vec::new();
    let mut baseline = Vec::new();
    let mut probes = Vec::new();
    for op in &workload {
        match op {
            Op::Range(query, true) => clipped.push(*query),
            Op::Range(query, false) => baseline.push(*query),
            Op::Knn(center, k) => probes.push((*center, *k)),
        }
    }
    let mut oracle = AccessStats::new();
    oracle += &store.run(&clipped, EXEC_WORKERS, true).stats;
    oracle += &store.run(&baseline, EXEC_WORKERS, false).stats;
    oracle += &store.run_knn(&probes, EXEC_WORKERS).stats;

    let oracle_work: u64 = oracle.fields().iter().map(|(_, v)| v).sum();
    let recorded_work: u64 = enabled.access.iter().map(|(_, v)| v).sum();
    for (field, want) in oracle.fields() {
        let got = enabled
            .access
            .iter()
            .find(|(name, _)| *name == field)
            .map(|(_, v)| *v);
        assert_eq!(
            got,
            Some(want),
            "cbb_access_{field}_total diverged from the oracle"
        );
    }
    let counter_overhead = if oracle_work == 0 {
        1.0
    } else {
        recorded_work as f64 / oracle_work as f64
    };
    assert!(
        counter_overhead <= 1.05,
        "telemetry induced extra engine work: ratio {counter_overhead:.4}"
    );
    let wall_overhead = enabled.wall_s / disabled.wall_s.max(1e-9);
    println!(
        "\ncounter overhead {counter_overhead:.4} (gated ≤ 1.05), \
         wall overhead {wall_overhead:.3} (informational)",
    );

    let json = format!(
        "{{\n  \"workload\": {{\"dataset\": \"clu02\", \"objects\": {n}, \
         \"requests\": {requests}, \"range_fraction\": 0.8, \
         \"knn_fraction\": 0.2, \"grid\": [6, 6], \"variant\": \"R*-tree\", \
         \"clip\": \"CSTA\"}},\n  \
         \"counter_overhead_ratio\": {counter_overhead:.6},\n  \
         \"wall_overhead_ratio\": {wall_overhead:.4},\n  \
         \"oracle_work_units\": {oracle_work},\n  \
         \"recorded_work_units\": {recorded_work},\n  \
         \"metric_families\": {},\n  \
         \"slow_ring_entries\": {},\n  \
         \"wall_enabled_s\": {:.4},\n  \"wall_disabled_s\": {:.4}\n}}\n",
        enabled.families, enabled.slow_entries, enabled.wall_s, disabled.wall_s,
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json ({} families)", enabled.families);
}
