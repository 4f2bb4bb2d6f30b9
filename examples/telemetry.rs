//! Observability end to end: serve a mixed workload, then *scrape* the
//! service — Prometheus-style text and JSON expositions over one shared
//! metrics registry — and read the slow-query ring's per-request phase
//! breakdowns (queue-wait → coalesce → lock-acquire → execute →
//! respond, with engine sub-phases).
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use std::time::Duration;

use clipped_bbox::datasets::skew::clustered_with_layout;
use clipped_bbox::engine::AdaptiveGrid;
use clipped_bbox::prelude::*;

fn main() {
    let n = 10_000;
    let data = clustered_with_layout::<2>(n, 8, 20_000.0, 0.1, 21, 21);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes);
    println!("dataset: {n} clustered boxes, adaptive 6×6 partitioning");

    // Telemetry is on by default; `TelemetryConfig::disabled()` turns
    // every handle into a no-op (same answers, empty scrapes).
    let service = ServiceBuilder::new()
        .batch_max(32)
        .batch_deadline(Duration::from_millis(2))
        .telemetry(TelemetryConfig {
            slow_query_capacity: 5,
            ..TelemetryConfig::default()
        })
        .build(
            partitioner,
            data.boxes.clone(),
            TreeConfig::paper_default(Variant::RStar),
            ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        );
    let dataset = service.default_dataset();

    // A mixed burst: ranges (clipped and baseline), kNN probes, a join,
    // and a write — every request kind leaves its mark in the registry.
    let mut handles = Vec::new();
    for i in 0..60 {
        let center = data.boxes[i * (n / 60)].center();
        handles.push(
            service
                .submit(Request::Range {
                    dataset,
                    query: Rect::new(
                        Point([center[0] - 15_000.0, center[1] - 15_000.0]),
                        Point([center[0] + 15_000.0, center[1] + 15_000.0]),
                    ),
                    use_clips: i % 2 == 0,
                })
                .expect("service is open"),
        );
        if i % 5 == 0 {
            handles.push(
                service
                    .submit(Request::Knn {
                        dataset,
                        center,
                        k: 8,
                    })
                    .expect("service is open"),
            );
        }
    }
    handles.push(
        service
            .submit(Request::Join {
                dataset,
                probes: data.boxes.iter().step_by(100).copied().collect(),
                algo: JoinAlgo::Auto,
                use_clips: true,
            })
            .expect("service is open"),
    );
    handles.push(
        service
            .submit(Request::Insert {
                dataset,
                rect: data.boxes[0],
            })
            .expect("service is open"),
    );
    for h in handles {
        h.wait().expect("request served");
    }

    // ── Scrape: one registry, two renderings. The pipeline metrics
    // live in each shard's registry (one shard here); `service.scrape()`
    // is the router's own.
    let scrape = service.shard_scrapes().remove(0);
    let families = scrape.snapshot.families.len();
    println!("\nscrape: {families} metric families, text + JSON expositions");
    for line in scrape
        .text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with("cbb_requests_")
                || l.starts_with("cbb_access_leaf")
                || l.starts_with("cbb_dataset_tile_occupancy")
        })
        .take(12)
    {
        println!("  {line}");
    }
    assert!(families >= 15, "the scrape surface is a pinned API");
    assert!(scrape.json.contains("cbb_request_latency_ns"));

    // ── The slow-query ring: top-K by service time, each entry carrying
    // its phase breakdown and the work counters behind it.
    println!("\nslowest requests (phase breakdown in µs):");
    for q in service.slow_queries() {
        let phases: Vec<String> = q
            .span
            .breakdown()
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}", *ns as f64 / 1e3))
            .collect();
        let dataset = q.dataset.as_deref().unwrap_or("-");
        println!(
            "  {:>12} on {dataset}: total {:.1} µs [{}]",
            q.kind,
            q.total_ns as f64 / 1e3,
            phases.join(", "),
        );
    }

    // ── Reports are views over the same registry cells.
    let report = service.report();
    let ds = &report.datasets[0];
    println!(
        "\nreport: {} completed, {} batches (mean {:.2}), occupancy p50 {} / p99 {}",
        report.completed,
        report.batches,
        report.mean_batch,
        ds.occupancy_p50(),
        ds.occupancy_p99(),
    );
    let completed = scrape
        .snapshot
        .counter("cbb_requests_completed_total", &[])
        .expect("registered");
    assert_eq!(completed, report.completed, "report == registry view");

    service.shutdown();
    println!(
        "\ndone: scrape-able metrics, phase traces, and slow-query forensics from one registry"
    );
}
