//! Durability experiment: what the snapshot + WAL tier costs at write
//! time and what recovery does at restart. For each write-stream
//! length, the same scripted update stream runs through an in-memory
//! service and a durable one (fsync per micro-batch), then the durable
//! root is recovered into a fresh service and its answers are checked
//! against the never-restarted one (ranges as sorted sets, kNN
//! byte-equal — the workspace's recovery-oracle convention).
//!
//! Emits `BENCH_durability.json`. The machine-independent columns are
//! `records_replayed` and `pages_read` (snapshot pages recovery
//! actually touched); walls and throughputs are hardware-dependent
//! context. `CBB_BENCH_SMOKE=1` shrinks the workload to CI scale.
//!
//! ```text
//! cargo run --release -p cbb-bench --bin durability_scale \
//!     [--exact N] [--seed N]
//! ```

use std::time::Instant;

use cbb_bench::{header, row, smoke_mode};
use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::UniformGrid;
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{TreeConfig, Variant};
use cbb_serve::{
    DurabilityConfig, Request, Response, ServiceBuilder, ServiceConfig, ShardedService, Update,
};

fn scripted_batches(batches: usize, seed: u64, base: usize) -> Vec<Vec<Update<2>>> {
    let mut rng = SplitMix64::new(seed);
    (0..batches)
        .map(|b| {
            let mut ops = Vec::new();
            for _ in 0..16 {
                let x = rng.gen_range(0.0, 900_000.0);
                let y = rng.gen_range(0.0, 900_000.0);
                let s = rng.gen_range(500.0, 20_000.0);
                ops.push(Update::Insert(Rect::new(
                    Point([x, y]),
                    Point([x + s, y + s]),
                )));
            }
            for d in 0..4 {
                ops.push(Update::Delete(cbb_rtree::DataId(
                    ((b * 13 + d * 5) % base) as u32,
                )));
            }
            ops
        })
        .collect()
}

fn apply_stream(
    service: &ShardedService<2, UniformGrid<2>>,
    dataset: cbb_serve::DatasetId,
    batches: &[Vec<Update<2>>],
) -> f64 {
    let started = Instant::now();
    for ops in batches {
        service
            .submit(Request::UpdateBatch {
                dataset,
                updates: ops.clone(),
            })
            .expect("service is open")
            .wait()
            .expect("write served");
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Range answers in sorted-set form plus kNN answers verbatim.
fn answers(
    service: &ShardedService<2, UniformGrid<2>>,
    dataset: cbb_serve::DatasetId,
) -> Vec<Response> {
    let mut rng = SplitMix64::new(404);
    let mut out = Vec::new();
    for _ in 0..20 {
        let x = rng.gen_range(0.0, 900_000.0);
        let y = rng.gen_range(0.0, 900_000.0);
        let s = rng.gen_range(5_000.0, 90_000.0);
        let response = service
            .submit(Request::Range {
                dataset,
                query: Rect::new(Point([x, y]), Point([x + s, y + s])),
                use_clips: true,
            })
            .expect("open")
            .wait()
            .expect("served")
            .response;
        let mut ids = match response {
            Response::Range(ids) => ids,
            other => panic!("expected range, got {other:?}"),
        };
        ids.sort_unstable();
        out.push(Response::Range(ids));
        let p = Point([rng.gen_range(0.0, 900_000.0), rng.gen_range(0.0, 900_000.0)]);
        out.push(
            service
                .submit(Request::Knn {
                    dataset,
                    center: p,
                    k: 5,
                })
                .expect("open")
                .wait()
                .expect("served")
                .response,
        );
    }
    out
}

fn main() {
    let mut n = if smoke_mode() {
        2_000usize
    } else {
        20_000usize
    };
    let mut seed = 0xD0Bu64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a numeric argument"))
        };
        match a.as_str() {
            "--exact" => n = next_usize("--exact"),
            "--seed" => seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }
    let stream_lengths: &[usize] = if smoke_mode() {
        &[8, 32]
    } else {
        &[50, 200, 800]
    };

    let data = clustered_with_layout::<2>(n, 6, 30_000.0, 0.15, 9, 9);
    let partitioner = UniformGrid::new(data.domain, 4);
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
    println!(
        "workload: clustered {n} boxes, uniform 4x4 tiling, write batches of 20 \
         updates, fsync per batch, recovery oracle per stream length",
    );

    header(
        "durability scan",
        "batches",
        &[
            "records",
            "pages",
            "identical",
            "mem ms",
            "wal ms",
            "recover ms",
        ],
    );
    let mut rows = Vec::new();
    for &batches in stream_lengths {
        let stream = scripted_batches(batches, seed, n);
        let root = std::env::temp_dir().join(format!(
            "cbb_bench_durability_{batches}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        // In-memory reference: the never-restarted service.
        let reference = ServiceBuilder::new().build(partitioner, data.boxes.clone(), tree, clip);
        let ref_ds = reference.default_dataset();
        let mem_wall = apply_stream(&reference, ref_ds, &stream);

        // Durable run: same stream with a WAL fsync per batch.
        let durable = ServiceBuilder::from_config(ServiceConfig {
            durability: Some(DurabilityConfig::new(&root)),
            ..ServiceConfig::default()
        })
        .build(partitioner, data.boxes.clone(), tree, clip);
        let dur_ds = durable.default_dataset();
        let wal_wall = apply_stream(&durable, dur_ds, &stream);
        let write_report = durable.shutdown();
        assert_eq!(write_report.wal_appends, batches as u64);

        // Recover and compare against the reference.
        let started = Instant::now();
        let recovered = ServiceBuilder::from_config(ServiceConfig {
            durability: Some(DurabilityConfig::new(&root)),
            ..ServiceConfig::default()
        })
        .build(partitioner, Vec::new(), tree, clip);
        let recover_wall = started.elapsed().as_secs_f64() * 1e3;
        let rec_ds = recovered.default_dataset();
        let identical = answers(&recovered, rec_ds) == answers(&reference, ref_ds)
            && recovered.dataset_version(rec_ds) == reference.dataset_version(ref_ds);
        assert!(identical, "recovered answers diverged at {batches} batches");
        let report = recovered.shutdown();
        reference.shutdown();
        assert!(report.recovered_records > 0, "the WAL tail must replay");
        assert!(report.recovered_pages > 0, "the snapshot must be read");

        println!(
            "{}",
            row(
                &batches.to_string(),
                &[
                    report.recovered_records.to_string(),
                    report.recovered_pages.to_string(),
                    u8::from(identical).to_string(),
                    format!("{mem_wall:.1}"),
                    format!("{wal_wall:.1}"),
                    format!("{recover_wall:.1}"),
                ],
            )
        );
        rows.push(format!(
            "{{\"batches\": {batches}, \"records_replayed\": {}, \"pages_read\": {}, \
             \"recovered_answers_identical\": {}, \"mem_wall_ms\": {mem_wall:.2}, \
             \"wal_wall_ms\": {wal_wall:.2}, \"recover_wall_ms\": {recover_wall:.2}, \
             \"fsync_overhead_x\": {:.2}}}",
            report.recovered_records,
            report.recovered_pages,
            u8::from(identical),
            wal_wall / mem_wall.max(1e-9),
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    let json = format!(
        "{{\n  \"workload\": {{\"objects\": {n}, \"updates_per_batch\": 20, \
         \"partitioner\": \"uniform 4x4\", \"variant\": \"R*-tree\", \"clip\": \"CSTA\", \
         \"fsync\": \"per micro-batch\"}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    "),
    );
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!(
        "\nwrote BENCH_durability.json ({} stream lengths)",
        rows.len()
    );
}
