//! Metric names, units and the printed result.
//!
//! The two tables below are the contract with `BENCHMARK.json`: a run
//! with `--trace 0` reports every end-to-end metric, a run with
//! `--trace 1` every per-layer metric, on every workload. A per-layer
//! metric a workload cannot produce (a write latency on a read-only
//! workload) reads 0.

use std::collections::BTreeMap;

use crate::drive::Class;
use crate::layers::PHASES;
use crate::stats;
use crate::workloads::{Outcome, Workload};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, layer = crate name.
pub const PER_LAYER: [(&str, &str); 84] = [
    // The client's view per request class, measured on the traced run.
    ("client.read_p50_ms", "ms"),
    ("client.read_p99_ms", "ms"),
    ("client.write_p50_ms", "ms"),
    ("client.write_p99_ms", "ms"),
    ("client.xjoin_p50_ms", "ms"),
    ("client.xjoin_p95_ms", "ms"),
    ("client.pjoin_p50_ms", "ms"),
    ("client.recovery_s", "s"),
    ("client.failed_frac", "ratio"),
    ("rtree.range_us_per_query", "us"),
    ("rtree.knn_us_per_query", "us"),
    ("rtree.leaf_accesses_per_query", "count"),
    ("rtree.node_accesses_per_query", "count"),
    ("rtree.clip_prunes_per_query", "count"),
    ("rtree.results_per_leaf_access", "ratio"),
    ("rtree.clip_leaf_saving_ratio", "ratio"),
    ("rtree.bulk_load_us_per_obj", "us"),
    ("rtree.insert_us", "us"),
    ("rtree.delete_us", "us"),
    ("rtree.reclips_per_update", "count"),
    ("core.clip_build_us_per_node", "us"),
    ("core.clip_points_per_node", "count"),
    ("joins.columns_build_us_per_obj", "us"),
    ("joins.sweep_ms", "ms"),
    ("joins.sweep_ns_per_test", "ns"),
    ("joins.sweep_tests_per_pair", "count"),
    ("joins.stt_ms", "ms"),
    ("joins.stt_tests_per_pair", "count"),
    ("joins.inlj_ms", "ms"),
    ("joins.inlj_tests_per_pair", "count"),
    ("joins.sweep_queries_us_per_query", "us"),
    ("engine.forest_build_s", "s"),
    ("engine.load_imbalance", "ratio"),
    ("engine.boundary_object_ratio", "ratio"),
    ("engine.covering_tiles_ns_per_query", "ns"),
    ("engine.run_b64_us_per_query", "us"),
    ("engine.run_b64_descend_us_per_query", "us"),
    ("engine.run_b64_sweep_us_per_query", "us"),
    ("engine.fused_tile_frac", "ratio"),
    ("engine.overlap_tests_per_query", "count"),
    ("engine.node_accesses_per_query", "count"),
    ("engine.run_b1_us_per_query", "us"),
    ("engine.knn_us_per_query", "us"),
    ("engine.apply_b1_us_per_update", "us"),
    ("engine.apply_b64_us_per_update", "us"),
    ("engine.apply_tiles_touched_per_batch", "count"),
    ("engine.apply_nodes_allocated_per_update", "count"),
    ("engine.join_same_tiling_ms", "ms"),
    ("engine.join_repartition_ms", "ms"),
    ("engine.join_tiles_stt", "count"),
    ("engine.join_tiles_inlj", "count"),
    ("engine.join_tiles_sweep", "count"),
    ("engine.join_tests_per_pair", "count"),
    ("engine.wal_encode_us_per_update", "us"),
    ("engine.replay_us_per_update", "us"),
    ("engine.snapshot_write_ms", "ms"),
    ("engine.snapshot_read_ms", "ms"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_sync_us", "us"),
    ("storage.wal_bytes_per_update", "bytes"),
    ("storage.wal_recover_ms", "ms"),
    ("storage.disk_bytes_per_user_byte", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queued_us_p50", "us"),
    ("serve.serviced_us_p50", "us"),
    ("serve.respond_us_p50", "us"),
    ("serve.phase_queue_wait_us", "us"),
    ("serve.phase_coalesce_us", "us"),
    ("serve.phase_lock_acquire_us", "us"),
    ("serve.phase_execute_us", "us"),
    ("serve.phase_respond_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.write_batch_mean", "count"),
    ("serve.wal_appends", "count"),
    ("serve.checkpoints", "count"),
    ("serve.shed", "count"),
    ("serve.overhead_b64_us_per_query", "us"),
    ("serve.overhead_b1_us_per_query", "us"),
    ("serve.shard2_overhead_us_per_query", "us"),
    ("serve.durable_overhead_us_per_write", "us"),
    ("telemetry.overhead_frac", "ratio"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.spans_recorded", "count"),
];

/// Fewest requests a latency group may hold: its p95 then has 100
/// samples beyond it.
const GROUP_MIN: usize = 2_000;

/// The numbers of one run.
pub struct Report {
    quick: bool,
    values: BTreeMap<&'static str, f64>,
    /// Printed, but not part of the JSON result: `(name, value, unit, note)`.
    info: Vec<(String, f64, &'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
}

fn p_ms(samples: &[u64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    stats::percentile_ms(&mut v, q)
}

fn p_us(samples: &[u64], q: f64) -> f64 {
    p_ms(samples, q) * 1e3
}

fn mean_us(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64 / 1e3
}

impl Report {
    pub fn new(quick: bool) -> Self {
        Report {
            quick,
            values: BTreeMap::new(),
            info: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Set a metric of one of the two tables.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.info.push((name.into(), value, unit, note.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// What the client saw: the end-to-end metrics on the untraced run,
    /// the per-class `client.*` metrics on the traced one.
    pub fn client_side(&mut self, workload: Workload, o: &Outcome, trace: bool) {
        let all = o.combined();
        self.attempted = all.attempted;
        self.failed = all.failed + o.wrong;
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let reads = &all.latencies_of(Class::Read);
        let writes = &all.latencies_of(Class::Write);
        let xjoins = &all.latencies_of(Class::CrossJoin);
        let pjoins = &all.latencies_of(Class::ProbeJoin);

        if trace {
            self.put("client.read_p50_ms", p_ms(reads, 0.50));
            self.put("client.read_p99_ms", p_ms(reads, 0.99));
            self.put("client.write_p50_ms", p_ms(writes, 0.50));
            self.put("client.write_p99_ms", p_ms(writes, 0.99));
            self.put("client.xjoin_p50_ms", p_ms(xjoins, 0.50));
            self.put("client.xjoin_p95_ms", p_ms(xjoins, 0.95));
            self.put("client.pjoin_p50_ms", p_ms(pjoins, 0.50));
            self.put("client.failed_frac", failed_frac);
            self.put("bench.generator_late_p99_us", p_us(&all.late_ns, 0.99));
            let (plain, traced) = (o.untraced.throughput(), o.traced.throughput());
            self.put("bench.trace_overhead_frac", 1.0 - traced / plain.max(1e-9));
            self.note(
                "bench.untraced_ops_s",
                plain,
                "ops/s",
                format!("n={}", o.untraced.completed),
            );
            self.note(
                "bench.traced_ops_s",
                traced,
                "ops/s",
                format!("n={}", o.traced.completed),
            );
        } else {
            let latencies = &o.untraced.latency_ns;
            let rates = o.untraced.slice_rates();
            // Quartiles over parts of the run. What disturbs a run in
            // this sandbox — a stolen vCPU, a stall — only ever slows
            // it, so the better quarter of its parts shows the program
            // and the worse ones the neighbours: throughput is the upper
            // quartile of the time slices' rates, latency the lower
            // quartile, over equal-count groups of at least `GROUP_MIN`
            // requests, of each group's percentile.
            let groups = (latencies.len() / GROUP_MIN).clamp(1, crate::drive::SLICES);
            let size = latencies.len().div_ceil(groups).max(1);
            let per_group = |q: f64| {
                let values: Vec<f64> = latencies.chunks(size).map(|g| p_ms(g, q)).collect();
                stats::quantile(&values, 0.25)
            };
            self.put("throughput_ops_s", stats::quantile(&rates, 0.75));
            self.put("latency_p50_ms", per_group(0.50));
            self.put("latency_p95_ms", per_group(0.95));
            self.note(
                "whole_run_ops_s",
                o.untraced.throughput(),
                "ops/s",
                format!(
                    "slices: {}",
                    rates
                        .iter()
                        .map(|r| format!("{r:.0}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            );
            self.note(
                "whole_run_p99_ms",
                p_ms(latencies, 0.99),
                "ms",
                format!("{groups} latency groups"),
            );
            self.put("setup_s", stats::median(&o.setup_s));
            self.put("peak_rss_mb", o.peak_rss_mb);
            self.note(
                "latency_samples",
                latencies.len() as f64,
                "count",
                "all request classes",
            );
            self.note(
                "elapsed_s",
                o.untraced.elapsed_s(),
                "s",
                "first submit to last completion",
            );
            for (i, s) in o.setup_s.iter().enumerate() {
                self.note(format!("setup_rep{i}_s"), *s, "s", "");
            }
            for (name, samples, q) in [
                ("read_p50_ms", reads, 0.50),
                ("read_p99_ms", reads, 0.99),
                ("write_p50_ms", writes, 0.50),
                ("write_p99_ms", writes, 0.99),
                ("xjoin_p50_ms", xjoins, 0.50),
                ("xjoin_p95_ms", xjoins, 0.95),
                ("pjoin_p50_ms", pjoins, 0.50),
            ] {
                if !samples.is_empty() {
                    self.note(name, p_ms(samples, q), "ms", format!("n={}", samples.len()));
                }
            }
            if workload == Workload::ReadInteractive {
                self.note(
                    "generator_late_p99_us",
                    p_us(&all.late_ns, 0.99),
                    "us",
                    "open loop: sent this long after due",
                );
            }
        }
        self.note(
            "failed_frac",
            failed_frac,
            "ratio",
            format!("failed + refused + wrong of {}", self.attempted),
        );
        self.note(
            "oracle_checked",
            o.checked as f64,
            "count",
            format!("{} wrong", o.wrong),
        );
    }

    /// What the service reported about the same requests: completion
    /// timings, phase histograms and counters.
    pub fn serve_side(&mut self, o: &Outcome) {
        let all = o.combined();
        // The breakdown must add up to what the client saw.
        let sums: Vec<u64> = (0..all.submit_ns.len())
            .map(|i| all.submit_ns[i] + all.queued_ns[i] + all.serviced_ns[i] + all.respond_ns[i])
            .collect();
        self.note(
            "breakdown_sum_p50_ms",
            p_ms(&sums, 0.5),
            "ms",
            "median of submit + queued + serviced + respond; compare the all-class p50",
        );
        self.put("serve.submit_us", mean_us(&all.submit_ns));
        self.put("serve.queued_us_p50", p_us(&all.queued_ns, 0.5));
        self.put("serve.serviced_us_p50", p_us(&all.serviced_ns, 0.5));
        self.put("serve.respond_us_p50", p_us(&all.respond_ns, 0.5));
        const PHASE_METRICS: [&str; PHASES.len()] = [
            "serve.phase_queue_wait_us",
            "serve.phase_coalesce_us",
            "serve.phase_lock_acquire_us",
            "serve.phase_execute_us",
            "serve.phase_respond_us",
        ];
        for (i, name) in PHASE_METRICS.into_iter().enumerate() {
            self.put(name, o.stats.phase_us(i));
        }
        let s = &o.stats;
        self.put(
            "serve.mean_batch",
            s.requests as f64 / s.batches.max(1) as f64,
        );
        self.put(
            "serve.write_batch_mean",
            s.updates_applied as f64 / s.write_batches.max(1) as f64,
        );
        self.put("serve.shed", s.shed as f64);
    }

    /// Print every metric by name with its unit, then the one-line JSON
    /// result the driver reads.
    pub fn print(&self, trace: bool) {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, value, unit, note) in &self.info {
            println!("info   {name} = {value:.6} {unit}  {note}");
        }
        let mut json = String::new();
        for (name, unit) in table {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            println!("metric {name} = {value:.6} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let quick = if self.quick { ", \"quick\": true" } else { "" };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}{quick}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root and the tables above must name
    /// the same metrics with the same units, the same workloads too.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = json
                .find(&format!("\"{key}\": ["))
                .unwrap_or_else(|| panic!("no {key} section"));
            &json[start..]
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            for (name, unit) in table {
                let at = body
                    .find(&format!("\"name\": \"{name}\""))
                    .unwrap_or_else(|| panic!("{name} missing from {key}"));
                assert!(
                    body[at..]
                        .split('}')
                        .next()
                        .unwrap()
                        .contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: unit differs"
                );
            }
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the tables lack"
        );
        for workload in crate::workloads::NAMES {
            assert!(
                section("workloads").contains(&format!("\"name\": \"{workload}\"")),
                "{workload} missing"
            );
        }
    }
}
