//! # cbb-bench — shared harness for the per-figure experiment binaries
//!
//! The `fig*`, `ablation_*` and `join_experiment` binaries in `src/bin/`
//! regenerate the paper's tables and figures. Three more exercise the
//! system around it: `crash_recovery` (the SIGKILL recovery gauntlet),
//! and `skew_scale` and `catalog_scale` (which write `BENCH_skew.json`
//! and `BENCH_catalog.json`). Performance of the served system is
//! measured by the separate `benchmark/` harness. This library holds
//! what the binaries share: CLI parsing, paper-faithful tree
//! construction, query execution, and plain-text table rendering.

#![forbid(unsafe_code)]

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::{Dataset, QueryProfile, Scale};
use cbb_geom::Rect;
use cbb_rtree::{AccessStats, ClippedRTree, RTree, TreeConfig, Variant};

/// Common experiment options.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Dataset scale (default: 1/64 of the paper counts — minutes-scale).
    pub scale: Scale,
    /// Queries per profile.
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Fraction(64),
            queries: 400,
            seed: 0xCBB,
        }
    }
}

/// True when the `CBB_BENCH_SMOKE` environment variable requests the
/// reduced CI workload (any value except empty or `0`). Bench bins apply
/// their smoke defaults *before* CLI parsing, so explicit flags still
/// override — the workflow sets one env var instead of duplicating size
/// constants per bin.
pub fn smoke_mode() -> bool {
    std::env::var("CBB_BENCH_SMOKE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Parse `--full`, `--scale N`, `--exact N`, `--queries N`, `--seed N`.
pub fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a numeric argument"))
        };
        match a.as_str() {
            "--full" => args.scale = Scale::Paper,
            "--scale" => args.scale = Scale::Fraction(next_usize("--scale") as u32),
            "--exact" => args.scale = Scale::Exact(next_usize("--exact")),
            "--queries" => args.queries = next_usize("--queries"),
            "--seed" => args.seed = next_usize("--seed") as u64,
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// Construct a tree the way the benchmark of \[33\] does: HR-trees are
/// bulk-loaded via the Hilbert curve; the other variants are built by
/// tuple-wise insertion.
pub fn paper_build<const D: usize>(variant: Variant, data: &Dataset<D>) -> RTree<D> {
    let config = TreeConfig::paper_default(variant).with_world(data.domain);
    match variant {
        Variant::Hilbert => RTree::bulk_load(config, &data.items()),
        _ => {
            let mut tree = RTree::new(config);
            for (rect, id) in data.items() {
                tree.insert(rect, id);
            }
            tree
        }
    }
}

/// Clip a (cloned) base tree with the paper-default parameters.
pub fn clip_tree<const D: usize>(tree: &RTree<D>, method: ClipMethod) -> ClippedRTree<D> {
    ClippedRTree::from_tree(tree.clone(), ClipConfig::paper_default::<D>(method))
}

/// Calibrated query workload for one profile, counted against `tree`.
pub fn workload<const D: usize>(
    data: &Dataset<D>,
    tree: &RTree<D>,
    profile: QueryProfile,
    args: &Args,
) -> Vec<Rect<D>> {
    let mut counter = |q: &Rect<D>| tree.range_query(q).len();
    cbb_datasets::generate_queries(data, profile, args.queries, args.seed, &mut counter)
}

/// Total leaf accesses of `queries` on the base tree.
pub fn base_leaf_accesses<const D: usize>(tree: &RTree<D>, queries: &[Rect<D>]) -> u64 {
    let mut stats = AccessStats::new();
    for q in queries {
        tree.range_query_stats(q, &mut stats);
    }
    stats.leaf_accesses
}

/// Total leaf accesses of `queries` on a clipped tree.
pub fn clipped_leaf_accesses<const D: usize>(tree: &ClippedRTree<D>, queries: &[Rect<D>]) -> u64 {
    let mut stats = AccessStats::new();
    for q in queries {
        tree.range_query_stats(q, &mut stats);
    }
    stats.leaf_accesses
}

/// Render one table row: a label followed by right-aligned cells.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<22}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Render a header row plus a rule.
pub fn header(title: &str, label: &str, cells: &[&str]) {
    println!("\n=== {title} ===");
    let r = row(
        label,
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    );
    println!("{r}");
    println!("{}", "-".repeat(r.len().min(120)));
}

/// Format a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// The experiment variants in paper order.
pub const VARIANTS: [Variant; 4] = Variant::ALL;

/// The clipping methods in paper order.
pub const METHODS: [ClipMethod; 2] = [ClipMethod::Skyline, ClipMethod::Stairline];

#[cfg(test)]
mod tests {
    use super::*;
    use cbb_datasets::dataset2;

    #[test]
    fn paper_build_all_variants_small() {
        let data = dataset2("par02", Scale::Exact(2_000));
        for v in VARIANTS {
            let tree = paper_build(v, &data);
            assert_eq!(tree.len(), 2_000, "{v:?}");
            tree.validate().unwrap();
            let clipped = clip_tree(&tree, ClipMethod::Stairline);
            clipped.verify_clips().unwrap();
        }
    }

    #[test]
    fn workload_and_accessors() {
        let data = dataset2("par02", Scale::Exact(3_000));
        let tree = paper_build(Variant::RStar, &data);
        let args = Args {
            queries: 50,
            ..Default::default()
        };
        let qs = workload(&data, &tree, QueryProfile::QR0, &args);
        assert_eq!(qs.len(), 50);
        let base = base_leaf_accesses(&tree, &qs);
        let clipped = clip_tree(&tree, ClipMethod::Stairline);
        let with = clipped_leaf_accesses(&clipped, &qs);
        assert!(with <= base);
        assert!(base > 0);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.256), "25.6%");
        let r = row("x", &["1".into(), "2".into()]);
        assert!(r.starts_with('x'));
        assert!(r.contains('2'));
    }
}
