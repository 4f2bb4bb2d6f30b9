//! Figure 14 — index construction time relative to an unclipped RR*-tree
//! (= 100 %), with the CBB computation overhead isolated, for every
//! dataset. HR-tree and R*-tree build times provide context.
//!
//! Paper headlines: HR-tree builds fastest (bulk loading), R*-tree slowest
//! (forced reinsertion); CSKY adds <7 % CPU, CSTA up to 4 % (2-d) / 30 %
//! (3-d).
//!
//! A second table prices the query-time side of the same trade: the
//! cost of one intersection test, the plain MBB test against
//! Algorithm 2 (MBB test, then the clip-point dominance tests), on the
//! same (child node, query) pairs a clipped CSTA-RR* descent tests for
//! a QR1 workload. The paper claims the clip test is "even cheaper than
//! the preceding intersection test with the MBB".

use std::hint::black_box;
use std::time::Instant;

use cbb_bench::{header, paper_build, parse_args, row, workload, METHODS};
use cbb_core::{query_intersects_cbb, ClipConfig, ClipMethod, ClipPoint};
use cbb_datasets::{dataset2, dataset3, Dataset, QueryProfile};
use cbb_geom::Rect;
use cbb_rtree::{Child, ClippedRTree, Variant};

/// Build-time row for `data`, plus the intersection-test row measured
/// on its CSTA-clipped RR*-tree.
fn run<const D: usize>(data: &Dataset<D>, args: &cbb_bench::Args) -> String {
    // Reference: unclipped RR*-tree build time.
    let t0 = Instant::now();
    let rr = paper_build(Variant::RRStar, data);
    let rr_time = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _hr = paper_build(Variant::Hilbert, data);
    let hr_time = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _rs = paper_build(Variant::RStar, data);
    let rs_time = t0.elapsed().as_secs_f64();

    let mut cells = vec![
        format!("{:.0}%", 100.0 * hr_time / rr_time),
        format!("{:.0}%", 100.0 * rs_time / rr_time),
    ];
    let mut csta = None;
    for method in METHODS {
        // Clipping overhead on top of the RR* build (construction-time
        // clipping: one Algorithm 1 pass per node).
        let t0 = Instant::now();
        let clipped = ClippedRTree::from_tree(rr.clone(), ClipConfig::paper_default::<D>(method));
        let clip_time = t0.elapsed().as_secs_f64();
        cells.push(format!("{:.0}%", 100.0 * (rr_time + clip_time) / rr_time));
        if method == ClipMethod::Stairline {
            csta = Some(clipped);
        }
    }
    cells.push(format!("{rr_time:.2}s"));
    println!("{}", row(data.name.as_str(), &cells));

    let clipped = csta.expect("METHODS holds the stairline");
    let queries = workload(data, &clipped.tree, QueryProfile::QR1, args);
    row(data.name.as_str(), &test_cost(&clipped, &queries))
}

/// Nanoseconds per intersection test, MBB test vs Algorithm 2, on the
/// `(child MBB, child clips, query)` triples a clipped descent of
/// `queries` tests and that pass the MBB test — the only ones that reach
/// Algorithm 2's clip points. The last column divides Algorithm 2's
/// extra time by the clip points it tested (each pair stops at the first
/// clip point that prunes it).
fn test_cost<const D: usize>(clipped: &ClippedRTree<D>, queries: &[Rect<D>]) -> Vec<String> {
    let mut tests = 0usize;
    let mut hits: Vec<(Rect<D>, &[ClipPoint<D>], Rect<D>)> = Vec::new();
    for q in queries {
        let mut stack = vec![clipped.tree.root_id()];
        while let Some(id) = stack.pop() {
            for e in &clipped.tree.node(id).entries {
                let Child::Node(child) = e.child else {
                    continue;
                };
                tests += 1;
                if e.mbb.intersects(q) {
                    hits.push((e.mbb, clipped.clips_of(child), *q));
                    if query_intersects_cbb(&e.mbb, clipped.clips_of(child), q) {
                        stack.push(child);
                    }
                }
            }
        }
    }
    let clip_points: usize = hits
        .iter()
        .map(|(mbb, clips, q)| {
            (0..clips.len())
                .find(|&i| !query_intersects_cbb(mbb, &clips[..=i], q))
                .map_or(clips.len(), |i| i + 1)
        })
        .sum();
    // Best of five alternating rounds of ~1 M tests per column.
    let reps = (1_000_000 / hits.len().max(1)).max(1);
    let (mut mbb_ns, mut cbb_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        mbb_ns = mbb_ns.min(ns_per_pass(&hits, reps, |mbb, _, q| mbb.intersects(q)));
        cbb_ns = cbb_ns.min(ns_per_pass(&hits, reps, query_intersects_cbb));
    }
    let per = |ns: f64, n: usize| {
        if n == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", ns / n as f64)
        }
    };
    vec![
        tests.to_string(),
        hits.len().to_string(),
        per(mbb_ns, hits.len()),
        per(cbb_ns, hits.len()),
        per(cbb_ns - mbb_ns, clip_points),
    ]
}

/// Mean wall time of one pass of `test` over `pairs`, in ns, from
/// `reps` passes.
fn ns_per_pass<const D: usize>(
    pairs: &[(Rect<D>, &[ClipPoint<D>], Rect<D>)],
    reps: usize,
    test: impl Fn(&Rect<D>, &[ClipPoint<D>], &Rect<D>) -> bool,
) -> f64 {
    let t0 = Instant::now();
    let mut passed = 0usize;
    for _ in 0..reps {
        for (mbb, clips, q) in pairs {
            passed += usize::from(test(black_box(mbb), black_box(clips), black_box(q)));
        }
    }
    black_box(passed);
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn main() {
    let args = parse_args();
    header(
        "Figure 14 — build time w.r.t. unclipped RR*-tree (=100%)",
        "dataset",
        &["HR-tree", "R*-tree", "CSKY-RR*", "CSTA-RR*", "RR* abs"],
    );
    let test_rows = [
        run(&dataset2("par02", args.scale), &args),
        run(&dataset3("par03", args.scale), &args),
        run(&dataset2("rea02", args.scale), &args),
        run(&dataset3("rea03", args.scale), &args),
        run(&dataset3("axo03", args.scale), &args),
        run(&dataset3("den03", args.scale), &args),
        run(&dataset3("neu03", args.scale), &args),
    ];
    println!("\n(paper: HR fastest, R* slowest; CSKY adds <7% CPU, CSTA up to 30% in 3-d)");

    header(
        "Intersection test cost — MBB test vs Algorithm 2 (ns per MBB hit, CSTA-RR*, QR1)",
        "dataset",
        &["tests", "MBB hits", "MBB ns", "Alg. 2 ns", "ns/clip pt"],
    );
    for r in test_rows {
        println!("{r}");
    }
    println!("\n(paper: the clip test is even cheaper than the preceding MBB intersection test)");
}
