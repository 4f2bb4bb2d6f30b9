//! Property tests for the [`Partitioner`] contract on both
//! implementations (referenced from the trait's doc comment): the grid
//! with cuts fitted to a sample, the same grid with the equal cuts an
//! empty sample gives, and the quadtree.
//!
//! The engine's exactness rests on two per-partitioner invariants:
//!
//! 1. **Total ownership** — every point (in-domain or not) is owned by
//!    exactly one tile.
//! 2. **Covering consistency** — `covering_tiles(r)` contains the owner
//!    of every point of `r`; in particular, the owner of any intersecting
//!    pair's reference point sees both rectangles, and no *other* tile
//!    both holds the pair and owns its reference point — so each result
//!    pair is reported exactly once.
//!
//! Inputs are adversarially skewed: most rectangles pile into two dense
//! blobs (so the adaptive boundaries are genuinely non-uniform), a few
//! span many tiles, and a few are degenerate point-extent rectangles.
//! Equal-cut grids run on the same inputs: with the generated dims, and
//! on fixed shapes — square, rectangular, 1 × 1, and a domain with a
//! zero-extent axis, where every cut along that axis coincides.

use cbb_engine::{partitioned_join, AdaptiveGrid, JoinPlan, Partitioner, QuadtreePartitioner};
use cbb_geom::{Point, Rect};
use cbb_joins::{brute_force_pairs, reference_point};
use proptest::prelude::*;

const DOMAIN: Rect<2> = Rect {
    lo: Point([0.0, 0.0]),
    hi: Point([1000.0, 1000.0]),
};

fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
}

/// One skewed rectangle: clustered small box, tile-spanning box, or
/// degenerate point-extent box (weighted towards the clusters).
fn arb_skewed_rect() -> impl Strategy<Value = Rect<2>> {
    let blob = |cx: f64, cy: f64| {
        (-40.0f64..40.0, -40.0f64..40.0, 0.1f64..8.0, 0.1f64..8.0).prop_map(
            move |(dx, dy, w, h)| {
                let x = (cx + dx).clamp(0.0, 990.0);
                let y = (cy + dy).clamp(0.0, 990.0);
                r2(x, y, x + w, y + h)
            },
        )
    };
    let spanning = (
        0.0f64..700.0,
        0.0f64..700.0,
        100.0f64..300.0,
        100.0f64..300.0,
    )
        .prop_map(|(x, y, w, h)| r2(x, y, x + w, y + h));
    let point_extent = prop_oneof![
        // On a blob (ties with dense data) or anywhere in the domain.
        (-30.0f64..30.0, -30.0f64..30.0).prop_map(|(dx, dy)| {
            let p = Point([150.0 + dx, 150.0 + dy]);
            Rect::new(p, p)
        }),
        (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| {
            let p = Point([x, y]);
            Rect::new(p, p)
        }),
    ];
    prop_oneof![
        blob(150.0, 150.0),
        blob(150.0, 150.0),
        blob(820.0, 780.0),
        spanning,
        point_extent,
    ]
}

/// Equal-cut grids the generated dims may miss: square, rectangular,
/// a single tile, and a zero-extent `y` axis through the data (all
/// three `y` cuts sit at 500).
fn fixed_equal_cut_grids() -> [AdaptiveGrid<2>; 4] {
    [
        AdaptiveGrid::from_sample(DOMAIN, [4, 4], &[]),
        AdaptiveGrid::from_sample(DOMAIN, [5, 3], &[]),
        AdaptiveGrid::from_sample(DOMAIN, [1, 1], &[]),
        AdaptiveGrid::from_sample(r2(0.0, 500.0, 1000.0, 500.0), [4, 4], &[]),
    ]
}

/// The equal-cut grid with the generated dims, then the fixed shapes.
fn equal_cut_grids(dims: [usize; 2]) -> Vec<AdaptiveGrid<2>> {
    let mut grids = vec![AdaptiveGrid::from_sample(DOMAIN, dims, &[])];
    grids.extend(fixed_equal_cut_grids());
    grids
}

fn arb_skewed_set(max: usize) -> impl Strategy<Value = Vec<Rect<2>>> {
    prop::collection::vec(arb_skewed_rect(), 1..max)
}

/// For every intersecting pair, exactly one tile both receives the pair
/// (it is in both covering sets) and owns the pair's reference point —
/// the "each result pair reported exactly once" invariant.
fn assert_pairs_once<P: Partitioner<2>>(
    p: &P,
    left: &[Rect<2>],
    right: &[Rect<2>],
) -> Result<(), TestCaseError> {
    use std::collections::HashSet;
    let ra: Vec<HashSet<usize>> = right
        .iter()
        .map(|b| p.covering_tiles(b).into_iter().collect())
        .collect();
    for (i, a) in left.iter().enumerate() {
        let ca = p.covering_tiles(a);
        for (j, b) in right.iter().enumerate() {
            if !a.intersects(b) {
                continue;
            }
            let rp = reference_point(a, b);
            let owner = p.tile_of(&rp);
            prop_assert!(owner < p.tile_count(), "owner out of range");
            prop_assert!(p.owns(owner, &rp), "tile_of/owns disagree at {rp:?}");
            // A tile reports the pair iff both sides are assigned to it
            // (multi-assignment = the covering set) and it owns the
            // reference point; exactly one such tile may exist.
            let reporters = ca
                .iter()
                .filter(|&&t| ra[j].contains(&t) && p.owns(t, &rp))
                .count();
            prop_assert_eq!(
                reporters,
                1,
                "pair ({}, {}) reported by {} tiles (ref {:?})",
                i,
                j,
                reporters,
                rp
            );
        }
    }
    Ok(())
}

/// Ownership is total and covering sets contain the owner of every
/// sampled point of every rectangle.
fn assert_contract<P: Partitioner<2>>(p: &P, rects: &[Rect<2>]) -> Result<(), TestCaseError> {
    prop_assert!(p.tile_count() >= 1);
    for r in rects {
        let covered = p.covering_tiles(r);
        prop_assert!(!covered.is_empty(), "no tile covers {r:?}");
        // Corners, center, and face midpoints of r must all be owned by
        // a tile in the covering set.
        let probes = [
            r.lo,
            r.hi,
            r.center(),
            Point([r.lo[0], r.hi[1]]),
            Point([r.hi[0], r.lo[1]]),
            Point([r.center()[0], r.lo[1]]),
            Point([r.lo[0], r.center()[1]]),
        ];
        for q in probes {
            let t = p.tile_of(&q);
            prop_assert!(t < p.tile_count());
            prop_assert!(
                covered.contains(&t),
                "owner {t} of {q:?} not covering {r:?}"
            );
            let owners = (0..p.tile_count()).filter(|&u| p.owns(u, &q)).count();
            prop_assert_eq!(owners, 1, "{:?} owned by {} tiles", q, owners);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_grid_honours_the_partitioner_contract(
        rects in arb_skewed_set(60),
        dims in (1usize..7, 1usize..7),
    ) {
        let g = AdaptiveGrid::from_sample(DOMAIN, [dims.0, dims.1], &rects);
        assert_contract(&g, &rects)?;
        for g in equal_cut_grids([dims.0, dims.1]) {
            assert_contract(&g, &rects)?;
        }
    }

    #[test]
    fn quadtree_honours_the_partitioner_contract(
        rects in arb_skewed_set(60),
        budget in 8usize..32,
    ) {
        let qt = QuadtreePartitioner::build(DOMAIN, &rects, budget);
        assert_contract(&qt, &rects)?;
    }

    #[test]
    fn adaptive_grid_reports_each_pair_exactly_once(
        left in arb_skewed_set(40),
        right in arb_skewed_set(40),
        dims in (1usize..6, 1usize..6),
    ) {
        // Boundaries from the left side only: the right side then crosses
        // cuts it never voted for.
        let g = AdaptiveGrid::from_sample(DOMAIN, [dims.0, dims.1], &left);
        assert_pairs_once(&g, &left, &right)?;
        for g in equal_cut_grids([dims.0, dims.1]) {
            assert_pairs_once(&g, &left, &right)?;
        }
    }

    #[test]
    fn quadtree_reports_each_pair_exactly_once(
        left in arb_skewed_set(40),
        right in arb_skewed_set(40),
        budget in 8usize..24,
    ) {
        let qt = QuadtreePartitioner::build(DOMAIN, &left, budget);
        assert_pairs_once(&qt, &left, &right)?;
    }

    #[test]
    fn partitioned_join_is_exact_end_to_end(
        left in arb_skewed_set(40),
        right in arb_skewed_set(40),
    ) {
        use cbb_core::{ClipConfig, ClipMethod};
        use cbb_rtree::{TreeConfig, Variant};
        let expected = brute_force_pairs(&left, &right);
        let adaptive = AdaptiveGrid::from_sample(DOMAIN, [4, 4], &left);
        let quadtree = QuadtreePartitioner::build(DOMAIN, &left, 12);
        let tree = TreeConfig::tiny(Variant::RStar);
        let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);
        prop_assert_eq!(
            partitioned_join(&JoinPlan::new(adaptive, tree, clip, 3), &left, &right).pairs,
            expected,
            "adaptive"
        );
        prop_assert_eq!(
            partitioned_join(&JoinPlan::new(quadtree, tree, clip, 3), &left, &right).pairs,
            expected,
            "quadtree"
        );
        for g in fixed_equal_cut_grids() {
            let dims = g.dims();
            prop_assert_eq!(
                partitioned_join(&JoinPlan::new(g, tree, clip, 3), &left, &right).pairs,
                expected,
                "equal cuts {:?}",
                dims
            );
        }
    }
}
