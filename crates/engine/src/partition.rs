//! Spatial partitioning: the [`Partitioner`] contract and the
//! [`AnyPartitioner`] that lets one catalog mix partitioner kinds.
//!
//! Rectangles are assigned to every tile they overlap
//! (*multi-assignment*), so each tile can be processed independently.
//! Exactness of global pair counts is restored by *reference-point
//! duplicate elimination*: every point of space is **owned** by exactly
//! one tile ([`Partitioner::owns`]), a candidate pair is attributed to the
//! tile owning the lower corner of its intersection
//! ([`cbb_joins::reference_point`]), and that tile is guaranteed to have
//! both rectangles assigned — so each pair is counted exactly once.
//!
//! Points outside a partitioner's domain are clamped to the border tiles;
//! objects sticking out of the domain therefore still land in (border)
//! tiles and joins stay exact even for out-of-domain data.
//!
//! Two implementations ship with the engine:
//!
//! | partitioner | boundaries | best for |
//! |---|---|---|
//! | [`crate::AdaptiveGrid`] | per-axis sample quantiles; equal widths for an empty sample | grid-shaped tiles, uniform or skewed data |
//! | [`crate::QuadtreePartitioner`] | recursive region splits | heavily clustered data |

use cbb_geom::{Point, Rect};

/// Monotone version counter of a dataset: it advances exactly when the
/// data changes, so anything derived from the data (WAL records,
/// snapshots, answers reported to clients) can name the state it saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataVersion(pub u64);

impl DataVersion {
    /// The initial version of a freshly loaded dataset.
    pub fn initial() -> Self {
        DataVersion(0)
    }

    /// Advance to the next version (call on every data mutation).
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// The version after this one.
    pub fn next(self) -> Self {
        DataVersion(self.0 + 1)
    }
}

/// The contract a spatial partitioner must honour for the engine's
/// reference-point duplicate elimination to stay exact:
///
/// 1. **Total ownership** — [`Self::tile_of`] maps *every* point (even
///    out-of-domain ones) to exactly one tile in `0..tile_count()`.
/// 2. **Covering consistency** — for any rectangle `r`,
///    [`Self::covering_tiles`] contains `tile_of(p)` for every point
///    `p ∈ r`. Since the reference point of an intersecting pair lies in
///    both rectangles, the owning tile then sees both sides.
///
/// Both properties are exercised by the engine's property tests for every
/// implementation (`crates/engine/tests/partition_props.rs`).
pub trait Partitioner<const D: usize>: Sync {
    /// Total number of tiles.
    fn tile_count(&self) -> usize;

    /// The unique tile owning point `p` (reference-point semantics).
    fn tile_of(&self, p: &Point<D>) -> usize;

    /// All tiles `r` overlaps (multi-assignment set). Must be a superset
    /// of the tiles owning any point of `r`.
    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize>;

    /// Geometric bounds of a tile (closed rectangle; adjacent tiles share
    /// faces — ownership of the shared face is resolved by [`Self::owns`]).
    fn tile_rect(&self, tile: usize) -> Rect<D>;

    /// Whether tile `tile` owns point `p`. Exactly one tile owns any
    /// point, which is what makes reference-point dedup exact.
    fn owns(&self, tile: usize, p: &Point<D>) -> bool {
        self.tile_of(p) == tile
    }

    /// Multi-assign every rectangle to the tiles it overlaps. Returns one
    /// index list per tile, preserving input order within a tile; indices
    /// are `u32` (the same id space as `cbb_rtree::DataId`).
    fn assign(&self, rects: &[Rect<D>]) -> Vec<Vec<u32>> {
        assert!(
            rects.len() <= u32::MAX as usize,
            "object count exceeds the u32 id space"
        );
        let mut per_tile = vec![Vec::new(); self.tile_count()];
        for (i, r) in rects.iter().enumerate() {
            for t in self.covering_tiles(r) {
                per_tile[t].push(i as u32);
            }
        }
        per_tile
    }
}

/// Load-imbalance metric of a partitioning for a join workload: estimated
/// per-tile work is `|left assigned| × |right assigned|` (the size of the
/// candidate cross product), and the imbalance is **max / mean** over the
/// tiles that can produce pairs. `1.0` is a perfect balance; a single hot
/// tile holding half the work of a 64-tile grid scores ≈ 32.
///
/// This is the metric `BENCH_skew.json` reports for uniform vs adaptive
/// partitioning.
pub fn load_imbalance<const D: usize, P: Partitioner<D>>(
    partitioner: &P,
    left: &[Rect<D>],
    right: &[Rect<D>],
) -> f64 {
    let la = partitioner.assign(left);
    let ra = partitioner.assign(right);
    let weights: Vec<f64> = la
        .iter()
        .zip(&ra)
        .map(|(l, r)| l.len() as f64 * r.len() as f64)
        .filter(|&w| w > 0.0)
        .collect();
    if weights.is_empty() {
        return 1.0;
    }
    let max = weights.iter().cloned().fold(0.0f64, f64::max);
    let mean = weights.iter().sum::<f64>() / weights.len() as f64;
    max / mean
}

/// Either of the engine's partitioners behind one concrete type — what
/// lets a single catalog serve datasets with **different partitioner
/// kinds** side by side (a grid for a uniform or mildly skewed layer, a
/// quadtree for a heavily clustered one) while everything downstream
/// stays generic over one `P`.
///
/// Dispatch is a `match` per call; the partitioner contract (total
/// ownership, covering consistency) is inherited unchanged from the
/// wrapped implementation, so joins and reference-point dedup stay
/// exact. Equality (used by the serve layer to decide whether a
/// cross-dataset join can borrow the probe side's cached forest)
/// compares kind *and* fitted boundaries.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyPartitioner<const D: usize> {
    /// A sample-quantile (or, fitted to no sample, equal-width)
    /// [`crate::AdaptiveGrid`].
    Adaptive(crate::AdaptiveGrid<D>),
    /// A budget-driven [`crate::QuadtreePartitioner`].
    Quadtree(crate::QuadtreePartitioner<D>),
}

impl<const D: usize> From<crate::AdaptiveGrid<D>> for AnyPartitioner<D> {
    fn from(p: crate::AdaptiveGrid<D>) -> Self {
        AnyPartitioner::Adaptive(p)
    }
}

impl<const D: usize> From<crate::QuadtreePartitioner<D>> for AnyPartitioner<D> {
    fn from(p: crate::QuadtreePartitioner<D>) -> Self {
        AnyPartitioner::Quadtree(p)
    }
}

impl<const D: usize> Partitioner<D> for AnyPartitioner<D> {
    fn tile_count(&self) -> usize {
        match self {
            AnyPartitioner::Adaptive(p) => Partitioner::tile_count(p),
            AnyPartitioner::Quadtree(p) => Partitioner::tile_count(p),
        }
    }

    fn tile_of(&self, p: &Point<D>) -> usize {
        match self {
            AnyPartitioner::Adaptive(g) => Partitioner::tile_of(g, p),
            AnyPartitioner::Quadtree(g) => Partitioner::tile_of(g, p),
        }
    }

    fn covering_tiles(&self, r: &Rect<D>) -> Vec<usize> {
        match self {
            AnyPartitioner::Adaptive(p) => Partitioner::covering_tiles(p, r),
            AnyPartitioner::Quadtree(p) => Partitioner::covering_tiles(p, r),
        }
    }

    fn tile_rect(&self, tile: usize) -> Rect<D> {
        match self {
            AnyPartitioner::Adaptive(p) => Partitioner::tile_rect(p, tile),
            AnyPartitioner::Quadtree(p) => Partitioner::tile_rect(p, tile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveGrid;
    use cbb_geom::SplitMix64;

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    /// A 4 × 4 equal-cut grid: the partitioner contract checked on the
    /// simplest cut placement.
    fn grid4() -> AdaptiveGrid<2> {
        AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [4, 4], &[])
    }

    #[test]
    fn tile_rects_tile_the_domain() {
        let g = grid4();
        assert_eq!(g.tile_count(), 16);
        let total: f64 = (0..16).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 10_000.0).abs() < 1e-9);
        // Round-trip: the center of every tile maps back to that tile.
        for t in 0..16 {
            assert_eq!(g.tile_of(&g.tile_rect(t).center()), t);
            assert!(g.owns(t, &g.tile_rect(t).center()));
        }
    }

    #[test]
    fn every_point_owned_by_exactly_one_tile() {
        let g = grid4();
        let mut rng = SplitMix64::new(9);
        for _ in 0..2_000 {
            // Include out-of-domain points: clamping must still pick one.
            let p = Point([rng.gen_range(-20.0, 120.0), rng.gen_range(-20.0, 120.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn boundary_points_resolve_to_one_side() {
        let g = grid4();
        // x = 25 is the face between columns 0 and 1: owned by column 1.
        assert_eq!(g.cell_of(&Point([25.0, 10.0])), [1, 0]);
        // The domain's upper corner belongs to the last tile.
        assert_eq!(g.cell_of(&Point([100.0, 100.0])), [3, 3]);
        // Outside points clamp to border cells.
        assert_eq!(g.cell_of(&Point([-5.0, 105.0])), [0, 3]);
    }

    #[test]
    fn covering_tiles_matches_geometry() {
        let g = grid4();
        let mut rng = SplitMix64::new(10);
        for _ in 0..500 {
            let x = rng.gen_range(-10.0, 100.0);
            let y = rng.gen_range(-10.0, 100.0);
            let r = r2(
                x,
                y,
                x + rng.gen_range(0.1, 60.0),
                y + rng.gen_range(0.1, 60.0),
            );
            let covered = g.covering_tiles(&r);
            // Every covered tile geometrically intersects r once r is
            // clamped to the domain (fully outside rects clamp to border
            // tiles they do not touch — that is the intended semantics).
            if let Some(clamped) = r.intersection(g.domain()) {
                for &t in &covered {
                    let tile = g.tile_rect(t);
                    assert!(
                        tile.intersects(&clamped),
                        "tile {t} {tile:?} does not meet {clamped:?}"
                    );
                }
            }
            // And no tile strictly containing a piece of r is missed.
            for t in 0..g.tile_count() {
                if g.tile_rect(t)
                    .intersection(&r)
                    .is_some_and(|i| i.volume() > 1e-12)
                {
                    assert!(covered.contains(&t), "missed tile {t} for {r:?}");
                }
            }
        }
    }

    #[test]
    fn spanning_object_lands_in_all_its_tiles() {
        let g = grid4();
        let r = r2(20.0, 20.0, 55.0, 30.0); // columns 0..=2 × rows 0..=1
        let assigned = g.assign(&[r]);
        let tiles: Vec<usize> = (0..16).filter(|&t| !assigned[t].is_empty()).collect();
        assert_eq!(tiles.len(), 6);
        for &t in &tiles {
            assert_eq!(assigned[t], vec![0]);
        }
    }

    #[test]
    fn degenerate_1x1_grid_owns_everything() {
        let g = AdaptiveGrid::from_sample(r2(0.0, 0.0, 10.0, 10.0), [1, 1], &[]);
        assert_eq!(g.tile_count(), 1);
        assert!(g.owns(0, &Point([3.0, 3.0])));
        assert!(g.owns(0, &Point([-100.0, 100.0])));
        assert_eq!(g.covering_tiles(&r2(2.0, 2.0, 8.0, 8.0)), vec![0]);
    }

    #[test]
    fn zero_extent_domain_axis_clamps_instead_of_dividing() {
        // Regression: all data on the line y = 5 → the domain MBB has
        // zero extent in y. Every equal-width y cut then sits at 5, and
        // cell lookup is a binary search, not a division by the zero
        // cell width: a cut belongs to the upper cell, so the line
        // itself and everything above it fall in the last row, and the
        // x axis still partitions normally.
        let g = AdaptiveGrid::from_sample(r2(0.0, 5.0, 100.0, 5.0), [4, 4], &[]);
        for (p, want) in [
            (Point([10.0, 5.0]), [0usize, 3usize]),
            (Point([99.0, 5.0]), [3, 3]),
            // Off-line and out-of-domain points still clamp to a cell.
            (Point([50.0, 7.0]), [2, 3]),
            (Point([-3.0, -9.0]), [0, 0]),
        ] {
            let cell = g.cell_of(&p);
            assert!(cell.iter().zip(g.dims()).all(|(&c, n)| c < n));
            assert_eq!(cell, want, "point {p:?}");
        }
        // Exactly-one-owner still holds on and off the degenerate axis.
        let mut rng = SplitMix64::new(77);
        for _ in 0..500 {
            let p = Point([rng.gen_range(-10.0, 110.0), rng.gen_range(0.0, 10.0)]);
            let owners = (0..g.tile_count()).filter(|&t| g.owns(t, &p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
        // covering_tiles stays consistent with ownership for rects that
        // cross (and stick out of) the degenerate axis.
        let r = r2(20.0, 4.0, 80.0, 6.0);
        let covered = g.covering_tiles(&r);
        for &p in &[Point([20.0, 5.0]), Point([50.0, 5.0]), Point([80.0, 5.0])] {
            assert!(covered.contains(&g.tile_of(&p)), "missing owner of {p:?}");
        }
        // Fully degenerate domain (a single point) still works: the point
        // lands in the last cell, far points clamp per axis, and a rect
        // around the point covers its owner.
        let point_grid = AdaptiveGrid::from_sample(r2(3.0, 3.0, 3.0, 3.0), [8, 8], &[]);
        assert_eq!(point_grid.tile_of(&Point([3.0, 3.0])), 63);
        assert_eq!(point_grid.tile_of(&Point([100.0, -100.0])), 56);
        let owners = (0..64)
            .filter(|&t| point_grid.owns(t, &Point([3.0, 3.0])))
            .count();
        assert_eq!(owners, 1);
        assert!(point_grid
            .covering_tiles(&r2(0.0, 0.0, 9.0, 9.0))
            .contains(&63));
    }

    #[test]
    fn reference_point_ownership_is_covered_by_both_sides() {
        // The invariant the join's exactness rests on: for any
        // intersecting pair, the tile owning the reference point is in
        // the covering set of both rectangles.
        let g = grid4();
        let mut rng = SplitMix64::new(11);
        for _ in 0..1_000 {
            let ax = rng.gen_range(-10.0, 100.0);
            let ay = rng.gen_range(-10.0, 100.0);
            let a = r2(
                ax,
                ay,
                ax + rng.gen_range(0.1, 50.0),
                ay + rng.gen_range(0.1, 50.0),
            );
            let bx = rng.gen_range(-10.0, 100.0);
            let by = rng.gen_range(-10.0, 100.0);
            let b = r2(
                bx,
                by,
                bx + rng.gen_range(0.1, 50.0),
                by + rng.gen_range(0.1, 50.0),
            );
            if !a.intersects(&b) {
                continue;
            }
            let owner = g.tile_of(&cbb_joins::reference_point(&a, &b));
            assert!(g.covering_tiles(&a).contains(&owner));
            assert!(g.covering_tiles(&b).contains(&owner));
        }
    }

    #[test]
    fn rectangular_grids_work() {
        let g = AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 50.0), [5, 2], &[]);
        assert_eq!(g.tile_count(), 10);
        assert_eq!(g.dims(), [5, 2]);
        let total: f64 = (0..10).map(|t| g.tile_rect(t).volume()).sum();
        assert!((total - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn assign_is_exhaustive() {
        let g = grid4();
        let mut rng = SplitMix64::new(12);
        let rects: Vec<Rect<2>> = (0..300)
            .map(|_| {
                let x = rng.gen_range(0.0, 95.0);
                let y = rng.gen_range(0.0, 95.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.1, 30.0),
                    y + rng.gen_range(0.1, 30.0),
                )
            })
            .collect();
        let assigned = g.assign(&rects);
        assert_eq!(assigned.len(), 16);
        // Every object appears at least once; ids stay in range.
        let mut seen = vec![false; rects.len()];
        for list in &assigned {
            for &i in list {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn data_version_is_monotone() {
        let mut v = DataVersion::initial();
        assert_eq!(v, DataVersion(0));
        assert_eq!(v.next(), DataVersion(1));
        v.bump();
        v.bump();
        assert_eq!(v, DataVersion(2));
        assert!(DataVersion(1) < DataVersion(2));
    }

    #[test]
    fn load_imbalance_flags_hot_tiles() {
        let g = AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [2, 2], &[]);
        // Perfectly spread: one object per tile on each side.
        let spread: Vec<Rect<2>> = (0..4)
            .map(|t| {
                let c = g.tile_rect(t).center();
                Rect::new(c, c)
            })
            .collect();
        assert!((load_imbalance(&g, &spread, &spread) - 1.0).abs() < 1e-9);
        // Eight objects clumped into tile 0 plus the spread baseline:
        // tile 0 outweighs the rest 9:1.
        let mut clumped = spread.clone();
        clumped.extend((0..8).map(|_| r2(1.0, 1.0, 2.0, 2.0)));
        let imb = load_imbalance(&g, &clumped, &spread);
        assert!((imb - 3.0).abs() < 1e-9, "imbalance {imb}");
        // Empty side: defined as balanced.
        assert_eq!(load_imbalance(&g, &[], &spread), 1.0);
    }
}
